//! `rank` — attempt-log mining, learned-reranker training, and the
//! three-arm premise-rank A/B experiment.
//!
//! Subcommands:
//!
//! * `mine` — evaluate the embedded corpus (and, with `--gen`, the pinned
//!   generated corpus's hard tier) with per-proposal attempt collection
//!   switched on, appending every attempt to a JSONL log. Runs with the
//!   cell cache disabled so the mined log is complete; the runner appends
//!   each cell's records in theorem order, so the log is the same at any
//!   `--jobs`.
//! * `train` — mine features out of an attempt log (label = whether the
//!   attempt sits on a successful proof path), fit the Laplace-smoothed
//!   log-odds scorer, and write the versioned model artifact. Byte-stable:
//!   the same log trains to the same artifact, hash and all.
//! * `eval` — score an attempt log with a trained model and report the
//!   within-theorem pairwise ranking accuracy (how often an on-path
//!   attempt outscores an off-path one for the same theorem).
//! * `ab` — run `--premise-rank` off vs graph vs learned over the shipped
//!   corpus and the pinned 1k generated corpus's hard tier (six cells,
//!   tagged `rank-*` via their `variant` field), appending one
//!   fleet-ledger record per arm with an `expansions` counter the
//!   regression radar trends, and writing
//!   `rank_ab.json` + `rank_report.md` under `target/experiments/`.
//!
//! `--log` and `--model` default to the paths `mine` and `train` write;
//! `ab --model` takes none of the training flags (`--log`, `--refine`).
//!
//! ```text
//! rank mine [--out PATH] [--sampled] [--gen] [--spec PATH] [--jobs N]
//! rank train [--log PATH] [--out PATH] [--refine] [--spec PATH]
//! rank eval [--log PATH] [--model PATH] [--spec PATH]
//! rank ab [--model PATH] [--log PATH] [--refine] [--spec PATH] [--fresh]
//!         [--jobs N]
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use corpus_analysis::features::FeatureVec;
use corpus_analysis::score::{clear_model, install_model, Model};
use corpus_gen::generate_pinned;
use fscq_corpus::Corpus;
use llm_fscq_bench::rank::{base_cell, features_of_log, gen_dev, hard_tier, PINNED_SPEC};
use llm_fscq_bench::{artifact_dir, ledger_append, run_record, GridOpts};
use proof_chaos::cli::{parse_command, Args, Cli, Flag};
use proof_metrics::{CellConfig, CellResult, EvalScope};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_search::PremiseRank;
use proof_trace::attempts::{AttemptLog, AttemptRecord};
use proof_trace::ledger::RunRecord;

/// Default mined-attempt log location.
const DEFAULT_LOG: &str = "target/experiments/attempts.jsonl";
/// Default trained-model artifact location.
const DEFAULT_MODEL: &str = "target/experiments/rank_model.bin";

fn fail(msg: &str) -> ! {
    eprintln!("[rank] FAIL: {msg}");
    std::process::exit(1)
}

/// The pinned generated-corpus spec: `--spec`, or the checked-in fixture.
fn spec_path(args: &Args) -> PathBuf {
    PathBuf::from(args.value("--spec").unwrap_or(PINNED_SPEC))
}

/// The attempt log at `--log`, or the mined one; fails when it holds no
/// record.
fn attempt_log(args: &Args) -> Vec<AttemptRecord> {
    let path = args.value("--log").unwrap_or(DEFAULT_LOG);
    let log = AttemptLog::at(path).load();
    if log.is_empty() {
        fail(&format!(
            "{path}: no valid attempt records — run `rank mine` first"
        ));
    }
    log
}

/// The labelled feature vectors of the attempt log's searches.
fn training_samples(args: &Args) -> Vec<(FeatureVec, bool)> {
    features_of_log(&attempt_log(args), &spec_path(args))
        .unwrap_or_else(|e| fail(&e))
        .into_values()
        .flatten()
        .collect()
}

// ---------------------------------------------------------------- mine

fn cmd_mine(args: &Args) {
    let out = args.value("--out").unwrap_or(DEFAULT_LOG);
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::remove_file(out).ok();

    // No cache: cached cells never run a search, so a cached mine would
    // produce an empty log.
    let runner = GridOpts::from_args(args)
        .runner()
        .without_cache()
        .with_attempt_log(out);
    let corpus = Corpus::load();
    let scope = if args.given("--sampled") {
        EvalScope::Sampled
    } else {
        EvalScope::Full
    };
    let cells: Vec<CellConfig> = [ModelProfile::gpt4o(), ModelProfile::gpt4o_mini()]
        .into_iter()
        .map(|profile| {
            let mut cell = CellConfig::standard(profile, PromptSetting::Hints);
            cell.scope = scope;
            cell.variant = Some("rank-mine".to_string());
            cell
        })
        .collect();
    let gen = args.given("--gen").then(|| {
        let gc = generate_pinned(&spec_path(args)).unwrap_or_else(|e| fail(&e));
        let mut cell = base_cell("rank-mine:genhard", PremiseRank::Off);
        cell.subset = Some(hard_tier(&gc));
        (gen_dev(&gc).unwrap_or_else(|e| fail(&e)), cell)
    });
    let mut pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|c| (&corpus, c)).collect();
    pairs.extend(gen.as_ref().map(|(fscq, cell)| (fscq, cell)));
    llm_fscq_bench::completed(&runner.run_cells(&pairs));
    let n = AttemptLog::at(out).load().len();
    println!("[rank] mined {n} attempt record(s) -> {out}");
}

// --------------------------------------------------------------- train

fn cmd_train(args: &Args) {
    let out = args.value("--out").unwrap_or(DEFAULT_MODEL);
    let samples = training_samples(args);
    let positives = samples.iter().filter(|(_, y)| *y).count();
    let model = Model::train(&samples, args.given("--refine"));
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let bytes = model.to_bytes();
    std::fs::write(out, &bytes).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!(
        "[rank] trained on {} sample(s) ({} on-path) -> {} bucket(s), {} bytes, hash {:016x} -> {out}",
        samples.len(),
        positives,
        model.weights.len(),
        bytes.len(),
        model.content_hash()
    );
}

// ---------------------------------------------------------------- eval

fn cmd_eval(args: &Args) {
    let model_path = args.value("--model").unwrap_or(DEFAULT_MODEL);
    let log = attempt_log(args);
    let bytes =
        std::fs::read(model_path).unwrap_or_else(|e| fail(&format!("read {model_path}: {e}")));
    let model = Model::from_bytes(&bytes).unwrap_or_else(|e| fail(&e));

    // Within-theorem pairwise ranking accuracy: does the model put
    // on-path attempts above off-path ones for the same goal?
    let grouped = features_of_log(&log, &spec_path(args)).unwrap_or_else(|e| fail(&e));
    let (mut correct, mut total) = (0u64, 0u64);
    for samples in grouped.values() {
        let scores: Vec<(i64, bool)> = samples
            .iter()
            .map(|(f, y)| (model.score_milli(f), *y))
            .collect();
        for (sp, _) in scores.iter().filter(|(_, y)| *y) {
            for (sn, _) in scores.iter().filter(|(_, y)| !*y) {
                total += 1;
                if sp > sn {
                    correct += 1;
                }
            }
        }
    }
    let acc = if total > 0 {
        correct as f64 / total as f64
    } else {
        0.0
    };
    println!(
        "[rank] eval: {} record(s), {} theorem(s), pairwise ranking accuracy {:.3} ({correct}/{total})",
        log.len(),
        grouped.len(),
        acc
    );
}

// ------------------------------------------------------------------ ab

struct ArmResult {
    arm: &'static str,
    corpus: &'static str,
    theorems: usize,
    proved: usize,
    expansions: u64,
}

fn summarize(arm: &'static str, corpus: &'static str, r: &CellResult) -> ArmResult {
    ArmResult {
        arm,
        corpus,
        theorems: r.outcomes.len(),
        proved: r.outcomes.iter().filter(|o| o.outcome == "proved").count(),
        expansions: r.outcomes.iter().map(|o| u64::from(o.queries)).sum(),
    }
}

fn cmd_ab(args: &Args) {
    // The learned arm needs a model. Use --model when given; otherwise
    // train one from --log (or the default mined log).
    let model = match args.value("--model") {
        Some(path) => {
            if args.given("--log") || args.given("--refine") {
                args.fail("rank ab: --model takes no training flags (--log, --refine)");
            }
            let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            Model::from_bytes(&bytes).unwrap_or_else(|e| fail(&e))
        }
        None => Model::train(&training_samples(args), args.given("--refine")),
    };
    let model_hash = model.content_hash();

    let opts = GridOpts::from_args(args);
    let cached = opts.runner();
    let uncached = opts.runner().without_cache();

    let embedded = Corpus::load();
    let gc = generate_pinned(&spec_path(args)).unwrap_or_else(|e| fail(&e));
    let tier = hard_tier(&gc);
    let gen_fscq = gen_dev(&gc).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "[rank] ab: gen hard tier = {} of {} theorems, model hash {model_hash:016x}",
        tier.len(),
        gc.manifest.count
    );

    let arms: [(&'static str, PremiseRank); 3] = [
        ("rank-off", PremiseRank::Off),
        ("rank-graph", PremiseRank::Graph),
        ("rank-learned", PremiseRank::Learned),
    ];
    const CORPORA: [&str; 2] = ["embedded", "genhard"];
    // Each arm's cells: the embedded corpus, then the gen hard tier. The
    // tier's cells key on its theorem names, so their variant carries the
    // pinned corpus fingerprint to keep another `--spec` from sharing them.
    let cells: Vec<(&Corpus, CellConfig)> = arms
        .iter()
        .flat_map(|&(arm, rank)| {
            let mut gen_cell = base_cell(arm, rank);
            gen_cell.variant = Some(format!("{arm}:genhard:{}", gc.manifest.fingerprint));
            gen_cell.subset = Some(tier.clone());
            [(&embedded, base_cell(arm, rank)), (&gen_fscq, gen_cell)]
        })
        .collect();
    let pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|(c, cell)| (*c, cell)).collect();
    // The learned arm, last, never uses the cell cache: the model's
    // content is not part of the cache key, so a cached cell could answer
    // for a different model.
    let (cacheable, learned) = pairs.split_at(pairs.len() - CORPORA.len());
    let mut runs = cached.run_cells(cacheable);
    install_model(model);
    runs.extend(uncached.run_cells(learned));
    clear_model();
    let results: Vec<ArmResult> = llm_fscq_bench::completed(&runs)
        .into_iter()
        .enumerate()
        .map(|(i, r)| summarize(arms[i / CORPORA.len()].0, CORPORA[i % CORPORA.len()], r))
        .collect();

    // Render + persist the report.
    let mut report = String::from(
        "# Premise-rank A/B (off / graph / learned)\n\n\
         | arm | corpus | proved | theorems | expansions |\n\
         |-----|--------|--------|----------|------------|\n",
    );
    for r in &results {
        report.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.arm, r.corpus, r.proved, r.theorems, r.expansions
        ));
    }
    let baseline: u64 = results
        .iter()
        .filter(|r| r.arm == "rank-off")
        .map(|r| r.expansions)
        .sum();
    let learned: u64 = results
        .iter()
        .filter(|r| r.arm == "rank-learned")
        .map(|r| r.expansions)
        .sum();
    let delta = if baseline > 0 {
        100.0 * (baseline as f64 - learned as f64) / baseline as f64
    } else {
        0.0
    };
    report.push_str(&format!(
        "\nmodel hash: `{model_hash:016x}`; learned vs off expansions: {learned} vs {baseline} \
         ({delta:+.1}% reduction)\n"
    ));
    print!("{report}");

    let art = artifact_dir();
    std::fs::create_dir_all(&art).ok();
    std::fs::write(art.join("rank_report.md"), &report)
        .unwrap_or_else(|e| fail(&format!("write rank_report.md: {e}")));
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\"arm\": \"{}\", \"corpus\": \"{}\", \"theorems\": {}, \
                 \"proved\": {}, \"expansions\": {}}}",
                r.arm, r.corpus, r.theorems, r.proved, r.expansions
            )
        })
        .collect();
    std::fs::write(
        art.join("rank_ab.json"),
        format!("[\n{}\n]\n", rows.join(",\n")),
    )
    .unwrap_or_else(|e| fail(&format!("write rank_ab.json: {e}")));

    // Fleet ledger: one record per arm (both corpora folded in), with the
    // expansion total as a trended counter so `radar --check` flags
    // regressions in any arm.
    let per_arm = CORPORA.len();
    for ((arm, _), (arm_runs, arm_results)) in arms
        .iter()
        .zip(runs.chunks(per_arm).zip(results.chunks(per_arm)))
    {
        let counters = BTreeMap::from([(
            "expansions".to_string(),
            arm_results.iter().map(|r| r.expansions).sum::<u64>(),
        )]);
        if let Some(path) = ledger_append(&RunRecord {
            bin: "rank".to_string(),
            label: "premise-rank-ab".to_string(),
            variant: arm.to_string(),
            jobs: cached.jobs() as u64,
            counters,
            ..run_record(arm_runs)
        }) {
            eprintln!("[rank] ledger appended to {}", path.display());
        }
    }
}

fn main() {
    let path = |name| Flag::value(name, "PATH");
    let (log, out, model, spec) = (
        path("--log"),
        path("--out"),
        path("--model"),
        path("--spec"),
    );
    let refine = Flag::switch("--refine");
    let commands = [
        Cli::new("rank mine")
            .flags(&[out, Flag::switch("--sampled"), Flag::switch("--gen"), spec])
            .flags(&GridOpts::flags(&["--jobs"])),
        Cli::new("rank train").flags(&[log, out, refine, spec]),
        Cli::new("rank eval").flags(&[log, model, spec]),
        Cli::new("rank ab")
            .flags(&[model, log, refine, spec])
            .flags(&GridOpts::flags(&["--fresh", "--jobs"])),
    ];
    match parse_command(&commands, None) {
        ("mine", args) => cmd_mine(&args),
        ("train", args) => cmd_train(&args),
        ("eval", args) => cmd_eval(&args),
        (_, args) => cmd_ab(&args),
    }
}

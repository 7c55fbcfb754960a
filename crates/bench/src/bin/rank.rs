//! `rank` — attempt-log mining, learned-reranker training, and the
//! three-arm premise-rank A/B experiment.
//!
//! Subcommands:
//!
//! * `mine` — evaluate the embedded corpus (and, with `--gen`, the pinned
//!   generated corpus's hard tier) with per-proposal attempt collection
//!   switched on, appending every attempt to a JSONL log. Runs on one
//!   worker with the cell cache disabled so the mined log is complete and
//!   deterministic.
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
//! Usage:
//!   rank mine  [--out PATH] [--sampled] [--gen] [--spec PATH]
//!   rank train --log PATH [--out PATH] [--refine] [--spec PATH]
//!   rank eval  --log PATH --model PATH [--spec PATH]
//!   rank ab    [--model PATH | --log PATH] [--fresh] [--jobs J]
//!              [--refine] [--spec PATH]

use std::collections::BTreeMap;
use std::path::PathBuf;

use corpus_analysis::features::FeatureVec;
use corpus_analysis::score::{clear_model, install_model, Model};
use corpus_gen::generate_pinned;
use fscq_corpus::Corpus;
use llm_fscq_bench::rank::{base_cell, features_of_log, gen_dev, hard_tier, PINNED_SPEC};
use llm_fscq_bench::{artifact_dir, ledger_append, LedgerRun};
use proof_metrics::experiment::{clear_attempt_log, install_attempt_log};
use proof_metrics::runner::{resolve_jobs, Runner};
use proof_metrics::{CellConfig, CellResult, EvalScope};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_search::PremiseRank;
use proof_trace::attempts::AttemptLog;

/// Default mined-attempt log location.
const DEFAULT_LOG: &str = "target/experiments/attempts.jsonl";
/// Default trained-model artifact location.
const DEFAULT_MODEL: &str = "target/experiments/rank_model.bin";
/// Cell cache for the A/B's cacheable arms, separate from `target/cells`.
const RANK_CACHE_DIR: &str = "target/cells-rank";

fn fail(msg: &str) -> ! {
    eprintln!("[rank] FAIL: {msg}");
    std::process::exit(1)
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The pinned generated-corpus spec: `--spec`, or the checked-in fixture.
fn spec_path() -> PathBuf {
    PathBuf::from(flag_value("--spec").unwrap_or_else(|| PINNED_SPEC.to_string()))
}

// ---------------------------------------------------------------- mine

fn cmd_mine() {
    let out = flag_value("--out").unwrap_or_else(|| DEFAULT_LOG.to_string());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::remove_file(&out).ok();
    install_attempt_log(&out);

    // One worker, no cache: cached cells never run a search, so a cached
    // mine would produce an empty log; and a single worker keeps the
    // record order deterministic.
    let runner = Runner::from_env().with_jobs(1).without_cache();
    let corpus = Corpus::load();
    let scope = if flag_present("--sampled") {
        EvalScope::Sampled
    } else {
        EvalScope::Full
    };
    for profile in [ModelProfile::gpt4o(), ModelProfile::gpt4o_mini()] {
        let mut cell = CellConfig::standard(profile, PromptSetting::Hints);
        cell.scope = scope;
        cell.variant = Some("rank-mine".to_string());
        eprintln!("[rank] mine: {}", cell.label());
        runner.run_cell(&corpus, &cell);
    }
    if flag_present("--gen") {
        let gc = generate_pinned(&spec_path()).unwrap_or_else(|e| fail(&e));
        let fscq = gen_dev(&gc).unwrap_or_else(|e| fail(&e));
        let mut cell = base_cell("rank-mine:genhard", PremiseRank::Off);
        cell.subset = Some(hard_tier(&gc));
        eprintln!(
            "[rank] mine: {} ({} theorems)",
            cell.label(),
            fscq.dev.theorems.len()
        );
        runner.run_cell(&fscq, &cell);
    }
    clear_attempt_log();
    let n = AttemptLog::at(&out).load().len();
    println!("[rank] mined {n} attempt record(s) -> {out}");
}

// --------------------------------------------------------------- train

fn cmd_train() {
    let log_path = flag_value("--log").unwrap_or_else(|| DEFAULT_LOG.to_string());
    let out = flag_value("--out").unwrap_or_else(|| DEFAULT_MODEL.to_string());
    let log = AttemptLog::at(&log_path).load();
    if log.is_empty() {
        fail(&format!("{log_path}: no valid attempt records"));
    }
    let samples: Vec<(FeatureVec, bool)> = features_of_log(&log, &spec_path())
        .unwrap_or_else(|e| fail(&e))
        .into_values()
        .flatten()
        .collect();
    let positives = samples.iter().filter(|(_, y)| *y).count();
    let model = Model::train(&samples, flag_present("--refine"));
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let bytes = model.to_bytes();
    std::fs::write(&out, &bytes).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
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

fn cmd_eval() {
    let log_path = flag_value("--log").unwrap_or_else(|| DEFAULT_LOG.to_string());
    let model_path = flag_value("--model").unwrap_or_else(|| DEFAULT_MODEL.to_string());
    let log = AttemptLog::at(&log_path).load();
    if log.is_empty() {
        fail(&format!("{log_path}: no valid attempt records"));
    }
    let bytes =
        std::fs::read(&model_path).unwrap_or_else(|e| fail(&format!("read {model_path}: {e}")));
    let model = Model::from_bytes(&bytes).unwrap_or_else(|e| fail(&e));

    // Within-theorem pairwise ranking accuracy: does the model put
    // on-path attempts above off-path ones for the same goal?
    let grouped = features_of_log(&log, &spec_path()).unwrap_or_else(|e| fail(&e));
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

fn cmd_ab() {
    // The learned arm needs a model. Use --model when given; otherwise
    // train one from --log (or the default mined log), mining it first if
    // it does not exist yet.
    let model = match flag_value("--model") {
        Some(path) => {
            let bytes = std::fs::read(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            Model::from_bytes(&bytes).unwrap_or_else(|e| fail(&e))
        }
        None => {
            let log_path = flag_value("--log").unwrap_or_else(|| DEFAULT_LOG.to_string());
            if !std::path::Path::new(&log_path).exists() {
                fail(&format!(
                    "{log_path} does not exist — run `rank mine` first or pass --model PATH"
                ));
            }
            let log = AttemptLog::at(&log_path).load();
            if log.is_empty() {
                fail(&format!("{log_path}: no valid attempt records"));
            }
            let samples: Vec<(FeatureVec, bool)> = features_of_log(&log, &spec_path())
                .unwrap_or_else(|e| fail(&e))
                .into_values()
                .flatten()
                .collect();
            Model::train(&samples, flag_present("--refine"))
        }
    };
    let model_hash = model.content_hash();

    let jobs = resolve_jobs();
    let cached = if flag_present("--fresh") {
        Runner::from_env().with_jobs(jobs).without_cache()
    } else {
        Runner::from_env()
            .with_jobs(jobs)
            .with_cache_dir(RANK_CACHE_DIR)
    };
    // The learned arm never uses the cell cache: the model's content is
    // not part of the cache key, so a cached cell could answer for a
    // different model.
    let uncached = Runner::from_env().with_jobs(jobs).without_cache();

    let embedded = Corpus::load();
    let gc = generate_pinned(&spec_path()).unwrap_or_else(|e| fail(&e));
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
    let mut results: Vec<ArmResult> = Vec::new();
    for (arm, rank) in arms {
        let runner: &Runner = if rank == PremiseRank::Learned {
            install_model(model.clone());
            &uncached
        } else {
            &cached
        };
        let cell = base_cell(arm, rank);
        eprintln!("[rank] ab: {} (embedded)", cell.label());
        results.push(summarize(
            arm,
            "embedded",
            &runner.run_cell(&embedded, &cell),
        ));

        let mut gen_cell = base_cell(arm, rank);
        gen_cell.variant = Some(format!("{arm}:genhard"));
        gen_cell.subset = Some(tier.clone());
        eprintln!("[rank] ab: {} (gen hard tier)", gen_cell.label());
        results.push(summarize(
            arm,
            "genhard",
            &runner.run_cell(&gen_fscq, &gen_cell),
        ));

        if rank == PremiseRank::Learned {
            clear_model();
        }
    }

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

    let mut records = cached.bench_records();
    records.extend(uncached.bench_records());

    // Fleet ledger: one record per arm (both corpora folded in), with the
    // expansion total as a trended counter so `radar --check` flags
    // regressions in any arm.
    for (arm, _) in arms {
        let arm_results: Vec<&ArmResult> = results.iter().filter(|r| r.arm == arm).collect();
        let arm_records: Vec<_> = records
            .iter()
            .filter(|c| c.variant == arm || c.variant == format!("{arm}:genhard"))
            .cloned()
            .collect();
        let mut counters = BTreeMap::new();
        counters.insert(
            "expansions".to_string(),
            arm_results.iter().map(|r| r.expansions).sum::<u64>(),
        );
        if let Some(path) = ledger_append(&LedgerRun {
            bin: "rank",
            label: "premise-rank-ab",
            variant: arm,
            jobs,
            records: &arm_records,
            theorems: Some(arm_results.iter().map(|r| r.theorems as u64).sum()),
            proved: arm_results.iter().map(|r| r.proved as u64).sum(),
            counters,
            ..LedgerRun::default()
        }) {
            eprintln!("[rank] ledger appended to {}", path.display());
        }
    }
}

fn main() {
    let mode = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_default();
    match mode.as_str() {
        "mine" => cmd_mine(),
        "train" => cmd_train(),
        "eval" => cmd_eval(),
        "ab" => cmd_ab(),
        other => {
            eprintln!(
                "usage: rank [mine|train|eval|ab] [--out PATH] [--log PATH] [--model PATH] \
                 [--spec PATH] [--sampled] [--gen] [--refine] [--fresh] [--jobs J] (got `{other}`)"
            );
            std::process::exit(2);
        }
    }
}

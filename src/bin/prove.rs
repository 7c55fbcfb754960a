//! `prove` — run the LLM-guided best-first search on one corpus theorem,
//! or re-verify an edited corpus incrementally.
//!
//! ```text
//! prove [<theorem>] [--model mini|gpt4o|flash|pro|pro128k] [--vanilla]
//!       [--retrieval K] [--limit N] [--width W] [--strategy best|greedy|bfs]
//!       [--show-query] [--no-preflight]
//!       [--premise-rank off|graph|learned] [--rank-model PATH]
//!       [--attempt-log PATH] [--incremental] [--save-baseline DIR]
//!       [--baseline DIR] [--corpus DIR] [--jobs N]
//! ```
//!
//! Single-theorem mode (`prove <theorem> [cell flags]`) prints the
//! outcome, the search statistics, and (when proved) the found script
//! together with its kernel replay check.
//!
//! `--incremental` runs the change-impact workflow instead, on `--jobs`
//! workers and without a theorem: with `--save-baseline DIR` (which
//! implies `--incremental`) it evaluates the whole cell (or loads it from
//! the cell cache, keyed on the corpus content too) and writes the
//! baseline artifacts (`snapshot.json` + `baseline.json`) to `DIR`;
//! with `--baseline DIR` it diffs the baseline snapshot against the corpus
//! (the embedded one, or a directory of `.v` modules via `--corpus DIR`),
//! prints the impact report, re-verifies only the dirty cone, and merges
//! the baseline results for the clean remainder.

use llm_fscq::analysis::Snapshot;
use llm_fscq::corpus::Corpus;
use llm_fscq::metrics::experiment::attempt_records;
use llm_fscq::metrics::incremental::run_incremental;
use llm_fscq::metrics::runner::cell_cache_key;
use llm_fscq::metrics::{CellConfig, CellResult, Runner};
use llm_fscq::oracle::profiles::ModelProfile;
use llm_fscq::oracle::prompt::{build_prompt, PromptSetting};
use llm_fscq::oracle::split::hint_set;
use llm_fscq::search::{search_with_recovery, PremiseRank, RecoveryConfig, Strategy};
use llm_fscq::vernac::loader::dir_sources;
use proof_chaos::cli::{Args, Cli, Flag};
use proof_trace::attempts::AttemptLog;
use std::path::Path;
use std::process::ExitCode;

fn cli() -> Cli {
    Cli::new("prove").positional("theorem", false).flags(&[
        Flag::one_of("--model", "mini|gpt4o|flash|pro|pro128k"),
        Flag::switch("--vanilla"),
        Flag::parsed::<usize>("--retrieval", "K"),
        Flag::parsed::<u32>("--limit", "N"),
        Flag::parsed::<usize>("--width", "W"),
        Flag::one_of("--strategy", "best|greedy|bfs"),
        Flag::switch("--show-query"),
        Flag::switch("--no-preflight"),
        Flag::one_of("--premise-rank", "off|graph|learned"),
        Flag::value("--rank-model", "PATH"),
        Flag::value("--attempt-log", "PATH"),
        Flag::switch("--incremental"),
        Flag::value("--save-baseline", "DIR"),
        Flag::value("--baseline", "DIR"),
        Flag::value("--corpus", "DIR"),
        Flag::parsed::<usize>("--jobs", "N"),
    ])
}

/// The corpus sources: the embedded benchmark, or every `.v` module in a
/// directory ([`dir_sources`]).
fn corpus_sources_from(dir: Option<&Path>) -> Result<Vec<(String, String)>, String> {
    match dir {
        Some(dir) => dir_sources(dir),
        None => Ok(llm_fscq::corpus::corpus_sources()
            .into_iter()
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect()),
    }
}

/// The cell configuration both modes evaluate, assembled from the
/// model/setting/search flags.
fn cell_of(args: &Args) -> CellConfig {
    let profile = match args.value("--model").unwrap_or("gpt4o") {
        "mini" => ModelProfile::gpt4o_mini(),
        "flash" => ModelProfile::gemini_flash(),
        "pro" => ModelProfile::gemini_pro(),
        "pro128k" => ModelProfile::gemini_pro_128k(),
        _ => ModelProfile::gpt4o(),
    };
    let setting = if args.given("--vanilla") {
        PromptSetting::Vanilla
    } else {
        PromptSetting::Hints
    };
    let mut cell = CellConfig::standard(profile, setting);
    let search = &mut cell.search;
    search.query_limit = args.get("--limit").unwrap_or(search.query_limit);
    search.width = args.get("--width").unwrap_or(search.width);
    search.preflight = !args.given("--no-preflight");
    search.strategy = match args.value("--strategy") {
        Some("greedy") => Strategy::Greedy,
        Some("bfs") => Strategy::BreadthFirst,
        _ => Strategy::BestFirst,
    };
    search.premise_rank = match args.value("--premise-rank") {
        Some("graph") => PremiseRank::Graph,
        Some("learned") => PremiseRank::Learned,
        _ => PremiseRank::Off,
    };
    cell.retrieval = args.get("--retrieval");
    cell
}

/// The runner the incremental mode evaluates on: the worker count of
/// `--jobs`, else `JOBS`, else the machine's parallelism, and the attempt
/// log when `--attempt-log` is given.
fn runner_of(args: &Args) -> Runner {
    let mut runner = Runner::from_env();
    if let Some(jobs) = args.get("--jobs") {
        runner = runner.with_jobs(jobs);
    }
    eprintln!("prove --incremental: {} worker(s)", runner.jobs());
    match args.value("--attempt-log") {
        Some(path) => runner.with_attempt_log(path),
        None => runner,
    }
}

/// `--incremental`: baseline capture or dirty-cone re-verification.
fn incremental_main(args: &Args) -> ExitCode {
    let fail = |msg: String| {
        eprintln!("prove --incremental: {msg}");
        ExitCode::FAILURE
    };
    let sources = match corpus_sources_from(args.value("--corpus").map(Path::new)) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let cell = cell_of(args);

    if let Some(dir) = args.value("--save-baseline").map(Path::new) {
        let (corpus, _graph) = match llm_fscq::metrics::incremental::load_edited(&sources) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let snapshot = Snapshot::capture(&corpus.dev);
        let result = match runner_of(args).run_cell_checked(&corpus, &cell) {
            Ok(r) => r,
            Err(crash) => return fail(crash.to_string()),
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("{}: {e}", dir.display()));
        }
        let baseline_json = match serde_json::to_string_pretty(&result) {
            Ok(t) => t,
            Err(e) => return fail(format!("serialize baseline: {e:?}")),
        };
        if let Err(e) = std::fs::write(dir.join("snapshot.json"), snapshot.to_json())
            .and_then(|()| std::fs::write(dir.join("baseline.json"), baseline_json))
            .and_then(|()| std::fs::write(dir.join("cell_key.txt"), cell_cache_key(&cell)))
        {
            return fail(format!("{}: {e}", dir.display()));
        }
        println!(
            "baseline: {} — {} theorems evaluated, artifacts in {}",
            cell.label(),
            result.outcomes.len(),
            dir.display()
        );
        return ExitCode::SUCCESS;
    }

    let Some(dir) = args.value("--baseline").map(Path::new) else {
        return fail("need --baseline DIR (or --save-baseline DIR to create one)".to_string());
    };
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| {
            format!(
                "{}: {e} (run --save-baseline first?)",
                dir.join(name).display()
            )
        })
    };
    let snapshot = match read("snapshot.json").and_then(|t| Snapshot::from_json(&t)) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let baseline: CellResult = match read("baseline.json")
        .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("baseline.json: {e:?}")))
    {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    // The saved key pins every outcome-affecting flag (--model, --vanilla,
    // --limit, ...); run_incremental additionally re-checks the cell
    // label/setting, but only the key catches search-knob-only drift.
    // Baselines predating the key file skip this check.
    if let Ok(saved) = std::fs::read_to_string(dir.join("cell_key.txt")) {
        if saved.trim() != cell_cache_key(&cell) {
            return fail(format!(
                "baseline in {} was saved under different cell flags (key {} vs requested {}): \
                 re-save the baseline or pass the flags it was saved with",
                dir.display(),
                saved.trim(),
                cell_cache_key(&cell)
            ));
        }
    }
    let runner = runner_of(args);
    let inc = match run_incremental(&runner, &cell, Some(&baseline), &snapshot, &sources) {
        Ok(i) => i,
        Err(e) => return fail(e),
    };
    print!("{}", inc.impact.render());
    if inc.fallback_full {
        println!("(theorem set changed — fell back to a full re-verification)");
    }
    println!(
        "merged  : {} theorems — {} re-verified, {} cone-cache hits, {} from baseline",
        inc.result.outcomes.len(),
        inc.reverified.len(),
        inc.cone_cache_hits,
        inc.served_baseline
    );
    println!(
        "proved  : {:.1}% ({} of {})",
        100.0 * inc.result.proved_rate(),
        inc.result
            .outcomes
            .iter()
            .filter(|o| o.outcome == "proved")
            .count(),
        inc.result.outcomes.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = cli().parse();
    let incremental = args.given("--incremental") || args.given("--save-baseline");
    if incremental && (args.positional(0).is_some() || args.given("--show-query")) {
        args.fail("prove --incremental: takes no <theorem> and no --show-query");
    }
    if !incremental
        && ["--baseline", "--corpus", "--jobs"]
            .iter()
            .any(|f| args.given(f))
    {
        args.fail("prove: --baseline, --corpus and --jobs need --incremental");
    }
    if let Some(path) = args.value("--rank-model") {
        let model = std::fs::read(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|bytes| llm_fscq::analysis::score::Model::from_bytes(&bytes));
        match model {
            Ok(m) => llm_fscq::analysis::score::install_model(m),
            Err(e) => {
                eprintln!("prove: bad --rank-model: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if incremental {
        return incremental_main(&args);
    }
    let Some(theorem) = args.positional(0) else {
        args.fail("prove: missing <theorem>");
    };
    let corpus = Corpus::load();
    let Some(thm) = corpus.dev.theorem(theorem) else {
        eprintln!("unknown theorem `{theorem}`; try one of:");
        for t in corpus.dev.theorems.iter().take(10) {
            eprintln!("  {}", t.name);
        }
        eprintln!("  ... ({} total)", corpus.dev.theorems.len());
        return ExitCode::FAILURE;
    };
    let env = corpus.dev.env_before(thm);
    let hints = hint_set(&corpus.dev);
    // The prompt and model come from the same cell the runner evaluates,
    // so this CLI cannot drift from the grid.
    let cell = cell_of(&args);
    let prompt = build_prompt(&corpus.dev, thm, &hints, &cell.prompt_config());
    println!("theorem : {}", thm.statement_text.replace('\n', " "));
    println!(
        "model   : {} ({}), prompt {} tokens / {} lemmas{}",
        cell.profile.name,
        match cell.setting {
            PromptSetting::Hints => "w/ hints",
            PromptSetting::Vanilla => "vanilla",
        },
        prompt.tokens,
        prompt.visible_lemmas.len(),
        if prompt.truncated { " (truncated)" } else { "" },
    );

    if args.given("--show-query") {
        // The exact first-query payload a real LLM client would send.
        let st = llm_fscq::minicoq::goal::ProofState::new(thm.stmt.clone());
        let ctx = llm_fscq::oracle::model::QueryCtx {
            prompt: &prompt,
            state: &st,
            env,
            path: &[],
            theorem: &thm.name,
            query_index: 0,
        };
        println!("--- query payload ---");
        println!("{}", llm_fscq::oracle::model::render_query(&ctx));
        println!("--- end payload ---");
    }

    let mut model = cell.model();
    let recovery = RecoveryConfig {
        collect_attempts: args.given("--attempt-log"),
        ..RecoveryConfig::default()
    };
    let r = search_with_recovery(
        env,
        &thm.stmt,
        &thm.name,
        &mut model,
        &prompt,
        &cell.search,
        &recovery,
    );
    if let Some(path) = args.value("--attempt-log") {
        AttemptLog::at(path).append_all(&attempt_records(&thm.name, &r.stats));
    }
    let outcome_name = match &r.outcome {
        llm_fscq::search::Outcome::Proved { .. } => "Proved",
        llm_fscq::search::Outcome::Stuck => "Stuck",
        llm_fscq::search::Outcome::Fuelout => "Fuelout",
    };
    println!(
        "search  : {outcome_name} — {} queries, {} valid / {} rejected / {} duplicate / {} timeout / {} preflight-pruned",
        r.stats.queries,
        r.stats.valid_tactics,
        r.stats.rejected,
        r.stats.duplicates,
        r.stats.timeouts,
        r.stats.preflight_pruned,
    );
    if !r.stats.preflight_reasons.is_empty() {
        let reasons: Vec<String> = r
            .stats
            .preflight_reasons
            .iter()
            .map(|(code, n)| format!("{code} x{n}"))
            .collect();
        println!("pruned  : {}", reasons.join(", "));
    }
    match r.script_text() {
        Some(script) => {
            println!("proof   : {script}");
            match llm_fscq::minicoq::replay::replay_script(env, &thm.stmt, &script) {
                Ok(_) => {
                    println!("replay  : QED (kernel-checked)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    println!("replay  : FAILED — {e}");
                    ExitCode::FAILURE
                }
            }
        }
        None => {
            println!(
                "outcome : not proved ({})",
                if r.stats.queries >= cell.search.query_limit {
                    "query limit exhausted"
                } else {
                    "search stuck"
                }
            );
            ExitCode::FAILURE
        }
    }
}

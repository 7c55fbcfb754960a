//! `prove` — run the LLM-guided best-first search on one corpus theorem,
//! or re-verify an edited corpus incrementally.
//!
//! ```sh
//! prove <theorem> [--model mini|gpt4o|flash|pro|pro128k] [--vanilla]
//!       [--retrieval K] [--limit N] [--width W] [--strategy best|greedy|bfs]
//!       [--show-query] [--preflight|--no-preflight]
//!       [--premise-rank off|graph|learned] [--rank-model PATH]
//!       [--attempt-log PATH]
//! prove --incremental --save-baseline DIR [--corpus DIR] [cell flags] [--jobs N]
//! prove --incremental --baseline DIR [--corpus DIR] [cell flags] [--jobs N]
//! ```
//!
//! Single-theorem mode prints the outcome, the search statistics, and
//! (when proved) the found script together with its kernel replay check.
//!
//! `--incremental` runs the change-impact workflow instead: with
//! `--save-baseline DIR` it evaluates the whole cell cold and writes the
//! baseline artifacts (`snapshot.json` + `baseline.json`) to `DIR`; with
//! `--baseline DIR` it diffs the baseline snapshot against the corpus
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
use llm_fscq::search::{search_with_recovery, PremiseRank, RecoveryConfig, SearchConfig, Strategy};
use llm_fscq::vernac::loader::dir_sources;
use proof_trace::attempts::AttemptLog;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    theorem: Option<String>,
    profile: ModelProfile,
    setting: PromptSetting,
    retrieval: Option<usize>,
    cfg: SearchConfig,
    rank_model: Option<PathBuf>,
    attempt_log: Option<PathBuf>,
    show_query: bool,
    incremental: bool,
    baseline: Option<PathBuf>,
    save_baseline: Option<PathBuf>,
    corpus_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: prove <theorem> [--model mini|gpt4o|flash|pro|pro128k] [--vanilla]\n\
         \x20             [--retrieval K] [--limit N] [--width W] [--strategy best|greedy|bfs]\n\
         \x20             [--preflight|--no-preflight] [--premise-rank off|graph|learned]\n\
         \x20             [--rank-model PATH] [--attempt-log PATH]\n\
         \x20      prove --incremental --save-baseline DIR [--corpus DIR] [--jobs N]\n\
         \x20      prove --incremental --baseline DIR [--corpus DIR] [--jobs N]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut theorem = None;
    let mut profile = ModelProfile::gpt4o();
    let mut setting = PromptSetting::Hints;
    let mut retrieval = None;
    let mut cfg = SearchConfig::default();
    let mut rank_model = None;
    let mut attempt_log = None;
    let mut show_query = false;
    let mut incremental = false;
    let mut baseline = None;
    let mut save_baseline = None;
    let mut corpus_dir = None;
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--model" => {
                profile = match value("--model").as_str() {
                    "mini" => ModelProfile::gpt4o_mini(),
                    "gpt4o" => ModelProfile::gpt4o(),
                    "flash" => ModelProfile::gemini_flash(),
                    "pro" => ModelProfile::gemini_pro(),
                    "pro128k" => ModelProfile::gemini_pro_128k(),
                    other => {
                        eprintln!("unknown model {other}");
                        usage()
                    }
                }
            }
            "--vanilla" => setting = PromptSetting::Vanilla,
            "--preflight" => cfg.preflight = true,
            "--no-preflight" => cfg.preflight = false,
            "--premise-rank" => {
                cfg.premise_rank = match value("--premise-rank").as_str() {
                    "off" => PremiseRank::Off,
                    "graph" => PremiseRank::Graph,
                    "learned" => PremiseRank::Learned,
                    other => {
                        eprintln!("unknown premise-rank mode {other}");
                        usage()
                    }
                }
            }
            "--rank-model" => rank_model = Some(PathBuf::from(value("--rank-model"))),
            "--attempt-log" => attempt_log = Some(PathBuf::from(value("--attempt-log"))),
            "--show-query" => show_query = true,
            "--retrieval" => retrieval = value("--retrieval").parse().ok(),
            "--limit" => cfg.query_limit = value("--limit").parse().unwrap_or_else(|_| usage()),
            "--width" => cfg.width = value("--width").parse().unwrap_or_else(|_| usage()),
            "--strategy" => {
                cfg.strategy = match value("--strategy").as_str() {
                    "best" => Strategy::BestFirst,
                    "greedy" => Strategy::Greedy,
                    "bfs" => Strategy::BreadthFirst,
                    other => {
                        eprintln!("unknown strategy {other}");
                        usage()
                    }
                }
            }
            "--incremental" => incremental = true,
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline"))),
            "--save-baseline" => save_baseline = Some(PathBuf::from(value("--save-baseline"))),
            "--corpus" => corpus_dir = Some(PathBuf::from(value("--corpus"))),
            // The runner resolves the worker count from these flags, then
            // `JOBS` (`Runner::from_env`); here they are only validated.
            "--jobs" => {
                value("--jobs").parse::<usize>().unwrap_or_else(|_| usage());
            }
            other
                if other
                    .strip_prefix("--jobs=")
                    .is_some_and(|v| v.parse::<usize>().is_ok()) => {}
            "--help" | "-h" => usage(),
            other if theorem.is_none() && !other.starts_with('-') => {
                theorem = Some(other.to_string())
            }
            other => {
                eprintln!("unexpected argument {other}");
                usage()
            }
        }
    }
    Args {
        theorem,
        profile,
        setting,
        retrieval,
        cfg,
        rank_model,
        attempt_log,
        show_query,
        incremental,
        baseline,
        save_baseline,
        corpus_dir,
    }
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
    let mut cell = CellConfig::standard(args.profile.clone(), args.setting);
    cell.search = args.cfg.clone();
    cell.retrieval = args.retrieval;
    cell
}

/// The runner the incremental mode evaluates on: the worker count of
/// `--jobs`, else `JOBS`, else the machine's parallelism, the attempt log
/// when `--attempt-log` is given, and the cell cache (and so the cone
/// cache under it) only when `cached`.
fn runner_of(args: &Args, cached: bool) -> Runner {
    let mut runner = Runner::from_env();
    eprintln!("prove --incremental: {} worker(s)", runner.jobs());
    if !cached {
        runner = runner.without_cache();
    }
    match &args.attempt_log {
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
    let sources = match corpus_sources_from(args.corpus_dir.as_deref()) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let cell = cell_of(args);

    if let Some(dir) = &args.save_baseline {
        let (corpus, _graph) = match llm_fscq::metrics::incremental::load_edited(&sources) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let snapshot = Snapshot::capture(&corpus.dev);
        // No cell cache: its key does not cover `--corpus` sources.
        let result = match runner_of(args, false).run_cell_checked(&corpus, &cell) {
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

    let Some(dir) = &args.baseline else {
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
    let runner = runner_of(args, true);
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
    let args = parse_args();
    if let Some(path) = &args.rank_model {
        let model = std::fs::read(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|bytes| llm_fscq::analysis::score::Model::from_bytes(&bytes));
        match model {
            Ok(m) => llm_fscq::analysis::score::install_model(m),
            Err(e) => {
                eprintln!("prove: bad --rank-model: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.incremental || args.save_baseline.is_some() {
        return incremental_main(&args);
    }
    let Some(theorem) = args.theorem.clone() else {
        usage();
    };
    let corpus = Corpus::load();
    let Some(thm) = corpus.dev.theorem(&theorem) else {
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
        args.profile.name,
        match args.setting {
            PromptSetting::Hints => "w/ hints",
            PromptSetting::Vanilla => "vanilla",
        },
        prompt.tokens,
        prompt.visible_lemmas.len(),
        if prompt.truncated { " (truncated)" } else { "" },
    );

    if args.show_query {
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
        collect_attempts: args.attempt_log.is_some(),
        ..RecoveryConfig::default()
    };
    let r = search_with_recovery(
        env, &thm.stmt, &thm.name, &mut model, &prompt, &args.cfg, &recovery,
    );
    if let Some(path) = &args.attempt_log {
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
            match llm_fscq::vernac::loader::replay_proof(env, &thm.stmt, &script) {
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
                if r.stats.queries >= args.cfg.query_limit {
                    "query limit exhausted"
                } else {
                    "search stuck"
                }
            );
            ExitCode::FAILURE
        }
    }
}

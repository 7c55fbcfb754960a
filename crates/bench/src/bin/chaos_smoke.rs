//! Chaos smoke test: proves the fault-injection + crash-recovery stack
//! end to end, as a binary CI can run under several seeds.
//!
//! Three passes over a small two-cell grid:
//!
//! 1. **clean** — no faults, no cache, no journal: the reference output;
//! 2. **faulted** — the smoke fault plan armed (oracle errors, garbage
//!    completions, cache corruption, a worker panic on every cell's first
//!    attempt) with a progress journal: crashed cells are recorded and
//!    survive;
//! 3. **resumed** — a fresh plan with the same seed (simulating a process
//!    restart) replays the journal: done cells load, crashed cells re-run
//!    with their journal-derived attempt counts, so the injected panic
//!    stays quiet and recovery completes the grid.
//!
//! The pass criterion is the paper-harness invariant: the resumed grid's
//! result JSON and rendered table are **byte-identical** to the clean
//! run's. Exit 0 on pass, 1 on any divergence.
//!
//! Usage: `chaos_smoke [--fault-seed N] [--jobs N]`

use std::sync::Arc;

use fscq_corpus::Corpus;
use proof_chaos::{FaultConfig, FaultPlan};
use proof_metrics::report::{render_table1, ResultSet};
use proof_metrics::{CellConfig, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

fn cells() -> Vec<CellConfig> {
    [PromptSetting::Vanilla, PromptSetting::Hints]
        .into_iter()
        .map(|setting| {
            let mut cell = CellConfig::standard(ModelProfile::gpt4o(), setting);
            // Small budget: the smoke test exercises the recovery stack,
            // not the full evaluation.
            cell.search.query_limit = 8;
            cell
        })
        .collect()
}

fn grid(runner: &Runner, corpus: &Corpus) -> (ResultSet, usize) {
    let mut rs = ResultSet::default();
    let mut crashes = 0;
    for run in llm_fscq_bench::run_grid(runner, corpus, &cells()) {
        match run.result {
            Ok(result) => rs.cells.push(result),
            Err(crash) => {
                eprintln!("[chaos_smoke] {crash}");
                crashes += 1;
            }
        }
    }
    (rs, crashes)
}

fn main() {
    let seed = proof_chaos::fault_seed_arg(std::env::args().skip(1)).unwrap_or(101);
    let scratch = std::env::temp_dir().join(format!("chaos-smoke-{seed}-{}", std::process::id()));
    let cache_dir = scratch.join("cells");
    let journal = scratch.join("journal.jsonl");
    let _ = std::fs::remove_dir_all(&scratch);
    let corpus = Corpus::load();

    let clean_runner = Runner::from_env().without_cache();
    eprintln!("[chaos_smoke] seed={seed} jobs={}", clean_runner.jobs());
    eprintln!("[chaos_smoke] pass 1: clean reference run");
    let (clean, clean_crashes) = grid(&clean_runner, &corpus);
    assert_eq!(clean_crashes, 0, "clean run must not crash");

    eprintln!("[chaos_smoke] pass 2: faulted run (smoke plan)");
    let plan = Arc::new(FaultPlan::new(FaultConfig::smoke(seed)));
    let faulted_runner = Runner::from_env()
        .with_cache_dir(&cache_dir)
        .with_fault_plan(Arc::clone(&plan))
        .with_journal(&journal);
    let (_partial, crashed) = grid(&faulted_runner, &corpus);
    eprintln!("[chaos_smoke] faulted pass: {crashed} cell crash(es) injected and isolated");
    if crashed == 0 {
        eprintln!(
            "[chaos_smoke] FAIL: smoke plan injected no worker panic — nothing was exercised"
        );
        std::process::exit(1);
    }

    eprintln!("[chaos_smoke] pass 3: resumed run (fresh plan, same seed)");
    let resume_plan = Arc::new(FaultPlan::new(FaultConfig::smoke(seed)));
    let resumed_runner = Runner::from_env()
        .with_cache_dir(&cache_dir)
        .with_fault_plan(resume_plan)
        .with_journal(&journal);
    let (resumed, resumed_crashes) = grid(&resumed_runner, &corpus);
    if resumed_crashes != 0 {
        eprintln!("[chaos_smoke] FAIL: {resumed_crashes} crash(es) survived the resume");
        std::process::exit(1);
    }

    let clean_json = clean.to_json();
    let resumed_json = resumed.to_json();
    let clean_refs: Vec<_> = clean.cells.iter().collect();
    let resumed_refs: Vec<_> = resumed.cells.iter().collect();
    let clean_table = render_table1(&clean_refs);
    let resumed_table = render_table1(&resumed_refs);
    let _ = std::fs::remove_dir_all(&scratch);
    if clean_json != resumed_json {
        eprintln!("[chaos_smoke] FAIL: resumed result JSON diverges from the clean run");
        std::process::exit(1);
    }
    if clean_table != resumed_table {
        eprintln!("[chaos_smoke] FAIL: resumed rendered table diverges from the clean run");
        std::process::exit(1);
    }
    println!(
        "[chaos_smoke] PASS seed={seed}: {} cells, {crashed} injected crash(es), \
         resumed output byte-identical to clean",
        clean.cells.len()
    );
}

//! Fault-injection acceptance suite.
//!
//! The headline invariant (ISSUE 3's acceptance criterion): a grid run
//! under a seeded fault plan — transient oracle errors, garbage
//! completions, cache corruption, a worker panic — followed by a plain
//! rerun over the same cell cache produces output **byte-identical** to a
//! clean run.
//! Plus the regression for the old `h.join().expect(...)` worker-panic
//! path and the checksummed cell cache's corruption detection.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fscq_corpus::Corpus;
use proof_chaos::{FaultConfig, FaultPlan};
use proof_metrics::runner::{load_envelope, store_key};
use proof_metrics::{CellConfig, CellResult, CellSource, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("chaos-tests-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two small cells at `query_limit` queries per theorem (tiny: this
/// suite tests the recovery stack, not the evaluation).
fn small_cells(query_limit: u32) -> Vec<CellConfig> {
    [PromptSetting::Vanilla, PromptSetting::Hints]
        .into_iter()
        .map(|setting| {
            let mut cell = CellConfig::standard(ModelProfile::gpt4o(), setting);
            cell.search.query_limit = query_limit;
            cell
        })
        .collect()
}

fn to_json(results: &[CellResult]) -> String {
    serde_json::to_string(&results.to_vec()).unwrap()
}

/// A plan with zero rates everywhere except a guaranteed worker panic.
fn panic_only_plan(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        worker_panic: 1.0,
        ..FaultConfig::default()
    }
}

/// The headline invariant over the pinned chaos seeds (101, 202, 303), at
/// two and four workers and at query budgets 4 and 8: a faulted run, then
/// a rerun over its cache, gives the clean one-worker run's results byte
/// for byte.
#[test]
fn acceptance_faulted_then_resumed_run_is_byte_identical() {
    let corpus = Corpus::load();
    for query_limit in [4, 8] {
        let cells = small_cells(query_limit);
        let pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|c| (&corpus, c)).collect();
        // Clean reference: one worker, no cache, no faults.
        let clean: Vec<CellResult> = Runner::from_env()
            .with_jobs(1)
            .without_cache()
            .run_cells(&pairs)
            .into_iter()
            .map(|r| r.result.expect("a clean cell does not crash"))
            .collect();
        for seed in [101, 202, 303] {
            for jobs in [2, 4] {
                let case = format!("query_limit {query_limit}, seed {seed}, {jobs} workers");
                let dir = scratch_dir("acceptance");
                // A fresh plan per pass, as a restarted process would
                // build, over one cache directory.
                let runner = || {
                    Runner::from_env()
                        .with_jobs(jobs)
                        .with_cache_dir(dir.join("cells"))
                        .with_fault_plan(Arc::new(FaultPlan::new(FaultConfig::smoke(seed))))
                };

                // Faulted run: oracle errors + garbage (recovered by
                // retry), cache corruption (detected by checksum), and a
                // worker panic on every cell's first attempt (isolated,
                // counted in the cell's crash record).
                let crashes = runner()
                    .run_cells(&pairs)
                    .iter()
                    .filter(|r| r.source == CellSource::Crashed)
                    .count();
                assert!(crashes > 0, "{case}: the smoke plan must crash a cell");

                // Rerun: the crash records silence the worker panic;
                // oracle faults re-fire and are re-recovered.
                let resumed: Vec<CellResult> = runner()
                    .run_cells(&pairs)
                    .into_iter()
                    .map(|r| r.result.expect("resume must complete every cell"))
                    .collect();
                assert_eq!(
                    to_json(&clean),
                    to_json(&resumed),
                    "{case}: faulted-then-resumed output diverged from the clean run"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn worker_panic_returns_typed_crash_not_process_death() {
    // Regression for the old `h.join().expect("runner worker panicked")`:
    // a panic inside one worker must surface as `Err(CellCrash)` from the
    // parallel path, not take down the process (and with it every other
    // cell's completed outcomes).
    let corpus = Corpus::load();
    let cell = &small_cells(4)[0];
    assert!(
        cell.eval_indices(&corpus.dev).len() >= 4,
        "need a few theorems to exercise the pool"
    );
    let dir = scratch_dir("panic");
    // A runner whose cache counts the cell's crashes; the panic fires on
    // attempt 0 only.
    let faulted = |jobs: usize, cache: &str| {
        Runner::from_env()
            .with_jobs(jobs)
            .with_cache_dir(dir.join(cache))
            .with_fault_plan(Arc::new(FaultPlan::new(panic_only_plan(1))))
    };
    let err = faulted(4, "pool")
        .run_cell_checked(&corpus, cell)
        .expect_err("the injected panic must surface as a crash");
    assert!(
        err.panic.contains("injected"),
        "crash must carry the panic payload, got: {}",
        err.panic
    );
    assert_eq!(err.label, cell.label());
    // The inline single-worker path isolates the same way.
    let err = faulted(1, "inline")
        .run_cell_checked(&corpus, cell)
        .expect_err("serial path must isolate too");
    assert!(err.panic.contains("injected"));
    // And the crash record silences a spent fault: the second attempt
    // runs clean and matches the no-fault evaluation.
    let recovered = faulted(4, "pool")
        .run_cell_checked(&corpus, cell)
        .expect("attempt 1 is past the fault's max_trips");
    let clean = Runner::from_env()
        .with_jobs(4)
        .without_cache()
        .run_cell_checked(&corpus, cell)
        .expect("a clean cell does not crash");
    assert_eq!(
        serde_json::to_string(&recovered).unwrap(),
        serde_json::to_string(&clean).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_in_one_cell_preserves_completed_cells() {
    // Grid-level survival: cell A completes, cell B crashes; A's outcome
    // must survive in both the caller's hands and the cache.
    let corpus = Corpus::load();
    let cells = small_cells(4);
    let dir = scratch_dir("survival");
    // worker_panic only fires on attempt 0, so run A with no plan, then B
    // faulted, over the same cache (as a grid loop with a per-cell plan
    // lookup would).
    let runner_a = Runner::from_env().with_jobs(2).with_cache_dir(&dir);
    let result_a = runner_a
        .run_cell_checked(&corpus, &cells[0])
        .expect("cell A runs clean");
    let runner_b = Runner::from_env()
        .with_jobs(2)
        .with_cache_dir(&dir)
        .with_fault_plan(Arc::new(FaultPlan::new(panic_only_plan(2))));
    let crash = runner_b
        .run_cell_checked(&corpus, &cells[1])
        .expect_err("cell B crashes");
    assert!(crash.panic.contains("injected"));
    // A's outcome is cached; B has no cell file, only its crash record.
    let file =
        |cell: &CellConfig, ext: &str| dir.join(format!("{}.{ext}", store_key(&corpus, cell)));
    let cached_a: CellResult = load_envelope(&file(&cells[0], "json")).expect("A is cached");
    assert_eq!(
        serde_json::to_string(&cached_a).unwrap(),
        serde_json::to_string(&result_a).unwrap()
    );
    assert!(!file(&cells[1], "json").exists());
    assert_eq!(load_envelope::<u32>(&file(&cells[1], "crashed")), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_is_detected_and_recomputed() {
    let corpus = Corpus::load();
    let cell = &small_cells(4)[0];
    let dir = scratch_dir("cache");
    // Populate the cache, then corrupt every cached file (torn half-write).
    let warm = Runner::from_env().with_jobs(2).with_cache_dir(&dir);
    let original = warm
        .run_cell_checked(&corpus, cell)
        .expect("a clean cell does not crash");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let bytes = std::fs::read(entry.path()).unwrap();
        std::fs::write(entry.path(), &bytes[..bytes.len() / 2]).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "the warm run must have populated the cache");
    // The checksum envelope rejects the torn file: recompute, identical.
    // The recompute repairs the cache, so the next run hits.
    let run = || {
        Runner::from_env()
            .with_jobs(2)
            .with_cache_dir(&dir)
            .run_cells(&[(&corpus, cell)])
            .remove(0)
    };
    let runs = [run(), run()];
    assert_eq!(
        runs[0].source,
        CellSource::Computed,
        "corrupted cache must read as a miss"
    );
    assert_eq!(
        runs[1].source,
        CellSource::CacheHit,
        "repaired cache must hit"
    );
    for run in &runs {
        assert_eq!(
            serde_json::to_string(&original).unwrap(),
            serde_json::to_string(run.result.as_ref().unwrap()).unwrap()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

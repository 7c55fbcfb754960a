//! `Runner::run_cells`, the one grid entry point: a grid gives what its
//! cells give one at a time, a repeated key is served from the call's own
//! result (and the cell cache serves every cell across calls), an injected
//! worker panic crashes only its own cell — at one worker and at two — and
//! a crashed grid resumes from the cache.

use std::sync::Arc;

use fscq_corpus::Corpus;
use proof_chaos::{FaultConfig, FaultKind, FaultPlan};
use proof_metrics::runner::cell_cache_key;
use proof_metrics::{CellConfig, CellRun, CellSource, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

/// Three small cells: sampled-scope models on a low query budget.
fn cells() -> Vec<CellConfig> {
    [
        (ModelProfile::gpt4o(), PromptSetting::Hints),
        (ModelProfile::gpt4o(), PromptSetting::Vanilla),
        (ModelProfile::gemini_pro(), PromptSetting::Hints),
    ]
    .into_iter()
    .map(|(profile, setting)| {
        let mut cell = CellConfig::standard(profile, setting);
        cell.search.query_limit = 3;
        cell
    })
    .collect()
}

fn runner(jobs: usize) -> Runner {
    Runner::from_env().with_jobs(jobs).without_cache()
}

fn json(run: &CellRun) -> String {
    serde_json::to_string(run.result.as_ref().expect("a clean cell does not crash")).unwrap()
}

fn sources(runs: &[CellRun]) -> Vec<CellSource> {
    runs.iter().map(|r| r.source).collect()
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("grid-runs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_grid_equals_its_cells_run_one_at_a_time() {
    let corpus = Corpus::load();
    let cells = cells();
    let pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|c| (&corpus, c)).collect();
    let single: Vec<String> = cells
        .iter()
        .map(|c| {
            let r = runner(1).run_cell_checked(&corpus, c).expect("clean cell");
            serde_json::to_string(&r).unwrap()
        })
        .collect();
    for jobs in [1, 2] {
        let runs = runner(jobs).run_cells(&pairs);
        assert_eq!(sources(&runs), [CellSource::Computed; 3], "jobs={jobs}");
        let grid: Vec<String> = runs.iter().map(json).collect();
        assert_eq!(
            grid, single,
            "jobs={jobs}: the grid diverged from its cells"
        );
    }
}

#[test]
fn a_cached_grid_serves_repeats_from_the_call_and_then_the_cache() {
    let corpus = Corpus::load();
    let cells = cells();
    let mut pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|c| (&corpus, c)).collect();
    pairs.push((&corpus, &cells[0]));
    let repeat_served = [
        CellSource::Computed,
        CellSource::Computed,
        CellSource::Computed,
        CellSource::Repeat,
    ];
    for jobs in [1, 2] {
        // A key repeated within one call is served from that call's own
        // result, with no cache as with one.
        let uncached = runner(jobs).run_cells(&pairs);
        assert_eq!(sources(&uncached), repeat_served, "jobs={jobs}, no cache");
        assert_eq!(json(&uncached[3]), json(&uncached[0]), "jobs={jobs}");

        let dir = scratch(&format!("cache-j{jobs}"));
        let runner = Runner::from_env().with_jobs(jobs).with_cache_dir(&dir);
        let first = runner.run_cells(&pairs);
        assert_eq!(sources(&first), repeat_served, "jobs={jobs}");
        assert_eq!(json(&first[3]), json(&first[0]), "jobs={jobs}");
        // A second call serves every cell from the cache; its repeat is
        // still the call's own.
        let second = runner.run_cells(&pairs);
        let mut cached = [CellSource::CacheHit; 4];
        cached[3] = CellSource::Repeat;
        assert_eq!(sources(&second), cached, "jobs={jobs}");
        let (a, b): (Vec<String>, Vec<String>) = first
            .iter()
            .zip(&second)
            .map(|(a, b)| (json(a), json(b)))
            .unzip();
        assert_eq!(a, b, "jobs={jobs}: the cache changed a result");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_crashed_grid_resumes_from_the_cache_and_a_fresh_one_crashes_again() {
    let corpus = Corpus::load();
    let cells = &cells()[..2];
    let pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|c| (&corpus, c)).collect();
    let clean: Vec<String> = runner(2).run_cells(&pairs).iter().map(json).collect();
    let dir = scratch("resume");
    // Every cell panics on its first attempt; a fresh plan per run, as a
    // restarted process would build.
    let faulted = || {
        Runner::from_env()
            .with_jobs(2)
            .with_cache_dir(&dir)
            .with_fault_plan(Arc::new(FaultPlan::new(FaultConfig {
                seed: 1,
                worker_panic: 1.0,
                ..FaultConfig::default()
            })))
    };
    let crashed = faulted().run_cells(&pairs);
    assert_eq!(sources(&crashed), [CellSource::Crashed; 2]);
    // The same runner again: each cell's crash record spends the fault.
    let rerun = faulted().run_cells(&pairs);
    assert_eq!(sources(&rerun), [CellSource::Computed; 2]);
    let rerun: Vec<String> = rerun.iter().map(json).collect();
    assert_eq!(rerun, clean, "the rerun diverged from the clean run");
    // A fresh run serves neither the cached cells nor the crash records.
    let fresh = faulted().fresh().run_cells(&pairs);
    assert_eq!(sources(&fresh), [CellSource::Crashed; 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_panic_crashes_only_its_own_cell() {
    let corpus = Corpus::load();
    let cells = cells();
    let pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|c| (&corpus, c)).collect();
    let keys: Vec<String> = cells.iter().map(cell_cache_key).collect();
    // The first seed whose plan panics in some cells but not all: the
    // plan's own site selection says which.
    let plan = (0..)
        .map(|seed| {
            FaultPlan::new(FaultConfig {
                seed,
                worker_panic: 0.5,
                ..FaultConfig::default()
            })
        })
        .find(|plan| {
            let hit = keys
                .iter()
                .filter(|k| plan.selected(FaultKind::WorkerPanic, k))
                .count();
            0 < hit && hit < keys.len()
        })
        .expect("some seed splits the cells");
    let doomed: Vec<bool> = keys
        .iter()
        .map(|k| plan.selected(FaultKind::WorkerPanic, k))
        .collect();
    let plan = Arc::new(plan);
    let clean = runner(1).run_cells(&pairs);
    for jobs in [1, 2] {
        let runs = runner(jobs)
            .with_fault_plan(Arc::clone(&plan))
            .run_cells(&pairs);
        for (i, run) in runs.iter().enumerate() {
            if doomed[i] {
                assert_eq!(run.source, CellSource::Crashed, "jobs={jobs} cell {i}");
                let crash = run.result.as_ref().expect_err("the armed cell crashes");
                assert_eq!(crash.label, cells[i].label());
                assert!(crash.panic.contains("injected"), "{}", crash.panic);
            } else {
                assert_eq!(run.source, CellSource::Computed, "jobs={jobs} cell {i}");
                assert_eq!(json(run), json(&clean[i]), "jobs={jobs} cell {i}");
            }
        }
    }
}

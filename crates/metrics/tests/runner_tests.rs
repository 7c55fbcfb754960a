//! The parallel runner's two contracts: bit-identical results regardless of
//! worker count, and a disk cache that round-trips a cell exactly.

use fscq_corpus::Corpus;
use proof_metrics::runner::{cell_cache_key, run_cell_jobs, run_indices_checked, Runner};
use proof_metrics::{run_cell, CellConfig};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_search::RecoveryConfig;

/// A small-budget cell that still exercises every outcome class.
fn small_cell() -> CellConfig {
    let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    cell.search.query_limit = 4;
    cell
}

fn as_json(r: &proof_metrics::CellResult) -> String {
    serde_json::to_string(r).expect("serializable")
}

#[test]
fn parallel_is_bit_identical_to_serial() {
    let corpus = Corpus::load();
    let cell = small_cell();
    let serial = run_cell(&corpus, &cell);
    for jobs in [1, 2, 4] {
        let parallel = run_cell_jobs(&corpus, &cell, jobs);
        // Serialized equality is the strongest observable check: every
        // outcome field (scripts, similarities, query counts) and the
        // corpus order must survive the work-stealing schedule.
        assert_eq!(
            as_json(&serial),
            as_json(&parallel),
            "jobs={jobs} diverged from serial"
        );
    }
}

#[test]
fn slice_evaluation_preserves_request_order() {
    let corpus = Corpus::load();
    let cell = small_cell();
    let all = cell.eval_indices(&corpus.dev);
    let slice: Vec<usize> = all.iter().rev().take(5).copied().collect();
    let outcomes = run_indices_checked(&corpus, &cell, &slice, 3, &RecoveryConfig::default(), 0)
        .expect("a clean cell does not crash");
    assert_eq!(outcomes.len(), slice.len());
    for (o, &i) in outcomes.iter().zip(&slice) {
        assert_eq!(o.name, corpus.dev.theorems[i].name);
    }
}

#[test]
fn cell_cache_round_trips() {
    let corpus = Corpus::load();
    let cell = small_cell();
    let dir = std::path::Path::new("target/test-cells");
    let _ = std::fs::remove_dir_all(dir);

    let runner = Runner::from_env().with_jobs(2).with_cache_dir(dir);
    let first = runner.run_cell(&corpus, &cell);
    let second = runner.run_cell(&corpus, &cell);
    assert_eq!(as_json(&first), as_json(&second));

    let records = runner.bench_records();
    assert_eq!(records.len(), 2);
    assert!(!records[0].cache_hit, "first run must compute");
    assert!(records[1].cache_hit, "second run must load from disk");
    assert!(dir
        .join(format!("{}.json", cell_cache_key(&cell)))
        .is_file());

    // A different configuration must miss.
    let mut other = small_cell();
    other.search.query_limit = 5;
    let third = runner.run_cell(&corpus, &other);
    assert!(!runner.bench_records()[2].cache_hit);
    assert_ne!(as_json(&first), as_json(&third));

    let _ = std::fs::remove_dir_all(dir);
}

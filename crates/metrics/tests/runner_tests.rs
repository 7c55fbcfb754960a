//! The parallel runner's contracts: bit-identical results regardless of
//! worker count, a disk cache that round-trips a cell exactly, and an
//! attempt log written only when asked for, the same at any worker count.

use std::collections::BTreeSet;

use fscq_corpus::Corpus;
use proof_metrics::runner::{cell_cache_key, CellSource, Runner};
use proof_metrics::CellConfig;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_trace::attempts::AttemptLog;

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
    // One worker is the caller alone.
    let serial = Runner::from_env()
        .with_jobs(1)
        .without_cache()
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
    for jobs in [2, 4] {
        let parallel = Runner::from_env()
            .with_jobs(jobs)
            .without_cache()
            .run_cell_checked(&corpus, &cell)
            .expect("a clean cell does not crash");
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
fn cell_cache_round_trips() {
    let corpus = Corpus::load();
    let cell = small_cell();
    let dir = std::path::Path::new("target/test-cells");
    let _ = std::fs::remove_dir_all(dir);

    let runner = Runner::from_env().with_jobs(2).with_cache_dir(dir);
    // A different configuration must miss; the next call loads the cell
    // from disk (a repeat within one call is served from the call itself).
    let mut other = small_cell();
    other.search.query_limit = 5;
    let mut runs = runner.run_cells(&[(&corpus, &cell), (&corpus, &other)]);
    runs.extend(runner.run_cells(&[(&corpus, &cell)]));
    let sources: Vec<CellSource> = runs.iter().map(|r| r.source).collect();
    assert_eq!(
        sources,
        [
            CellSource::Computed,
            CellSource::Computed,
            CellSource::CacheHit
        ],
        "compute, miss on another configuration, load the repeat from disk"
    );
    let json: Vec<String> = runs
        .iter()
        .map(|r| as_json(r.result.as_ref().expect("a clean cell does not crash")))
        .collect();
    assert_eq!(json[0], json[2]);
    assert_ne!(json[0], json[1]);
    assert!(dir
        .join(format!("{}.json", cell_cache_key(&cell)))
        .is_file());

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn attempt_log_records_the_searches_of_a_cell() {
    let corpus = Corpus::load();
    let cell = small_cell();
    let dir = std::env::temp_dir().join(format!("runner-attempts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = dir.join("attempts.jsonl");

    let result = Runner::from_env()
        .with_jobs(2)
        .without_cache()
        .with_attempt_log(&log)
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
    let records = AttemptLog::at(&log).load();
    assert!(!records.is_empty(), "the searches' attempts were logged");
    let eval_set: BTreeSet<&str> = result.outcomes.iter().map(|o| o.name.as_str()).collect();
    for r in &records {
        assert!(
            eval_set.contains(r.theorem.as_str()),
            "`{}` is not in the cell's eval set",
            r.theorem
        );
    }
    let proved: Vec<&str> = result
        .outcomes
        .iter()
        .filter(|o| o.outcome == "proved")
        .map(|o| o.name.as_str())
        .collect();
    assert!(!proved.is_empty(), "the small cell proves something");
    for name in proved {
        assert!(
            records.iter().any(|r| r.theorem == name && r.on_path),
            "proved `{name}` has no on-path attempt"
        );
    }

    // The log belongs to its runner: a later runner without one writes
    // nothing there, and the log never changes the outcomes.
    std::fs::remove_file(&log).expect("the log exists");
    let plain = Runner::from_env()
        .with_jobs(2)
        .without_cache()
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
    assert!(!log.exists(), "a runner without a log wrote one");
    assert_eq!(as_json(&plain), as_json(&result));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attempt_logs_are_byte_equal_at_one_and_four_workers() {
    let corpus = Corpus::load();
    let cell = small_cell();
    let dir = std::env::temp_dir().join(format!("runner-attempt-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log_at = |jobs: usize| {
        let log = dir.join(format!("attempts.j{jobs}.jsonl"));
        Runner::from_env()
            .with_jobs(jobs)
            .without_cache()
            .with_attempt_log(&log)
            .run_cell_checked(&corpus, &cell)
            .expect("a clean cell does not crash");
        std::fs::read(&log).expect("the log was written")
    };
    let (one, four) = (log_at(1), log_at(4));
    assert!(!one.is_empty());
    assert!(one == four, "the attempt log depends on the worker count");
    let _ = std::fs::remove_dir_all(&dir);
}

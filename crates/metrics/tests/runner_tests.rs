//! The parallel runner's contracts: bit-identical results regardless of
//! worker count, a disk cache that round-trips a cell exactly, and an
//! attempt log written only when asked for, the same at any worker count.

use std::collections::BTreeSet;

use fscq_corpus::Corpus;
use proof_metrics::incremental::load_edited;
use proof_metrics::runner::{store_envelope, store_key, CellRun, CellSource, Runner};
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
        .join(format!("{}.json", store_key(&corpus, &cell)))
        .is_file());

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_cached_proof_that_fails_replay_is_a_crash_not_a_result() {
    let corpus = Corpus::load();
    let cell = small_cell();
    let mut result = Runner::from_env()
        .with_jobs(2)
        .without_cache()
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
    // Cut a proved script down to its first sentence, which leaves goals
    // open, and store the doctored result under the cell's own key.
    let proved = result
        .outcomes
        .iter_mut()
        .find(|o| o.outcome == "proved" && o.script.as_ref().is_some_and(|s| s.contains(". ")))
        .expect("a proved multi-sentence script");
    let script = proved.script.clone().unwrap();
    proved.script = Some(format!("{}.", script.split(". ").next().unwrap()));
    let name = proved.name.clone();
    let dir = std::env::temp_dir().join(format!("runner-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    store_envelope(
        &dir.join(format!("{}.json", store_key(&corpus, &cell))),
        &result,
    );

    let run = Runner::from_env()
        .with_jobs(2)
        .with_cache_dir(&dir)
        .run_cells(&[(&corpus, &cell)])
        .pop()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.source, CellSource::Crashed);
    let crash = run
        .result
        .expect_err("a proof that fails replay is never reported");
    assert!(
        crash.panic.contains(&format!("`{name}`")) && crash.panic.contains("kernel replay"),
        "{crash}"
    );
}

#[test]
fn a_cell_is_never_served_for_another_corpus() {
    let embedded = Corpus::load();
    // The embedded corpus with one proof edited.
    let mut sources: Vec<(String, String)> = fscq_corpus::corpus_sources()
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect();
    let (_, text) = sources
        .iter_mut()
        .find(|(_, t)| t.contains("intros. reflexivity."))
        .expect("a proof to edit");
    *text = text.replacen("intros. reflexivity.", "intros. simpl. reflexivity.", 1);
    let (edited, _) = load_edited(&sources).expect("the edited corpus loads");
    let cell = small_cell();
    let sources_of =
        |runs: Vec<CellRun>| -> Vec<CellSource> { runs.iter().map(|r| r.source).collect() };

    let dir = std::env::temp_dir().join(format!("runner-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = Runner::from_env().with_jobs(2).with_cache_dir(&dir);
    let calls: Vec<CellSource> = [&embedded, &edited, &embedded]
        .into_iter()
        .flat_map(|corpus| sources_of(cached.run_cells(&[(corpus, &cell)])))
        .collect();
    assert_eq!(
        calls,
        [
            CellSource::Computed,
            CellSource::Computed,
            CellSource::CacheHit
        ],
        "across calls, the edited corpus misses the embedded corpus's cache file"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let one_call = Runner::from_env().with_jobs(2).without_cache().run_cells(&[
        (&embedded, &cell),
        (&edited, &cell),
        (&embedded, &cell),
    ]);
    assert_eq!(
        sources_of(one_call),
        [
            CellSource::Computed,
            CellSource::Computed,
            CellSource::Journal
        ],
        "within a call, only a repeat on the same corpus is served"
    );
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

//! The tracing layer's determinism contract: arming the collector must
//! not change a single byte of the primary experiment output. Timing is a
//! side channel — it never flows into outcomes, scripts, query counts,
//! cache keys, or anything else that is byte-compared or cached.

use std::collections::HashMap;
use std::sync::Mutex;

use fscq_corpus::Corpus;
use proof_metrics::runner::{cell_cache_key, Runner};
use proof_metrics::{run_cell, CellConfig};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

/// Tracing's enabled flag is process-global; serialize the tests here.
static LOCK: Mutex<()> = Mutex::new(());

fn small_cell() -> CellConfig {
    let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    cell.search.query_limit = 4;
    cell
}

#[test]
fn traced_run_is_byte_identical_to_untraced() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::load();
    let cell = small_cell();

    proof_trace::set_enabled(false);
    let untraced = run_cell(&corpus, &cell);
    let untraced_json = serde_json::to_string(&untraced).unwrap();

    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let traced = run_cell(&corpus, &cell);
    let data = proof_trace::drain();
    proof_trace::set_enabled(false);
    let traced_json = serde_json::to_string(&traced).unwrap();

    // The whole point: the serialized cell — the unit every grid JSON,
    // cache file, and journal record is built from — must not move by one
    // byte when the collector is armed.
    assert_eq!(untraced_json, traced_json);
    // And the traced run must actually have been traced, or the assert
    // above proves nothing.
    assert!(
        data.spans.iter().any(|s| s.kind == "oracle"),
        "traced run recorded oracle spans"
    );
    assert!(
        data.spans.iter().any(|s| s.kind.starts_with("stm")),
        "traced run recorded stm spans"
    );
}

/// Sum of the `stm.add.*` outcome counters: one bump per traced add.
fn counted_adds() -> u64 {
    proof_trace::metrics::snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("stm.add."))
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn every_armed_add_records_a_span_that_parents_its_preflight() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A fresh load gives fresh environment uids, so the process-global
    // STM memo is cold for this corpus and adds reach preflight. The
    // counters are process-global too: compare deltas, not totals.
    let corpus = Corpus::load();
    let cell = small_cell();

    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let before = counted_adds();
    let _ = run_cell(&corpus, &cell);
    let adds = counted_adds() - before;
    let data = proof_trace::drain();
    proof_trace::set_enabled(false);

    let is_add = |s: &proof_trace::SpanRec| s.kind == "stm" && s.name == "add";
    let add_spans = data.spans.iter().filter(|s| is_add(s)).count() as u64;
    assert!(adds > 0, "the traced cell ran no adds");
    assert_eq!(
        add_spans, adds,
        "every armed add records one `stm`/`add` span"
    );

    let by_id: HashMap<u64, &proof_trace::SpanRec> = data.spans.iter().map(|s| (s.id, s)).collect();
    let preflights: Vec<&proof_trace::SpanRec> = data
        .spans
        .iter()
        .filter(|s| s.kind == "preflight")
        .collect();
    assert!(!preflights.is_empty(), "the traced cell ran no preflight");
    for p in preflights {
        assert!(
            by_id.get(&p.parent).is_some_and(|s| is_add(s)),
            "preflight span {} has parent {} that is not a recorded `stm`/`add` span",
            p.id,
            p.parent
        );
    }
}

#[test]
fn tracing_does_not_change_the_cell_cache_key() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cell = small_cell();
    let before = cell_cache_key(&cell);
    proof_trace::set_enabled(true);
    let during = cell_cache_key(&cell);
    proof_trace::set_enabled(false);
    assert_eq!(before, during, "cache key is timing-free");
}

#[test]
fn bench_records_label_computed_and_cached_cells() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::load();
    let cell = small_cell();
    let dir = std::path::Path::new("target/test-trace-bench");
    let _ = std::fs::remove_dir_all(dir);
    let runner = Runner::from_env().with_jobs(1).with_cache_dir(dir);
    let _ = runner.run_cell(&corpus, &cell);
    let _ = runner.run_cell(&corpus, &cell);

    // Satellite contract: computed and cache-hit cells both carry a wall
    // time and an explicit source label.
    let records = runner.bench_records();
    assert_eq!(records[0].outcome, "computed");
    assert_eq!(records[1].outcome, "cache_hit");
    assert!(records.iter().all(|r| r.wall_ms >= 0.0));

    let _ = std::fs::remove_dir_all(dir);
}

//! The tracing layer's determinism contract: arming the collector must
//! not change a single byte of the primary experiment output. Timing is a
//! side channel — it never flows into outcomes, scripts, query counts,
//! cache keys, or anything else that is byte-compared or cached.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use fscq_corpus::Corpus;
use proof_metrics::runner::{cell_cache_key, CellSource, Runner};
use proof_metrics::CellConfig;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

/// Tracing's enabled flag is process-global; serialize the tests here.
static LOCK: Mutex<()> = Mutex::new(());

/// One inline worker on the caller's thread, no cache.
fn serial() -> Runner {
    Runner::from_env().with_jobs(1).without_cache()
}

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
    let untraced = serial()
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
    let untraced_json = serde_json::to_string(&untraced).unwrap();

    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let traced = serial()
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
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

/// The `stm.add.*` outcome counters: one bump per traced add.
fn add_counters() -> BTreeMap<String, u64> {
    proof_trace::metrics::snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("stm.add."))
        .collect()
}

/// Sum of the `stm.add.*` outcome counters.
fn counted_adds() -> u64 {
    add_counters().values().sum()
}

#[test]
fn every_armed_add_records_a_span_that_parents_its_preflight() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The counters are process-global: compare deltas, not totals.
    let corpus = Corpus::load();
    let cell = small_cell();

    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let before = counted_adds();
    let _ = serial()
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
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

/// Evaluates `cell` traced and returns its spans plus the `stm.add.*`
/// counter deltas it caused.
fn traced_cell(
    corpus: &Corpus,
    cell: &CellConfig,
    jobs: usize,
) -> (Vec<proof_trace::SpanRec>, BTreeMap<String, u64>) {
    let runner = Runner::from_env().without_cache().with_jobs(jobs);
    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let before = add_counters();
    let _ = runner
        .run_cell_checked(corpus, cell)
        .expect("a clean cell does not crash");
    let after = add_counters();
    let data = proof_trace::drain();
    proof_trace::set_enabled(false);
    let deltas = after
        .into_iter()
        .map(|(name, n)| {
            let d = n - before.get(&name).copied().unwrap_or(0);
            (name, d)
        })
        .collect();
    (data.spans, deltas)
}

#[test]
fn an_in_process_repeat_does_the_same_stm_work() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Same loaded corpus, same cell, one process: nothing the first run
    // leaves behind may answer the second run's adds.
    let corpus = Corpus::load();
    let cell = small_cell();
    let preflights =
        |spans: &[proof_trace::SpanRec]| spans.iter().filter(|s| s.kind == "preflight").count();
    let (first, first_adds) = traced_cell(&corpus, &cell, 1);
    let (second, second_adds) = traced_cell(&corpus, &cell, 1);
    assert!(preflights(&first) > 0, "the traced cell ran no preflight");
    assert_eq!(preflights(&first), preflights(&second), "preflight spans");
    assert_eq!(first_adds, second_adds, "`stm.add.*` counter deltas");
}

fn named_phase_pct(spans: &[proof_trace::SpanRec]) -> f64 {
    let parsed: Vec<proof_trace::report::Span> = spans.iter().map(Into::into).collect();
    proof_trace::report::phase_breakdown(&parsed).named_phase_pct()
}

#[test]
fn worker_spans_nest_under_their_cell_at_two_jobs() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::load();
    // A whole cell (not `small_cell`): on a small one, a single
    // descheduled worker moves the shares by several points.
    let cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    // Warm the process-global caches first, so the two measured runs start
    // equally warm.
    let _ = traced_cell(&corpus, &cell, 1);
    let (serial, _) = traced_cell(&corpus, &cell, 1);
    let (pooled, _) = traced_cell(&corpus, &cell, 2);

    let by_id: HashMap<u64, &proof_trace::SpanRec> = pooled.iter().map(|s| (s.id, s)).collect();
    let theorems: Vec<&proof_trace::SpanRec> =
        pooled.iter().filter(|s| s.kind == "theorem").collect();
    assert!(!theorems.is_empty(), "the pooled cell ran no theorems");
    for t in &theorems {
        assert!(
            by_id.get(&t.parent).is_some_and(|p| p.kind == "cell"),
            "theorem span {} has parent {} that is not a `cell` span",
            t.id,
            t.parent
        );
    }
    assert!(
        theorems.iter().any(|t| by_id[&t.parent].tid != t.tid),
        "the pooled cell ran its theorems on workers"
    );
    let (p1, p2) = (named_phase_pct(&serial), named_phase_pct(&pooled));
    assert!(
        (p1 - p2).abs() <= 3.0,
        "named-phase attribution moved from {p1:.1}% at one job to {p2:.1}% at two"
    );
}

#[test]
fn a_traced_cell_round_trips_through_the_trace_file() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::load();
    // Two workers, so helper spans adopt the cell across threads.
    let runner = Runner::from_env().without_cache().with_jobs(2);
    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let _ = runner
        .run_cell_checked(&corpus, &small_cell())
        .expect("a clean cell does not crash");
    let data = proof_trace::drain();
    let snap = proof_trace::metrics::snapshot();
    proof_trace::set_enabled(false);

    let path = std::env::temp_dir().join(format!("trace_round_trip_{}.json", std::process::id()));
    proof_trace::export::write_chrome(&path, &data, &snap).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let back = proof_trace::export::read_chrome(&text).expect("the trace file validates");

    let spans: Vec<proof_trace::report::Span> = data.spans.iter().map(Into::into).collect();
    assert!(
        spans
            .iter()
            .any(|s| s.parent != 0 && spans.iter().any(|p| p.id == s.parent && p.tid != s.tid)),
        "the cell nested spans across threads"
    );
    assert_eq!(
        back.spans, spans,
        "every span's id, parent, tid, kind, name, start and duration"
    );
    assert_eq!(back.metrics, snap);
    assert_eq!(back.dropped, data.dropped);
    assert_eq!(
        proof_trace::report::render_report(&back.spans, &back.metrics, back.dropped, 10),
        proof_trace::report::render_report(&spans, &snap, data.dropped, 10)
    );
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
fn a_journaled_grid_loads_its_journal_once_and_labels_each_cell() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::load();
    let cell = small_cell();
    let mut other = small_cell();
    other.search.query_limit = 3;
    let dir = std::env::temp_dir().join(format!("trace-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = Runner::from_env()
        .with_jobs(1)
        .with_cache_dir(dir.join("cells"))
        .with_journal(dir.join("journal.jsonl"));
    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let runs = runner.run_cells(&[(&corpus, &cell), (&corpus, &other), (&corpus, &cell)]);
    let data = proof_trace::drain();
    proof_trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    let loads = data
        .spans
        .iter()
        .filter(|s| s.kind == "journal" && s.name == "load")
        .count();
    assert_eq!(loads, 1, "one journal replay per grid");
    // Computed, computed, then the repeat from this grid's own `done`
    // record: each cell's span and run carry the same source and a wall
    // time.
    let sources: Vec<CellSource> = runs.iter().map(|r| r.source).collect();
    assert_eq!(
        sources,
        [
            CellSource::Computed,
            CellSource::Computed,
            CellSource::Journal
        ]
    );
    let span_sources: Vec<String> = data
        .spans
        .iter()
        .filter(|s| s.kind == "cell")
        .map(|s| match s.fields.as_slice() {
            [("source", proof_trace::Field::Str(v))] => v.clone(),
            other => panic!("cell span fields {other:?}"),
        })
        .collect();
    assert_eq!(span_sources, ["computed", "computed", "journal"]);
    assert!(runs.iter().all(|r| r.wall_ms >= 0.0));
}

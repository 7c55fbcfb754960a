//! Integration tests for the span collector and the trace file: parent
//! links, nesting, cross-thread attribution, drain semantics, and that the
//! Chrome trace file is well-formed JSON with correct escaping that reads
//! back to the recorded spans and metrics.
//!
//! The collector and the enabled flag are process-global, so every test
//! serializes on one mutex and leaves tracing disabled on exit.

use std::sync::Mutex;

use proof_trace as trace;

static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with tracing armed and a freshly drained collector, then
/// disarms. All tests in this binary go through here.
fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    let _ = trace::drain();
    let out = f();
    trace::set_enabled(false);
    let _ = trace::drain();
    out
}

#[test]
fn parent_links_and_nesting() {
    with_tracing(|| {
        {
            let mut outer = trace::span("cell", "outer");
            outer.field_u64("n", 7);
            {
                let _inner = trace::span("oracle", "inner");
            }
        }
        let data = trace::drain();
        assert_eq!(data.spans.len(), 2, "both spans recorded");
        assert_eq!(data.dropped, 0);
        // drain() sorts by start time, so the enclosing span comes first.
        let (outer, inner) = (&data.spans[0], &data.spans[1]);
        assert_eq!(outer.kind, "cell");
        assert_eq!(inner.kind, "oracle");
        assert_eq!(outer.parent, 0, "root span has no parent");
        assert_eq!(inner.parent, outer.id, "child links to enclosing span");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(
            inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns,
            "child interval nests inside parent"
        );
        assert_eq!(outer.fields, vec![("n", trace::Field::U64(7))]);
    });
}

#[test]
fn spans_on_other_threads_are_roots_with_their_own_tid() {
    with_tracing(|| {
        {
            let _outer = trace::span("cell", "main");
            std::thread::spawn(|| {
                let _s = trace::span("stm", "worker");
            })
            .join()
            .unwrap();
        }
        let data = trace::drain();
        assert_eq!(data.spans.len(), 2);
        let main = data.spans.iter().find(|s| s.kind == "cell").unwrap();
        let worker = data.spans.iter().find(|s| s.kind == "stm").unwrap();
        // The parent stack is thread-local: a span opened on another
        // thread is a root there, not a child of the spawner's span.
        assert_eq!(worker.parent, 0);
        assert_ne!(worker.tid, main.tid, "each thread gets its own tid");
    });
}

#[test]
fn a_worker_that_adopts_its_spawners_span_nests_under_it() {
    with_tracing(|| {
        {
            let _outer = trace::span("cell", "main");
            let parent = trace::collect::current_span();
            std::thread::spawn(move || {
                {
                    let _adopted = trace::collect::adopt_parent(parent);
                    let _s = trace::span("theorem", "adopted");
                }
                let _s = trace::span("stm", "after");
            })
            .join()
            .unwrap();
        }
        let data = trace::drain();
        let main = data.spans.iter().find(|s| s.kind == "cell").unwrap();
        let adopted = data.spans.iter().find(|s| s.kind == "theorem").unwrap();
        let after = data.spans.iter().find(|s| s.kind == "stm").unwrap();
        assert_eq!(
            adopted.parent, main.id,
            "the worker's span nests under the cell"
        );
        assert_ne!(adopted.tid, main.tid, "it still records its own thread");
        assert_eq!(after.parent, 0, "dropping the guard ends the adoption");
    });
}

#[test]
fn drain_empties_the_collector() {
    with_tracing(|| {
        {
            let _s = trace::span("cell", "once");
        }
        assert_eq!(trace::drain().spans.len(), 1);
        let again = trace::drain();
        assert!(again.spans.is_empty() && again.dropped == 0);
    });
}

#[test]
fn disabled_tracing_records_nothing() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(false);
    let _ = trace::drain();
    {
        let mut s = trace::span("cell", "ghost");
        assert!(!s.is_armed());
        s.field_str("k", "v");
    }
    let data = trace::drain();
    assert!(data.spans.is_empty());
}

#[test]
fn the_trace_file_is_wellformed_and_reads_back() {
    let (data, snap) = with_tracing(|| {
        trace::metrics::reset();
        trace::metrics::counter_inc("test.counter");
        trace::metrics::observe("test.hist.ns", 5);
        {
            // Names with JSON-hostile characters exercise the escaper.
            let mut s = trace::span("oracle", "q\"uo\\te\n");
            s.field_str("k", "v\"w");
            let _child = trace::span("stm", "");
        }
        (trace::drain(), trace::metrics::snapshot())
    });

    let path = std::env::temp_dir().join(format!("trace_units_{}.json", std::process::id()));
    trace::export::write_chrome(&path, &data, &snap).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // The file parses and has the Perfetto essentials: a traceEvents
    // array, thread_name metadata, and one X event per span, named
    // `kind: name` and carrying the span's fields in `args`.
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let phase = |e: &serde_json::Value| {
        e.get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or("")
            .to_string()
    };
    let complete: Vec<&serde_json::Value> = events.iter().filter(|e| phase(e) == "X").collect();
    assert_eq!(complete.len(), data.spans.len());
    assert!(events
        .iter()
        .all(|e| ["M", "X"].contains(&phase(e).as_str())));
    assert!(events
        .iter()
        .any(|e| phase(e) == "M" && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")));
    let oracle = complete[0];
    assert_eq!(
        oracle.get("name").and_then(|n| n.as_str()),
        Some("oracle: q\"uo\\te\n"),
        "escaping round-trips"
    );
    let args = oracle.get("args").unwrap();
    assert_eq!(args.get("k").and_then(|k| k.as_str()), Some("v\"w"));

    // Read back: the same spans, the same snapshot, no drops.
    let back = trace::export::read_chrome(&text).expect("the file validates");
    let want: Vec<trace::report::Span> = data.spans.iter().map(Into::into).collect();
    assert_eq!(back.spans, want);
    assert_eq!(back.spans[1].name, "", "an unnamed span reads back unnamed");
    assert_eq!(back.spans[1].parent, back.spans[0].id);
    assert_eq!(back.metrics, snap);
    assert_eq!(back.dropped, 0);
}

#[test]
fn stopwatch_emits_span_only_when_enabled() {
    with_tracing(|| {
        {
            let mut sw = trace::Stopwatch::span("cell", "timed");
            assert!(sw.span_mut().is_armed());
            assert!(sw.elapsed_ms() >= 0.0);
        }
        assert_eq!(trace::drain().spans.len(), 1);
    });
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(false);
    let mut sw = trace::Stopwatch::span("cell", "untimed");
    assert!(!sw.span_mut().is_armed());
    assert!(sw.elapsed_ms() >= 0.0, "stopwatch runs regardless");
}

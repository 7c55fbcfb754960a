//! Integration tests for the span collector and the two exporters: parent
//! links, nesting, cross-thread attribution, drain semantics, and that
//! both artifact formats are well-formed JSON with correct escaping.
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
                trace::event("cache", "hit");
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
        // The instant event was recorded under the then-open inner span.
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.events[0].parent, inner.id);
        assert_eq!(data.events[0].kind, "cache");
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
        assert!(again.spans.is_empty() && again.events.is_empty());
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
        trace::event("cache", "miss");
    }
    let data = trace::drain();
    assert!(data.spans.is_empty());
    assert!(data.events.is_empty());
}

#[test]
fn exporters_write_wellformed_json() {
    let (data, snap) = with_tracing(|| {
        trace::metrics::reset();
        trace::metrics::counter_inc("test.counter");
        trace::metrics::gauge_set("test.gauge", -3);
        trace::metrics::observe("test.hist.ns", 5);
        {
            // Names with JSON-hostile characters exercise the escaper.
            let mut s = trace::span("oracle", "q\"uo\\te\n");
            s.field_str("k", "v\"w");
            trace::event("journal", "hit");
        }
        (trace::drain(), trace::metrics::snapshot())
    });

    let dir = std::env::temp_dir();
    let jsonl = dir.join(format!("trace_units_{}.jsonl", std::process::id()));
    let chrome = dir.join(format!("trace_units_{}.json", std::process::id()));
    trace::export::write_jsonl(&jsonl, &data, &snap).unwrap();
    trace::export::write_chrome(&chrome, &data).unwrap();

    // Every JSONL line parses, and all record types appear.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("JSONL line parses");
        kinds.insert(
            v.get("t")
                .and_then(|t| t.as_str())
                .expect("record tag")
                .to_string(),
        );
        if v.get("t").and_then(|t| t.as_str()) == Some("span") {
            assert_eq!(
                v.get("name").and_then(|n| n.as_str()),
                Some("q\"uo\\te\n"),
                "escaping round-trips"
            );
        }
    }
    for expected in ["meta", "span", "event", "counter", "gauge", "hist"] {
        assert!(kinds.contains(expected), "JSONL has a {expected} record");
    }

    // The Chrome artifact parses and has the Perfetto essentials: a
    // traceEvents array, thread_name metadata, and one X event per span.
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
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
    let complete = events.iter().filter(|e| phase(e) == "X").count();
    assert_eq!(complete, data.spans.len());
    assert!(events
        .iter()
        .any(|e| phase(e) == "M" && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")));
    assert!(events.iter().any(|e| phase(e) == "i"), "instant event");

    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(&chrome);
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

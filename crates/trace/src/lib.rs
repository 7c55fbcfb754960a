//! `proof-trace`: the tracing, metrics, and profiling layer for the whole
//! proof-search stack, plus the checksummed record envelope every
//! persisted log shares ([`envelope`], [`ledger`], [`attempts`]).
//!
//! The repo's dependency policy is vendored-offline-only, so instead of
//! pulling in `tracing`, this crate builds the three observability
//! primitives the evaluation needs on `std` (records go through the
//! vendored `serde_json`, the workspace's one JSON implementation):
//!
//! * **Spans** ([`span`]) — monotonic wall-clock intervals carrying a
//!   *kind* (the phase taxonomy: `oracle`, `stm`, `preflight`,
//!   `frontier`, `cache`, `journal`, …), a name, key/value fields, and a
//!   parent id derived from a per-thread span stack. Every span opened
//!   while the collector is armed is recorded; there is no sampling, so
//!   each phase's self time is read straight off the spans.
//! * **A sharded in-memory collector** ([`collect`]) — finished spans go
//!   to one of a fixed set of mutex-guarded shards picked by thread id, so
//!   parallel runner workers almost never contend. The collector is
//!   bounded: past the cap spans are counted as dropped, never silently
//!   lost.
//! * **A metrics registry** ([`metrics`]) — named counters and
//!   log₂-bucketed latency histograms with *exact* merge semantics
//!   (buckets are integer counts, so merging per-shard histograms is
//!   byte-equal to recording serially; `tests/hist_props.rs` proves it).
//!
//! The exporter ([`export`]) turns a drained collector and the registry
//! snapshot into the one trace artifact, a Chrome trace-event JSON file
//! loadable in Perfetto / `chrome://tracing`, and reads it back for the
//! `trace_report` binary.
//!
//! # Determinism contract
//!
//! Tracing is a **side channel**. Nothing recorded here may flow back into
//! proof search, cell-cache keys, journal records, golden transcripts, or
//! any byte-compared output — timing is nondeterministic and would poison
//! them all. The instrumented crates uphold this by construction (trace
//! calls only *read* experiment state), and
//! `proof-metrics/tests/trace_determinism.rs` asserts a traced grid's
//! primary output is byte-identical to an untraced one.
//!
//! # Overhead contract
//!
//! Tracing is **off** by default. Every entry point first loads one
//! relaxed [`AtomicBool`]; when disabled, [`span`] returns an inert guard
//! without reading the clock and the hot instrumentation sites skip their
//! registry lookups entirely, so release builds pay a few branches per
//! query, not per nanosecond measured. Armed, every span costs two clock
//! reads, its name's allocation and one locked shard push. Measure that
//! cost out of process: `table2 --fresh` against `table2 --fresh
//! --trace-out <base>`, alternating the two in fresh processes (the
//! README's tracing section has the recipe and the last measurement).

pub mod attempts;
pub mod collect;
pub mod envelope;
pub mod export;
pub mod ledger;
pub mod metrics;
pub mod radar;
pub mod report;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub use collect::{drain, Field, SpanRec, TraceData};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when the collector is armed. One relaxed atomic load — cheap
/// enough to guard every instrumentation site in release builds.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms or disarms the collector. Arming initializes the global collector
/// (fixing the trace epoch) if this is the first time.
pub fn set_enabled(on: bool) {
    if on {
        collect::collector();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// A live span: records a timed interval on drop. Obtained from [`span`];
/// inert (no clock read, no allocation) when tracing is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    tid: u64,
    kind: &'static str,
    name: String,
    start: Instant,
    start_ns: u64,
    fields: Vec<(&'static str, Field)>,
}

impl SpanGuard {
    /// An inert guard (what [`span`] returns when tracing is disabled).
    pub fn inert() -> SpanGuard {
        SpanGuard { active: None }
    }

    /// True when this guard will record on drop.
    pub fn is_armed(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches an integer field (no-op when inert).
    pub fn field_u64(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, Field::U64(value)));
        }
    }

    /// Attaches a string field (no-op when inert; the value is only
    /// cloned when the span is live).
    pub fn field_str(&mut self, key: &'static str, value: &str) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, Field::Str(value.to_string())));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        collect::end_span(a.id);
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        collect::collector().record_span(SpanRec {
            id: a.id,
            parent: a.parent,
            tid: a.tid,
            kind: a.kind,
            name: a.name,
            start_ns: a.start_ns,
            dur_ns,
            fields: a.fields,
        });
    }
}

/// Opens a span of the given kind. The kind is the phase taxonomy key the
/// report aggregates by (`oracle`, `stm`, `preflight`, `frontier`,
/// `cache`, `journal`, `cell`, `theorem`, …; a `.`-suffix refines a phase,
/// e.g. `oracle.prompt` reports under `oracle`). The parent is whatever
/// span is currently open on this thread. Returns an inert guard — one
/// atomic load, nothing else — when tracing is disabled.
pub fn span(kind: &'static str, name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let c = collect::collector();
    let id = c.next_span_id();
    let tid = collect::current_tid();
    let parent = collect::begin_span(id);
    let start = Instant::now();
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            tid,
            kind,
            name: name.to_string(),
            start,
            start_ns: c.ns_since_epoch(start),
            fields: Vec::new(),
        }),
    }
}

/// A stopwatch that *always* measures wall time, and additionally emits a
/// span when tracing is enabled. This is the timing primitive for call
/// sites whose measurements are load-bearing regardless of tracing — e.g.
/// the cell runner's `wall_ms`, which must be recorded identically for
/// computed, cache-hit, and crashed cells.
pub struct Stopwatch {
    start: Instant,
    span: SpanGuard,
}

impl Stopwatch {
    /// Starts timing and opens a span of the given kind (inert when
    /// tracing is disabled — the stopwatch still runs).
    pub fn span(kind: &'static str, name: &str) -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
            span: span(kind, name),
        }
    }

    /// Milliseconds elapsed since the stopwatch started.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// The underlying span guard, for attaching fields.
    pub fn span_mut(&mut self) -> &mut SpanGuard {
        &mut self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        assert!(!enabled());
        let mut g = span("test", "x");
        assert!(!g.is_armed());
        g.field_u64("k", 1); // no-op, must not panic
    }

    #[test]
    fn stopwatch_measures_without_tracing() {
        let sw = Stopwatch::span("test", "t");
        assert!(sw.elapsed_ms() >= 0.0);
        assert!(!sw.span.is_armed() || enabled());
    }
}

//! `proof-trace`: a zero-dependency tracing, metrics, and profiling layer
//! for the whole proof-search stack.
//!
//! The repo's dependency policy is vendored-offline-only, so instead of
//! pulling in `tracing`, this crate builds the three observability
//! primitives the evaluation needs from `std` alone:
//!
//! * **Spans and events** ([`span`], [`event`]) — monotonic wall-clock
//!   intervals carrying a *kind* (the phase taxonomy: `oracle`, `stm`,
//!   `preflight`, `frontier`, `cache`, `journal`, …), a name, key/value
//!   fields, and a parent id derived from a per-thread span stack.
//! * **A sharded in-memory collector** ([`collect`]) — finished records go
//!   to one of a fixed set of mutex-guarded shards picked by thread id, so
//!   parallel runner workers almost never contend. The collector is
//!   bounded: past the cap records are counted as dropped, never silently
//!   lost.
//! * **A metrics registry** ([`metrics`]) — named counters, gauges, and
//!   log₂-bucketed latency histograms with *exact* merge semantics
//!   (buckets are integer counts, so merging per-shard histograms is
//!   byte-equal to recording serially; `tests/hist_props.rs` proves it).
//!
//! Two exporters ([`export`]) turn a drained collector into artifacts: a
//! JSONL event stream (one self-describing object per line, the input to
//! the `trace_report` binary) and a Chrome trace-event JSON loadable in
//! Perfetto / `chrome://tracing`.
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
//! query, not per nanosecond measured. Measure the armed cost out of
//! process: `table2 --fresh` against `table2 --fresh --trace-out <base>`,
//! alternating the two in fresh processes (the README's tracing section
//! has the recipe and the last measurement).

pub mod attempts;
pub mod collect;
pub mod envelope;
pub mod export;
pub mod expose;
pub mod ledger;
pub mod metrics;
pub mod radar;
pub mod report;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use collect::{drain, EventRec, Field, SpanRec, TraceData};

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
/// inert (no clock read, no allocation) when tracing is disabled. A guard
/// from [`span_sampled`] may instead be *elided*: it records no span, but
/// still measures its duration and accumulates it into the owning
/// [`SampleSite`]'s residue so phase attribution stays exact.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    elided: Option<ElidedSpan>,
}

struct ElidedSpan {
    site: &'static SampleSite,
    kind: &'static str,
    parent_kind: &'static str,
    start: Instant,
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
        SpanGuard {
            active: None,
            elided: None,
        }
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
        if let Some(e) = self.elided.take() {
            let dur_ns = e.start.elapsed().as_nanos() as u64;
            collect::pop_suppress();
            e.site.accumulate(e.kind, e.parent_kind, dur_ns);
            return;
        }
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
    if !enabled() || collect::suppressed() {
        return SpanGuard::inert();
    }
    let c = collect::collector();
    let id = c.next_span_id();
    let tid = collect::current_tid();
    let parent = collect::begin_span(id, kind);
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
        elided: None,
    }
}

/// The sampling modulus: record 1 in `rate` spans at each
/// [`span_sampled`] site. `1` disables sampling (record everything).
/// Initialized from `TRACE_SAMPLE` on first use; [`set_sample_rate`]
/// overrides at runtime (the env value is latched, so tests and A/B
/// harnesses use the setter).
pub fn sample_rate() -> u64 {
    let r = SAMPLE_RATE.load(Ordering::Relaxed);
    if r != 0 {
        return r;
    }
    let r = std::env::var("TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_SAMPLE_RATE);
    SAMPLE_RATE.store(r, Ordering::Relaxed);
    r
}

/// Overrides the sampling modulus (`1` = record every span; `0` resets
/// to unlatched, so the next [`sample_rate`] call re-reads
/// `TRACE_SAMPLE`).
pub fn set_sample_rate(rate: u64) {
    SAMPLE_RATE.store(rate, Ordering::SeqCst);
}

/// Default 1-in-N sampling for hot spans when `TRACE_SAMPLE` is unset.
const DEFAULT_SAMPLE_RATE: u64 = 16;

/// 0 = not yet initialized from the environment.
static SAMPLE_RATE: AtomicU64 = AtomicU64::new(0);

/// Every [`SampleSite`] that has elided at least one span, so residues can
/// be drained without enumerating call sites.
static SITES: Mutex<Vec<&'static SampleSite>> = Mutex::new(Vec::new());

/// Per-call-site sampling state: the modulus counter plus the exact
/// residue (total elided nanoseconds and span count, keyed by the parent
/// phase the elided time is misfiled under). Declared `static` at each
/// instrumentation site.
pub struct SampleSite {
    n: AtomicU64,
    registered: AtomicBool,
    acc: Mutex<Vec<ResidueSlot>>,
}

struct ResidueSlot {
    kind: &'static str,
    parent_kind: &'static str,
    ns: u64,
    count: u64,
}

impl SampleSite {
    /// A fresh site (usable in `static` position).
    pub const fn new() -> SampleSite {
        SampleSite {
            n: AtomicU64::new(0),
            registered: AtomicBool::new(false),
            acc: Mutex::new(Vec::new()),
        }
    }

    fn accumulate(&'static self, kind: &'static str, parent_kind: &'static str, ns: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock_sites().push(self);
        }
        let mut acc = self.acc.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(slot) = acc
            .iter_mut()
            .find(|s| s.kind == kind && s.parent_kind == parent_kind)
        {
            slot.ns += ns;
            slot.count += 1;
        } else {
            acc.push(ResidueSlot {
                kind,
                parent_kind,
                ns,
                count: 1,
            });
        }
    }
}

impl Default for SampleSite {
    fn default() -> SampleSite {
        SampleSite::new()
    }
}

fn lock_sites() -> std::sync::MutexGuard<'static, Vec<&'static SampleSite>> {
    SITES.lock().unwrap_or_else(|p| p.into_inner())
}

/// Exact accounting for spans a [`SampleSite`] elided: `ns` nanoseconds
/// across `count` spans of phase `phase` whose recorded time would
/// otherwise be misattributed to `parent_phase` self-time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledResidue {
    /// Phase of the elided spans (prefix of the site's kind before `.`).
    pub phase: String,
    /// Phase of the nearest *recorded* ancestor span (empty for roots).
    pub parent_phase: String,
    /// Total elided wall time in nanoseconds.
    pub ns: u64,
    /// Number of elided spans.
    pub count: u64,
}

fn phase_of(kind: &str) -> &str {
    kind.split('.').next().unwrap_or(kind)
}

/// Aggregates every site's residue by (phase, parent phase), sorted for
/// deterministic export order. `reset` clears the accumulators (what
/// [`collect::drain`] does); a scrape passes `false` for a live view.
pub fn take_residues(reset: bool) -> Vec<SampledResidue> {
    let mut by_key: std::collections::BTreeMap<(String, String), (u64, u64)> =
        std::collections::BTreeMap::new();
    let sites: Vec<&'static SampleSite> = lock_sites().clone();
    for site in sites {
        let mut acc = site.acc.lock().unwrap_or_else(|p| p.into_inner());
        for slot in acc.iter() {
            let key = (
                phase_of(slot.kind).to_string(),
                phase_of(slot.parent_kind).to_string(),
            );
            let e = by_key.entry(key).or_insert((0, 0));
            e.0 += slot.ns;
            e.1 += slot.count;
        }
        if reset {
            acc.clear();
        }
    }
    by_key
        .into_iter()
        .map(|((phase, parent_phase), (ns, count))| SampledResidue {
            phase,
            parent_phase,
            ns,
            count,
        })
        .collect()
}

/// Non-destructive view of the current residues (for `/metrics`).
pub fn peek_residues() -> Vec<SampledResidue> {
    take_residues(false)
}

/// Opens a span of the given kind at a *sampled* site: 1 in
/// [`sample_rate`] calls records a real span (exactly like [`span`]); the
/// rest return an **elided** guard that records nothing, suppresses every
/// span and event in its subtree, and on drop adds its exact duration to
/// the site's residue, keyed by the phase of the nearest recorded
/// ancestor. `report::phase_breakdown_full` moves that time back to this
/// site's phase, so sampling changes trace *volume*, never phase totals.
/// Registry counters at the call site are untouched and stay exact.
pub fn span_sampled(site: &'static SampleSite, kind: &'static str, name: &str) -> SpanGuard {
    if !enabled() || collect::suppressed() {
        return SpanGuard::inert();
    }
    let rate = sample_rate();
    if rate <= 1 || site.n.fetch_add(1, Ordering::Relaxed).is_multiple_of(rate) {
        return span(kind, name);
    }
    let parent_kind = collect::current_span_kind().unwrap_or("");
    collect::push_suppress();
    SpanGuard {
        active: None,
        elided: Some(ElidedSpan {
            site,
            kind,
            parent_kind,
            start: Instant::now(),
        }),
    }
}

/// Records an instant event of the given kind under the currently open
/// span (if any). No-op when tracing is disabled.
pub fn event(kind: &'static str, name: &str) {
    event_with(kind, name, Vec::new());
}

/// As [`event`], with fields. The field vector is only built by callers
/// that already checked [`enabled`], or passed inline (cheap when empty).
pub fn event_with(kind: &'static str, name: &str, fields: Vec<(&'static str, Field)>) {
    if !enabled() || collect::suppressed() {
        return;
    }
    let c = collect::collector();
    c.record_event(EventRec {
        parent: collect::current_span(),
        tid: collect::current_tid(),
        kind,
        name: name.to_string(),
        ts_ns: c.ns_since_epoch(Instant::now()),
        fields,
    });
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
        event("test", "e");
    }

    #[test]
    fn stopwatch_measures_without_tracing() {
        let sw = Stopwatch::span("test", "t");
        assert!(sw.elapsed_ms() >= 0.0);
        assert!(!sw.span.is_armed() || enabled());
    }
}

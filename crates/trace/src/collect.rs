//! The sharded in-memory collector.
//!
//! Finished spans land in one of 16 mutex-guarded vectors, picked by the
//! recording thread's id — workers on the runner's pool therefore almost
//! never contend on a lock. The collector is bounded ([`CAP`] spans):
//! past the cap, spans are counted in `dropped` instead of being stored,
//! so a pathological run degrades to a truncated trace with an explicit
//! drop count, never to unbounded memory. [`drain`] empties every shard
//! and returns the spans sorted by start time, ready for the exporter.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::lock_recover;

/// Number of collector shards. A small power of two: enough that the
/// runner's worker pool spreads out, small enough to drain cheaply.
const SHARDS: usize = 16;

/// A span field value. Integers and strings cover every
/// instrumentation site; keeping floats out keeps the trace file exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    /// An integer value (counts, ids, sizes, indices).
    U64(u64),
    /// A string value (outcome labels, reason codes).
    Str(String),
}

/// A finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique span id (process-wide, starts at 1).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or of the span the
    /// thread adopted ([`adopt_parent`]); 0 for a root.
    pub parent: u64,
    /// Trace-local thread id (dense, assigned in first-use order).
    pub tid: u64,
    /// Phase taxonomy kind (`oracle`, `stm`, `cell`, …).
    pub kind: &'static str,
    /// Display name (theorem name, cell label, operation).
    pub name: String,
    /// Nanoseconds since the trace epoch at span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds (monotonic clock).
    pub dur_ns: u64,
    /// Key/value fields.
    pub fields: Vec<(&'static str, Field)>,
}

/// Everything a drain returns: the spans plus the drop count.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Finished spans, sorted by (start, id).
    pub spans: Vec<SpanRec>,
    /// Spans discarded because the collector cap was reached.
    pub dropped: u64,
}

/// The process-wide collector. Created once, on first arm.
pub(crate) struct Collector {
    epoch: Instant,
    shards: Vec<Mutex<Vec<SpanRec>>>,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    stored: AtomicUsize,
    dropped: AtomicU64,
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

/// The span cap. At roughly a hundred bytes per span it bounds collector
/// memory to a few hundred MB; a traced cold grid records about 85,000.
pub const CAP: usize = 4_000_000;

pub(crate) fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
        stored: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
    })
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's trace-local id, assigned densely on first use.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = collector().next_tid.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Pushes a new span id on this thread's stack; returns the previous top
/// (the new span's parent), 0 if the stack was empty.
pub(crate) fn begin_span(id: u64) -> u64 {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    })
}

/// Pops `id` from this thread's stack. Tolerates a missing id (tracing
/// toggled mid-span) by removing the matching entry wherever it is.
pub(crate) fn end_span(id: u64) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.last() == Some(&id) {
            s.pop();
        } else if let Some(pos) = s.iter().rposition(|&x| x == id) {
            s.remove(pos);
        }
    });
}

/// The id of the span currently open on this thread, 0 if none.
pub fn current_span() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Makes span `id` the parent of the spans this thread opens while the
/// guard lives. A worker thread passes the [`current_span`] of the thread
/// that spawned it, so the worker's spans nest under that span although
/// they run on another thread. Id 0 (nothing open, or tracing off) adopts
/// nothing.
pub fn adopt_parent(id: u64) -> AdoptedParent {
    if id != 0 {
        STACK.with(|s| s.borrow_mut().push(id));
    }
    AdoptedParent { id }
}

/// Guard returned by [`adopt_parent`]; takes the adopted id off this
/// thread's span stack on drop.
pub struct AdoptedParent {
    id: u64,
}

impl Drop for AdoptedParent {
    fn drop(&mut self) {
        if self.id != 0 {
            end_span(self.id);
        }
    }
}

impl Collector {
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub(crate) fn record_span(&self, rec: SpanRec) {
        if self.stored.fetch_add(1, Ordering::Relaxed) >= CAP {
            self.stored.fetch_sub(1, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lock_recover(&self.shards[(current_tid() as usize) % SHARDS]).push(rec);
    }
}

/// Empties every shard and returns the accumulated spans sorted by
/// (start, id), so export order is a function of the recorded data alone,
/// not of shard iteration order. Resets the drop counter.
pub fn drain() -> TraceData {
    let Some(c) = COLLECTOR.get() else {
        return TraceData::default();
    };
    let mut data = TraceData {
        dropped: c.dropped.swap(0, Ordering::Relaxed),
        ..TraceData::default()
    };
    for shard in &c.shards {
        data.spans.append(&mut lock_recover(shard));
    }
    c.stored.store(0, Ordering::Relaxed);
    data.spans.sort_by_key(|s| (s.start_ns, s.id));
    data
}

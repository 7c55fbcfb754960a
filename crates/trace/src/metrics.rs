//! The metrics registry: named counters and log₂-bucketed latency
//! histograms.
//!
//! Metrics are aggregates, not streams — they cost a fixed-size slot per
//! name no matter how hot the site, which is why per-tactic latency lives
//! here instead of in the span collector. Both metric types are lock-free
//! once their [`Arc`] handle is resolved; resolving a handle takes the
//! registry lock, so hot sites with a fixed name hold a [`HotCounter`],
//! while cold sites use the name-at-call-site helpers ([`counter_add`],
//! [`observe`]).
//!
//! Histograms bucket by `floor(log2(v)) + 1` (bucket 0 holds exactly the
//! value 0), so bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`. Buckets are
//! plain integer counts and the sum is exact, which gives histograms
//! **exact merge semantics**: merging shard-local histograms element-wise
//! is equal — not approximately, equal — to recording every value into one
//! histogram serially. `tests/hist_props.rs` proves this by property test.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::Deserialize;

use crate::lock_recover;

/// Number of histogram buckets: one for zero plus one per power of two of
/// a `u64` value.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// The closed value range `[lo, hi]` bucket `i` covers.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HIST_BUCKETS, "bucket index out of range");
    if i == 0 {
        (0, 0)
    } else if i == HIST_BUCKETS - 1 {
        (1u64 << (i - 1), u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A log₂-bucketed histogram with an exact sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistData {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistData {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A plain-data histogram snapshot (what the exporter and reports
/// consume; `trace_report` reads it back from the trace file's
/// `histograms` object, where a missing field reads as its default).
#[derive(Debug, Clone, PartialEq, Eq, Default, Deserialize)]
pub struct HistData {
    /// Per-bucket counts ([`HIST_BUCKETS`] entries).
    #[serde(default)]
    pub buckets: Vec<u64>,
    /// Total recorded values.
    #[serde(default)]
    pub count: u64,
    /// Exact sum of recorded values.
    #[serde(default)]
    pub sum: u64,
}

impl HistData {
    /// Element-wise merge (exact).
    pub fn merge(&mut self, other: &HistData) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of the recorded values (exact sum / exact count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1).
    /// A log₂-resolution estimate: exact about which power-of-two band the
    /// quantile falls in, nothing finer.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(HIST_BUCKETS - 1).1
    }
}

/// An immutable snapshot of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, HistData>,
}

/// The global registry.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// The counter named `name`, created on first use. The hit path
    /// allocates nothing (the owned key is only built on first insert).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_recover(&self.counters);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_recover(&self.hists);
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Snapshots every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock_recover(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            hists: lock_recover(&self.hists)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every metric in place (tests and between-grid resets). The
    /// slots stay registered, so every resolved handle, a [`HotCounter`]'s
    /// included, keeps counting into the live registry.
    pub fn reset(&self) {
        for c in lock_recover(&self.counters).values() {
            c.zero();
        }
        for h in lock_recover(&self.hists).values() {
            h.zero();
        }
    }
}

/// A counter handle cached at the call site: the registry lookup (global
/// lock + map walk) runs once per process, and every increment after it
/// is one atomic add. Declare `static` at hot sites whose label is fixed:
///
/// ```
/// use proof_trace::metrics::HotCounter;
/// static HITS: HotCounter = HotCounter::new("cache.hits");
/// HITS.inc();
/// assert_eq!(proof_trace::metrics::snapshot().counters["cache.hits"], 1);
/// ```
pub struct HotCounter {
    name: &'static str,
    slot: OnceLock<Arc<Counter>>,
}

impl HotCounter {
    /// A fresh unresolved handle (usable in `static` position).
    pub const fn new(name: &'static str) -> HotCounter {
        HotCounter {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the named counter, resolving the handle on first use.
    pub fn add(&self, n: u64) {
        self.slot
            .get_or_init(|| registry().counter(self.name))
            .add(n);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// [`HotCounter`] for a histogram: the registry lookup runs once per
/// process, and every record after it is lock-free.
///
/// ```
/// use proof_trace::metrics::HotHistogram;
/// static LATENCY: HotHistogram = HotHistogram::new("op.ns");
/// LATENCY.record(40);
/// assert_eq!(proof_trace::metrics::snapshot().hists["op.ns"].count, 1);
/// ```
pub struct HotHistogram {
    name: &'static str,
    slot: OnceLock<Arc<Histogram>>,
}

impl HotHistogram {
    /// A fresh unresolved handle (usable in `static` position).
    pub const fn new(name: &'static str) -> HotHistogram {
        HotHistogram {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Records `v` into the named histogram, resolving the handle on first
    /// use.
    pub fn record(&self, v: u64) {
        self.slot
            .get_or_init(|| registry().histogram(self.name))
            .record(v);
    }
}

/// Adds `n` to the counter named `name`.
pub fn counter_add(name: &str, n: u64) {
    registry().counter(name).add(n);
}

/// Adds 1 to the counter named `name`.
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Records `v` into the histogram named `name`.
pub fn observe(name: &str, v: u64) {
    registry().histogram(name).record(v);
}

/// Snapshots the global registry.
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// Zeroes the global registry.
pub fn reset() {
    registry().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i, "lo bound of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi bound of bucket {i}");
        }
    }

    #[test]
    fn hot_counter_survives_registry_reset() {
        static HOT: HotCounter = HotCounter::new("test.hot_counter");
        HOT.add(3);
        assert_eq!(registry().counter("test.hot_counter").get(), 3);
        registry().reset();
        // The cached handle is stale now; the next add must re-resolve
        // into the fresh registry rather than increment the orphan.
        HOT.inc();
        assert_eq!(registry().counter("test.hot_counter").get(), 1);
    }

    #[test]
    fn quantiles_from_buckets() {
        let h = Histogram::default();
        for v in [1u64, 1, 2, 100, 1000] {
            h.record(v);
        }
        let d = h.snapshot();
        assert_eq!(d.count, 5);
        assert_eq!(d.sum, 1104);
        // Median is the 3rd of 5 values (2) → bucket [2,3] upper bound.
        assert_eq!(d.quantile_upper(0.5), 3);
        // Max lands in 1000's bucket [512, 1023].
        assert_eq!(d.quantile_upper(1.0), 1023);
    }
}

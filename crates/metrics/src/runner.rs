//! The parallel, cache-aware evaluation engine.
//!
//! A cell's theorems are independent: the simulator's randomness is a pure
//! hash of (model, theorem, query, candidate) and every worker holds its
//! own [`SimulatedModel`](proof_oracle::SimulatedModel) clone and an
//! [`Arc`]-shared environment snapshot, so evaluating them on a
//! work-stealing pool is *bit-identical* to the serial loop (enforced by
//! `tests/runner_tests.rs`). On top of the pool sits a content-hashed
//! on-disk cell cache: a completed [`CellResult`] is stored under
//! `target/cells/<hash>.json`, keyed by every input that affects the
//! outcomes (profile, setting, scope, search configuration, tuning,
//! retrieval), so re-running a bench binary with an unchanged
//! configuration loads instead of recomputing — and *changing* any knob
//! changes the hash, which is the cache-invalidation story.
//!
//! Worker count: `--jobs N` on the command line beats a `JOBS=N`
//! environment variable beats [`std::thread::available_parallelism`].

use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fscq_corpus::Corpus;
use proof_chaos::{FaultKind, FaultPlan};
use proof_oracle::prompt::PromptCache;
use proof_oracle::split::hint_set;
use proof_search::RecoveryConfig;
use proof_trace::envelope::{fnv1a, seal, Record};
use serde::{Deserialize, Serialize};

use crate::experiment::{
    eval_theorem_with_recovery, finish_cell, CellConfig, CellResult, TheoremOutcome,
};
use crate::journal::Journal;

/// Bump when the cached [`CellResult`] layout or the evaluation semantics
/// change; old cache files then simply stop matching. Schema 3 wraps the
/// result in a checksummed envelope so torn writes are detected on load.
/// Schema 5 follows `SearchConfig::premise_rank` becoming a three-arm
/// enum (its `Debug` form feeds the key).
const CACHE_SCHEMA: u32 = 5;

/// Where cell caches live by default.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("target/cells")
}

/// Resolves the worker count: `--jobs N` (or `--jobs=N`), then `JOBS=N`,
/// then the machine's available parallelism.
pub fn resolve_jobs() -> usize {
    if let Some(n) = jobs_arg(std::env::args().skip(1)) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The value of the first parseable `--jobs N` or `--jobs=N` in `args`.
fn jobs_arg(args: impl Iterator<Item = String>) -> Option<usize> {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--jobs" {
            if let Some(v) = args.peek() {
                if let Ok(n) = v.parse::<usize>() {
                    return Some(n);
                }
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            if let Ok(n) = v.parse::<usize>() {
                return Some(n);
            }
        }
    }
    None
}

/// The content hash a cell caches under: FNV-1a over a stable rendering of
/// every outcome-affecting field, plus the schema version.
pub fn cell_cache_key(cell: &CellConfig) -> String {
    // `Debug` of the config is a stable function of its fields (floats
    // render shortest-roundtrip), which is exactly the keying we want.
    let repr = format!("v{CACHE_SCHEMA}:{cell:?}");
    format!("{:016x}", fnv1a(repr.as_bytes()))
}

/// A cell evaluation that died mid-flight: the panic payload, captured at
/// the cell boundary so one poisoned cell cannot take down a grid run and
/// discard every other cell's completed outcomes.
#[derive(Debug, Clone)]
pub struct CellCrash {
    /// Display label of the crashed cell.
    pub label: String,
    /// The panic payload, rendered to text.
    pub panic: String,
}

impl std::fmt::Display for CellCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell `{}` crashed: {}", self.label, self.panic)
    }
}

impl std::error::Error for CellCrash {}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates the given theorem indices under `cell` on `jobs` workers and
/// returns the outcomes in the order of `indices` (corpus order when the
/// caller passes a sorted eval set). Bit-identical to a serial loop.
///
/// Runs under an explicit recovery policy and with cell-level panic
/// isolation: a panic anywhere in the evaluation — any worker, an oracle
/// whose faults outlasted every retry, or an injected
/// [`FaultKind::WorkerPanic`] — is caught at the cell boundary and
/// returned as a typed [`CellCrash`].
///
/// `attempt` is how many evaluations of this cell already *began*
/// (journal `start` entries); the worker-panic fault site is keyed on it,
/// so a fault that fired on attempt 0 stays quiet on the resumed
/// attempt 1 (`FaultPlan::should_fault_at`).
pub fn run_indices_checked(
    corpus: &Corpus,
    cell: &CellConfig,
    indices: &[usize],
    jobs: usize,
    recovery: &RecoveryConfig,
    attempt: u32,
) -> Result<Vec<TheoremOutcome>, CellCrash> {
    let dev = &corpus.dev;
    let hints = hint_set(dev);
    let prompt_cfg = cell.prompt_config();
    let prompt_cache = PromptCache::new();
    // The injected worker panic fires while evaluating the first stolen
    // index, whichever worker steals it — schedule-independent, so the
    // crash point is deterministic under any `--jobs`.
    let inject_panic = recovery.fault_plan.as_ref().is_some_and(|plan| {
        plan.should_fault_at(FaultKind::WorkerPanic, &cell_cache_key(cell), attempt)
    });
    let crash = |payload: Box<dyn Any + Send>| CellCrash {
        label: cell.label(),
        panic: panic_text(payload),
    };
    // One worker body: steal the next index, evaluate it, repeat. A single
    // worker runs inline on the caller's thread, so `JOBS=1` spawns
    // nothing and its trace spans keep the caller's thread id.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut model = cell.model();
        let mut out = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= indices.len() {
                break;
            }
            if inject_panic && k == 0 {
                panic!("injected: worker panic in cell `{}`", cell.label());
            }
            out.push((
                k,
                eval_theorem_with_recovery(
                    dev,
                    indices[k],
                    &hints,
                    &prompt_cfg,
                    &cell.search,
                    &mut model,
                    &prompt_cache,
                    recovery,
                ),
            ));
        }
        out
    };
    let workers = jobs.min(indices.len());
    let joined: Vec<std::thread::Result<Vec<(usize, TheoremOutcome)>>> = if workers <= 1 {
        vec![std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            worker,
        ))]
    } else {
        // Each worker's spans nest under the caller's open span (the
        // cell), and the caller books its join as `wait`, not as busy time.
        let parent = proof_trace::collect::current_span();
        let _wait = proof_trace::span(proof_trace::report::WAIT_PHASE, "join");
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        let _adopted = proof_trace::collect::adopt_parent(parent);
                        worker()
                    })
                })
                .collect();
            // Join every worker before deciding the cell's fate: a panic
            // in one must not leave siblings detached (that was the
            // `h.join().expect(...)` bug — the first panicking join took
            // down the whole process).
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    let mut slots: Vec<Option<TheoremOutcome>> = indices.iter().map(|_| None).collect();
    for part in joined {
        for (k, o) in part.map_err(crash)? {
            slots[k] = Some(o);
        }
    }
    Ok(slots
        .into_iter()
        .map(|o| o.expect("every stolen index produced an outcome"))
        .collect())
}

/// Runs one cell on `jobs` workers (no disk cache) under the default
/// recovery policy. Panics if the evaluation crashes.
pub fn run_cell_jobs(corpus: &Corpus, cell: &CellConfig, jobs: usize) -> CellResult {
    let indices = cell.eval_indices(&corpus.dev);
    match run_indices_checked(corpus, cell, &indices, jobs, &RecoveryConfig::default(), 0) {
        Ok(outcomes) => finish_cell(cell, outcomes),
        Err(crash) => panic!("{crash}"),
    }
}

/// How a cell's result was obtained — every path through
/// [`Runner::run_cell_checked`] lands in exactly one of these, so the
/// timing records cover computed, cached, resumed, *and* crashed cells
/// consistently (crashed cells used to silently skip timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Evaluated on the pool this run.
    Computed,
    /// Served from the content-hashed disk cache.
    CacheHit,
    /// Served from the crash-safe journal on a resumed run.
    Journal,
    /// The evaluation panicked; the wall time covers work up to the crash.
    Crashed,
}

impl CellSource {
    /// The `outcome` string recorded in [`CellBench`].
    pub fn label(self) -> &'static str {
        match self {
            CellSource::Computed => "computed",
            CellSource::CacheHit => "cache_hit",
            CellSource::Journal => "journal",
            CellSource::Crashed => "crashed",
        }
    }
}

/// Per-cell timing record, kept in memory by the [`Runner`]; the bench
/// bins aggregate a run's records into one run-ledger line.
#[derive(Debug, Clone)]
pub struct CellBench {
    /// Cell display label.
    pub label: String,
    /// Number of theorems evaluated (or loaded).
    pub theorems: usize,
    /// Wall-clock milliseconds for this cell.
    pub wall_ms: f64,
    /// Theorems per second.
    pub thm_per_sec: f64,
    /// Worker count used.
    pub jobs: usize,
    /// True when the cell was served from the disk cache or the journal.
    pub cache_hit: bool,
    /// How the result was obtained ([`CellSource::label`]).
    pub outcome: String,
    /// Experiment-variant tag ([`CellConfig::variant`]). Disambiguates
    /// A/B records that would otherwise share a label. Empty for standard
    /// cells.
    pub variant: String,
}

impl CellBench {
    /// The record for `theorems` evaluations obtained via `source` in
    /// `wall_ms` on `jobs` workers.
    pub fn new(
        label: String,
        theorems: usize,
        wall_ms: f64,
        jobs: usize,
        source: CellSource,
        variant: String,
    ) -> CellBench {
        CellBench {
            label,
            theorems,
            wall_ms,
            thm_per_sec: if wall_ms > 0.0 {
                theorems as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            jobs,
            cache_hit: matches!(source, CellSource::CacheHit | CellSource::Journal),
            outcome: source.label().to_string(),
            variant,
        }
    }
}

/// The evaluation engine: a work-stealing pool plus the on-disk cell cache
/// and in-memory timing records. Every bench binary funnels its cells
/// through one of these.
pub struct Runner {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    bench: Mutex<Vec<CellBench>>,
    recovery: RecoveryConfig,
    journal: Option<Journal>,
}

impl Runner {
    /// A runner with the environment-resolved worker count and the default
    /// cache directory.
    pub fn from_env() -> Runner {
        Runner {
            jobs: resolve_jobs(),
            cache_dir: Some(default_cache_dir()),
            bench: Mutex::new(Vec::new()),
            recovery: RecoveryConfig::default(),
            journal: None,
        }
    }

    /// Overrides the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Runner {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the cache directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Runner {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disables the disk cache (always recompute).
    pub fn without_cache(mut self) -> Runner {
        self.cache_dir = None;
        self
    }

    /// Overrides the oracle-recovery policy (retry counts, backoff).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Runner {
        self.recovery = recovery;
        self
    }

    /// Arms a fault plan: oracle faults, spurious STM timeouts, worker
    /// panics and cache corruption are injected per the plan's seeded
    /// rates. Recovery (retry/backoff, panic isolation, checksummed
    /// cache) keeps every *recoverable* fault invisible in the results.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Runner {
        self.recovery.fault_plan = Some(plan);
        self
    }

    /// Attaches a crash-safe progress journal: completed cells are
    /// appended as JSONL and served from the journal on a `--resume` run
    /// instead of being re-evaluated.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Runner {
        self.journal = Some(Journal::at(path.into()));
        self
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.recovery.fault_plan.as_ref()
    }

    /// Runs (or loads) one cell: consult the content-hashed cache, else
    /// evaluate on the pool and populate it. Records a timing entry either
    /// way. Panics if the cell evaluation panics; fault-aware callers
    /// want [`Runner::run_cell_checked`].
    pub fn run_cell(&self, corpus: &Corpus, cell: &CellConfig) -> CellResult {
        match self.run_cell_checked(corpus, cell) {
            Ok(result) => result,
            Err(crash) => panic!("{crash}"),
        }
    }

    /// As [`Runner::run_cell`], with cell-level panic isolation: a
    /// poisoned cell comes back as `Err(CellCrash)` and every other
    /// cell's outcome survives. With a journal attached, completed cells
    /// are served from it (resume), a `start` entry precedes the work and
    /// a `done`/`crashed` entry follows it, so a run killed at any point
    /// resumes without repeating finished cells.
    pub fn run_cell_checked(
        &self,
        corpus: &Corpus,
        cell: &CellConfig,
    ) -> Result<CellResult, CellCrash> {
        let label = cell.label();
        let mut sw = proof_trace::Stopwatch::span("cell", &label);
        let key = cell_cache_key(cell);
        let journal_state = {
            let _sp = proof_trace::span("journal", "load");
            self.journal.as_ref().map(|j| j.load())
        };
        if let Some(state) = &journal_state {
            if let Some(done) = state.done.get(&key) {
                proof_trace::event("journal", "hit");
                sw.span_mut().field_str("source", "journal");
                self.record(
                    cell,
                    done.outcomes.len(),
                    sw.elapsed_ms(),
                    CellSource::Journal,
                );
                return Ok(done.clone());
            }
        }
        if let Some(path) = self.cache_path(cell) {
            let hit = {
                let _sp = proof_trace::span("cache", "load");
                load_envelope::<CellResult>(&path)
            };
            if let Some(hit) = hit {
                proof_trace::event("cache", "hit");
                if let Some(journal) = &self.journal {
                    let _sp = proof_trace::span("journal", "done");
                    journal.record_done(&key, &hit);
                }
                sw.span_mut().field_str("source", "cache");
                self.record(
                    cell,
                    hit.outcomes.len(),
                    sw.elapsed_ms(),
                    CellSource::CacheHit,
                );
                return Ok(hit);
            }
            proof_trace::event("cache", "miss");
        }
        let attempt = journal_state
            .as_ref()
            .map(|s| s.attempts_of(&key))
            .unwrap_or(0);
        if let Some(journal) = &self.journal {
            let _sp = proof_trace::span("journal", "start");
            journal.record_start(&key, &label);
        }
        let indices = cell.eval_indices(&corpus.dev);
        match run_indices_checked(corpus, cell, &indices, self.jobs, &self.recovery, attempt) {
            Ok(outcomes) => {
                let result = finish_cell(cell, outcomes);
                if let Some(path) = self.cache_path(cell) {
                    let _sp = proof_trace::span("cache", "store");
                    store_envelope(&path, &result);
                    self.maybe_corrupt_cache(&path, &key);
                }
                if let Some(journal) = &self.journal {
                    let _sp = proof_trace::span("journal", "done");
                    journal.record_done(&key, &result);
                }
                sw.span_mut().field_str("source", "computed");
                self.record(
                    cell,
                    result.outcomes.len(),
                    sw.elapsed_ms(),
                    CellSource::Computed,
                );
                Ok(result)
            }
            Err(crash) => {
                if let Some(journal) = &self.journal {
                    let _sp = proof_trace::span("journal", "crashed");
                    journal.record_crashed(&key, &crash.label, &crash.panic);
                }
                sw.span_mut().field_str("source", "crashed");
                self.record(cell, 0, sw.elapsed_ms(), CellSource::Crashed);
                Err(crash)
            }
        }
    }

    /// Injected cache corruption: truncate the just-written cell file in
    /// half, simulating a torn write. The schema-3 checksum envelope
    /// detects it on the next load and recomputes — the corruption is
    /// observable only as a cache miss.
    fn maybe_corrupt_cache(&self, path: &Path, key: &str) {
        let Some(plan) = &self.recovery.fault_plan else {
            return;
        };
        if !plan.should_fault(FaultKind::CacheCorrupt, key) {
            return;
        }
        if let Ok(bytes) = std::fs::read(path) {
            let half = bytes.len() / 2;
            let _ = std::fs::write(path, &bytes[..half]);
        }
    }

    fn cache_path(&self, cell: &CellConfig) -> Option<PathBuf> {
        self.cache_dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", cell_cache_key(cell))))
    }

    fn record(&self, cell: &CellConfig, theorems: usize, wall_ms: f64, source: CellSource) {
        proof_oracle::lock_recover(&self.bench).push(CellBench::new(
            cell.label(),
            theorems,
            wall_ms,
            self.jobs,
            source,
            cell.variant.clone().unwrap_or_default(),
        ));
    }

    /// The timing records accumulated so far.
    pub fn bench_records(&self) -> Vec<CellBench> {
        proof_oracle::lock_recover(&self.bench).clone()
    }
}

/// Loads a checksummed cache envelope, verifying schema and payload
/// digest. Any defect — unreadable file, wrong schema, torn payload,
/// checksum mismatch — reads as a cache miss, never an error: the entry
/// simply recomputes, and determinism makes the recomputed value
/// identical. Shared by the per-cell cache and the cone-keyed
/// per-theorem cache ([`crate::incremental`]).
pub fn load_envelope<T: Deserialize>(path: &Path) -> Option<T> {
    let text = std::fs::read_to_string(path).ok()?;
    let record = Record::open(&text)?;
    if record.get("schema").and_then(serde_json::Value::as_i64) != Some(CACHE_SCHEMA.into()) {
        return None;
    }
    serde_json::from_str(record.payload()?).ok()
}

/// Writes `value` inside the checksummed envelope. Best-effort: a failed
/// write only costs a recompute next run.
pub fn store_envelope<T: Serialize>(path: &Path, value: &T) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let Ok(payload) = serde_json::to_string(value) else {
        return;
    };
    let _ = std::fs::write(
        path,
        seal(&[("schema", CACHE_SCHEMA.to_string())], &payload),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_oracle::profiles::ModelProfile;
    use proof_oracle::prompt::PromptSetting;

    #[test]
    fn jobs_flag_parsing() {
        let v = |xs: &[&str]| jobs_arg(xs.iter().map(|s| s.to_string()));
        assert_eq!(v(&["--jobs", "4"]), Some(4));
        assert_eq!(v(&["--fresh", "--jobs=2"]), Some(2));
        assert_eq!(v(&["--jobs"]), None);
        assert_eq!(v(&["--jobs", "xyz"]), None);
        assert_eq!(v(&["--fresh"]), None);
        assert_eq!(v(&["--jobsx=2"]), None);
    }

    #[test]
    fn cache_key_separates_configurations() {
        let base = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
        let mut other = base.clone();
        other.search.query_limit += 1;
        assert_ne!(cell_cache_key(&base), cell_cache_key(&other));
        let mut tuned = base.clone();
        tuned.tuning.noise_mult += 0.01;
        assert_ne!(cell_cache_key(&base), cell_cache_key(&tuned));
        assert_eq!(cell_cache_key(&base), cell_cache_key(&base.clone()));
    }
}

//! The parallel, cache-aware evaluation engine.
//!
//! A cell's theorems are independent: the simulator's randomness is a pure
//! hash of (model, theorem, query, candidate) and every worker holds its
//! own [`SimulatedModel`](proof_oracle::SimulatedModel) clone and an
//! [`Arc`]-shared environment snapshot, so evaluating them on a
//! work-stealing pool is *bit-identical* to one worker's inline loop
//! (enforced by `tests/runner_tests.rs`). On top of the pool sits a content-hashed
//! on-disk cell cache: a completed [`CellResult`] is stored under
//! `target/cells/<hash>.json`, keyed by every input that affects the
//! outcomes (profile, setting, scope, search configuration, tuning,
//! retrieval, and the content of the corpus it ran on; [`store_key`]), so
//! re-running a bench binary with an unchanged configuration and corpus
//! loads instead of recomputing — and *changing* any knob or proof
//! changes the hash, which is the cache-invalidation story.
//!
//! The cell cache is also what a crashed grid resumes from: every
//! finished cell is stored as it completes, and a cell whose evaluation
//! crashed leaves a sealed `<hash>.crashed` record of how many times it
//! did, which the worker-panic fault site reads
//! ([`FaultPlan::should_fault_at`]). A [`Runner::fresh`] runner serves
//! nothing written before it but still writes both, so the same command
//! without `--fresh` finishes a crashed fresh run.
//!
//! A grid is one [`Runner::run_cells`] call over its (corpus, cell)
//! pairs. The runner keeps no state between calls: each cell's
//! [`CellSource`] and wall time come back with its result.
//!
//! Worker count: a bin's parsed `--jobs N`, applied with
//! [`Runner::with_jobs`], beats a `JOBS=N` environment variable beats
//! [`std::thread::available_parallelism`].

use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fscq_corpus::Corpus;
use minicoq::replay::replay_script;
use minicoq_vernac::Development;
use proof_chaos::{FaultKind, FaultPlan};
use proof_oracle::prompt::PromptCache;
use proof_oracle::split::hint_set;
use proof_search::RecoveryConfig;
use proof_trace::attempts::{AttemptLog, AttemptRecord};
use proof_trace::envelope::{fnv1a, seal, Record};
use serde::{Deserialize, Serialize};

use crate::experiment::{
    eval_theorem_with_recovery, finish_cell, CellConfig, CellResult, TheoremOutcome,
};

/// Bump when the cached [`CellResult`] layout or the evaluation semantics
/// change; old cache files then simply stop matching. Schema 3 wraps the
/// result in a checksummed envelope so torn writes are detected on load.
/// Schema 5 follows `SearchConfig::premise_rank` becoming a three-arm
/// enum (its `Debug` form feeds the key).
const CACHE_SCHEMA: u32 = 5;

/// The content hash a cell caches under: FNV-1a over a stable rendering of
/// every outcome-affecting field, plus the schema version.
pub fn cell_cache_key(cell: &CellConfig) -> String {
    // `Debug` of the config is a stable function of its fields (floats
    // render shortest-roundtrip), which is exactly the keying we want.
    let repr = format!("v{CACHE_SCHEMA}:{cell:?}");
    format!("{:016x}", fnv1a(repr.as_bytes()))
}

/// The key a cell's result is stored under, as its cache file name and in
/// a call's own record of its cells: FNV-1a over [`cell_cache_key`] and the content
/// hash of the development the cell runs on, so a result is served only
/// for the corpus that produced it. The cone cache, `prove`'s saved
/// `cell_key.txt` and the worker-panic fault site key on
/// [`cell_cache_key`] alone, which a corpus edit leaves unchanged.
pub fn store_key(corpus: &Corpus, cell: &CellConfig) -> String {
    let repr = format!(
        "{}:{:016x}",
        cell_cache_key(cell),
        corpus.dev.content_hash()
    );
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

/// Replays every proved outcome's script in the kernel against the
/// environment its theorem was stated in. The first outcome that names no
/// theorem of `dev`, or whose script does not reach `Qed`, becomes a crash
/// of `cell` naming the theorem.
pub(crate) fn replay_proved(
    dev: &Development,
    cell: &CellConfig,
    outcomes: &[TheoremOutcome],
) -> Result<(), CellCrash> {
    // Stepping every proved script through the kernel is STM work.
    let _sp = proof_trace::span("stm", "replay");
    for o in outcomes.iter().filter(|o| o.outcome == "proved") {
        let failure = match dev
            .theorems
            .iter()
            .find(|t| t.name == o.name && t.file == o.file)
        {
            None => "is not in the corpus".to_string(),
            Some(thm) => match replay_script(
                dev.env_before(thm),
                &thm.stmt,
                o.script.as_deref().unwrap_or(""),
            ) {
                Ok(_) => continue,
                Err(e) => format!("has a proved script that fails kernel replay: {e}"),
            },
        };
        return Err(CellCrash {
            label: cell.label(),
            panic: format!("theorem `{}` ({}) {failure}", o.name, o.file),
        });
    }
    Ok(())
}

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

/// How a cell's result was obtained: every cell [`Runner::run_cells`]
/// serves lands in exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Evaluated on the pool this run.
    Computed,
    /// Served from the content-hashed disk cache.
    CacheHit,
    /// A key that appeared earlier in the same cell list, served from
    /// that cell's result.
    Repeat,
    /// The evaluation panicked, or a proved script it reported failed
    /// kernel replay; the wall time covers work up to the crash.
    Crashed,
}

impl CellSource {
    /// The `source` field of the cell's trace span.
    pub fn label(self) -> &'static str {
        match self {
            CellSource::Computed => "computed",
            CellSource::CacheHit => "cache_hit",
            CellSource::Repeat => "repeat",
            CellSource::Crashed => "crashed",
        }
    }
}

/// One cell as [`Runner::run_cells`] served it: the result and its
/// provenance.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's result, or its crash.
    pub result: Result<CellResult, CellCrash>,
    /// Where the result came from.
    pub source: CellSource,
    /// Wall-clock milliseconds spent obtaining it.
    pub wall_ms: f64,
}

/// The evaluation engine: a work-stealing pool plus the on-disk cell
/// cache. It keeps no state between calls, so every evaluation of a cell,
/// or of a slice of one ([`crate::incremental`]), runs through one of
/// these and the caller gets each cell's provenance back with its result.
pub struct Runner {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    recovery: RecoveryConfig,
    fresh: bool,
    attempt_log: Option<AttemptLog>,
}

impl Runner {
    /// A runner with `JOBS` workers (else the machine's available
    /// parallelism) and the default cache directory, `target/cells`.
    pub fn from_env() -> Runner {
        let jobs = std::env::var("JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Runner {
            jobs: jobs.max(1),
            cache_dir: Some(PathBuf::from("target/cells")),
            recovery: RecoveryConfig::default(),
            fresh: false,
            attempt_log: None,
        }
    }

    /// Overrides the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Runner {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the cache directory. The cone-keyed per-theorem cache of
    /// [`crate::incremental`] lives in its `cones` subdirectory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Runner {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disables the disk caches, cell and cone alike (always recompute).
    pub fn without_cache(mut self) -> Runner {
        self.cache_dir = None;
        self
    }

    /// Serves nothing the caches held before this runner, cell files,
    /// crash records and cone entries alike, but still writes every
    /// finished cell and crash: `--fresh`.
    pub fn fresh(mut self) -> Runner {
        self.fresh = true;
        self
    }

    /// Overrides the oracle-recovery policy (retry count, attempt collection).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Runner {
        self.recovery = recovery;
        self
    }

    /// Arms a fault plan: oracle faults, spurious STM timeouts, worker
    /// panics and cache corruption are injected per the plan's seeded
    /// rates. Recovery (retry, panic isolation, checksummed
    /// cache) keeps every *recoverable* fault invisible in the results.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Runner {
        self.recovery.fault_plan = Some(plan);
        self
    }

    /// Returns the runner unchanged. Kept only because the benchmark
    /// package calls it; goes with ROADMAP item 1.
    pub fn with_journal(self, _path: impl Into<PathBuf>) -> Runner {
        self
    }

    /// Appends every evaluated theorem's per-proposal attempt records to
    /// the JSONL log at `path` (the raw material `rank` mines), in the
    /// order of the evaluated indices once the cell is evaluated, so the
    /// log is the same at any worker count. Cells served from the cache
    /// or repeated in a call run no search and add nothing, and neither
    /// does a crashed cell. A side channel: outcomes and cache contents are
    /// byte-identical with the log on or off.
    pub fn with_attempt_log(mut self, path: impl Into<PathBuf>) -> Runner {
        self.attempt_log = Some(AttemptLog::at(path));
        self
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Always `None`. Kept only because the benchmark package calls it;
    /// goes with ROADMAP item 1.
    pub fn journal(&self) -> Option<&Journal> {
        None
    }

    /// Runs (or loads) a grid: each `(corpus, cell)` in list order comes
    /// from an earlier cell of this call with the same [`store_key`], else
    /// the content-hashed cache, else an evaluation on the pool that
    /// stores the result in the cache, or the crash count in the cell's
    /// crash record.
    ///
    /// Every proved script is replayed in the kernel, against the
    /// environment its theorem was stated in, before its cell is reported,
    /// whatever the cell's source: a script that fails turns the cell into
    /// a [`CellCrash`] naming the theorem.
    ///
    /// Each cell has panic isolation: a poisoned cell comes back as
    /// `Err(CellCrash)` and every other cell's outcome survives. Each
    /// finished cell is stored as it completes, so a run killed at any
    /// point resumes from the cache without repeating finished cells.
    pub fn run_cells(&self, cells: &[(&Corpus, &CellConfig)]) -> Vec<CellRun> {
        // This call's cells by store key: the result, or how many times
        // its evaluation crashed.
        let mut seen = HashMap::new();
        cells
            .iter()
            .map(|&(corpus, cell)| {
                let mut sw = proof_trace::Stopwatch::span("cell", &cell.label());
                let (source, result) = match self.obtain(corpus, cell, &mut seen) {
                    (source, Ok(result)) => {
                        match replay_proved(&corpus.dev, cell, &result.outcomes) {
                            Ok(()) => (source, Ok(result)),
                            Err(crash) => (CellSource::Crashed, Err(crash)),
                        }
                    }
                    crashed => crashed,
                };
                sw.span_mut().field_str("source", source.label());
                CellRun {
                    result,
                    source,
                    wall_ms: sw.elapsed_ms(),
                }
            })
            .collect()
    }

    /// [`Runner::run_cells`] for one cell.
    pub fn run_cell_checked(
        &self,
        corpus: &Corpus,
        cell: &CellConfig,
    ) -> Result<CellResult, CellCrash> {
        self.run_cells(&[(corpus, cell)])
            .pop()
            .expect("one cell in, one run out")
            .result
    }

    /// The cell's result and where it came from: this call's `seen`, the
    /// cache, or an evaluation on the pool, keeping `seen` and the cache
    /// up to date on the way.
    fn obtain(
        &self,
        corpus: &Corpus,
        cell: &CellConfig,
        seen: &mut HashMap<String, Result<CellResult, u32>>,
    ) -> (CellSource, Result<CellResult, CellCrash>) {
        let key = store_key(corpus, cell);
        let crashed_here = match seen.get(&key) {
            Some(Ok(done)) => return (CellSource::Repeat, Ok(done.clone())),
            Some(Err(crashes)) => Some(*crashes),
            None => None,
        };
        let path = |ext: &str| {
            self.cache_dir
                .as_ref()
                .map(|d| d.join(format!("{key}.{ext}")))
        };
        let (cell_path, crash_path) = (path("json"), path("crashed"));
        if let Some(hit) = self.load::<CellResult>(cell_path.as_deref()) {
            seen.insert(key, Ok(hit.clone()));
            return (CellSource::CacheHit, Ok(hit));
        }
        // The evaluations of this cell that already crashed: in this call,
        // else as its crash record counts them.
        let attempt = crashed_here
            .or_else(|| self.load(crash_path.as_deref()))
            .unwrap_or(0);
        let indices = cell.eval_indices(&corpus.dev);
        match self.run_indices(corpus, cell, &indices, attempt) {
            Ok(outcomes) => {
                let result = finish_cell(cell, outcomes);
                if let Some(path) = &cell_path {
                    let _sp = proof_trace::span("cache", "store");
                    store_envelope(path, &result);
                    self.maybe_corrupt_cache(path, &key);
                }
                seen.insert(key, Ok(result.clone()));
                (CellSource::Computed, Ok(result))
            }
            Err(crash) => {
                if let Some(path) = &crash_path {
                    let _sp = proof_trace::span("cache", "store");
                    store_envelope(path, &(attempt + 1));
                }
                seen.insert(key, Err(attempt + 1));
                (CellSource::Crashed, Err(crash))
            }
        }
    }

    /// The sealed record at `path` ([`load_envelope`]), unless this runner
    /// is [`Runner::fresh`].
    pub(crate) fn load<T: Deserialize>(&self, path: Option<&Path>) -> Option<T> {
        let path = path.filter(|_| !self.fresh)?;
        let _sp = proof_trace::span("cache", "load");
        load_envelope(path)
    }

    /// Evaluates the given theorem indices under `cell` on the runner's
    /// workers and returns the outcomes in the order of `indices` (corpus
    /// order when the caller passes a sorted eval set). Bit-identical to a
    /// serial loop. With an attempt log, appends the searches' attempt
    /// records in the same order once every index is evaluated.
    ///
    /// Runs under the runner's recovery policy and with cell-level panic
    /// isolation: a panic anywhere in the evaluation — any worker, an
    /// oracle whose faults outlasted every retry, or an injected
    /// [`FaultKind::WorkerPanic`] — is caught at the cell boundary and
    /// returned as a typed [`CellCrash`].
    ///
    /// `attempt` is how many evaluations of this cell already crashed;
    /// the worker-panic fault site is keyed on it, so a fault that fired
    /// on attempt 0 stays quiet on the rerun's attempt 1
    /// (`FaultPlan::should_fault_at`).
    pub(crate) fn run_indices(
        &self,
        corpus: &Corpus,
        cell: &CellConfig,
        indices: &[usize],
        attempt: u32,
    ) -> Result<Vec<TheoremOutcome>, CellCrash> {
        let dev = &corpus.dev;
        let hints = hint_set(dev);
        let prompt_cfg = cell.prompt_config();
        let prompt_cache = PromptCache::new();
        let attempt_log = self.attempt_log.as_ref();
        // An attempt log switches on per-proposal collection (a transport
        // knob: results are unchanged).
        let recovery = &RecoveryConfig {
            collect_attempts: self.recovery.collect_attempts || attempt_log.is_some(),
            ..self.recovery.clone()
        };
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
        // One worker body: steal the next index, evaluate it, repeat.
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
                let (outcome, records) = eval_theorem_with_recovery(
                    dev,
                    indices[k],
                    &hints,
                    &prompt_cfg,
                    &cell.search,
                    &mut model,
                    &prompt_cache,
                    recovery,
                );
                out.push((k, outcome, records));
            }
            out
        };
        // The caller is worker 0; the helpers' spans nest under the
        // caller's open span (the cell), and the caller books only its
        // join after its own share as `wait`, not as busy time.
        let helpers = self.jobs.min(indices.len()).saturating_sub(1);
        let parent = proof_trace::collect::current_span();
        let joined: Vec<std::thread::Result<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    s.spawn(move || {
                        let _adopted = proof_trace::collect::adopt_parent(parent);
                        worker()
                    })
                })
                .collect();
            let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(worker));
            let _wait =
                (helpers > 0).then(|| proof_trace::span(proof_trace::report::WAIT_PHASE, "join"));
            // Join every helper before deciding the cell's fate: a panic
            // in one must not leave its siblings detached.
            std::iter::once(own)
                .chain(handles.into_iter().map(|h| h.join()))
                .collect()
        });
        let mut slots: Vec<Option<(TheoremOutcome, Vec<AttemptRecord>)>> =
            indices.iter().map(|_| None).collect();
        for part in joined {
            for (k, outcome, records) in part.map_err(crash)? {
                slots[k] = Some((outcome, records));
            }
        }
        let (outcomes, records): (Vec<TheoremOutcome>, Vec<Vec<AttemptRecord>>) = slots
            .into_iter()
            .map(|o| o.expect("every stolen index produced an outcome"))
            .unzip();
        if let Some(log) = attempt_log {
            log.append_all(&records.concat());
        }
        Ok(outcomes)
    }

    /// The cone-keyed per-theorem cache directory of
    /// [`crate::incremental`]: `cones` under the cell cache, off with it.
    /// Read it through [`Runner::load`].
    pub(crate) fn cone_cache_dir(&self) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join("cones"))
    }

    /// Injected cache corruption: truncate the just-written cell file in
    /// half, simulating a torn write. The checksum envelope
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

/// Holds nothing. Kept only because the benchmark package names it
/// through [`Runner::journal`]; goes with ROADMAP item 1.
#[derive(Debug)]
pub struct Journal {}

impl Journal {
    /// Does nothing. Kept only because the benchmark package calls it;
    /// goes with ROADMAP item 1.
    pub fn clear(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_oracle::profiles::ModelProfile;
    use proof_oracle::prompt::PromptSetting;

    #[test]
    fn slice_evaluation_preserves_request_order() {
        let corpus = Corpus::load();
        let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
        cell.search.query_limit = 4;
        let all = cell.eval_indices(&corpus.dev);
        let slice: Vec<usize> = all.iter().rev().take(5).copied().collect();
        let outcomes = Runner::from_env()
            .with_jobs(3)
            .run_indices(&corpus, &cell, &slice, 0)
            .expect("a clean cell does not crash");
        assert_eq!(outcomes.len(), slice.len());
        for (o, &i) in outcomes.iter().zip(&slice) {
            assert_eq!(o.name, corpus.dev.theorems[i].name);
        }
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

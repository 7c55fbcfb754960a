//! Shared harness for the table/figure binaries.
//!
//! Experiments are deterministic, so cells are cached under
//! `target/cells/`, content-hashed by the runner: a changed profile or cell
//! configuration changes the key and recomputes. Grids are written as JSON
//! artifacts under `target/experiments/` but never read back. Delete the
//! cell files (or pass `--fresh`) to recompute. Cells evaluate on the
//! parallel runner; override the worker count with `--jobs N` or
//! `JOBS=N`.
//!
//! Grid runs are crash-safe: every completed cell is appended to a JSONL
//! journal under `target/experiments/`, and `--resume` replays it, so a
//! run killed mid-grid picks up where it left off instead of starting
//! over. `--fault-seed N` / `--fault-plan SPEC` arm the seeded
//! fault-injection plan (chaos testing; see `proof_chaos`) — injected
//! faults are recovered by retry, panic isolation, and the checksummed
//! cell cache, so a faulted-then-resumed grid produces byte-identical
//! results to a clean one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fscq_corpus::Corpus;
use proof_chaos::FaultPlan;
use proof_metrics::report::ResultSet;
use proof_metrics::{CellConfig, CellCrash, CellResult, CellRun, CellSource, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_trace::ledger::{Ledger, RunRecord};

pub mod rank;

/// Where cached experiment artifacts live.
pub fn artifact_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// The evaluation engine the bench binaries share: worker count from
/// `--jobs`/`JOBS`, cell cache under `target/cells/`. `fresh` disables the
/// cell cache so `--fresh` really recomputes.
pub fn runner(fresh: bool) -> Runner {
    if fresh {
        Runner::from_env().without_cache()
    } else {
        Runner::from_env()
    }
}

/// Command-line options shared by the grid-driving binaries.
#[derive(Clone, Default)]
pub struct GridOpts {
    /// `--fresh`: drop every cache level and recompute.
    pub fresh: bool,
    /// `--resume`: replay the progress journal of an interrupted run.
    pub resume: bool,
    /// `--fault-seed` / `--fault-plan`: the armed fault-injection plan.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// `--trace-out PATH`: arm the tracing layer and write the Chrome
    /// trace-event file at `PATH` with a `.json` extension.
    pub trace_out: Option<PathBuf>,
}

impl GridOpts {
    /// Parses the process arguments.
    pub fn from_env() -> GridOpts {
        GridOpts {
            fresh: fresh_flag(),
            resume: resume_flag(),
            fault_plan: proof_chaos::plan_from_env_args(),
            trace_out: trace_out_flag(),
        }
    }
}

/// The `--trace-out PATH` / `--trace-out=PATH` argument, if present.
pub fn trace_out_flag() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            if let Some(v) = args.peek() {
                return Some(PathBuf::from(v));
            }
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(v));
        }
    }
    None
}

/// Drains the collector and writes the trace file, Chrome trace-event
/// JSON with the metrics snapshot, at `base` with a `.json` extension.
/// Returns what the run ledger wants: the per-phase self time in
/// milliseconds and the spans dropped at the collector cap (empty and 0
/// when the write fails, which is reported on stderr).
pub fn write_trace_artifacts(base: &Path) -> (BTreeMap<String, f64>, u64) {
    let path = base.with_extension("json");
    let data = proof_trace::drain();
    let snap = proof_trace::metrics::snapshot();
    if let Err(e) = proof_trace::export::write_chrome(&path, &data, &snap) {
        eprintln!("trace export failed: {e}");
        return (BTreeMap::new(), 0);
    }
    eprintln!(
        "trace: {} spans ({} dropped) -> {}",
        data.spans.len(),
        data.dropped,
        path.display()
    );
    let report_spans: Vec<proof_trace::report::Span> = data.spans.iter().map(Into::into).collect();
    let bd = proof_trace::report::phase_breakdown(&report_spans);
    let phase_self_ms = bd
        .phases
        .iter()
        .map(|(phase, (ns, _))| (phase.clone(), *ns as f64 / 1e6))
        .collect();
    (phase_self_ms, data.dropped)
}

/// Aggregates a run plus context into a ledger [`RunRecord`] and appends
/// it to the fleet ledger (`telemetry/RUNS.jsonl`, or `LEDGER_PATH`).
/// Best-effort by design: telemetry must never fail a bench run.
#[derive(Default)]
pub struct LedgerRun<'a> {
    /// Bench binary name (`table2`, `incr`, …).
    pub bin: &'a str,
    /// Run label (cell lineup / subcommand).
    pub label: &'a str,
    /// Series variant tag (empty for the default lineup).
    pub variant: &'a str,
    /// Cell-level worker parallelism.
    pub jobs: usize,
    /// Cells the run obtained.
    pub cells: u64,
    /// Cells served from the cell cache or the journal.
    pub cache_hits: u64,
    /// Wall-clock milliseconds summed over the run's cells.
    pub wall_ms: f64,
    /// Theorem evaluations.
    pub theorems: u64,
    /// How many evaluations ended `proved`.
    pub proved: u64,
    /// Content hash of what was evaluated (defaults to the embedded
    /// corpus hash when empty).
    pub corpus_hash: String,
    /// Extra named counters worth trending.
    pub counters: BTreeMap<String, u64>,
    /// Per-phase self-time roll-up from [`write_trace_artifacts`].
    pub phase_self_ms: BTreeMap<String, f64>,
    /// Dropped trace records (0 when untraced).
    pub dropped_spans: u64,
}

impl LedgerRun<'_> {
    /// The cell-derived fields of a run of `runs`: cell and cache-hit
    /// counts, summed wall time, and the theorem and proved counts of the
    /// completed cells.
    pub fn of_runs(runs: &[CellRun]) -> LedgerRun<'static> {
        let outcomes = || {
            runs.iter()
                .filter_map(|r| r.result.as_ref().ok())
                .flat_map(|c| &c.outcomes)
        };
        LedgerRun {
            cells: runs.len() as u64,
            cache_hits: runs
                .iter()
                .filter(|r| matches!(r.source, CellSource::CacheHit | CellSource::Journal))
                .count() as u64,
            wall_ms: runs.iter().map(|r| r.wall_ms).sum(),
            theorems: outcomes().count() as u64,
            proved: outcomes().filter(|o| o.outcome == "proved").count() as u64,
            ..LedgerRun::default()
        }
    }
}

/// Builds the ledger record for a run. Fault/retry totals come from the
/// always-on registry counters the search layer bumps — never from
/// serialized cell results, which stay byte-identical between clean and
/// recovered runs.
pub fn ledger_record(run: &LedgerRun) -> RunRecord {
    let snap = proof_trace::metrics::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let thm_per_sec = if run.wall_ms > 0.0 {
        run.theorems as f64 * 1000.0 / run.wall_ms
    } else {
        0.0
    };
    RunRecord {
        ts_unix: proof_trace::ledger::unix_now(),
        bin: run.bin.to_string(),
        label: run.label.to_string(),
        variant: run.variant.to_string(),
        git_sha: proof_trace::ledger::git_sha(),
        corpus_hash: if run.corpus_hash.is_empty() {
            corpus_content_hash()
        } else {
            run.corpus_hash.clone()
        },
        jobs: run.jobs as u64,
        theorems: run.theorems,
        proved: run.proved,
        wall_ms: run.wall_ms,
        thm_per_sec,
        cache_hits: run.cache_hits,
        cache_misses: run.cells - run.cache_hits,
        oracle_faults: counter("search.oracle_faults"),
        oracle_retries: counter("search.oracle_retries"),
        dropped_spans: run.dropped_spans,
        counters: run.counters.clone(),
        phase_self_ms: run.phase_self_ms.clone(),
    }
}

/// Appends `run` to the fleet ledger; returns the ledger path on
/// success.
pub fn ledger_append(run: &LedgerRun) -> Option<PathBuf> {
    let ledger = Ledger::from_env();
    let record = ledger_record(run);
    if ledger.append(&record) {
        Some(ledger.path().to_path_buf())
    } else {
        None
    }
}

/// FNV-1a over every embedded corpus source, formatted like the ledger's
/// other hashes. Pins "what was evaluated" for cross-run comparability.
pub fn corpus_content_hash() -> String {
    let mut text = String::new();
    for (name, src) in fscq_corpus::corpus_sources() {
        text.push_str(name);
        text.push('\0');
        text.push_str(src);
        text.push('\0');
    }
    format!("{:016x}", proof_trace::envelope::fnv1a(text.as_bytes()))
}

/// Appends the ledger record of a run whose cells `runs` all went
/// through `runner`, after writing its trace artifacts when `trace_out` is
/// set. The bin name is the running binary's.
pub fn ledger_append_cells(
    label: &str,
    runner: &Runner,
    runs: &[CellRun],
    counters: BTreeMap<String, u64>,
    trace_out: Option<&Path>,
) {
    let (phase_self_ms, dropped_spans) = trace_out.map(write_trace_artifacts).unwrap_or_default();
    if let Some(ledger_path) = ledger_append(&LedgerRun {
        bin: &bin_name(),
        label,
        jobs: runner.jobs(),
        counters,
        phase_self_ms,
        dropped_spans,
        ..LedgerRun::of_runs(runs)
    }) {
        eprintln!("ledger: appended run to {}", ledger_path.display());
    }
}

/// The current binary's file stem (`table2`, `preflight`, …) for ledger
/// attribution.
pub fn bin_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs `cells` over one corpus as a single [`Runner::run_cells`] grid.
pub fn run_grid(runner: &Runner, corpus: &Corpus, cells: &[CellConfig]) -> Vec<CellRun> {
    let pairs: Vec<(&Corpus, &CellConfig)> = cells.iter().map(|c| (corpus, c)).collect();
    runner.run_cells(&pairs)
}

/// The results of `runs`, in order, for the bins that have no resume
/// path: a crashed cell panics with its crash.
pub fn completed(runs: &[CellRun]) -> Vec<&CellResult> {
    runs.iter()
        .map(|r| r.result.as_ref().unwrap_or_else(|crash| panic!("{crash}")))
        .collect()
}

/// Runs the main experiment grid, the five model configurations of
/// Table 2 each in the vanilla and hint settings, with full crash-safety
/// plumbing: journaled progress, `--resume` replay, and optional fault
/// injection. Each cell comes from the cell cache when its key matches;
/// the grid is written to `target/experiments/main_grid.json` as an
/// artifact, never read back. If any cell crashes (injected or real), the
/// completed cells stay journaled and the process exits with status 2
/// after advising a `--resume` run.
pub fn main_grid_opts(opts: &GridOpts) -> ResultSet {
    if opts.trace_out.is_some() {
        proof_trace::set_enabled(true);
    }
    let journal_path = artifact_dir().join("main_grid.journal.jsonl");
    let mut runner = runner(opts.fresh).with_journal(&journal_path);
    if !opts.resume {
        // A fresh (non-resume) run starts a fresh journal; stale entries
        // from an older configuration would otherwise mask real work.
        if let Some(journal) = runner.journal() {
            journal.clear();
        }
    }
    if let Some(plan) = &opts.fault_plan {
        eprintln!("fault injection armed: {:?}", plan.config());
        runner = runner.with_fault_plan(Arc::clone(plan));
    }
    let cells: Vec<CellConfig> = ModelProfile::all_five()
        .into_iter()
        .flat_map(|profile| {
            [PromptSetting::Vanilla, PromptSetting::Hints]
                .map(|setting| CellConfig::standard(profile.clone(), setting))
        })
        .collect();
    eprintln!("running {} cells ({} jobs)", cells.len(), runner.jobs());
    let runs = run_grid(&runner, &Corpus::load(), &cells);
    let crashes: Vec<&CellCrash> = runs
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .collect();
    if !crashes.is_empty() {
        for crash in &crashes {
            eprintln!("{crash}");
        }
        eprintln!(
            "{} cell(s) crashed; completed cells are journaled at {} — re-run with --resume to finish without repeating them",
            crashes.len(),
            journal_path.display()
        );
        std::process::exit(2);
    }
    ledger_append_cells(
        "main-grid",
        &runner,
        &runs,
        BTreeMap::new(),
        opts.trace_out.as_deref(),
    );
    let rs = ResultSet {
        cells: runs.into_iter().filter_map(|r| r.result.ok()).collect(),
    };
    let _ = std::fs::create_dir_all(artifact_dir());
    let _ = std::fs::write(artifact_dir().join("main_grid.json"), rs.to_json());
    rs
}

/// The argument after the first `name` on the command line, if any.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when `name` was passed on the command line.
pub fn flag_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// True when `--fresh` was passed on the command line.
pub fn fresh_flag() -> bool {
    flag_present("--fresh")
}

/// True when `--resume` was passed on the command line.
pub fn resume_flag() -> bool {
    flag_present("--resume")
}

//! Shared harness for the table/figure binaries.
//!
//! Experiments are deterministic, so results are cached at two levels:
//! whole grids as JSON under `target/experiments/`, and individual cells
//! under `target/cells/` (content-hashed by the runner). Delete the files
//! (or pass `--fresh`) to recompute. Cells evaluate on the parallel runner;
//! override the worker count with `--jobs N` or `JOBS=N`.
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
use proof_metrics::runner::CellBench;
use proof_metrics::{CellConfig, Runner};
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
    /// `--trace-out PATH`: arm the tracing layer and write a Chrome
    /// trace-event JSON at `PATH` plus a JSONL event stream next to it.
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

    /// True when fault injection is armed (grid-level JSON caching is
    /// disabled then: a cached grid would bypass the faulted paths the
    /// run is supposed to exercise).
    pub fn chaotic(&self) -> bool {
        self.fault_plan.is_some()
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

/// Drains the collector and writes both trace artifacts: Chrome
/// trace-event JSON at `base` with a `.json` extension and the JSONL
/// event stream beside it with `.jsonl`. Returns what the run ledger
/// wants: the per-phase self time in milliseconds and
/// the records dropped at the collector cap (empty and 0 when the write
/// fails, which is reported on stderr).
pub fn write_trace_artifacts(base: &Path) -> (BTreeMap<String, f64>, u64) {
    let chrome = base.with_extension("json");
    let jsonl = base.with_extension("jsonl");
    let data = proof_trace::drain();
    let snap = proof_trace::metrics::snapshot();
    if let Err(e) = proof_trace::export::write_chrome(&chrome, &data)
        .and_then(|()| proof_trace::export::write_jsonl(&jsonl, &data, &snap))
    {
        eprintln!("trace export failed: {e}");
        return (BTreeMap::new(), 0);
    }
    eprintln!(
        "trace: {} spans, {} events ({} dropped) -> {} + {}",
        data.spans.len(),
        data.events.len(),
        data.dropped,
        chrome.display(),
        jsonl.display()
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

/// Aggregates a run's cell records plus context into a ledger
/// [`RunRecord`] and appends it to the fleet ledger
/// (`telemetry/RUNS.jsonl`, or `LEDGER_PATH`). Best-effort by design:
/// telemetry must never fail a bench run.
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
    /// Per-cell bench records for wall/cache aggregation.
    pub records: &'a [CellBench],
    /// Theorem evaluations (overrides the record sum when `Some`, for
    /// bins whose records double-count replays).
    pub theorems: Option<u64>,
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

/// Builds the ledger record for a run. Fault/retry totals come from the
/// always-on registry counters the search layer bumps — never from
/// serialized cell results, which stay byte-identical between clean and
/// recovered runs.
pub fn ledger_record(run: &LedgerRun) -> RunRecord {
    let snap = proof_trace::metrics::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let theorems_sum: u64 = run.records.iter().map(|r| r.theorems as u64).sum();
    let wall_ms: f64 = run.records.iter().map(|r| r.wall_ms).sum();
    let theorems = run.theorems.unwrap_or(theorems_sum);
    let thm_per_sec = if wall_ms > 0.0 {
        theorems as f64 * 1000.0 / wall_ms
    } else {
        0.0
    };
    let cache_hits = run.records.iter().filter(|r| r.cache_hit).count() as u64;
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
        theorems,
        proved: run.proved,
        wall_ms,
        thm_per_sec,
        cache_hits,
        cache_misses: run.records.len() as u64 - cache_hits,
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

/// Appends the ledger record of a run whose cells all went through
/// `runner` and whose results are `rs`, after writing its trace artifacts
/// when `trace_out` is set. The bin name is the running binary's.
pub fn ledger_append_cells(
    label: &str,
    runner: &Runner,
    rs: &ResultSet,
    counters: BTreeMap<String, u64>,
    trace_out: Option<&Path>,
) {
    let (phase_self_ms, dropped_spans) = trace_out.map(write_trace_artifacts).unwrap_or_default();
    let records = runner.bench_records();
    if let Some(ledger_path) = ledger_append(&LedgerRun {
        bin: &bin_name(),
        label,
        jobs: runner.jobs(),
        records: &records,
        theorems: Some(outcomes_in(rs)),
        proved: proved_in(rs),
        counters,
        phase_self_ms,
        dropped_spans,
        ..LedgerRun::default()
    }) {
        eprintln!("ledger: appended run to {}", ledger_path.display());
    }
}

/// Counts `proved` outcomes across a result set.
pub fn proved_in(rs: &ResultSet) -> u64 {
    rs.cells
        .iter()
        .flat_map(|c| c.outcomes.iter())
        .filter(|o| o.outcome == "proved")
        .count() as u64
}

/// Total outcomes across a result set.
pub fn outcomes_in(rs: &ResultSet) -> u64 {
    rs.cells.iter().map(|c| c.outcomes.len() as u64).sum()
}

/// The current binary's file stem (`table2`, `preflight`, …) for ledger
/// attribution.
pub fn bin_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs (or loads) the main experiment grid: the five model configurations
/// of Table 2, each in the vanilla and hint settings.
pub fn main_grid(fresh: bool) -> ResultSet {
    main_grid_opts(&GridOpts {
        fresh,
        ..GridOpts::default()
    })
}

/// [`main_grid`] with full crash-safety plumbing: journaled progress,
/// `--resume` replay, and optional fault injection. If any cell crashes
/// (injected or real), the completed cells stay journaled and the process
/// exits with status 2 after advising a `--resume` run.
pub fn main_grid_opts(opts: &GridOpts) -> ResultSet {
    if opts.trace_out.is_some() {
        proof_trace::set_enabled(true);
    }
    let path = artifact_dir().join("main_grid.json");
    // A traced run also skips the grid-level JSON shortcut: serving the
    // whole grid from one file would record an empty trace.
    if !opts.fresh && !opts.resume && !opts.chaotic() && opts.trace_out.is_none() {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(rs) = ResultSet::from_json(&text) {
                return rs;
            }
        }
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
    let corpus = Corpus::load();
    let mut rs = ResultSet::default();
    let mut crashes = Vec::new();
    for profile in ModelProfile::all_five() {
        for setting in [PromptSetting::Vanilla, PromptSetting::Hints] {
            let cell = CellConfig::standard(profile.clone(), setting);
            eprintln!("running cell: {} ({} jobs)", cell.label(), runner.jobs());
            match runner.run_cell_checked(&corpus, &cell) {
                Ok(result) => rs.cells.push(result),
                Err(crash) => {
                    eprintln!("{crash}");
                    crashes.push(crash);
                }
            }
        }
    }
    if !crashes.is_empty() {
        eprintln!(
            "{} cell(s) crashed; completed cells are journaled at {} — re-run with --resume to finish without repeating them",
            crashes.len(),
            journal_path.display()
        );
        std::process::exit(2);
    }
    let _ = std::fs::create_dir_all(artifact_dir());
    let _ = std::fs::write(&path, rs.to_json());
    ledger_append_cells(
        "main-grid",
        &runner,
        &rs,
        BTreeMap::new(),
        opts.trace_out.as_deref(),
    );
    rs
}

/// True when `--fresh` was passed on the command line.
pub fn fresh_flag() -> bool {
    std::env::args().any(|a| a == "--fresh")
}

/// True when `--resume` was passed on the command line.
pub fn resume_flag() -> bool {
    std::env::args().any(|a| a == "--resume")
}

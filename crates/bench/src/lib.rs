//! Shared harness for the table/figure binaries.
//!
//! Experiments are deterministic, so cells are cached under
//! `target/cells/`, content-hashed by the runner: a changed profile or cell
//! configuration changes the key and recomputes. Grids are written as JSON
//! artifacts under `target/experiments/` but never read back. Delete the
//! cell files (or pass `--fresh`) to recompute. Cells evaluate on the
//! parallel runner; override the worker count with `--jobs N` or
//! `JOBS=N`. [`GridOpts`] is the group of flags the grid bins share;
//! each bin declares the ones it honours.
//!
//! Grids are crash-safe: every finished cell is stored in the cell cache
//! as it completes, `--fresh` included, so a run killed mid-grid picks up
//! where it left off when the same command runs again without `--fresh`.
//! `--fault-seed N` / `--fault-plan SPEC` arm the seeded fault-injection
//! plan (chaos testing; see `proof_chaos`) — injected faults are
//! recovered by retry, panic isolation, and the checksummed cell cache,
//! so a faulted-then-rerun grid produces byte-identical results to a
//! clean one. A main-grid run in which a cell crashed exits with status
//! [`EXIT_RESUMABLE`] (3), apart from the usage-error status 2, so a
//! script can tell a bad command line from a run to repeat.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fscq_corpus::Corpus;
use proof_chaos::cli::{Args, Cli, Flag};
use proof_chaos::{plan_from_flags, FaultPlan};
use proof_metrics::report::ResultSet;
use proof_metrics::{CellConfig, CellCrash, CellResult, CellRun, CellSource, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_trace::ledger::{Ledger, RunRecord};

pub mod rank;

/// The exit status of a main-grid run in which a cell crashed: its
/// completed cells are cached and a rerun without `--fresh` finishes the
/// grid.
pub const EXIT_RESUMABLE: i32 = 3;

/// Where cached experiment artifacts live.
pub fn artifact_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// The options the grid-driving binaries share. A bin declares the ones
/// it honours ([`GridOpts::ALL`] or [`GridOpts::flags`]); the rest read as
/// unset.
#[derive(Clone, Default)]
pub struct GridOpts {
    /// `--fresh`: serve nothing cached before this run; still cache
    /// every finished cell.
    pub fresh: bool,
    /// `--jobs N`: the worker count, over `JOBS` and the core count.
    pub jobs: Option<usize>,
    /// `--fault-seed` / `--fault-plan`: the armed fault-injection plan.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// `--trace-out BASE`: arm the tracing layer and write the Chrome
    /// trace-event file at `BASE` with a `.json` extension.
    pub trace_out: Option<PathBuf>,
}

impl GridOpts {
    /// Every shared flag: what the main-grid bins take.
    pub const ALL: [Flag; 5] = [
        Flag::switch("--fresh"),
        Flag::parsed::<usize>("--jobs", "N"),
        Flag::parsed::<u64>("--fault-seed", "N"),
        Flag::value("--fault-plan", "SPEC"),
        Flag::value("--trace-out", "BASE"),
    ];

    /// The shared flags called `names`, in that order.
    pub fn flags(names: &[&str]) -> Vec<Flag> {
        let flag = |name| GridOpts::ALL.into_iter().find(|f| f.name() == name);
        names
            .iter()
            .map(|&n| flag(n).expect("a shared flag"))
            .collect()
    }

    /// The shared options among `args`. A malformed `--fault-plan` is a
    /// usage error.
    pub fn from_args(args: &Args) -> GridOpts {
        GridOpts {
            fresh: args.given("--fresh"),
            jobs: args.get("--jobs"),
            fault_plan: plan_from_flags(args.get("--fault-seed"), args.value("--fault-plan"))
                .unwrap_or_else(|e| args.fail(&format!("--fault-plan: {e}"))),
            trace_out: args.value("--trace-out").map(PathBuf::from),
        }
    }

    /// Parses the process arguments of a bin that takes the `flags`
    /// among the shared ones and nothing else.
    pub fn parse(bin: &'static str, flags: &[Flag]) -> GridOpts {
        GridOpts::from_args(&Cli::new(bin).flags(flags).parse())
    }

    /// The evaluation engine: `--jobs` workers, else `JOBS`, else the core
    /// count; the cell cache under `target/cells/`, write-only under
    /// `--fresh`; the fault plan, if one is armed.
    pub fn runner(&self) -> Runner {
        let mut runner = Runner::from_env();
        if let Some(jobs) = self.jobs {
            runner = runner.with_jobs(jobs);
        }
        if self.fresh {
            runner = runner.fresh();
        }
        if let Some(plan) = &self.fault_plan {
            eprintln!("fault injection armed: {:?}", plan.config());
            runner = runner.with_fault_plan(Arc::clone(plan));
        }
        runner
    }

    /// Arms the trace collector when `--trace-out` is set.
    pub fn arm_tracing(&self) {
        if self.trace_out.is_some() {
            proof_trace::set_enabled(true);
        }
    }
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

/// The ledger record of a run of `runs`, with every field the runs and
/// the process determine: cell and cache-hit counts, summed wall time and
/// throughput, the theorem and proved counts of the completed cells, the
/// embedded corpus hash, and the fault/retry totals. Those totals come
/// from the always-on registry counters the search layer bumps, never from
/// serialized cell results, which stay byte-identical between clean and
/// recovered runs. Bins set `bin`, `label`, `variant`, `jobs` and
/// `counters` (and what else they know better) with struct-update syntax.
pub fn run_record(runs: &[CellRun]) -> RunRecord {
    let snap = proof_trace::metrics::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let outcomes = || {
        runs.iter()
            .filter_map(|r| r.result.as_ref().ok())
            .flat_map(|c| &c.outcomes)
    };
    let theorems = outcomes().count() as u64;
    let wall_ms: f64 = runs.iter().map(|r| r.wall_ms).sum();
    let cache_hits = runs
        .iter()
        .filter(|r| matches!(r.source, CellSource::CacheHit | CellSource::Repeat))
        .count() as u64;
    RunRecord {
        ts_unix: proof_trace::ledger::unix_now(),
        git_sha: proof_trace::ledger::git_sha(),
        corpus_hash: corpus_content_hash(),
        theorems,
        proved: outcomes().filter(|o| o.outcome == "proved").count() as u64,
        wall_ms,
        thm_per_sec: if wall_ms > 0.0 {
            theorems as f64 * 1000.0 / wall_ms
        } else {
            0.0
        },
        cache_hits,
        cache_misses: runs.len() as u64 - cache_hits,
        oracle_faults: counter("search.oracle_faults"),
        oracle_retries: counter("search.oracle_retries"),
        ..RunRecord::default()
    }
}

/// Appends `record` to the fleet ledger (`telemetry/RUNS.jsonl`, or
/// `LEDGER_PATH`); returns the ledger path on success. Best-effort by
/// design: telemetry must never fail a bench run.
pub fn ledger_append(record: &RunRecord) -> Option<PathBuf> {
    let ledger = Ledger::from_env();
    if ledger.append(record) {
        Some(ledger.path().to_path_buf())
    } else {
        None
    }
}

/// The generator's [`corpus_gen::fingerprint`] of the embedded corpus
/// sources. Pins "what was evaluated" for cross-run comparability.
pub fn corpus_content_hash() -> String {
    corpus_gen::fingerprint(&fscq_corpus::corpus_sources())
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
    if let Some(ledger_path) = ledger_append(&RunRecord {
        bin: bin_name(),
        label: label.to_string(),
        jobs: runner.jobs() as u64,
        counters,
        phase_self_ms,
        dropped_spans,
        ..run_record(runs)
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

/// The results of `runs`, in order, for the bins that do not exit
/// [`EXIT_RESUMABLE`]: a crashed cell panics with its crash.
pub fn completed(runs: &[CellRun]) -> Vec<&CellResult> {
    runs.iter()
        .map(|r| r.result.as_ref().unwrap_or_else(|crash| panic!("{crash}")))
        .collect()
}

/// Runs the main experiment grid, the five model configurations of
/// Table 2 each in the vanilla and hint settings, with optional fault
/// injection. Each cell comes from the cell cache when its key matches
/// (not under `--fresh`); the grid is written to
/// `target/experiments/main_grid.json` as an artifact, never read back.
/// If any cell crashes (injected or real), the completed cells stay
/// cached and the process exits with status [`EXIT_RESUMABLE`] after
/// advising a rerun without `--fresh`. Returns the grid and the embedded
/// corpus it ran on.
pub fn main_grid_opts(opts: &GridOpts) -> (ResultSet, Corpus) {
    opts.arm_tracing();
    let runner = opts.runner();
    let cells: Vec<CellConfig> = ModelProfile::all_five()
        .into_iter()
        .flat_map(|profile| {
            [PromptSetting::Vanilla, PromptSetting::Hints]
                .map(|setting| CellConfig::standard(profile.clone(), setting))
        })
        .collect();
    eprintln!("running {} cells ({} jobs)", cells.len(), runner.jobs());
    let corpus = Corpus::load();
    let runs = run_grid(&runner, &corpus, &cells);
    let crashes: Vec<&CellCrash> = runs
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .collect();
    if !crashes.is_empty() {
        for crash in &crashes {
            eprintln!("{crash}");
        }
        eprintln!(
            "{} cell(s) crashed; completed cells are cached — re-run without --fresh to finish without repeating them",
            crashes.len()
        );
        std::process::exit(EXIT_RESUMABLE);
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
    (rs, corpus)
}

//! `perf_gate` — the CI throughput-regression gate.
//!
//! ```sh
//! perf_gate [--baseline PATH] [--max-slowdown X] [--write-baseline]
//! ```
//!
//! Runs the full Table 2 grid *cold* (every cache level disabled, so the
//! kernel, search, and oracle all do real work), computes whole-grid
//! throughput in theorems per second, appends the measurement to the run
//! ledger (series `perf_gate/perf-gate`), and compares against the
//! checked-in `perf_baseline.json`. The gate fails only on a greater-than
//! `--max-slowdown` (default 2x) regression: CI machines vary widely in
//! single-core speed, so the gate catches algorithmic regressions (an
//! accidental O(n^2) substitution, a dropped memo table), not noise.
//!
//! `--write-baseline` re-measures and rewrites the baseline file instead
//! of gating; run it after a deliberate performance change and commit the
//! result.
//!
//! Exit codes: 0 = at or above the gate (or baseline written),
//! 1 = regression, 2 = usage/IO error.

use std::process::ExitCode;
use std::time::Instant;

use fscq_corpus::Corpus;
use proof_metrics::runner::{CellBench, CellSource};
use proof_metrics::CellConfig;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

/// Checked-in throughput baseline for this grid.
const BASELINE_PATH: &str = "perf_baseline.json";

struct Args {
    baseline: String,
    max_slowdown: f64,
    write_baseline: bool,
}

fn usage() -> ! {
    eprintln!("usage: perf_gate [--baseline PATH] [--max-slowdown X] [--write-baseline]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut out = Args {
        baseline: BASELINE_PATH.to_string(),
        max_slowdown: 2.0,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => out.baseline = args.next().unwrap_or_else(|| usage()),
            "--max-slowdown" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.max_slowdown = v.parse().unwrap_or_else(|_| {
                    eprintln!("--max-slowdown needs a number, got {v}");
                    usage()
                });
                if out.max_slowdown < 1.0 {
                    eprintln!("--max-slowdown must be >= 1.0");
                    usage()
                }
            }
            "--write-baseline" => out.write_baseline = true,
            // Shared flags other grid binaries accept; harmless here.
            "--fresh" => {}
            "--jobs" => {
                args.next();
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--jobs=") => {}
            other => {
                eprintln!("unexpected argument {other}");
                usage()
            }
        }
    }
    out
}

/// Runs the ten Table 2 cells with no cache and returns
/// `(theorems evaluated, proved, wall ms)`.
fn cold_grid() -> (usize, usize, f64) {
    let corpus = Corpus::load();
    // `fresh` drops the cell cache; there is no grid-level shortcut here.
    let runner = llm_fscq_bench::runner(true);
    let started = Instant::now();
    let mut theorems = 0usize;
    let mut proved = 0usize;
    for profile in ModelProfile::all_five() {
        for setting in [PromptSetting::Vanilla, PromptSetting::Hints] {
            let cell = CellConfig::standard(profile.clone(), setting);
            eprintln!("perf_gate: {} ({} jobs)", cell.label(), runner.jobs());
            let result = runner.run_cell(&corpus, &cell);
            theorems += result.outcomes.len();
            proved += result
                .outcomes
                .iter()
                .filter(|o| o.outcome == "proved")
                .count();
        }
    }
    (theorems, proved, started.elapsed().as_secs_f64() * 1e3)
}

/// Appends the cold-grid measurement to the fleet ledger, stamping the
/// git sha (via the shared record builder) and the kernel interner's
/// dedup statistics so the radar can trend sharing efficiency alongside
/// throughput.
fn append_ledger(theorems: usize, proved: usize, wall_ms: f64) {
    let s = minicoq::intern::stats();
    let mut counters = std::collections::BTreeMap::new();
    counters.insert("intern.term_hits".to_string(), s.term_hits);
    counters.insert("intern.term_misses".to_string(), s.term_misses);
    counters.insert("intern.arena_bytes".to_string(), s.arena_bytes as u64);
    counters.insert(
        "intern.dedup_factor_milli".to_string(),
        (s.dedup_factor() * 1000.0).round() as u64,
    );
    let record = CellBench::new(
        "cold grid (perf gate)".into(),
        theorems,
        wall_ms,
        proof_metrics::runner::resolve_jobs(),
        CellSource::Computed,
        "perf-gate".into(),
    );
    if let Some(path) = llm_fscq_bench::ledger_append(&llm_fscq_bench::LedgerRun {
        bin: "perf_gate",
        label: "cold-grid",
        variant: "perf-gate",
        jobs: record.jobs,
        records: std::slice::from_ref(&record),
        theorems: Some(theorems as u64),
        proved: proved as u64,
        counters,
        ..Default::default()
    }) {
        eprintln!("perf_gate: ledger appended to {}", path.display());
    }
}

fn read_baseline(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str::<serde_json::Value>(&text)
        .ok()?
        .get("thm_per_sec")?
        .as_f64()
}

fn main() -> ExitCode {
    let args = parse_args();
    let (theorems, proved, wall_ms) = cold_grid();
    let thm_per_sec = if wall_ms > 0.0 {
        theorems as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    println!(
        "perf_gate: cold grid {} theorems in {:.0} ms = {:.1} thm/sec",
        theorems, wall_ms, thm_per_sec
    );
    append_ledger(theorems, proved, wall_ms);

    if args.write_baseline {
        let text = format!(
            "{{\n  \"thm_per_sec\": {thm_per_sec:.3},\n  \"theorems\": {theorems},\n  \
             \"wall_ms\": {wall_ms:.1},\n  \"notes\": \"cold Table 2 grid throughput; \
             regenerate with `perf_gate --write-baseline`\"\n}}\n"
        );
        if let Err(e) = std::fs::write(&args.baseline, text) {
            eprintln!("perf_gate: cannot write {}: {e}", args.baseline);
            return ExitCode::from(2);
        }
        println!("perf_gate: baseline written to {}", args.baseline);
        return ExitCode::SUCCESS;
    }

    let Some(baseline) = read_baseline(&args.baseline) else {
        eprintln!(
            "perf_gate: no readable baseline at {} — run `perf_gate --write-baseline` and commit it",
            args.baseline
        );
        return ExitCode::from(2);
    };
    let floor = baseline / args.max_slowdown;
    println!(
        "perf_gate: baseline {:.1} thm/sec, gate floor {:.1} ({}x slowdown allowed)",
        baseline, floor, args.max_slowdown
    );
    if thm_per_sec < floor {
        eprintln!(
            "perf_gate: REGRESSION — {:.1} thm/sec is below the {:.1} floor",
            thm_per_sec, floor
        );
        return ExitCode::from(1);
    }
    println!("perf_gate: ok");
    ExitCode::SUCCESS
}

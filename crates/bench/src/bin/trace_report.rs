//! Offline trace analysis: turns a `--trace-out` trace file into the
//! per-phase/per-tactic profiling report.
//!
//! ```text
//! trace_report <trace.json> [--flame OUT] [--top N] [--min-phase-pct P]
//! ```
//!
//! The file is read with `proof_trace::export::read_chrome`, which also
//! validates it: every record carries a known phase (`M`/`X`), complete
//! events have non-negative durations, pid 1 and their span's id and
//! parent, every referenced tid has a `thread_name` metadata record, and
//! per-tid spans nest properly. A malformed file fails the report.
//! `--flame OUT` writes the collapsed stacks for a flamegraph.
//! `--min-phase-pct P` exits non-zero unless at least `P` percent of busy
//! time is attributed to the named execution phases — the acceptance bar
//! for the instrumentation's coverage.

use std::process::ExitCode;

use proof_chaos::cli::{Cli, Flag};
use proof_trace::export::{read_chrome, ChromeTrace};
use proof_trace::report::{phase_breakdown, render_report};

fn main() -> ExitCode {
    let args = Cli::new("trace_report")
        .positional("trace.json", true)
        .flags(&[
            Flag::value("--flame", "OUT"),
            Flag::parsed::<usize>("--top", "N"),
            Flag::parsed::<f64>("--min-phase-pct", "P"),
        ])
        .parse();
    let trace_path = args.positional(0).expect("a required positional");
    let top_n = args.get("--top").unwrap_or(10);
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ChromeTrace {
        spans,
        metrics,
        dropped,
    } = match read_chrome(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{trace_path}: INVALID trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} spans were dropped at the collector cap — \
             phase totals undercount"
        );
    }
    print!("{}", render_report(&spans, &metrics, dropped, top_n));

    if let Some(path) = args.value("--flame") {
        match proof_trace::export::write_collapsed(std::path::Path::new(path), &spans) {
            Ok(()) => println!("\nflamegraph collapsed stacks -> {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(min) = args.get::<f64>("--min-phase-pct") {
        let pct = phase_breakdown(&spans).named_phase_pct();
        if pct < min {
            eprintln!("named-phase attribution {pct:.1}% is below the required {min:.1}%");
            return ExitCode::FAILURE;
        }
        println!("named-phase attribution {pct:.1}% >= {min:.1}% required");
    }
    ExitCode::SUCCESS
}

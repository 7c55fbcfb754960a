//! End-to-end telemetry contracts: the pinned two-run regression-radar
//! demo (seed run, then an injected slowdown the radar must flag by
//! name), the radar's clean and missing-ledger exits, and `trace_report`
//! over a real trace file and over malformed ones.

use std::process::Command;
use std::sync::Mutex;

use fscq_corpus::Corpus;
use llm_fscq_bench::{ledger_append, run_record, write_trace_artifacts};
use proof_metrics::runner::{CellRun, Runner};
use proof_metrics::CellConfig;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_trace::ledger::RunRecord;

/// Tracing's enabled flag and the metrics registry are process-global;
/// serialize the tests here.
static LOCK: Mutex<()> = Mutex::new(());

fn small_cell() -> CellConfig {
    let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    cell.search.query_limit = 4;
    cell
}

fn run_small_cell() -> Vec<CellRun> {
    Runner::from_env()
        .with_jobs(1)
        .without_cache()
        .run_cells(&[(&Corpus::load(), &small_cell())])
}

fn append_demo_run(ledger_path: &std::path::Path, runs: &[CellRun]) {
    // `ledger_append` honors LEDGER_PATH; route it to the temp ledger.
    std::env::set_var("LEDGER_PATH", ledger_path);
    let appended = ledger_append(&RunRecord {
        bin: "radar-demo".to_string(),
        label: "two-run-demo".to_string(),
        jobs: 1,
        ..run_record(runs)
    });
    std::env::remove_var("LEDGER_PATH");
    assert!(appended.is_some(), "ledger append failed");
}

/// The acceptance demo: run 1 seeds the ledger, run 2 suffers injected
/// oracle faults, and `radar --check` exits non-zero naming the
/// regressed metric.
#[test]
fn two_run_demo_flags_injected_fault_regression() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("radar-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger_path = dir.join("RUNS.jsonl");

    // Run 1: a clean evaluation seeds the ledger.
    let runs = run_small_cell();
    append_demo_run(&ledger_path, &runs);

    // Run 2: same evaluation, but the oracle fault counter jumps — the
    // same registry signal a chaos fault plan drives.
    let runs = run_small_cell();
    proof_trace::metrics::counter_add("search.oracle_faults", 50);
    append_demo_run(&ledger_path, &runs);

    let out = Command::new(env!("CARGO_BIN_EXE_radar"))
        .args(["--ledger", ledger_path.to_str().unwrap(), "--check"])
        .output()
        .expect("radar spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "radar --check must exit 1 on a regression\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("oracle_faults"),
        "the regressed metric must be named on stderr: {stderr}"
    );
    assert!(
        stderr.contains("radar-demo"),
        "the regressed series must be named on stderr: {stderr}"
    );

    // The markdown dashboard carries the same verdict.
    assert!(stdout.contains("REGRESSED"), "markdown flags it: {stdout}");

    // And the HTML dashboard is self-contained (no external fetches).
    let html_path = dir.join("radar.html");
    let out = Command::new(env!("CARGO_BIN_EXE_radar"))
        .args([
            "--ledger",
            ledger_path.to_str().unwrap(),
            "--html",
            html_path.to_str().unwrap(),
        ])
        .output()
        .expect("radar spawns");
    assert_eq!(out.status.code(), Some(0), "no --check, exit 0");
    let html = std::fs::read_to_string(&html_path).unwrap();
    assert!(html.contains("<svg"), "sparklines inline");
    assert!(
        !html.contains("http://") && !html.contains("https://"),
        "dashboard must not reference external assets"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean two-run ledger passes `--check`, and a missing ledger is a
/// usage error (exit 2), not a silent pass.
#[test]
fn radar_check_clean_and_missing_ledger() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("radar-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger_path = dir.join("RUNS.jsonl");

    let runs = run_small_cell();
    append_demo_run(&ledger_path, &runs);
    append_demo_run(&ledger_path, &runs);

    let out = Command::new(env!("CARGO_BIN_EXE_radar"))
        .args([
            "--ledger",
            ledger_path.to_str().unwrap(),
            "--check",
            "--metrics",
            "proved_fraction,oracle_faults,dropped_spans",
        ])
        .output()
        .expect("radar spawns");
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical runs must pass --check: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(env!("CARGO_BIN_EXE_radar"))
        .args([
            "--ledger",
            dir.join("absent.jsonl").to_str().unwrap(),
            "--check",
        ])
        .output()
        .expect("radar spawns");
    assert_eq!(out.status.code(), Some(2), "missing ledger is exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced run writes one trace file, which `trace_report` renders; a
/// file that does not parse or whose spans do not nest fails the report.
#[test]
fn trace_report_reads_the_trace_file_and_rejects_bad_ones() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("trace-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    proof_trace::set_enabled(true);
    let _ = proof_trace::drain();
    let _ = run_small_cell();
    let (phase_self_ms, dropped) = write_trace_artifacts(&dir.join("trace"));
    proof_trace::set_enabled(false);
    assert!(phase_self_ms.contains_key("oracle") && dropped == 0);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["trace.json"], "one trace artifact");

    let report = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_trace_report"))
            .args(args)
            .output()
            .expect("trace_report spawns")
    };
    let good = dir.join("trace.json");
    let out = report(&[good.to_str().unwrap(), "--min-phase-pct", "50"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Phase breakdown") && stdout.contains("Slowest cells"));

    let thread = r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t"}}"#;
    let span = |id: u64, ts: &str, dur: &str| {
        format!(
            r#"{{"name":"cell","cat":"cell","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":1,"args":{{"id":{id},"parent":0}}}}"#
        )
    };
    let nested = format!(
        r#"{{"dropped":0,"counters":{{}},"histograms":{{}},"traceEvents":[{thread},{},{}]}}"#,
        span(1, "0", "10"),
        span(2, "1", "5")
    );
    let overlapping = format!(
        r#"{{"dropped":0,"counters":{{}},"histograms":{{}},"traceEvents":[{thread},{},{}]}}"#,
        span(1, "0", "10"),
        span(2, "5", "10")
    );
    for (name, text, ok) in [
        ("nested.json", nested.as_str(), true),
        ("overlapping.json", overlapping.as_str(), false),
        ("truncated.json", &nested[..nested.len() / 2], false),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = report(&[path.to_str().unwrap()]);
        assert_eq!(
            out.status.success(),
            ok,
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

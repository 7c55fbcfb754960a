//! End-to-end telemetry contracts: the pinned two-run regression-radar
//! demo (seed run, then an injected slowdown the radar must flag by
//! name) and the radar's clean and missing-ledger exits.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

use fscq_corpus::Corpus;
use llm_fscq_bench::{ledger_append, LedgerRun};
use proof_metrics::runner::Runner;
use proof_metrics::CellConfig;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

/// Tracing's enabled flag and the metrics registry are process-global;
/// serialize the tests here.
static LOCK: Mutex<()> = Mutex::new(());

fn small_cell() -> CellConfig {
    let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    cell.search.query_limit = 4;
    cell
}

fn run_small_cell() -> (Vec<proof_metrics::runner::CellBench>, u64, u64) {
    let corpus = Corpus::load();
    let runner = Runner::from_env().with_jobs(1).without_cache();
    let result = runner.run_cell(&corpus, &small_cell());
    let proved = result
        .outcomes
        .iter()
        .filter(|o| o.outcome == "proved")
        .count() as u64;
    let total = result.outcomes.len() as u64;
    (runner.bench_records(), proved, total)
}

fn append_demo_run(
    ledger_path: &std::path::Path,
    records: &[proof_metrics::runner::CellBench],
    proved: u64,
    total: u64,
) {
    // `ledger_append` honors LEDGER_PATH; route it to the temp ledger.
    std::env::set_var("LEDGER_PATH", ledger_path);
    let appended = ledger_append(&LedgerRun {
        bin: "radar-demo",
        label: "two-run-demo",
        variant: "",
        jobs: 1,
        records,
        theorems: Some(total),
        proved,
        corpus_hash: String::new(),
        counters: BTreeMap::new(),
        phase_self_ms: BTreeMap::new(),
        dropped_spans: 0,
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
    let (records, proved, total) = run_small_cell();
    append_demo_run(&ledger_path, &records, proved, total);

    // Run 2: same evaluation, but the oracle fault counter jumps — the
    // same registry signal a chaos fault plan drives.
    let (records, proved, total) = run_small_cell();
    proof_trace::metrics::counter_add("search.oracle_faults", 50);
    append_demo_run(&ledger_path, &records, proved, total);

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

    let (records, proved, total) = run_small_cell();
    append_demo_run(&ledger_path, &records, proved, total);
    append_demo_run(&ledger_path, &records, proved, total);

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

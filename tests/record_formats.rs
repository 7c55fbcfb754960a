//! Byte-level goldens for every file written in the shared record envelope
//! (`proof_trace::envelope`): the run ledger, the attempt log, and the
//! cell cache with its crash records. Each checked-in file must load in
//! full, and re-sealing what was loaded must reproduce the file byte for
//! byte — so a change to the envelope that alters a single on-disk byte
//! fails here.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fscq_corpus::Corpus;
use proof_chaos::{FaultConfig, FaultPlan};
use proof_metrics::runner::{cell_cache_key, load_envelope, store_envelope, store_key};
use proof_metrics::{CellConfig, CellResult, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_trace::attempts::AttemptLog;
use proof_trace::ledger::Ledger;

/// The captured cell: GPT-4o mini with hints on its first three eval
/// theorems.
const CELL_KEY: &str = "d0a2ca013482ae9b";
const CELL_LABEL: &str = "GPT-4o mini (w/ hints)";

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("record-formats-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn nonempty_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

fn captured_cell() -> CellConfig {
    let mut cell = CellConfig::standard(ModelProfile::gpt4o_mini(), PromptSetting::Hints);
    cell.subset = Some(vec![
        "add_0_l".to_string(),
        "add_0_r".to_string(),
        "add_succ_l".to_string(),
    ]);
    cell
}

#[test]
fn checked_in_ledger_reseals_byte_for_byte() {
    let path = repo("telemetry/RUNS.jsonl");
    let lines = nonempty_lines(&path);
    let records = Ledger::at(&path).load();
    assert_eq!(records.len(), lines.len());
    for (record, line) in records.iter().zip(&lines) {
        assert_eq!(&record.to_line(), line);
    }
}

#[test]
fn checked_in_attempt_log_reseals_byte_for_byte() {
    let path = repo("fixtures/attempts_small.jsonl");
    let lines = nonempty_lines(&path);
    let records = AttemptLog::at(&path).load();
    assert_eq!(records.len(), lines.len());
    for (record, line) in records.iter().zip(&lines) {
        assert_eq!(&record.to_line(), line);
    }
}

#[test]
fn cell_cache_file_reseals_byte_for_byte() {
    let fixture = repo(&format!("fixtures/envelope/cell_{CELL_KEY}.json"));
    let result: CellResult = load_envelope(&fixture).expect("fixture loads");
    let dir = scratch("cache");
    let copy = dir.join("cell.json");
    store_envelope(&copy, &result);
    assert_eq!(
        std::fs::read(&copy).unwrap(),
        std::fs::read(&fixture).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runner_writes_the_captured_cache_file() {
    let cell = captured_cell();
    assert_eq!(cell_cache_key(&cell), CELL_KEY);
    assert_eq!(cell.label(), CELL_LABEL);
    let dir = scratch("runner");
    let runner = Runner::from_env().with_jobs(1).with_cache_dir(&dir);
    let corpus = Corpus::load();
    runner
        .run_cell_checked(&corpus, &cell)
        .expect("a clean cell does not crash");
    assert_eq!(
        std::fs::read(dir.join(format!("{}.json", store_key(&corpus, &cell)))).unwrap(),
        std::fs::read(repo(&format!("fixtures/envelope/cell_{CELL_KEY}.json"))).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runner_writes_the_captured_crash_record() {
    let cell = captured_cell();
    let fixture = repo(&format!("fixtures/envelope/cell_{CELL_KEY}.crashed"));
    assert_eq!(load_envelope::<u32>(&fixture), Some(1), "one crash so far");
    let dir = scratch("crash");
    let runner = Runner::from_env()
        .with_jobs(1)
        .with_cache_dir(&dir)
        .with_fault_plan(Arc::new(FaultPlan::new(FaultConfig {
            seed: 1,
            worker_panic: 1.0,
            ..FaultConfig::default()
        })));
    let corpus = Corpus::load();
    runner
        .run_cell_checked(&corpus, &cell)
        .expect_err("the armed cell crashes");
    let record = dir.join(format!("{}.crashed", store_key(&corpus, &cell)));
    assert_eq!(
        std::fs::read(&record).unwrap(),
        std::fs::read(&fixture).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

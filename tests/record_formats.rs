//! Byte-level goldens for every file written in the shared record envelope
//! (`proof_trace::envelope`): the run ledger, the attempt log, the grid
//! journal and the cell cache. Each checked-in file must load in full, and
//! re-sealing what was loaded must reproduce the file byte for byte — so
//! a change to the envelope that alters a single on-disk byte fails here.

use std::path::{Path, PathBuf};

use fscq_corpus::Corpus;
use proof_metrics::journal::Journal;
use proof_metrics::runner::{cell_cache_key, load_envelope, store_envelope};
use proof_metrics::{CellConfig, CellResult, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_trace::attempts::AttemptLog;
use proof_trace::ledger::Ledger;

/// The captured cell: GPT-4o mini with hints on its first three eval
/// theorems.
const CELL_KEY: &str = "d0a2ca013482ae9b";
const CELL_LABEL: &str = "GPT-4o mini (w/ hints)";
const CRASH_TEXT: &str = "injected: worker panic\nin \"cell\"";

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
fn journal_triple_reseals_byte_for_byte() {
    let fixture = repo("fixtures/envelope/journal_triple.jsonl");
    let state = Journal::at(&fixture).load();
    assert_eq!(state.attempts_of(CELL_KEY), 1);
    assert!(state.crashes.is_empty(), "done supersedes the crash");
    let result = &state.done[CELL_KEY];

    let dir = scratch("journal");
    let journal = Journal::at(dir.join("journal.jsonl"));
    journal.record_start(CELL_KEY, CELL_LABEL);
    journal.record_crashed(CELL_KEY, CELL_LABEL, CRASH_TEXT);
    journal.record_done(CELL_KEY, result);
    assert_eq!(
        std::fs::read(journal.path()).unwrap(),
        std::fs::read(&fixture).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
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
    runner
        .run_cell_checked(&Corpus::load(), &cell)
        .expect("a clean cell does not crash");
    assert_eq!(
        std::fs::read(dir.join(format!("{CELL_KEY}.json"))).unwrap(),
        std::fs::read(repo(&format!("fixtures/envelope/cell_{CELL_KEY}.json"))).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

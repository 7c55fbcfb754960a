//! Crash-safe JSONL journal of cell-level evaluation progress.
//!
//! A grid run appends one line per event to a journal file:
//!
//! * `start` — a cell evaluation began (written *before* the work, so an
//!   attempt that dies mid-flight still leaves a trace);
//! * `done` — a cell completed; the full [`CellResult`] rides along as a
//!   sealed [`proof_trace::envelope`] payload (escaped JSON string plus
//!   FNV-1a checksum);
//! * `crashed` — a cell's evaluation panicked; the payload text is kept
//!   for diagnosis.
//!
//! On `--resume`, [`Journal::load`] replays the log: `done` cells are
//! served from the journal without re-evaluation, and the per-cell
//! `start` counts tell the fault plan how many attempts already happened,
//! so a deterministic worker-panic fault that fired on attempt 0 does not
//! fire again on the resumed attempt 1 (see
//! [`proof_chaos::FaultPlan::should_fault_at`]).
//!
//! The format is deliberately line-oriented and append-only: a crash can
//! at worst truncate the final line, and the loader skips any line that
//! fails to parse or whose checksum does not match, so a torn tail write
//! costs one cell recompute, never the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proof_trace::envelope::{self, json_str, object, seal};

use crate::experiment::CellResult;

/// What the journal knows after replaying every parseable line.
#[derive(Debug, Default, Clone)]
pub struct JournalState {
    /// Completed cells by cache key, checksum-verified.
    pub done: BTreeMap<String, CellResult>,
    /// `start` entries per cache key — how many attempts have begun,
    /// including any that never finished.
    pub attempts: BTreeMap<String, u32>,
    /// Last recorded panic text per cache key, for cells that crashed.
    pub crashes: BTreeMap<String, String>,
}

impl JournalState {
    /// True when `key` completed in a previous attempt.
    pub fn is_done(&self, key: &str) -> bool {
        self.done.contains_key(key)
    }

    /// Attempts already begun for `key` (0 for a never-seen cell).
    pub fn attempts_of(&self, key: &str) -> u32 {
        self.attempts.get(key).copied().unwrap_or(0)
    }

    /// Applies a `start` entry for `key`.
    pub(crate) fn note_start(&mut self, key: &str) {
        *self.attempts.entry(key.to_string()).or_insert(0) += 1;
    }

    /// Applies a `done` entry: it supersedes any earlier crash of `key`.
    pub(crate) fn note_done(&mut self, key: &str, result: CellResult) {
        self.crashes.remove(key);
        self.done.insert(key.to_string(), result);
    }

    /// Applies a `crashed` entry.
    pub(crate) fn note_crashed(&mut self, key: &str, panic: &str) {
        self.crashes.insert(key.to_string(), panic.to_string());
    }
}

/// An append-only JSONL journal at a fixed path.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// A journal at `path`. Nothing is created until the first append.
    pub fn at(path: impl Into<PathBuf>) -> Journal {
        Journal { path: path.into() }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes the journal file (fresh runs). Missing file is fine.
    pub fn clear(&self) {
        let _ = std::fs::remove_file(&self.path);
    }

    /// Replays the journal. A missing file yields the empty state;
    /// unparseable or checksum-failing lines are skipped (the crash-safety
    /// contract: a torn tail line costs one recompute).
    pub fn load(&self) -> JournalState {
        let mut state = JournalState::default();
        for entry in envelope::load(&self.path) {
            let Some(key) = entry.str("key") else {
                continue;
            };
            match entry.str("ev") {
                Some("start") => state.note_start(key),
                Some("done") => {
                    if let Some(result) = entry
                        .payload()
                        .and_then(|p| serde_json::from_str::<CellResult>(p).ok())
                    {
                        state.note_done(key, result);
                    }
                }
                Some("crashed") => {
                    state.note_crashed(key, entry.str("panic").unwrap_or("unknown panic"));
                }
                _ => {}
            }
        }
        state
    }

    /// Appends a `start` entry for `key`. Best-effort: journaling must
    /// never take down the evaluation it protects.
    pub fn record_start(&self, key: &str, label: &str) {
        self.append(object(&[
            ("ev", json_str("start")),
            ("key", json_str(key)),
            ("label", json_str(label)),
        ]));
    }

    /// Appends a checksummed `done` entry carrying the full result.
    pub fn record_done(&self, key: &str, result: &CellResult) {
        let Ok(payload) = serde_json::to_string(result) else {
            return;
        };
        self.append(seal(
            &[("ev", json_str("done")), ("key", json_str(key))],
            &payload,
        ));
    }

    /// Appends a `crashed` entry with the captured panic text.
    pub fn record_crashed(&self, key: &str, label: &str, panic: &str) {
        self.append(object(&[
            ("ev", json_str("crashed")),
            ("key", json_str(key)),
            ("label", json_str(label)),
            ("panic", json_str(panic)),
        ]));
    }

    fn append(&self, line: String) {
        envelope::append(&self.path, &[line]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TheoremOutcome;
    use std::collections::BTreeMap as Map;

    fn sample_result(label: &str) -> CellResult {
        CellResult {
            label: label.to_string(),
            setting: "hints".into(),
            variant: String::new(),
            outcomes: vec![TheoremOutcome {
                name: "lemma_weird \"quote\"".into(),
                file: "Log".into(),
                category: "log".into(),
                human_tokens: 12,
                bin: 1,
                outcome: "proved".into(),
                script: Some("intros.\napply h0.".into()),
                gen_tokens: Some(5),
                similarity: Some(0.75),
                queries: 3,
                pruned: 1,
                pruned_reasons: Map::new(),
            }],
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("journal-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_start_done_crashed() {
        let j = Journal::at(temp_path("roundtrip"));
        j.clear();
        j.record_start("k1", "A");
        j.record_crashed("k1", "A", "injected: worker panic\nwith newline");
        j.record_start("k1", "A");
        j.record_done("k1", &sample_result("A"));
        j.record_start("k2", "B");
        let s = j.load();
        assert_eq!(s.attempts_of("k1"), 2);
        assert_eq!(s.attempts_of("k2"), 1);
        assert!(s.is_done("k1"));
        assert!(!s.is_done("k2"));
        // done supersedes crashed for the same key
        assert!(!s.crashes.contains_key("k1"));
        let r = &s.done["k1"];
        assert_eq!(r.outcomes[0].name, "lemma_weird \"quote\"");
        assert_eq!(r.outcomes[0].script.as_deref(), Some("intros.\napply h0."));
        j.clear();
    }

    #[test]
    fn entries_are_single_lines() {
        let j = Journal::at(temp_path("single-line"));
        j.clear();
        j.record_done("k", &sample_result("multi\nline \"label\""));
        let text = std::fs::read_to_string(j.path()).unwrap();
        assert_eq!(text.lines().count(), 1);
        j.clear();
    }

    #[test]
    fn torn_tail_line_is_skipped() {
        let j = Journal::at(temp_path("torn"));
        j.clear();
        j.record_done("k1", &sample_result("A"));
        j.record_done("k2", &sample_result("B"));
        let text = std::fs::read_to_string(j.path()).unwrap();
        // Simulate a crash mid-write: truncate the last line in half.
        let lines: Vec<&str> = text.lines().collect();
        let torn = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
        std::fs::write(j.path(), torn).unwrap();
        let s = j.load();
        assert!(s.is_done("k1"));
        assert!(!s.is_done("k2"));
        j.clear();
    }

    #[test]
    fn checksum_mismatch_is_skipped() {
        let j = Journal::at(temp_path("checksum"));
        j.clear();
        j.record_done("k1", &sample_result("A"));
        let text = std::fs::read_to_string(j.path()).unwrap();
        // Flip the checksum without otherwise breaking the JSON.
        let tampered = text.replacen("\"checksum\":\"", "\"checksum\":\"f", 1);
        assert_ne!(text, tampered);
        std::fs::write(j.path(), tampered).unwrap();
        assert!(!j.load().is_done("k1"));
        j.clear();
    }
}

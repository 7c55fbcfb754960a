//! The attempt log: one checksummed JSONL record per search attempt.
//!
//! `prove --attempt-log` and grid runs (when an attempt sink is
//! installed) emit one record for every tactic the searcher charged
//! against a theorem — the proposed tactic, its extracted premise
//! argument, the feature-schema id the miner should decode it with, the
//! commit outcome, and the expansion count/depth at which it was tried.
//! `rank train` folds these into bucket counts; the `cold-hint` analysis
//! pass audits hint databases against them.
//!
//! Each line is a [`crate::envelope`] record
//! `{"ev":"attempt","v":N,"checksum":...,"payload":...}`. Like
//! everything in this crate, attempt logging is a side channel: records
//! are *read* from finished searches and must never flow back into
//! search behavior, cache keys, or byte-compared outputs.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::envelope::{self, json_str};

/// Attempt-log schema version (the envelope `v`).
pub const ATTEMPTS_SCHEMA: u64 = 1;

/// One charged search attempt. Every field defaults when missing and
/// unknown fields are ignored.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Theorem under search.
    #[serde(default)]
    pub theorem: String,
    /// The proposed tactic, verbatim.
    #[serde(default)]
    pub tactic: String,
    /// The tactic's premise (lemma) argument, empty when none.
    #[serde(default)]
    pub premise: String,
    /// Feature-encoding schema the miner should use for this record.
    #[serde(default)]
    pub features_schema: u64,
    /// Commit outcome: `applied`, `proved`, `duplicate`, `timeout`,
    /// `preflight`, or `rejected`.
    #[serde(default)]
    pub outcome: String,
    /// Expansions charged before this attempt was tried.
    #[serde(default)]
    pub expansions: u64,
    /// Depth of the parent node in the proof tree.
    #[serde(default)]
    pub depth: u64,
    /// Oracle query index the attempt came from.
    #[serde(default)]
    pub query: u64,
    /// Whether the attempt lies on the final proved script's path.
    #[serde(default)]
    pub on_path: bool,
}

impl AttemptRecord {
    /// The record as one sealed attempt-log line (no trailing newline).
    pub fn to_line(&self) -> String {
        envelope::seal(
            &[
                ("ev", json_str("attempt")),
                ("v", ATTEMPTS_SCHEMA.to_string()),
            ],
            &serde_json::to_string(self).expect("an attempt record always serializes"),
        )
    }
}

/// An append-only attempt log at a fixed path.
#[derive(Debug, Clone)]
pub struct AttemptLog {
    path: PathBuf,
}

impl AttemptLog {
    /// A log at an explicit path.
    pub fn at(path: impl Into<PathBuf>) -> AttemptLog {
        AttemptLog { path: path.into() }
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends records in order in a single write, so one theorem's
    /// attempts land contiguously even with concurrent writers.
    /// Best-effort; returns whether the write succeeded.
    pub fn append_all(&self, records: &[AttemptRecord]) -> bool {
        let lines: Vec<String> = records.iter().map(AttemptRecord::to_line).collect();
        envelope::append(&self.path, &lines)
    }

    /// Loads every valid record in file order; unparseable or
    /// checksum-failing lines are skipped.
    pub fn load(&self) -> Vec<AttemptRecord> {
        envelope::load_sealed(&self.path, "attempt", |p| serde_json::from_str(p).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> AttemptLog {
        let dir = std::env::temp_dir().join(format!("attempts-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        AttemptLog::at(dir.join("attempts.jsonl"))
    }

    fn rec(theorem: &str, tactic: &str, on_path: bool) -> AttemptRecord {
        AttemptRecord {
            theorem: theorem.to_string(),
            tactic: tactic.to_string(),
            premise: "app_nil_l".to_string(),
            features_schema: 1,
            outcome: if on_path { "proved" } else { "rejected" }.to_string(),
            expansions: 7,
            depth: 2,
            query: 3,
            on_path,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let r = rec("app_nil_l", "apply app_nil_l", true);
        let text = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<AttemptRecord>(&text).unwrap(), r);
    }

    #[test]
    fn append_load_round_trip_preserves_order() {
        let log = temp_log("order");
        let records = vec![
            rec("a", "intros", false),
            rec("a", "apply app_nil_l", true),
            rec("b", "rewrite <- app_nil_l", false),
        ];
        assert!(log.append_all(&records));
        assert_eq!(log.load(), records);
        let _ = std::fs::remove_dir_all(log.path().parent().unwrap());
    }

    #[test]
    fn tampered_lines_are_skipped_and_torn_tail_repaired() {
        let log = temp_log("tamper");
        assert!(log.append_all(&[rec("a", "intros", false), rec("b", "lia", true)]));
        let text = std::fs::read_to_string(log.path()).unwrap();
        let tampered = text.replacen("\"checksum\":\"", "\"checksum\":\"f", 1);
        // Also tear the tail: drop the final newline.
        std::fs::write(log.path(), tampered.trim_end_matches('\n')).unwrap();
        assert!(log.append_all(&[rec("c", "auto", false)]));
        let loaded = log.load();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].theorem, "b");
        assert_eq!(loaded[1].theorem, "c");
        let _ = std::fs::remove_dir_all(log.path().parent().unwrap());
    }

    #[test]
    fn escapes_survive_the_envelope() {
        let log = temp_log("escape");
        let mut r = rec("quote", "apply \"weird\\name\"", false);
        r.premise = "line\nbreak".to_string();
        assert!(log.append_all(std::slice::from_ref(&r)));
        assert_eq!(log.load(), vec![r]);
        let _ = std::fs::remove_dir_all(log.path().parent().unwrap());
    }
}

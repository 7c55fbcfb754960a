//! The append-only run ledger: one line per bench-bin run, forever — the
//! workspace's single on-disk timing record.
//!
//! Every bench bin appends one [`RunRecord`] (git sha, corpus content
//! hash, throughput, proved fraction, cache and fault counters, per-phase
//! self time) to `telemetry/RUNS.jsonl` and never rewrites history. The
//! `radar` bin reads it back and runs a changepoint test over the last-k
//! runs of each series ([`crate::radar`]).
//!
//! Each line is a [`crate::envelope`] record
//! `{"ev":"run","v":N,"checksum":...,"payload":...}`, so a crash can cost
//! at most the one record being written, never the ledger.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// The workspace hash, re-exported at the path importers outside this
/// workspace (the benchmark package) already use.
pub use crate::envelope::fnv1a;
use crate::envelope::{self, json_str};

/// Ledger envelope schema version.
pub const LEDGER_SCHEMA: u64 = 1;

/// Default ledger path, relative to the repo root.
pub const DEFAULT_LEDGER_PATH: &str = "telemetry/RUNS.jsonl";

/// One bench-bin run, as the ledger records it. Every field defaults when
/// missing and unknown fields are ignored, so old readers survive new
/// writers and vice versa.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunRecord {
    /// Seconds since the Unix epoch when the record was appended.
    #[serde(default)]
    pub ts_unix: u64,
    /// The bench binary (`table2`, `gen`, `rank`, `preflight`, …).
    #[serde(default)]
    pub bin: String,
    /// Run label within the bin (cell lineup, subcommand).
    #[serde(default)]
    pub label: String,
    /// Variant tag — the series key alongside `bin` (e.g. `rank-learned`,
    /// `gen:<fingerprint>`); empty for the default lineup.
    #[serde(default)]
    pub variant: String,
    /// `git rev-parse --short=12 HEAD` at run time (or `GIT_SHA`,
    /// or `unknown`).
    #[serde(default)]
    pub git_sha: String,
    /// Content hash of the corpus/environment the run evaluated.
    #[serde(default)]
    pub corpus_hash: String,
    /// Cell-level worker parallelism.
    #[serde(default)]
    pub jobs: u64,
    /// Theorem evaluations across all cells of the run.
    #[serde(default)]
    pub theorems: u64,
    /// How many of them ended `proved`.
    #[serde(default)]
    pub proved: u64,
    /// End-to-end wall time of the measured work, milliseconds.
    #[serde(default)]
    pub wall_ms: f64,
    /// Aggregate throughput (theorems / wall seconds).
    #[serde(default)]
    pub thm_per_sec: f64,
    /// Cells served from the cell cache or repeated within the run.
    #[serde(default)]
    pub cache_hits: u64,
    /// Cells computed (a cache miss or a fresh run) or crashed.
    #[serde(default)]
    pub cache_misses: u64,
    /// Injected oracle faults observed (`search.oracle_faults`).
    #[serde(default)]
    pub oracle_faults: u64,
    /// Oracle retries performed (`search.oracle_retries`).
    #[serde(default)]
    pub oracle_retries: u64,
    /// Trace records dropped at the collector cap (0 when untraced).
    #[serde(default)]
    pub dropped_spans: u64,
    /// Extra named counters worth trending (per-reason prune counts, …).
    #[serde(default)]
    pub counters: BTreeMap<String, u64>,
    /// Per-phase self time in milliseconds, rolled up from the trace
    /// (empty when the run was untraced).
    #[serde(default)]
    pub phase_self_ms: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Proved fraction (0 when the run evaluated nothing).
    pub fn proved_fraction(&self) -> f64 {
        if self.theorems == 0 {
            0.0
        } else {
            self.proved as f64 / self.theorems as f64
        }
    }

    /// The series this record belongs to: `bin` plus the variant tag.
    pub fn series(&self) -> String {
        if self.variant.is_empty() {
            self.bin.clone()
        } else {
            format!("{}/{}", self.bin, self.variant)
        }
    }

    /// The record as one sealed ledger line (no trailing newline). A
    /// non-finite float is written as 0: JSON has no NaN or infinity, and
    /// the `null` that would stand in for one does not load back as `f64`,
    /// so the whole record would be lost.
    pub fn to_line(&self) -> String {
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let record = RunRecord {
            wall_ms: finite(self.wall_ms),
            thm_per_sec: finite(self.thm_per_sec),
            phase_self_ms: (self.phase_self_ms.iter())
                .map(|(k, &v)| (k.clone(), finite(v)))
                .collect(),
            ..self.clone()
        };
        envelope::seal(
            &[("ev", json_str("run")), ("v", LEDGER_SCHEMA.to_string())],
            &serde_json::to_string(&record).expect("a run record always serializes"),
        )
    }
}

/// Seconds since the Unix epoch, 0 if the clock is before it.
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The current commit's short sha: `GIT_SHA` env override (CI sets it),
/// else `git rev-parse --short=12 HEAD`, else `unknown`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GIT_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The append-only run ledger at a fixed path.
#[derive(Debug, Clone)]
pub struct Ledger {
    path: PathBuf,
}

impl Ledger {
    /// A ledger at `path`. Nothing is created until the first append.
    pub fn at(path: impl Into<PathBuf>) -> Ledger {
        Ledger { path: path.into() }
    }

    /// The ledger honored by bench bins: `LEDGER_PATH` env override, else
    /// [`DEFAULT_LEDGER_PATH`].
    pub fn from_env() -> Ledger {
        let path = std::env::var("LEDGER_PATH")
            .ok()
            .filter(|p| !p.trim().is_empty())
            .unwrap_or_else(|| DEFAULT_LEDGER_PATH.to_string());
        Ledger::at(path)
    }

    /// The ledger's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record. Best-effort (the ledger must never take down
    /// the run it observes); returns whether the write succeeded.
    pub fn append(&self, record: &RunRecord) -> bool {
        envelope::append(&self.path, &[record.to_line()])
    }

    /// Loads every valid record, in file (= chronological) order. Missing
    /// file yields the empty ledger; unparseable or checksum-failing
    /// lines are skipped.
    pub fn load(&self) -> Vec<RunRecord> {
        envelope::load_sealed(&self.path, "run", |p| serde_json::from_str(p).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            ts_unix: 1_754_000_000,
            bin: "table2".into(),
            label: "grid \"quoted\"".into(),
            variant: String::new(),
            git_sha: "abc123def456".into(),
            corpus_hash: "0011223344556677".into(),
            jobs: 2,
            theorems: 294,
            proved: 106,
            wall_ms: 3120.5,
            thm_per_sec: 94.23,
            cache_hits: 3,
            cache_misses: 7,
            oracle_faults: 0,
            oracle_retries: 0,
            dropped_spans: 0,
            counters: [("intern.hits".to_string(), 42u64)].into_iter().collect(),
            phase_self_ms: [("oracle".to_string(), 1200.25)].into_iter().collect(),
        }
    }

    fn temp_ledger(name: &str) -> Ledger {
        let p = std::env::temp_dir().join(format!("ledger-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        Ledger::at(p)
    }

    #[test]
    fn record_roundtrips() {
        let r = sample();
        let parsed: RunRecord = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(r, parsed);
    }

    #[test]
    fn non_finite_floats_write_as_zero_and_still_load() {
        let l = temp_ledger("nan");
        let mut r = sample();
        r.wall_ms = f64::NAN;
        r.thm_per_sec = f64::INFINITY;
        r.phase_self_ms.insert("stm".to_string(), f64::NAN);
        assert!(l.append(&r));
        let loaded = l.load();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].wall_ms, 0.0);
        assert_eq!(loaded[0].thm_per_sec, 0.0);
        assert_eq!(loaded[0].phase_self_ms["stm"], 0.0);
        assert_eq!(loaded[0].phase_self_ms["oracle"], 1200.25);
        let _ = std::fs::remove_file(l.path());
    }

    #[test]
    fn append_load_roundtrip_and_torn_tail() {
        let l = temp_ledger("roundtrip");
        assert!(l.append(&sample()));
        let mut second = sample();
        second.bin = "preflight".into();
        assert!(l.append(&second));
        assert_eq!(l.load().len(), 2);
        // Tear the last line mid-write; the first record must survive and
        // the next append must repair the tail.
        let text = std::fs::read_to_string(l.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        std::fs::write(
            l.path(),
            format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]),
        )
        .unwrap();
        assert_eq!(l.load().len(), 1);
        assert!(l.append(&sample()));
        let loaded = l.load();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].bin, "table2");
        let _ = std::fs::remove_file(l.path());
    }

    #[test]
    fn checksum_mismatch_is_skipped() {
        let l = temp_ledger("checksum");
        l.append(&sample());
        let text = std::fs::read_to_string(l.path()).unwrap();
        let tampered = text.replacen("\"checksum\":\"", "\"checksum\":\"f", 1);
        assert_ne!(tampered, text);
        std::fs::write(l.path(), tampered).unwrap();
        assert!(l.load().is_empty());
        let _ = std::fs::remove_file(l.path());
    }

    #[test]
    fn series_key_includes_variant() {
        let mut r = sample();
        assert_eq!(r.series(), "table2");
        r.variant = "ci".into();
        assert_eq!(r.series(), "table2/ci");
    }
}

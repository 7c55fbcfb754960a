//! The shared record envelope (`proof_trace::envelope`): layout, torn-tail
//! repair, concurrent appends, the escaper, and durability properties
//! over the head shape of every file that uses it — the run ledger, the
//! attempt log and the cell cache with its crash records. A
//! torn tail at any byte never breaks later appends or loses an intact
//! record, and a flipped byte never yields a record whose payload changed.

use std::path::{Path, PathBuf};

use proof_trace::attempts::{AttemptLog, AttemptRecord};
use proof_trace::envelope::{self, append, fnv1a, json_str, load, load_sealed, seal, Record};
use proptest::prelude::*;

fn scratch(tag: &str, salt: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("envelope-{tag}-{}-{salt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rec(i: usize) -> String {
    seal(&[("ev", "\"t\"")], &format!("{{\"i\":{i}}}"))
}

fn payloads(path: &Path, ev: &str) -> Vec<String> {
    load_sealed(path, ev, |p| Some(p.to_string()))
}

#[test]
fn seal_renders_the_documented_layout() {
    let payload = r#"{"a":"q\n"}"#;
    let line = seal(&[("ev", "\"run\""), ("v", "1")], payload);
    let expected = format!(
        r#"{{"ev":"run","v":1,"checksum":"{:016x}","payload":"{{\"a\":\"q\\n\"}}"}}"#,
        fnv1a(payload.as_bytes())
    );
    assert_eq!(line, expected);
    let record = Record::open(&line).unwrap();
    assert_eq!(record.str("ev"), Some("run"));
    assert_eq!(record.get("v").and_then(serde_json::Value::as_i64), Some(1));
    assert_eq!(record.payload(), Some(payload));
}

#[test]
fn tampered_checksum_hides_the_payload() {
    let line = rec(1).replacen("\"checksum\":\"", "\"checksum\":\"f", 1);
    assert_eq!(Record::open(&line).unwrap().payload(), None);
}

#[test]
fn append_creates_a_missing_parent_directory() {
    let dir = scratch("mkdir", 0);
    let path = dir.join("a").join("b.jsonl");
    assert!(append(&path, &[rec(1)]));
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!("{}\n", rec(1))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_to_an_empty_file_adds_no_repair_newline() {
    let dir = scratch("empty", 0);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e.jsonl");
    std::fs::write(&path, "").unwrap();
    assert!(append(&path, &[rec(1), rec(2)]));
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!("{}\n{}\n", rec(1), rec(2))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_terminates_a_torn_tail_first() {
    let dir = scratch("torn", 0);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.jsonl");
    let torn = &rec(1)[..10];
    std::fs::write(&path, format!("{}\n{torn}", rec(0))).unwrap();
    assert!(append(&path, &[rec(2)]));
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!("{}\n{torn}\n{}\n", rec(0), rec(2))
    );
    assert_eq!(payloads(&path, "t"), vec!["{\"i\":0}", "{\"i\":2}"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tail_torn_inside_a_utf8_character_spoils_only_its_line() {
    let dir = scratch("utf8", 0);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("u.jsonl");
    let mut bytes = format!("{}\n", rec(0)).into_bytes();
    bytes.extend_from_slice(&"{\"ev\":\"€".as_bytes()[..8]);
    std::fs::write(&path, bytes).unwrap();
    assert!(append(&path, &[rec(1)]));
    assert_eq!(payloads(&path, "t"), vec!["{\"i\":0}", "{\"i\":1}"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_of_a_missing_file_is_empty() {
    assert!(load(&scratch("missing", 0).join("none.jsonl")).is_empty());
}

#[test]
fn concurrent_batches_land_whole_and_contiguous() {
    const THREADS: usize = 8;
    const PER: usize = 200;
    let dir = scratch("concurrent", 0);
    let log = AttemptLog::at(dir.join("attempts.jsonl"));
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (log, start) = (&log, &start);
            s.spawn(move || {
                let batch: Vec<AttemptRecord> = (0..PER)
                    .map(|i| AttemptRecord {
                        theorem: format!("t{t}"),
                        tactic: "intros".to_string(),
                        expansions: i as u64,
                        ..AttemptRecord::default()
                    })
                    .collect();
                start.wait();
                assert!(log.append_all(&batch));
            });
        }
    });
    let loaded = log.load();
    assert_eq!(loaded.len(), THREADS * PER);
    for block in loaded.chunks(PER) {
        assert!(block.iter().all(|r| r.theorem == block[0].theorem));
        assert!(block
            .iter()
            .enumerate()
            .all(|(i, r)| r.expansions == i as u64));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn escaping_covers_controls_and_quotes() {
    assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
}

/// The head fields each envelope-backed file writes before the checksum.
fn head(shape: usize) -> Vec<(&'static str, &'static str)> {
    match shape % 3 {
        0 => vec![("ev", "\"run\""), ("v", "1")],
        1 => vec![("ev", "\"attempt\""), ("v", "1")],
        _ => vec![("ev", "\"cache\""), ("schema", "5")],
    }
}

/// The `ev` tag of [`head`], for loading.
fn ev(shape: usize) -> &'static str {
    ["run", "attempt", "cache"][shape % 3]
}

fn payload(i: u64, text: &str) -> String {
    format!("{{\"i\":{i},\"text\":{}}}", json_str(text))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Truncating the file at any byte offset never breaks future
    /// appends: the appended record always loads, and nothing loads that
    /// was not written whole.
    #[test]
    fn any_truncation_keeps_intact_records_and_later_appends(
        shape in 0usize..3,
        cut_back in 1usize..400,
        text in ".{0,24}",
    ) {
        let dir = scratch("cut", fnv1a(format!("{shape}/{cut_back}/{text}").as_bytes()));
        let path = dir.join("log.jsonl");
        let written: Vec<String> = (0..3).map(|i| payload(i, &text)).collect();
        let lines: Vec<String> = written.iter().map(|p| seal(&head(shape), p)).collect();
        prop_assert!(envelope::append(&path, &lines));
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len().saturating_sub(cut_back);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        // Records whose every byte survived the cut (a lost newline alone
        // is repaired by the next append).
        let mut end = 0;
        let intact = lines
            .iter()
            .take_while(|l| {
                end += l.len();
                let whole = end <= cut;
                end += 1;
                whole
            })
            .count();

        let last = payload(99, &text);
        prop_assert!(envelope::append(&path, &[seal(&head(shape), &last)]));
        let loaded = payloads(&path, ev(shape));
        prop_assert_eq!(loaded.len(), intact + 1);
        prop_assert_eq!(&loaded[..intact], &written[..intact]);
        prop_assert_eq!(loaded.last(), Some(&last));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any byte of a stored record either leaves its payload
    /// intact or hides the record — never a load failure, never a
    /// checksum pass over altered content.
    #[test]
    fn a_flipped_byte_never_passes_as_a_different_payload(
        shape in 0usize..3,
        pos_seed in 0u64..10_000,
        delta in 1u8..255,
        text in ".{0,24}",
    ) {
        let original = payload(7, &text);
        let line = seal(&head(shape), &original);
        let mut bytes = line.into_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        if let Ok(flipped) = std::str::from_utf8(&bytes) {
            if let Some(p) = Record::open(flipped).as_ref().and_then(Record::payload) {
                prop_assert_eq!(p, original.as_str());
            }
        }
    }
}

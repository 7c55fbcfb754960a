//! The one crash-safe record format every persisted log in the workspace
//! shares.
//!
//! A sealed record is a single-line JSON object: a few head fields (an
//! `"ev"` tag or a `"schema"` version, plus whatever keys the owner
//! needs), then `"checksum"` — FNV-1a of the payload as 16 hex digits —
//! and `"payload"`, the record's own JSON carried as an escaped string:
//!
//! ```text
//! {"ev":"run","v":1,"checksum":"<16 hex>","payload":"<escaped JSON>"}
//! ```
//!
//! Three files use it: the run ledger ([`crate::ledger`]), the attempt log
//! ([`crate::attempts`]) and the cell cache with its crash records (in
//! `proof-metrics`). JSONL owners write through [`append`], which
//! terminates a torn final line before adding theirs, and read through
//! [`load`], which skips any line that does not parse. A crash can cost at
//! most the lines being written, never the file.
//!
//! Records are read with the workspace's `serde_json`, and every string
//! the envelope writes goes through its escaper, so there is one JSON
//! reader and one escaper for every file.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use serde_json::Value;

/// FNV-1a over a byte string: the workspace's one content hash and record
/// checksum. Not cryptographic — it guards against torn writes and keys
/// caches, not adversaries. `#[inline]` so the generator's and the
/// analyzer's hot per-item hashing can still inline it across crates.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// `s` as a JSON string literal, quotes included.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}

/// A one-line JSON object from `(key, rendered JSON value)` pairs, in
/// order. Values are written verbatim: quote strings with [`json_str`].
pub fn object<V: AsRef<str>>(fields: &[(&str, V)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(k));
        out.push(':');
        out.push_str(v.as_ref());
    }
    out.push('}');
    out
}

/// Seals `payload` behind `head`: the head fields, then its checksum and
/// the payload as an escaped string.
pub fn seal<V: AsRef<str>>(head: &[(&str, V)], payload: &str) -> String {
    let checksum = format!("\"{:016x}\"", fnv1a(payload.as_bytes()));
    let escaped = json_str(payload);
    let mut fields: Vec<(&str, &str)> = head.iter().map(|(k, v)| (*k, v.as_ref())).collect();
    fields.push(("checksum", &checksum));
    fields.push(("payload", &escaped));
    object(&fields)
}

/// One parsed line: the top-level fields of a JSON object. Owners decode
/// a verified [`Record::payload`] with `serde_json` in turn.
#[derive(Debug, Clone)]
pub struct Record {
    fields: Value,
}

impl Record {
    /// Parses one record; `None` unless `text` is a complete JSON object.
    pub fn open(text: &str) -> Option<Record> {
        let fields: Value = serde_json::from_str(text).ok()?;
        fields.as_object().is_some().then_some(Record { fields })
    }

    /// The first field named `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// The string field named `key`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// The payload, only if its checksum verifies.
    pub fn payload(&self) -> Option<&str> {
        let payload = self.str("payload")?;
        let stored = self.str("checksum")?;
        (format!("{:016x}", fnv1a(payload.as_bytes())) == stored).then_some(payload)
    }
}

/// Appends `lines` to the JSONL file at `path`, creating it and its
/// parent directory as needed. If a crashed writer left the file without
/// a trailing newline, that torn line is terminated first, or the first
/// new line would merge into it and both would be lost. Everything goes
/// out in one `write_all` on an append-mode handle, so the batch lands
/// contiguously even while other threads or processes append to the same
/// file. Best-effort; returns whether the write succeeded.
pub fn append(path: &Path, lines: &[String]) -> bool {
    if lines.is_empty() {
        return true;
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let Ok(mut f) = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
    else {
        return false;
    };
    let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 1);
    if ends_torn(&mut f) {
        buf.push('\n');
    }
    for line in lines {
        debug_assert!(!line.contains('\n'), "records must be one line");
        buf.push_str(line);
        buf.push('\n');
    }
    f.write_all(buf.as_bytes()).is_ok()
}

/// True when the file is non-empty and its last byte is not a newline.
/// Reads one byte, never the file.
fn ends_torn(f: &mut std::fs::File) -> bool {
    let mut last = [0u8; 1];
    f.seek(SeekFrom::End(-1)).is_ok() && f.read_exact(&mut last).is_ok() && last[0] != b'\n'
}

/// Every record in the JSONL file at `path`, in file order. A missing
/// file is empty; blank lines and lines that are not a JSON object (a torn
/// tail, a hand-edit gone wrong) are skipped. Invalid UTF-8 — a tail torn
/// inside a multi-byte character — spoils only its own line.
pub fn load(path: &Path) -> Vec<Record> {
    let Ok(bytes) = std::fs::read(path) else {
        return Vec::new();
    };
    String::from_utf8_lossy(&bytes)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter_map(Record::open)
        .collect()
}

/// The checksum-verified payloads of every `"ev": ev` record in `path`,
/// each decoded by `decode`; records that fail any step are skipped.
pub fn load_sealed<T>(path: &Path, ev: &str, decode: impl Fn(&str) -> Option<T>) -> Vec<T> {
    load(path)
        .iter()
        .filter(|r| r.str("ev") == Some(ev))
        .filter_map(Record::payload)
        .filter_map(decode)
        .collect()
}

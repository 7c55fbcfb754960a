//! The persisted records' tolerance contract: a payload with any one field
//! missing still loads, with that field at its default, and an unknown key
//! is ignored — so old readers survive new writers and vice versa.

use std::collections::BTreeMap;
use std::fmt::Debug;

use proof_trace::attempts::AttemptRecord;
use proof_trace::ledger::RunRecord;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The top-level fields of `record`'s serialized payload.
fn fields<T: Serialize>(record: &T) -> Vec<(String, Value)> {
    match serde_json::to_value(record).unwrap() {
        Value::Object(fields) => fields,
        other => panic!("a record serializes as an object, got {other:?}"),
    }
}

/// Drops each field of `sample` in turn, adds an unknown key, and checks
/// that the payload loads with exactly that field reset to its default.
fn tolerates_missing_and_unknown_fields<T>(sample: &T)
where
    T: Serialize + Deserialize + Default + PartialEq + Debug,
{
    let full = fields(sample);
    let defaults = fields(&T::default());
    assert_eq!(full.len(), defaults.len());
    for (i, (key, value)) in full.iter().enumerate() {
        assert_ne!(value, &defaults[i].1, "the sample must set `{key}`");
        let mut payload = full.clone();
        payload.remove(i);
        payload.push(("unknown_key".to_string(), Value::Str("ignored".to_string())));
        let text = serde_json::to_string(&Value::Object(payload)).unwrap();
        let loaded: T = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("payload without `{key}` must load: {e}"));
        let mut expected = full.clone();
        expected[i].1 = defaults[i].1.clone();
        assert_eq!(
            fields(&loaded),
            expected,
            "`{key}` must read as its default"
        );
    }
}

#[test]
fn run_record_tolerates_missing_and_unknown_fields() {
    tolerates_missing_and_unknown_fields(&RunRecord {
        ts_unix: 1_754_000_000,
        bin: "table2".into(),
        label: "grid".into(),
        variant: "ci".into(),
        git_sha: "abc123def456".into(),
        corpus_hash: "0011223344556677".into(),
        jobs: 2,
        theorems: 294,
        proved: 106,
        wall_ms: 3120.5,
        thm_per_sec: 94.23,
        cache_hits: 3,
        cache_misses: 7,
        oracle_faults: 1,
        oracle_retries: 4,
        dropped_spans: 5,
        counters: BTreeMap::from([("intern.hits".to_string(), 42)]),
        phase_self_ms: BTreeMap::from([("oracle".to_string(), 1200.25)]),
    });
}

#[test]
fn attempt_record_tolerates_missing_and_unknown_fields() {
    tolerates_missing_and_unknown_fields(&AttemptRecord {
        theorem: "app_nil_l".into(),
        tactic: "apply app_nil_l".into(),
        premise: "app_nil_l".into(),
        features_schema: 1,
        outcome: "proved".into(),
        expansions: 7,
        depth: 2,
        query: 3,
        on_path: true,
    });
}

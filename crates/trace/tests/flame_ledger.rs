//! Flamegraph collapsed-stack export golden and run-ledger properties
//! (torn tail repair, arbitrary record content). Truncation and byte-flip
//! durability for every envelope-backed file is in `envelope_props.rs`.

use proof_trace::envelope::fnv1a;
use proof_trace::export::collapsed_stacks;
use proof_trace::ledger::{Ledger, RunRecord};
use proof_trace::report::Span;
use proptest::prelude::*;

fn span(id: u64, parent: u64, kind: &str, name: &str, dur_us: u64) -> Span {
    Span {
        id,
        parent,
        tid: 1,
        kind: kind.to_string(),
        name: name.to_string(),
        start_ns: id * 10,
        dur_ns: dur_us * 1_000,
    }
}

#[test]
fn collapsed_stacks_golden() {
    // cell
    // └─ thm (two children: oracle, stm) — self time = 100-40-25 = 35 µs
    //    ├─ oracle (leaf, 40 µs)
    //    └─ stm    (leaf, 25 µs)
    // cell self = 200-100 = 100 µs; a second identical oracle path merges.
    let spans = vec![
        span(1, 0, "cell", "mini/vanilla", 200),
        span(2, 1, "thm", "append_ok", 100),
        span(3, 2, "oracle", "propose", 40),
        span(4, 2, "stm", "add", 25),
    ];
    let got = collapsed_stacks(&spans);
    let expected = "\
cell:mini/vanilla 100
cell:mini/vanilla;thm:append_ok 35
cell:mini/vanilla;thm:append_ok;oracle:propose 40
cell:mini/vanilla;thm:append_ok;stm:add 25
";
    assert_eq!(got, expected);
}

#[test]
fn collapsed_stacks_sanitizes_separators() {
    let spans = vec![span(1, 0, "cell", "a;b c", 10)];
    let got = collapsed_stacks(&spans);
    assert_eq!(got, "cell:a_b_c 10\n");
}

#[test]
fn collapsed_stacks_orphan_becomes_root() {
    // Parent id 99 was dropped at the cap: the child renders as a root
    // rather than vanishing.
    let spans = vec![span(5, 99, "stm", "add", 12)];
    assert_eq!(collapsed_stacks(&spans), "stm:add 12\n");
}

fn sample_record(i: u64) -> RunRecord {
    RunRecord {
        ts_unix: 1_700_000_000 + i,
        bin: "table2".into(),
        label: "main-grid".into(),
        variant: String::new(),
        git_sha: "abc123def456".into(),
        corpus_hash: format!("{i:016x}"),
        jobs: 2,
        theorems: 147,
        proved: 53 + i,
        wall_ms: 1234.5 + i as f64,
        thm_per_sec: 60.0,
        ..RunRecord::default()
    }
}

#[test]
fn ledger_survives_torn_tail_then_appends() {
    let dir = std::env::temp_dir().join(format!("ledger-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("RUNS.jsonl");
    let ledger = Ledger::at(&path);
    assert!(ledger.append(&sample_record(1)));
    assert!(ledger.append(&sample_record(2)));

    // Tear the tail mid-record, the way a crash mid-write would.
    let mut text = std::fs::read_to_string(&path).unwrap();
    let keep = text.len() - 17;
    text.truncate(keep);
    std::fs::write(&path, &text).unwrap();

    // The next append must terminate the torn line and the loader must
    // keep every intact record, skip the torn one.
    assert!(ledger.append(&sample_record(3)));
    let loaded = ledger.load();
    assert_eq!(loaded.len(), 2, "record 1 intact + record 3 appended");
    assert_eq!(loaded[0].proved, 54);
    assert_eq!(loaded[1].proved, 56);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip: any record content survives serialize → append →
    /// load, including hostile strings in the free-text fields.
    #[test]
    fn ledger_round_trips_arbitrary_records(
        bin in ".{0,20}",
        label in ".{0,20}",
        variant in ".{0,20}",
        jobs in 0u64..512,
        theorems in 0u64..100_000,
        proved in 0u64..100_000,
        wall_us in 0u64..1_000_000_000,
        faults in 0u64..1_000,
    ) {
        let wall_ms = wall_us as f64 / 1e3;
        let dir = std::env::temp_dir().join(format!(
            "ledger-rt-{}-{}", std::process::id(), fastrand_seed(&bin, &label)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Ledger::at(dir.join("RUNS.jsonl"));
        let rec = RunRecord {
            ts_unix: 1_700_000_000,
            bin, label, variant,
            git_sha: "deadbeef".into(),
            corpus_hash: "0".repeat(16),
            jobs, theorems, proved, wall_ms,
            thm_per_sec: 1.5,
            oracle_faults: faults,
            ..RunRecord::default()
        };
        prop_assert!(ledger.append(&rec));
        let loaded = ledger.load();
        prop_assert_eq!(loaded.len(), 1);
        let got = &loaded[0];
        prop_assert_eq!(&got.bin, &rec.bin);
        prop_assert_eq!(&got.label, &rec.label);
        prop_assert_eq!(&got.variant, &rec.variant);
        prop_assert_eq!(got.theorems, rec.theorems);
        prop_assert_eq!(got.proved, rec.proved);
        prop_assert_eq!(got.oracle_faults, rec.oracle_faults);
        prop_assert!((got.wall_ms - rec.wall_ms).abs() < 1e-9 * rec.wall_ms.max(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Tiny deterministic hash for temp-dir naming inside proptest cases
/// (`Date::now`-free, collision-tolerant — the dirs are removed anyway).
fn fastrand_seed(a: &str, b: &str) -> u64 {
    fnv1a(format!("{a}{b}").as_bytes())
}

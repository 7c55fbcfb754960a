//! Every bench binary reads its command line through one declaration
//! (`proof_chaos::cli`): a flag it does not take is a usage error before
//! any work, value flags take both spellings, and each binary's `//!`
//! usage block is the usage its declaration prints.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BINS: [(&str, &str); 14] = [
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("calibrate", env!("CARGO_BIN_EXE_calibrate")),
    ("corpus_analyze", env!("CARGO_BIN_EXE_corpus_analyze")),
    ("corpus_stats", env!("CARGO_BIN_EXE_corpus_stats")),
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("gen", env!("CARGO_BIN_EXE_gen")),
    ("preflight", env!("CARGO_BIN_EXE_preflight")),
    ("radar", env!("CARGO_BIN_EXE_radar")),
    ("rank", env!("CARGO_BIN_EXE_rank")),
    ("sec43", env!("CARGO_BIN_EXE_sec43")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("trace_report", env!("CARGO_BIN_EXE_trace_report")),
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(exe: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .env("LEDGER_PATH", dir.join("ledger.jsonl"))
        .output()
        .expect("spawn the bin")
}

fn collapse(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn an_unknown_flag_is_a_usage_error_before_any_work() {
    let dir = scratch("unknown");
    for (name, exe) in BINS {
        let out = run(exe, &["--no-such-flag"], &dir);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(out.stdout.is_empty(), "{name} printed to stdout");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{name} wrote {written:?}");

        let usage = err.find("usage:").map(|i| &err[i..]);
        let usage = collapse(&usage.expect("a usage line").replace("usage:", ""));
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("src/bin/{name}.rs"));
        let src = std::fs::read_to_string(src).unwrap();
        let doc: Vec<&str> = src.lines().filter_map(|l| l.strip_prefix("//!")).collect();
        assert!(
            collapse(&doc.join(" ")).contains(&usage),
            "{name}: its //! usage block should read `{usage}`"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_analyze_reads_both_spellings_of_dir() {
    let dir = scratch("dir");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../fscq/corpus");
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "v") {
            std::fs::copy(&path, corpus.join(path.file_name().unwrap())).unwrap();
        }
    }
    let exe = env!("CARGO_BIN_EXE_corpus_analyze");
    let joined = run(exe, &["--dir=corpus"], &dir);
    let split = run(exe, &["--dir", "corpus"], &dir);
    let text = String::from_utf8_lossy(&split.stdout);
    assert!(text.contains("analysis :"), "{text}");
    assert_eq!(joined.status.code(), split.status.code());
    assert_eq!(joined.stdout, split.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_analyze_reports_each_hygiene_code() {
    let dir = scratch("hygiene");
    std::fs::create_dir_all(dir.join("corpus")).unwrap();
    std::fs::write(
        dir.join("corpus/Hygiene.v"),
        "Definition t : nat := 0.\n\
         Lemma t : 0 = 0.\nProof. reflexivity. Qed.\n\
         Lemma s : forall n : nat, forall n : nat, n = n.\nProof. intros. reflexivity. Qed.\n\
         Lemma u : forall n : nat, n = n -> 0 = 0.\nProof. intros n H. reflexivity. Qed.\n",
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_corpus_analyze"),
        &["--dir", "corpus"],
        &dir,
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    for code in ["duplicate-name", "shadowed-binder", "unused-hypothesis"] {
        let findings = text
            .lines()
            .filter(|l| l.starts_with("finding") && l.ends_with(&format!("[{code}]")))
            .count();
        assert_eq!(findings, 1, "{code}: {text}");
    }
    assert!(text.contains("Hygiene:2: t: "), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

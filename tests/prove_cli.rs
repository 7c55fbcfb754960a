//! Drives the `prove` binary end to end: exit codes, output shape, and the
//! kernel-replay line a downstream user would script against.

use std::process::Command;

fn prove(args: &[&str]) -> (bool, String) {
    prove_with_env(args, &[])
}

fn prove_with_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_prove"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn prove");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn proves_a_theorem_and_replays_it() {
    let (ok, text) = prove(&["ndata_log_padded_log", "--model", "gpt4o"]);
    assert!(ok, "{text}");
    assert!(text.contains("proof   :"), "{text}");
    assert!(text.contains("QED (kernel-checked)"), "{text}");
}

#[test]
fn failure_exits_nonzero_with_the_outcome() {
    // A one-query budget cannot prove anything beyond a lucky root close.
    let (ok, text) = prove(&["incl_tl_inv", "--model", "mini", "--limit", "1"]);
    assert!(!ok, "{text}");
    assert!(text.contains("not proved"), "{text}");
}

#[test]
fn unknown_theorem_is_a_clean_error() {
    let (ok, text) = prove(&["definitely_not_a_theorem"]);
    assert!(!ok);
    assert!(text.contains("unknown theorem"), "{text}");
}

#[test]
fn bad_flags_print_usage() {
    let (ok, text) = prove(&["add_0_l", "--model", "gpt5"]);
    assert!(!ok);
    assert!(text.contains("usage:"), "{text}");
}

#[test]
fn retrieval_flag_prunes_the_prompt() {
    let (_, full) = prove(&["write_buffers", "--model", "gpt4o"]);
    let (ok, pruned) = prove(&["write_buffers", "--model", "gpt4o", "--retrieval", "16"]);
    let lemmas = |s: &str| {
        s.lines()
            .find(|l| l.contains("lemmas"))
            .and_then(|l| {
                l.split("tokens / ")
                    .nth(1)?
                    .split_whitespace()
                    .next()?
                    .parse::<usize>()
                    .ok()
            })
            .unwrap_or(usize::MAX)
    };
    assert!(lemmas(&pruned) <= 16, "{pruned}");
    assert!(lemmas(&pruned) < lemmas(&full), "{pruned}\n{full}");
    // This particular theorem is the motivating case: retrieval wins.
    assert!(ok, "{pruned}");
}

#[test]
fn show_query_prints_the_payload() {
    let (_, text) = prove(&["add_0_l", "--show-query", "--limit", "2"]);
    assert!(text.contains("--- query payload ---"), "{text}");
    assert!(text.contains("Next tactic:"), "{text}");
    assert!(text.contains("Current proof state"), "{text}");
}

#[test]
fn a_copied_corpus_is_served_from_an_embedded_baseline() {
    let dir = std::env::temp_dir().join(format!("prove-cli-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (corpus, baseline) = (dir.join("corpus"), dir.join("baseline"));
    std::fs::create_dir_all(&corpus).unwrap();
    // Copy the modules in an order unrelated to their names or imports.
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fscq/corpus");
    let mut modules: Vec<std::path::PathBuf> = std::fs::read_dir(&src)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "v"))
        .collect();
    modules.sort_by_key(|p| std::cmp::Reverse(std::fs::metadata(p).unwrap().len()));
    assert_eq!(modules.len(), 10);
    for m in &modules {
        std::fs::copy(m, corpus.join(m.file_name().unwrap())).unwrap();
    }
    let (ok, text) = prove(&[
        "--incremental",
        "--save-baseline",
        baseline.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    let (ok, text) = prove(&[
        "--incremental",
        "--baseline",
        baseline.to_str().unwrap(),
        "--corpus",
        corpus.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    assert!(
        text.contains("58 theorems — 0 re-verified, 0 cone-cache hits, 58 from baseline"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_worker_count_follows_the_jobs_flag_then_the_environment() {
    let dir = std::env::temp_dir().join(format!("prove-cli-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let save = |jobs_flag: Option<&str>, env_jobs: &str, name: &str| {
        let out = dir.join(name);
        let mut args = vec![
            "--incremental",
            "--save-baseline",
            out.to_str().unwrap(),
            "--limit",
            "2",
        ];
        args.extend(jobs_flag);
        let (ok, text) = prove_with_env(&args, &[("JOBS", env_jobs)]);
        assert!(ok, "{text}");
        (text, std::fs::read(out.join("baseline.json")).unwrap())
    };
    let (flagged, two) = save(Some("--jobs=2"), "3", "j2");
    assert!(flagged.contains("2 worker(s)"), "{flagged}");
    let (from_env, one) = save(None, "1", "j1");
    assert!(from_env.contains("1 worker(s)"), "{from_env}");
    assert!(two == one, "the baseline depends on the worker count");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_flag_exits_2_with_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_prove"))
        .args(["add_0_l", "--no-such-flag"])
        .output()
        .expect("spawn prove");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty());
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn incremental_value_flags_take_both_spellings() {
    let dir = std::env::temp_dir().join(format!("prove-cli-spelling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fscq/corpus");
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "v") {
            std::fs::copy(&path, corpus.join(path.file_name().unwrap())).unwrap();
        }
    }
    let save = |name: &str, corpus_flags: &[String]| {
        let out = dir.join(name);
        let mut args = vec![
            "--incremental".to_string(),
            "--save-baseline".to_string(),
            out.to_str().unwrap().to_string(),
            "--limit=2".to_string(),
        ];
        args.extend_from_slice(corpus_flags);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (ok, text) = prove(&args);
        assert!(ok, "{text}");
        std::fs::read(out.join("baseline.json")).unwrap()
    };
    let corpus = corpus.to_str().unwrap();
    let joined = save("joined", &[format!("--corpus={corpus}")]);
    let split = save("split", &["--corpus".to_string(), corpus.to_string()]);
    assert!(
        joined == split,
        "the two spellings saved different baselines"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

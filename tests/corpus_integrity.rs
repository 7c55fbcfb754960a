//! Corpus integrity: every human proof checks, and the corpus has the
//! structural properties the evaluation depends on.
//!
//! The per-theorem checks are corpus-agnostic ([`check_statement_round_trips`]
//! and friends take any loaded [`Development`]): they run over the embedded
//! FSCQ-lite corpus, over the pinned-seed generated fixture corpus
//! (`fixtures/gen_1k.json`, rebuilt in-test — sources are never committed),
//! and, when `CORPUS_DIR` points at a directory written by
//! `gen generate`, over that external corpus too.

use llm_fscq::corpus::{Category, Corpus};
use llm_fscq::oracle::split::{eval_set, eval_set_small, hint_set};
use llm_fscq::oracle::tokenizer::{bin_of, count_tokens};
use llm_fscq::vernac::Development;

#[test]
fn every_human_proof_replays() {
    // The strictest corpus test: replay all 238 proofs through the kernel.
    let corpus = Corpus::load_checked().unwrap_or_else(|e| panic!("corpus broken: {e}"));
    assert!(corpus.len() >= 200, "corpus shrank to {}", corpus.len());
}

#[test]
fn corpus_has_the_papers_shape() {
    let corpus = Corpus::load();
    let n = corpus.len();

    // All three categories are populated, with Utilities the largest (as
    // in FSCQ).
    let mut by_cat = [0usize; 3];
    for t in &corpus.dev.theorems {
        by_cat[corpus.category_of(t) as usize] += 1;
    }
    assert!(by_cat.iter().all(|c| *c >= 20), "{by_cat:?}");
    assert!(by_cat[Category::Utilities as usize] >= by_cat[Category::FileSystem as usize]);

    // A long-tailed length distribution: most proofs are short, but the
    // upper bins are inhabited.
    let mut bins = [0usize; 7];
    for t in &corpus.dev.theorems {
        bins[bin_of(count_tokens(&t.proof_text))] += 1;
    }
    assert!(bins[0] > 0 && bins[1] > 0 && bins[2] > 0 && bins[3] > 0);
    assert!(bins[4] + bins[5] + bins[6] > 0, "no long proofs: {bins:?}");
    let under64: usize = bins[..3].iter().sum();
    let share = under64 as f64 / n as f64;
    assert!(
        (0.5..0.95).contains(&share),
        "under-64-token share {share:.2} out of range"
    );
}

#[test]
fn hint_split_and_samples_are_consistent() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let eval = eval_set(&corpus.dev);
    let small = eval_set_small(&corpus.dev);
    assert_eq!(hints.len() + eval.len(), corpus.len());
    assert!(small.len() < eval.len());
    for i in &small {
        assert!(eval.contains(i), "sampled theorem outside the eval set");
    }
    // Stability: the same split on a fresh load.
    let again = Corpus::load();
    assert_eq!(hints, hint_set(&again.dev));
    assert_eq!(eval, eval_set(&again.dev));
}

#[test]
fn env_before_hides_the_future() {
    let corpus = Corpus::load();
    // For a mid-corpus theorem, earlier lemmas are visible and later ones
    // are not — the environment a prover legitimately has.
    let t = corpus.dev.theorem("incl_tl_inv").unwrap();
    let env = corpus.dev.env_before(t);
    assert!(env.lemma("incl_cons_inv").is_some());
    assert!(env.lemma("in_eq").is_some());
    assert!(env.lemma("incl_tl_inv").is_none());
    assert!(env.lemma("ptsto_valid").is_none());
    // The final environment has everything.
    assert!(corpus.dev.env.lemma("incl_tl_inv").is_some());
    assert!(corpus.dev.env.lemma("ptsto_valid").is_some());
}

#[test]
fn figure2_case_lemmas_exist() {
    let corpus = Corpus::load();
    for name in [
        "incl_tl_inv",
        "ndata_log_padded_log",
        "tree_name_distinct_head",
    ] {
        assert!(corpus.dev.theorem(name).is_some(), "{name} missing");
    }
}

/// Corpus-agnostic check: the rendered form of every theorem statement
/// must reparse to an alpha-equal formula in its own environment. The
/// prompt builder and the goal display both lean on this. Returns the
/// round-tripped count; tolerated misses must involve empty-list literals
/// (the one form the printer cannot reconstruct).
fn check_statement_round_trips(dev: &Development, ctx: &str) -> usize {
    let mut ok = 0usize;
    for thm in &dev.theorems {
        let env = dev.env_before(thm);
        let printed = llm_fscq::minicoq::pretty::formula_to_string(&thm.stmt);
        match llm_fscq::minicoq::parse::parse_formula(env, &printed) {
            Ok(back) => {
                assert_eq!(
                    llm_fscq::minicoq::statehash::formula_key(&thm.stmt),
                    llm_fscq::minicoq::statehash::formula_key(&back),
                    "{ctx}: {}: round-trip changed the statement",
                    thm.name
                );
                ok += 1;
            }
            Err(e) => {
                // The one information the printer cannot reconstruct is a
                // sort ascription on an empty-list literal (the source
                // wrote `(nil : list A)`); anything else is a bug.
                assert!(
                    printed.contains("[]") || printed.contains("nil"),
                    "{ctx}: {}: `{printed}`: {e}",
                    thm.name
                );
            }
        }
    }
    ok
}

/// Corpus-agnostic check: the first sentence of each human proof must
/// parse against the fresh goal — the property hint-script head-word
/// statistics rely on. Returns how many did.
fn check_first_sentences_parse(dev: &Development, ctx: &str) -> usize {
    let mut checked = 0;
    for thm in &dev.theorems {
        let env = dev.env_before(thm);
        let sents = llm_fscq::minicoq::parse::split_sentences(&thm.proof_text);
        assert!(!sents.is_empty(), "{ctx}: {} has an empty proof", thm.name);
        let st = llm_fscq::minicoq::goal::ProofState::new(thm.stmt.clone());
        if llm_fscq::minicoq::parse::parse_tactic(env, st.focused(), &sents[0]).is_ok() {
            checked += 1;
        }
    }
    checked
}

#[test]
fn every_statement_pretty_prints_and_reparses() {
    let corpus = Corpus::load();
    let ok = check_statement_round_trips(&corpus.dev, "embedded");
    assert!(
        ok * 100 >= corpus.len() * 95,
        "only {ok}/{} statements round-trip",
        corpus.len()
    );
}

#[test]
fn every_proof_splits_into_parseable_first_sentences() {
    let corpus = Corpus::load();
    let checked = check_first_sentences_parse(&corpus.dev, "embedded");
    // Virtually all first sentences parse standalone (a handful use
    // notations that need the post-intro context).
    assert!(
        checked * 100 >= corpus.len() * 95,
        "only {checked}/{} first sentences parse",
        corpus.len()
    );
}

/// The checked-in fixture: spec plus the invariants the rebuilt corpus
/// must reproduce.
fn gen_1k_fixture() -> (llm_fscq::gen::GenSpec, usize, usize, String) {
    let text = std::fs::read_to_string("fixtures/gen_1k.json").expect("fixtures/gen_1k.json");
    let v: serde_json::Value = serde_json::from_str(&text).expect("fixture parses");
    let field = |obj: &serde_json::Value, key: &str| -> serde_json::Value {
        obj.as_object()
            .expect("fixture object")
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("fixture missing `{key}`"))
            .1
            .clone()
    };
    let spec_json = serde_json::to_string(&field(&v, "spec")).expect("spec renders");
    let spec: llm_fscq::gen::GenSpec = serde_json::from_str(&spec_json).expect("fixture spec");
    let expected = field(&v, "expected");
    let int = |key: &str| match field(&expected, key) {
        serde_json::Value::Int(i) => i as usize,
        other => panic!("fixture `{key}`: expected integer, got {other:?}"),
    };
    let fingerprint = match field(&expected, "fingerprint") {
        serde_json::Value::Str(s) => s,
        other => panic!("fixture fingerprint: {other:?}"),
    };
    (spec, int("count"), int("modules"), fingerprint)
}

#[test]
fn generated_fixture_corpus_rebuilds_and_passes_integrity() {
    // The 1k-theorem corpus is pinned by seed, not by committed sources:
    // rebuild it and hold it to the same bar as the embedded corpus.
    let (spec, count, modules, fingerprint) = gen_1k_fixture();
    let corpus = llm_fscq::gen::generate(&spec);
    assert_eq!(corpus.manifest.count, count, "fixture corpus size drifted");
    assert_eq!(corpus.manifest.modules, modules);
    assert_eq!(
        corpus.manifest.fingerprint, fingerprint,
        "generator output drifted from the pinned fixture — if the change \
         is intentional, regenerate fixtures/gen_1k.json"
    );
    let report = llm_fscq::gen::validate(&corpus);
    assert!(
        report.is_clean(),
        "witness validation failed: {:?}",
        report.failures
    );
    assert_eq!(report.replayed, count);
    // Per-module integrity, same checks as the embedded corpus — and for
    // generated modules there is no tolerated miss.
    for (name, src) in &corpus.modules {
        let mut loader = llm_fscq::vernac::Loader::new().check_proofs(false);
        loader.add_source(name.clone(), src.clone());
        let dev = loader.load().unwrap_or_else(|e| panic!("{name}: {e}"));
        let n = dev.theorems.len();
        assert_eq!(check_statement_round_trips(&dev, name), n);
        assert_eq!(check_first_sentences_parse(&dev, name), n);
    }
}

#[test]
fn external_corpus_dir_passes_integrity_when_set() {
    // The directory-argument entry point: point CORPUS_DIR at any corpus
    // written by `gen generate` and the integrity suite covers it.
    let Ok(dir) = std::env::var("CORPUS_DIR") else {
        return;
    };
    let corpus = llm_fscq::gen::read_dir(std::path::Path::new(&dir))
        .unwrap_or_else(|e| panic!("CORPUS_DIR={dir}: {e}"));
    let report = llm_fscq::gen::validate(&corpus);
    assert!(
        report.is_clean(),
        "CORPUS_DIR={dir}: validation failed: {:?}",
        report.failures
    );
    for (name, src) in &corpus.modules {
        let mut loader = llm_fscq::vernac::Loader::new().check_proofs(false);
        loader.add_source(name.clone(), src.clone());
        let dev = loader.load().unwrap_or_else(|e| panic!("{name}: {e}"));
        let n = dev.theorems.len();
        assert_eq!(check_statement_round_trips(&dev, name), n);
        assert_eq!(check_first_sentences_parse(&dev, name), n);
    }
}

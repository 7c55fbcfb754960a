//! Per-theorem environment snapshots share what they have in common.
//!
//! The loader keeps one environment snapshot per theorem, and the lemma
//! declared after each snapshot must not copy the lemmas the snapshot
//! already holds: otherwise loading a corpus of `n` theorems copies
//! O(n²) statements. Consecutive snapshots therefore hold every earlier
//! lemma, and every earlier hint name, at the same address.
//!
//! A shared lemma also shares its cached rule readings, whichever snapshot
//! built them, so those readings must not depend on the snapshot.

use llm_fscq::corpus::Corpus;
use llm_fscq::minicoq::env::{Env, Lemma, PredDef};
use llm_fscq::minicoq::rule::{Rule, RuleForm};
use llm_fscq::vernac::{Development, Loader};

#[test]
fn consecutive_snapshots_share_every_earlier_lemma() {
    let corpus = Corpus::load();
    let dev = &corpus.dev;
    let mut pairs = 0;
    for w in dev.theorems.windows(2) {
        let (earlier, later) = (dev.env_before(&w[0]), dev.env_before(&w[1]));
        assert!(earlier.lemmas.len() < later.lemmas.len());
        for i in 0..earlier.lemmas.len() {
            let (a, b): (&Lemma, &Lemma) = (&earlier.lemmas[i], &later.lemmas[i]);
            assert!(
                std::ptr::eq(a, b),
                "lemma {} was copied between the snapshots of {} and {}",
                a.name,
                w[0].name,
                w[1].name
            );
        }
        for (db, names) in earlier.hints.iter() {
            let after = later.hint_db(db);
            for (i, name) in names.iter().enumerate() {
                let (a, b): (&str, &str) = (name, &after[i]);
                assert!(
                    std::ptr::eq(a, b),
                    "hint {a} in {db} was copied between the snapshots of {} and {}",
                    w[0].name,
                    w[1].name
                );
            }
        }
        pairs += 1;
    }
    assert!(pairs >= 200, "only {pairs} snapshot pairs");
}

/// Every reading of a rule, forced in `env`: both instances with their
/// unifiers, the exposed statement, and each normal-form conclusion with
/// its cost.
fn readings(env: &Env, rule: &Rule) -> String {
    let form = |f: &RuleForm| {
        let normal = f.normal_conclusion(env);
        format!("{:?} {:?} {normal:?}", f.instance(), f.unifier())
    };
    let exposed = rule.exposed(env).map(form);
    format!(
        "{} | {:?} {exposed:?}",
        form(rule.plain()),
        rule.exposed_stmt(env)
    )
}

/// Checks that every lemma and inductive-predicate rule of `dev` reads the
/// same in the first snapshot that can see it as in the final environment,
/// so the readings a lemma caches never depend on which snapshot built
/// them. Returns how many were compared.
fn readings_ignore_later_declarations(dev: &Development) -> usize {
    let last = &dev.env;
    let mut names: Vec<&str> = last.lemmas.iter().map(|l| l.name.as_str()).collect();
    for p in last.preds.values() {
        if let PredDef::Inductive(ip) = p {
            names.extend(ip.rules.iter().map(|(rn, _)| rn.as_str()));
        }
    }
    let mut compared = 0;
    for name in names {
        let declared = last.rule_or_lemma(name).expect("declared");
        // A theorem's own snapshot is the environment it was stated in;
        // any other declaration's is the first snapshot that holds it.
        let first = match dev.theorem(name) {
            Some(t) => Some(dev.env_before(t)),
            None => dev
                .theorems
                .iter()
                .map(|t| dev.env_before(t))
                .find(|env| env.rule_or_lemma(name).is_some()),
        };
        let Some(first) = first else { continue };
        let fresh = Rule::fresh(&declared.stmt);
        let in_last = readings(last, &fresh);
        assert_eq!(readings(first, &fresh), in_last, "{name}");
        assert_eq!(readings(last, &declared.rule()), in_last, "{name}");
        compared += 1;
    }
    compared
}

#[test]
fn rule_facts_do_not_depend_on_the_snapshot() {
    let corpus = Corpus::load();
    let embedded = readings_ignore_later_declarations(&corpus.dev);
    assert!(embedded >= 250, "only {embedded} embedded declarations");

    let fixture = std::path::Path::new("fixtures/gen_1k.json");
    let generated = llm_fscq::gen::generate_pinned(fixture).expect("pinned corpus");
    let mut compared = 0;
    for (name, src) in &generated.modules {
        let mut loader = Loader::new().check_proofs(false);
        loader.add_source(name.clone(), src.clone());
        let dev = loader.load().unwrap_or_else(|e| panic!("{name}: {e}"));
        compared += readings_ignore_later_declarations(&dev);
    }
    assert!(compared >= 1000, "only {compared} generated declarations");
}

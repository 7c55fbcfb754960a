//! Per-theorem environment snapshots share what they have in common.
//!
//! The loader keeps one environment snapshot per theorem, and the lemma
//! declared after each snapshot must not copy the lemmas the snapshot
//! already holds: otherwise loading a corpus of `n` theorems copies
//! O(n²) statements. Consecutive snapshots therefore hold every earlier
//! lemma, and every earlier hint name, at the same address.

use llm_fscq::corpus::Corpus;
use llm_fscq::minicoq::env::Lemma;

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

//! Premise ranking: a goal-directed, stable permutation of each hint
//! database — never an addition or removal.

use std::collections::BTreeSet;
use std::sync::Arc;

use corpus_analysis::premise::reranked_env;
use minicoq_vernac::Loader;

const SRC: &str = "Sort blob.\n\
    Definition idb (b : blob) : blob := b.\n\
    Lemma near : forall (b : blob), idb b = b.\n\
    Proof. unfold idb. reflexivity. Qed.\n\
    Lemma far : forall (n : nat), le n n.\n\
    Proof. auto. Qed.\n\
    Hint Resolve far.\n\
    Hint Resolve near.\n";

fn load() -> minicoq_vernac::loader::Development {
    let mut loader = Loader::new().check_proofs(false);
    loader.add_source("Gen", SRC);
    loader.load().unwrap()
}

#[test]
fn reranking_is_a_permutation() {
    let dev = load();
    let goal = &dev.theorem("near").unwrap().stmt;
    let ranked = reranked_env(&dev.env, goal);
    assert_eq!(dev.env.hints.len(), ranked.hints.len());
    for (db, hints) in dev.env.hints.iter() {
        let before: BTreeSet<&str> = hints.iter().map(|h| &**h).collect();
        let after: BTreeSet<&str> = ranked.hints[db].iter().map(|h| &**h).collect();
        assert_eq!(before, after, "db {db} changed contents");
        assert_eq!(hints.len(), ranked.hints[db].len(), "db {db} changed size");
    }
}

#[test]
fn goal_adjacent_hints_rank_first() {
    let dev = load();
    // `near`'s statement shares symbols (blob, idb) with the goal;
    // `far` lives in a disconnected nat/le component. Declaration order
    // puts far first, ranking must put near first.
    let goal = &dev.theorem("near").unwrap().stmt;
    let core = dev.env.hint_db("core");
    let pos = |db: &[Arc<str>], name: &str| db.iter().position(|h| &**h == name).unwrap();
    assert!(pos(core, "far") < pos(core, "near"), "fixture order broke");
    let ranked = reranked_env(&dev.env, goal);
    let rcore = ranked.hint_db("core");
    assert!(
        pos(rcore, "near") < pos(rcore, "far"),
        "ranked order: {rcore:?}"
    );
}

#[test]
fn unreachable_hints_keep_declaration_order() {
    let dev = load();
    // A goal over the nat component leaves blob-side hints unreachable;
    // ties and unreachable hints preserve their relative order (stable
    // sort), keeping the permutation deterministic.
    let goal = &dev.theorem("far").unwrap().stmt;
    let ranked = reranked_env(&dev.env, goal);
    let a = reranked_env(&dev.env, goal);
    assert_eq!(
        ranked.hint_db("core"),
        a.hint_db("core"),
        "nondeterministic"
    );
}

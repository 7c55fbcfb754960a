//! Property: the dependency graph is closed under reference. For any
//! generated development, every identifier a statement or hint mentions
//! either resolves to a graph symbol (and contributes an edge) or is
//! recorded in `graph.unresolved` — nothing silently vanishes.

use corpus_analysis::graph::{formula_refs, DepGraph};
use corpus_analysis::{analyze_sources, AnalysisConfig};
use minicoq_vernac::Loader;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Renders a generated development: a chain of unary functions (each
/// body referencing an earlier one), equational lemmas over random pairs
/// of them, and hints on a random subset of the lemmas.
fn render(funcs: usize, lemmas: &[(usize, usize)], hints: &[usize]) -> String {
    let mut src = String::new();
    for i in 0..funcs {
        let body = if i == 0 {
            "S n".to_string()
        } else {
            format!("f{} (S n)", i - 1)
        };
        src.push_str(&format!("Definition f{i} (n : nat) : nat := {body}.\n"));
    }
    for (k, (a, b)) in lemmas.iter().enumerate() {
        src.push_str(&format!(
            "Lemma g{k} : forall (n : nat), f{a} n = f{b} n.\nProof. auto. Qed.\n"
        ));
    }
    for h in hints {
        src.push_str(&format!("Hint Resolve g{h}.\n"));
    }
    src
}

proptest! {
    /// Every name referenced from a generated development's statements
    /// resolves to a symbol with a matching out-edge, and nothing lands
    /// in `unresolved`.
    #[test]
    fn generated_graphs_are_closed_under_reference(
        funcs in 1usize..5,
        pairs in proptest::collection::vec((0usize..5, 0usize..5), 1..6),
        hint_picks in proptest::collection::vec(0usize..6, 0..4),
    ) {
        let lemmas: Vec<(usize, usize)> = pairs
            .into_iter()
            .map(|(a, b)| (a % funcs, b % funcs))
            .collect();
        let hints: Vec<usize> = hint_picks
            .into_iter()
            .map(|h| h % lemmas.len())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let src = render(funcs, &lemmas, &hints);
        let sources = vec![("Gen".to_string(), src.clone())];
        let (report, graph) =
            analyze_sources(&sources, &AnalysisConfig::default()).expect("generated dev loads");
        // Closure: a loadable development has no dangling references.
        prop_assert!(graph.unresolved.is_empty(), "unresolved in:\n{src}");
        // Every statement-level reference is an out-edge of its lemma.
        let mut loader = Loader::new().check_proofs(false);
        loader.add_source("Gen", src.clone());
        let dev = loader.load().unwrap();
        for thm in &dev.theorems {
            let from = graph.lookup(&thm.name).expect("lemma is a symbol");
            let out: BTreeSet<usize> = graph.out(from).collect();
            let mut refs = BTreeSet::new();
            formula_refs(&thm.stmt, &mut refs);
            for r in refs {
                let to = graph.lookup(&r);
                prop_assert!(to.is_some(), "{} -> {r} resolves", thm.name);
                prop_assert!(
                    out.contains(&to.unwrap()),
                    "edge {} -> {r} present", thm.name
                );
            }
        }
        // And the analyzer agrees: no unknown-ref findings.
        prop_assert!(
            !report.findings.iter().any(|f| f.code == corpus_analysis::Code::UnknownRef),
            "unexpected unknown-ref in:\n{src}"
        );
    }

    /// A dangling reference (a hint db name nothing declares) is always
    /// *reported*, never dropped: closure's other half.
    #[test]
    fn dangling_names_are_always_reported(db in "[a-z]{3,8}") {
        let src = format!(
            "Lemma anchor : forall (n : nat), le n n.\nProof. auto. Qed.\n\
             Hint Resolve anchor : {db}.\n"
        );
        let sources = vec![("Gen".to_string(), src)];
        let (_, graph) =
            analyze_sources(&sources, &AnalysisConfig::default()).expect("loads");
        // `db` may collide with a declared name (e.g. a prelude symbol);
        // the property is conditional on it being genuinely undeclared.
        if graph.lookup(&db).is_none() {
            prop_assert!(
                graph.unresolved.iter().any(|u| u.name == db),
                "dangling {db} not reported"
            );
        }
    }
}

/// `DepGraph::build` agrees with the loader on which file declares each
/// theorem (spot-check on a two-file development with imports).
#[test]
fn graph_attributes_symbols_to_their_files() {
    let a = "Definition base (n : nat) : nat := S n.\n";
    let b = "Require Import A.\nLemma uses_base : forall (n : nat), base n = S n.\n\
             Proof. unfold base. reflexivity. Qed.\n";
    let mut loader = Loader::new().check_proofs(false);
    loader.add_source("A", a);
    loader.add_source("B", b);
    let dev = loader.load().unwrap();
    let graph = DepGraph::build(&dev);
    let base = graph.symbol(graph.lookup("base").unwrap());
    assert_eq!(base.file, "A");
    assert_eq!(base.line, 1);
    let lem = graph.symbol(graph.lookup("uses_base").unwrap());
    assert_eq!(lem.file, "B");
    assert_eq!(lem.line, 2);
    // The cross-file reference edge exists.
    let out: Vec<usize> = graph.out(graph.lookup("uses_base").unwrap()).collect();
    assert!(out.contains(&graph.lookup("base").unwrap()));
}

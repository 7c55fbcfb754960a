//! Property tests for state stamps (their agreement with the canonical
//! state key) and the parse → pretty → parse round trip.

use proptest::prelude::*;

use minicoq::env::Env;
use minicoq::formula::Formula;
use minicoq::goal::ProofState;
use minicoq::parse::parse_formula;
use minicoq::pretty::formula_to_string;
use minicoq::sort::Sort;
use minicoq::statehash::{state_key, state_stamp};
use minicoq::term::Term;

/// Closed-ish arithmetic terms over `nat` with two free variables.
fn arb_nat_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u64..6).prop_map(Term::nat),
        Just(Term::var("x")),
        Just(Term::var("y")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::App("add".into(), vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::App("mul".into(), vec![a, b])),
            inner.prop_map(|a| Term::App("S".into(), vec![a])),
        ]
    })
}

/// Wraps a term equation into a closed statement binding both free vars.
fn closed_eq(t: &Term, u: &Term) -> Formula {
    Formula::forall(
        "x",
        Sort::nat(),
        Formula::forall(
            "y",
            Sort::nat(),
            Formula::Eq(Sort::nat(), t.clone(), u.clone()),
        ),
    )
}

proptest! {
    #[test]
    fn state_stamp_keys_join_to_the_state_key(t in arb_nat_term(), u in arb_nat_term()) {
        // A stamp's per-goal keys, each followed by a newline, concatenate
        // to the canonical state key.
        let st = ProofState::new(closed_eq(&t, &u));
        let joined: String = state_stamp(&st).iter().map(|k| format!("{k}\n")).collect();
        prop_assert_eq!(joined, state_key(&st));
    }

    #[test]
    fn parse_pretty_parse_round_trips(t in arb_nat_term(), u in arb_nat_term()) {
        let env = Env::with_prelude();
        let f = closed_eq(&t, &u);
        // Pretty-print the formula and parse it back: the statement must
        // survive unchanged.
        let printed = formula_to_string(&f);
        let reparsed = parse_formula(&env, &printed)
            .unwrap_or_else(|e| panic!("pretty output failed to reparse: {printed}: {e}"));
        prop_assert_eq!(&reparsed, &f, "round trip moved: {}", printed);
        // And the printer is a fixpoint on reparsed output.
        prop_assert_eq!(formula_to_string(&reparsed), printed);
    }
}

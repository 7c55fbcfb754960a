//! Per-reason regression tests for the static pre-flight checker, plus
//! its contract with the evaluator as a property: every statically
//! rejected tactic also fails in the real evaluator (a reject the
//! evaluator would have accepted would silently change search results),
//! and every whole fuel-free step (`intro`, `intros`, `clear`, `revert`,
//! `exists`, `symmetry`, `assert`, `split`, `left`, `right`, `exfalso`)
//! is run, not just accepted, as the sentence or as the first step of a
//! tactical: its handed-on goals, committed through `apply_tactic_timed`,
//! give the evaluator's result at the evaluator's fuel, at every budget.
//! A missed reject of any other tactic only costs time.

use minicoq::analysis::{preflight_state, PreflightVerdict, ReasonCode};
use minicoq::env::Env;
use minicoq::fuel::Fuel;
use minicoq::goal::ProofState;
use minicoq::parse::{parse_formula, parse_tactic};
use minicoq::tactic::{apply_tactic, apply_tactic_timed, Tactic};
use proptest::prelude::*;

const FUEL: u64 = 1_000_000;

/// Builds a proof state for `stmt` and advances it through `setup` with
/// the real evaluator.
fn state(env: &Env, stmt: &str, setup: &[&str]) -> ProofState {
    let f = parse_formula(env, stmt).expect("statement parses");
    let mut st = ProofState::new(f);
    for s in setup {
        let tac = parse_tactic(env, st.focused(), s).expect("setup parses");
        let mut fuel = Fuel::new(FUEL);
        st = apply_tactic(env, &st, &tac, &mut fuel).expect("setup applies");
    }
    st
}

/// Asserts the checker rejects `tactic` with `expect`, and — the soundness
/// half — that the evaluator rejects it too.
fn assert_rejects(env: &Env, st: &ProofState, tactic: &str, expect: ReasonCode) {
    let tac = parse_tactic(env, st.focused(), tactic).expect("tactic parses");
    match preflight_state(env, st, &tac, FUEL) {
        PreflightVerdict::Reject(r) => {
            assert_eq!(
                r.code, expect,
                "`{tactic}` rejected for the wrong reason: {r}"
            );
        }
        v => panic!("`{tactic}` was not statically rejected: {v:?}"),
    }
    let mut fuel = Fuel::new(FUEL);
    assert!(
        apply_tactic(env, st, &tac, &mut fuel).is_err(),
        "`{tactic}` was statically rejected but the evaluator accepts it"
    );
}

fn env_with(lemmas: &[(&str, &str)]) -> Env {
    let mut env = Env::with_prelude();
    for (name, stmt) in lemmas {
        let f = parse_formula(&env, stmt).expect("lemma parses");
        env.add_lemma(name.to_string(), f).expect("lemma adds");
    }
    env
}

// ------------------------------------------------- one test per reason code

#[test]
fn unknown_name_unused_hypothesis_reference() {
    let env = Env::with_prelude();
    let st = state(&env, "0 = 0", &[]);
    assert_rejects(&env, &st, "clear H", ReasonCode::UnknownName);
    assert_rejects(&env, &st, "destruct H", ReasonCode::UnknownName);
}

#[test]
fn name_in_use_on_double_intro() {
    let env = Env::with_prelude();
    let st = state(&env, "forall n : nat, forall m : nat, 0 = 0", &[]);
    assert_rejects(&env, &st, "intros n n", ReasonCode::NameInUse);
}

#[test]
fn head_mismatch_on_apply() {
    let env = env_with(&[("tt_lemma", "True")]);
    let st = state(&env, "0 = 0", &[]);
    assert_rejects(&env, &st, "apply tt_lemma", ReasonCode::HeadMismatch);
}

#[test]
fn non_equation_on_rewrite() {
    let env = env_with(&[("tt_lemma", "True")]);
    let st = state(&env, "0 = 0", &[]);
    assert_rejects(&env, &st, "rewrite tt_lemma", ReasonCode::NonEquation);
}

#[test]
fn not_inductive_on_destruct_of_sort_variable() {
    let env = Env::with_prelude();
    let st = state(
        &env,
        "forall A : Sort, forall x : A, x = x",
        &["intros A x"],
    );
    assert_rejects(&env, &st, "destruct x", ReasonCode::NotInductive);
    assert_rejects(&env, &st, "induction x", ReasonCode::NotInductive);
}

#[test]
fn atomic_conclusion_on_intro() {
    let env = Env::with_prelude();
    let st = state(&env, "0 = 0", &[]);
    assert_rejects(&env, &st, "intro", ReasonCode::AtomicConclusion);
}

#[test]
fn goal_shape_on_connective_mismatch() {
    let env = Env::with_prelude();
    let st = state(&env, "0 = 0", &[]);
    assert_rejects(&env, &st, "split", ReasonCode::GoalShape);
    assert_rejects(&env, &st, "left", ReasonCode::GoalShape);
}

#[test]
fn goal_shape_on_rewrite_without_matching_subterm() {
    let env = env_with(&[("add_one", "forall n : nat, add n 1 = S n")]);
    let st = state(&env, "True /\\ True", &[]);
    assert_rejects(&env, &st, "rewrite add_one", ReasonCode::GoalShape);
}

#[test]
fn arity_mismatch_on_forward_apply_of_premiseless_lemma() {
    let env = env_with(&[("tt_lemma", "True")]);
    let st = state(&env, "True -> 0 = 0", &["intros H"]);
    assert_rejects(&env, &st, "apply tt_lemma in H", ReasonCode::ArityMismatch);
}

#[test]
fn malformed_tactical_dispatch_arity() {
    let env = Env::with_prelude();
    let st = state(&env, "0 = 0 /\\ 1 = 1", &[]);
    // `split` yields exactly two goals; a one-branch dispatch can never
    // distribute over them.
    assert_rejects(
        &env,
        &st,
        "split; [reflexivity]",
        ReasonCode::MalformedTactical,
    );
}

#[test]
fn empty_context_on_discriminate() {
    let env = Env::with_prelude();
    let st = state(&env, "0 = 0", &[]);
    assert_rejects(&env, &st, "discriminate", ReasonCode::EmptyContext);
}

#[test]
fn always_fails_on_fail() {
    let env = Env::with_prelude();
    let st = state(&env, "0 = 0", &[]);
    assert_rejects(&env, &st, "fail", ReasonCode::AlwaysFails);
}

// ------------------------------------------------------------ the property

/// Plausible-looking tactic text: real tactic heads over a small pool of
/// names, some of which exist in the test goals and some of which do not.
fn tactic_soup() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("intros".to_string()),
        Just("intro".to_string()),
        Just("reflexivity".to_string()),
        Just("assumption".to_string()),
        Just("split".to_string()),
        Just("left".to_string()),
        Just("right".to_string()),
        Just("constructor".to_string()),
        Just("discriminate".to_string()),
        Just("fail".to_string()),
        Just("simpl".to_string()),
        "(apply|rewrite|destruct|induction|clear|revert|exact|specialize) (H|H0|n|m|x|ghost|conj_intro|le_n)".prop_map(|s| s),
        "intros [a-z]{1,2} [a-z]{1,2}",
        "intro (H|n|x|A|ghost)",
        "(clear|revert) (H|n|x) (H0|m|x)",
        "(split|intros|apply le_n); \\[(reflexivity)?\\]",
        // Tacticals over whole-step and other heads.
        "(intros|intro|split|left|right|exfalso|symmetry|reflexivity|simpl|constructor|destruct n|induction n); (intros|intro H|split|left|reflexivity|assumption|simpl)",
        "first \\[(split|intros|left|reflexivity|fail) \\| (left|right|intro|assumption)\\]",
        "(split|intro|left|fail) \\|\\| (right|intros|reflexivity)",
        "idtac; (intros|intro H|split|left|exists 0|symmetry|reflexivity)",
        "idtac; \\[(intros|split|right|reflexivity)\\]",
        // Dispatch over heads whose goal count is known before they run,
        // over closers, and over whole steps.
        "(destruct (H|n)|induction (n|m)); \\[(reflexivity|assumption|intros|simpl)( \\| (reflexivity|assumption|simpl))?\\]",
        "rewrite (H|H0|add_zero|add_zero_if); \\[(reflexivity|assumption|simpl)( \\| (reflexivity|assumption))?\\]",
        "(reflexivity|assumption|split|intros); \\[(reflexivity|assumption|intros)( \\| (reflexivity|assumption)){0,2}\\]",
        "(exists|assert) \\((0|n|x|ghost)\\)",
        "assert \\(H : (0|n) = 0\\)",
        "symmetry( in (H|H0))?",
        Just("exfalso".to_string()),
    ]
}

/// Whether the checker runs `tac` whole instead of only screening it.
fn runs_whole(tac: &Tactic) -> bool {
    matches!(
        tac,
        Tactic::Intro(_)
            | Tactic::Intros(_)
            | Tactic::Clear(_)
            | Tactic::Revert(_)
            | Tactic::ExistsTac(_)
            | Tactic::Symmetry(_)
            | Tactic::Assert(..)
            | Tactic::Split
            | Tactic::Left
            | Tactic::Right
            | Tactic::Exfalso
    )
}

/// Whether the first goal step `tac` reaches is a whole step wherever
/// the checker can tell: then it is run and handed on, not only accepted.
/// (A `first` passes the verdict to a later alternative when its first is
/// rejected, so it is left out.)
fn hands_on(tac: &Tactic) -> bool {
    match tac {
        Tactic::Seq(t1, t2) => match **t1 {
            Tactic::Idtac => hands_on(t2),
            _ => hands_on(t1),
        },
        Tactic::SeqDispatch(t1, ts) => match (&**t1, ts.as_slice()) {
            (Tactic::Idtac, [t]) => hands_on(t),
            _ => hands_on(t1),
        },
        _ => runs_whole(tac),
    }
}

/// Goals of assorted shapes so every checker branch gets exercised: a
/// statement, and the steps that lead to the state the soup starts on.
fn goal_pool() -> impl Strategy<Value = (&'static str, &'static [&'static str])> {
    prop_oneof![
        Just(("0 = 0", &[][..])),
        Just(("forall n : nat, n = n", &[][..])),
        Just(("forall n : nat, le 0 n -> le 0 n", &[][..])),
        Just(("0 = 0 /\\ 1 = 1", &[][..])),
        Just(("0 = 0 \\/ 1 = 2", &[][..])),
        Just(("True", &[][..])),
        Just(("forall A : Sort, forall x : A, x = x", &[][..])),
        Just(("exists n : nat, n = 0", &[][..])),
        Just(("forall n m : nat, n = m -> m = n \\/ False", &[][..])),
        // Equations to rewrite with, an inductive variable, and a
        // disjunction to destruct, already in context.
        Just((
            "forall n m : nat, n = m -> add n 0 = m",
            &["intros n m H"][..]
        )),
        Just((
            "forall n : nat, add n 0 = n /\\ n = add n 0",
            &["intros n"][..]
        )),
        Just((
            "forall n : nat, (0 = 0 \\/ n = n) -> n = n",
            &["intros n H"][..]
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The no-false-positive invariant: whatever the soup throws at it,
    /// a static `Reject` implies the evaluator also fails. A whole step is
    /// never merely accepted, and with the goals it hands on the evaluator
    /// commits, at every budget, what it computes live for the same fuel;
    /// elsewhere the checker may miss failures.
    #[test]
    fn statically_rejected_tactics_also_fail_dynamically(
        start in goal_pool(),
        tactics in proptest::collection::vec(tactic_soup(), 1..8),
    ) {
        let env = env_with(&[
            ("conj_intro", "True /\\ True"),
            ("add_zero", "forall n : nat, add n 0 = n"),
            ("add_zero_if", "forall n : nat, le 0 n -> add n 0 = n"),
        ]);
        let mut st = state(&env, start.0, start.1);
        for text in tactics {
            let Ok(tac) = parse_tactic(&env, st.focused(), &text) else {
                continue;
            };
            let verdict = preflight_state(&env, &st, &tac, FUEL);
            let mut fuel = Fuel::new(FUEL);
            let result = apply_tactic(&env, &st, &tac, &mut fuel);
            match verdict {
                PreflightVerdict::Reject(r) => prop_assert!(
                    result.is_err(),
                    "false positive: `{}` statically rejected ({}) but evaluator accepted it on:\n{}",
                    text, r, st.display()
                ),
                PreflightVerdict::Ran(goals) => {
                    for budget in 0..=fuel.spent() + 1 {
                        let (mut charged, mut live) = (Fuel::new(budget), Fuel::new(budget));
                        let handed =
                            apply_tactic_timed(&env, &st, &tac, Some(goals.clone()), &mut charged);
                        prop_assert_eq!(
                            &handed,
                            &apply_tactic(&env, &st, &tac, &mut live),
                            "`{}` at fuel {}: handed on other than the evaluator's on:\n{}",
                            text,
                            budget,
                            st.display()
                        );
                        prop_assert_eq!(
                            charged.spent(),
                            live.spent(),
                            "`{}` at fuel {}: handed on at other fuel than the evaluator's",
                            text,
                            budget
                        );
                    }
                }
                PreflightVerdict::Accept => prop_assert!(
                    !hands_on(&tac),
                    "missed: whole first step of `{}` only accepted on:\n{}",
                    text, st.display()
                ),
            }
            // Keep walking through whatever actually succeeded, so later
            // iterations see intermediate states too.
            if let Ok(next) = result {
                if !next.is_complete() {
                    st = next;
                }
            }
        }
    }
}

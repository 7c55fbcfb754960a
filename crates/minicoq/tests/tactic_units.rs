//! Focused unit tests for every tactic of the proof language: one success
//! and at least one rejection edge per tactic, exercised directly against
//! the prelude environment. `script_replay.rs` covers whole proofs; this
//! file pins the per-tactic semantics (including the deliberate deviations
//! documented on the `Tactic` enum).

use minicoq::env::Env;
use minicoq::error::TacticError;
use minicoq::fuel::Fuel;
use minicoq::goal::ProofState;
use minicoq::parse::{parse_formula, parse_tactic, split_sentences};
use minicoq::statehash::state_key;
use minicoq::tactic::apply_tactic;

/// Replays `script` against `stmt`, returning the final state or the first
/// error (prefixed with the failing sentence).
fn replay(env: &Env, stmt: &str, script: &str) -> Result<ProofState, (String, TacticError)> {
    let f = parse_formula(env, stmt).unwrap_or_else(|e| panic!("statement `{stmt}`: {e}"));
    let mut st = ProofState::new(f);
    for sentence in split_sentences(script) {
        let tac = match parse_tactic(env, st.focused(), &sentence) {
            Ok(t) => t,
            Err(e) => return Err((sentence, e)),
        };
        match apply_tactic(env, &st, &tac, &mut Fuel::unlimited()) {
            Ok(next) => st = next,
            Err(e) => return Err((sentence, e)),
        }
    }
    Ok(st)
}

/// Asserts the script proves the statement.
fn proves(env: &Env, stmt: &str, script: &str) {
    match replay(env, stmt, script) {
        Ok(st) => assert!(st.is_complete(), "incomplete for {stmt}:\n{}", st.display()),
        Err((s, e)) => panic!("`{s}` failed for {stmt}: {e}"),
    }
}

/// Asserts the script's last sentence is rejected (not a timeout).
fn rejects(env: &Env, stmt: &str, script: &str) {
    match replay(env, stmt, script) {
        Ok(st) => panic!("expected rejection for {stmt}, got:\n{}", st.display()),
        Err((_, TacticError::Timeout)) => panic!("expected rejection, got timeout for {stmt}"),
        Err(_) => {}
    }
}

/// Runs the script and returns the resulting (incomplete) state.
fn state_after(env: &Env, stmt: &str, script: &str) -> ProofState {
    match replay(env, stmt, script) {
        Ok(st) => st,
        Err((s, e)) => panic!("`{s}` failed for {stmt}: {e}"),
    }
}

// ---------------------------------------------------------------- intro(s)

#[test]
fn intro_names_the_binder() {
    let env = Env::with_prelude();
    let st = state_after(&env, "forall k : nat, k = k", "intro k.");
    let g = st.focused().unwrap();
    assert!(g.var_sort("k").is_some());
    assert_eq!(g.display().lines().last().unwrap().trim(), "k = k");
}

#[test]
fn intro_on_implication_adds_hypothesis() {
    let env = Env::with_prelude();
    let st = state_after(&env, "0 = 0 -> 0 = 0", "intro H.");
    assert!(st.focused().unwrap().hyp("H").is_some());
}

#[test]
fn intro_rejected_on_atomic_goal() {
    let env = Env::with_prelude();
    rejects(&env, "0 = 0", "intro x.");
}

#[test]
fn intros_is_a_noop_when_nothing_to_introduce() {
    // Coq-faithful deviation: bare `intros` never fails.
    let env = Env::with_prelude();
    proves(&env, "0 = 0", "intros. intros. reflexivity.");
}

#[test]
fn intros_with_explicit_names_requires_enough_binders() {
    let env = Env::with_prelude();
    rejects(&env, "forall n : nat, n = n", "intros n m.");
}

#[test]
fn intros_avoids_capturing_existing_names() {
    let env = Env::with_prelude();
    // After `intro n`, a second automatic intro must pick a fresh name.
    let st = state_after(&env, "forall n : nat, forall m : nat, n = n", "intros.");
    let g = st.focused().unwrap();
    assert!(g.var_sort("n").is_some() && g.var_sort("m").is_some());
}

// ------------------------------------------------------- exact / assumption

#[test]
fn exact_closes_up_to_conversion() {
    let env = Env::with_prelude();
    // `add 0 n` is convertible to `n`, so H : n = n closes `add 0 n = n`.
    proves(
        &env,
        "forall n : nat, n = n -> add 0 n = n",
        "intros n H. exact H.",
    );
}

#[test]
fn exact_rejected_on_mismatch() {
    let env = Env::with_prelude();
    rejects(
        &env,
        "forall n : nat, n = n -> n = 0",
        "intros n H. exact H.",
    );
}

#[test]
fn assumption_scans_all_hypotheses() {
    let env = Env::with_prelude();
    proves(&env, "0 = 0 -> 1 = 1 -> 1 = 1", "intros H1 H2. assumption.");
}

#[test]
fn assumption_rejected_when_nothing_matches() {
    let env = Env::with_prelude();
    rejects(&env, "0 = 0 -> 1 = 0", "intros H. assumption.");
}

// ------------------------------------------------------------------- apply

#[test]
fn apply_lemma_backward_leaves_premises() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n m : nat, n = m -> S n = S m").unwrap();
    env.add_lemma("f_equal_S", l).unwrap();
    let st = state_after(&env, "S 1 = S 1", "apply f_equal_S.");
    assert_eq!(st.goals.len(), 1);
    assert!(st.focused().unwrap().display().contains("1 = 1"));
}

#[test]
fn apply_hypothesis_as_modus_ponens() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, (n = n -> 0 = 0) -> 0 = 0",
        "intros n H. apply H. reflexivity.",
    );
}

#[test]
fn apply_rejected_when_conclusion_does_not_unify() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, le n n").unwrap();
    env.add_lemma("le_refl", l).unwrap();
    rejects(&env, "0 = 0", "apply le_refl.");
}

#[test]
fn apply_in_hypothesis_moves_forward() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n m : nat, S n = S m -> n = m").unwrap();
    env.add_lemma("succ_inj", l).unwrap();
    proves(
        &env,
        "forall a b : nat, S a = S b -> a = b",
        "intros a b H. apply succ_inj in H. exact H.",
    );
}

#[test]
fn apply_iff_uses_both_directions() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, le n 0 <-> n = 0").unwrap();
    env.add_lemma("le_0_iff", l).unwrap();
    // Backward: goal n = 0 via the -> reading.
    proves(
        &env,
        "forall n : nat, le n 0 -> n = 0",
        "intros n H. apply le_0_iff. exact H.",
    );
    // Forward in a hypothesis: le n 0 becomes n = 0.
    proves(
        &env,
        "forall n : nat, le n 0 -> n = 0",
        "intros n H. apply le_0_iff in H. exact H.",
    );
}

#[test]
fn eapply_discharges_metavariable_premises_by_backchaining() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall a b c : nat, le a b -> le b c -> le a c").unwrap();
    env.add_lemma("le_trans", l).unwrap();
    // Deviation: premises whose statement mentions an undetermined
    // metavariable are discharged by bounded backchaining at `eapply`
    // time. Here H1 fixes the midpoint, so only `le y z` remains.
    let st = state_after(
        &env,
        "forall x y z : nat, le x y -> le y z -> le x z",
        "intros x y z H1 H2. eapply le_trans.",
    );
    assert_eq!(st.goals.len(), 1, "{}", st.display());
    proves(
        &env,
        "forall x y z : nat, le x y -> le y z -> le x z",
        "intros x y z H1 H2. eapply le_trans. exact H2.",
    );
}

// --------------------------------------------- split / left / right / exists

#[test]
fn split_conjunction_gives_two_goals() {
    let env = Env::with_prelude();
    let st = state_after(&env, "0 = 0 /\\ 1 = 1", "split.");
    assert_eq!(st.goals.len(), 2);
    proves(&env, "0 = 0 /\\ 1 = 1", "split. reflexivity. reflexivity.");
}

#[test]
fn split_works_on_iff() {
    let env = Env::with_prelude();
    proves(
        &env,
        "0 = 0 <-> 1 = 1",
        "split. intros H. reflexivity. intros H. reflexivity.",
    );
}

#[test]
fn split_rejected_on_disjunction() {
    let env = Env::with_prelude();
    rejects(&env, "0 = 0 \\/ 1 = 0", "split.");
}

#[test]
fn left_right_select_disjuncts() {
    let env = Env::with_prelude();
    proves(&env, "0 = 0 \\/ 1 = 0", "left. reflexivity.");
    proves(&env, "1 = 0 \\/ 0 = 0", "right. reflexivity.");
    rejects(&env, "0 = 0 /\\ 1 = 1", "left.");
}

#[test]
fn exists_takes_a_witness() {
    let env = Env::with_prelude();
    proves(&env, "exists n : nat, n = 2", "exists 2. reflexivity.");
    rejects(&env, "exists n : nat, n = 2", "exists 1. reflexivity.");
}

#[test]
fn constructor_picks_an_applicable_rule() {
    let env = Env::with_prelude();
    // le_n closes le 3 3.
    proves(&env, "le 3 3", "constructor.");
    // For le 2 3, constructor must use le_S and leave le 2 2.
    proves(&env, "le 2 3", "constructor. constructor.");
}

// ---------------------------------------------------------------- destruct

#[test]
fn destruct_nat_splits_into_ctor_cases() {
    let env = Env::with_prelude();
    let st = state_after(&env, "forall n : nat, le 0 n", "intros n. destruct n.");
    assert_eq!(st.goals.len(), 2);
}

#[test]
fn destruct_as_names_the_components() {
    let env = Env::with_prelude();
    let st = state_after(
        &env,
        "forall n : nat, n = n",
        "intros n. destruct n as [|k].",
    );
    assert!(st.goals[1].var_sort("k").is_some());
}

#[test]
fn destruct_conjunction_hypothesis() {
    let env = Env::with_prelude();
    proves(
        &env,
        "0 = 0 /\\ 1 = 1 -> 1 = 1",
        "intros H. destruct H as [H0 H1]. exact H1.",
    );
}

#[test]
fn destruct_disjunction_hypothesis_cases() {
    let env = Env::with_prelude();
    proves(
        &env,
        "0 = 0 \\/ 0 = 0 -> 0 = 0",
        "intros H. destruct H as [H|H]. exact H. exact H.",
    );
}

#[test]
fn destruct_exists_hypothesis_opens_the_witness() {
    let env = Env::with_prelude();
    proves(
        &env,
        "(exists n : nat, le 1 n) -> exists m : nat, le 1 m",
        "intros H. destruct H as [w Hw]. exists w. exact Hw.",
    );
}

#[test]
fn destruct_bool_covers_true_false() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall b : bool, orb b (negb b) = true",
        "intros b. destruct b. reflexivity. reflexivity.",
    );
}

#[test]
fn destruct_eqn_records_the_equation_goal_only() {
    let env = Env::with_prelude();
    // Deviation: the eqn: equation is available, the goal is case-split,
    // hypotheses are untouched.
    let st = state_after(
        &env,
        "forall n : nat, sub n n = 0",
        "intros n. destruct n eqn:E.",
    );
    assert_eq!(st.goals.len(), 2);
    assert!(st.goals[0].hyp("E").is_some());
}

#[test]
fn destruct_list_gives_nil_and_cons() {
    let env = Env::with_prelude();
    let st = state_after(
        &env,
        "forall (A : Sort) (l : list A), l = l",
        "intros A l. destruct l as [|x xs].",
    );
    assert_eq!(st.goals.len(), 2);
    assert!(st.goals[1].var_sort("x").is_some());
    assert!(st.goals[1].var_sort("xs").is_some());
}

// --------------------------------------------------------------- induction

#[test]
fn induction_gives_base_and_inductive_hypothesis() {
    let env = Env::with_prelude();
    let st = state_after(
        &env,
        "forall n : nat, add n 0 = n",
        "intros n. induction n.",
    );
    assert_eq!(st.goals.len(), 2);
    assert!(
        st.goals[1].hyp("IHn").is_some(),
        "{}",
        st.goals[1].display()
    );
}

#[test]
fn induction_names_the_recursive_argument_after_the_variable() {
    // Like Coq: `induction l1` calls the tail `l1` and its hypothesis
    // `IHl1`; the head takes its sort's base name.
    let env = Env::with_prelude();
    let st = state_after(
        &env,
        "forall (l1 : list nat), l1 = l1",
        "intros l1. induction l1.",
    );
    let step = &st.goals[1];
    let vars: Vec<&str> = step.vars.iter().map(|(v, _)| v.as_str()).collect();
    assert_eq!(vars, ["n", "l1"], "{}", step.display());
    assert!(step.hyp("IHl1").is_some(), "{}", step.display());
}

#[test]
fn induction_auto_introduces_up_to_the_target() {
    // Coq introduces goal-bound binders up to the induction variable.
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, add n 0 = n",
        "induction n. reflexivity. simpl. rewrite IHn. reflexivity.",
    );
}

#[test]
fn induction_rejected_on_unknown_variable() {
    let env = Env::with_prelude();
    rejects(&env, "0 = 0", "induction q.");
}

#[test]
fn induction_is_restricted_to_context_variables() {
    // Deviation: rule induction on a derivation hypothesis is not
    // supported; `destruct`/`inversion` cover those corpus uses.
    let env = Env::with_prelude();
    rejects(
        &env,
        "forall n m : nat, le n m -> le n (S m)",
        "intros n m H. induction H.",
    );
    // The same fact goes through the le_S rule directly.
    proves(
        &env,
        "forall n m : nat, le n m -> le n (S m)",
        "intros n m H. constructor. exact H.",
    );
}

// ---------------------------------------- inversion / injection / discriminate

#[test]
fn inversion_on_le_zero_forces_equality() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, le n 0 -> n = 0",
        "intros n H. inversion H. reflexivity.",
    );
}

#[test]
fn inversion_on_impossible_hypothesis_closes_the_goal() {
    let env = Env::with_prelude();
    // le (S n) 0 has no derivation.
    proves(
        &env,
        "forall n : nat, le (S n) 0 -> 1 = 0",
        "intros n H. inversion H.",
    );
}

#[test]
fn injection_peels_constructors() {
    // Deviation: the component equations land directly in the context
    // (H0, H1, ...) rather than as goal premises.
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n m : nat, S n = S m -> n = m",
        "intros n m H. injection H. exact H0.",
    );
    rejects(
        &env,
        "forall n m : nat, n = m -> n = m",
        "intros n m H. injection H.",
    );
}

#[test]
fn discriminate_on_constructor_clash() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, 0 = S n -> 1 = 0",
        "intros n H. discriminate H.",
    );
    rejects(
        &env,
        "forall n : nat, n = n -> 1 = 0",
        "intros n H. discriminate H.",
    );
}

#[test]
fn subst_eliminates_variable_equations() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n m : nat, n = m -> le n m",
        "intros n m H. subst. constructor.",
    );
}

// ------------------------------------------------- rewrite / simpl / unfold

#[test]
fn rewrite_left_to_right_and_back() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, add n 0 = n").unwrap();
    env.add_lemma("add_0_r", l).unwrap();
    proves(
        &env,
        "forall k : nat, add k 0 = k",
        "intros k. rewrite add_0_r. reflexivity.",
    );
    // <- direction with a hypothesis equation: replace b by a.
    proves(
        &env,
        "forall a b : nat, a = b -> b = a",
        "intros a b H. rewrite <- H. reflexivity.",
    );
}

#[test]
fn rewrite_in_hypothesis() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, add n 0 = n").unwrap();
    env.add_lemma("add_0_r", l).unwrap();
    proves(
        &env,
        "forall a b : nat, add a 0 = b -> a = b",
        "intros a b H. rewrite add_0_r in H. exact H.",
    );
}

#[test]
fn rewrite_rejected_when_lhs_absent() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, mul n 0 = 0").unwrap();
    env.add_lemma("mul_0_r", l).unwrap();
    rejects(&env, "0 = 0", "rewrite mul_0_r.");
}

#[test]
fn conditional_rewrite_emits_the_side_condition() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, le n 0 -> add n 0 = 0").unwrap();
    env.add_lemma("add_le0", l).unwrap();
    let st = state_after(&env, "add 0 0 = 0", "rewrite add_le0.");
    // Rewritten goal plus the le side condition.
    assert_eq!(st.goals.len(), 2);
    proves(
        &env,
        "add 0 0 = 0",
        "rewrite add_le0. reflexivity. constructor.",
    );
}

#[test]
fn rewrite_with_a_hypothesis_equation() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall a b : nat, a = b -> add a 0 = add b 0",
        "intros a b H. rewrite H. reflexivity.",
    );
}

#[test]
fn simpl_reduces_recursive_calls() {
    let env = Env::with_prelude();
    let st = state_after(
        &env,
        "forall n : nat, add (S 0) n = S n",
        "intros n. simpl.",
    );
    assert!(
        st.focused().unwrap().display().contains("S n = S n"),
        "{}",
        st.display()
    );
}

#[test]
fn simpl_in_hypothesis() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, add 0 n = 1 -> n = 1",
        "intros n H. simpl in H. exact H.",
    );
}

#[test]
fn unfold_expands_defined_predicates() {
    let env = Env::with_prelude();
    // lt n m is defined as le (S n) m.
    proves(&env, "lt 0 1", "unfold lt. constructor.");
}

#[test]
fn unfold_rejected_on_unknown_name() {
    let env = Env::with_prelude();
    rejects(&env, "0 = 0", "unfold frobnicate.");
}

// -------------------------------- reflexivity / symmetry / f_equal / congruence

#[test]
fn reflexivity_decides_conversion() {
    let env = Env::with_prelude();
    proves(&env, "add 2 2 = 4", "reflexivity.");
    rejects(&env, "add 2 2 = 5", "reflexivity.");
}

#[test]
fn symmetry_flips_goal_and_hypothesis() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall a b : nat, a = b -> b = a",
        "intros a b H. symmetry. exact H.",
    );
    proves(
        &env,
        "forall a b : nat, a = b -> b = a",
        "intros a b H. symmetry in H. exact H.",
    );
}

#[test]
fn f_equal_peels_matching_heads() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall a b : nat, a = b -> S a = S b",
        "intros a b H. f_equal. exact H.",
    );
}

#[test]
fn congruence_chains_equations() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall a b c : nat, a = b -> b = c -> S a = S c",
        "intros a b c H1 H2. congruence.",
    );
    rejects(
        &env,
        "forall a b : nat, a = b -> a = 0",
        "intros a b H. congruence.",
    );
}

// -------------------------------------------------------------------- lia

#[test]
fn lia_proves_linear_facts() {
    let env = Env::with_prelude();
    proves(&env, "forall n : nat, le n (S n)", "intros n. lia.");
    proves(
        &env,
        "forall a b : nat, le a b -> le b a -> a = b",
        "intros a b H1 H2. lia.",
    );
}

#[test]
fn lia_rejects_nonlinear_or_false_goals() {
    let env = Env::with_prelude();
    rejects(&env, "forall n : nat, le (S n) n", "intros n. lia.");
}

#[test]
fn lia_uses_strict_bounds() {
    let env = Env::with_prelude();
    proves(&env, "forall n : nat, lt n 1 -> n = 0", "intros n H. lia.");
}

// ------------------------------------------------------ auto / trivial / etc.

#[test]
fn auto_closes_via_hint_database() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, le 0 n").unwrap();
    env.add_lemma("le_0_n", l).unwrap();
    env.add_hint("core", "le_0_n");
    proves(&env, "le 0 10", "auto.");
}

#[test]
fn auto_using_supplies_extra_lemmas() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, le 0 n").unwrap();
    env.add_lemma("le_0_n", l).unwrap();
    // le 0 10 needs eleven rule applications — past auto's depth bound —
    // but the un-hinted lemma closes it in one step when supplied.
    rejects(&env, "le 0 10", "auto.");
    proves(&env, "le 0 10", "auto using le_0_n.");
}

#[test]
fn trivial_closes_reflexive_goals() {
    let env = Env::with_prelude();
    proves(&env, "0 = 0", "trivial.");
}

#[test]
fn contradiction_uses_false_or_negation_pairs() {
    let env = Env::with_prelude();
    proves(&env, "False -> 0 = 1", "intros H. contradiction.");
    // As in Coq: a ~P hypothesis contradicts a P hypothesis.
    proves(
        &env,
        "forall n : nat, n = 0 -> ~ n = 0 -> 0 = 1",
        "intros n H Hn. contradiction.",
    );
    rejects(&env, "0 = 0 -> 0 = 1", "intros H. contradiction.");
}

#[test]
fn exfalso_swaps_in_false() {
    let env = Env::with_prelude();
    proves(&env, "False -> 0 = 1", "intros H. exfalso. exact H.");
}

// --------------------------------- clear / revert / specialize / pose / assert

#[test]
fn clear_removes_hypotheses() {
    let env = Env::with_prelude();
    let st = state_after(&env, "0 = 0 -> 1 = 1", "intros H. clear H.");
    assert!(st.focused().unwrap().hyp("H").is_none());
    rejects(&env, "0 = 0", "clear H.");
}

#[test]
fn revert_restores_the_quantifier() {
    let env = Env::with_prelude();
    let st = state_after(&env, "forall n : nat, n = n", "intros n. revert n.");
    assert!(st.focused().unwrap().display().contains("forall"));
    proves(
        &env,
        "forall n : nat, n = n",
        "intros n. revert n. intros m. reflexivity.",
    );
}

#[test]
fn specialize_instantiates_a_universal_hypothesis() {
    let env = Env::with_prelude();
    proves(
        &env,
        "(forall n : nat, le n n) -> le 2 2",
        "intros H. specialize (H 2). exact H.",
    );
}

#[test]
fn pose_proof_adds_an_instantiated_lemma() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall n : nat, le n (S n)").unwrap();
    env.add_lemma("le_succ_diag", l).unwrap();
    proves(
        &env,
        "le 1 2",
        "pose proof (le_succ_diag 1) as Hp. exact Hp.",
    );
}

#[test]
fn assert_splits_into_proof_and_use() {
    let env = Env::with_prelude();
    let st = state_after(&env, "le 0 1", "assert (H : le 0 0).");
    assert_eq!(st.goals.len(), 2);
    proves(
        &env,
        "le 0 1",
        "assert (H : le 0 0). constructor. constructor. exact H.",
    );
}

// ----------------------------------------------------------------- tacticals

#[test]
fn seq_applies_to_every_generated_goal() {
    let env = Env::with_prelude();
    proves(&env, "0 = 0 /\\ 1 = 1", "split; reflexivity.");
}

#[test]
fn dispatch_requires_matching_arity() {
    let env = Env::with_prelude();
    proves(
        &env,
        "0 = 0 /\\ le 0 0",
        "split; [reflexivity | constructor].",
    );
    rejects(&env, "0 = 0 /\\ le 0 0", "split; [reflexivity].");
}

#[test]
fn try_swallows_failure() {
    let env = Env::with_prelude();
    proves(&env, "0 = 0", "try fail. reflexivity.");
}

#[test]
fn repeat_saturates() {
    let env = Env::with_prelude();
    // repeat constructor peels le_S until le_n closes it.
    proves(&env, "le 0 3", "repeat constructor.");
}

#[test]
fn first_takes_the_first_success() {
    let env = Env::with_prelude();
    proves(&env, "0 = 0", "first [fail | reflexivity].");
    rejects(&env, "0 = 0", "first [fail | fail].");
}

#[test]
fn bullets_are_noops() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, le n n",
        "intros n. destruct n as [|k]. - apply le_n. - apply le_n.",
    );
}

// ------------------------------------------------------------- fuel / hashing

#[test]
fn tiny_fuel_budget_times_out() {
    let env = Env::with_prelude();
    let f = parse_formula(&env, "add 20 20 = 40").unwrap();
    let st = ProofState::new(f);
    let tac = parse_tactic(&env, st.focused(), "reflexivity").unwrap();
    let mut fuel = Fuel::new(5);
    assert_eq!(
        apply_tactic(&env, &st, &tac, &mut fuel),
        Err(TacticError::Timeout)
    );
}

#[test]
fn state_keys_are_alpha_invariant() {
    let env = Env::with_prelude();
    let a = state_after(&env, "forall n : nat, n = n", "intros x.");
    let b = state_after(&env, "forall n : nat, n = n", "intros y.");
    assert_eq!(state_key(&a), state_key(&b));
    let c = state_after(&env, "forall n : nat, n = n", "intros x. symmetry.");
    assert_eq!(state_key(&a), state_key(&c), "n = n is symmetric up to key");
}

#[test]
fn state_keys_distinguish_different_goals() {
    let env = Env::with_prelude();
    let a = state_after(&env, "forall n : nat, le 0 n", "intros n.");
    let b = state_after(&env, "forall n : nat, le n n", "intros n.");
    assert_ne!(state_key(&a), state_key(&b));
}

// -------------------------------------------------------- additional edges

#[test]
fn eauto_backchains_through_hints() {
    let mut env = Env::with_prelude();
    let l = parse_formula(&env, "forall a b c : nat, le a b -> le b c -> le a c").unwrap();
    env.add_lemma("le_trans", l).unwrap();
    let l2 = parse_formula(&env, "forall n : nat, le n (S n)").unwrap();
    env.add_lemma("le_succ_diag", l2).unwrap();
    env.add_hint("core", "le_trans");
    env.add_hint("core", "le_succ_diag");
    // le 1 3 needs chaining through the metavariable midpoint.
    proves(&env, "le 1 3", "eauto.");
}

#[test]
fn simpl_everywhere_touches_all_positions() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, add 0 n = 1 -> add 0 n = 1",
        "intros n H. simpl in *. exact H.",
    );
}

#[test]
fn unfold_in_hypothesis() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n m : nat, lt n m -> le (S n) m",
        "intros n m H. unfold lt in H. exact H.",
    );
}

#[test]
fn repeat_on_a_non_applicable_tactic_is_a_noop() {
    // `repeat` must terminate when the tactic never applies.
    let env = Env::with_prelude();
    proves(&env, "0 = 0", "repeat split. reflexivity.");
}

#[test]
fn specialize_with_multiple_arguments() {
    let env = Env::with_prelude();
    proves(
        &env,
        "(forall a b : nat, le a (add b a)) -> le 2 (add 1 2)",
        "intros H. specialize (H 2 1). exact H.",
    );
}

#[test]
fn destruct_pair_exposes_components() {
    let env = Env::with_prelude();
    let st = state_after(
        &env,
        "forall p : prod nat bool, p = p",
        "intros p. destruct p as [n b].",
    );
    let g = st.focused().unwrap();
    assert!(g.var_sort("n").is_some() && g.var_sort("b").is_some());
}

#[test]
fn destruct_option_gives_some_and_none() {
    let env = Env::with_prelude();
    let st = state_after(
        &env,
        "forall o : option nat, o = o",
        "intros o. destruct o as [x|].",
    );
    assert_eq!(st.goals.len(), 2);
    // Convention follows the prelude's declaration order: Some first.
    assert!(st.goals[0].var_sort("x").is_some());
}

#[test]
fn exists_with_ill_sorted_witness_is_rejected() {
    let env = Env::with_prelude();
    rejects(&env, "exists n : nat, n = n", "exists true.");
}

#[test]
fn intro_pattern_on_exists_hypothesis_via_intros() {
    let env = Env::with_prelude();
    proves(
        &env,
        "(exists n : nat, n = 0) -> exists m : nat, m = 0",
        "intros H. destruct H as [w Hw]. exists w. exact Hw.",
    );
}

#[test]
fn f_equal_rejected_on_head_mismatch() {
    let env = Env::with_prelude();
    rejects(&env, "forall a : nat, S a = add a 1", "intros a. f_equal.");
}

#[test]
fn symmetry_rejected_off_equality() {
    let env = Env::with_prelude();
    rejects(&env, "True", "symmetry.");
}

#[test]
fn clear_is_rejected_for_vars_still_in_use() {
    let env = Env::with_prelude();
    // n occurs in the goal; clearing it must fail as in Coq.
    rejects(&env, "forall n : nat, n = n", "intros n. clear n.");
}

#[test]
fn inversion_is_for_inductive_predicates_only() {
    // Deviation: inversion on a constructor equality is not supported —
    // `injection` is the tactic for that job (and the corpus uses it).
    let env = Env::with_prelude();
    rejects(
        &env,
        "forall n m : nat, S n = S m -> n = m",
        "intros n m H. inversion H.",
    );
    proves(
        &env,
        "forall n m : nat, S n = S m -> n = m",
        "intros n m H. injection H. exact H0.",
    );
}

#[test]
fn lia_handles_addition_facts() {
    let env = Env::with_prelude();
    proves(&env, "forall a b : nat, le a (add a b)", "intros a b. lia.");
    proves(
        &env,
        "forall a b : nat, add a b = add b a",
        "intros a b. lia.",
    );
}

#[test]
fn congruence_uses_injectivity() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall a b : nat, S a = S b -> a = b",
        "intros a b H. congruence.",
    );
    proves(
        &env,
        "forall a : nat, 0 = S a -> 1 = 2",
        "intros a H. congruence.",
    );
}

#[test]
fn lia_reads_ge_and_gt_hypotheses() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall a b : nat, ge a b -> le b a",
        "intros a b H. lia.",
    );
    proves(
        &env,
        "forall a b : nat, gt a b -> le (S b) a",
        "intros a b H. lia.",
    );
    proves(&env, "forall a : nat, gt (S a) a", "intros a. lia.");
}

#[test]
fn lia_detects_contradictory_hypotheses() {
    let env = Env::with_prelude();
    proves(&env, "forall a : nat, lt a a -> 1 = 2", "intros a H. lia.");
}

// ------------------------------------------------------------- metrics

#[test]
fn traced_tactics_record_per_head_latency_and_outcomes() {
    use minicoq::tactic::apply_tactic_timed;

    let env = Env::with_prelude();
    let st = ProofState::new(parse_formula(&env, "forall a : nat, a = a").unwrap());
    let run = |text: &str, fuel: u64| {
        let tac = parse_tactic(&env, st.focused(), text).unwrap();
        apply_tactic_timed(&env, &st, &tac, None, &mut Fuel::new(fuel))
    };
    let recorded = || {
        let m = proof_trace::metrics::snapshot();
        let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
        [
            m.hists
                .get("minicoq.tactic.intros.ns")
                .map_or(0, |h| h.count),
            counter("minicoq.tactic.intros.ok"),
            counter("minicoq.tactic.fail.rejected"),
            counter("minicoq.tactic.lia.timeout"),
        ]
    };
    let before = recorded();
    proof_trace::set_enabled(true);
    assert!(run("intros", 1_000).is_ok());
    assert!(run("fail", 1_000).is_err());
    assert_eq!(run("lia", 0).unwrap_err(), TacticError::Timeout);
    proof_trace::set_enabled(false);
    let after = recorded();
    for (i, name) in ["intros.ns", "intros.ok", "fail.rejected", "lia.timeout"]
        .iter()
        .enumerate()
    {
        assert!(
            after[i] > before[i],
            "minicoq.tactic.{name} was not recorded"
        );
    }
}

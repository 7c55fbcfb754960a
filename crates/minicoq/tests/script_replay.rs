//! End-to-end replay of proof scripts through the parser and tactic engine.

use minicoq::env::Env;
use minicoq::error::TacticError;
use minicoq::fuel::Fuel;
use minicoq::goal::ProofState;
use minicoq::parse::{parse_formula, parse_tactic, split_sentences};
use minicoq::tactic::apply_tactic;

/// Replays a script against a statement; returns the final state.
fn replay(env: &Env, stmt: &str, script: &str) -> Result<ProofState, String> {
    let f = parse_formula(env, stmt).map_err(|e| format!("statement: {e}"))?;
    let mut st = ProofState::new(f);
    for sentence in split_sentences(script) {
        let tac = parse_tactic(env, st.focused(), &sentence)
            .map_err(|e| format!("parse `{sentence}`: {e}"))?;
        st = apply_tactic(env, &st, &tac, &mut Fuel::unlimited())
            .map_err(|e| format!("apply `{sentence}`: {e}\nstate:\n{}", st.display()))?;
    }
    Ok(st)
}

fn proves(env: &Env, stmt: &str, script: &str) {
    match replay(env, stmt, script) {
        Ok(st) => assert!(
            st.is_complete(),
            "proof incomplete for {stmt}:\n{}",
            st.display()
        ),
        Err(e) => panic!("replay failed for {stmt}: {e}"),
    }
}

#[test]
fn add_zero_right_by_induction() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, add n 0 = n",
        "intros n. induction n. - reflexivity. - simpl. rewrite IHn. reflexivity.",
    );
}

#[test]
fn add_succ_right() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n m : nat, add n (S m) = S (add n m)",
        "induction n; intros. - reflexivity. - simpl. rewrite IHn. reflexivity.",
    );
}

#[test]
fn add_comm_with_helper_lemmas() {
    let mut env = Env::with_prelude();
    let h1 = parse_formula(&env, "forall n : nat, add n 0 = n").unwrap();
    env.add_lemma("add_0_r", h1).unwrap();
    let h2 = parse_formula(&env, "forall n m : nat, add n (S m) = S (add n m)").unwrap();
    env.add_lemma("add_succ_r", h2).unwrap();
    proves(
        &env,
        "forall n m : nat, add n m = add m n",
        "induction n; intros; simpl.
         - rewrite add_0_r. reflexivity.
         - rewrite IHn. rewrite add_succ_r. reflexivity.",
    );
}

#[test]
fn le_reasoning_with_auto_and_lia() {
    let env = Env::with_prelude();
    proves(&env, "forall n : nat, le n (S n)", "intros. auto.");
    proves(
        &env,
        "forall a b c : nat, le a b -> le b c -> le a c",
        "intros. lia.",
    );
    proves(&env, "forall a b : nat, lt a b -> le a b", "intros. lia.");
}

#[test]
fn destruct_and_discriminate() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall b : bool, orb b (negb b) = true",
        "intros b. destruct b. - reflexivity. - reflexivity.",
    );
    proves(
        &env,
        "forall n : nat, S n = 0 -> False",
        "intros n H. discriminate H.",
    );
}

#[test]
fn injection_and_subst() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n m : nat, S n = S m -> n = m",
        "intros n m H. injection H. assumption.",
    );
    proves(
        &env,
        "forall n m : nat, n = m -> S n = S m",
        "intros n m H. subst. reflexivity.",
    );
}

#[test]
fn inversion_on_le() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, le n 0 -> n = 0",
        "intros n H. inversion H. reflexivity.",
    );
    proves(
        &env,
        "forall n m : nat, le (S n) (S m) -> le n m",
        "intros n m H. inversion H. - auto. - lia.",
    );
}

#[test]
fn logic_connectives() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n m : nat, n = 0 /\\ m = 0 -> m = 0 /\\ n = 0",
        "intros n m H. destruct H as [H1 H2]. split. - assumption. - assumption.",
    );
    proves(
        &env,
        "forall n : nat, n = 0 \\/ n = 1 -> n = 1 \\/ n = 0",
        "intros n H. destruct H as [H|H]. - right. assumption. - left. assumption.",
    );
    proves(
        &env,
        "forall n : nat, (exists m : nat, n = S m) -> lt 0 n",
        "intros n H. destruct H as [m Hm]. subst. lia.",
    );
    proves(
        &env,
        "exists n : nat, add n n = 4",
        "exists 2. reflexivity.",
    );
}

#[test]
fn apply_with_lemma_and_hypothesis() {
    let mut env = Env::with_prelude();
    let trans = parse_formula(&env, "forall a b c : nat, le a b -> le b c -> le a c").unwrap();
    env.add_lemma("le_trans", trans).unwrap();
    // In this kernel `eapply` discharges metavariable premises by
    // backchaining over hypotheses: the first premise `le x ?b` is closed
    // with H1, leaving only `le y 5`.
    proves(
        &env,
        "forall x y : nat, le x y -> le y 5 -> le x 5",
        "intros x y H1 H2. eapply le_trans. exact H2.",
    );
    // Forward: H1 : le x y matches the first premise; the second premise
    // `le y ?c` is discharged against H2, leaving H1 : le x 5.
    proves(
        &env,
        "forall x y : nat, le x y -> le y 5 -> le x 5",
        "intros x y H1 H2. eapply le_trans in H1. exact H1.",
    );
}

#[test]
fn tacticals_compose() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall b : bool, andb b false = false",
        "intros b; destruct b; reflexivity.",
    );
    proves(
        &env,
        "forall n : nat, add 0 n = n",
        "intros; simpl; try lia; reflexivity.",
    );
    proves(
        &env,
        "forall b : bool, negb (negb b) = b",
        "intros b; destruct b; [ reflexivity | reflexivity ].",
    );
}

#[test]
fn specialize_and_pose_proof() {
    let mut env = Env::with_prelude();
    let lem = parse_formula(&env, "forall n : nat, le n (S n)").unwrap();
    env.add_lemma("le_succ", lem).unwrap();
    proves(
        &env,
        "forall H : nat, le 3 4",
        "intros H. pose proof (le_succ 3) as Hp. exact Hp.",
    );
    proves(
        &env,
        "(forall n : nat, le n (S n)) -> le 2 3",
        "intros H. specialize (H 2). exact H.",
    );
}

#[test]
fn assert_and_revert() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall n : nat, add n 0 = n",
        "intros n. assert (H : forall m : nat, add m 0 = m).
         - induction m. + reflexivity. + simpl. rewrite IHm. reflexivity.
         - apply H.",
    );
    proves(
        &env,
        "forall n m : nat, n = m -> m = n",
        "intros n m H. revert H. intros H2. symmetry. exact H2.",
    );
}

#[test]
fn congruence_and_f_equal() {
    let env = Env::with_prelude();
    proves(
        &env,
        "forall a b : nat, a = b -> S a = S b",
        "intros a b H. f_equal. assumption.",
    );
    proves(
        &env,
        "forall a b c : nat, a = b -> b = c -> add a 1 = add c 1",
        "intros. congruence.",
    );
}

#[test]
fn timeout_is_reported() {
    let env = Env::with_prelude();
    let f = parse_formula(&env, "le 0 0").unwrap();
    let st = ProofState::new(f);
    let tac = parse_tactic(&env, st.focused(), "auto").unwrap();
    let mut fuel = Fuel::new(3);
    assert_eq!(
        apply_tactic(&env, &st, &tac, &mut fuel),
        Err(TacticError::Timeout)
    );
}

#[test]
fn invalid_tactics_rejected_not_panicking() {
    let env = Env::with_prelude();
    let f = parse_formula(&env, "forall n : nat, n = n").unwrap();
    let st = ProofState::new(f);
    for bad in [
        "reflexivity",
        "assumption",
        "destruct H",
        "rewrite nonexistent",
        "apply nonexistent",
        "left",
        "exact H",
        "lia",
    ] {
        let tac = parse_tactic(&env, st.focused(), bad);
        if let Ok(t) = tac {
            let r = apply_tactic(&env, &st, &t, &mut Fuel::unlimited());
            assert!(r.is_err(), "{bad} should fail");
        }
    }
}

#[test]
fn proof_state_duplicate_detection_keys() {
    use minicoq::statehash::state_key;
    let env = Env::with_prelude();
    let f = parse_formula(&env, "forall n : nat, n = n").unwrap();
    let st = ProofState::new(f);
    let t1 = parse_tactic(&env, st.focused(), "intros x").unwrap();
    let t2 = parse_tactic(&env, st.focused(), "intros y").unwrap();
    let s1 = apply_tactic(&env, &st, &t1, &mut Fuel::unlimited()).unwrap();
    let s2 = apply_tactic(&env, &st, &t2, &mut Fuel::unlimited()).unwrap();
    assert_eq!(state_key(&s1), state_key(&s2));
    assert_ne!(state_key(&st), state_key(&s1));
}

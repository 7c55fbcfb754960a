//! Backward and forward chaining: `apply`, `eapply`, `constructor`,
//! `specialize` and `pose proof`.

use std::borrow::Cow;

use crate::env::{Env, PredDef};
use crate::error::TacticError;
use crate::eval::{normalize_formula, EvalMode};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::rule::{Rule, RuleForm};
use crate::subst::{subst_formula1, subst_sorts_formula, SortSubst};
use crate::term::Term;
use crate::typing::infer_sort;
use crate::unify::Unifier;

use super::auto::backchain;

/// Resolves a name to a statement: hypotheses shadow lemmas and rules.
pub(crate) fn stmt_of(env: &Env, goal: &Goal, name: &str) -> Option<Formula> {
    match goal.hyp(name) {
        Some(h) => Some(h.clone()),
        None => env.rule_or_lemma(name).map(|l| l.stmt.clone()),
    }
}

/// Attempts to unify an instantiated conclusion with a target formula,
/// first syntactically, then up to conversion. When `concl` is the
/// conclusion of `form`'s instance, `form`'s cached normal form stands in
/// for normalizing `concl`, charged the fuel that normalization costs.
fn unify_concl(
    env: &Env,
    uni: &mut Unifier,
    concl: &Formula,
    form: Option<&RuleForm>,
    target: &Formula,
    fuel: &mut Fuel,
) -> Result<(), TacticError> {
    let snapshot = uni.clone();
    if uni.unify_formulas(concl, target, fuel).is_ok() {
        return Ok(());
    }
    *uni = snapshot;
    let nc = match form.and_then(|form| form.normal_conclusion(env)) {
        Some((nc, cost)) => {
            fuel.replay(cost)?;
            Cow::Borrowed(nc)
        }
        None => Cow::Owned(normalize_formula(env, concl, EvalMode::conversion(), fuel)?),
    };
    let nt = normalize_formula(env, target, EvalMode::conversion(), fuel)?;
    let snapshot = uni.clone();
    if uni.unify_formulas(&nc, &nt, fuel).is_ok() {
        return Ok(());
    }
    *uni = snapshot;
    Err(TacticError::rejected(
        "unable to unify the conclusion with the goal",
    ))
}

/// Core of backward `apply`: unifies the rule conclusion with the goal
/// conclusion and turns remaining premises into subgoals.
fn apply_backward(
    env: &Env,
    goal: &Goal,
    form: &RuleForm,
    existential: bool,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let (inst, mut uni) = (form.instance(), form.unifier().clone());
    // Try the conclusion as-is; for a bi-implication conclusion, also try
    // each direction (Coq's `apply` on an iff lemma).
    let direct = unify_concl(
        env,
        &mut uni,
        &inst.conclusion,
        Some(form),
        &goal.concl,
        fuel,
    );
    let mut extra_premise: Option<Formula> = None;
    if let Err(direct_err) = direct {
        // `~P` applies to a `False` goal as `P -> False`.
        if let Formula::Not(p) = &inst.conclusion {
            if matches!(super::basic::whnf_prop(env, &goal.concl), Formula::False) {
                let p = (**p).clone();
                let mut premises: Vec<Formula> = inst.premises.clone();
                premises.push(p);
                return finish_backward(env, goal, &premises, uni, existential, fuel);
            }
        }
        let Formula::Iff(a, b) = &inst.conclusion else {
            return Err(direct_err);
        };
        let mut try_dir = |lhs: &Formula, rhs: &Formula, uni: &mut Unifier| -> bool {
            let snapshot = uni.clone();
            if unify_concl(env, uni, rhs, None, &goal.concl, fuel).is_ok() {
                return true;
            }
            *uni = snapshot;
            let _ = lhs;
            false
        };
        if try_dir(a, b, &mut uni) {
            extra_premise = Some((**a).clone());
        } else if try_dir(b, a, &mut uni) {
            extra_premise = Some((**b).clone());
        } else {
            return Err(TacticError::rejected(
                "unable to unify the conclusion with the goal",
            ));
        }
    }

    let mut premises: Vec<Formula> = inst.premises.clone();
    if let Some(p) = extra_premise {
        premises.push(p);
    }
    finish_backward(env, goal, &premises, uni, existential, fuel)
}

/// Turns the remaining premises of a successfully-unified rule into
/// subgoals, discharging metavariable premises by backchaining in
/// existential mode.
fn finish_backward(
    env: &Env,
    goal: &Goal,
    premises: &[Formula],
    mut uni: Unifier,
    existential: bool,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let mut subgoals = Vec::new();
    for p in premises {
        crate::typing::repair_formula_sorts(env, goal, p, &mut uni);
        let resolved = uni.resolve_formula(p);
        if resolved.is_ground() {
            subgoals.push(resolved);
            continue;
        }
        if !existential {
            return Err(TacticError::rejected(
                "cannot infer the instantiation of the lemma (try eapply)",
            ));
        }
        // eapply: discharge metavariable premises by bounded backchaining
        // over the hypotheses and core hints.
        match backchain(env, goal, &resolved, uni.clone(), 3, &[], fuel) {
            Some(u2) => {
                uni = u2;
            }
            None => {
                return Err(TacticError::rejected(
                    "cannot discharge a premise containing metavariables",
                ));
            }
        }
    }
    // Re-resolve premise subgoals with the final solutions.
    let mut out = Vec::new();
    for p in subgoals {
        let resolved = uni.resolve_formula(&p);
        if !resolved.is_ground() {
            return Err(TacticError::rejected(
                "cannot infer the instantiation of the lemma (try eapply)",
            ));
        }
        let mut g = goal.clone();
        g.concl = resolved;
        out.push(g);
    }
    Ok(out)
}

/// `apply name` / `eapply name` / `apply name in H`.
pub fn apply(
    env: &Env,
    goal: &Goal,
    name: &str,
    in_hyp: Option<&str>,
    existential: bool,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let Some(rule) = Rule::resolve(env, goal, name) else {
        return Err(TacticError::rejected(format!("unknown lemma {name}")));
    };
    let attempt = |form: &RuleForm, fuel: &mut Fuel| match in_hyp {
        None => apply_backward(env, goal, form, existential, fuel),
        Some(h) => apply_forward(env, goal, form, h, existential, fuel),
    };
    match attempt(rule.plain(), fuel) {
        Ok(out) => Ok(out),
        Err(TacticError::Timeout) => Err(TacticError::Timeout),
        // Fall back to the exposed reading: a defined-predicate head (e.g.
        // `incl l1 l2`) applies as its unfolding
        // (`forall x, In x l1 -> In x l2`).
        Err(first_err) => match rule.exposed(env) {
            Some(exposed) => attempt(exposed, fuel).map_err(|_| first_err),
            None => Err(first_err),
        },
    }
}

/// Weak-head-unfolds a statement so that leading defined predicates expose
/// their quantifier/implication structure; recurses under the rule prefix.
pub(crate) fn expose_rule(env: &Env, stmt: &Formula) -> Formula {
    let head = super::basic::whnf_prop(env, stmt);
    match head {
        Formula::Forall(v, s, body) => Formula::Forall(v, s, Box::new(expose_rule(env, &body))),
        Formula::ForallSort(v, body) => Formula::ForallSort(v, Box::new(expose_rule(env, &body))),
        Formula::Implies(p, q) => Formula::Implies(p, Box::new(expose_rule(env, &q))),
        other => other,
    }
}

/// `apply L in H`: matches `H` against one premise of `L`, replacing `H`
/// with the conclusion; other premises become side goals.
fn apply_forward(
    env: &Env,
    goal: &Goal,
    form: &RuleForm,
    h: &str,
    existential: bool,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let Some(hf) = goal.hyp(h).cloned() else {
        return Err(TacticError::rejected(format!("no hypothesis {h}")));
    };
    let (inst, base_uni) = (form.instance(), form.unifier());
    // Candidate (premises, conclusion) readings: the rule itself, and for a
    // bi-implication conclusion, each direction of the iff.
    let mut candidates: Vec<(Vec<Formula>, Formula)> = Vec::new();
    if !inst.premises.is_empty() {
        candidates.push((inst.premises.clone(), inst.conclusion.clone()));
    }
    if let Formula::Iff(a, b) = &inst.conclusion {
        let mut fwd = inst.premises.clone();
        fwd.push((**a).clone());
        candidates.push((fwd, (**b).clone()));
        let mut bwd = inst.premises.clone();
        bwd.push((**b).clone());
        candidates.push((bwd, (**a).clone()));
    }
    if candidates.is_empty() {
        return Err(TacticError::rejected("the lemma has no premise"));
    }
    for (premises, conclusion) in &candidates {
        if let Some(out) = apply_forward_candidate(
            env,
            goal,
            premises,
            conclusion,
            base_uni,
            h,
            &hf,
            existential,
            fuel,
        )? {
            return Ok(out);
        }
    }
    Err(TacticError::rejected(
        "no premise of the lemma matches the hypothesis",
    ))
}

/// Tries one (premises, conclusion) reading of a rule for `apply ... in`.
#[allow(clippy::too_many_arguments)]
fn apply_forward_candidate(
    env: &Env,
    goal: &Goal,
    premises: &[Formula],
    conclusion: &Formula,
    base_uni: &Unifier,
    h: &str,
    hf: &Formula,
    existential: bool,
    fuel: &mut Fuel,
) -> Result<Option<Vec<Goal>>, TacticError> {
    for i in 0..premises.len() {
        let mut uni = base_uni.clone();
        if unify_concl(env, &mut uni, &premises[i], None, hf, fuel).is_err() {
            continue;
        }
        // Side premises.
        let mut side = Vec::new();
        let mut ok = true;
        for (j, p) in premises.iter().enumerate() {
            if j == i {
                continue;
            }
            let resolved = uni.resolve_formula(p);
            if resolved.is_ground() {
                side.push(resolved);
                continue;
            }
            if !existential {
                ok = false;
                break;
            }
            match backchain(env, goal, &resolved, uni.clone(), 3, &[], fuel) {
                Some(u2) => uni = u2,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        crate::typing::repair_formula_sorts(env, goal, conclusion, &mut uni);
        let new_h = uni.resolve_formula(conclusion);
        if !new_h.is_ground() {
            continue;
        }
        let mut main = goal.clone();
        main.set_hyp(h, new_h);
        let mut out = vec![main];
        for p in side {
            let resolved = uni.resolve_formula(&p);
            if !resolved.is_ground() {
                ok = false;
                break;
            }
            let mut g = goal.clone();
            g.concl = resolved;
            out.push(g);
        }
        if ok {
            return Ok(Some(out));
        }
    }
    Ok(None)
}

/// `constructor` / `econstructor`.
pub fn constructor(
    env: &Env,
    goal: &Goal,
    existential: bool,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let concl = super::basic::whnf_prop(env, &goal.concl);
    match &concl {
        Formula::True => Ok(vec![]),
        Formula::And(..) | Formula::Iff(..) => super::basic::split_in(goal, &concl),
        Formula::Or(..) => super::basic::left(&{
            let mut g = goal.clone();
            g.concl = concl.clone();
            g
        }),
        Formula::Eq(..) => super::basic::reflexivity(env, goal, fuel),
        Formula::Pred(p, _, _) => {
            let Some(PredDef::Inductive(ip)) = env.preds.get(p.as_str()) else {
                return Err(TacticError::rejected(format!(
                    "{p} is not an inductive predicate"
                )));
            };
            for (rn, _) in &ip.rules {
                let rule = env
                    .rule_or_lemma(rn)
                    .expect("rule registered in environment");
                let mut g = goal.clone();
                g.concl = concl.clone();
                match apply_backward(env, &g, rule.rule().plain(), existential, fuel) {
                    Ok(gs) => return Ok(gs),
                    Err(TacticError::Timeout) => return Err(TacticError::Timeout),
                    Err(_) => continue,
                }
            }
            Err(TacticError::rejected("no constructor applies"))
        }
        _ => Err(TacticError::rejected("no constructor applies")),
    }
}

/// Walks a statement, instantiating binders with the given arguments. A bare
/// variable argument that names a hypothesis discharges the next premise.
/// Returns the resulting formula (must be fully resolved).
pub(crate) fn instantiate_with_args(
    env: &Env,
    goal: &Goal,
    stmt: &Formula,
    args: &[Term],
    fuel: &mut Fuel,
) -> Result<Formula, TacticError> {
    let mut uni = Unifier::new();
    let mut cur = stmt.clone();
    for arg in args {
        // Expose the next binder or premise, unfolding defined predicates
        // and instantiating sort binders with metavariables.
        loop {
            match cur {
                Formula::ForallSort(v, body) => {
                    let m = uni.fresh_sort_meta();
                    let mut map = SortSubst::new();
                    map.insert(v, m);
                    cur = subst_sorts_formula(&body, &map);
                }
                Formula::Pred(..) => {
                    let exposed = super::basic::whnf_prop(env, &cur);
                    if exposed == cur {
                        break;
                    }
                    cur = exposed;
                }
                _ => break,
            }
        }
        let as_hyp = match arg {
            Term::Var(v) => goal.hyp(v).cloned().map(|f| (v.clone(), f)),
            _ => None,
        };
        match (&cur, as_hyp) {
            (Formula::Implies(p, q), Some((_, hf))) => {
                let snapshot = uni.clone();
                if uni.unify_formulas(p, &hf, fuel).is_err() {
                    uni = snapshot;
                    // Fall back to conversion-aware matching.
                    let np = normalize_formula(env, p, EvalMode::conversion(), fuel)?;
                    let nh = normalize_formula(env, &hf, EvalMode::conversion(), fuel)?;
                    uni.unify_formulas(&np, &nh, fuel).map_err(|_| {
                        TacticError::rejected("hypothesis does not match the premise")
                    })?;
                }
                cur = (**q).clone();
            }
            (Formula::Forall(v, s, body), _) => {
                let got = infer_sort(env, goal, arg, &mut uni)?;
                uni.unify_sorts(&got, s)
                    .map_err(|_| TacticError::rejected("argument sort mismatch"))?;
                let (v, body) = (v.clone(), (**body).clone());
                cur = subst_formula1(&body, &v, arg);
            }
            (Formula::Implies(..), None) => {
                return Err(TacticError::rejected(
                    "expected a hypothesis name to discharge a premise",
                ));
            }
            _ => {
                return Err(TacticError::rejected("too many arguments"));
            }
        }
        cur = uni.resolve_formula(&cur);
    }
    crate::typing::repair_formula_sorts(env, goal, &cur, &mut uni);
    let resolved = uni.resolve_formula(&cur);
    if !resolved.is_ground() {
        return Err(TacticError::rejected(
            "cannot infer all instantiations from the given arguments",
        ));
    }
    Ok(resolved)
}

/// `specialize (H a1 .. an)`.
pub fn specialize(
    env: &Env,
    goal: &Goal,
    h: &str,
    args: &[Term],
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let Some(hf) = goal.hyp(h).cloned() else {
        return Err(TacticError::rejected(format!("no hypothesis {h}")));
    };
    if args.is_empty() {
        return Err(TacticError::rejected("specialize needs arguments"));
    }
    let new = instantiate_with_args(env, goal, &hf, args, fuel)?;
    let mut g = goal.clone();
    g.set_hyp(h, new);
    Ok(vec![g])
}

/// `pose proof (name a1 .. an) as H`.
pub fn pose_proof(
    env: &Env,
    goal: &Goal,
    name: &str,
    args: &[Term],
    as_name: Option<&str>,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let Some(stmt) = stmt_of(env, goal, name) else {
        return Err(TacticError::rejected(format!("unknown lemma {name}")));
    };
    let new = if args.is_empty() {
        if !stmt.is_ground() {
            return Err(TacticError::rejected("statement is not ground"));
        }
        stmt
    } else {
        instantiate_with_args(env, goal, &stmt, args, fuel)?
    };
    let mut g = goal.clone();
    let hname = match as_name {
        Some(n) => {
            if goal.names_in_scope().contains(n) {
                return Err(TacticError::rejected(format!("name {n} already used")));
            }
            n.to_string()
        }
        None => g.fresh("H"),
    };
    g.hyps.push((hname, new));
    Ok(vec![g])
}

#[cfg(test)]
mod tests {
    use crate::env::Env;
    use crate::fuel::Fuel;
    use crate::goal::ProofState;
    use crate::parse::{parse_formula, parse_tactic};
    use crate::rule::tests::live_path;
    use crate::tactic::{apply_tactic, Tactic};

    /// `auto`'s list toolbox (`In` over a formula `match`, `incl` exposing
    /// a rule, `~ P` lemmas), plus lemmas whose conclusions only meet a
    /// goal up to conversion or through an iff.
    fn env() -> Env {
        let mut env = crate::tactic::auto::tests::list_env();
        for (name, src) in [
            ("le_add_0", "forall n : nat, le (add 0 n) n"),
            ("le_iff", "forall n m : nat, le (S n) (S m) <-> le n m"),
            ("le_pred", "forall n m : nat, le (S n) (S m) -> le n m"),
            ("add_0_l", "forall n : nat, add 0 n = n"),
        ] {
            let stmt = parse_formula(&env, src).unwrap();
            env.add_lemma(name, stmt).unwrap();
        }
        env
    }

    /// One tactic call: the state `setup` leaves from `stmt`, and the
    /// tactic then run on it under a budget.
    struct Case {
        state: ProofState,
        tactic: Tactic,
        text: &'static str,
    }

    fn case(env: &Env, stmt: &str, setup: &str, text: &'static str) -> Case {
        let mut state = ProofState::new(parse_formula(env, stmt).unwrap());
        if !setup.is_empty() {
            let tac = parse_tactic(env, state.focused(), setup).unwrap();
            state = apply_tactic(env, &state, &tac, &mut Fuel::unlimited()).unwrap();
        }
        let tactic = parse_tactic(env, state.focused(), text).unwrap();
        Case {
            state,
            tactic,
            text,
        }
    }

    fn cases(env: &Env) -> Vec<Case> {
        let in_h = "forall (x : nat) (l : list nat), In x l -> ";
        vec![
            // The conclusion meets the goal only up to conversion.
            case(env, "le 3 3", "", "apply le_add_0"),
            case(env, "le 3 4", "", "apply le_add_0"),
            case(env, "le 3 3", "", "eapply le_add_0"),
            // An inductive rule, syntactically and up to conversion.
            case(env, "le (add 1 2) 3", "", "apply le_n"),
            case(env, "le 2 (add 0 3)", "", "apply le_S"),
            // Iff conclusions, both directions.
            case(env, "le 1 2", "", "apply le_iff"),
            case(env, "le 2 3", "", "apply le_iff"),
            case(env, "In 1 []", "", "apply le_iff"),
            // The exposed reading: `incl` unfolds, `In` reduces its match.
            case(env, "In 1 (0 :: 1 :: [])", "", "apply incl_tl"),
            case(env, "In 1 (0 :: 1 :: [])", "", "eapply incl_tl"),
            case(
                env,
                &format!("{in_h}In x (0 :: l)"),
                "intros x l H",
                "eapply incl_tl",
            ),
            case(env, "incl (1 :: []) (2 :: [])", "", "apply incl_refl"),
            case(env, "incl (1 :: []) (1 :: [])", "", "apply incl_refl"),
            case(env, "le 1 2", "", "apply in_cons"),
            case(env, "In 1 (1 :: [])", "", "apply in_eq"),
            case(env, "In 1 (0 :: 1 :: [])", "", "apply in_cons"),
            case(
                env,
                &format!("{in_h}In x (0 :: l)"),
                "intros x l H",
                "apply in_cons",
            ),
            // `~P` against `False`.
            case(env, "le 3 2 -> False", "intros H", "apply le_Sn_n"),
            case(env, "le 3 2 -> False", "intros H", "eapply le_Sn_n"),
            case(
                env,
                &format!("{in_h}False"),
                "intros x l H",
                "eapply in_nil",
            ),
            // A hypothesis shadows a lemma of the same name.
            case(
                env,
                "(forall n : nat, le (add 0 n) (S n)) -> le 2 3",
                "intros le_add_0",
                "apply le_add_0",
            ),
            case(env, "le 1 2 -> le 1 2", "intros in_eq", "apply in_eq"),
            case(env, "le 1 2", "", "apply no_such_lemma"),
            // `apply ... in`, up to conversion, through an iff, exposed.
            case(
                env,
                "le (add 1 2) (add 1 3) -> False",
                "intros H",
                "apply le_pred in H",
            ),
            case(env, "le 2 3 -> False", "intros H", "apply le_S in H"),
            case(
                env,
                &format!("{in_h}False"),
                "intros x l H",
                "apply le_pred in H",
            ),
            case(env, "le 2 3 -> False", "intros H", "apply le_iff in H"),
            case(env, "le 4 4 -> False", "intros H", "eapply le_iff in H"),
            case(
                env,
                &format!("{in_h}False"),
                "intros x l H",
                "apply incl_refl in H",
            ),
            case(
                env,
                &format!("{in_h}False"),
                "intros x l H",
                "apply add_0_r in H",
            ),
            // `rewrite`, both directions, in a hypothesis, shadowed.
            case(env, "add 2 0 = 2", "", "rewrite add_0_r"),
            case(env, "2 = add 0 2", "", "rewrite add_0_l"),
            case(env, "2 = 2", "", "rewrite <- add_0_r"),
            case(env, "le 2 2", "", "rewrite add_0_l"),
            case(
                env,
                "add 0 1 = 1 -> False",
                "intros H",
                "rewrite add_0_l in H",
            ),
            case(
                env,
                "(forall n : nat, add n 0 = 0) -> add 2 0 = 2",
                "intros add_0_r",
                "rewrite add_0_r",
            ),
        ]
    }

    /// What a caller observes of one call under `budget`: the result, and
    /// the fuel's spent and remaining counts.
    fn observe(env: &Env, case: &Case, budget: u64) -> (String, u64, u64) {
        let mut fuel = Fuel::new(budget);
        let r = apply_tactic(env, &case.state, &case.tactic, &mut fuel);
        (format!("{r:?}"), fuel.spent(), fuel.remaining())
    }

    #[test]
    fn rule_facts_charge_fuel_like_the_live_path() {
        let env = env();
        let (mut ok, mut rejected) = (0, 0);
        for case in cases(&env) {
            let (result, full, _) = live_path(|| observe(&env, &case, u64::MAX / 2));
            ok += usize::from(result.starts_with("Ok"));
            rejected += usize::from(result.starts_with("Err(Rejected"));
            for budget in (0..=full + 1).chain([u64::MAX / 2]) {
                assert_eq!(
                    observe(&env, &case, budget),
                    live_path(|| observe(&env, &case, budget)),
                    "{}: budget {budget} of {full}",
                    case.text
                );
            }
        }
        assert!(ok >= 10 && rejected >= 10, "{ok} ok, {rejected} rejected");
    }
}

//! Backward and forward chaining: `apply`, `eapply`, `constructor`,
//! `specialize` and `pose proof`.

use std::borrow::Cow;

use crate::analysis::{PreflightRejection, ReasonCode};
use crate::env::{Env, PredDef};
use crate::error::TacticError;
use crate::eval::{normalize_formula, EvalMode};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::{Goal, Target};
use crate::rule::{normalize_conv, NormalForm, Rule, RuleForm};
use crate::subst::{subst_formula1, subst_sorts_formula, SortSubst};
use crate::term::Term;
use crate::typing::infer_sort;
use crate::unify::Unifier;

use super::auto::backchain;
use super::basic::{hyp, left_or_right, reflexivity, split_in, unused_name, whnf_prop};

/// Resolves a name to a statement: hypotheses shadow lemmas and rules.
fn stmt_of(env: &Env, goal: &Goal, name: &str) -> Option<Formula> {
    match goal.hyp(name) {
        Some(h) => Some(h.clone()),
        None => env.rule_or_lemma(name).map(|l| l.stmt.clone()),
    }
}

/// One side of [`unify_concl`]: a formula and where its conversion-normal
/// form comes from.
#[derive(Clone, Copy)]
enum Side<'a> {
    /// A formula with the slot of its normal form (a rule form's
    /// conclusion, premise or `Iff` side), or `None` to normalize it live.
    Formula(&'a Formula, Option<&'a NormalForm>),
    /// The goal's conclusion, which carries its own slot.
    Goal(&'a Target),
}

impl<'a> Side<'a> {
    fn formula(self) -> &'a Formula {
        match self {
            Side::Formula(f, _) => f,
            Side::Goal(t) => t,
        }
    }

    /// The formula normalized up to conversion: a slot's normal form with
    /// its cost replayed, or a live normalization.
    fn normalize(self, env: &Env, fuel: &mut Fuel) -> Result<Cow<'a, Formula>, TacticError> {
        match self {
            Side::Formula(f, slot) => normalize_conv(env, f, slot, fuel),
            Side::Goal(t) => t.normalize(env, fuel),
        }
    }
}

/// Attempts to unify an instantiated conclusion with a target formula,
/// first syntactically, then up to conversion: the conclusion's normal
/// form, then the target's, then a second unification. A side that keeps
/// its normal form in a slot stands that in for normalizing live, charged
/// the fuel the normalization costs.
fn unify_concl(
    env: &Env,
    uni: &mut Unifier,
    concl: Side,
    target: Side,
    fuel: &mut Fuel,
) -> Result<(), TacticError> {
    let snapshot = uni.clone();
    if uni
        .unify_formulas(concl.formula(), target.formula(), fuel)
        .is_ok()
    {
        return Ok(());
    }
    *uni = snapshot;
    let nc = concl.normalize(env, fuel)?;
    let nt = target.normalize(env, fuel)?;
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
    let target = Side::Goal(&goal.concl);
    // Try the conclusion as-is; for a bi-implication conclusion, also try
    // each direction (Coq's `apply` on an iff lemma).
    let concl = Side::Formula(&inst.conclusion, Some(form.conclusion_slot()));
    let direct = unify_concl(env, &mut uni, concl, target, fuel);
    let mut extra_premise: Option<Formula> = None;
    if let Err(direct_err) = direct {
        // `~P` applies to a `False` goal as `P -> False`.
        if let Formula::Not(p) = &inst.conclusion {
            if matches!(*whnf_prop(env, &goal.concl), Formula::False) {
                let p = (**p).clone();
                let mut premises: Vec<Formula> = inst.premises.clone();
                premises.push(p);
                return finish_backward(env, goal, &premises, uni, existential, fuel);
            }
        }
        let Formula::Iff(a, b) = &inst.conclusion else {
            return Err(direct_err);
        };
        // Unifies one side of the iff with the goal; `right` picks `b`.
        let mut try_side = |side: &Formula, right: bool, uni: &mut Unifier| -> bool {
            let snapshot = uni.clone();
            let concl = Side::Formula(side, form.iff_slot(right));
            if unify_concl(env, uni, concl, target, fuel).is_ok() {
                return true;
            }
            *uni = snapshot;
            false
        };
        if try_side(b, true, &mut uni) {
            extra_premise = Some((**a).clone());
        } else if try_side(a, false, &mut uni) {
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
        g.concl = resolved.into();
        out.push(g);
    }
    Ok(out)
}

/// The fuel-free prefix of `apply L [in H]`: `L` resolves to a rule, and
/// `H` is a hypothesis.
pub(crate) fn apply_prefix<'a>(
    env: &'a Env,
    goal: &'a Goal,
    name: &str,
    in_hyp: Option<&str>,
) -> Result<Rule<'a>, PreflightRejection> {
    let rule = Rule::resolve(env, goal, name)
        .ok_or_else(|| ReasonCode::UnknownName.because(format!("unknown lemma {name}")))?;
    if let Some(h) = in_hyp {
        hyp(goal, h)?;
    }
    Ok(rule)
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
    let rule = apply_prefix(env, goal, name, in_hyp)?;
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
/// This is the reading `apply` falls back to, and the one the simulated
/// oracle reads hypotheses through.
pub fn expose_rule(env: &Env, stmt: &Formula) -> Formula {
    let head = whnf_prop(env, stmt);
    match &*head {
        Formula::Forall(v, s, body) => {
            Formula::Forall(v.clone(), s.clone(), Box::new(expose_rule(env, body)))
        }
        Formula::ForallSort(v, body) => {
            Formula::ForallSort(v.clone(), Box::new(expose_rule(env, body)))
        }
        Formula::Implies(p, q) => Formula::Implies(p.clone(), Box::new(expose_rule(env, q))),
        _ => head.into_owned(),
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
    let hf = hyp(goal, h)?.clone();
    let inst = form.instance();
    // Candidate (premises, conclusion) readings: the rule itself, and for a
    // bi-implication conclusion, each direction of the iff. The third
    // field is the slot of a premise taken from the iff, which follows the
    // rule's own.
    let mut candidates: Vec<(Vec<Formula>, Formula, Option<&NormalForm>)> = Vec::new();
    if !inst.premises.is_empty() {
        candidates.push((inst.premises.clone(), inst.conclusion.clone(), None));
    }
    if let Formula::Iff(a, b) = &inst.conclusion {
        let mut fwd = inst.premises.clone();
        fwd.push((**a).clone());
        candidates.push((fwd, (**b).clone(), form.iff_slot(false)));
        let mut bwd = inst.premises.clone();
        bwd.push((**b).clone());
        candidates.push((bwd, (**a).clone(), form.iff_slot(true)));
    }
    if candidates.is_empty() {
        return Err(TacticError::rejected("the lemma has no premise"));
    }
    for (premises, conclusion, iff_slot) in &candidates {
        let slot = |i: usize| {
            if i < inst.premises.len() {
                Some(form.premise_slot(i))
            } else {
                *iff_slot
            }
        };
        if let Some(out) = apply_forward_candidate(
            env,
            goal,
            premises,
            slot,
            conclusion,
            form.unifier(),
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

/// Tries one (premises, conclusion) reading of a rule for `apply ... in`;
/// `slot(i)` is the normal-form slot of premise `i`, if it has one.
#[allow(clippy::too_many_arguments)]
fn apply_forward_candidate<'a>(
    env: &Env,
    goal: &Goal,
    premises: &[Formula],
    slot: impl Fn(usize) -> Option<&'a NormalForm>,
    conclusion: &Formula,
    base_uni: &Unifier,
    h: &str,
    hf: &Formula,
    existential: bool,
    fuel: &mut Fuel,
) -> Result<Option<Vec<Goal>>, TacticError> {
    for i in 0..premises.len() {
        let mut uni = base_uni.clone();
        let premise = Side::Formula(&premises[i], slot(i));
        if unify_concl(env, &mut uni, premise, Side::Formula(hf, None), fuel).is_err() {
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
            g.concl = resolved.into();
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
    let concl = constructor_prefix(env, goal)?;
    match &*concl {
        Formula::True => Ok(vec![]),
        Formula::Eq(..) => reflexivity(env, goal, fuel),
        Formula::Or(..) => {
            let mut g = goal.clone();
            g.concl = Formula::clone(&concl).into();
            Ok(left_or_right(&g, false)?)
        }
        Formula::Pred(p, _, _) => {
            let Some(PredDef::Inductive(ip)) = env.preds.get(p.as_str()) else {
                unreachable!("constructor_prefix checked {p}");
            };
            // One goal for every rule, so they share its conclusion's
            // normal form.
            let mut g = goal.clone();
            if *concl != *goal.concl {
                g.concl = Formula::clone(&concl).into();
            }
            for (rn, _) in &ip.rules {
                let rule = env
                    .rule_or_lemma(rn)
                    .expect("rule registered in environment");
                match apply_backward(env, &g, rule.rule().plain(), existential, fuel) {
                    Ok(gs) => return Ok(gs),
                    Err(TacticError::Timeout) => return Err(TacticError::Timeout),
                    Err(_) => continue,
                }
            }
            Err(TacticError::rejected("no constructor applies"))
        }
        // A conjunction or a bi-implication.
        _ => Ok(split_in(goal, &concl)?),
    }
}

/// The fuel-free prefix of `constructor`: the exposed conclusion, which
/// must be `True`, a conjunction, a bi-implication, a disjunction, an
/// equation or an inductive predicate's application.
pub(crate) fn constructor_prefix<'g>(
    env: &Env,
    goal: &'g Goal,
) -> Result<Cow<'g, Formula>, PreflightRejection> {
    let concl = whnf_prop(env, &goal.concl);
    match &*concl {
        Formula::True | Formula::And(..) | Formula::Iff(..) | Formula::Or(..) | Formula::Eq(..) => {
        }
        Formula::Pred(p, _, _) => {
            if !matches!(env.preds.get(p.as_str()), Some(PredDef::Inductive(_))) {
                let detail = format!("{p} is not an inductive predicate");
                return Err(ReasonCode::NotInductive.because(detail));
            }
        }
        _ => return Err(ReasonCode::GoalShape.because("no constructor applies")),
    }
    Ok(concl)
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
                Formula::Pred(..) => match whnf_prop(env, &cur) {
                    Cow::Owned(exposed) if exposed != cur => cur = exposed,
                    _ => break,
                },
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

/// The fuel-free prefix of `specialize (H args)`: `H` is a hypothesis,
/// and there is an argument.
pub(crate) fn specialize_prefix<'g>(
    goal: &'g Goal,
    h: &str,
    args: &[Term],
) -> Result<&'g Formula, PreflightRejection> {
    let hf = hyp(goal, h)?;
    if args.is_empty() {
        return Err(ReasonCode::ArityMismatch.because("specialize needs arguments"));
    }
    Ok(hf)
}

/// `specialize (H a1 .. an)`.
pub fn specialize(
    env: &Env,
    goal: &Goal,
    h: &str,
    args: &[Term],
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let hf = specialize_prefix(goal, h, args)?;
    let new = instantiate_with_args(env, goal, hf, args, fuel)?;
    let mut g = goal.clone();
    g.set_hyp(h, new);
    Ok(vec![g])
}

/// The fuel-free prefix of `pose proof (L args)`: `L`'s statement, which
/// must be ground when there are no arguments.
pub(crate) fn pose_proof_prefix(
    env: &Env,
    goal: &Goal,
    name: &str,
    args: &[Term],
) -> Result<Formula, PreflightRejection> {
    let stmt = stmt_of(env, goal, name)
        .ok_or_else(|| ReasonCode::UnknownName.because(format!("unknown lemma {name}")))?;
    if args.is_empty() && !stmt.is_ground() {
        return Err(ReasonCode::GoalShape.because("statement is not ground"));
    }
    Ok(stmt)
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
    let stmt = pose_proof_prefix(env, goal, name, args)?;
    let new = if args.is_empty() {
        stmt
    } else {
        instantiate_with_args(env, goal, &stmt, args, fuel)?
    };
    let mut g = goal.clone();
    let hname = match as_name {
        Some(n) => unused_name(&goal.names_in_scope(), n)?,
        None => g.fresh("H"),
    };
    g.hyps.push((hname, new));
    Ok(vec![g])
}

#[cfg(test)]
mod tests {
    use crate::env::Env;
    use crate::formula::Formula;
    use crate::fuel::Fuel;
    use crate::goal::{Goal, ProofState};
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
            ("le_add_0_in", "forall n m : nat, le (add 0 n) m -> le n m"),
            (
                "le_add_iff",
                "forall n m : nat, le (add 0 (add 0 n)) m <-> le n (add 0 m)",
            ),
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
            // Each side of an iff, up to conversion: backward through its
            // right side, forward through its left.
            case(env, "le 2 3", "", "apply le_add_iff"),
            case(env, "le 2 3 -> False", "intros H", "apply le_add_iff in H"),
            // A premise that meets the hypothesis only up to conversion.
            case(env, "le 2 3 -> False", "intros H", "apply le_add_0_in in H"),
            case(
                env,
                "In 2 [] -> False",
                "intros H",
                "apply le_add_0_in in H",
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
        observe_on(env, &case.state, &case.tactic, budget)
    }

    fn observe_on(env: &Env, state: &ProofState, tac: &Tactic, budget: u64) -> (String, u64, u64) {
        let mut fuel = Fuel::new(budget);
        let r = apply_tactic(env, state, tac, &mut fuel);
        (format!("{r:?}"), fuel.spent(), fuel.remaining())
    }

    /// `state` with every conclusion rebuilt, so no normal form is filled.
    fn unfilled(state: &ProofState) -> ProofState {
        let goals = state.goals.iter().map(|g| Goal {
            concl: Formula::clone(&g.concl).into(),
            ..Goal::clone(g)
        });
        ProofState::from_goals(goals.collect())
    }

    #[test]
    fn a_goal_replays_the_normal_form_an_earlier_tactic_left_in_it() {
        let env = env();
        // (statement, setup, first tactic, second tactic): the first
        // normalizes the goal's conclusion (or the lemma's premise), the
        // second then reads that slot on the same state.
        let pairs = [
            ("le 3 4", "", "apply le_n", "apply le_add_0"),
            ("le 3 3", "", "apply le_iff", "apply le_add_0"),
            ("le 3 3", "", "apply le_add_0", "eapply le_add_0"),
            ("le (add 1 2) 3", "", "apply le_add_0", "constructor"),
            ("le 1 2", "", "constructor", "apply le_iff"),
            ("In 1 (0 :: 1 :: [])", "", "apply in_eq", "apply incl_tl"),
            ("le 1 2", "", "apply in_cons", "apply le_iff"),
            (
                "le 2 3 -> False",
                "intros H",
                "apply le_add_0_in in H",
                "apply le_add_0_in in H",
            ),
            (
                "le 2 3 -> False",
                "intros H",
                "apply le_iff in H",
                "apply le_iff in H",
            ),
            ("le 2 3", "", "apply le_add_iff", "apply le_add_0"),
        ];
        let mut ok = 0;
        for (stmt, setup, first, second) in pairs {
            let first = case(&env, stmt, setup, first);
            let second = case(&env, stmt, setup, second);
            // The reference runs the second tactic on a state no cached
            // call has touched: the live path never fills a slot.
            let (result, full, _) = live_path(|| observe(&env, &second, u64::MAX / 2));
            ok += usize::from(result.starts_with("Ok"));
            for budget in (0..=full + 1).chain([u64::MAX / 2]) {
                let state = unfilled(&first.state);
                observe_on(&env, &state, &first.tactic, u64::MAX / 2);
                assert_eq!(
                    observe_on(&env, &state, &second.tactic, budget),
                    live_path(|| observe(&env, &second, budget)),
                    "{} after {}: budget {budget} of {full}",
                    second.text,
                    first.text
                );
            }
        }
        assert!(ok >= 4, "{ok} ok");
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

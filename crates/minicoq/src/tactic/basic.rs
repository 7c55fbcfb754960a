//! Structural tactics: introduction, closing, context management.

use std::borrow::Cow;
use std::collections::BTreeSet;

use crate::analysis::{PreflightRejection, ReasonCode};
use crate::env::{Env, PredDef};
use crate::error::TacticError;
use crate::eval::{conv_eq_formula, conv_eq_term, fix_unfolds, unfold_pred, EvalMode};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::sort::Sort;
use crate::subst::{fresh_name, subst_formula1};
use crate::term::Term;
use crate::unify::Unifier;
use crate::Ident;

/// Weak-head exposure of a proposition: unfolds defined predicates and
/// reduces decidable formula-matches until a logical connective (or an
/// opaque atom) is at the head. Bounded. Borrows `f` when nothing
/// unfolds; the first unfolding step makes the first copy.
pub(crate) fn whnf_prop<'f>(env: &Env, f: &'f Formula) -> Cow<'f, Formula> {
    let mut cur = Cow::Borrowed(f);
    for _ in 0..64 {
        match &*cur {
            Formula::Pred(p, sorts, args) => {
                let unfoldable = match env.preds.get(p.as_str()) {
                    Some(PredDef::Defined(d)) => {
                        !d.recursive || fix_unfolds(env, d.struct_arg, args)
                    }
                    _ => false,
                };
                if !unfoldable {
                    return cur;
                }
                match unfold_pred(env, p, sorts, args) {
                    Some(body) => cur = Cow::Owned(body),
                    None => return cur,
                }
            }
            Formula::FMatch(..) => {
                // Reduce via the normalizer in simpl mode, which performs
                // exactly the decidable match steps.
                let mut fuel = Fuel::new(10_000);
                match crate::eval::normalize_formula(env, &cur, EvalMode::simpl(), &mut fuel) {
                    Ok(n) if n != *cur => cur = Cow::Owned(n),
                    _ => return cur,
                }
            }
            _ => return cur,
        }
    }
    cur
}

/// The hypothesis `h` of `goal`, the lookup every tactic naming a
/// hypothesis starts with.
pub(crate) fn hyp<'g>(goal: &'g Goal, h: &str) -> Result<&'g Formula, PreflightRejection> {
    goal.hyp(h)
        .ok_or_else(|| ReasonCode::UnknownName.because(format!("no hypothesis {h}")))
}

/// `n`, unless `scope` already binds it.
pub(crate) fn unused_name(scope: &BTreeSet<Ident>, n: &str) -> Result<Ident, PreflightRejection> {
    if scope.contains(n) {
        return Err(ReasonCode::NameInUse.because(format!("name {n} already used")));
    }
    Ok(n.into())
}

/// One introduction step, the only one: moves the binder or premise at the
/// head of `exposed` (the conclusion, read through [`whnf_prop`] unless the
/// caller wants no unfolding) into the context as `name`, or as a name
/// fresh against `scope`. `scope` is `g.names_in_scope()` and stays so, so
/// a run of steps never rebuilds it. On failure `g` is untouched.
pub(crate) fn intro_binder(
    g: &mut Goal,
    scope: &mut BTreeSet<Ident>,
    exposed: Formula,
    name: Option<&str>,
) -> Result<(), PreflightRejection> {
    let (name, concl) = match exposed {
        Formula::Forall(v, s, body) => {
            let name = match name {
                Some(n) => unused_name(scope, n)?,
                None => fresh_name(&v, scope),
            };
            let concl = subst_formula1(&body, &v, &Term::var(name.clone()));
            g.vars.push((name.clone(), s));
            (name, concl)
        }
        Formula::ForallSort(v, body) => {
            let name = name.map_or_else(|| v.clone(), Ident::from);
            if g.sort_vars.contains(&name) {
                return Err(
                    ReasonCode::NameInUse.because(format!("sort variable {name} already used"))
                );
            }
            let concl = if name != v {
                let mut map = crate::subst::SortSubst::new();
                map.insert(v, Sort::Var(name.clone()));
                crate::subst::subst_sorts_formula(&body, &map)
            } else {
                *body
            };
            g.sort_vars.push(name.clone());
            (name, concl)
        }
        Formula::Implies(p, q) => {
            let name = match name {
                Some(n) => unused_name(scope, n)?,
                None => fresh_name("H", scope),
            };
            g.hyps.push((name.clone(), *p));
            (name, *q)
        }
        Formula::Not(p) => {
            let name = name.map_or_else(|| fresh_name("H", scope), Ident::from);
            g.hyps.push((name.clone(), *p));
            (name, Formula::False)
        }
        _ => return Err(ReasonCode::AtomicConclusion.because("nothing to introduce")),
    };
    g.concl = concl.into();
    scope.insert(name);
    Ok(())
}

/// `intro [name]`.
pub fn intro(env: &Env, goal: &Goal, name: Option<&str>) -> Result<Goal, PreflightRejection> {
    let mut g = goal.clone();
    intro_binder(
        &mut g,
        &mut goal.names_in_scope(),
        whnf_prop(env, &goal.concl).into_owned(),
        name,
    )?;
    Ok(g)
}

/// `intros [names]`. With no names, introduces greedily but does not unfold
/// definitions to find more products, and like Coq succeeds as a no-op when
/// there is nothing to introduce.
pub fn intros(env: &Env, goal: &Goal, names: &[Ident]) -> Result<Goal, PreflightRejection> {
    let mut g = goal.clone();
    let mut scope = goal.names_in_scope();
    if names.is_empty() {
        loop {
            let exposed = Formula::clone(&g.concl);
            if intro_binder(&mut g, &mut scope, exposed, None).is_err() {
                break;
            }
        }
    }
    for n in names {
        let exposed = whnf_prop(env, &g.concl).into_owned();
        intro_binder(&mut g, &mut scope, exposed, Some(n))?;
    }
    Ok(g)
}

/// `exact H`.
pub fn exact(env: &Env, goal: &Goal, h: &str, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    if conv_eq_formula(env, hyp(goal, h)?, &goal.concl, fuel)? {
        Ok(vec![])
    } else {
        Err(TacticError::rejected("hypothesis does not match the goal"))
    }
}

/// `assumption`.
pub fn assumption(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    for (_, f) in &goal.hyps {
        if conv_eq_formula(env, f, &goal.concl, fuel)? {
            return Ok(vec![]);
        }
    }
    Err(TacticError::rejected("no matching assumption"))
}

/// `split`.
pub fn split(goal: &Goal) -> Result<Vec<Goal>, PreflightRejection> {
    split_in(goal, &goal.concl)
}

/// `split` on `goal` read as `concl`.
pub(crate) fn split_in(goal: &Goal, concl: &Formula) -> Result<Vec<Goal>, PreflightRejection> {
    match concl {
        Formula::And(a, b) => {
            let mut g1 = goal.clone();
            g1.concl = (**a).clone().into();
            let mut g2 = goal.clone();
            g2.concl = (**b).clone().into();
            Ok(vec![g1, g2])
        }
        Formula::Iff(a, b) => {
            let mut g1 = goal.clone();
            g1.concl = Formula::implies((**a).clone(), (**b).clone()).into();
            let mut g2 = goal.clone();
            g2.concl = Formula::implies((**b).clone(), (**a).clone()).into();
            Ok(vec![g1, g2])
        }
        Formula::True => Ok(vec![]),
        _ => Err(ReasonCode::GoalShape.because("goal is not a conjunction")),
    }
}

/// `left` (`right` with `right` set): the chosen side of a disjunction.
pub fn left_or_right(goal: &Goal, right: bool) -> Result<Vec<Goal>, PreflightRejection> {
    let Formula::Or(a, b) = &*goal.concl else {
        return Err(ReasonCode::GoalShape.because("goal is not a disjunction"));
    };
    let mut g = goal.clone();
    g.concl = Formula::clone(if right { b } else { a }).into();
    Ok(vec![g])
}

/// `exists t`.
pub fn exists_tac(env: &Env, goal: &Goal, witness: &Term) -> Result<Goal, PreflightRejection> {
    let Formula::Exists(v, _, body) = &*whnf_prop(env, &goal.concl) else {
        return Err(ReasonCode::GoalShape.because("goal is not an existential"));
    };
    let mut fv = BTreeSet::new();
    witness.free_vars(&mut fv);
    in_context(goal, &fv)?;
    let mut g = goal.clone();
    g.concl = subst_formula1(body, v, witness).into();
    Ok(g)
}

/// Fails with [`ReasonCode::UnknownName`] unless every variable of `fv` is
/// a context variable of `goal`.
fn in_context(goal: &Goal, fv: &BTreeSet<Ident>) -> Result<(), PreflightRejection> {
    match fv.iter().find(|x| goal.var_sort(x).is_none()) {
        Some(x) => Err(ReasonCode::UnknownName.because(format!("unknown variable {x}"))),
        None => Ok(()),
    }
}

/// `exfalso`.
pub fn exfalso(goal: &Goal) -> Vec<Goal> {
    let mut g = goal.clone();
    g.concl = Formula::False.into();
    vec![g]
}

/// `contradiction`.
pub fn contradiction(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    for (_, f) in &goal.hyps {
        if matches!(*whnf_prop(env, f), Formula::False) {
            return Ok(vec![]);
        }
    }
    // Look for a complementary pair P / ~P.
    for (_, f) in &goal.hyps {
        if let Formula::Not(p) = &*whnf_prop(env, f) {
            for (_, g2) in &goal.hyps {
                if conv_eq_formula(env, g2, p, fuel)? {
                    return Ok(vec![]);
                }
            }
        }
    }
    Err(TacticError::rejected("no contradiction found"))
}

/// `clear H ...`.
pub fn clear(goal: &Goal, names: &[Ident]) -> Result<Goal, PreflightRejection> {
    let mut g = goal.clone();
    for n in names {
        if g.remove_hyp(n) {
            continue;
        }
        if g.var_sort(n).is_some() {
            let used = g.hyps.iter().any(|(_, f)| f.mentions(n)) || g.concl.mentions(n);
            if used {
                return Err(ReasonCode::NameInUse.because(format!("{n} is used in the goal")));
            }
            g.remove_var(n);
            continue;
        }
        return Err(ReasonCode::UnknownName.because(format!("no such hypothesis: {n}")));
    }
    Ok(g)
}

/// `revert x H ...`: moves hypotheses and variables back into the goal.
/// Reverting a variable also reverts the hypotheses that mention it (the
/// behaviour of `generalize dependent`).
pub fn revert(goal: &Goal, names: &[Ident]) -> Result<Goal, PreflightRejection> {
    let mut g = goal.clone();
    for n in names.iter().rev() {
        if let Some(f) = g.hyp(n).cloned() {
            g.remove_hyp(n);
            g.concl = Formula::implies(f, g.concl.into_formula()).into();
            continue;
        }
        if let Some(s) = g.var_sort(n).cloned() {
            // First revert dependent hypotheses, innermost last.
            let deps: Vec<(Ident, Formula)> = g
                .hyps
                .iter()
                .filter(|(_, f)| f.mentions(n))
                .cloned()
                .collect();
            for (hn, hf) in deps.iter().rev() {
                g.remove_hyp(hn);
                g.concl = Formula::implies(hf.clone(), Formula::clone(&g.concl)).into();
            }
            g.remove_var(n);
            g.concl = Formula::Forall(n.clone(), s, Box::new(g.concl.into_formula())).into();
            continue;
        }
        return Err(ReasonCode::UnknownName.because(format!("no such name: {n}")));
    }
    Ok(g)
}

/// The fuel-free prefix of `reflexivity`: the exposed conclusion, which
/// must be an equation, a bi-implication or `True`.
pub(crate) fn reflexivity_prefix<'g>(
    env: &Env,
    goal: &'g Goal,
) -> Result<Cow<'g, Formula>, PreflightRejection> {
    let concl = whnf_prop(env, &goal.concl);
    match *concl {
        Formula::Eq(..) | Formula::Iff(..) | Formula::True => Ok(concl),
        _ => Err(ReasonCode::GoalShape.because("goal is not an equality")),
    }
}

/// `reflexivity`.
pub fn reflexivity(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let convertible = match &*reflexivity_prefix(env, goal)? {
        Formula::Eq(_, a, b) => conv_eq_term(env, a, b, fuel)?,
        Formula::Iff(a, b) => conv_eq_formula(env, a, b, fuel)?,
        _ => true,
    };
    if convertible {
        Ok(vec![])
    } else {
        Err(TacticError::rejected("the two sides are not convertible"))
    }
}

/// `symmetry` / `symmetry in H`.
pub fn symmetry(env: &Env, goal: &Goal, loc: Option<&str>) -> Result<Goal, PreflightRejection> {
    let flip = |f: &Formula| match &*whnf_prop(env, f) {
        Formula::Eq(s, a, b) => Some(Formula::Eq(s.clone(), b.clone(), a.clone())),
        Formula::Iff(a, b) => Some(Formula::Iff(b.clone(), a.clone())),
        _ => None,
    };
    let mut g = goal.clone();
    match loc {
        None => {
            let Some(f) = flip(&goal.concl) else {
                return Err(ReasonCode::GoalShape.because("goal is not an equality"));
            };
            g.concl = f.into();
        }
        Some(h) => {
            let Some(f) = flip(hyp(goal, h)?) else {
                return Err(ReasonCode::NonEquation.because("hypothesis is not an equality"));
            };
            g.set_hyp(h, f);
        }
    }
    Ok(g)
}

/// The two sides of an `f_equal` goal: the equation's sort, the common
/// head symbol and the argument lists, which have equal lengths.
type FEqualSides<'g> = (&'g Sort, &'g str, &'g [Term], &'g [Term]);

/// The fuel-free prefix of `f_equal`: the conclusion must equate two
/// applications of the same symbol to as many arguments.
pub(crate) fn f_equal_prefix(goal: &Goal) -> Result<FEqualSides<'_>, PreflightRejection> {
    let Formula::Eq(s, a, b) = &*goal.concl else {
        return Err(ReasonCode::GoalShape.because("goal is not an equality"));
    };
    let (Term::App(f, fargs), Term::App(g, gargs)) = (a, b) else {
        return Err(ReasonCode::GoalShape.because("both sides must be applications"));
    };
    if f != g || fargs.len() != gargs.len() {
        return Err(ReasonCode::HeadMismatch.because("head symbols differ"));
    }
    Ok((s, f, fargs, gargs))
}

/// `f_equal`.
pub fn f_equal(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let (s, f, fargs, gargs) = f_equal_prefix(goal)?;
    let arg_sorts = arg_sorts_of(env, f, fargs.len(), s)?;
    let mut out = Vec::new();
    for ((x, y), s) in fargs.iter().zip(gargs).zip(arg_sorts) {
        if conv_eq_term(env, x, y, fuel)? {
            continue;
        }
        let mut g = goal.clone();
        g.concl = Formula::Eq(s, x.clone(), y.clone()).into();
        out.push(g);
    }
    Ok(out)
}

/// Computes argument sorts for an application of `f` whose result sort is
/// `result`, by unifying the declared signature.
pub(crate) fn arg_sorts_of(
    env: &Env,
    f: &str,
    arity: usize,
    result: &Sort,
) -> Result<Vec<Sort>, TacticError> {
    if let Some(sorts) = env.ctor_arg_sorts(f, result) {
        if sorts.len() == arity {
            return Ok(sorts);
        }
    }
    if let Some(def) = env.funcs.get(f) {
        if def.params.len() == arity {
            let mut uni = Unifier::new();
            let map: crate::subst::SortSubst = def
                .sort_params
                .iter()
                .map(|p| (p.clone(), uni.fresh_sort_meta()))
                .collect();
            let ret = def.ret.subst_vars(&map);
            if uni.unify_sorts(&ret, result).is_ok() {
                return Ok(def
                    .params
                    .iter()
                    .map(|(_, s)| s.subst_vars(&map).subst_metas(&uni.sort_metas))
                    .collect());
            }
        }
    }
    Err(TacticError::rejected(format!(
        "cannot determine argument sorts of {f}"
    )))
}

/// `assert (H : F)`.
pub fn assert_tac(
    goal: &Goal,
    name: Option<&str>,
    f: &Formula,
) -> Result<Vec<Goal>, PreflightRejection> {
    let mut fv = BTreeSet::new();
    f.free_vars(&mut fv);
    in_context(goal, &fv)?;
    let name = match name {
        Some(n) => n.into(),
        None => goal.fresh("H"),
    };
    let mut side = goal.clone();
    side.concl = f.clone().into();
    let mut main = goal.clone();
    main.hyps.push((name, f.clone()));
    Ok(vec![side, main])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_formula;

    #[test]
    fn intros_equals_one_intro_per_binder_names_included() {
        let env = Env::with_prelude();
        // Every binder kind, with an inner `x` whose fresh name must
        // avoid the outer one.
        let stmt = "forall x : nat, forall A : Sort, forall (x : A) (n : nat), n = n -> ~ (x = x)";
        let goal = Goal::new(parse_formula(&env, stmt).unwrap());

        let mut stepped = goal.clone();
        for _ in 0..6 {
            stepped = intro(&env, &stepped, None).unwrap();
        }
        assert_eq!(
            intro(&env, &stepped, None).unwrap_err().code,
            ReasonCode::AtomicConclusion
        );
        assert_eq!(intros(&env, &goal, &[]).unwrap(), stepped);
        assert_eq!(stepped.sort_vars, ["A"]);
        let vars: Vec<&str> = stepped.vars.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, ["x", "x0", "n"]);
        let hyps: Vec<&str> = stepped.hyps.iter().map(|(h, _)| h.as_str()).collect();
        assert_eq!(hyps, ["H", "H0"]);
        assert_eq!(*stepped.concl, Formula::False);

        let names: Vec<Ident> = ["y", "B", "z", "m", "Hm", "Hz"].map(Ident::from).into();
        let mut named = goal.clone();
        for n in &names {
            named = intro(&env, &named, Some(n)).unwrap();
        }
        assert_eq!(intros(&env, &goal, &names).unwrap(), named);
        assert_eq!(named.sort_vars, ["B"]);
        let hyps: Vec<&str> = named.hyps.iter().map(|(h, _)| h.as_str()).collect();
        assert_eq!(hyps, ["Hm", "Hz"]);
    }
}

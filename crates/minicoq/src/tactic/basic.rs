//! Structural tactics: introduction, closing, context management.

use std::collections::BTreeSet;

use crate::env::{Env, PredDef};
use crate::error::TacticError;
use crate::eval::{conv_eq_formula, conv_eq_term, fix_unfolds, unfold_pred, EvalMode};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::sort::Sort;
use crate::subst::subst_formula1;
use crate::term::Term;
use crate::unify::Unifier;

/// Weak-head exposure of a proposition: unfolds defined predicates and
/// reduces decidable formula-matches until a logical connective (or an
/// opaque atom) is at the head. Bounded.
pub(crate) fn whnf_prop(env: &Env, f: &Formula) -> Formula {
    let mut cur = f.clone();
    for _ in 0..64 {
        match &cur {
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
                    Some(body) => cur = body,
                    None => return cur,
                }
            }
            Formula::FMatch(..) => {
                // Reduce via the normalizer in simpl mode, which performs
                // exactly the decidable match steps.
                let mut fuel = Fuel::new(10_000);
                match crate::eval::normalize_formula(env, &cur, EvalMode::simpl(), &mut fuel) {
                    Ok(n) if n != cur => cur = n,
                    _ => return cur,
                }
            }
            _ => return cur,
        }
    }
    cur
}

/// `intro [name]`.
pub fn intro(env: &Env, goal: &Goal, name: Option<&str>) -> Result<Vec<Goal>, TacticError> {
    let concl = whnf_prop(env, &goal.concl);
    let mut g = goal.clone();
    match concl {
        Formula::Forall(v, s, body) => {
            let name = match name {
                Some(n) => {
                    if goal.names_in_scope().contains(n) {
                        return Err(TacticError::rejected(format!("name {n} already used")));
                    }
                    n.to_string()
                }
                None => g.fresh(&v),
            };
            g.concl = subst_formula1(&body, &v, &Term::var(name.clone()));
            g.vars.push((name, s));
            Ok(vec![g])
        }
        Formula::ForallSort(v, body) => {
            let name = match name {
                Some(n) => n.to_string(),
                None => v.clone(),
            };
            if g.sort_vars.contains(&name) {
                return Err(TacticError::rejected(format!(
                    "sort variable {name} already used"
                )));
            }
            if name != v {
                let mut map = crate::subst::SortSubst::new();
                map.insert(v, Sort::Var(name.clone()));
                g.concl = crate::subst::subst_sorts_formula(&body, &map);
            } else {
                g.concl = *body;
            }
            g.sort_vars.push(name);
            Ok(vec![g])
        }
        Formula::Implies(p, q) => {
            let name = match name {
                Some(n) => {
                    if goal.names_in_scope().contains(n) {
                        return Err(TacticError::rejected(format!("name {n} already used")));
                    }
                    n.to_string()
                }
                None => g.fresh("H"),
            };
            g.hyps.push((name, *p));
            g.concl = *q;
            Ok(vec![g])
        }
        Formula::Not(p) => {
            let name = match name {
                Some(n) => n.to_string(),
                None => g.fresh("H"),
            };
            g.hyps.push((name, *p));
            g.concl = Formula::False;
            Ok(vec![g])
        }
        _ => Err(TacticError::rejected("nothing to introduce")),
    }
}

/// `intros [names]`. With no names, introduces greedily but does not unfold
/// definitions to find more products.
pub fn intros(env: &Env, goal: &Goal, names: &[String]) -> Result<Vec<Goal>, TacticError> {
    if names.is_empty() {
        let mut g = goal.clone();
        let mut introduced = false;
        loop {
            // Plain `intros` stops at defined predicates rather than
            // unfolding them.
            let stop = !matches!(
                g.concl,
                Formula::Forall(..)
                    | Formula::ForallSort(..)
                    | Formula::Implies(..)
                    | Formula::Not(..)
            );
            if stop {
                break;
            }
            match intro(env, &g, None) {
                Ok(mut v) => {
                    g = v.pop().expect("intro returns one goal");
                    introduced = true;
                }
                Err(_) => break,
            }
        }
        // Like Coq, plain `intros` succeeds as a no-op when there is
        // nothing to introduce.
        let _ = introduced;
        return Ok(vec![g]);
    }
    let mut g = goal.clone();
    for n in names {
        let mut v = intro(env, &g, Some(n))?;
        g = v.pop().expect("intro returns one goal");
    }
    Ok(vec![g])
}

/// `exact H`.
pub fn exact(env: &Env, goal: &Goal, h: &str, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let Some(f) = goal.hyp(h) else {
        return Err(TacticError::rejected(format!("no hypothesis {h}")));
    };
    if conv_eq_formula(env, f, &goal.concl, fuel)? {
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
pub fn split(goal: &Goal) -> Result<Vec<Goal>, TacticError> {
    split_in(goal, &goal.concl.clone())
}

pub(crate) fn split_in(goal: &Goal, concl: &Formula) -> Result<Vec<Goal>, TacticError> {
    match concl {
        Formula::And(a, b) => {
            let mut g1 = goal.clone();
            g1.concl = (**a).clone();
            let mut g2 = goal.clone();
            g2.concl = (**b).clone();
            Ok(vec![g1, g2])
        }
        Formula::Iff(a, b) => {
            let mut g1 = goal.clone();
            g1.concl = Formula::implies((**a).clone(), (**b).clone());
            let mut g2 = goal.clone();
            g2.concl = Formula::implies((**b).clone(), (**a).clone());
            Ok(vec![g1, g2])
        }
        Formula::True => Ok(vec![]),
        _ => Err(TacticError::rejected("goal is not a conjunction")),
    }
}

/// `left`.
pub fn left(goal: &Goal) -> Result<Vec<Goal>, TacticError> {
    match &goal.concl {
        Formula::Or(a, _) => {
            let mut g = goal.clone();
            g.concl = (**a).clone();
            Ok(vec![g])
        }
        _ => Err(TacticError::rejected("goal is not a disjunction")),
    }
}

/// `right`.
pub fn right(goal: &Goal) -> Result<Vec<Goal>, TacticError> {
    match &goal.concl {
        Formula::Or(_, b) => {
            let mut g = goal.clone();
            g.concl = (**b).clone();
            Ok(vec![g])
        }
        _ => Err(TacticError::rejected("goal is not a disjunction")),
    }
}

/// `exists t`.
pub fn exists_tac(
    env: &Env,
    goal: &Goal,
    witness: &Term,
    _fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let concl = whnf_prop(env, &goal.concl);
    let Formula::Exists(v, _, body) = concl else {
        return Err(TacticError::rejected("goal is not an existential"));
    };
    let mut fv = BTreeSet::new();
    witness.free_vars(&mut fv);
    for x in &fv {
        if goal.var_sort(x).is_none() {
            return Err(TacticError::rejected(format!("unknown variable {x}")));
        }
    }
    let mut g = goal.clone();
    g.concl = subst_formula1(&body, &v, witness);
    Ok(vec![g])
}

/// `exfalso`.
pub fn exfalso(goal: &Goal) -> Vec<Goal> {
    let mut g = goal.clone();
    g.concl = Formula::False;
    vec![g]
}

/// `contradiction`.
pub fn contradiction(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    for (_, f) in &goal.hyps {
        if matches!(whnf_prop(env, f), Formula::False) {
            return Ok(vec![]);
        }
    }
    // Look for a complementary pair P / ~P.
    for (_, f) in &goal.hyps {
        let nf = whnf_prop(env, f);
        if let Formula::Not(p) = nf {
            for (_, g2) in &goal.hyps {
                if conv_eq_formula(env, g2, &p, fuel)? {
                    return Ok(vec![]);
                }
            }
        }
    }
    Err(TacticError::rejected("no contradiction found"))
}

/// `clear H ...`.
pub fn clear(goal: &Goal, names: &[String]) -> Result<Vec<Goal>, TacticError> {
    let mut g = goal.clone();
    for n in names {
        if g.remove_hyp(n) {
            continue;
        }
        if g.var_sort(n).is_some() {
            let used = g.hyps.iter().any(|(_, f)| f.mentions(n)) || g.concl.mentions(n);
            if used {
                return Err(TacticError::rejected(format!("{n} is used in the goal")));
            }
            g.remove_var(n);
            continue;
        }
        return Err(TacticError::rejected(format!("no such hypothesis: {n}")));
    }
    Ok(vec![g])
}

/// `revert x H ...`: moves hypotheses and variables back into the goal.
/// Reverting a variable also reverts the hypotheses that mention it (the
/// behaviour of `generalize dependent`).
pub fn revert(goal: &Goal, names: &[String]) -> Result<Vec<Goal>, TacticError> {
    let mut g = goal.clone();
    for n in names.iter().rev() {
        if let Some(f) = g.hyp(n).cloned() {
            g.remove_hyp(n);
            g.concl = Formula::implies(f, g.concl);
            continue;
        }
        if let Some(s) = g.var_sort(n).cloned() {
            // First revert dependent hypotheses, innermost last.
            let deps: Vec<(String, Formula)> = g
                .hyps
                .iter()
                .filter(|(_, f)| f.mentions(n))
                .cloned()
                .collect();
            for (hn, hf) in deps.iter().rev() {
                g.remove_hyp(hn);
                g.concl = Formula::implies(hf.clone(), g.concl.clone());
            }
            g.remove_var(n);
            g.concl = Formula::Forall(n.clone(), s, Box::new(g.concl));
            continue;
        }
        return Err(TacticError::rejected(format!("no such name: {n}")));
    }
    Ok(vec![g])
}

/// `reflexivity`.
pub fn reflexivity(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let concl = whnf_prop(env, &goal.concl);
    match concl {
        Formula::Eq(_, a, b) => {
            if conv_eq_term(env, &a, &b, fuel)? {
                Ok(vec![])
            } else {
                Err(TacticError::rejected("the two sides are not convertible"))
            }
        }
        Formula::Iff(a, b) => {
            if conv_eq_formula(env, &a, &b, fuel)? {
                Ok(vec![])
            } else {
                Err(TacticError::rejected("the two sides are not convertible"))
            }
        }
        Formula::True => Ok(vec![]),
        _ => Err(TacticError::rejected("goal is not an equality")),
    }
}

/// `symmetry` / `symmetry in H`.
pub fn symmetry(env: &Env, goal: &Goal, loc: Option<&str>) -> Result<Vec<Goal>, TacticError> {
    let mut g = goal.clone();
    match loc {
        None => {
            let concl = whnf_prop(env, &g.concl);
            match concl {
                Formula::Eq(s, a, b) => {
                    g.concl = Formula::Eq(s, b, a);
                    Ok(vec![g])
                }
                Formula::Iff(a, b) => {
                    g.concl = Formula::Iff(b, a);
                    Ok(vec![g])
                }
                _ => Err(TacticError::rejected("goal is not an equality")),
            }
        }
        Some(h) => {
            let Some(f) = g.hyp(h).cloned() else {
                return Err(TacticError::rejected(format!("no hypothesis {h}")));
            };
            match whnf_prop(env, &f) {
                Formula::Eq(s, a, b) => {
                    g.set_hyp(h, Formula::Eq(s, b, a));
                    Ok(vec![g])
                }
                Formula::Iff(a, b) => {
                    g.set_hyp(h, Formula::Iff(b, a));
                    Ok(vec![g])
                }
                _ => Err(TacticError::rejected("hypothesis is not an equality")),
            }
        }
    }
}

/// `f_equal`.
pub fn f_equal(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let Formula::Eq(s, a, b) = &goal.concl else {
        return Err(TacticError::rejected("goal is not an equality"));
    };
    let (Term::App(f, fargs), Term::App(g2, gargs)) = (a, b) else {
        return Err(TacticError::rejected("both sides must be applications"));
    };
    if f != g2 || fargs.len() != gargs.len() {
        return Err(TacticError::rejected("head symbols differ"));
    }
    let arg_sorts = arg_sorts_of(env, f, fargs.len(), s)?;
    let mut out = Vec::new();
    for ((x, y), s) in fargs.iter().zip(gargs).zip(arg_sorts) {
        if conv_eq_term(env, x, y, fuel)? {
            continue;
        }
        let mut g = goal.clone();
        g.concl = Formula::Eq(s, x.clone(), y.clone());
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
pub fn assert_tac(goal: &Goal, name: Option<&str>, f: &Formula) -> Result<Vec<Goal>, TacticError> {
    let mut fv = BTreeSet::new();
    f.free_vars(&mut fv);
    for x in &fv {
        if goal.var_sort(x).is_none() {
            return Err(TacticError::rejected(format!("unknown variable {x}")));
        }
    }
    let name = match name {
        Some(n) => n.to_string(),
        None => goal.fresh("H"),
    };
    let mut side = goal.clone();
    side.concl = f.clone();
    let mut main = goal.clone();
    main.hyps.push((name, f.clone()));
    Ok(vec![side, main])
}

//! Sort inference for terms in a goal context.

use std::collections::BTreeMap;

use crate::env::Env;
use crate::error::TacticError;
use crate::goal::Goal;
use crate::sort::Sort;
use crate::term::Term;
use crate::unify::Unifier;
use crate::walk::Node;
use crate::Ident;

/// Infers the sort of `t` in the context of `goal`, extending `uni` with
/// sort metavariable solutions. Pattern binders are not supported here
/// (tactic arguments are match-free); `Match` terms are rejected.
pub fn infer_sort(
    env: &Env,
    goal: &Goal,
    t: &Term,
    uni: &mut Unifier,
) -> Result<Sort, TacticError> {
    infer_with_locals(env, &|v| goal.var_sort(v).cloned(), t, uni)
}

/// Infers the sort of `t`, resolving variables through `lookup`.
pub fn infer_with_locals(
    env: &Env,
    lookup: &dyn Fn(&str) -> Option<Sort>,
    t: &Term,
    uni: &mut Unifier,
) -> Result<Sort, TacticError> {
    match t {
        Term::Var(v) => {
            lookup(v).ok_or_else(|| TacticError::rejected(format!("unknown variable {v}")))
        }
        Term::Meta(_) => Ok(uni.fresh_sort_meta()),
        Term::App(f, args) => {
            // Constructor?
            if let Some(info) = env.ctors.get(f) {
                let ind = env
                    .inductives
                    .get(&info.ind)
                    .expect("constructor without inductive");
                let map: BTreeMap<Ident, Sort> = ind
                    .params
                    .iter()
                    .map(|p| (p.clone(), uni.fresh_sort_meta()))
                    .collect();
                let ctor = &ind.ctors[info.index];
                if ctor.args.len() != args.len() {
                    return Err(TacticError::rejected(format!(
                        "constructor {f} expects {} arguments",
                        ctor.args.len()
                    )));
                }
                for (arg, want) in args.iter().zip(&ctor.args) {
                    let got = infer_with_locals(env, lookup, arg, uni)?;
                    let want = want.subst_vars(&map);
                    uni.unify_sorts(&got, &want)
                        .map_err(|_| TacticError::rejected(format!("sort mismatch in {f}")))?;
                }
                let res = ind.self_sort().subst_vars(&map);
                return Ok(res.subst_metas(&uni.sort_metas));
            }
            // Function?
            if let Some(def) = env.funcs.get(f) {
                let map: BTreeMap<Ident, Sort> = def
                    .sort_params
                    .iter()
                    .map(|p| (p.clone(), uni.fresh_sort_meta()))
                    .collect();
                if def.params.len() != args.len() {
                    return Err(TacticError::rejected(format!(
                        "function {f} expects {} arguments",
                        def.params.len()
                    )));
                }
                for (arg, (_, want)) in args.iter().zip(&def.params) {
                    let got = infer_with_locals(env, lookup, arg, uni)?;
                    let want = want.subst_vars(&map);
                    uni.unify_sorts(&got, &want)
                        .map_err(|_| TacticError::rejected(format!("sort mismatch in {f}")))?;
                }
                let res = def.ret.subst_vars(&map);
                return Ok(res.subst_metas(&uni.sort_metas));
            }
            Err(TacticError::rejected(format!("unknown symbol {f}")))
        }
        Term::Match(..) => Err(TacticError::rejected(
            "match expressions are not allowed here",
        )),
    }
}

/// Best-effort resolution of leftover sort metavariables in a formula by
/// inferring the sorts of the terms they classify. Needed when a
/// polymorphic lemma's sort parameter occurs only in types: unifying
/// `length ?l` with `length v1` binds `?l := v1` but never constrains the
/// element sort, which this pass recovers from the context.
pub fn repair_formula_sorts(
    env: &Env,
    goal: &Goal,
    f: &crate::formula::Formula,
    uni: &mut Unifier,
) {
    use crate::formula::Formula;
    let lookup = |v: &str| goal.var_sort(v).cloned();
    Node::Formula(f).for_each(|n| match n {
        Node::Formula(Formula::Eq(s, a, b)) => {
            let s = s.subst_metas(&uni.sort_metas);
            if !s.is_ground_or_var() {
                let a = uni.resolve_term(a);
                let b = uni.resolve_term(b);
                for t in [&a, &b] {
                    if let Ok(got) = infer_with_locals(env, &lookup, t, uni) {
                        let _ = uni.unify_sorts(&got, &s);
                    }
                }
            }
        }
        Node::Formula(Formula::Pred(p, sorts, args)) => {
            if sorts
                .iter()
                .all(|s| s.subst_metas(&uni.sort_metas).is_ground_or_var())
            {
                return;
            }
            // Infer argument sorts against the predicate's declared
            // signature instantiated at the (meta-containing) sort vector.
            let sig: Option<(Vec<Ident>, Vec<Sort>)> = match env.preds.get(p.as_str()) {
                Some(crate::env::PredDef::Defined(d)) => Some((
                    d.sort_params.clone(),
                    d.params.iter().map(|(_, s)| s.clone()).collect(),
                )),
                Some(crate::env::PredDef::Inductive(i)) => {
                    Some((i.sort_params.clone(), i.arg_sorts.clone()))
                }
                None => None,
            };
            let Some((params, want)) = sig else { return };
            if params.len() != sorts.len() || want.len() != args.len() {
                return;
            }
            let map: BTreeMap<Ident, Sort> =
                params.iter().cloned().zip(sorts.iter().cloned()).collect();
            for (arg, w) in args.iter().zip(&want) {
                let arg = uni.resolve_term(arg);
                if let Ok(got) = infer_with_locals(env, &lookup, &arg, uni) {
                    let _ = uni.unify_sorts(&got, &w.subst_vars(&map));
                }
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    #[test]
    fn infers_nat_and_list() {
        let env = Env::with_prelude();
        let mut goal = Goal::new(Formula::True);
        goal.vars.push(("x".into(), Sort::nat()));
        let mut uni = Unifier::new();
        assert_eq!(
            infer_sort(&env, &goal, &Term::nat(3), &mut uni).unwrap(),
            Sort::nat()
        );
        let l = Term::App("cons".into(), vec![Term::var("x"), Term::cst("nil")]);
        let s = infer_sort(&env, &goal, &l, &mut uni).unwrap();
        assert_eq!(s.subst_metas(&uni.sort_metas), Sort::list(Sort::nat()));
    }

    #[test]
    fn rejects_unknowns_and_mismatch() {
        let env = Env::with_prelude();
        let goal = Goal::new(Formula::True);
        let mut uni = Unifier::new();
        assert!(infer_sort(&env, &goal, &Term::var("zz"), &mut uni).is_err());
        let bad = Term::App("add".into(), vec![Term::cst("true"), Term::nat(0)]);
        assert!(infer_sort(&env, &goal, &bad, &mut uni).is_err());
    }

    #[test]
    fn function_result_sort() {
        let env = Env::with_prelude();
        let goal = Goal::new(Formula::True);
        let mut uni = Unifier::new();
        let t = Term::App("leb".into(), vec![Term::nat(1), Term::nat(2)]);
        assert_eq!(infer_sort(&env, &goal, &t, &mut uni).unwrap(), Sort::bool());
    }
}

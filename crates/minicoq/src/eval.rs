//! Normalization: `simpl`-style reduction and full conversion checking.
//!
//! Two modes are provided:
//!
//! * **simpl** (`EvalMode::simpl()`): reduces `match` expressions whose
//!   scrutinee is constructor-headed and unfolds `Fixpoint`s whose
//!   structural argument is constructor-headed. Plain `Definition`s are left
//!   alone (use the `unfold` tactic), keeping goals readable and reduction
//!   predictable.
//! * **conversion** (`EvalMode::conversion()`): additionally unfolds
//!   non-recursive definitions; used by `reflexivity`, `assumption` and
//!   `exact` to decide definitional equality.
//!
//! All reduction is fuel-metered; runaway reduction surfaces as
//! [`TacticError::Timeout`], mirroring the paper's per-tactic timeout.

use std::borrow::Cow;

use crate::env::{Env, PredDef};
use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::subst::{
    either, subst_formula_opt, subst_sorts_formula_opt, subst_term, subst_term_opt,
    try_map_changed, SortSubst, TermSubst,
};
use crate::term::{Pat, Term};

/// Controls how aggressively normalization unfolds definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalMode {
    /// Unfold non-recursive `Definition`s (delta reduction).
    pub unfold_defs: bool,
    /// Unfold `Fixpoint`s whose structural argument is constructor-headed
    /// (and match-bodied plain definitions).
    pub unfold_fix: bool,
}

impl EvalMode {
    /// The `simpl` reduction strategy.
    pub fn simpl() -> EvalMode {
        EvalMode {
            unfold_defs: false,
            unfold_fix: true,
        }
    }

    /// Full conversion (delta + iota + fixpoint unfolding).
    pub fn conversion() -> EvalMode {
        EvalMode {
            unfold_defs: true,
            unfold_fix: true,
        }
    }

    /// Match reduction only (the post-pass of `unfold`): no definition is
    /// unfolded, only exposed matches reduce.
    pub fn iota() -> EvalMode {
        EvalMode {
            unfold_defs: false,
            unfold_fix: false,
        }
    }
}

/// Returns the head constructor name if the term is constructor-headed.
pub fn ctor_head<'a>(env: &Env, t: &'a Term) -> Option<&'a str> {
    match t {
        Term::App(f, _) if env.ctors.contains_key(f) => Some(f.as_str()),
        _ => None,
    }
}

/// True when a recursive definition whose decreasing parameter is
/// `struct_arg` unfolds at `args`: that argument is constructor-headed, so
/// one step of structural recursion can fire.
pub fn fix_unfolds(env: &Env, struct_arg: Option<usize>, args: &[Term]) -> bool {
    struct_arg
        .and_then(|i| args.get(i))
        .is_some_and(|a| ctor_head(env, a).is_some())
}

/// Normalizes a term under the given mode.
pub fn normalize_term(
    env: &Env,
    t: &Term,
    mode: EvalMode,
    fuel: &mut Fuel,
) -> Result<Term, TacticError> {
    Ok(normalize_term_opt(env, t, mode, fuel)?.unwrap_or_else(|| t.clone()))
}

/// [`normalize_term`], `Ok(None)` when the term is already normal. Ticks
/// exactly as [`normalize_term`] does.
pub(crate) fn normalize_term_opt(
    env: &Env,
    t: &Term,
    mode: EvalMode,
    fuel: &mut Fuel,
) -> Result<Option<Term>, TacticError> {
    fuel.tick()?;
    match t {
        Term::Var(_) | Term::Meta(_) => Ok(None),
        Term::App(f, args) => {
            let new_args = try_map_changed(args, |a| normalize_term_opt(env, a, mode, fuel))?;
            let rebuilt = |new_args: Option<Vec<Term>>| new_args.map(|a| Term::App(f.clone(), a));
            let args_now = new_args.as_deref().unwrap_or(args);
            if env.ctors.contains_key(f) {
                return Ok(rebuilt(new_args));
            }
            let Some(def) = env.funcs.get(f) else {
                return Ok(rebuilt(new_args));
            };
            if args_now.len() != def.params.len() {
                return Ok(rebuilt(new_args));
            }
            let should_unfold = if def.recursive {
                mode.unfold_fix && fix_unfolds(env, def.struct_arg, args_now)
            } else if mode.unfold_defs {
                true
            } else {
                // In simpl mode, unfold a plain definition only when its body
                // is a match that stands a chance of reducing; refolding
                // below restores the application if it stays stuck.
                mode.unfold_fix && matches!(def.body, Term::Match(..))
            };
            if !should_unfold {
                return Ok(rebuilt(new_args));
            }
            let map: TermSubst = def
                .params
                .iter()
                .map(|(p, _)| p.clone())
                .zip(args_now.iter().cloned())
                .collect();
            let unfolded = subst_term(&def.body, &map);
            let reduced = normalize_term_opt(env, &unfolded, mode, fuel)?.unwrap_or(unfolded);
            if !def.recursive && !mode.unfold_defs {
                // Refold if the body is still stuck on a match: keeps simpl
                // output readable (Coq's simpl heuristic).
                if let Term::Match(scrut, _) = &reduced {
                    if ctor_head(env, scrut).is_none() && !matches!(**scrut, Term::Meta(_)) {
                        return Ok(rebuilt(new_args));
                    }
                }
            }
            Ok(Some(reduced))
        }
        Term::Match(scrut, arms) => {
            let new_scrut = normalize_term_opt(env, scrut, mode, fuel)?;
            let scrut_now = new_scrut.as_ref().unwrap_or(scrut);
            if let Some(reduced) = step_match(env, scrut_now, arms) {
                let out = normalize_term_opt(env, &reduced, mode, fuel)?;
                return Ok(Some(out.unwrap_or_else(|| reduced.into_owned())));
            }
            // Stuck: normalize the arm bodies for readability.
            let new_arms = try_map_changed(arms, |(p, rhs)| {
                normalize_term_opt(env, rhs, mode, fuel).map(|o| o.map(|rhs| (p.clone(), rhs)))
            })?;
            Ok(either(scrut, new_scrut.map(Box::new), arms, new_arms)
                .map(|(s, arms)| Term::Match(s, arms)))
        }
    }
}

/// Selects the arm of a `match` the scrutinee decides and instantiates it
/// with `subst`, which is `None` when it changes nothing.
fn step_arm<'a, T: Clone>(
    env: &Env,
    scrut: &Term,
    arms: &'a [(Pat, T)],
    subst: fn(&T, &TermSubst) -> Option<T>,
) -> Option<Cow<'a, T>> {
    let head = ctor_head(env, scrut);
    let instantiate =
        |rhs: &'a T, map: TermSubst| Some(subst(rhs, &map).map_or(Cow::Borrowed(rhs), Cow::Owned));
    for (i, (pat, rhs)) in arms.iter().enumerate() {
        match pat {
            // A wildcard or variable matches anything, but only reduce when
            // it is the first arm or the scrutinee's constructor is known
            // (so earlier constructor arms are decidably non-matching).
            Pat::Wild => return (i == 0 || head.is_some()).then_some(Cow::Borrowed(rhs)),
            Pat::Var(v) => {
                if i == 0 || head.is_some() {
                    return instantiate(rhs, TermSubst::from([(v.clone(), scrut.clone())]));
                }
                return None;
            }
            Pat::Ctor(c, vs) => {
                let h = head?;
                if h == c {
                    let Term::App(_, cargs) = scrut else {
                        return None;
                    };
                    if cargs.len() != vs.len() {
                        return None;
                    }
                    return instantiate(
                        rhs,
                        vs.iter().cloned().zip(cargs.iter().cloned()).collect(),
                    );
                }
                // Different constructor: this arm is skipped; continue.
            }
        }
    }
    None
}

/// Selects and instantiates a match arm if the scrutinee decides one.
fn step_match<'a>(env: &Env, scrut: &Term, arms: &'a [(Pat, Term)]) -> Option<Cow<'a, Term>> {
    step_arm(env, scrut, arms, subst_term_opt)
}

/// Selects and instantiates a formula-match arm if the scrutinee decides one.
fn step_fmatch<'a>(
    env: &Env,
    scrut: &Term,
    arms: &'a [(Pat, Formula)],
) -> Option<Cow<'a, Formula>> {
    step_arm(env, scrut, arms, subst_formula_opt)
}

/// Unfolds one application of a defined predicate, instantiating sort and
/// term parameters. Returns `None` for inductive or unknown predicates, or
/// on arity mismatch.
pub fn unfold_pred(
    env: &Env,
    name: &str,
    sorts: &[crate::sort::Sort],
    args: &[Term],
) -> Option<Formula> {
    let PredDef::Defined(d) = env.preds.get(name)? else {
        return None;
    };
    if d.params.len() != args.len() || d.sort_params.len() != sorts.len() {
        return None;
    }
    let smap: SortSubst = d
        .sort_params
        .iter()
        .cloned()
        .zip(sorts.iter().cloned())
        .collect();
    let tmap: TermSubst = d
        .params
        .iter()
        .map(|(p, _)| p.clone())
        .zip(args.iter().cloned())
        .collect();
    let sorted = subst_sorts_formula_opt(&d.body, &smap);
    let body = sorted.as_ref().unwrap_or(&d.body);
    Some(match subst_formula_opt(body, &tmap) {
        Some(body) => body,
        None => sorted.unwrap_or_else(|| d.body.clone()),
    })
}

/// Normalizes a formula under the given mode.
pub fn normalize_formula(
    env: &Env,
    f: &Formula,
    mode: EvalMode,
    fuel: &mut Fuel,
) -> Result<Formula, TacticError> {
    Ok(normalize_formula_opt(env, f, mode, fuel)?.unwrap_or_else(|| f.clone()))
}

/// [`normalize_formula`], `Ok(None)` when the formula is already normal.
/// Ticks exactly as [`normalize_formula`] does.
pub(crate) fn normalize_formula_opt(
    env: &Env,
    f: &Formula,
    mode: EvalMode,
    fuel: &mut Fuel,
) -> Result<Option<Formula>, TacticError> {
    fuel.tick()?;
    let term = |t: &Term, fuel: &mut Fuel| normalize_term_opt(env, t, mode, fuel);
    let go = |g: &Formula, fuel: &mut Fuel| {
        Ok::<_, TacticError>(normalize_formula_opt(env, g, mode, fuel)?.map(Box::new))
    };
    Ok(match f {
        Formula::True | Formula::False => None,
        Formula::Eq(s, a, b) => {
            let new_a = term(a, fuel)?;
            let new_b = term(b, fuel)?;
            either(a, new_a, b, new_b).map(|(a, b)| Formula::Eq(s.clone(), a, b))
        }
        Formula::Pred(p, sorts, args) => {
            let new_args = try_map_changed(args, |a| term(a, fuel))?;
            let args_now = new_args.as_deref().unwrap_or(args);
            let unfold = match env.preds.get(p) {
                Some(PredDef::Defined(d)) => {
                    if d.recursive {
                        mode.unfold_fix && fix_unfolds(env, d.struct_arg, args_now)
                    } else {
                        mode.unfold_defs
                    }
                }
                _ => false,
            };
            if unfold {
                if let Some(body) = unfold_pred(env, p, sorts, args_now) {
                    return Ok(Some(
                        normalize_formula_opt(env, &body, mode, fuel)?.unwrap_or(body),
                    ));
                }
            }
            new_args.map(|args| Formula::Pred(p.clone(), sorts.clone(), args))
        }
        Formula::Not(g) => go(g, fuel)?.map(Formula::Not),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            let new_a = go(a, fuel)?;
            let new_b = go(b, fuel)?;
            either(a, new_a, b, new_b).map(|(a, b)| f.with_operands(a, b))
        }
        Formula::Forall(v, s, body) | Formula::Exists(v, s, body) => {
            go(body, fuel)?.map(|body| f.with_binder(v.clone(), s.clone(), body))
        }
        Formula::ForallSort(v, body) => {
            go(body, fuel)?.map(|body| Formula::ForallSort(v.clone(), body))
        }
        Formula::FMatch(scrut, arms) => {
            let new_scrut = term(scrut, fuel)?;
            let scrut_now = new_scrut.as_ref().unwrap_or(scrut);
            if let Some(reduced) = step_fmatch(env, scrut_now, arms) {
                let out = normalize_formula_opt(env, &reduced, mode, fuel)?;
                return Ok(Some(out.unwrap_or_else(|| reduced.into_owned())));
            }
            let new_arms = try_map_changed(arms, |(p, rhs)| {
                normalize_formula_opt(env, rhs, mode, fuel).map(|o| o.map(|rhs| (p.clone(), rhs)))
            })?;
            either(scrut, new_scrut.map(Box::new), arms, new_arms)
                .map(|(s, arms)| Formula::FMatch(s, arms))
        }
    })
}

/// Decides definitional equality of two terms.
pub fn conv_eq_term(env: &Env, a: &Term, b: &Term, fuel: &mut Fuel) -> Result<bool, TacticError> {
    if a == b {
        return Ok(true);
    }
    let na = normalize_term_opt(env, a, EvalMode::conversion(), fuel)?;
    let nb = normalize_term_opt(env, b, EvalMode::conversion(), fuel)?;
    Ok(alpha_eq_term(
        na.as_ref().unwrap_or(a),
        nb.as_ref().unwrap_or(b),
    ))
}

/// Decides definitional equality of two formulas (up to alpha-renaming of
/// binders).
pub fn conv_eq_formula(
    env: &Env,
    a: &Formula,
    b: &Formula,
    fuel: &mut Fuel,
) -> Result<bool, TacticError> {
    if alpha_eq_formula(a, b) {
        return Ok(true);
    }
    let na = normalize_formula_opt(env, a, EvalMode::conversion(), fuel)?;
    let nb = normalize_formula_opt(env, b, EvalMode::conversion(), fuel)?;
    Ok(alpha_eq_formula(
        na.as_ref().unwrap_or(a),
        nb.as_ref().unwrap_or(b),
    ))
}

/// Alpha-equality on terms (match binders may differ).
pub fn alpha_eq_term(a: &Term, b: &Term) -> bool {
    crate::statehash::term_key(a) == crate::statehash::term_key(b)
}

/// Alpha-equality on formulas (quantifier and match binders may differ).
pub fn alpha_eq_formula(a: &Formula, b: &Formula) -> bool {
    crate::statehash::formula_key(a) == crate::statehash::formula_key(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::sort::Sort;

    fn norm(env: &Env, t: &Term) -> Term {
        normalize_term(env, t, EvalMode::simpl(), &mut Fuel::unlimited()).unwrap()
    }

    #[test]
    fn add_computes() {
        let env = Env::with_prelude();
        let t = Term::App("add".into(), vec![Term::nat(2), Term::nat(3)]);
        assert_eq!(norm(&env, &t).as_nat(), Some(5));
    }

    #[test]
    fn mul_and_sub_compute() {
        let env = Env::with_prelude();
        let t = Term::App("mul".into(), vec![Term::nat(3), Term::nat(4)]);
        assert_eq!(norm(&env, &t).as_nat(), Some(12));
        let t = Term::App("sub".into(), vec![Term::nat(3), Term::nat(5)]);
        assert_eq!(norm(&env, &t).as_nat(), Some(0));
    }

    #[test]
    fn add_stuck_on_var_head() {
        let env = Env::with_prelude();
        let t = Term::App("add".into(), vec![Term::var("n"), Term::nat(1)]);
        // Stuck: n is not constructor-headed.
        assert_eq!(norm(&env, &t), t);
        // But S n + 1 unfolds one step: S (n + 1).
        let t2 = Term::App(
            "add".into(),
            vec![Term::App("S".into(), vec![Term::var("n")]), Term::nat(1)],
        );
        let expect = Term::App(
            "S".into(),
            vec![Term::App("add".into(), vec![Term::var("n"), Term::nat(1)])],
        );
        assert_eq!(norm(&env, &t2), expect);
    }

    #[test]
    fn booleans_reduce() {
        let env = Env::with_prelude();
        let t = Term::App("andb".into(), vec![Term::cst("true"), Term::var("b")]);
        assert_eq!(norm(&env, &t), Term::var("b"));
        let t = Term::App("andb".into(), vec![Term::var("b"), Term::cst("true")]);
        // Stuck on first argument.
        assert_eq!(norm(&env, &t), t);
    }

    #[test]
    fn conversion_decides_equality() {
        let env = Env::with_prelude();
        let mut fuel = Fuel::unlimited();
        let a = Term::App("add".into(), vec![Term::nat(1), Term::nat(1)]);
        assert!(conv_eq_term(&env, &a, &Term::nat(2), &mut fuel).unwrap());
        assert!(!conv_eq_term(&env, &a, &Term::nat(3), &mut fuel).unwrap());
    }

    #[test]
    fn lt_unfolds_in_conversion() {
        let env = Env::with_prelude();
        let mut fuel = Fuel::unlimited();
        let lt = Formula::Pred("lt".into(), vec![], vec![Term::nat(1), Term::nat(2)]);
        let le = Formula::Pred("le".into(), vec![], vec![Term::nat(2), Term::nat(2)]);
        assert!(conv_eq_formula(&env, &lt, &le, &mut fuel).unwrap());
        // simpl leaves lt alone.
        let n = normalize_formula(&env, &lt, EvalMode::simpl(), &mut Fuel::unlimited()).unwrap();
        assert_eq!(n, lt);
    }

    #[test]
    fn fuel_exhaustion_reports_timeout() {
        let env = Env::with_prelude();
        let t = Term::App("add".into(), vec![Term::nat(50), Term::nat(50)]);
        let mut fuel = Fuel::new(10);
        assert_eq!(
            normalize_term(&env, &t, EvalMode::simpl(), &mut fuel),
            Err(TacticError::Timeout)
        );
    }

    #[test]
    fn eq_formula_normalizes_sides() {
        let env = Env::with_prelude();
        let f = Formula::Eq(
            Sort::nat(),
            Term::App("add".into(), vec![Term::nat(0), Term::var("x")]),
            Term::var("x"),
        );
        let n = normalize_formula(&env, &f, EvalMode::simpl(), &mut Fuel::unlimited()).unwrap();
        assert_eq!(n, Formula::Eq(Sort::nat(), Term::var("x"), Term::var("x")));
    }
}

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

use crate::env::{Env, PredDef};
use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::subst::{subst_formula, subst_sorts_formula, subst_term, SortSubst, TermSubst};
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
    fuel.tick()?;
    match t {
        Term::Var(_) | Term::Meta(_) => Ok(t.clone()),
        Term::App(f, args) => {
            let args: Vec<Term> = args
                .iter()
                .map(|a| normalize_term(env, a, mode, fuel))
                .collect::<Result<_, _>>()?;
            if env.ctors.contains_key(f) {
                return Ok(Term::App(f.clone(), args));
            }
            let Some(def) = env.funcs.get(f) else {
                return Ok(Term::App(f.clone(), args));
            };
            if args.len() != def.params.len() {
                return Ok(Term::App(f.clone(), args));
            }
            let should_unfold = if def.recursive {
                mode.unfold_fix && fix_unfolds(env, def.struct_arg, &args)
            } else if mode.unfold_defs {
                true
            } else {
                // In simpl mode, unfold a plain definition only when its body
                // is a match that stands a chance of reducing; refolding
                // below restores the application if it stays stuck.
                mode.unfold_fix && matches!(def.body, Term::Match(..))
            };
            if !should_unfold {
                return Ok(Term::App(f.clone(), args));
            }
            let map: TermSubst = def
                .params
                .iter()
                .map(|(p, _)| p.clone())
                .zip(args.iter().cloned())
                .collect();
            let unfolded = subst_term(&def.body, &map);
            let reduced = normalize_term(env, &unfolded, mode, fuel)?;
            if !def.recursive && !mode.unfold_defs {
                // Refold if the body is still stuck on a match: keeps simpl
                // output readable (Coq's simpl heuristic).
                if let Term::Match(scrut, _) = &reduced {
                    if ctor_head(env, scrut).is_none() && !matches!(**scrut, Term::Meta(_)) {
                        return Ok(Term::App(f.clone(), args));
                    }
                }
            }
            Ok(reduced)
        }
        Term::Match(scrut, arms) => {
            let scrut = normalize_term(env, scrut, mode, fuel)?;
            if let Some(reduced) = step_match(env, &scrut, arms) {
                return normalize_term(env, &reduced, mode, fuel);
            }
            // Stuck: normalize the arm bodies for readability.
            let arms = arms
                .iter()
                .map(|(p, rhs)| Ok((p.clone(), normalize_term(env, rhs, mode, fuel)?)))
                .collect::<Result<Vec<_>, TacticError>>()?;
            Ok(Term::Match(Box::new(scrut), arms))
        }
    }
}

/// Selects and instantiates a match arm if the scrutinee decides one.
fn step_match(env: &Env, scrut: &Term, arms: &[(Pat, Term)]) -> Option<Term> {
    let head = ctor_head(env, scrut);
    for (i, (pat, rhs)) in arms.iter().enumerate() {
        match pat {
            Pat::Wild => {
                // A wildcard matches anything, but only reduce when it is the
                // first arm or the scrutinee's constructor is known (so
                // earlier constructor arms are decidably non-matching).
                if i == 0 || head.is_some() {
                    return Some(rhs.clone());
                }
                return None;
            }
            Pat::Var(v) => {
                if i == 0 || head.is_some() {
                    return Some(crate::subst::subst_term1(rhs, v, scrut));
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
                    let map: TermSubst = vs.iter().cloned().zip(cargs.iter().cloned()).collect();
                    return Some(subst_term(rhs, &map));
                }
                // Different constructor: this arm is skipped; continue.
            }
        }
    }
    None
}

/// Selects and instantiates a formula-match arm if the scrutinee decides one.
fn step_fmatch(env: &Env, scrut: &Term, arms: &[(Pat, Formula)]) -> Option<Formula> {
    let head = ctor_head(env, scrut);
    for (i, (pat, rhs)) in arms.iter().enumerate() {
        match pat {
            Pat::Wild => {
                if i == 0 || head.is_some() {
                    return Some(rhs.clone());
                }
                return None;
            }
            Pat::Var(v) => {
                if i == 0 || head.is_some() {
                    return Some(crate::subst::subst_formula1(rhs, v, scrut));
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
                    let map: TermSubst = vs.iter().cloned().zip(cargs.iter().cloned()).collect();
                    return Some(subst_formula(rhs, &map));
                }
            }
        }
    }
    None
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
    Some(subst_formula(&subst_sorts_formula(&d.body, &smap), &tmap))
}

/// Normalizes a formula under the given mode.
pub fn normalize_formula(
    env: &Env,
    f: &Formula,
    mode: EvalMode,
    fuel: &mut Fuel,
) -> Result<Formula, TacticError> {
    fuel.tick()?;
    match f {
        Formula::True | Formula::False => Ok(f.clone()),
        Formula::Eq(s, a, b) => Ok(Formula::Eq(
            s.clone(),
            normalize_term(env, a, mode, fuel)?,
            normalize_term(env, b, mode, fuel)?,
        )),
        Formula::Pred(p, sorts, args) => {
            let args: Vec<Term> = args
                .iter()
                .map(|a| normalize_term(env, a, mode, fuel))
                .collect::<Result<_, _>>()?;
            let unfold = match env.preds.get(p) {
                Some(PredDef::Defined(d)) => {
                    if d.recursive {
                        mode.unfold_fix && fix_unfolds(env, d.struct_arg, &args)
                    } else {
                        mode.unfold_defs
                    }
                }
                _ => false,
            };
            if unfold {
                if let Some(body) = unfold_pred(env, p, sorts, &args) {
                    return normalize_formula(env, &body, mode, fuel);
                }
            }
            Ok(Formula::Pred(p.clone(), sorts.clone(), args))
        }
        Formula::Not(g) => Ok(Formula::Not(Box::new(normalize_formula(
            env, g, mode, fuel,
        )?))),
        Formula::And(a, b) => Ok(Formula::and(
            normalize_formula(env, a, mode, fuel)?,
            normalize_formula(env, b, mode, fuel)?,
        )),
        Formula::Or(a, b) => Ok(Formula::or(
            normalize_formula(env, a, mode, fuel)?,
            normalize_formula(env, b, mode, fuel)?,
        )),
        Formula::Implies(a, b) => Ok(Formula::implies(
            normalize_formula(env, a, mode, fuel)?,
            normalize_formula(env, b, mode, fuel)?,
        )),
        Formula::Iff(a, b) => Ok(Formula::Iff(
            Box::new(normalize_formula(env, a, mode, fuel)?),
            Box::new(normalize_formula(env, b, mode, fuel)?),
        )),
        Formula::Forall(v, s, body) => Ok(Formula::Forall(
            v.clone(),
            s.clone(),
            Box::new(normalize_formula(env, body, mode, fuel)?),
        )),
        Formula::Exists(v, s, body) => Ok(Formula::Exists(
            v.clone(),
            s.clone(),
            Box::new(normalize_formula(env, body, mode, fuel)?),
        )),
        Formula::ForallSort(v, body) => Ok(Formula::ForallSort(
            v.clone(),
            Box::new(normalize_formula(env, body, mode, fuel)?),
        )),
        Formula::FMatch(scrut, arms) => {
            let scrut = normalize_term(env, scrut, mode, fuel)?;
            if let Some(reduced) = step_fmatch(env, &scrut, arms) {
                return normalize_formula(env, &reduced, mode, fuel);
            }
            let arms = arms
                .iter()
                .map(|(p, rhs)| Ok((p.clone(), normalize_formula(env, rhs, mode, fuel)?)))
                .collect::<Result<Vec<_>, TacticError>>()?;
            Ok(Formula::FMatch(Box::new(scrut), arms))
        }
    }
}

/// Decides definitional equality of two terms.
pub fn conv_eq_term(env: &Env, a: &Term, b: &Term, fuel: &mut Fuel) -> Result<bool, TacticError> {
    if a == b {
        return Ok(true);
    }
    let na = normalize_term(env, a, EvalMode::conversion(), fuel)?;
    let nb = normalize_term(env, b, EvalMode::conversion(), fuel)?;
    Ok(alpha_eq_term(&na, &nb))
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
    let na = normalize_formula(env, a, EvalMode::conversion(), fuel)?;
    let nb = normalize_formula(env, b, EvalMode::conversion(), fuel)?;
    Ok(alpha_eq_formula(&na, &nb))
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

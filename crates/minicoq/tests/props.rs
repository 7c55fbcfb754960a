//! Property-based tests for the kernel's core invariants.

use proptest::prelude::*;

use std::collections::BTreeMap;

use minicoq::env::{DefinedPred, Env, PredDef};
use minicoq::eval::{conv_eq_term, normalize_formula, normalize_term, EvalMode};
use minicoq::formula::Formula;
use minicoq::fuel::Fuel;
use minicoq::sort::Sort;
use minicoq::statehash::{formula_key, term_key};
use minicoq::subst::{
    subst_formula, subst_formula1, subst_term, subst_term1, zonk_formula, zonk_term, TermSubst,
};
use minicoq::term::{Pat, Term};
use minicoq::Ident;

/// A generator for closed arithmetic terms over `nat`.
fn arb_nat_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u64..6).prop_map(Term::nat),
        Just(Term::var("x")),
        Just(Term::var("y")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::App("add".into(), vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::App("mul".into(), vec![a, b])),
            inner.prop_map(|a| Term::App("S".into(), vec![a])),
        ]
    })
}

proptest! {
    #[test]
    fn normalization_is_idempotent(t in arb_nat_term()) {
        let env = Env::with_prelude();
        let mut fuel = Fuel::unlimited();
        let n1 = normalize_term(&env, &t, EvalMode::simpl(), &mut fuel).unwrap();
        let n2 = normalize_term(&env, &n1, EvalMode::simpl(), &mut fuel).unwrap();
        prop_assert_eq!(n1, n2);
    }

    #[test]
    fn closed_arithmetic_evaluates_to_numerals(a in 0u64..30, b in 0u64..30) {
        let env = Env::with_prelude();
        let t = Term::App("add".into(), vec![Term::nat(a), Term::nat(b)]);
        let n = normalize_term(&env, &t, EvalMode::simpl(), &mut Fuel::unlimited()).unwrap();
        prop_assert_eq!(n.as_nat(), Some(a + b));
        let t = Term::App("mul".into(), vec![Term::nat(a % 12), Term::nat(b % 12)]);
        let n = normalize_term(&env, &t, EvalMode::simpl(), &mut Fuel::unlimited()).unwrap();
        prop_assert_eq!(n.as_nat(), Some((a % 12) * (b % 12)));
    }

    #[test]
    fn conversion_is_an_equivalence(t in arb_nat_term(), u in arb_nat_term()) {
        let env = Env::with_prelude();
        let mut fuel = Fuel::unlimited();
        // Reflexivity.
        prop_assert!(conv_eq_term(&env, &t, &t, &mut fuel).unwrap());
        // Symmetry.
        let tu = conv_eq_term(&env, &t, &u, &mut fuel).unwrap();
        let ut = conv_eq_term(&env, &u, &t, &mut fuel).unwrap();
        prop_assert_eq!(tu, ut);
    }

    #[test]
    fn substitution_eliminates_the_variable(t in arb_nat_term(), v in 0u64..5) {
        let r = Term::nat(v);
        let s = subst_term1(&t, "x", &r);
        prop_assert!(!s.mentions("x"));
        // And is stable: substituting again changes nothing.
        prop_assert_eq!(subst_term1(&s, "x", &r), s);
    }

    #[test]
    fn alpha_renaming_preserves_canonical_keys(t in arb_nat_term()) {
        // forall x, t = t   vs   forall z, t[x:=z] = t[x:=z].
        let f1 = Formula::forall(
            "x",
            Sort::nat(),
            Formula::Eq(Sort::nat(), t.clone(), t.clone()),
        );
        let renamed = subst_term1(&t, "x", &Term::var("zz"));
        let f2 = Formula::forall(
            "zz",
            Sort::nat(),
            Formula::Eq(Sort::nat(), renamed.clone(), renamed),
        );
        prop_assert_eq!(formula_key(&f1), formula_key(&f2));
    }

    #[test]
    fn term_keys_separate_distinct_numerals(a in 0u64..40, b in 0u64..40) {
        prop_assert_eq!(term_key(&Term::nat(a)) == term_key(&Term::nat(b)), a == b);
    }

    #[test]
    fn capture_avoidance_under_quantifiers(v in 0u64..5) {
        // (forall x, x = y)[y := x] must not capture.
        let f = Formula::forall(
            "x",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("x"), Term::var("y")),
        );
        let g = subst_formula1(&f, "y", &Term::var("x"));
        let _ = v;
        // The canonical keys of the result and of the intended formula
        // (forall w, w = x) agree.
        let want = Formula::forall(
            "w",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("w"), Term::var("x")),
        );
        prop_assert_eq!(formula_key(&g), formula_key(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lia_decides_random_linear_facts(
        a in 0u64..50, b in 0u64..50, c in 0u64..50
    ) {
        use minicoq::goal::ProofState;
        use minicoq::parse::{parse_formula, parse_tactic};
        use minicoq::tactic::apply_tactic;
        let env = Env::with_prelude();
        // a <= a + b, and a + b <= c is refutable when it is false.
        let stmt = format!("le {a} (add {a} {b})");
        let f = parse_formula(&env, &stmt).unwrap();
        let st = ProofState::new(f);
        let tac = parse_tactic(&env, st.focused(), "lia").unwrap();
        let r = apply_tactic(&env, &st, &tac, &mut Fuel::unlimited());
        prop_assert!(r.is_ok(), "lia failed on {stmt}");

        let stmt = format!("le (add {a} {b}) {c}");
        let f = parse_formula(&env, &stmt).unwrap();
        let st = ProofState::new(f);
        let tac = parse_tactic(&env, st.focused(), "lia").unwrap();
        let r = apply_tactic(&env, &st, &tac, &mut Fuel::unlimited());
        prop_assert_eq!(r.is_ok(), a + b <= c, "lia wrong on {}", stmt);
    }

    #[test]
    fn eqb_agrees_with_equality(a in 0u64..30, b in 0u64..30) {
        let env = Env::with_prelude();
        let t = Term::App("eqb".into(), vec![Term::nat(a), Term::nat(b)]);
        let n = normalize_term(&env, &t, EvalMode::simpl(), &mut Fuel::unlimited()).unwrap();
        let want = if a == b { "true" } else { "false" };
        prop_assert_eq!(n, Term::cst(want));
    }
}

/// The kernel's tree operations as they were before they shared unchanged
/// subtrees: every call rebuilds every node it visits. The
/// `*_match_the_reference` properties below check the kernel against them.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use minicoq::env::{Env, PredDef};
    use minicoq::error::TacticError;
    use minicoq::eval::{ctor_head, fix_unfolds, EvalMode};
    use minicoq::formula::Formula;
    use minicoq::fuel::Fuel;
    use minicoq::sort::Sort;
    use minicoq::subst::{fresh_name, SortSubst, TermSubst};
    use minicoq::term::{Pat, Term};
    use minicoq::Ident;

    fn range_vars(map: &TermSubst) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        for t in map.values() {
            t.free_vars(&mut out);
        }
        out
    }

    pub fn subst_term(t: &Term, map: &TermSubst) -> Term {
        if map.is_empty() {
            return t.clone();
        }
        match t {
            Term::Var(v) => map.get(v).cloned().unwrap_or_else(|| t.clone()),
            Term::Meta(_) => t.clone(),
            Term::App(f, args) => {
                Term::App(f.clone(), args.iter().map(|a| subst_term(a, map)).collect())
            }
            Term::Match(scrut, arms) => {
                let scrut = subst_term(scrut, map);
                let arms = arms
                    .iter()
                    .map(|(pat, rhs)| {
                        let (pat, rhs) = rename_arm(pat, rhs, map, subst_term);
                        let mut inner = map.clone();
                        for b in pat.binders().iter() {
                            inner.remove(b);
                        }
                        (pat, subst_term(&rhs, &inner))
                    })
                    .collect();
                Term::Match(Box::new(scrut), arms)
            }
        }
    }

    /// Renames every binder of `pat` when the range of `map` mentions one.
    fn rename_arm<T: Clone + FreeVars>(
        pat: &Pat,
        rhs: &T,
        map: &TermSubst,
        subst: fn(&T, &TermSubst) -> T,
    ) -> (Pat, T) {
        let danger = range_vars(map);
        if pat.binders().iter().all(|b| !danger.contains(b)) {
            return (pat.clone(), rhs.clone());
        }
        let mut avoid = danger;
        rhs.free_vars_into(&mut avoid);
        let mut renaming = TermSubst::new();
        let mut fresh = |v: &Ident| {
            let nv = fresh_name(v, &avoid);
            avoid.insert(nv.clone());
            renaming.insert(v.clone(), Term::Var(nv.clone()));
            nv
        };
        let new_pat = match pat {
            Pat::Wild => Pat::Wild,
            Pat::Var(v) => Pat::Var(fresh(v)),
            Pat::Ctor(c, vs) => Pat::Ctor(c.clone(), vs.iter().map(&mut fresh).collect()),
        };
        (new_pat, subst(rhs, &renaming))
    }

    trait FreeVars {
        fn free_vars_into(&self, out: &mut BTreeSet<Ident>);
    }

    impl FreeVars for Term {
        fn free_vars_into(&self, out: &mut BTreeSet<Ident>) {
            self.free_vars(out)
        }
    }

    impl FreeVars for Formula {
        fn free_vars_into(&self, out: &mut BTreeSet<Ident>) {
            self.free_vars(out)
        }
    }

    pub fn subst_formula(f: &Formula, map: &TermSubst) -> Formula {
        if map.is_empty() {
            return f.clone();
        }
        let go = |g: &Formula| Box::new(subst_formula(g, map));
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Eq(s, a, b) => Formula::Eq(s.clone(), subst_term(a, map), subst_term(b, map)),
            Formula::Pred(p, sorts, args) => Formula::Pred(
                p.clone(),
                sorts.clone(),
                args.iter().map(|a| subst_term(a, map)).collect(),
            ),
            Formula::Not(g) => Formula::Not(go(g)),
            Formula::And(a, b) => Formula::And(go(a), go(b)),
            Formula::Or(a, b) => Formula::Or(go(a), go(b)),
            Formula::Implies(a, b) => Formula::Implies(go(a), go(b)),
            Formula::Iff(a, b) => Formula::Iff(go(a), go(b)),
            Formula::Forall(v, s, body) => {
                let (v, body, inner) = rename_binder(v, body, map);
                Formula::Forall(v, s.clone(), Box::new(subst_formula(&body, &inner)))
            }
            Formula::Exists(v, s, body) => {
                let (v, body, inner) = rename_binder(v, body, map);
                Formula::Exists(v, s.clone(), Box::new(subst_formula(&body, &inner)))
            }
            Formula::ForallSort(v, body) => Formula::ForallSort(v.clone(), go(body)),
            Formula::FMatch(scrut, arms) => {
                let scrut = subst_term(scrut, map);
                let arms = arms
                    .iter()
                    .map(|(pat, rhs)| {
                        let (pat, rhs) = rename_arm(pat, rhs, map, subst_formula);
                        let mut inner = map.clone();
                        for b in pat.binders().iter() {
                            inner.remove(b);
                        }
                        (pat, subst_formula(&rhs, &inner))
                    })
                    .collect();
                Formula::FMatch(Box::new(scrut), arms)
            }
        }
    }

    fn rename_binder(v: &Ident, body: &Formula, map: &TermSubst) -> (Ident, Formula, TermSubst) {
        let mut inner = map.clone();
        inner.remove(v);
        let danger = range_vars(&inner);
        if !danger.contains(v) {
            return (v.clone(), body.clone(), inner);
        }
        let mut avoid = danger;
        body.free_vars(&mut avoid);
        let nv = fresh_name(v, &avoid);
        let mut renaming = TermSubst::new();
        renaming.insert(v.clone(), Term::Var(nv.clone()));
        (nv, subst_formula(body, &renaming), inner)
    }

    fn subst_metas(s: &Sort, map: &BTreeMap<u32, Sort>) -> Sort {
        match s {
            Sort::Atom(_) | Sort::Var(_) => s.clone(),
            Sort::Meta(m) => match map.get(m) {
                Some(r) => subst_metas(r, map),
                None => s.clone(),
            },
            Sort::App(c, args) => Sort::App(
                c.clone(),
                args.iter().map(|a| subst_metas(a, map)).collect(),
            ),
        }
    }

    fn subst_vars(s: &Sort, map: &SortSubst) -> Sort {
        match s {
            Sort::Atom(_) | Sort::Meta(_) => s.clone(),
            Sort::Var(v) => map.get(v).cloned().unwrap_or_else(|| s.clone()),
            Sort::App(c, args) => {
                Sort::App(c.clone(), args.iter().map(|a| subst_vars(a, map)).collect())
            }
        }
    }

    pub fn zonk_term(t: &Term, metas: &BTreeMap<u32, Term>) -> Term {
        match t {
            Term::Var(_) => t.clone(),
            Term::Meta(m) => match metas.get(m) {
                Some(sol) => zonk_term(sol, metas),
                None => t.clone(),
            },
            Term::App(f, args) => Term::App(
                f.clone(),
                args.iter().map(|a| zonk_term(a, metas)).collect(),
            ),
            Term::Match(scrut, arms) => Term::Match(
                Box::new(zonk_term(scrut, metas)),
                arms.iter()
                    .map(|(p, rhs)| (p.clone(), zonk_term(rhs, metas)))
                    .collect(),
            ),
        }
    }

    pub fn zonk_formula(
        f: &Formula,
        metas: &BTreeMap<u32, Term>,
        smetas: &BTreeMap<u32, Sort>,
    ) -> Formula {
        let go = |g: &Formula| Box::new(zonk_formula(g, metas, smetas));
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Eq(s, a, b) => Formula::Eq(
                subst_metas(s, smetas),
                zonk_term(a, metas),
                zonk_term(b, metas),
            ),
            Formula::Pred(p, sorts, args) => Formula::Pred(
                p.clone(),
                sorts.iter().map(|s| subst_metas(s, smetas)).collect(),
                args.iter().map(|a| zonk_term(a, metas)).collect(),
            ),
            Formula::Not(g) => Formula::Not(go(g)),
            Formula::And(a, b) => Formula::And(go(a), go(b)),
            Formula::Or(a, b) => Formula::Or(go(a), go(b)),
            Formula::Implies(a, b) => Formula::Implies(go(a), go(b)),
            Formula::Iff(a, b) => Formula::Iff(go(a), go(b)),
            Formula::Forall(v, s, body) => {
                Formula::Forall(v.clone(), subst_metas(s, smetas), go(body))
            }
            Formula::Exists(v, s, body) => {
                Formula::Exists(v.clone(), subst_metas(s, smetas), go(body))
            }
            Formula::ForallSort(v, body) => Formula::ForallSort(v.clone(), go(body)),
            Formula::FMatch(scrut, arms) => Formula::FMatch(
                Box::new(zonk_term(scrut, metas)),
                arms.iter()
                    .map(|(p, rhs)| (p.clone(), zonk_formula(rhs, metas, smetas)))
                    .collect(),
            ),
        }
    }

    fn subst_sorts_formula(f: &Formula, map: &SortSubst) -> Formula {
        let go = |g: &Formula| Box::new(subst_sorts_formula(g, map));
        match f {
            Formula::True | Formula::False => f.clone(),
            Formula::Eq(s, a, b) => Formula::Eq(subst_vars(s, map), a.clone(), b.clone()),
            Formula::Pred(p, sorts, args) => Formula::Pred(
                p.clone(),
                sorts.iter().map(|s| subst_vars(s, map)).collect(),
                args.clone(),
            ),
            Formula::Not(g) => Formula::Not(go(g)),
            Formula::And(a, b) => Formula::And(go(a), go(b)),
            Formula::Or(a, b) => Formula::Or(go(a), go(b)),
            Formula::Implies(a, b) => Formula::Implies(go(a), go(b)),
            Formula::Iff(a, b) => Formula::Iff(go(a), go(b)),
            Formula::Forall(v, s, body) => Formula::Forall(v.clone(), subst_vars(s, map), go(body)),
            Formula::Exists(v, s, body) => Formula::Exists(v.clone(), subst_vars(s, map), go(body)),
            Formula::ForallSort(v, body) => {
                let mut inner = map.clone();
                inner.remove(v);
                Formula::ForallSort(v.clone(), Box::new(subst_sorts_formula(body, &inner)))
            }
            Formula::FMatch(scrut, arms) => Formula::FMatch(
                scrut.clone(),
                arms.iter()
                    .map(|(p, rhs)| (p.clone(), subst_sorts_formula(rhs, map)))
                    .collect(),
            ),
        }
    }

    /// Selects the arm a scrutinee decides and instantiates it with `subst`.
    fn step<T: Clone>(
        env: &Env,
        scrut: &Term,
        arms: &[(Pat, T)],
        subst: fn(&T, &TermSubst) -> T,
    ) -> Option<T> {
        let head = ctor_head(env, scrut);
        for (i, (pat, rhs)) in arms.iter().enumerate() {
            match pat {
                Pat::Wild => return (i == 0 || head.is_some()).then(|| rhs.clone()),
                Pat::Var(v) => {
                    if i == 0 || head.is_some() {
                        let mut m = TermSubst::new();
                        m.insert(v.clone(), scrut.clone());
                        return Some(subst(rhs, &m));
                    }
                    return None;
                }
                Pat::Ctor(c, vs) => {
                    if head? == c {
                        let Term::App(_, cargs) = scrut else {
                            return None;
                        };
                        if cargs.len() != vs.len() {
                            return None;
                        }
                        let map: TermSubst =
                            vs.iter().cloned().zip(cargs.iter().cloned()).collect();
                        return Some(subst(rhs, &map));
                    }
                }
            }
        }
        None
    }

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
                if let Some(reduced) = step(env, &scrut, arms, subst_term) {
                    return normalize_term(env, &reduced, mode, fuel);
                }
                let arms = arms
                    .iter()
                    .map(|(p, rhs)| Ok((p.clone(), normalize_term(env, rhs, mode, fuel)?)))
                    .collect::<Result<Vec<_>, TacticError>>()?;
                Ok(Term::Match(Box::new(scrut), arms))
            }
        }
    }

    fn unfold_pred(env: &Env, name: &str, sorts: &[Sort], args: &[Term]) -> Option<Formula> {
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

    pub fn normalize_formula(
        env: &Env,
        f: &Formula,
        mode: EvalMode,
        fuel: &mut Fuel,
    ) -> Result<Formula, TacticError> {
        fuel.tick()?;
        fn boxed(
            env: &Env,
            g: &Formula,
            mode: EvalMode,
            fuel: &mut Fuel,
        ) -> Result<Box<Formula>, TacticError> {
            normalize_formula(env, g, mode, fuel).map(Box::new)
        }
        match f {
            Formula::True | Formula::False => Ok(f.clone()),
            Formula::Eq(s, a, b) => {
                let a = normalize_term(env, a, mode, fuel)?;
                Ok(Formula::Eq(
                    s.clone(),
                    a,
                    normalize_term(env, b, mode, fuel)?,
                ))
            }
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
            Formula::Not(g) => Ok(Formula::Not(boxed(env, g, mode, fuel)?)),
            Formula::And(a, b) => Ok(Formula::And(
                boxed(env, a, mode, fuel)?,
                boxed(env, b, mode, fuel)?,
            )),
            Formula::Or(a, b) => Ok(Formula::Or(
                boxed(env, a, mode, fuel)?,
                boxed(env, b, mode, fuel)?,
            )),
            Formula::Implies(a, b) => Ok(Formula::Implies(
                boxed(env, a, mode, fuel)?,
                boxed(env, b, mode, fuel)?,
            )),
            Formula::Iff(a, b) => Ok(Formula::Iff(
                boxed(env, a, mode, fuel)?,
                boxed(env, b, mode, fuel)?,
            )),
            Formula::Forall(v, s, body) => Ok(Formula::Forall(
                v.clone(),
                s.clone(),
                boxed(env, body, mode, fuel)?,
            )),
            Formula::Exists(v, s, body) => Ok(Formula::Exists(
                v.clone(),
                s.clone(),
                boxed(env, body, mode, fuel)?,
            )),
            Formula::ForallSort(v, body) => Ok(Formula::ForallSort(
                v.clone(),
                boxed(env, body, mode, fuel)?,
            )),
            Formula::FMatch(scrut, arms) => {
                let scrut = normalize_term(env, scrut, mode, fuel)?;
                if let Some(reduced) = step(env, &scrut, arms, subst_formula) {
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
}

/// Binder and variable names shared by the generators below, so that
/// substitution ranges meet quantifier and `match` binders and force
/// renaming.
const NAMES: [&str; 4] = ["x", "y", "k", "x0"];

/// Terms over `nat` with variables, metavariables and `match`es whose
/// binders reuse [`NAMES`].
fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u64..3).prop_map(Term::nat),
        (0usize..4).prop_map(|i| Term::var(NAMES[i])),
        (0u32..3).prop_map(Term::Meta),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::App("add".into(), vec![a, b])),
            inner.clone().prop_map(|a| Term::App("S".into(), vec![a])),
            (inner.clone(), inner.clone(), inner.clone(), 0usize..4).prop_map(|(s, z, n, b)| {
                Term::Match(
                    Box::new(s),
                    vec![
                        (Pat::Ctor("O".into(), vec![]), z),
                        (Pat::Ctor("S".into(), vec![NAMES[b].into()]), n),
                    ],
                )
            }),
            (inner.clone(), inner, 0usize..4).prop_map(|(s, r, b)| Term::Match(
                Box::new(s),
                vec![(Pat::Var(NAMES[b].into()), r)]
            )),
        ]
    })
}

/// Formulas over [`arb_term`], with quantifiers binding [`NAMES`], sort
/// metavariables, a sort binder, formula `match`es and the defined
/// predicates of [`reference_env`].
fn arb_formula() -> impl Strategy<Value = Formula> {
    let sort = prop_oneof![Just(Sort::nat()), (0u32..2).prop_map(Sort::Meta)];
    let leaf = prop_oneof![
        Just(Formula::True),
        (sort.clone(), arb_term(), arb_term()).prop_map(|(s, a, b)| Formula::Eq(s, a, b)),
        (arb_term(), arb_term()).prop_map(|(a, b)| Formula::Pred("lt".into(), vec![], vec![a, b])),
        arb_term().prop_map(|a| Formula::Pred("isz".into(), vec![], vec![a])),
        (sort.clone(), arb_term()).prop_map(|(s, a)| {
            let l = Term::App("cons".into(), vec![a, Term::cst("nil")]);
            Formula::Pred("nonempty".into(), vec![s], vec![l])
        }),
    ];
    leaf.prop_recursive(3, 24, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), 0usize..4, sort.clone())
                .prop_map(|(f, b, s)| Formula::forall(NAMES[b], s, f)),
            (inner.clone(), 0usize..4)
                .prop_map(|(f, b)| { Formula::Exists(NAMES[b].into(), Sort::nat(), Box::new(f)) }),
            inner
                .clone()
                .prop_map(|f| Formula::ForallSort("A".into(), Box::new(f))),
            (arb_term(), inner.clone(), inner, 0usize..4).prop_map(|(s, z, n, b)| {
                Formula::FMatch(
                    Box::new(s),
                    vec![
                        (Pat::Ctor("O".into(), vec![]), z),
                        (Pat::Ctor("S".into(), vec![NAMES[b].into()]), n),
                    ],
                )
            }),
        ]
    })
}

/// A substitution for a subset of [`NAMES`] whose range mentions them.
fn arb_subst() -> impl Strategy<Value = TermSubst> {
    (0usize..16, arb_term(), arb_term(), arb_term()).prop_map(|(keys, a, b, c)| {
        let ranges = [a.clone(), b, c, a];
        NAMES
            .iter()
            .zip(ranges)
            .enumerate()
            .filter(|(i, _)| keys & (1 << i) != 0)
            .map(|(_, (k, t))| (Ident::from(*k), t))
            .collect()
    })
}

/// Solutions for some of the metavariables [`arb_term`] and
/// [`arb_formula`] use, a term solution chaining to another.
fn arb_metas() -> impl Strategy<Value = (BTreeMap<u32, Term>, BTreeMap<u32, Sort>)> {
    (arb_term(), 0usize..4, prop::bool::ANY).prop_map(|(t, keep, sorted)| {
        let mut metas = BTreeMap::new();
        if keep & 1 != 0 {
            metas.insert(0, Term::App("S".into(), vec![Term::Meta(1)]));
        }
        if keep & 2 != 0 {
            // Solutions are acyclic: meta 1's mentions neither 0 nor 1.
            let acyclic = BTreeMap::from([(0, Term::var("x")), (1, Term::var("y"))]);
            metas.insert(1, zonk_term(&t, &acyclic));
        }
        let mut smetas = BTreeMap::new();
        if sorted {
            smetas.insert(0, Sort::list(Sort::Meta(1)));
            smetas.insert(1, Sort::nat());
        }
        (metas, smetas)
    })
}

/// The prelude with two predicates defined by a formula `match`: the
/// recursive `isz n` (`n` is zero) and the polymorphic `nonempty l`.
fn reference_env() -> Env {
    let mut env = Env::with_prelude();
    let nat_arms = |z: Formula, s: Formula| {
        vec![
            (Pat::Ctor("O".into(), vec![]), z),
            (Pat::Ctor("S".into(), vec!["k".into()]), s),
        ]
    };
    env.declare_pred(PredDef::Defined(DefinedPred {
        name: "isz".into(),
        sort_params: vec![],
        params: vec![("n".into(), Sort::nat())],
        body: Formula::FMatch(
            Box::new(Term::var("n")),
            nat_arms(
                Formula::True,
                Formula::Pred("isz".into(), vec![], vec![Term::var("k")]),
            ),
        ),
        recursive: true,
        struct_arg: Some(0),
    }))
    .unwrap();
    let a = Sort::Var("A".into());
    env.declare_pred(PredDef::Defined(DefinedPred {
        name: "nonempty".into(),
        sort_params: vec!["A".into()],
        params: vec![("l".into(), Sort::list(a.clone()))],
        body: Formula::FMatch(
            Box::new(Term::var("l")),
            vec![
                (Pat::Ctor("nil".into(), vec![]), Formula::False),
                (
                    Pat::Ctor("cons".into(), vec!["h".into(), "t".into()]),
                    Formula::Eq(a, Term::var("h"), Term::var("h")),
                ),
            ],
        ),
        recursive: false,
        struct_arg: None,
    }))
    .unwrap();
    env
}

/// The budgets to compare normalization at, given the cost `c` of an
/// unlimited run: every budget up to 48, the edges around `c`, and a
/// stride through the rest.
fn budgets(c: u64) -> Vec<u64> {
    let mut out: Vec<u64> = (0..=c.min(48)).collect();
    out.extend((48..c).step_by(17));
    out.extend([c.saturating_sub(1), c, c + 1, u64::MAX / 2]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn substitution_matches_the_reference(f in arb_formula(), t in arb_term(), map in arb_subst()) {
        prop_assert_eq!(subst_term(&t, &map), reference::subst_term(&t, &map));
        prop_assert_eq!(subst_formula(&f, &map), reference::subst_formula(&f, &map));
    }

    #[test]
    fn zonking_matches_the_reference(f in arb_formula(), solutions in arb_metas()) {
        let (metas, smetas) = solutions;
        prop_assert_eq!(
            zonk_formula(&f, &metas, &smetas),
            reference::zonk_formula(&f, &metas, &smetas)
        );
    }

    #[test]
    fn normalization_matches_the_reference_at_every_budget(f in arb_formula(), conv in prop::bool::ANY) {
        let env = reference_env();
        let mode = if conv { EvalMode::conversion() } else { EvalMode::simpl() };
        let mut full = Fuel::unlimited();
        reference::normalize_formula(&env, &f, mode, &mut full).unwrap();
        for budget in budgets(full.spent()) {
            let mut want_fuel = Fuel::new(budget);
            let want = reference::normalize_formula(&env, &f, mode, &mut want_fuel);
            let mut got_fuel = Fuel::new(budget);
            let got = normalize_formula(&env, &f, mode, &mut got_fuel);
            prop_assert_eq!(&got, &want, "budget {}", budget);
            prop_assert_eq!(
                (got_fuel.spent(), got_fuel.remaining()),
                (want_fuel.spent(), want_fuel.remaining()),
                "budget {}", budget
            );
        }
    }
}

#[test]
fn substitution_renames_capturing_binders_like_the_reference() {
    let map = TermSubst::from([("y".into(), Term::var("x"))]);
    // A `forall` binder the range mentions.
    let f = Formula::forall(
        "x",
        Sort::nat(),
        Formula::Eq(Sort::nat(), Term::var("x"), Term::var("y")),
    );
    // A `match` arm binder the range mentions, in a term and a formula.
    let arms = |rhs: Term| {
        vec![
            (Pat::Ctor("O".into(), vec![]), Term::var("y")),
            (Pat::Ctor("S".into(), vec!["x".into()]), rhs),
        ]
    };
    let t = Term::Match(
        Box::new(Term::var("n")),
        arms(Term::App(
            "add".into(),
            vec![Term::var("x"), Term::var("y")],
        )),
    );
    let g = Formula::FMatch(
        Box::new(Term::var("n")),
        vec![(
            Pat::Var("x".into()),
            Formula::Eq(Sort::nat(), Term::var("x"), Term::var("y")),
        )],
    );
    for f in [&f, &g] {
        let got = subst_formula(f, &map);
        assert_eq!(got, reference::subst_formula(f, &map));
        assert_ne!(&got, f, "the binder was renamed and `y` replaced");
    }
    let got = subst_term(&t, &map);
    assert_eq!(got, reference::subst_term(&t, &map));
    assert!(
        !matches!(&got, Term::Match(_, arms) if arms[1].0 == Pat::Ctor("S".into(), vec!["x".into()]))
    );
}

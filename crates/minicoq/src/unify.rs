//! First-order unification over terms, sorts and formulas.
//!
//! Metavariables stand for the yet-unknown instantiations of a lemma's
//! binders during `apply`, `eauto`, `rewrite` and `inversion`. Unification
//! is syntactic (first-order, with occurs check); conversion is *not*
//! folded in — tactics normalize first when they want reduction-aware
//! matching.

use std::collections::BTreeMap;

use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::sort::Sort;
use crate::subst::{subst_formula1, subst_sorts_formula, zonk_formula, zonk_term, SortSubst};
use crate::term::Term;
use crate::Ident;

/// A unification state: solutions for term and sort metavariables.
#[derive(Debug, Clone, Default)]
pub struct Unifier {
    /// Term metavariable solutions.
    pub term_metas: BTreeMap<u32, Term>,
    /// Sort metavariable solutions.
    pub sort_metas: BTreeMap<u32, Sort>,
    next_meta: u32,
}

/// The error produced when two things do not unify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnifyError;

impl Unifier {
    /// Creates an empty unifier.
    pub fn new() -> Unifier {
        Unifier::default()
    }

    /// Allocates a fresh term metavariable.
    pub fn fresh_term_meta(&mut self) -> Term {
        let m = self.next_meta;
        self.next_meta += 1;
        Term::Meta(m)
    }

    /// Allocates a fresh sort metavariable.
    pub fn fresh_sort_meta(&mut self) -> Sort {
        let m = self.next_meta;
        self.next_meta += 1;
        Sort::Meta(m)
    }

    /// The next metavariable id to be allocated; ids below the watermark
    /// were created before this point.
    pub fn meta_watermark(&self) -> u32 {
        self.next_meta
    }

    /// Resolves a term through the current solutions (shallow walk).
    fn walk_term<'a>(&'a self, t: &'a Term) -> &'a Term {
        let mut cur = t;
        while let Term::Meta(m) = cur {
            match self.term_metas.get(m) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// Resolves a sort through the current solutions (shallow walk).
    fn walk_sort<'a>(&'a self, s: &'a Sort) -> &'a Sort {
        let mut cur = s;
        while let Sort::Meta(m) = cur {
            match self.sort_metas.get(m) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// Fully applies the current solutions to a term.
    pub fn resolve_term(&self, t: &Term) -> Term {
        zonk_term(t, &self.term_metas)
    }

    /// Fully applies the current solutions to a formula.
    pub fn resolve_formula(&self, f: &Formula) -> Formula {
        zonk_formula(f, &self.term_metas, &self.sort_metas)
    }

    fn occurs(&self, m: u32, t: &Term) -> bool {
        match self.walk_term(t) {
            Term::Var(_) => false,
            Term::Meta(k) => *k == m,
            Term::App(_, args) => args.iter().any(|a| self.occurs(m, a)),
            Term::Match(scrut, arms) => {
                self.occurs(m, scrut) || arms.iter().any(|(_, rhs)| self.occurs(m, rhs))
            }
        }
    }

    fn occurs_sort(&self, m: u32, s: &Sort) -> bool {
        match self.walk_sort(s) {
            Sort::Atom(_) | Sort::Var(_) => false,
            Sort::Meta(k) => *k == m,
            Sort::App(_, args) => args.iter().any(|a| self.occurs_sort(m, a)),
        }
    }

    /// Unifies two terms, extending the solution set. On failure the
    /// unifier may be partially extended; clone before speculative calls.
    pub fn unify_terms(&mut self, a: &Term, b: &Term, fuel: &mut Fuel) -> Result<(), UnifyError> {
        if fuel.tick().is_err() {
            return Err(UnifyError);
        }
        let a = self.walk_term(a).clone();
        let b = self.walk_term(b).clone();
        match (&a, &b) {
            (Term::Meta(m), _) => {
                if let Term::Meta(k) = &b {
                    if k == m {
                        return Ok(());
                    }
                }
                if self.occurs(*m, &b) {
                    return Err(UnifyError);
                }
                self.term_metas.insert(*m, b);
                Ok(())
            }
            (_, Term::Meta(m)) => {
                if self.occurs(*m, &a) {
                    return Err(UnifyError);
                }
                self.term_metas.insert(*m, a);
                Ok(())
            }
            (Term::Var(x), Term::Var(y)) => {
                if x == y {
                    Ok(())
                } else {
                    Err(UnifyError)
                }
            }
            (Term::App(f, fargs), Term::App(g, gargs)) => {
                if f != g || fargs.len() != gargs.len() {
                    return Err(UnifyError);
                }
                for (x, y) in fargs.iter().zip(gargs) {
                    self.unify_terms(x, y, fuel)?;
                }
                Ok(())
            }
            (Term::Match(s1, arms1), Term::Match(s2, arms2)) => {
                // Conservative structural unification: identical shape with
                // alpha-equal binders required.
                if arms1.len() != arms2.len() {
                    return Err(UnifyError);
                }
                self.unify_terms(s1, s2, fuel)?;
                for ((p1, r1), (p2, r2)) in arms1.iter().zip(arms2) {
                    if p1 != p2 {
                        return Err(UnifyError);
                    }
                    self.unify_terms(r1, r2, fuel)?;
                }
                Ok(())
            }
            _ => Err(UnifyError),
        }
    }

    /// Unifies two sorts.
    pub fn unify_sorts(&mut self, a: &Sort, b: &Sort) -> Result<(), UnifyError> {
        let a = self.walk_sort(a).clone();
        let b = self.walk_sort(b).clone();
        match (&a, &b) {
            (Sort::Meta(m), _) => {
                if let Sort::Meta(k) = &b {
                    if k == m {
                        return Ok(());
                    }
                }
                if self.occurs_sort(*m, &b) {
                    return Err(UnifyError);
                }
                self.sort_metas.insert(*m, b);
                Ok(())
            }
            (_, Sort::Meta(m)) => {
                if self.occurs_sort(*m, &a) {
                    return Err(UnifyError);
                }
                self.sort_metas.insert(*m, a);
                Ok(())
            }
            (Sort::Atom(x), Sort::Atom(y)) | (Sort::Var(x), Sort::Var(y)) => {
                if x == y {
                    Ok(())
                } else {
                    Err(UnifyError)
                }
            }
            (Sort::App(f, fargs), Sort::App(g, gargs)) => {
                if f != g || fargs.len() != gargs.len() {
                    return Err(UnifyError);
                }
                for (x, y) in fargs.iter().zip(gargs) {
                    self.unify_sorts(x, y)?;
                }
                Ok(())
            }
            _ => Err(UnifyError),
        }
    }

    /// Unifies two formulas up to alpha-renaming of binders.
    pub fn unify_formulas(
        &mut self,
        a: &Formula,
        b: &Formula,
        fuel: &mut Fuel,
    ) -> Result<(), UnifyError> {
        if fuel.tick().is_err() {
            return Err(UnifyError);
        }
        match (a, b) {
            (Formula::True, Formula::True) | (Formula::False, Formula::False) => Ok(()),
            (Formula::Eq(s1, a1, b1), Formula::Eq(s2, a2, b2)) => {
                self.unify_sorts(s1, s2)?;
                self.unify_terms(a1, a2, fuel)?;
                self.unify_terms(b1, b2, fuel)
            }
            (Formula::Pred(p, s1, a1), Formula::Pred(q, s2, a2)) => {
                if p != q || s1.len() != s2.len() || a1.len() != a2.len() {
                    return Err(UnifyError);
                }
                for (x, y) in s1.iter().zip(s2) {
                    self.unify_sorts(x, y)?;
                }
                for (x, y) in a1.iter().zip(a2) {
                    self.unify_terms(x, y, fuel)?;
                }
                Ok(())
            }
            (Formula::Not(f), Formula::Not(g)) => self.unify_formulas(f, g, fuel),
            (Formula::And(a1, b1), Formula::And(a2, b2))
            | (Formula::Or(a1, b1), Formula::Or(a2, b2))
            | (Formula::Implies(a1, b1), Formula::Implies(a2, b2))
            | (Formula::Iff(a1, b1), Formula::Iff(a2, b2)) => {
                self.unify_formulas(a1, a2, fuel)?;
                self.unify_formulas(b1, b2, fuel)
            }
            (Formula::Forall(v1, s1, b1), Formula::Forall(v2, s2, b2))
            | (Formula::Exists(v1, s1, b1), Formula::Exists(v2, s2, b2)) => {
                if std::mem::discriminant(a) != std::mem::discriminant(b) {
                    return Err(UnifyError);
                }
                self.unify_sorts(s1, s2)?;
                // Rename both binders to one fresh rigid name.
                let fresh = format!("#u{}", self.next_meta);
                self.next_meta += 1;
                let b1 = subst_formula1(b1, v1, &Term::var(fresh.clone()));
                let b2 = subst_formula1(b2, v2, &Term::var(fresh));
                self.unify_formulas(&b1, &b2, fuel)
            }
            (Formula::ForallSort(v1, b1), Formula::ForallSort(v2, b2)) => {
                if v1 != v2 {
                    // Rename via sort substitution to a common fresh name.
                    let fresh = format!("#S{}", self.next_meta);
                    self.next_meta += 1;
                    let mut m1 = SortSubst::new();
                    m1.insert(v1.clone(), Sort::Var(fresh.clone()));
                    let mut m2 = SortSubst::new();
                    m2.insert(v2.clone(), Sort::Var(fresh));
                    let b1 = subst_sorts_formula(b1, &m1);
                    let b2 = subst_sorts_formula(b2, &m2);
                    return self.unify_formulas(&b1, &b2, fuel);
                }
                self.unify_formulas(b1, b2, fuel)
            }
            (Formula::FMatch(s1, arms1), Formula::FMatch(s2, arms2)) => {
                if arms1.len() != arms2.len() {
                    return Err(UnifyError);
                }
                self.unify_terms(s1, s2, fuel)?;
                for ((p1, r1), (p2, r2)) in arms1.iter().zip(arms2) {
                    if p1 != p2 {
                        return Err(UnifyError);
                    }
                    self.unify_formulas(r1, r2, fuel)?;
                }
                Ok(())
            }
            _ => Err(UnifyError),
        }
    }
}

/// A lemma statement instantiated with fresh metavariables: the leading
/// binders become metas, leaving premises and a conclusion to match against.
#[derive(Debug, Clone)]
pub struct InstantiatedRule {
    /// The term metavariables introduced, with the binder names and sorts
    /// they came from. Sorts may contain sort metavariables.
    pub metas: Vec<(u32, Ident, Sort)>,
    /// Premises, in order.
    pub premises: Vec<Formula>,
    /// The conclusion to unify with a goal.
    pub conclusion: Formula,
}

/// Instantiates a closed rule-shaped formula: `ForallSort`s become sort
/// metas, leading `Forall`s become term metas, and the implication chain is
/// split into premises and conclusion. `Forall`s *after* a premise are also
/// instantiated (first-order prenexing).
pub fn instantiate_rule(stmt: &Formula, uni: &mut Unifier) -> InstantiatedRule {
    let mut metas = Vec::new();
    let mut premises = Vec::new();
    let mut cur = stmt.clone();
    loop {
        match cur {
            Formula::ForallSort(v, body) => {
                let m = uni.fresh_sort_meta();
                let mut map = SortSubst::new();
                map.insert(v, m);
                cur = subst_sorts_formula(&body, &map);
            }
            Formula::Forall(v, s, body) => {
                let m = uni.fresh_term_meta();
                if let Term::Meta(id) = m {
                    metas.push((id, v.clone(), s.clone()));
                }
                cur = subst_formula1(&body, &v, &m);
            }
            Formula::Implies(p, q) => {
                premises.push(*p);
                cur = *q;
            }
            other => {
                return InstantiatedRule {
                    metas,
                    premises,
                    conclusion: other,
                };
            }
        }
    }
}

/// Maps a [`UnifyError`] into a rejected-tactic error with context.
pub fn reject(ctx: &str) -> TacticError {
    TacticError::rejected(format!("unification failed: {ctx}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_binds_metas() {
        let mut u = Unifier::new();
        let m = u.fresh_term_meta();
        let t = Term::App("S".into(), vec![Term::var("x")]);
        u.unify_terms(&m, &t, &mut Fuel::unlimited()).unwrap();
        assert_eq!(u.resolve_term(&m), t);
    }

    #[test]
    fn occurs_check_fires() {
        let mut u = Unifier::new();
        let m = u.fresh_term_meta();
        let t = Term::App("S".into(), vec![m.clone()]);
        assert!(u.unify_terms(&m, &t, &mut Fuel::unlimited()).is_err());
    }

    #[test]
    fn rigid_mismatch_fails() {
        let mut u = Unifier::new();
        assert!(u
            .unify_terms(&Term::var("x"), &Term::var("y"), &mut Fuel::unlimited())
            .is_err());
        assert!(u
            .unify_terms(&Term::nat(1), &Term::nat(2), &mut Fuel::unlimited())
            .is_err());
    }

    #[test]
    fn formula_unification_alpha() {
        let mut u = Unifier::new();
        let f1 = Formula::forall(
            "x",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("x"), Term::var("x")),
        );
        let f2 = Formula::forall(
            "y",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("y"), Term::var("y")),
        );
        u.unify_formulas(&f1, &f2, &mut Fuel::unlimited()).unwrap();
    }

    #[test]
    fn instantiate_rule_shapes() {
        // forall A (x : A) (l : list A), In x l -> incl (cons x nil) l.
        let stmt = Formula::ForallSort(
            "A".into(),
            Box::new(Formula::forall(
                "x",
                Sort::Var("A".into()),
                Formula::implies(
                    Formula::Pred(
                        "In".into(),
                        vec![Sort::Var("A".into())],
                        vec![Term::var("x")],
                    ),
                    Formula::Pred(
                        "P".into(),
                        vec![Sort::Var("A".into())],
                        vec![Term::var("x")],
                    ),
                ),
            )),
        );
        let mut u = Unifier::new();
        let inst = instantiate_rule(&stmt, &mut u);
        assert_eq!(inst.metas.len(), 1);
        assert_eq!(inst.premises.len(), 1);
        match &inst.conclusion {
            Formula::Pred(p, sorts, args) => {
                assert_eq!(p, "P");
                assert!(matches!(sorts[0], Sort::Meta(_)));
                assert!(matches!(args[0], Term::Meta(_)));
            }
            other => panic!("unexpected conclusion {other:?}"),
        }
    }

    #[test]
    fn sort_unification() {
        let mut u = Unifier::new();
        let m = u.fresh_sort_meta();
        u.unify_sorts(&Sort::list(m.clone()), &Sort::list(Sort::nat()))
            .unwrap();
        assert_eq!(m.subst_metas(&u.sort_metas), Sort::nat());
    }
}

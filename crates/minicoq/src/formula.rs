//! Formulas of the object logic.

use std::collections::BTreeSet;
use std::fmt;

use crate::sort::Sort;
use crate::term::{Pat, Term};
use crate::walk::Node;
use crate::Ident;

/// A formula (proposition) of the object logic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The trivially true proposition.
    True,
    /// The absurd proposition.
    False,
    /// Typed equality between two terms of the same sort.
    Eq(Sort, Term, Term),
    /// A declared predicate applied to arguments. The sort list instantiates
    /// the predicate's sort parameters (empty for monomorphic predicates);
    /// it is inferred by the elaborator and hidden when printing, like
    /// implicit arguments in Coq.
    Pred(Ident, Vec<Sort>, Vec<Term>),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Bi-implication.
    Iff(Box<Formula>, Box<Formula>),
    /// Universal quantification over a term variable.
    Forall(Ident, Sort, Box<Formula>),
    /// Existential quantification over a term variable.
    Exists(Ident, Sort, Box<Formula>),
    /// Universal quantification over a sort variable (prenex polymorphism).
    ForallSort(Ident, Box<Formula>),
    /// A `match` over a scrutinee whose arms are formulas; produced by
    /// unfolding recursively defined predicates such as `In`.
    FMatch(Box<Term>, Vec<(Pat, Formula)>),
}

impl Formula {
    /// `a -> b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// `a /\ b`.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// `a \/ b`.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// `forall v : s, body`.
    pub fn forall(v: impl Into<Ident>, s: Sort, body: Formula) -> Formula {
        Formula::Forall(v.into(), s, Box::new(body))
    }

    /// This binary connective (`And`, `Or`, `Implies` or `Iff`) over new
    /// operands.
    pub(crate) fn with_operands(&self, a: Box<Formula>, b: Box<Formula>) -> Formula {
        match self {
            Formula::And(..) => Formula::And(a, b),
            Formula::Or(..) => Formula::Or(a, b),
            Formula::Implies(..) => Formula::Implies(a, b),
            Formula::Iff(..) => Formula::Iff(a, b),
            _ => unreachable!("not a binary connective"),
        }
    }

    /// This quantifier (`Forall` or `Exists`) with a new binder, sort and
    /// body.
    pub(crate) fn with_binder(&self, v: Ident, s: Sort, body: Box<Formula>) -> Formula {
        match self {
            Formula::Forall(..) => Formula::Forall(v, s, body),
            Formula::Exists(..) => Formula::Exists(v, s, body),
            _ => unreachable!("not a term quantifier"),
        }
    }

    /// Collects the free term variables of the formula into `out`.
    pub fn free_vars(&self, out: &mut BTreeSet<Ident>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Eq(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Formula::Pred(_, _, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
            Formula::Not(f) => f.free_vars(out),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Iff(a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Formula::Forall(v, _, body) | Formula::Exists(v, _, body) => {
                let mut inner = BTreeSet::new();
                body.free_vars(&mut inner);
                inner.remove(v);
                out.extend(inner);
            }
            Formula::ForallSort(_, body) => body.free_vars(out),
            Formula::FMatch(scrut, arms) => {
                scrut.free_vars(out);
                for (pat, rhs) in arms {
                    let mut inner = BTreeSet::new();
                    rhs.free_vars(&mut inner);
                    for b in pat.binders() {
                        inner.remove(b);
                    }
                    out.extend(inner);
                }
            }
        }
    }

    /// Returns true if the term variable `v` occurs free in the formula.
    pub fn mentions(&self, v: &str) -> bool {
        match self {
            Formula::True | Formula::False => false,
            Formula::Eq(_, a, b) => a.mentions(v) || b.mentions(v),
            Formula::Pred(_, _, args) => args.iter().any(|t| t.mentions(v)),
            Formula::Not(f) => f.mentions(v),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Iff(a, b) => a.mentions(v) || b.mentions(v),
            Formula::Forall(x, _, body) | Formula::Exists(x, _, body) => x != v && body.mentions(v),
            Formula::ForallSort(_, body) => body.mentions(v),
            Formula::FMatch(scrut, arms) => {
                scrut.mentions(v)
                    || arms
                        .iter()
                        .any(|(pat, rhs)| !pat.binders().iter().any(|b| b == v) && rhs.mentions(v))
            }
        }
    }

    /// Returns true if the formula contains no metavariables.
    pub fn is_ground(&self) -> bool {
        !Node::Formula(self).any(|n| match n {
            Node::Formula(Formula::Eq(s, ..))
            | Node::Formula(Formula::Forall(_, s, _))
            | Node::Formula(Formula::Exists(_, s, _)) => !s.is_ground_or_var(),
            Node::Formula(Formula::Pred(_, sorts, _)) => !sorts.iter().all(Sort::is_ground_or_var),
            Node::Term(Term::Meta(_)) => true,
            _ => false,
        })
    }

    /// Structural size; used for fuel accounting.
    pub fn size(&self) -> usize {
        Node::Formula(self).size()
    }

    /// The formula under its leading `ForallSort`/`Forall`/`Implies`
    /// prefix, borrowed: the conclusion a rule stated this way proves.
    pub fn conclusion(&self) -> &Formula {
        let mut cur = self;
        loop {
            match cur {
                Formula::ForallSort(_, body) | Formula::Forall(_, _, body) => cur = body,
                Formula::Implies(_, q) => cur = q,
                _ => return cur,
            }
        }
    }

    /// Peels the leading universal quantifiers and implications, returning
    /// `(sort binders, term binders, premises, conclusion)`. Use
    /// [`Formula::conclusion`] when only the conclusion is wanted.
    pub fn peel(&self) -> PeeledFormula<'_> {
        let mut peeled = PeeledFormula {
            sort_binders: Vec::new(),
            binders: Vec::new(),
            premises: Vec::new(),
            conclusion: self.conclusion(),
        };
        let mut cur = self;
        loop {
            match cur {
                Formula::ForallSort(v, body) => {
                    peeled.sort_binders.push(v.clone());
                    cur = body;
                }
                Formula::Forall(v, s, body) => {
                    peeled.binders.push((v.clone(), s.clone()));
                    cur = body;
                }
                Formula::Implies(p, q) => {
                    peeled.premises.push(p.as_ref());
                    cur = q;
                }
                _ => return peeled,
            }
        }
    }
}

/// The result of [`Formula::peel`]: a rule-shaped view of a formula.
#[derive(Debug)]
pub struct PeeledFormula<'a> {
    /// Leading sort binders.
    pub sort_binders: Vec<Ident>,
    /// Leading term binders with their sorts (interleaving with premises is
    /// flattened: binders collected in order).
    pub binders: Vec<(Ident, Sort)>,
    /// Premises of the implication chain.
    pub premises: Vec<&'a Formula>,
    /// The final conclusion.
    pub conclusion: &'a Formula,
}

impl Sort {
    /// Ground, or a rigid sort variable (allowed in goals: rigid sort
    /// variables come from `ForallSort` introductions).
    pub fn is_ground_or_var(&self) -> bool {
        match self {
            Sort::Atom(_) | Sort::Var(_) => true,
            Sort::Meta(_) => false,
            Sort::App(_, args) => args.iter().all(Sort::is_ground_or_var),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_formula(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peel_rule_shape() {
        // forall x : nat, x = x -> forall y : nat, y = x -> x = y.
        let f = Formula::forall(
            "x",
            Sort::nat(),
            Formula::implies(
                Formula::Eq(Sort::nat(), Term::var("x"), Term::var("x")),
                Formula::forall(
                    "y",
                    Sort::nat(),
                    Formula::implies(
                        Formula::Eq(Sort::nat(), Term::var("y"), Term::var("x")),
                        Formula::Eq(Sort::nat(), Term::var("x"), Term::var("y")),
                    ),
                ),
            ),
        );
        let p = f.peel();
        assert_eq!(p.binders.len(), 2);
        assert_eq!(p.premises.len(), 2);
        assert!(matches!(p.conclusion, Formula::Eq(..)));
    }

    #[test]
    fn free_vars_under_binders() {
        let f = Formula::forall(
            "x",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("x"), Term::var("y")),
        );
        let mut fv = BTreeSet::new();
        f.free_vars(&mut fv);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec!["y".to_string()]);
    }
}

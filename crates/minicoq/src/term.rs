//! First-order terms with shallow `match` expressions.

use std::collections::BTreeSet;
use std::fmt;

use crate::walk::Node;
use crate::Ident;

/// A pattern in a `match` arm: a constructor applied to distinct variables,
/// a catch-all variable, or a wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pat {
    /// Constructor pattern, e.g. `cons x xs`. Arguments are binders.
    Ctor(Ident, Vec<Ident>),
    /// Catch-all binder pattern.
    Var(Ident),
    /// Wildcard pattern `_`.
    Wild,
}

impl Pat {
    /// The variables bound by this pattern.
    pub fn binders(&self) -> Vec<Ident> {
        match self {
            Pat::Ctor(_, vs) => vs.clone(),
            Pat::Var(v) => vec![v.clone()],
            Pat::Wild => Vec::new(),
        }
    }
}

/// A term of the object logic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable: bound by a quantifier, introduced into the context, or a
    /// pattern binder.
    Var(Ident),
    /// Application of a declared symbol (function, constructor, or constant)
    /// to arguments. Constants are zero-argument applications.
    App(Ident, Vec<Term>),
    /// A `match` expression over a scrutinee of an inductive datatype sort.
    Match(Box<Term>, Vec<(Pat, Term)>),
    /// A unification metavariable; appears only inside tactic internals and
    /// never in goals handed back to callers.
    Meta(u32),
}

impl Term {
    /// A zero-argument application (constant or nullary constructor).
    pub fn cst(name: impl Into<Ident>) -> Term {
        Term::App(name.into(), Vec::new())
    }

    /// A variable term.
    pub fn var(name: impl Into<Ident>) -> Term {
        Term::Var(name.into())
    }

    /// Builds the Peano numeral for `n`.
    pub fn nat(n: u64) -> Term {
        let mut t = Term::cst("O");
        for _ in 0..n {
            t = Term::App("S".into(), vec![t]);
        }
        t
    }

    /// If this term is a Peano numeral, returns its value.
    pub fn as_nat(&self) -> Option<u64> {
        let mut t = self;
        let mut n = 0u64;
        loop {
            match t {
                Term::App(s, args) if s == "S" && args.len() == 1 => {
                    n += 1;
                    t = &args[0];
                }
                Term::App(o, args) if o == "O" && args.is_empty() => return Some(n),
                _ => return None,
            }
        }
    }

    /// Returns true if the term contains no metavariables.
    pub fn is_ground(&self) -> bool {
        !Node::Term(self).any(|n| matches!(n, Node::Term(Term::Meta(_))))
    }

    /// Collects the free variables of the term into `out`.
    pub fn free_vars(&self, out: &mut BTreeSet<Ident>) {
        match self {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Meta(_) => {}
            Term::App(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
            Term::Match(scrut, arms) => {
                scrut.free_vars(out);
                for (pat, rhs) in arms {
                    let mut inner = BTreeSet::new();
                    rhs.free_vars(&mut inner);
                    for b in pat.binders() {
                        inner.remove(&b);
                    }
                    out.extend(inner);
                }
            }
        }
    }

    /// Returns true if variable `v` occurs free in the term.
    pub fn mentions(&self, v: &str) -> bool {
        match self {
            Term::Var(x) => x == v,
            Term::Meta(_) => false,
            Term::App(_, args) => args.iter().any(|t| t.mentions(v)),
            Term::Match(scrut, arms) => {
                scrut.mentions(v)
                    || arms
                        .iter()
                        .any(|(pat, rhs)| !pat.binders().iter().any(|b| b == v) && rhs.mentions(v))
            }
        }
    }

    /// Structural size of the term; used for fuel accounting.
    pub fn size(&self) -> usize {
        Node::Term(self).size()
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_term(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numerals_round_trip() {
        for n in [0u64, 1, 2, 17] {
            assert_eq!(Term::nat(n).as_nat(), Some(n));
        }
        assert_eq!(Term::var("x").as_nat(), None);
    }

    #[test]
    fn free_vars_respect_match_binders() {
        // match l with nil => x | cons y ys => y end — free: l, x.
        let t = Term::Match(
            Box::new(Term::var("l")),
            vec![
                (Pat::Ctor("nil".into(), vec![]), Term::var("x")),
                (
                    Pat::Ctor("cons".into(), vec!["y".into(), "ys".into()]),
                    Term::var("y"),
                ),
            ],
        );
        let mut fv = BTreeSet::new();
        t.free_vars(&mut fv);
        let fv: Vec<_> = fv.into_iter().collect();
        assert_eq!(fv, vec!["l".to_string(), "x".to_string()]);
    }

    #[test]
    fn mentions_is_capture_aware() {
        let t = Term::Match(
            Box::new(Term::var("l")),
            vec![(Pat::Var("x".into()), Term::var("x"))],
        );
        assert!(!t.mentions("x"));
        assert!(t.mentions("l"));
    }
}

//! The declared names a sort, term or formula references, and the static
//! facts ranking reads off a lemma statement.
//!
//! [`LemmaFacts`] are computed on first use and cached in the lemma
//! itself ([`crate::env::Lemma::facts`]). Lemmas are `Arc`-shared by every
//! later environment snapshot, so a corpus computes each lemma's facts at
//! most once, and only when something ranks premises.

use std::collections::BTreeSet;

use proof_trace::envelope::fnv1a;

use crate::formula::Formula;
use crate::sort::Sort;
use crate::term::{Pat, Term};
use crate::Ident;

/// Calls `visit` on every declared name a sort references.
pub fn sort_names<'a>(s: &'a Sort, visit: &mut impl FnMut(&'a str)) {
    match s {
        Sort::Atom(n) => visit(n),
        Sort::Var(_) | Sort::Meta(_) => {}
        Sort::App(n, args) => {
            visit(n);
            for a in args {
                sort_names(a, visit);
            }
        }
    }
}

/// Calls `visit` on every declared name a term references (variables and
/// pattern binders excluded; constructor patterns included).
pub fn term_names<'a>(t: &'a Term, visit: &mut impl FnMut(&'a str)) {
    match t {
        Term::Var(_) | Term::Meta(_) => {}
        Term::App(f, args) => {
            visit(f);
            for a in args {
                term_names(a, visit);
            }
        }
        Term::Match(scrut, arms) => {
            term_names(scrut, visit);
            for (pat, rhs) in arms {
                if let Pat::Ctor(c, _) = pat {
                    visit(c);
                }
                term_names(rhs, visit);
            }
        }
    }
}

/// Calls `visit` on every declared name a formula references.
pub fn formula_names<'a>(f: &'a Formula, visit: &mut impl FnMut(&'a str)) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Eq(s, a, b) => {
            sort_names(s, visit);
            term_names(a, visit);
            term_names(b, visit);
        }
        Formula::Pred(p, sorts, args) => {
            visit(p);
            for s in sorts {
                sort_names(s, visit);
            }
            for a in args {
                term_names(a, visit);
            }
        }
        Formula::Not(a) => formula_names(a, visit),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            formula_names(a, visit);
            formula_names(b, visit);
        }
        Formula::Forall(_, s, b) | Formula::Exists(_, s, b) => {
            sort_names(s, visit);
            formula_names(b, visit);
        }
        Formula::ForallSort(_, b) => formula_names(b, visit),
        Formula::FMatch(scrut, arms) => {
            term_names(scrut, visit);
            for (pat, rhs) in arms {
                if let Pat::Ctor(c, _) = pat {
                    visit(c);
                }
                formula_names(rhs, visit);
            }
        }
    }
}

/// Collects every declared name a sort references.
pub fn sort_refs(s: &Sort, out: &mut BTreeSet<String>) {
    sort_names(s, &mut |n| {
        out.insert(n.to_owned());
    });
}

/// Collects every declared name a term references (variables and pattern
/// binders excluded; constructor patterns included).
pub fn term_refs(t: &Term, out: &mut BTreeSet<String>) {
    term_names(t, &mut |n| {
        out.insert(n.to_owned());
    });
}

/// Collects every declared name a formula references.
pub fn formula_refs(f: &Formula, out: &mut BTreeSet<String>) {
    formula_names(f, &mut |n| {
        out.insert(n.to_owned());
    });
}

/// The shape of a formula's outermost connective, with a hash standing in
/// for the symbol identity of equations and predicate applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConclusionHead {
    True,
    False,
    Not,
    And,
    Or,
    Iff,
    Match,
    Exists,
    /// An equation, with the FNV-1a hash of its sort's `Debug` form.
    Eq(u64),
    /// A predicate application, with the FNV-1a hash of its name.
    Pred(u64),
    /// An implication or universal binder, which [`Formula::peel`] strips.
    Binder,
}

impl ConclusionHead {
    /// The head of `f` itself; pass a peeled conclusion for a rule's head.
    pub fn of(f: &Formula) -> ConclusionHead {
        match f {
            Formula::True => ConclusionHead::True,
            Formula::False => ConclusionHead::False,
            Formula::Not(_) => ConclusionHead::Not,
            Formula::And(..) => ConclusionHead::And,
            Formula::Or(..) => ConclusionHead::Or,
            Formula::Iff(..) => ConclusionHead::Iff,
            Formula::FMatch(..) => ConclusionHead::Match,
            Formula::Exists(..) => ConclusionHead::Exists,
            Formula::Eq(sort, _, _) => ConclusionHead::Eq(fnv1a(format!("{sort:?}").as_bytes())),
            Formula::Pred(name, _, _) => ConclusionHead::Pred(fnv1a(name.as_bytes())),
            Formula::Implies(..) | Formula::Forall(..) | Formula::ForallSort(..) => {
                ConclusionHead::Binder
            }
        }
    }
}

/// Static facts about one lemma statement, read by premise ranking.
#[derive(Debug, Clone)]
pub struct LemmaFacts {
    /// Every declared name the statement references, in name order.
    pub refs: Box<[Ident]>,
    /// [`Formula::size`] of the statement.
    pub size: usize,
    /// Head of the statement's conclusion once binders and premises are
    /// peeled.
    pub head: ConclusionHead,
    /// FNV-1a hash of the statement's `Debug` form.
    pub fingerprint: u64,
}

impl LemmaFacts {
    /// Computes the facts of `stmt`.
    pub(crate) fn of(stmt: &Formula) -> LemmaFacts {
        let mut refs = BTreeSet::new();
        formula_names(stmt, &mut |n| {
            refs.insert(n);
        });
        LemmaFacts {
            refs: refs.into_iter().map(str::to_owned).collect(),
            size: stmt.size(),
            head: ConclusionHead::of(stmt.peel().conclusion),
            fingerprint: fnv1a(format!("{stmt:?}").as_bytes()),
        }
    }
}

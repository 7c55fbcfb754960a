//! The analyzer's passes. Each pass consumes the loaded development and/or
//! the dependency graph and appends [`Finding`](crate::report::Finding)s;
//! none of them mutates anything.

pub mod axioms;
pub mod cold;
pub mod dead;
pub mod hints;
pub mod hygiene;
pub mod positivity;
pub mod rewrite;

use minicoq::formula::Formula;

/// Strips the universal prefix (`forall`, sort-`forall`) off a rule or
/// lemma statement, returning the quantifier-free core.
pub(crate) fn strip_quantifiers(f: &Formula) -> &Formula {
    let mut f = f;
    loop {
        match f {
            Formula::Forall(_, _, b) | Formula::Exists(_, _, b) | Formula::ForallSort(_, b) => {
                f = b
            }
            _ => return f,
        }
    }
}

/// Decomposes a rule statement into its premises and conclusion:
/// quantifier prefixes are stripped and the implication spine unrolled, so
/// `forall x, P x -> forall y, Q y -> R x y` yields `[P x, Q y]` and
/// `R x y`.
pub(crate) fn premises_and_conclusion(f: &Formula) -> (Vec<&Formula>, &Formula) {
    let mut premises = Vec::new();
    let mut f = strip_quantifiers(f);
    while let Formula::Implies(p, q) = f {
        premises.push(p.as_ref());
        f = strip_quantifiers(q);
    }
    (premises, f)
}

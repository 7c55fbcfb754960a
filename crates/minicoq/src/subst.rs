//! Capture-avoiding substitution and renaming.

use std::collections::{BTreeMap, BTreeSet};

use crate::formula::Formula;
use crate::sort::Sort;
use crate::term::{Pat, Term};
use crate::Ident;

/// A simultaneous substitution of terms for term variables.
pub type TermSubst = BTreeMap<Ident, Term>;

/// A substitution of sorts for sort variables.
pub type SortSubst = BTreeMap<Ident, Sort>;

/// Produces a variable name not in `avoid`, derived from `base`.
///
/// Tries `base`, then `base0`, `base1`, ...
pub fn fresh_name(base: &str, avoid: &BTreeSet<Ident>) -> Ident {
    // The requested name wins when free (so an `intros l2` binder stays l2).
    if !base.is_empty() && !avoid.contains(base) {
        return base.into();
    }
    let stem = base.trim_end_matches(|c: char| c.is_ascii_digit());
    let stem = if stem.is_empty() { "x" } else { stem };
    for i in 0u64.. {
        let cand = Ident::numbered(stem, i);
        if !avoid.contains(&cand) {
            return cand;
        }
    }
    unreachable!("fresh name space exhausted")
}

/// The set of variables free in the range of a substitution.
fn range_vars(map: &TermSubst) -> BTreeSet<Ident> {
    let mut out = BTreeSet::new();
    for t in map.values() {
        t.free_vars(&mut out);
    }
    out
}

/// Applies `map` to `t`, renaming `match` binders to avoid capture.
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
                    let (pat, rhs) = rename_arm_binders_term(pat, rhs, map);
                    let mut inner = map.clone();
                    for b in pat.binders() {
                        inner.remove(&b);
                    }
                    (pat, subst_term(&rhs, &inner))
                })
                .collect();
            Term::Match(Box::new(scrut), arms)
        }
    }
}

fn rename_arm_binders_term(pat: &Pat, rhs: &Term, map: &TermSubst) -> (Pat, Term) {
    let danger = range_vars(map);
    let binders = pat.binders();
    if binders.iter().all(|b| !danger.contains(b)) {
        return (pat.clone(), rhs.clone());
    }
    let mut avoid: BTreeSet<Ident> = danger;
    let mut fv = BTreeSet::new();
    rhs.free_vars(&mut fv);
    avoid.extend(fv);
    let mut renaming = TermSubst::new();
    let new_pat = rename_pat(pat, &mut avoid, &mut renaming);
    (new_pat, subst_term(rhs, &renaming))
}

fn rename_pat(pat: &Pat, avoid: &mut BTreeSet<Ident>, renaming: &mut TermSubst) -> Pat {
    match pat {
        Pat::Wild => Pat::Wild,
        Pat::Var(v) => {
            let nv = fresh_name(v, avoid);
            avoid.insert(nv.clone());
            renaming.insert(v.clone(), Term::Var(nv.clone()));
            Pat::Var(nv)
        }
        Pat::Ctor(c, vs) => {
            let nvs = vs
                .iter()
                .map(|v| {
                    let nv = fresh_name(v, avoid);
                    avoid.insert(nv.clone());
                    renaming.insert(v.clone(), Term::Var(nv.clone()));
                    nv
                })
                .collect();
            Pat::Ctor(c.clone(), nvs)
        }
    }
}

/// Applies `map` to a formula, renaming quantifier and match binders to
/// avoid capture.
pub fn subst_formula(f: &Formula, map: &TermSubst) -> Formula {
    if map.is_empty() {
        return f.clone();
    }
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Eq(s, a, b) => Formula::Eq(s.clone(), subst_term(a, map), subst_term(b, map)),
        Formula::Pred(p, sorts, args) => Formula::Pred(
            p.clone(),
            sorts.clone(),
            args.iter().map(|a| subst_term(a, map)).collect(),
        ),
        Formula::Not(g) => Formula::Not(Box::new(subst_formula(g, map))),
        Formula::And(a, b) => Formula::and(subst_formula(a, map), subst_formula(b, map)),
        Formula::Or(a, b) => Formula::or(subst_formula(a, map), subst_formula(b, map)),
        Formula::Implies(a, b) => Formula::implies(subst_formula(a, map), subst_formula(b, map)),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(subst_formula(a, map)),
            Box::new(subst_formula(b, map)),
        ),
        Formula::Forall(v, s, body) => {
            let (v, body, inner) = rename_binder_formula(v, body, map);
            Formula::Forall(v, s.clone(), Box::new(subst_formula(&body, &inner)))
        }
        Formula::Exists(v, s, body) => {
            let (v, body, inner) = rename_binder_formula(v, body, map);
            Formula::Exists(v, s.clone(), Box::new(subst_formula(&body, &inner)))
        }
        Formula::ForallSort(v, body) => {
            Formula::ForallSort(v.clone(), Box::new(subst_formula(body, map)))
        }
        Formula::FMatch(scrut, arms) => {
            let scrut = subst_term(scrut, map);
            let arms = arms
                .iter()
                .map(|(pat, rhs)| {
                    let (pat, rhs) = rename_arm_binders_formula(pat, rhs, map);
                    let mut inner = map.clone();
                    for b in pat.binders() {
                        inner.remove(&b);
                    }
                    (pat, subst_formula(&rhs, &inner))
                })
                .collect();
            Formula::FMatch(Box::new(scrut), arms)
        }
    }
}

fn rename_binder_formula(
    v: &Ident,
    body: &Formula,
    map: &TermSubst,
) -> (Ident, Formula, TermSubst) {
    let mut inner = map.clone();
    inner.remove(v);
    let danger = range_vars(&inner);
    if !danger.contains(v) {
        return (v.clone(), body.clone(), inner);
    }
    let mut avoid = danger;
    let mut fv = BTreeSet::new();
    body.free_vars(&mut fv);
    avoid.extend(fv);
    let nv = fresh_name(v, &avoid);
    let mut renaming = TermSubst::new();
    renaming.insert(v.clone(), Term::Var(nv.clone()));
    let body = subst_formula(body, &renaming);
    (nv, body, inner)
}

fn rename_arm_binders_formula(pat: &Pat, rhs: &Formula, map: &TermSubst) -> (Pat, Formula) {
    let danger = range_vars(map);
    let binders = pat.binders();
    if binders.iter().all(|b| !danger.contains(b)) {
        return (pat.clone(), rhs.clone());
    }
    let mut avoid: BTreeSet<Ident> = danger;
    let mut fv = BTreeSet::new();
    rhs.free_vars(&mut fv);
    avoid.extend(fv);
    let mut renaming = TermSubst::new();
    let new_pat = rename_pat(pat, &mut avoid, &mut renaming);
    (new_pat, subst_formula(rhs, &renaming))
}

/// Substitutes a single variable in a term.
pub fn subst_term1(t: &Term, v: &str, r: &Term) -> Term {
    let mut m = TermSubst::new();
    m.insert(v.into(), r.clone());
    subst_term(t, &m)
}

/// Substitutes a single variable in a formula.
pub fn subst_formula1(f: &Formula, v: &str, r: &Term) -> Formula {
    let mut m = TermSubst::new();
    m.insert(v.into(), r.clone());
    subst_formula(f, &m)
}

/// Replaces metavariables in a term with their solutions.
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

/// Replaces term and sort metavariables in a formula with their solutions.
pub fn zonk_formula(
    f: &Formula,
    metas: &BTreeMap<u32, Term>,
    smetas: &BTreeMap<u32, Sort>,
) -> Formula {
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Eq(s, a, b) => Formula::Eq(
            s.subst_metas(smetas),
            zonk_term(a, metas),
            zonk_term(b, metas),
        ),
        Formula::Pred(p, sorts, args) => Formula::Pred(
            p.clone(),
            sorts.iter().map(|s| s.subst_metas(smetas)).collect(),
            args.iter().map(|a| zonk_term(a, metas)).collect(),
        ),
        Formula::Not(g) => Formula::Not(Box::new(zonk_formula(g, metas, smetas))),
        Formula::And(a, b) => Formula::and(
            zonk_formula(a, metas, smetas),
            zonk_formula(b, metas, smetas),
        ),
        Formula::Or(a, b) => Formula::or(
            zonk_formula(a, metas, smetas),
            zonk_formula(b, metas, smetas),
        ),
        Formula::Implies(a, b) => Formula::implies(
            zonk_formula(a, metas, smetas),
            zonk_formula(b, metas, smetas),
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(zonk_formula(a, metas, smetas)),
            Box::new(zonk_formula(b, metas, smetas)),
        ),
        Formula::Forall(v, s, body) => Formula::Forall(
            v.clone(),
            s.subst_metas(smetas),
            Box::new(zonk_formula(body, metas, smetas)),
        ),
        Formula::Exists(v, s, body) => Formula::Exists(
            v.clone(),
            s.subst_metas(smetas),
            Box::new(zonk_formula(body, metas, smetas)),
        ),
        Formula::ForallSort(v, body) => {
            Formula::ForallSort(v.clone(), Box::new(zonk_formula(body, metas, smetas)))
        }
        Formula::FMatch(scrut, arms) => Formula::FMatch(
            Box::new(zonk_term(scrut, metas)),
            arms.iter()
                .map(|(p, rhs)| (p.clone(), zonk_formula(rhs, metas, smetas)))
                .collect(),
        ),
    }
}

/// Applies a sort substitution throughout a formula (for instantiating
/// polymorphic lemmas and definitions).
pub fn subst_sorts_formula(f: &Formula, map: &SortSubst) -> Formula {
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Eq(s, a, b) => Formula::Eq(s.subst_vars(map), a.clone(), b.clone()),
        Formula::Pred(p, sorts, args) => Formula::Pred(
            p.clone(),
            sorts.iter().map(|s| s.subst_vars(map)).collect(),
            args.clone(),
        ),
        Formula::Not(g) => Formula::Not(Box::new(subst_sorts_formula(g, map))),
        Formula::And(a, b) => {
            Formula::and(subst_sorts_formula(a, map), subst_sorts_formula(b, map))
        }
        Formula::Or(a, b) => Formula::or(subst_sorts_formula(a, map), subst_sorts_formula(b, map)),
        Formula::Implies(a, b) => {
            Formula::implies(subst_sorts_formula(a, map), subst_sorts_formula(b, map))
        }
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(subst_sorts_formula(a, map)),
            Box::new(subst_sorts_formula(b, map)),
        ),
        Formula::Forall(v, s, body) => Formula::Forall(
            v.clone(),
            s.subst_vars(map),
            Box::new(subst_sorts_formula(body, map)),
        ),
        Formula::Exists(v, s, body) => Formula::Exists(
            v.clone(),
            s.subst_vars(map),
            Box::new(subst_sorts_formula(body, map)),
        ),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula as F;

    #[test]
    fn fresh_name_avoids() {
        let mut avoid = BTreeSet::new();
        avoid.insert("x".into());
        avoid.insert("x0".into());
        assert_eq!(fresh_name("x", &avoid), "x1");
        assert_eq!(fresh_name("y", &avoid), "y");
    }

    #[test]
    fn subst_avoids_capture_under_forall() {
        // (forall x, x = y)[y := x]  must not capture: becomes forall x0, x0 = x.
        let f = F::forall(
            "x",
            Sort::nat(),
            F::Eq(Sort::nat(), Term::var("x"), Term::var("y")),
        );
        let g = subst_formula1(&f, "y", &Term::var("x"));
        match g {
            F::Forall(v, _, body) => {
                assert_ne!(v, "x");
                match *body {
                    F::Eq(_, a, b) => {
                        assert_eq!(a, Term::Var(v));
                        assert_eq!(b, Term::var("x"));
                    }
                    other => panic!("unexpected body {other:?}"),
                }
            }
            other => panic!("unexpected formula {other:?}"),
        }
    }

    #[test]
    fn subst_shadowed_binder_is_noop() {
        let f = F::forall(
            "x",
            Sort::nat(),
            F::Eq(Sort::nat(), Term::var("x"), Term::var("x")),
        );
        let g = subst_formula1(&f, "x", &Term::nat(3));
        assert_eq!(f, g);
    }

    #[test]
    fn zonk_resolves_chains() {
        let mut metas = BTreeMap::new();
        metas.insert(0u32, Term::Meta(1));
        metas.insert(1u32, Term::nat(2));
        assert_eq!(zonk_term(&Term::Meta(0), &metas), Term::nat(2));
    }
}

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

/// Maps `f` over `items` copy-on-write: `f` returns `None` for an item it
/// leaves alone, and the vector is built, from a copy of the items before
/// it, only at the first item `f` changes. `Ok(None)` when it changes none.
pub(crate) fn try_map_changed<T: Clone, E>(
    items: &[T],
    mut f: impl FnMut(&T) -> Result<Option<T>, E>,
) -> Result<Option<Vec<T>>, E> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        match (f(item)?, &mut out) {
            (Some(new), Some(out)) => out.push(new),
            (Some(new), None) => {
                let mut v = Vec::with_capacity(items.len());
                v.extend_from_slice(&items[..i]);
                v.push(new);
                out = Some(v);
            }
            (None, Some(out)) => out.push(item.clone()),
            (None, None) => {}
        }
    }
    Ok(out)
}

/// [`try_map_changed`] for an `f` that cannot fail.
pub(crate) fn map_changed<T: Clone>(
    items: &[T],
    mut f: impl FnMut(&T) -> Option<T>,
) -> Option<Vec<T>> {
    let Ok(out) = try_map_changed(items, |x| Ok::<_, std::convert::Infallible>(f(x)));
    out
}

/// The pair `(a, b)` with each part that changed replaced by its new value;
/// `None` when neither changed.
pub(crate) fn either<A: Clone, B: Clone>(
    a: &A,
    new_a: Option<A>,
    b: &B,
    new_b: Option<B>,
) -> Option<(A, B)> {
    if new_a.is_none() && new_b.is_none() {
        return None;
    }
    Some((
        new_a.unwrap_or_else(|| a.clone()),
        new_b.unwrap_or_else(|| b.clone()),
    ))
}

/// A substitution as it stands under some binders: `map` minus the keys
/// an enclosing binder hides.
struct Scope<'m> {
    map: &'m TermSubst,
    hidden: Vec<&'m Ident>,
}

/// The trees substitution rewrites under `match` arms.
trait Substitutable: Clone {
    fn subst_in(&self, scope: &mut Scope<'_>) -> Option<Self>;
    fn free_vars_into(&self, out: &mut BTreeSet<Ident>);
}

impl Substitutable for Term {
    fn subst_in(&self, scope: &mut Scope<'_>) -> Option<Term> {
        scope.term(self)
    }

    fn free_vars_into(&self, out: &mut BTreeSet<Ident>) {
        self.free_vars(out);
    }
}

impl Substitutable for Formula {
    fn subst_in(&self, scope: &mut Scope<'_>) -> Option<Formula> {
        scope.formula(self)
    }

    fn free_vars_into(&self, out: &mut BTreeSet<Ident>) {
        self.free_vars(out);
    }
}

impl<'m> Scope<'m> {
    fn new(map: &'m TermSubst) -> Scope<'m> {
        Scope {
            map,
            hidden: Vec::new(),
        }
    }

    /// True when every key is hidden: the substitution changes nothing.
    fn is_empty(&self) -> bool {
        self.hidden.len() == self.map.len()
    }

    fn visible(&self) -> impl Iterator<Item = &'m Term> + '_ {
        self.map
            .iter()
            .filter(|(k, _)| !self.hidden.contains(k))
            .map(|(_, t)| t)
    }

    /// Hides the key `v`, if it is a visible one, under a binder of `v`.
    /// The caller restores the scope by truncating `hidden`.
    fn hide(&mut self, v: &Ident) {
        if let Some((k, _)) = self.map.get_key_value(v) {
            if !self.hidden.contains(&k) {
                self.hidden.push(k);
            }
        }
    }

    /// True when the visible range mentions `b`, so that a binder of that
    /// name would capture it.
    fn captures(&self, b: &str) -> bool {
        self.visible().any(|t| t.mentions(b))
    }

    /// The variables free in the visible range.
    fn range_vars(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        for t in self.visible() {
            t.free_vars(&mut out);
        }
        out
    }

    fn term(&mut self, t: &Term) -> Option<Term> {
        if self.is_empty() {
            return None;
        }
        match t {
            Term::Var(v) => self.visible_get(v).cloned(),
            Term::Meta(_) => None,
            Term::App(f, args) => {
                map_changed(args, |a| self.term(a)).map(|args| Term::App(f.clone(), args))
            }
            Term::Match(scrut, arms) => {
                let new_scrut = self.term(scrut).map(Box::new);
                let new_arms = map_changed(arms, |(pat, rhs)| self.arm(pat, rhs));
                either(scrut, new_scrut, arms, new_arms).map(|(s, arms)| Term::Match(s, arms))
            }
        }
    }

    fn visible_get(&self, v: &Ident) -> Option<&'m Term> {
        let (k, t) = self.map.get_key_value(v)?;
        (!self.hidden.contains(&k)).then_some(t)
    }

    /// Substitutes into a `match` arm. When the visible range mentions one
    /// of the pattern's binders, every binder is renamed first.
    fn arm<T: Substitutable>(&mut self, pat: &Pat, rhs: &T) -> Option<(Pat, T)> {
        let renamed = pat.binders().iter().any(|b| self.captures(b)).then(|| {
            let mut avoid = self.range_vars();
            rhs.free_vars_into(&mut avoid);
            let mut renaming = TermSubst::new();
            let pat = rename_pat(pat, &mut avoid, &mut renaming);
            let renamed = rhs.subst_in(&mut Scope::new(&renaming));
            (pat, renamed.unwrap_or_else(|| rhs.clone()))
        });
        let mark = self.hidden.len();
        let (pat_now, rhs_now) = match &renamed {
            Some((p, r)) => (p, r),
            None => (pat, rhs),
        };
        for b in pat_now.binders() {
            self.hide(b);
        }
        let new_rhs = rhs_now.subst_in(self);
        self.hidden.truncate(mark);
        match renamed {
            Some((pat, rhs)) => Some((pat, new_rhs.unwrap_or(rhs))),
            None => new_rhs.map(|rhs| (pat.clone(), rhs)),
        }
    }

    fn formula(&mut self, f: &Formula) -> Option<Formula> {
        if self.is_empty() {
            return None;
        }
        match f {
            Formula::True | Formula::False => None,
            Formula::Eq(s, a, b) => {
                let new_a = self.term(a);
                let new_b = self.term(b);
                either(a, new_a, b, new_b).map(|(a, b)| Formula::Eq(s.clone(), a, b))
            }
            Formula::Pred(p, sorts, args) => map_changed(args, |a| self.term(a))
                .map(|args| Formula::Pred(p.clone(), sorts.clone(), args)),
            Formula::Not(g) => self.formula(g).map(|g| Formula::Not(Box::new(g))),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Iff(a, b) => {
                let new_a = self.formula(a).map(Box::new);
                let new_b = self.formula(b).map(Box::new);
                either(a, new_a, b, new_b).map(|(a, b)| f.with_operands(a, b))
            }
            Formula::Forall(v, s, body) | Formula::Exists(v, s, body) => {
                let mark = self.hidden.len();
                self.hide(v);
                let out = if self.captures(v) {
                    let mut avoid = self.range_vars();
                    body.free_vars(&mut avoid);
                    let nv = fresh_name(v, &avoid);
                    let renamed = subst_formula1(body, v, &Term::Var(nv.clone()));
                    let body = self.formula(&renamed).unwrap_or(renamed);
                    Some(f.with_binder(nv, s.clone(), Box::new(body)))
                } else {
                    self.formula(body)
                        .map(|body| f.with_binder(v.clone(), s.clone(), Box::new(body)))
                };
                self.hidden.truncate(mark);
                out
            }
            Formula::ForallSort(v, body) => self
                .formula(body)
                .map(|body| Formula::ForallSort(v.clone(), Box::new(body))),
            Formula::FMatch(scrut, arms) => {
                let new_scrut = self.term(scrut).map(Box::new);
                let new_arms = map_changed(arms, |(pat, rhs)| self.arm(pat, rhs));
                either(scrut, new_scrut, arms, new_arms).map(|(s, arms)| Formula::FMatch(s, arms))
            }
        }
    }
}

/// Applies `map` to `t`, renaming `match` binders to avoid capture; `None`
/// when that changes nothing.
pub(crate) fn subst_term_opt(t: &Term, map: &TermSubst) -> Option<Term> {
    Scope::new(map).term(t)
}

/// Applies `map` to `t`, renaming `match` binders to avoid capture.
pub fn subst_term(t: &Term, map: &TermSubst) -> Term {
    subst_term_opt(t, map).unwrap_or_else(|| t.clone())
}

fn rename_pat(pat: &Pat, avoid: &mut BTreeSet<Ident>, renaming: &mut TermSubst) -> Pat {
    let mut fresh = |v: &Ident| {
        let nv = fresh_name(v, avoid);
        avoid.insert(nv.clone());
        renaming.insert(v.clone(), Term::Var(nv.clone()));
        nv
    };
    match pat {
        Pat::Wild => Pat::Wild,
        Pat::Var(v) => Pat::Var(fresh(v)),
        Pat::Ctor(c, vs) => Pat::Ctor(c.clone(), vs.iter().map(fresh).collect()),
    }
}

/// Applies `map` to a formula, renaming quantifier and match binders to
/// avoid capture; `None` when that changes nothing.
pub(crate) fn subst_formula_opt(f: &Formula, map: &TermSubst) -> Option<Formula> {
    Scope::new(map).formula(f)
}

/// Applies `map` to a formula, renaming quantifier and match binders to
/// avoid capture.
pub fn subst_formula(f: &Formula, map: &TermSubst) -> Formula {
    subst_formula_opt(f, map).unwrap_or_else(|| f.clone())
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

/// Replaces metavariables in a term with their solutions; `None` when the
/// term holds no solved metavariable.
pub(crate) fn zonk_term_opt(t: &Term, metas: &BTreeMap<u32, Term>) -> Option<Term> {
    if metas.is_empty() {
        return None;
    }
    match t {
        Term::Var(_) => None,
        Term::Meta(m) => metas
            .get(m)
            .map(|sol| zonk_term_opt(sol, metas).unwrap_or_else(|| sol.clone())),
        Term::App(f, args) => {
            map_changed(args, |a| zonk_term_opt(a, metas)).map(|args| Term::App(f.clone(), args))
        }
        Term::Match(scrut, arms) => {
            let new_scrut = zonk_term_opt(scrut, metas).map(Box::new);
            let new_arms = map_changed(arms, |(p, rhs)| {
                zonk_term_opt(rhs, metas).map(|rhs| (p.clone(), rhs))
            });
            either(scrut, new_scrut, arms, new_arms).map(|(s, arms)| Term::Match(s, arms))
        }
    }
}

/// Replaces metavariables in a term with their solutions.
pub fn zonk_term(t: &Term, metas: &BTreeMap<u32, Term>) -> Term {
    zonk_term_opt(t, metas).unwrap_or_else(|| t.clone())
}

/// Replaces term and sort metavariables in a formula with their solutions;
/// `None` when the formula holds no solved metavariable.
pub(crate) fn zonk_formula_opt(
    f: &Formula,
    metas: &BTreeMap<u32, Term>,
    smetas: &BTreeMap<u32, Sort>,
) -> Option<Formula> {
    if metas.is_empty() && smetas.is_empty() {
        return None;
    }
    let sort = |s: &Sort| s.subst_metas_opt(smetas);
    let term = |t: &Term| zonk_term_opt(t, metas);
    let go = |g: &Formula| zonk_formula_opt(g, metas, smetas);
    match f {
        Formula::True | Formula::False => None,
        Formula::Eq(s, a, b) => {
            let (new_s, new_ab) = (sort(s), either(a, term(a), b, term(b)));
            if new_s.is_none() && new_ab.is_none() {
                return None;
            }
            let (a, b) = new_ab.unwrap_or_else(|| (a.clone(), b.clone()));
            Some(Formula::Eq(new_s.unwrap_or_else(|| s.clone()), a, b))
        }
        Formula::Pred(p, sorts, args) => either(
            sorts,
            map_changed(sorts, sort),
            args,
            map_changed(args, term),
        )
        .map(|(sorts, args)| Formula::Pred(p.clone(), sorts, args)),
        Formula::Not(g) => go(g).map(|g| Formula::Not(Box::new(g))),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            either(a, go(a).map(Box::new), b, go(b).map(Box::new))
                .map(|(a, b)| f.with_operands(a, b))
        }
        Formula::Forall(v, s, body) | Formula::Exists(v, s, body) => {
            either(s, sort(s), body, go(body).map(Box::new))
                .map(|(s, body)| f.with_binder(v.clone(), s, body))
        }
        Formula::ForallSort(v, body) => {
            go(body).map(|body| Formula::ForallSort(v.clone(), Box::new(body)))
        }
        Formula::FMatch(scrut, arms) => {
            let new_arms = map_changed(arms, |(p, rhs)| go(rhs).map(|rhs| (p.clone(), rhs)));
            either(scrut, term(scrut).map(Box::new), arms, new_arms)
                .map(|(s, arms)| Formula::FMatch(s, arms))
        }
    }
}

/// Replaces term and sort metavariables in a formula with their solutions.
pub fn zonk_formula(
    f: &Formula,
    metas: &BTreeMap<u32, Term>,
    smetas: &BTreeMap<u32, Sort>,
) -> Formula {
    zonk_formula_opt(f, metas, smetas).unwrap_or_else(|| f.clone())
}

/// Applies a sort substitution throughout a formula; `None` when that
/// changes nothing.
pub(crate) fn subst_sorts_formula_opt(f: &Formula, map: &SortSubst) -> Option<Formula> {
    if map.is_empty() {
        return None;
    }
    let sort = |s: &Sort| s.subst_vars_opt(map);
    let go = |g: &Formula| subst_sorts_formula_opt(g, map);
    match f {
        Formula::True | Formula::False => None,
        Formula::Eq(s, a, b) => sort(s).map(|s| Formula::Eq(s, a.clone(), b.clone())),
        Formula::Pred(p, sorts, args) => {
            map_changed(sorts, sort).map(|sorts| Formula::Pred(p.clone(), sorts, args.clone()))
        }
        Formula::Not(g) => go(g).map(|g| Formula::Not(Box::new(g))),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            either(a, go(a).map(Box::new), b, go(b).map(Box::new))
                .map(|(a, b)| f.with_operands(a, b))
        }
        Formula::Forall(v, s, body) | Formula::Exists(v, s, body) => {
            either(s, sort(s), body, go(body).map(Box::new))
                .map(|(s, body)| f.with_binder(v.clone(), s, body))
        }
        Formula::ForallSort(v, body) => {
            let body = if map.contains_key(v) {
                let mut inner = map.clone();
                inner.remove(v);
                subst_sorts_formula_opt(body, &inner)
            } else {
                go(body)
            };
            body.map(|body| Formula::ForallSort(v.clone(), Box::new(body)))
        }
        Formula::FMatch(scrut, arms) => {
            map_changed(arms, |(p, rhs)| go(rhs).map(|rhs| (p.clone(), rhs)))
                .map(|arms| Formula::FMatch(scrut.clone(), arms))
        }
    }
}

/// Applies a sort substitution throughout a formula (for instantiating
/// polymorphic lemmas and definitions).
pub fn subst_sorts_formula(f: &Formula, map: &SortSubst) -> Formula {
    subst_sorts_formula_opt(f, map).unwrap_or_else(|| f.clone())
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

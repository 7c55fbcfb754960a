//! Canonical keys for proof states.
//!
//! The paper's search rejects a tactic whose resulting proof state was
//! already encountered in the search tree (§3). Proof states are compared
//! up to alpha-renaming of context variables, hypothesis names and bound
//! variables, so `intros x` and `intros y` lead to the same canonical key.

use std::sync::Arc;

use crate::formula::Formula;
use crate::goal::{Goal, ProofState};
use crate::sort::Sort;
use crate::term::{Pat, Term};

/// Scoped renaming from source names to canonical indices.
///
/// A binder pushes an entry and lookup scans backwards (so shadowing sees
/// the innermost binding); leaving a binder truncates back to a saved
/// mark. This replaces the previous `BTreeMap`-per-binder scheme — which
/// cloned the whole map at every quantifier and match arm — while
/// producing byte-identical keys.
#[derive(Default)]
struct Scope<'a> {
    entries: Vec<(&'a str, usize)>,
    next: usize,
}

impl<'a> Scope<'a> {
    fn bind(&mut self, name: &'a str) -> usize {
        let id = self.next;
        self.next += 1;
        self.entries.push((name, id));
        id
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, i)| i)
    }

    /// Marks the current binding depth; [`Scope::reset`] returns to it.
    fn mark(&self) -> (usize, usize) {
        (self.entries.len(), self.next)
    }

    fn reset(&mut self, mark: (usize, usize)) {
        self.entries.truncate(mark.0);
        self.next = mark.1;
    }
}

fn term_key_rec<'a>(t: &'a Term, scope: &mut Scope<'a>, out: &mut String) {
    match t {
        Term::Var(v) => match scope.lookup(v) {
            Some(i) => {
                out.push('v');
                out.push_str(&i.to_string());
            }
            None => {
                // Free variable not bound in this state; keep its name.
                out.push('f');
                out.push_str(v);
            }
        },
        Term::Meta(m) => {
            out.push('?');
            out.push_str(&m.to_string());
        }
        Term::App(f, args) => {
            out.push('(');
            out.push_str(f);
            for a in args {
                out.push(' ');
                term_key_rec(a, scope, out);
            }
            out.push(')');
        }
        Term::Match(scrut, arms) => {
            out.push_str("(match ");
            term_key_rec(scrut, scope, out);
            for (pat, rhs) in arms {
                out.push('|');
                let mark = scope.mark();
                pat_key(pat, scope, out);
                out.push_str("=>");
                term_key_rec(rhs, scope, out);
                scope.reset(mark);
            }
            out.push(')');
        }
    }
}

fn pat_key<'a>(pat: &'a Pat, scope: &mut Scope<'a>, out: &mut String) {
    match pat {
        Pat::Wild => out.push('_'),
        Pat::Var(v) => {
            let i = scope.bind(v);
            out.push('v');
            out.push_str(&i.to_string());
        }
        Pat::Ctor(c, vs) => {
            out.push_str(c);
            for v in vs {
                let i = scope.bind(v);
                out.push(' ');
                out.push('v');
                out.push_str(&i.to_string());
            }
        }
    }
}

fn sort_key(s: &Sort, out: &mut String) {
    out.push_str(&s.to_string());
}

fn formula_key_rec<'a>(f: &'a Formula, scope: &mut Scope<'a>, out: &mut String) {
    match f {
        Formula::True => out.push('T'),
        Formula::False => out.push('F'),
        Formula::Eq(s, a, b) => {
            out.push_str("(= ");
            sort_key(s, out);
            out.push(' ');
            term_key_rec(a, scope, out);
            out.push(' ');
            term_key_rec(b, scope, out);
            out.push(')');
        }
        Formula::Pred(p, sorts, args) => {
            out.push('(');
            out.push_str(p);
            for s in sorts {
                out.push('@');
                sort_key(s, out);
            }
            for a in args {
                out.push(' ');
                term_key_rec(a, scope, out);
            }
            out.push(')');
        }
        Formula::Not(g) => {
            out.push_str("(~ ");
            formula_key_rec(g, scope, out);
            out.push(')');
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            out.push('(');
            out.push_str(match f {
                Formula::And(..) => "&",
                Formula::Or(..) => "|",
                Formula::Implies(..) => ">",
                _ => "<>",
            });
            out.push(' ');
            formula_key_rec(a, scope, out);
            out.push(' ');
            formula_key_rec(b, scope, out);
            out.push(')');
        }
        Formula::Forall(v, s, body) | Formula::Exists(v, s, body) => {
            out.push('(');
            out.push_str(if matches!(f, Formula::Forall(..)) {
                "all"
            } else {
                "ex"
            });
            out.push(' ');
            sort_key(s, out);
            let mark = scope.mark();
            let i = scope.bind(v);
            out.push_str(&format!(" v{i} "));
            formula_key_rec(body, scope, out);
            scope.reset(mark);
            out.push(')');
        }
        Formula::ForallSort(v, body) => {
            // Sort variables are kept by name: they are rigid and rarely
            // shadowed; renaming them would require threading a sort scope.
            out.push_str("(allS ");
            out.push_str(v);
            out.push(' ');
            formula_key_rec(body, scope, out);
            out.push(')');
        }
        Formula::FMatch(scrut, arms) => {
            out.push_str("(fmatch ");
            term_key_rec(scrut, scope, out);
            for (pat, rhs) in arms {
                out.push('|');
                let mark = scope.mark();
                pat_key(pat, scope, out);
                out.push_str("=>");
                formula_key_rec(rhs, scope, out);
                scope.reset(mark);
            }
            out.push(')');
        }
    }
}

/// Canonical key for a function definition, alpha-invariant in its value
/// parameters and every binder of its body: renaming `(n m : nat)` to
/// `(a b : nat)` leaves the key unchanged, while any change to the
/// parameter sorts, result sort, recursion structure or body alters it.
/// Sort parameters are kept by name (the same convention as
/// [`Formula::ForallSort`] in [`formula_key`]). The defined symbol's own
/// name is *not* part of the key — callers map name → key themselves, so
/// a pure rename reads as a removal plus an addition, not a change.
pub fn func_def_key(f: &crate::env::FuncDef) -> String {
    let mut out = String::new();
    let mut scope = Scope::default();
    out.push_str("(fn");
    for sp in &f.sort_params {
        out.push_str(" S:");
        out.push_str(sp);
    }
    for (p, s) in &f.params {
        let i = scope.bind(p);
        out.push_str(&format!(" v{i}:"));
        sort_key(s, &mut out);
    }
    out.push_str(" ->");
    sort_key(&f.ret, &mut out);
    if f.recursive {
        out.push_str(" rec");
        if let Some(k) = f.struct_arg {
            out.push_str(&format!("@{k}"));
        }
    }
    out.push(' ');
    term_key_rec(&f.body, &mut scope, &mut out);
    out.push(')');
    out
}

/// Canonical key for a formula-defined predicate; the parameter-binding
/// conventions of [`func_def_key`] apply.
pub fn defined_pred_key(d: &crate::env::DefinedPred) -> String {
    let mut out = String::new();
    let mut scope = Scope::default();
    out.push_str("(pred");
    for sp in &d.sort_params {
        out.push_str(" S:");
        out.push_str(sp);
    }
    for (p, s) in &d.params {
        let i = scope.bind(p);
        out.push_str(&format!(" v{i}:"));
        sort_key(s, &mut out);
    }
    if d.recursive {
        out.push_str(" rec");
        if let Some(k) = d.struct_arg {
            out.push_str(&format!("@{k}"));
        }
    }
    out.push(' ');
    formula_key_rec(&d.body, &mut scope, &mut out);
    out.push(')');
    out
}

/// Canonical key for an inductive datatype: sort parameters by name,
/// then each constructor's name and argument sorts in declaration order.
/// Constructor names are global identifiers (they appear in patterns and
/// terms), so they stay in the key.
pub fn inductive_key(ind: &crate::env::Inductive) -> String {
    let mut out = String::new();
    out.push_str("(ind");
    for p in &ind.params {
        out.push_str(" S:");
        out.push_str(p);
    }
    for c in &ind.ctors {
        out.push_str(" |");
        out.push_str(&c.name);
        for s in &c.args {
            out.push(' ');
            sort_key(s, &mut out);
        }
    }
    out.push(')');
    out
}

/// Canonical key for an inductively defined predicate: argument sorts,
/// then each rule's name and alpha-canonical statement in declaration
/// order. Rule names stay (they are `apply` targets).
pub fn ind_pred_key(p: &crate::env::IndPred) -> String {
    let mut out = String::new();
    out.push_str("(indp");
    for sp in &p.sort_params {
        out.push_str(" S:");
        out.push_str(sp);
    }
    for s in &p.arg_sorts {
        out.push(' ');
        sort_key(s, &mut out);
    }
    for (rn, stmt) in &p.rules {
        out.push_str(" |");
        out.push_str(rn);
        out.push(' ');
        out.push_str(&formula_key(stmt));
    }
    out.push(')');
    out
}

/// Canonical key for a term (free variables keep their names).
pub fn term_key(t: &Term) -> String {
    let mut out = String::new();
    term_key_rec(t, &mut Scope::default(), &mut out);
    out
}

/// Canonical key for a formula (free variables keep their names; bound
/// variables are numbered).
pub fn formula_key(f: &Formula) -> String {
    let mut out = String::new();
    formula_key_rec(f, &mut Scope::default(), &mut out);
    out
}

/// Canonical key for a goal: context variables and hypothesis formulas are
/// numbered in order of appearance; hypothesis *names* do not contribute.
pub fn goal_key(g: &Goal) -> String {
    let mut out = String::new();
    let mut scope = Scope::default();
    for sv in &g.sort_vars {
        out.push_str("S:");
        out.push_str(sv);
        out.push(';');
    }
    for (v, s) in &g.vars {
        let i = scope.bind(v);
        out.push_str(&format!("v{i}:"));
        sort_key(s, &mut out);
        out.push(';');
    }
    // Hypotheses are order-sensitive but name-insensitive.
    for (_, f) in &g.hyps {
        out.push_str("H:");
        formula_key_rec(f, &mut scope, &mut out);
        out.push(';');
    }
    out.push_str("|-");
    formula_key_rec(&g.concl, &mut scope, &mut out);
    out
}

/// Canonical key for a proof state.
pub fn state_key(st: &ProofState) -> String {
    let mut out = String::new();
    for g in &st.goals {
        out.push_str(&goal_key(g));
        out.push('\n');
    }
    out
}

/// A proof state's identity for duplicate detection: the canonical key of
/// each goal, in goal order. Two states are alpha-equal iff their stamps
/// are equal, and the keys, each followed by `'\n'`, concatenate to
/// [`state_key`].
pub fn state_stamp(st: &ProofState) -> Vec<Arc<str>> {
    st.goals.iter().map(|g| Arc::from(goal_key(g))).collect()
}

/// Stamps a state incrementally against its parent: trailing goals that
/// are *pointer-identical* to the parent's trailing goals (the unfocused
/// tail a tactic did not touch) reuse the parent's keys; only fresh goals
/// are canonicalized.
pub fn state_stamp_from_parent(
    st: &ProofState,
    parent: &ProofState,
    parent_stamp: &[Arc<str>],
) -> Vec<Arc<str>> {
    let shared = st
        .goals
        .iter()
        .rev()
        .zip(parent.goals.iter().rev())
        .take_while(|(a, b)| Arc::ptr_eq(a, b))
        .count();
    let fresh = st.goals.len() - shared;
    let mut stamp: Vec<Arc<str>> = st.goals[..fresh]
        .iter()
        .map(|g| Arc::from(goal_key(g)))
        .collect();
    stamp.extend_from_slice(&parent_stamp[parent_stamp.len() - shared..]);
    stamp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    fn eq_goal(v: &str) -> Goal {
        let mut g = Goal::new(Formula::Eq(Sort::nat(), Term::var(v), Term::var(v)));
        g.vars.push((v.to_string(), Sort::nat()));
        g
    }

    #[test]
    fn alpha_renamed_goals_collide() {
        let a = eq_goal("x");
        let b = eq_goal("y");
        assert_eq!(goal_key(&a), goal_key(&b));
    }

    #[test]
    fn hypothesis_names_ignored() {
        let mut a = eq_goal("x");
        a.hyps.push(("H".into(), Formula::True));
        let mut b = eq_goal("x");
        b.hyps.push(("Hfoo".into(), Formula::True));
        assert_eq!(goal_key(&a), goal_key(&b));
    }

    #[test]
    fn different_conclusions_differ() {
        let a = eq_goal("x");
        let mut b = eq_goal("x");
        b.concl = Formula::True;
        assert_ne!(goal_key(&a), goal_key(&b));
    }

    #[test]
    fn quantifier_alpha_equivalence() {
        let f1 = Formula::forall(
            "x",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("x"), Term::var("x")),
        );
        let f2 = Formula::forall(
            "z",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("z"), Term::var("z")),
        );
        assert_eq!(formula_key(&f1), formula_key(&f2));
    }

    #[test]
    fn incremental_stamp_agrees_with_full_stamp() {
        let parent = ProofState::from_goals(vec![
            eq_goal("x"),
            Goal::new(Formula::True),
            Goal::new(Formula::False),
        ]);
        let pstamp = state_stamp(&parent);
        let child = parent.replace_focused(vec![eq_goal("y"), Goal::new(Formula::True)]);
        let inc = state_stamp_from_parent(&child, &parent, &pstamp);
        assert_eq!(inc, state_stamp(&child));
        // The untouched tail reuses the parent's keys rather than new ones.
        assert!(Arc::ptr_eq(&inc[2], &pstamp[1]));
        assert!(Arc::ptr_eq(&inc[3], &pstamp[2]));
    }

    fn id_fn(param: &str) -> crate::env::FuncDef {
        crate::env::FuncDef {
            name: "idnat".into(),
            sort_params: vec![],
            params: vec![(param.to_string(), Sort::nat())],
            ret: Sort::nat(),
            body: Term::var(param),
            recursive: false,
            struct_arg: None,
        }
    }

    #[test]
    fn func_def_key_is_alpha_invariant_in_params() {
        assert_eq!(func_def_key(&id_fn("n")), func_def_key(&id_fn("x")));
    }

    #[test]
    fn func_def_key_sees_body_and_structure_changes() {
        let base = id_fn("n");
        let mut zero = base.clone();
        zero.body = Term::App("O".into(), vec![]);
        assert_ne!(func_def_key(&base), func_def_key(&zero));
        let mut rec = base.clone();
        rec.recursive = true;
        rec.struct_arg = Some(0);
        assert_ne!(func_def_key(&base), func_def_key(&rec));
        let mut name_only = base.clone();
        name_only.name = "other".into();
        assert_eq!(func_def_key(&base), func_def_key(&name_only));
    }

    #[test]
    fn defined_pred_key_is_alpha_invariant_in_params() {
        let pred = |v: &str| crate::env::DefinedPred {
            name: "isz".into(),
            sort_params: vec![],
            params: vec![(v.to_string(), Sort::nat())],
            body: Formula::Eq(Sort::nat(), Term::var(v), Term::App("O".into(), vec![])),
            recursive: false,
            struct_arg: None,
        };
        assert_eq!(defined_pred_key(&pred("n")), defined_pred_key(&pred("m")));
    }

    #[test]
    fn inductive_key_sees_ctor_changes() {
        let ind = |args: Vec<Sort>| crate::env::Inductive {
            name: "t".into(),
            params: vec![],
            ctors: vec![crate::env::Ctor {
                name: "mk".into(),
                args,
            }],
        };
        assert_eq!(inductive_key(&ind(vec![])), inductive_key(&ind(vec![])));
        assert_ne!(
            inductive_key(&ind(vec![])),
            inductive_key(&ind(vec![Sort::nat()]))
        );
    }

    #[test]
    fn ind_pred_key_is_alpha_invariant_in_rule_binders() {
        let ip = |v: &str| crate::env::IndPred {
            name: "ev".into(),
            sort_params: vec![],
            arg_sorts: vec![Sort::nat()],
            rules: vec![(
                "ev_refl".into(),
                Formula::forall(
                    v,
                    Sort::nat(),
                    Formula::Pred("ev".into(), vec![], vec![Term::var(v)]),
                ),
            )],
        };
        assert_eq!(ind_pred_key(&ip("n")), ind_pred_key(&ip("k")));
    }
}

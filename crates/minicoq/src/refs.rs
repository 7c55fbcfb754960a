//! The declared names a sort, term or formula references, and the static
//! facts ranking reads off a lemma statement.
//!
//! [`LemmaFacts`] and [`MatchFacts`] are computed on first use and cached
//! in the lemma itself ([`crate::env::Lemma::facts`],
//! [`crate::env::Lemma::match_facts`]). Lemmas are `Arc`-shared by every
//! later environment snapshot, so a corpus computes each lemma's facts at
//! most once, and only when something reads them.

use std::collections::BTreeSet;

use proof_trace::envelope::fnv1a;

use crate::env::Env;
use crate::formula::Formula;
use crate::sort::Sort;
use crate::term::{Pat, Term};
use crate::walk::Node;
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
    node_names(Node::Term(t), visit);
}

/// Calls `visit` on every declared name a formula references.
pub fn formula_names<'a>(f: &'a Formula, visit: &mut impl FnMut(&'a str)) {
    node_names(Node::Formula(f), visit);
}

/// The names of [`term_names`] and [`formula_names`], in pre-order: a
/// node's own names (predicate, sorts, function, constructor pattern)
/// before those below it.
fn node_names<'a>(n: Node<'a>, visit: &mut impl FnMut(&'a str)) {
    n.for_each(|n| match n {
        Node::Formula(Formula::Eq(s, ..) | Formula::Forall(_, s, _) | Formula::Exists(_, s, _)) => {
            sort_names(s, visit)
        }
        Node::Formula(Formula::Pred(p, sorts, _)) => {
            visit(p);
            for s in sorts {
                sort_names(s, visit);
            }
        }
        Node::Term(Term::App(f, _)) | Node::Pat(Pat::Ctor(f, _)) => visit(f),
        _ => {}
    });
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

/// The goal-independent features a goal matcher reads off a lemma
/// statement: the simulated oracle compares them with the focused goal's
/// [`head_feature`] to propose `apply`, `eapply` and `rewrite` with the
/// lemma.
#[derive(Debug, Clone)]
pub struct MatchFacts {
    /// [`head_feature`] of the peeled conclusion: its kind and symbols.
    pub head: (String, Vec<String>),
    /// The statement has binders and premises, so `eapply` also fits it.
    pub eapply: bool,
    /// For an equational conclusion: the function heads of its two sides.
    pub eq_heads: Option<(Vec<String>, Vec<String>)>,
    /// Head feature kind of the first premise (forward application).
    pub first_premise_head: Option<String>,
}

impl MatchFacts {
    /// Computes the features of `stmt`, reading constructors from `env`.
    pub(crate) fn of(env: &Env, stmt: &Formula) -> MatchFacts {
        let peeled = stmt.peel();
        let eq_heads = if let Formula::Eq(_, l, r) = peeled.conclusion {
            let mut lh = Vec::new();
            collect_heads(env, l, &mut lh);
            let mut rh = Vec::new();
            collect_heads(env, r, &mut rh);
            Some((lh, rh))
        } else {
            None
        };
        MatchFacts {
            head: head_feature(env, peeled.conclusion),
            eapply: !peeled.binders.is_empty() && !peeled.premises.is_empty(),
            eq_heads,
            first_premise_head: peeled.premises.first().map(|p| head_feature(env, p).0),
        }
    }
}

/// The head feature of a formula: what kind of goal it is (`eq`,
/// `pred:<name>`, `and`, ...), and the function symbols that help match
/// lemmas against it.
pub fn head_feature(env: &Env, f: &Formula) -> (String, Vec<String>) {
    match f {
        Formula::Eq(_, a, b) => {
            let mut syms = Vec::new();
            collect_heads(env, a, &mut syms);
            collect_heads(env, b, &mut syms);
            ("eq".into(), syms)
        }
        Formula::Pred(p, _, args) => {
            let mut syms = vec![p.clone()];
            for a in args {
                collect_heads(env, a, &mut syms);
            }
            (format!("pred:{p}"), syms)
        }
        Formula::And(..) => ("and".into(), vec![]),
        Formula::Or(..) => ("or".into(), vec![]),
        Formula::Iff(..) => ("iff".into(), vec![]),
        Formula::Not(..) => ("not".into(), vec![]),
        Formula::Implies(..) | Formula::Forall(..) | Formula::ForallSort(..) => {
            ("arrow".into(), vec![])
        }
        Formula::Exists(..) => ("exists".into(), vec![]),
        Formula::True => ("true".into(), vec![]),
        Formula::False => ("false".into(), vec![]),
        Formula::FMatch(..) => ("match".into(), vec![]),
    }
}

/// Collects the function symbols heading `t` and its first three
/// arguments, recursively, each once. Constructors (O, S, cons, ...)
/// appear everywhere and would make every lemma look relevant, so they
/// are skipped.
fn collect_heads(env: &Env, t: &Term, out: &mut Vec<String>) {
    match t {
        Term::Var(_) | Term::Meta(_) => {}
        Term::App(f, args) => {
            if !env.ctors.contains_key(f) && !out.contains(f) {
                out.push(f.clone());
            }
            for a in args.iter().take(3) {
                collect_heads(env, a, out);
            }
        }
        Term::Match(scrut, _) => collect_heads(env, scrut, out),
    }
}

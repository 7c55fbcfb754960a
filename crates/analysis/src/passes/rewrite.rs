//! Rewrite-orientation lint: detect equational lemma pairs that are exact
//! reverses of each other.
//!
//! When both `l = r` and `r = l` (up to renaming of their universally
//! quantified variables) are registered, a rewriting loop can ping-pong
//! between the two forever; only one orientation should exist, with the
//! other derived by `symmetry` at use sites. Detection canonicalizes each
//! unconditional equation by renaming term and sort variables in first-
//! occurrence order, then matches one lemma's forward key against
//! another's reversed key. A lemma that is its *own* reverse (e.g.
//! commutativity, `x + y = y + x`) is deliberately skipped: that shape is
//! standard and loop-avoidance is the rewriter's job, not the corpus's.

use std::collections::BTreeMap;

use minicoq::env::Env;
use minicoq::formula::Formula;
use minicoq::sort::Sort;
use minicoq::term::Term;
use minicoq::Ident;

use crate::graph::DepGraph;
use crate::report::{Code, Finding};

use super::strip_quantifiers;

/// Variable-renaming state shared across the two sides of one key.
#[derive(Default)]
struct Canon {
    terms: BTreeMap<String, Ident>,
    sorts: BTreeMap<String, Ident>,
}

impl Canon {
    fn term_var(&mut self, v: &str) -> Ident {
        let n = self.terms.len();
        self.terms
            .entry(v.to_string())
            .or_insert_with(|| format!("v{n}").into())
            .clone()
    }

    fn sort_var(&mut self, v: &str) -> Ident {
        let n = self.sorts.len();
        self.sorts
            .entry(v.to_string())
            .or_insert_with(|| format!("s{n}").into())
            .clone()
    }

    fn sort(&mut self, s: &Sort) -> Sort {
        match s {
            Sort::Atom(n) => Sort::Atom(n.clone()),
            Sort::Var(v) => Sort::Var(self.sort_var(v)),
            Sort::Meta(m) => Sort::Meta(*m),
            Sort::App(n, args) => Sort::App(n.clone(), args.iter().map(|a| self.sort(a)).collect()),
        }
    }

    fn term(&mut self, t: &Term) -> Term {
        match t {
            Term::Var(v) => Term::Var(self.term_var(v)),
            Term::Meta(m) => Term::Meta(*m),
            Term::App(f, args) => Term::App(f.clone(), args.iter().map(|a| self.term(a)).collect()),
            // `match` on the rewrite side is rare; keep it opaque rather
            // than canonicalizing pattern binders.
            Term::Match(..) => t.clone(),
        }
    }
}

/// Canonical key of the equation `l = r : s`, renaming variables in
/// first-occurrence order of the (sort, l, r) traversal.
fn eq_key(sort: &Sort, l: &Term, r: &Term) -> String {
    let mut c = Canon::default();
    let s = c.sort(sort);
    let cl = c.term(l);
    let cr = c.term(r);
    format!("{s:?} |- {cl:?} = {cr:?}")
}

/// Runs the rewrite-orientation lint over every unconditional equational
/// lemma of `env`.
pub fn run(env: &Env, graph: &DepGraph, out: &mut Vec<Finding>) {
    let _sp = proof_trace::span("analysis", "rewrite");
    // name -> (forward key, reverse key), in declaration order.
    let mut keys: Vec<(&str, String, String)> = Vec::new();
    for lemma in env.lemmas.iter() {
        if let Formula::Eq(s, l, r) = strip_quantifiers(&lemma.stmt) {
            keys.push((lemma.name.as_str(), eq_key(s, l, r), eq_key(s, r, l)));
        }
    }
    let by_fwd: BTreeMap<&str, &str> = keys.iter().map(|(n, f, _)| (f.as_str(), *n)).collect();
    for (name, fwd, rev) in &keys {
        // Skip self-reverse shapes (commutativity, `x + y = y + x`) by
        // key, not by name: a copy of a self-reverse equation in another
        // module is a duplicate, not an opposite orientation.
        if fwd == rev {
            continue;
        }
        let Some(&other) = by_fwd.get(rev.as_str()) else {
            continue;
        };
        // Report each pair once, from its lexicographically first member.
        if other == *name || *name > other {
            continue;
        }
        let (file, item_index, line) = graph
            .lookup(name)
            .map(|id| {
                let sym = graph.symbol(id);
                (sym.file.clone(), sym.item_index, sym.line)
            })
            .unwrap_or_else(|| (String::new(), 0, 0));
        out.push(Finding {
            code: Code::RewritePingPong,
            file,
            item: name.to_string(),
            item_index,
            line,
            message: format!(
                "equational lemmas `{name}` and `{other}` are exact reverses: rewriting with \
                 both can ping-pong forever; keep one orientation"
            ),
        });
    }
}

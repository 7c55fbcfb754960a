//! Hint-loop detection: an abstract backchaining graph per hint database.
//!
//! `auto`/`eauto` backchain: to prove a goal with head `P`, they apply a
//! hint whose conclusion unifies with the goal and recurse into its
//! premises. Model that as a graph over *head symbols* — one edge
//! `conclusion-head -> premise-head` per (hint, premise atom) — and
//! classify each edge as *decreasing* when every instantiation makes the
//! premise strictly smaller than the conclusion: the premise's total
//! argument size is strictly below the conclusion's, and no variable
//! occurs more often in the premise than in the conclusion (so no
//! substitution can grow it past the conclusion). Backchaining along
//! decreasing edges always terminates; a cycle containing any
//! non-decreasing edge can resubmit a goal at least as large as the one
//! being proved, which only the fuel budget stops. One finding is emitted
//! per such cycle (strongly connected component), naming the offending
//! hints.

use std::collections::{BTreeMap, BTreeSet};

use minicoq::env::Env;
use minicoq::formula::Formula;
use minicoq::term::Term;

use crate::graph::DepGraph;
use crate::report::{Code, Finding};

use super::premises_and_conclusion;

/// Head symbol of an atomic formula; equalities all share the `=` head.
fn head_of(f: &Formula) -> Option<(&str, Vec<&Term>)> {
    match f {
        Formula::Pred(p, _, args) => Some((p.as_str(), args.iter().collect())),
        Formula::Eq(_, a, b) => Some(("=", vec![a, b])),
        _ => None,
    }
}

/// Collects the atomic sub-formulas of a premise (the goals backchaining
/// may recurse into). Conjunctions, disjunctions and nested implications
/// are all walked: an atom anywhere inside the premise can become a
/// subgoal after destruction.
fn premise_atoms<'a>(f: &'a Formula, out: &mut Vec<(&'a str, Vec<&'a Term>)>) {
    match f {
        Formula::Pred(..) | Formula::Eq(..) => {
            if let Some(h) = head_of(f) {
                out.push(h);
            }
        }
        Formula::True | Formula::False => {}
        Formula::Not(a) => premise_atoms(a, out),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            premise_atoms(a, out);
            premise_atoms(b, out);
        }
        Formula::Forall(_, _, b) | Formula::Exists(_, _, b) | Formula::ForallSort(_, b) => {
            premise_atoms(b, out)
        }
        Formula::FMatch(_, arms) => {
            for (_, rhs) in arms {
                premise_atoms(rhs, out);
            }
        }
    }
}

fn term_size(t: &Term) -> usize {
    match t {
        Term::Var(_) | Term::Meta(_) => 1,
        Term::App(_, args) => 1 + args.iter().map(term_size).sum::<usize>(),
        Term::Match(s, arms) => {
            1 + term_size(s) + arms.iter().map(|(_, r)| term_size(r)).sum::<usize>()
        }
    }
}

fn var_counts<'a>(args: &[&'a Term], out: &mut BTreeMap<&'a str, usize>) {
    for t in args {
        match t {
            Term::Var(v) => *out.entry(v.as_str()).or_insert(0) += 1,
            Term::Meta(_) => {}
            Term::App(_, inner) => {
                let inner: Vec<&Term> = inner.iter().collect();
                var_counts(&inner, out);
            }
            Term::Match(s, arms) => {
                var_counts(&[s.as_ref()], out);
                let rhs: Vec<&Term> = arms.iter().map(|(_, r)| r).collect();
                var_counts(&rhs, out);
            }
        }
    }
}

/// True when backchaining from the conclusion to this premise strictly
/// shrinks the goal under every substitution.
fn decreasing(prem_args: &[&Term], concl_args: &[&Term]) -> bool {
    let psize: usize = prem_args.iter().map(|t| term_size(t)).sum();
    let csize: usize = concl_args.iter().map(|t| term_size(t)).sum();
    if psize >= csize {
        return false;
    }
    let mut pc = BTreeMap::new();
    let mut cc = BTreeMap::new();
    var_counts(prem_args, &mut pc);
    var_counts(concl_args, &mut cc);
    pc.iter()
        .all(|(v, n)| cc.get(v).copied().unwrap_or(0) >= *n)
}

/// One abstract backchaining edge.
struct Edge {
    from: String,
    to: String,
    hint: String,
    decreasing: bool,
}

/// Runs hint-loop detection over every hint database of `env`.
pub fn run(env: &Env, graph: &DepGraph, out: &mut Vec<Finding>) {
    let _sp = proof_trace::span("analysis", "hints");
    for (db, hints) in env.hints.iter() {
        let mut edges: Vec<Edge> = Vec::new();
        let mut nodes: BTreeSet<String> = BTreeSet::new();
        for hint in hints {
            let Some(rule) = env.rule_or_lemma(hint) else {
                continue; // unresolved hints are the graph layer's finding
            };
            let (premises, conclusion) = premises_and_conclusion(&rule.stmt);
            let Some((chead, cargs)) = head_of(conclusion) else {
                continue; // auto cannot backchain on a non-atomic conclusion
            };
            nodes.insert(chead.to_string());
            for p in premises {
                let mut atoms = Vec::new();
                premise_atoms(p, &mut atoms);
                for (phead, pargs) in atoms {
                    nodes.insert(phead.to_string());
                    edges.push(Edge {
                        from: chead.to_string(),
                        to: phead.to_string(),
                        hint: hint.to_string(),
                        decreasing: decreasing(&pargs, &cargs),
                    });
                }
            }
        }
        report_cycles(db, &nodes, &edges, graph, out);
    }
}

/// Finds strongly connected components of the backchaining graph and
/// emits one [`Code::HintLoop`] finding per cyclic component containing a
/// non-decreasing edge.
fn report_cycles(
    db: &str,
    nodes: &BTreeSet<String>,
    edges: &[Edge],
    graph: &DepGraph,
    out: &mut Vec<Finding>,
) {
    let index: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let n = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        adj[index[e.from.as_str()]].push(index[e.to.as_str()]);
    }
    let scc = scc_ids(n, &adj);
    let mut scc_sizes: BTreeMap<usize, usize> = BTreeMap::new();
    for &c in &scc {
        *scc_sizes.entry(c).or_insert(0) += 1;
    }
    // Group offending (non-decreasing, intra-component, cyclic) edges per
    // component.
    let mut offending: BTreeMap<usize, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        let (f, t) = (index[e.from.as_str()], index[e.to.as_str()]);
        if scc[f] != scc[t] || e.decreasing {
            continue;
        }
        let cyclic = f == t || scc_sizes[&scc[f]] > 1;
        if cyclic {
            offending.entry(scc[f]).or_default().push(e);
        }
    }
    for (_, comp_edges) in offending {
        let mut hints: Vec<&str> = comp_edges.iter().map(|e| e.hint.as_str()).collect();
        hints.sort_unstable();
        hints.dedup();
        let mut heads: Vec<&str> = comp_edges
            .iter()
            .flat_map(|e| [e.from.as_str(), e.to.as_str()])
            .collect();
        heads.sort_unstable();
        heads.dedup();
        // Anchor the finding at the first offending hint's declaration.
        let (file, item_index, line) = hints
            .first()
            .and_then(|h| graph.lookup(h))
            .map(|id| {
                let sym = graph.symbol(id);
                (sym.file.clone(), sym.item_index, sym.line)
            })
            .unwrap_or_else(|| (String::new(), 0, 0));
        out.push(Finding {
            code: Code::HintLoop,
            file,
            item: hints.first().unwrap_or(&"").to_string(),
            item_index,
            line,
            message: format!(
                "hint db `{db}`: backchaining cycle over {{{}}} via non-decreasing hint(s) {} \
                 — auto/eauto can diverge until fuel runs out",
                heads.join(", "),
                hints.join(", "),
            ),
        });
    }
}

/// Kosaraju strongly-connected components; returns a component id per node.
fn scc_ids(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        seen[start] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v].len() {
                let next = adj[v][*i];
                *i += 1;
                if !seen[next] {
                    seen[next] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, outs) in adj.iter().enumerate() {
        for &w in outs {
            radj[w].push(v);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut c = 0;
    for &v in order.iter().rev() {
        if comp[v] != usize::MAX {
            continue;
        }
        let mut stack = vec![v];
        comp[v] = c;
        while let Some(x) = stack.pop() {
            for &w in &radj[x] {
                if comp[w] == usize::MAX {
                    comp[w] = c;
                    stack.push(w);
                }
            }
        }
        c += 1;
    }
    comp
}

//! Graph-guided premise ranking for the proof searcher.
//!
//! Hints close to the goal in the dependency graph are more likely to
//! advance it, so the searcher can ask for a goal-specific reordering of
//! every hint database: hints are sorted by the length of the shortest
//! undirected reference path between the goal's symbols and the hint's
//! target, with declaration order as the tie-break. The reordering is a
//! *permutation only* — no hint is added or dropped — so any proof found
//! with ranking replays without it.
//!
//! The distances come from [`FeatureCtx`]'s reference graph, built from
//! the [`Env`] alone (statements, rules, and bodies), not from
//! [`crate::graph::DepGraph`], because the searcher holds an environment
//! snapshot, not a loaded development.

use std::sync::Arc;

use minicoq::env::Env;
use minicoq::formula::Formula;

use crate::features::{FeatureCtx, GoalCtx};
use crate::score::RankCtx;

/// A copy of `env` with every hint database stably sorted by `key`
/// (declaration order breaks ties). Only the database vectors are new;
/// their names are the original `Arc`s.
fn permuted_hints<K: Ord>(env: &Env, key: impl Fn(&str) -> K) -> Env {
    let mut hints = (*env.hints).clone();
    for db in hints.values_mut() {
        let mut keyed: Vec<(K, usize)> = db.iter().enumerate().map(|(i, h)| (key(h), i)).collect();
        keyed.sort();
        *db = keyed.into_iter().map(|(_, i)| Arc::clone(&db[i])).collect();
    }
    let mut out = env.clone();
    out.hints = Arc::new(hints);
    out
}

/// Returns an environment identical to `env` except that every hint
/// database is stably reordered by dependency distance to `goal`
/// (closest first; unreachable hints keep their relative order at the
/// end). The hint *sets* are unchanged.
pub fn reranked_env(env: &Env, goal: &Formula) -> Env {
    let _sp = proof_trace::span("analysis", "premise_rank");
    let fcx = FeatureCtx::new(env);
    let gcx = GoalCtx::new(&fcx, goal);
    let out = permuted_hints(env, |h| gcx.distance(&fcx, h).unwrap_or(usize::MAX));
    proof_trace::metrics::counter_inc("analysis.premise_rank.reranks");
    out
}

/// How hint databases (and, for `Learned`, oracle proposal order) are
/// reranked. `Off` is represented by not calling into this module at
/// all, so the default search path stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankMode {
    /// PR 5 baseline: sort by undirected dependency distance to the goal.
    Graph,
    /// Sort by the installed [`crate::score::Model`]'s learned score;
    /// falls back to `Graph` when no model is installed.
    Learned,
}

/// The learned rerank against a ranking context the caller already
/// built: every hint database sorted by descending learned score, with
/// declaration order as the tie-break. A searcher that scores proposals
/// with `rcx` too builds the context once, not once per use.
pub fn reranked_env_learned(env: &Env, rcx: &RankCtx<'_>) -> Env {
    let _sp = proof_trace::span("analysis", "premise_rank_learned");
    let out = permuted_hints(env, |h| -rcx.score_premise(h));
    proof_trace::metrics::counter_inc("analysis.premise_rank.learned_reranks");
    out
}

/// [`reranked_env`] v2: the `Graph` arm is the original distance sort;
/// the `Learned` arm is [`reranked_env_learned`] over a fresh
/// [`RankCtx`]. Both are permutations only — hint *sets* are unchanged,
/// so any proof found with ranking replays without it.
pub fn reranked_env_v2(env: &Env, goal: &Formula, mode: RankMode) -> Env {
    let rcx = match mode {
        RankMode::Graph => None,
        RankMode::Learned => RankCtx::new(env, goal),
    };
    match rcx {
        Some(rcx) => reranked_env_learned(env, &rcx),
        None => reranked_env(env, goal),
    }
}

//! Incremental re-verification: dirty-cone evaluation plus baseline merge.
//!
//! The flow mirrors what an always-on verification server does when the
//! corpus is edited:
//!
//! 1. load the *edited* corpus (elaboration only, no proof replay) and
//!    build its dependency graph;
//! 2. diff the baseline [`Snapshot`] against it
//!    ([`corpus_analysis::diff_and_cone`]) to get the dirty cone;
//! 3. re-verify only the dirty theorems (on the same work-stealing pool
//!    full runs use, so the schedule-independence invariants carry over),
//!    consulting a **cone-keyed** per-theorem cache first: entries key on
//!    `<cell key>:<cone fingerprint>`, where the cone fingerprint covers
//!    everything on the corpus side that can influence one theorem's
//!    outcome ([`corpus_analysis::cone_fingerprint`]) — so an edit to
//!    module X never invalidates cached results whose cones exclude X;
//! 4. serve every clean theorem from the baseline `CellResult` and
//!    assemble the merged cell in eval order.
//!
//! Soundness rests on the dirty cone being conservative (see
//! `corpus_analysis::impact`); the property tests in
//! `tests/incremental_tests.rs` check the merged result is byte-identical
//! to a full cold re-run of the edited corpus, including under injected
//! oracle faults. When the theorem *set* changed, the deterministic
//! hint/eval splits reshuffle and the run falls back to a full
//! re-verification ([`IncrementalOutcome::fallback_full`]).

use std::collections::BTreeMap;
use std::path::PathBuf;

use corpus_analysis::{
    cone_fingerprint_in, diff_and_cone, load_sources, ConeIndex, DepGraph, ImpactReport, Snapshot,
};
use fscq_corpus::Corpus;

use crate::experiment::{finish_cell, CellConfig, CellResult, TheoremOutcome};
use crate::runner::{cell_cache_key, replay_proved, store_envelope, Runner};

/// What an incremental run did, alongside the merged result.
pub struct IncrementalOutcome {
    /// The merged cell result, in eval order — byte-identical (as JSON)
    /// to a full cold run of the same cell on the edited corpus.
    pub result: CellResult,
    /// Names of the theorems actually re-verified on the pool.
    pub reverified: Vec<String>,
    /// Dirty theorems served from the cone-keyed cache instead.
    pub cone_cache_hits: usize,
    /// Clean theorems served from the baseline result.
    pub served_baseline: usize,
    /// True when the theorem set changed and the run fell back to a full
    /// re-verification.
    pub fallback_full: bool,
    /// The impact report the dirty set came from.
    pub impact: ImpactReport,
}

/// Loads an edited corpus (no proof replay — incremental verification is
/// exactly the workflow where human proofs may be stale) and builds its
/// dependency graph.
pub fn load_edited(sources: &[(String, String)]) -> Result<(Corpus, DepGraph), String> {
    let dev = load_sources(sources)?;
    let graph = DepGraph::build(&dev);
    Ok((Corpus { dev }, graph))
}

/// Runs `cell` incrementally against `sources` (the edited corpus) on
/// `runner`, re-verifying only the dirty cone of the edit between
/// `baseline_snapshot` and the edited corpus, and merging `baseline`
/// outcomes for the clean remainder. With `baseline: None` every eval
/// theorem is re-verified (still through the cone-keyed cache, which
/// lives in the `cones` subdirectory of the runner's cache directory, is
/// off when the runner's cache is, and is only written by a fresh one).
///
/// The baseline must come from the same cell as `cell`: merging
/// outcomes across cells (a different `--model` or `--vanilla` than the
/// saved baseline) would silently mix two incomparable runs, so a
/// label/setting/variant mismatch is an error rather than a fallback.
pub fn run_incremental(
    runner: &Runner,
    cell: &CellConfig,
    baseline: Option<&CellResult>,
    baseline_snapshot: &Snapshot,
    sources: &[(String, String)],
) -> Result<IncrementalOutcome, String> {
    let _sp = proof_trace::span("metrics", "incremental");
    if let Some(b) = baseline {
        let want = finish_cell(cell, Vec::new());
        if (b.label.as_str(), b.setting.as_str(), b.variant.as_str())
            != (
                want.label.as_str(),
                want.setting.as_str(),
                want.variant.as_str(),
            )
        {
            return Err(format!(
                "baseline cell `{}` (setting `{}`) does not match the requested cell `{}` \
                 (setting `{}`): outcomes from different cells cannot be merged — re-save \
                 the baseline or pass matching cell flags",
                b.label, b.setting, want.label, want.setting
            ));
        }
    }
    let (corpus, graph) = load_edited(sources)?;
    let impact = diff_and_cone(baseline_snapshot, &corpus.dev, &graph);
    let by_name: BTreeMap<&str, &TheoremOutcome> = baseline
        .map(|b| b.outcomes.iter().map(|o| (o.name.as_str(), o)).collect())
        .unwrap_or_default();
    let fallback_full = baseline.is_none() || impact.theorem_set_changed;

    let indices = cell.eval_indices(&corpus.dev);
    let cell_key = cell_cache_key(cell);
    // The snapshot capture and collision scan behind cone fingerprints
    // are O(corpus): build the index once, not once per dirty theorem.
    let cone_dir = runner.cone_cache_dir();
    let cone_ix = cone_dir
        .as_ref()
        .map(|_| ConeIndex::build(&corpus.dev, &graph));
    let mut slots: Vec<Option<TheoremOutcome>> = vec![None; indices.len()];
    let mut to_eval: Vec<usize> = Vec::new(); // positions into `indices`
    let mut eval_keys: Vec<Option<PathBuf>> = Vec::new();
    let mut reverified = Vec::new();
    let mut cone_cache_hits = 0usize;
    let mut served_baseline = 0usize;
    for (k, &i) in indices.iter().enumerate() {
        let name = corpus.dev.theorems[i].name.clone();
        let dirty = fallback_full
            || impact.dirty.contains_key(&name)
            || !by_name.contains_key(name.as_str());
        if !dirty {
            slots[k] = Some((*by_name[name.as_str()]).clone());
            served_baseline += 1;
            continue;
        }
        // Dirty: consult the cone-keyed cache before paying for a search.
        let cache_path = cone_dir
            .as_ref()
            .zip(cone_ix.as_ref())
            .and_then(|(dir, ix)| {
                cone_fingerprint_in(ix, &corpus.dev, &graph, &name)
                    .map(|cone| dir.join(format!("{cell_key}-{cone}.json")))
            });
        if let Some(hit) = runner.load::<TheoremOutcome>(cache_path.as_deref()) {
            slots[k] = Some(hit);
            cone_cache_hits += 1;
            continue;
        }
        to_eval.push(k);
        eval_keys.push(cache_path);
        reverified.push(name);
    }

    if !to_eval.is_empty() {
        let eval_indices: Vec<usize> = to_eval.iter().map(|&k| indices[k]).collect();
        let outcomes = runner
            .run_indices(&corpus, cell, &eval_indices, 0)
            .map_err(|crash| crash.to_string())?;
        for ((&k, path), outcome) in to_eval.iter().zip(&eval_keys).zip(outcomes) {
            if let Some(path) = path {
                store_envelope(path, &outcome);
            }
            slots[k] = Some(outcome);
        }
    }

    let merged: Vec<TheoremOutcome> = slots
        .into_iter()
        .map(|o| o.expect("every eval slot filled"))
        .collect();
    // Outcomes merged from the baseline and the cone cache are reported
    // too, so they replay against the edited corpus like computed ones.
    replay_proved(&corpus.dev, cell, &merged).map_err(|crash| crash.to_string())?;
    proof_trace::metrics::counter_add("incremental.reverified", reverified.len() as u64);
    proof_trace::metrics::counter_add("incremental.cone_cache_hits", cone_cache_hits as u64);
    proof_trace::metrics::counter_add("incremental.served_baseline", served_baseline as u64);
    Ok(IncrementalOutcome {
        result: finish_cell(cell, merged),
        reverified,
        cone_cache_hits,
        served_baseline,
        fallback_full,
        impact,
    })
}

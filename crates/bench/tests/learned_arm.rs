//! The learned ranking arm's search outcome, pinned.
//!
//! Trains the scorer from the checked-in attempt log with refinement, as
//! `rank ab --log fixtures/attempts_small.jsonl --refine` does, and runs
//! the learned arm over the embedded corpus. A change to feature
//! extraction, scoring or the search's use of the ranking that moves any
//! proposal order shows up here as a different proved count or expansion
//! total, not only in the end-to-end benchmark.

use std::path::Path;

use corpus_analysis::features::FeatureVec;
use corpus_analysis::score::{install_model, Model};
use fscq_corpus::Corpus;
use llm_fscq_bench::rank::{base_cell, features_of_log, PINNED_SPEC};
use proof_metrics::runner::run_cell_jobs;
use proof_search::PremiseRank;
use proof_trace::attempts::AttemptLog;

#[test]
fn learned_arm_on_the_embedded_corpus_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let log = AttemptLog::at(root.join("fixtures/attempts_small.jsonl")).load();
    let samples: Vec<(FeatureVec, bool)> = features_of_log(&log, &root.join(PINNED_SPEC))
        .expect("every logged theorem resolves")
        .into_values()
        .flatten()
        .collect();
    let model = Model::train(&samples, true);
    assert_eq!(
        format!("{:016x}", model.content_hash()),
        "e42769e70c72d5de",
        "trained model drifted"
    );
    install_model(model);

    let cell = base_cell("rank-learned", PremiseRank::Learned);
    let result = run_cell_jobs(&Corpus::load(), &cell, 1);
    let proved = result
        .outcomes
        .iter()
        .filter(|o| o.outcome == "proved")
        .count();
    let expansions: u64 = result.outcomes.iter().map(|o| u64::from(o.queries)).sum();
    assert_eq!(
        (result.outcomes.len(), proved, expansions),
        (147, 54, 1917),
        "(theorems, proved, expansions) of the learned arm"
    );
}

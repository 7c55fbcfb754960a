//! The pinned inputs of learned premise ranking, shared by the `rank` bin
//! and the learned-arm golden test: the hard tier of the generated corpus
//! a spec fixture pins, the A/B's base cell, and the feature vectors of an
//! attempt log.

use std::collections::BTreeMap;
use std::path::Path;

use corpus_analysis::features::{self, FeatureCtx, FeatureVec, GoalCtx};
use corpus_gen::{generate_pinned, GeneratedCorpus};
use fscq_corpus::Corpus;
use minicoq_vernac::loader::Development;
use proof_metrics::{CellConfig, EvalScope};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_search::PremiseRank;
use proof_trace::attempts::AttemptRecord;

/// The pinned generated-corpus spec (seed + knobs + expected
/// fingerprint), relative to the repository root.
pub const PINNED_SPEC: &str = "fixtures/gen_1k.json";

/// The hard tier of a generated corpus: the benchmark theorems whose
/// recorded witnesses are longest (top third by witness token count,
/// ties broken by name for determinism).
pub fn hard_tier(corpus: &GeneratedCorpus) -> Vec<String> {
    let mut thms: Vec<(usize, &str)> = corpus
        .manifest
        .theorems
        .iter()
        .filter(|t| t.role == "theorem")
        .map(|t| (t.witness.split_whitespace().count(), t.name.as_str()))
        .collect();
    thms.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    let keep = (thms.len() / 3).max(1);
    thms.truncate(keep);
    thms.into_iter().map(|(_, n)| n.to_string()).collect()
}

/// Wraps a generated corpus into the evaluation harness's corpus type.
pub fn gen_dev(corpus: &GeneratedCorpus) -> Result<Corpus, String> {
    let dev = corpus
        .development(false)
        .map_err(|e| format!("generated corpus failed to load: {e}"))?;
    Ok(Corpus { dev })
}

/// The A/B's base cell: GPT-4o with hints over the full eval set — the
/// same configuration the retired `--premise-ab` experiment used.
pub fn base_cell(arm: &str, rank: PremiseRank) -> CellConfig {
    let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    cell.scope = EvalScope::Full;
    cell.search.premise_rank = rank;
    cell.variant = Some(arm.to_string());
    cell
}

/// Resolves every record's theorem against the embedded corpus (and the
/// generated corpus pinned by `spec` when needed) and extracts one feature
/// vector per attempt, labelled by on-path membership, grouped per
/// theorem in log order. Records whose theorem resolves nowhere are
/// dropped with a note.
pub fn features_of_log(
    log: &[AttemptRecord],
    spec: &Path,
) -> Result<BTreeMap<String, Vec<(FeatureVec, bool)>>, String> {
    let embedded = Corpus::load();
    // Generated theorems are recognizable by name; rebuild the pinned
    // corpus only if some record needs it.
    let needs_gen = log
        .iter()
        .any(|r| embedded.dev.theorem(&r.theorem).is_none());
    let gen_fscq = if needs_gen {
        Some(gen_dev(&generate_pinned(spec)?)?)
    } else {
        None
    };

    let mut by_thm: BTreeMap<&str, Vec<&AttemptRecord>> = BTreeMap::new();
    for r in log {
        by_thm.entry(r.theorem.as_str()).or_default().push(r);
    }
    let mut out = BTreeMap::new();
    for (name, records) in by_thm {
        let dev: &Development = if embedded.dev.theorem(name).is_some() {
            &embedded.dev
        } else if let Some(c) = gen_fscq.as_ref().filter(|c| c.dev.theorem(name).is_some()) {
            &c.dev
        } else {
            eprintln!(
                "[rank] unknown theorem `{name}` skipped ({} records)",
                records.len()
            );
            continue;
        };
        let thm = dev.theorem(name).expect("resolved above");
        let env = dev.env_before(thm);
        let fcx = FeatureCtx::new(env);
        let gcx = GoalCtx::new(&fcx, &thm.stmt);
        let samples: Vec<(FeatureVec, bool)> = records
            .iter()
            .map(|r| (features::tactic_vector(&fcx, &gcx, &r.tactic), r.on_path))
            .collect();
        out.insert(name.to_string(), samples);
    }
    Ok(out)
}

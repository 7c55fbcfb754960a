//! Experiment cells: one *cell* is a (model configuration, prompt
//! setting) pair evaluated over a set of theorems, one theorem at a time
//! by the [`Runner`](crate::Runner)'s workers.

use std::collections::{BTreeMap, BTreeSet};

use fscq_corpus::Category;
use minicoq_vernac::Development;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::{build_prompt_cached, PromptCache, PromptConfig, PromptSetting};
use proof_oracle::split::{eval_set, eval_set_small};
use proof_oracle::tokenizer::{bin_of, count_tokens};
use proof_oracle::SimulatedModel;
use proof_search::{search_with_recovery, Outcome, RecoveryConfig, SearchConfig, SearchStats};
use proof_trace::attempts::AttemptRecord;
use serde::{Deserialize, Serialize};

use crate::levenshtein::{canonical_script, similarity};

/// Converts a finished search's collected attempts into attempt-log
/// records for `theorem`, extracting each tactic's premise argument.
pub fn attempt_records(theorem: &str, stats: &SearchStats) -> Vec<AttemptRecord> {
    stats
        .attempts
        .iter()
        .map(|a| AttemptRecord {
            theorem: theorem.to_string(),
            tactic: a.tactic.clone(),
            premise: corpus_analysis::features::premise_of_tactic(&a.tactic)
                .unwrap_or("")
                .to_string(),
            features_schema: corpus_analysis::features::FEATURES_SCHEMA as u64,
            outcome: a.outcome.label().to_string(),
            expansions: a.expansions,
            depth: a.depth as u64,
            query: a.query as u64,
            on_path: a.on_path,
        })
        .collect()
}

/// Which theorems a cell evaluates (§4 "Data").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalScope {
    /// All theorems outside the hint split (smaller models).
    Full,
    /// The reduced deterministic sample (larger models).
    Sampled,
}

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Model capability profile.
    pub profile: ModelProfile,
    /// Vanilla or hints.
    pub setting: PromptSetting,
    /// Evaluation scope.
    pub scope: EvalScope,
    /// Search hyper-parameters.
    pub search: SearchConfig,
    /// Simulator shape parameters (calibration sweeps).
    pub tuning: proof_oracle::sim::Tuning,
    /// Automated premise selection: keep only the top-k retrieved lemmas
    /// in the prompt (`None` = the paper's full-context protocol).
    pub retrieval: Option<usize>,
    /// Experiment-variant tag for A/B runs (e.g. `rank-learned`).
    /// Flows into [`CellConfig::label`] and the persisted [`CellResult`],
    /// so two cells that differ only in a search knob no longer collapse
    /// onto one ambiguous label.
    /// `None` (every standard cell) adds nothing anywhere.
    pub variant: Option<String>,
    /// Restricts evaluation to these theorem names, intersected with the
    /// scope's eval set. Drives tiered runs (e.g. the generated corpus's
    /// hard tier in the `rank` A/B); part of the `Debug` form, so the
    /// cell cache key covers it.
    pub subset: Option<Vec<String>>,
}

impl CellConfig {
    /// The standard cell for a profile and setting, with the paper's scope
    /// rule (larger models on the 10% sample).
    pub fn standard(profile: ModelProfile, setting: PromptSetting) -> CellConfig {
        let scope = if profile.is_large() {
            EvalScope::Sampled
        } else {
            EvalScope::Full
        };
        CellConfig {
            profile,
            setting,
            scope,
            search: SearchConfig::default(),
            tuning: proof_oracle::sim::Tuning::default(),
            retrieval: None,
            variant: None,
            subset: None,
        }
    }

    /// Display label, e.g. `GPT-4o (w/ hints)`; a variant tag, when set,
    /// is appended as `GPT-4o (w/ hints) [premise-rank=on]`.
    pub fn label(&self) -> String {
        let base = match self.setting {
            PromptSetting::Vanilla => self.profile.name.to_string(),
            PromptSetting::Hints => format!("{} (w/ hints)", self.profile.name),
        };
        match &self.variant {
            Some(v) => format!("{base} [{v}]"),
            None => base,
        }
    }

    /// The theorem indices this cell evaluates, in corpus order.
    pub fn eval_indices(&self, dev: &Development) -> Vec<usize> {
        let base = match self.scope {
            EvalScope::Full => eval_set(dev),
            EvalScope::Sampled => eval_set_small(dev),
        };
        match &self.subset {
            None => base,
            Some(names) => {
                let keep: std::collections::BTreeSet<&str> =
                    names.iter().map(String::as_str).collect();
                base.into_iter()
                    .filter(|&i| keep.contains(dev.theorems[i].name.as_str()))
                    .collect()
            }
        }
    }

    /// The prompt configuration this cell evaluates under.
    pub fn prompt_config(&self) -> PromptConfig {
        PromptConfig {
            setting: self.setting,
            window: Some(self.profile.window),
            minimal: false,
            retrieval: self.retrieval,
        }
    }

    /// A fresh simulated model for this cell. The simulator's randomness is
    /// a pure hash of (model, theorem, query, candidate), so every worker's
    /// clone behaves identically — parallel evaluation is bit-reproducible.
    pub fn model(&self) -> SimulatedModel {
        SimulatedModel::new(self.profile.clone()).with_tuning(self.tuning.clone())
    }
}

/// The per-theorem record a cell produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TheoremOutcome {
    /// Theorem name.
    pub name: String,
    /// Module name.
    pub file: String,
    /// Category label (Table 1).
    pub category: String,
    /// Token length of the human proof.
    pub human_tokens: usize,
    /// Figure 1 length bin.
    pub bin: usize,
    /// `proved` / `stuck` / `fuelout`.
    pub outcome: String,
    /// The found script, when proved.
    pub script: Option<String>,
    /// Token length of the found script.
    pub gen_tokens: Option<usize>,
    /// Normalized similarity to the human proof.
    pub similarity: Option<f64>,
    /// Model queries issued.
    pub queries: u32,
    /// Proposals pruned statically by the pre-flight analyzer.
    pub pruned: u32,
    /// Pre-flight prunes per reason code.
    pub pruned_reasons: BTreeMap<String, u32>,
}

/// A completed experiment cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Display label.
    pub label: String,
    /// Prompt setting (`vanilla` / `hints`).
    pub setting: String,
    /// Experiment-variant tag ([`CellConfig::variant`]); empty for
    /// standard cells, and then absent from the JSON so standard grids
    /// serialize exactly as before the field existed.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub variant: String,
    /// Per-theorem outcomes.
    pub outcomes: Vec<TheoremOutcome>,
}

impl CellResult {
    /// Fraction of theorems proved.
    pub fn proved_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.outcome == "proved")
            .count() as f64
            / self.outcomes.len() as f64
    }

    /// Fraction with the given outcome string.
    pub fn rate_of(&self, outcome: &str) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.outcome == outcome)
            .count() as f64
            / self.outcomes.len() as f64
    }

    /// Average similarity of generated proofs to human proofs.
    pub fn avg_similarity(&self) -> f64 {
        let vals: Vec<f64> = self.outcomes.iter().filter_map(|o| o.similarity).collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// Average generated length as a percentage of the human length.
    pub fn avg_length_ratio(&self) -> f64 {
        let vals: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.outcome == "proved")
            .filter_map(|o| {
                o.gen_tokens
                    .map(|g| g as f64 / o.human_tokens.max(1) as f64)
            })
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        100.0 * vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Evaluates one theorem under a cell's configuration: build the prompt,
/// search, and classify. This is the unit of work of the
/// [`Runner`](crate::Runner)'s workers.
///
/// `recovery` is the oracle-recovery policy (fault injection and retry;
/// `RecoveryConfig::default()` for none). The recovery layer never
/// changes a successful evaluation's outcome — retried queries reuse
/// their `query_index` and fault counters are not serialized — so the
/// clean and recovered records are byte-identical. Returns the outcome
/// with the search's attempt records, which are empty unless `recovery`
/// collects attempts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_theorem_with_recovery(
    dev: &Development,
    index: usize,
    hints: &BTreeSet<String>,
    prompt_cfg: &PromptConfig,
    search_cfg: &SearchConfig,
    model: &mut SimulatedModel,
    prompt_cache: &PromptCache,
    recovery: &RecoveryConfig,
) -> (TheoremOutcome, Vec<AttemptRecord>) {
    let thm = &dev.theorems[index];
    let mut thm_sp = proof_trace::span("theorem", &thm.name);
    let env = dev.env_before(thm);
    let prompt = build_prompt_cached(dev, thm, hints, prompt_cfg, prompt_cache);
    let result = {
        let _sp = proof_trace::span("search", &thm.name);
        search_with_recovery(
            env, &thm.stmt, &thm.name, model, &prompt, search_cfg, recovery,
        )
    };
    let _classify_sp = proof_trace::span("classify", &thm.name);
    let human = canonical_script(&thm.proof_text);
    let human_tokens = count_tokens(&thm.proof_text);
    let (outcome, script) = match &result.outcome {
        Outcome::Proved { .. } => ("proved", result.script_text()),
        Outcome::Stuck => ("stuck", None),
        Outcome::Fuelout => ("fuelout", None),
    };
    if thm_sp.is_armed() {
        thm_sp.field_str("outcome", outcome);
        thm_sp.field_u64("queries", result.stats.queries as u64);
    }
    let (gen_tokens, sim) = match &script {
        Some(s) => {
            let c = canonical_script(s);
            (Some(count_tokens(&c)), Some(similarity(&c, &human)))
        }
        None => (None, None),
    };
    let record = TheoremOutcome {
        name: thm.name.clone(),
        file: thm.file.clone(),
        category: Category::of_module(&thm.file).label().to_string(),
        human_tokens,
        bin: bin_of(human_tokens),
        outcome: outcome.to_string(),
        script,
        gen_tokens,
        similarity: sim,
        queries: result.stats.queries,
        pruned: result.stats.preflight_pruned,
        pruned_reasons: result.stats.preflight_reasons.clone(),
    };
    (record, attempt_records(&thm.name, &result.stats))
}

/// Wraps a cell's outcomes into a [`CellResult`].
pub(crate) fn finish_cell(cell: &CellConfig, outcomes: Vec<TheoremOutcome>) -> CellResult {
    CellResult {
        label: cell.label(),
        setting: match cell.setting {
            PromptSetting::Vanilla => "vanilla".into(),
            PromptSetting::Hints => "hints".into(),
        },
        variant: cell.variant.clone().unwrap_or_default(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscq_corpus::Corpus;

    #[test]
    fn cell_runs_on_a_slice() {
        // A fast smoke test: tiny query budget over the sampled scope.
        let corpus = Corpus::load();
        let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
        cell.search.query_limit = 4;
        let r = crate::Runner::from_env()
            .with_jobs(1)
            .without_cache()
            .run_cell_checked(&corpus, &cell)
            .expect("a clean cell does not crash");
        assert!(!r.outcomes.is_empty());
        assert!(r.label.contains("hints"));
        for o in &r.outcomes {
            assert!(o.queries <= 4);
            assert!(["proved", "stuck", "fuelout"].contains(&o.outcome.as_str()));
        }
    }
}

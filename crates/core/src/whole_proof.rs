//! Whole-proof generation (§4.3, "Reasoning models").
//!
//! The paper could not run best-first search with the o1-style reasoning
//! models (no logprobs) and instead attempted whole-proof generation,
//! observing that without interaction with the proof assistant the models
//! misjudge proof progress. This module reproduces that comparison: the
//! model is asked once (or a few times) for a complete script, which is
//! then replayed; there is no intermediate feedback.

use minicoq::env::Env;
use minicoq::formula::Formula;
use minicoq::fuel::Fuel;
use minicoq::goal::ProofState;
use minicoq::parse::{parse_tactic, split_sentences};
use minicoq::tactic::apply_tactic;
use proof_oracle::{PromptInfo, QueryCtx, TacticModel};
use serde::Serialize;

/// Result of one whole-proof attempt.
#[derive(Debug, Clone, Serialize)]
pub struct WholeProofResult {
    /// The generated script.
    pub script: String,
    /// True when the script replays to a complete proof.
    pub proved: bool,
    /// How many sentences applied before the first failure (the paper's
    /// observation: models assume a subgoal is closed when it is not).
    pub sentences_applied: usize,
    /// Sentences in the script.
    pub sentences_total: usize,
}

/// Whole-proof generation with bounded repair.
///
/// Each round the model proposes greedily from its own predicted states
/// *without checker feedback*: every step takes the model's top proposal
/// as if it had succeeded, mirroring a reasoning model writing a proof in
/// one pass. The script is then replayed faithfully. After a failed
/// replay the *checker-verified prefix* is kept, the model sees the true
/// state at the failure point, and generation continues from there — up
/// to `repairs` rounds. With `repairs = 0` this is one-pass whole-proof
/// generation; with more it is the middle ground between that and full
/// best-first search: one round of real feedback per failure, as in
/// repair-style provers.
pub fn whole_proof_with_repair(
    env: &Env,
    stmt: &Formula,
    theorem: &str,
    model: &mut dyn TacticModel,
    prompt: &PromptInfo,
    max_sentences: usize,
    repairs: u32,
) -> WholeProofResult {
    // The checker-verified prefix (tactic sentences) and its true state.
    let mut prefix: Vec<String> = Vec::new();
    let mut state = ProofState::new(stmt.clone());
    let mut round = 0u32;
    let mut query_base = 0u32;

    loop {
        // Generation pass from the true state. The model sees the true
        // state only while its tactics happen to succeed; after a failure
        // it keeps generating against its last believed state — exactly
        // the "lack of awareness of proof progress" failure mode.
        let mut believed = state.clone();
        let mut script = prefix.clone();
        let mut misses = 0u32;
        for i in 0..max_sentences.saturating_sub(prefix.len()) {
            if believed.is_complete() {
                break;
            }
            let ctx = QueryCtx {
                prompt,
                state: &believed,
                env,
                path: &script,
                theorem,
                query_index: query_base + i as u32,
            };
            let props = model.propose(&ctx, 4);
            let Some(best) = props
                .iter()
                .find(|p| script.last() != Some(&p.tactic))
                .or_else(|| props.first())
            else {
                break;
            };
            script.push(best.tactic.clone());
            let applied = parse_tactic(env, believed.focused(), &best.tactic)
                .ok()
                .and_then(|t| apply_tactic(env, &believed, &t, &mut Fuel::default()).ok());
            match applied {
                Some(st) => {
                    believed = st;
                    misses = 0;
                }
                None => {
                    // After a couple of tactics against the same imagined
                    // state the model assumes the subgoal is closed and
                    // moves on (the o1 failure the paper describes).
                    misses += 1;
                    if misses >= 2 {
                        let mut st = believed.clone();
                        if !st.goals.is_empty() {
                            st.goals.remove(0);
                        }
                        believed = st;
                        misses = 0;
                    }
                }
            }
        }

        // Faithful verification of the whole script.
        let text = format!("{}.", script.join(". "));
        let mut st = ProofState::new(stmt.clone());
        let mut applied = 0usize;
        let total = split_sentences(&text).len();
        for sentence in split_sentences(&text) {
            let ok = parse_tactic(env, st.focused(), &sentence)
                .ok()
                .and_then(|t| apply_tactic(env, &st, &t, &mut Fuel::default()).ok());
            match ok {
                Some(next) => {
                    st = next;
                    applied += 1;
                }
                None => break,
            }
        }
        let proved = applied == total && st.is_complete();
        if proved || round >= repairs || applied >= max_sentences {
            return WholeProofResult {
                script: text,
                proved,
                sentences_applied: applied,
                sentences_total: total,
            };
        }

        // Repair: keep the verified prefix (dropping the failed sentence),
        // resume from the true state with a shifted query stream.
        round += 1;
        query_base += max_sentences as u32;
        let sentences = split_sentences(&text);
        prefix = sentences.into_iter().take(applied).collect();
        state = st;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_oracle::profiles::ModelProfile;
    use proof_oracle::prompt::{build_prompt, PromptConfig};
    use proof_oracle::SimulatedModel;

    #[test]
    fn whole_proof_runs_and_reports_progress() {
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let hints = proof_oracle::split::hint_set(&dev);
        let thm = dev.theorem("add_0_l").unwrap();
        let env = dev.env_before(thm);
        let prompt = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
        let mut model = SimulatedModel::new(ModelProfile::gpt4o());
        let r = whole_proof_with_repair(env, &thm.stmt, &thm.name, &mut model, &prompt, 12, 0);
        assert!(r.sentences_total > 0);
        assert!(r.sentences_applied <= r.sentences_total);
    }
}

//! Tests of the simulated model's load-bearing mechanisms: positional
//! attention ("lost in the middle") and the hint channels. These are the
//! mechanisms DESIGN.md credits for Figure 1b and the hint uplift, so they
//! are pinned here independently of end-to-end coverage numbers.

use std::hash::{Hash, Hasher};

use llm_fscq::corpus::Corpus;
use llm_fscq::minicoq::fuel::Fuel;
use llm_fscq::minicoq::goal::ProofState;
use llm_fscq::minicoq::parse::{parse_tactic, split_sentences};
use llm_fscq::minicoq::tactic::apply_tactic;
use llm_fscq::oracle::model::render_query;
use llm_fscq::oracle::profiles::ModelProfile;
use llm_fscq::oracle::prompt::{build_prompt, build_prompt_cached, PromptCache, PromptConfig};
use llm_fscq::oracle::sip::SipHasher13;
use llm_fscq::oracle::split::hint_set;
use llm_fscq::oracle::{QueryCtx, SimulatedModel, TacticModel};

/// The digest of every proposal (tactic and logprob bits) the simulator
/// makes over a fixed sample: twelve theorems spread over the corpus,
/// queries 0..4 along each human proof, vanilla and hint prompts, and
/// three models. Any change to a draw, a score or the candidate order
/// changes it.
const PROPOSAL_DIGEST: &str = "74985fe6b23467e8";

#[test]
fn proposals_match_the_pinned_digest() {
    let corpus = Corpus::load();
    let dev = &corpus.dev;
    let hints = hint_set(dev);
    let step = dev.theorems.len() / 12;
    let mut digest = SipHasher13::new();
    let mut proposals = 0usize;
    for profile in [
        ModelProfile::gpt4o_mini(),
        ModelProfile::gpt4o(),
        ModelProfile::gemini_pro_128k(),
    ] {
        for base in [PromptConfig::vanilla(), PromptConfig::hints()] {
            let cfg = PromptConfig {
                window: Some(profile.window),
                ..base
            };
            let mut model = SimulatedModel::new(profile.clone());
            for thm in dev.theorems.iter().step_by(step).take(12) {
                let env = dev.env_before(thm);
                let prompt = build_prompt(dev, thm, &hints, &cfg);
                // Walk the human proof, so later queries see hypotheses
                // and a non-empty path (the bigram channel).
                let sentences = split_sentences(&thm.proof_text);
                let mut state = ProofState::new(thm.stmt.clone());
                for q in 0..4 {
                    let ctx = QueryCtx {
                        prompt: &prompt,
                        state: &state,
                        env,
                        path: &sentences[..q],
                        theorem: &thm.name,
                        query_index: q as u32,
                    };
                    for p in model.propose(&ctx, 8) {
                        p.tactic.hash(&mut digest);
                        p.logprob.to_bits().hash(&mut digest);
                        proposals += 1;
                    }
                    let next = sentences.get(q).and_then(|s| {
                        let tac = parse_tactic(env, state.focused(), s).ok()?;
                        apply_tactic(env, &state, &tac, &mut Fuel::default()).ok()
                    });
                    match next {
                        Some(s) if s.focused().is_some() => state = s,
                        _ => break,
                    }
                }
            }
        }
    }
    assert!(proposals > 500, "too few proposals to pin: {proposals}");
    assert_eq!(format!("{:016x}", digest.finish()), PROPOSAL_DIGEST);
}

/// The digest of every proposal the simulator makes on a generated corpus
/// (seed `0x5EED_D16E`, 51 theorems): all five Table 2 models, vanilla
/// and hint prompts, one query per step along each theorem's witness.
/// Generated goals reach lemma shapes, hint scripts and hallucinated names
/// the human-proof sample above does not.
const GENERATED_PROPOSAL_DIGEST: &str = "73a1720cf152810b";

#[test]
fn proposals_on_generated_goals_match_the_pinned_digest() {
    let generated = llm_fscq::gen::generate(&llm_fscq::gen::GenSpec::new(0x5EED_D16E, 40));
    let dev = generated
        .development(false)
        .expect("generated corpus loads");
    let hints = hint_set(&dev);
    let mut digest = SipHasher13::new();
    let mut proposals = 0usize;
    for profile in ModelProfile::all_five() {
        for base in [PromptConfig::vanilla(), PromptConfig::hints()] {
            let cfg = PromptConfig {
                window: Some(profile.window),
                ..base
            };
            let mut model = SimulatedModel::new(profile.clone());
            for thm in &dev.theorems {
                let env = dev.env_before(thm);
                let prompt = build_prompt(&dev, thm, &hints, &cfg);
                let sentences = split_sentences(&thm.proof_text);
                let mut state = ProofState::new(thm.stmt.clone());
                for q in 0..sentences.len() {
                    let ctx = QueryCtx {
                        prompt: &prompt,
                        state: &state,
                        env,
                        path: &sentences[..q],
                        theorem: &thm.name,
                        query_index: q as u32,
                    };
                    for p in model.propose(&ctx, 8) {
                        p.tactic.hash(&mut digest);
                        p.logprob.to_bits().hash(&mut digest);
                        proposals += 1;
                    }
                    let tac = parse_tactic(env, state.focused(), &sentences[q]).ok();
                    let next =
                        tac.and_then(|t| apply_tactic(env, &state, &t, &mut Fuel::default()).ok());
                    match next {
                        Some(s) if s.focused().is_some() => state = s,
                        _ => break,
                    }
                }
            }
        }
    }
    assert!(proposals > 2000, "too few proposals to pin: {proposals}");
    assert_eq!(
        format!("{:016x}", digest.finish()),
        GENERATED_PROPOSAL_DIGEST
    );
}

/// The digest of every prompt of the corpus under five configurations:
/// vanilla, hints, hints in a truncating 4,000-token window, minimal and
/// top-16 retrieval. Per prompt it covers the rendered text (through the
/// first query's payload, which carries it whole), the token count, the
/// truncation flag, the visible lemma names and the hint-fact sentences.
const PROMPT_DIGEST: &str = "9d5a25b9f6e0c380";

#[test]
fn prompts_match_the_pinned_digest() {
    let corpus = Corpus::load();
    let dev = &corpus.dev;
    let hints = hint_set(dev);
    let cache = PromptCache::new();
    let configs = [
        PromptConfig::vanilla(),
        PromptConfig::hints(),
        PromptConfig {
            window: Some(4_000),
            ..PromptConfig::hints()
        },
        PromptConfig {
            minimal: true,
            ..PromptConfig::hints()
        },
        PromptConfig {
            retrieval: Some(16),
            ..PromptConfig::hints()
        },
    ];
    let mut digest = SipHasher13::new();
    let mut truncated = 0usize;
    for cfg in &configs {
        for thm in &dev.theorems {
            let prompt = build_prompt_cached(dev, thm, &hints, cfg, &cache);
            let state = ProofState::new(thm.stmt.clone());
            let ctx = QueryCtx {
                prompt: &prompt,
                state: &state,
                env: dev.env_before(thm),
                path: &[],
                theorem: &thm.name,
                query_index: 0,
            };
            render_query(&ctx).hash(&mut digest);
            prompt.tokens.hash(&mut digest);
            prompt.truncated.hash(&mut digest);
            truncated += usize::from(prompt.truncated);
            for lemma in &prompt.visible_lemmas {
                (**lemma).hash(&mut digest);
            }
            for facts in &prompt.hint_facts {
                for sentence in facts.sentences.iter() {
                    (**sentence).hash(&mut digest);
                }
            }
        }
    }
    assert!(truncated > 100, "the 4,000-token window truncates too few");
    assert_eq!(format!("{:016x}", digest.finish()), PROMPT_DIGEST);
}

/// Counts lemma-directed proposals (apply/rewrite of a known lemma) whose
/// target lemma sits in the given region of the prompt.
fn lemma_proposals_by_region(sample: usize) -> (usize, usize) {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let mut near = 0usize;
    let mut far = 0usize;
    for thm in corpus.dev.theorems.iter().rev().take(sample) {
        let env = corpus.dev.env_before(thm);
        let prompt = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
        let n = prompt.visible_lemmas.len();
        if n < 20 {
            continue;
        }
        let st = ProofState::new(thm.stmt.clone());
        let mut model = SimulatedModel::new(ModelProfile::gpt4o());
        for qi in 0..6 {
            let ctx = QueryCtx {
                prompt: &prompt,
                state: &st,
                env,
                path: &[],
                theorem: &thm.name,
                query_index: qi,
            };
            for p in model.propose(&ctx, 8) {
                let name = p
                    .tactic
                    .strip_prefix("apply ")
                    .or_else(|| p.tactic.strip_prefix("rewrite "))
                    .map(|s| s.split_whitespace().next().unwrap_or(""))
                    .unwrap_or("");
                if let Some(pos) = prompt.visible_lemmas.iter().position(|l| &**l == name) {
                    if pos * 2 >= n {
                        near += 1; // Second half of the prompt: close to the goal.
                    } else {
                        far += 1;
                    }
                }
            }
        }
    }
    (near, far)
}

#[test]
fn attention_prefers_lemmas_near_the_goal() {
    // Deep theorems see hundreds of lemmas; the positional-attention
    // mechanism must make near-goal lemmas dominate the proposals.
    let (near, far) = lemma_proposals_by_region(60);
    assert!(
        near + far >= 20,
        "not enough lemma-directed proposals to judge ({near}+{far})"
    );
    assert!(
        near > far,
        "near-goal lemmas should dominate: near={near}, far={far}"
    );
}

#[test]
fn hint_scripts_change_proposals() {
    // The hint channels (frequency, bigram, retrieval) must make the
    // hinted and vanilla proposal streams differ for most theorems.
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let mut differing = 0usize;
    let mut total = 0usize;
    for thm in corpus.dev.theorems.iter().take(40) {
        let env = corpus.dev.env_before(thm);
        let hinted = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
        if hinted.hint_facts.is_empty() {
            continue;
        }
        let vanilla = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::vanilla());
        let st = ProofState::new(thm.stmt.clone());
        let propose = |prompt| {
            let mut model = SimulatedModel::new(ModelProfile::gemini_pro());
            let ctx = QueryCtx {
                prompt,
                state: &st,
                env,
                path: &[],
                theorem: &thm.name,
                query_index: 0,
            };
            model
                .propose(&ctx, 8)
                .into_iter()
                .map(|p| p.tactic)
                .collect::<Vec<_>>()
        };
        total += 1;
        if propose(&hinted) != propose(&vanilla) {
            differing += 1;
        }
    }
    assert!(total >= 20);
    assert!(
        differing * 3 >= total * 2,
        "hints barely affect proposals: {differing}/{total}"
    );
}

//! Unit tests for the model-facing layer: prompt assembly (ordering,
//! hint inclusion, window truncation, minimal slicing), the calibrated
//! profiles' invariants, and the simulator's determinism contract — the
//! properties every experiment in EXPERIMENTS.md silently depends on.

use fscq_corpus::Corpus;
use minicoq::goal::ProofState;
use proof_oracle::model::{QueryCtx, TacticModel};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::{
    build_prompt, build_prompt_cached, proof_dependencies, PromptCache, PromptConfig,
};
use proof_oracle::sim::SimulatedModel;
use proof_oracle::split::{eval_set, eval_set_small, hint_set};
use proof_oracle::tokenizer::{bin_of, count_tokens};

fn corpus() -> Corpus {
    Corpus::load()
}

// ------------------------------------------------------------------ prompts

#[test]
fn vanilla_prompts_contain_no_proof_scripts() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    for thm in c.dev.theorems.iter().rev().take(10) {
        let p = build_prompt(&c.dev, thm, &hints, &PromptConfig::vanilla());
        assert!(p.hint_facts.is_empty(), "{}", thm.name);
        let text = p.text();
        assert!(
            !text.contains("Qed.") || !text.contains("intros"),
            "{}",
            thm.name
        );
    }
}

#[test]
fn hint_prompts_include_only_hint_split_proofs() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let deep = c.dev.theorems.last().unwrap();
    let p = build_prompt(&c.dev, deep, &hints, &PromptConfig::hints());
    assert!(!p.hint_facts.is_empty());
    for item in &p.items {
        let Some(facts) = &item.hint else { continue };
        let name = item.lemma.as_deref().expect("a hint is a lemma's proof");
        assert!(hints.contains(name), "{name} leaked into hints");
        assert!(!facts.sentences.is_empty());
    }
    // The theorem under proof never appears in its own prompt.
    assert!(!p.visible_lemmas.iter().any(|l| **l == deep.name));
}

#[test]
fn visible_lemmas_follow_load_order() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let deep = c.dev.theorems.last().unwrap();
    let p = build_prompt(&c.dev, deep, &hints, &PromptConfig::hints());
    let index = |n: &str| c.dev.theorem(n).map(|t| t.global_index).unwrap();
    for w in p.visible_lemmas.windows(2) {
        assert!(index(&w[0]) < index(&w[1]), "{} !< {}", w[0], w[1]);
    }
}

#[test]
fn window_truncation_keeps_the_tail() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let deep = c.dev.theorems.last().unwrap();
    let full = build_prompt(&c.dev, deep, &hints, &PromptConfig::hints());
    let mut cfg = PromptConfig::hints();
    cfg.window = Some(full.tokens / 3);
    let cut = build_prompt(&c.dev, deep, &hints, &cfg);
    assert!(cut.truncated);
    assert!(cut.tokens <= full.tokens / 3 + 64);
    // The lemmas that survive are the *most recent* ones.
    let last_full = full.visible_lemmas.last().unwrap();
    assert_eq!(cut.visible_lemmas.last().unwrap(), last_full);
    assert!(cut.visible_lemmas.len() < full.visible_lemmas.len());
}

#[test]
fn window_larger_than_prompt_truncates_nothing() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let thm = &c.dev.theorems[5];
    let mut cfg = PromptConfig::hints();
    cfg.window = Some(usize::MAX / 2);
    let p = build_prompt(&c.dev, thm, &hints, &cfg);
    assert!(!p.truncated);
}

#[test]
fn minimal_prompts_are_dependency_slices() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    // Find a theorem whose proof uses earlier lemmas.
    let thm = c
        .dev
        .theorems
        .iter()
        .rev()
        .find(|t| !proof_dependencies(&c.dev, t).is_empty())
        .unwrap();
    let deps = proof_dependencies(&c.dev, thm);
    let mut cfg = PromptConfig::vanilla();
    cfg.minimal = true;
    let p = build_prompt(&c.dev, thm, &hints, &cfg);
    for l in &p.visible_lemmas {
        assert!(deps.contains(&**l), "{l} not a dependency of {}", thm.name);
    }
    let full = build_prompt(&c.dev, thm, &hints, &PromptConfig::vanilla());
    assert!(p.tokens < full.tokens);
}

#[test]
fn dependencies_name_only_earlier_lemmas() {
    let c = corpus();
    for thm in c.dev.theorems.iter().rev().take(30) {
        for d in proof_dependencies(&c.dev, thm) {
            let dep = c.dev.theorem(&d).unwrap_or_else(|| panic!("{d} unknown"));
            assert!(
                dep.global_index < thm.global_index,
                "{d} is not earlier than {}",
                thm.name
            );
        }
    }
}

#[test]
fn prompt_token_count_matches_the_tokenizer() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let thm = &c.dev.theorems[20];
    let p = build_prompt(&c.dev, thm, &hints, &PromptConfig::hints());
    // Segment bookkeeping may over-count joins slightly but must track the
    // text's real size closely.
    let real = count_tokens(&p.text());
    assert!(
        p.tokens.abs_diff(real) * 20 <= real.max(1),
        "{} vs {real}",
        p.tokens
    );
}

// ------------------------------------------------------------------ profiles

#[test]
fn profile_families_are_consistent() {
    let four = ModelProfile::main_four();
    assert_eq!(four.len(), 4);
    let five = ModelProfile::all_five();
    assert_eq!(five.len(), 5);
    for p in &five {
        assert!((0.0..=1.0).contains(&p.skill), "{}", p.name);
        assert!((0.0..=1.0).contains(&p.noise), "{}", p.name);
        assert!(p.window > 0 && p.effective_context > 0);
    }
    // Paper ordering: mini < flash < pro < gpt4o on skill.
    let skill = |n: &str| five.iter().find(|p| p.name.contains(n)).unwrap().skill;
    assert!(skill("mini") < skill("Flash"));
    assert!(skill("Flash") < skill("Pro"));
    assert!(skill("Pro") < ModelProfile::gpt4o().skill);
}

#[test]
fn the_128k_variant_differs_only_in_window() {
    let pro = ModelProfile::gemini_pro();
    let small = ModelProfile::gemini_pro_128k();
    assert_eq!(pro.skill, small.skill);
    assert_eq!(pro.noise, small.noise);
    assert!(small.window < pro.window);
    assert!(small.is_large() && pro.is_large());
    assert!(!ModelProfile::gpt4o_mini().is_large());
}

// ----------------------------------------------------------------- splits

#[test]
fn eval_sets_partition_and_nest() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let eval = eval_set(&c.dev);
    assert_eq!(eval.len() + hints.len(), c.dev.theorems.len());
    let small = eval_set_small(&c.dev);
    assert!(small.iter().all(|i| eval.contains(i)));
    // The reduced sample is 40% of the eval set (see EXPERIMENTS.md).
    assert_eq!(small.len(), eval.len() * 2 / 5);
}

// --------------------------------------------------------------- simulator

#[test]
fn simulator_is_deterministic_across_instances() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    for idx in [3usize, 40, 100] {
        let thm = &c.dev.theorems[idx];
        let env = c.dev.env_before(thm);
        let prompt = build_prompt(&c.dev, thm, &hints, &PromptConfig::hints());
        let st = ProofState::new(thm.stmt.clone());
        let run = || {
            let mut m = SimulatedModel::new(ModelProfile::gemini_flash());
            let ctx = QueryCtx {
                prompt: &prompt,
                state: &st,
                env,
                path: &[],
                theorem: &thm.name,
                query_index: 0,
            };
            m.propose(&ctx, 8)
                .into_iter()
                .map(|p| (p.tactic, p.logprob.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "{}", thm.name);
    }
}

#[test]
fn proposals_respect_width_and_ordering() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let thm = &c.dev.theorems[10];
    let env = c.dev.env_before(thm);
    let prompt = build_prompt(&c.dev, thm, &hints, &PromptConfig::hints());
    let st = ProofState::new(thm.stmt.clone());
    let mut m = SimulatedModel::new(ModelProfile::gpt4o());
    let ctx = QueryCtx {
        prompt: &prompt,
        state: &st,
        env,
        path: &[],
        theorem: &thm.name,
        query_index: 0,
    };
    for width in [1usize, 4, 8] {
        let ps = m.propose(&ctx, width);
        assert!(ps.len() <= width);
        for w in ps.windows(2) {
            assert!(w[0].logprob >= w[1].logprob, "not sorted by logprob");
        }
        // No duplicate tactic strings after the temperature-sampling
        // collapse.
        let mut seen = std::collections::BTreeSet::new();
        for p in &ps {
            assert!(seen.insert(p.tactic.clone()), "duplicate {}", p.tactic);
            assert!(p.logprob.is_finite());
        }
    }
}

#[test]
fn query_index_varies_the_stream() {
    // Distinct queries on the same state must be able to disagree —
    // otherwise retries in the search would be pointless.
    let c = corpus();
    let hints = hint_set(&c.dev);
    let mut differing = 0;
    let mut total = 0;
    for idx in [5usize, 25, 60, 120, 200] {
        let thm = &c.dev.theorems[idx];
        let env = c.dev.env_before(thm);
        let prompt = build_prompt(&c.dev, thm, &hints, &PromptConfig::hints());
        let st = ProofState::new(thm.stmt.clone());
        let mut m = SimulatedModel::new(ModelProfile::gpt4o_mini());
        let tactics = |m: &mut SimulatedModel, qi: u32| {
            let ctx = QueryCtx {
                prompt: &prompt,
                state: &st,
                env,
                path: &[],
                theorem: &thm.name,
                query_index: qi,
            };
            m.propose(&ctx, 8)
                .into_iter()
                .map(|p| p.tactic)
                .collect::<Vec<_>>()
        };
        total += 1;
        if tactics(&mut m, 0) != tactics(&mut m, 7) {
            differing += 1;
        }
    }
    assert!(differing * 2 >= total, "{differing}/{total} streams vary");
}

#[test]
fn proposed_tactics_look_like_tactics() {
    // Every proposal must at least be parseable-looking text: non-empty,
    // no newlines, bounded length.
    let c = corpus();
    let hints = hint_set(&c.dev);
    for idx in [0usize, 50, 150, 250] {
        let thm = &c.dev.theorems[idx];
        let env = c.dev.env_before(thm);
        let prompt = build_prompt(&c.dev, thm, &hints, &PromptConfig::hints());
        let st = ProofState::new(thm.stmt.clone());
        let mut m = SimulatedModel::new(ModelProfile::gemini_pro());
        for qi in 0..4 {
            let ctx = QueryCtx {
                prompt: &prompt,
                state: &st,
                env,
                path: &[],
                theorem: &thm.name,
                query_index: qi,
            };
            for p in m.propose(&ctx, 8) {
                assert!(!p.tactic.trim().is_empty());
                assert!(!p.tactic.contains('\n'));
                assert!(p.tactic.len() < 400, "{}", p.tactic);
            }
        }
    }
}

// ---------------------------------------------------------------- tokenizer

#[test]
fn token_bins_are_monotone_in_length() {
    let mut last = 0;
    for t in [
        0usize, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 511, 512, 5000,
    ] {
        let b = bin_of(t);
        assert!(b >= last, "bin_of({t}) went backwards");
        last = b;
    }
    assert_eq!(bin_of(0), 0);
    assert_eq!(bin_of(15), 0);
    assert_eq!(bin_of(16), 1);
    assert_eq!(bin_of(512), 6);
}

#[test]
fn prompt_tokens_are_the_sum_of_their_segments() {
    // `tokens` is summed from the cached per-item counts; it must equal a
    // count of the whole text for every theorem and every kind of prompt.
    let c = corpus();
    let hints = hint_set(&c.dev);
    let windowed = PromptConfig {
        window: Some(4_000),
        ..PromptConfig::hints()
    };
    let minimal = PromptConfig {
        minimal: true,
        ..PromptConfig::vanilla()
    };
    let retrieval = PromptConfig {
        retrieval: Some(16),
        ..PromptConfig::hints()
    };
    let mut prompts = 0usize;
    for cfg in [
        PromptConfig::vanilla(),
        PromptConfig::hints(),
        windowed,
        minimal,
        retrieval,
    ] {
        let cache = PromptCache::new();
        for thm in &c.dev.theorems {
            let p = build_prompt_cached(&c.dev, thm, &hints, &cfg, &cache);
            assert_eq!(
                p.tokens,
                count_tokens(&p.text()),
                "{} under {cfg:?}",
                thm.name
            );
            prompts += 1;
        }
    }
    assert_eq!(prompts, 5 * c.dev.theorems.len());
}

// --------------------------------------------------------------- retrieval

#[test]
fn retrieval_prompts_prune_to_relevant_lemmas() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let thm = c.dev.theorems.last().unwrap();
    let mut cfg = PromptConfig::hints();
    cfg.retrieval = Some(16);
    let pruned = build_prompt(&c.dev, thm, &hints, &cfg);
    let full = build_prompt(&c.dev, thm, &hints, &PromptConfig::hints());
    assert!(pruned.visible_lemmas.len() <= 16);
    assert!(pruned.tokens < full.tokens);
    // Exactly the retrieval set survives, in load order.
    let want = proof_oracle::retrieval::retrieval_set(&c.dev, thm, 16);
    for l in &pruned.visible_lemmas {
        assert!(want.contains(&**l), "{l} not in the retrieval set");
    }
}

#[test]
fn retrieval_zero_keeps_no_lemmas() {
    let c = corpus();
    let hints = hint_set(&c.dev);
    let thm = c.dev.theorems.last().unwrap();
    let mut cfg = PromptConfig::vanilla();
    cfg.retrieval = Some(0);
    let p = build_prompt(&c.dev, thm, &hints, &cfg);
    assert!(p.visible_lemmas.is_empty());
    // The goal and the non-lemma vocabulary are still present.
    assert!(p.text().contains(&thm.name));
}

#[test]
fn rendered_queries_carry_prompt_state_and_path() {
    use proof_oracle::model::render_query;
    let c = corpus();
    let hints = hint_set(&c.dev);
    let thm = &c.dev.theorems[30];
    let env = c.dev.env_before(thm);
    let prompt = build_prompt(&c.dev, thm, &hints, &PromptConfig::hints());
    let st = ProofState::new(thm.stmt.clone());
    let path = vec!["intros".to_string()];
    let ctx = QueryCtx {
        prompt: &prompt,
        state: &st,
        env,
        path: &path,
        theorem: &thm.name,
        query_index: 0,
    };
    let q = render_query(&ctx);
    assert!(q.starts_with(&prompt.text()));
    assert!(q.contains("Current proof state"));
    assert!(q.contains("Tactics so far: intros."));
    assert!(q.trim_end().ends_with("Next tactic:"));
}

#[test]
fn retrieval_sets_nest_as_k_grows() {
    use proof_oracle::retrieval::{rank_lemmas, retrieval_set};
    let c = corpus();
    for idx in [60usize, 150, 240, 293] {
        let thm = &c.dev.theorems[idx];
        let ranked = rank_lemmas(&c.dev, thm);
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "{}", thm.name);
        }
        let mut prev = retrieval_set(&c.dev, thm, 0);
        assert!(prev.is_empty());
        for k in [1usize, 4, 16, 64] {
            let cur = retrieval_set(&c.dev, thm, k);
            assert!(cur.len() <= k);
            assert!(prev.is_subset(&cur), "{}: top-sets must nest", thm.name);
            prev = cur;
        }
    }
}

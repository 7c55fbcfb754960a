//! End-to-end integration: corpus → prompt → search → metrics, across all
//! workspace crates.

use llm_fscq::corpus::Corpus;
use llm_fscq::metrics::levenshtein::canonical_script;
use llm_fscq::oracle::profiles::ModelProfile;
use llm_fscq::oracle::prompt::{build_prompt, PromptConfig, PromptSetting};
use llm_fscq::oracle::split::{eval_set, hint_set};
use llm_fscq::oracle::SimulatedModel;
use llm_fscq::search::{search, SearchConfig};

#[test]
fn pipeline_proves_and_replays() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let mut proved = 0usize;
    let mut checked = 0usize;
    // A spread of easy theorems across the three categories.
    for name in [
        "add_0_l",
        "le_refl",
        "app_nil_l",
        "mflush_nil",
        "replay_log_nil",
        "tl_find_nil",
        "incl_refl",
        "meq_refl",
    ] {
        let thm = corpus.dev.theorem(name).expect("theorem exists");
        let env = corpus.dev.env_before(thm);
        let prompt = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
        let mut model = SimulatedModel::new(ModelProfile::gpt4o());
        let r = search(
            env,
            &thm.stmt,
            &thm.name,
            &mut model,
            &prompt,
            &SearchConfig::default(),
        );
        checked += 1;
        if let Some(script) = r.script_text() {
            proved += 1;
            // Every found proof must replay through the kernel.
            llm_fscq::minicoq::replay::replay_script(env, &thm.stmt, &script)
                .unwrap_or_else(|e| panic!("{name}: unsound search result: {e}"));
        }
    }
    assert!(
        proved * 2 >= checked,
        "only {proved}/{checked} easy theorems proved"
    );
}

#[test]
fn searches_are_reproducible_across_runs() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let eval = eval_set(&corpus.dev);
    for &i in eval.iter().take(6) {
        let thm = &corpus.dev.theorems[i];
        let env = corpus.dev.env_before(thm);
        let prompt = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
        let run = |qi: u32| {
            let _ = qi;
            let mut model = SimulatedModel::new(ModelProfile::gemini_flash());
            search(
                env,
                &thm.stmt,
                &thm.name,
                &mut model,
                &prompt,
                &SearchConfig::default(),
            )
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.outcome, b.outcome, "{}", thm.name);
        assert_eq!(a.stats.queries, b.stats.queries, "{}", thm.name);
        assert_eq!(a.stats.valid_tactics, b.stats.valid_tactics, "{}", thm.name);
    }
}

#[test]
fn vanilla_prompts_never_leak_proofs() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let eval = eval_set(&corpus.dev);
    for &i in eval.iter().take(10) {
        let thm = &corpus.dev.theorems[i];
        let vanilla = build_prompt(
            &corpus.dev,
            thm,
            &hints,
            &PromptConfig {
                setting: PromptSetting::Vanilla,
                window: None,
                minimal: false,
                retrieval: None,
            },
        );
        assert!(vanilla.hint_scripts.is_empty());
        // The theorem's own human proof must never appear in any prompt.
        let hinted = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
        let own = canonical_script(&thm.proof_text);
        if own.len() > 25 {
            assert!(
                !canonical_script(&hinted.text).contains(&own),
                "{}'s own proof leaked into its prompt",
                thm.name
            );
        }
        for (name, _) in &hinted.hint_scripts {
            assert_ne!(name, &thm.name);
            assert!(hints.contains(name));
        }
    }
}

#[test]
fn query_limit_is_respected_everywhere() {
    let corpus = Corpus::load();
    let hints = hint_set(&corpus.dev);
    let thm = corpus.dev.theorem("ptsto_upd").expect("hard theorem");
    let env = corpus.dev.env_before(thm);
    let prompt = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
    for limit in [1, 8, 32] {
        let mut model = SimulatedModel::new(ModelProfile::gpt4o());
        let cfg = SearchConfig {
            query_limit: limit,
            ..Default::default()
        };
        let r = search(env, &thm.stmt, &thm.name, &mut model, &prompt, &cfg);
        assert!(r.stats.queries <= limit);
    }
}

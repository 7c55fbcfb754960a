//! §4.3: when and why do LLMs fail?
//!
//! Part 1 (context selection): take theorems with short human proofs that
//! the hinted GPT-4o search failed, and re-run them with the hand-crafted
//! minimal dependency-sliced prompts; the paper reports these then succeed.
//!
//! Part 2 (reasoning models): whole-proof generation without checker
//! interaction, reproducing the "assumes a subgoal is closed" failure mode.
//!
//! Usage: `sec43 [--fresh] [--resume] [--jobs N] [--fault-seed N] [--fault-plan SPEC]
//! [--trace-out BASE]`

use fscq_corpus::Corpus;
use llm_fscq_bench::GridOpts;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::{build_prompt, PromptConfig, PromptSetting};
use proof_oracle::split::hint_set;
use proof_oracle::SimulatedModel;
use proof_search::whole_proof::whole_proof_with_repair;
use proof_search::{search, SearchConfig};

fn main() {
    let rs = llm_fscq_bench::main_grid_opts(&GridOpts::parse("sec43", &GridOpts::ALL));
    let corpus = Corpus::load();
    let dev = &corpus.dev;
    let hints = hint_set(dev);

    println!("== Context selection: failed short theorems, minimal prompts ==");
    let cell = rs.cell("GPT-4o (w/ hints)").expect("grid ran");
    let failed_short: Vec<&str> = cell
        .outcomes
        .iter()
        .filter(|o| o.outcome != "proved" && o.human_tokens < 16)
        .map(|o| o.name.as_str())
        .collect();
    // The paper also crafts prompts for a handful of short failures from the
    // full corpus; include a few short eval-set failures of the small models
    // to get a meaningful sample.
    let mut pool: Vec<String> = failed_short.iter().map(|s| s.to_string()).collect();
    if let Some(c) = rs.cell("Gemini 1.5 Flash (w/ hints)") {
        for o in &c.outcomes {
            if o.outcome != "proved" && o.human_tokens < 16 && pool.len() < 12 {
                pool.push(o.name.clone());
            }
        }
    }
    pool.dedup();
    // Re-runs the hinted GPT-4o search on each pooled failure under `cfg`,
    // printing one line per theorem (tagged `label`) and the number
    // rescued (described as `kind` prompts).
    let rescue = |cfg: &PromptConfig, label: &str, kind: &str| {
        let mut rescued = 0usize;
        for name in &pool {
            let thm = dev.theorem(name).expect("theorem");
            let env = dev.env_before(thm);
            let prompt = build_prompt(dev, thm, &hints, cfg);
            let mut model = SimulatedModel::new(ModelProfile::gpt4o());
            let r = search(
                env,
                &thm.stmt,
                &thm.name,
                &mut model,
                &prompt,
                &SearchConfig::default(),
            );
            let ok = r.proved();
            if ok {
                rescued += 1;
            }
            println!(
                "  {name:28} {label} prompt ({} lemmas visible): {}",
                prompt.visible_lemmas.len(),
                if ok { "PROVED" } else { "still failed" }
            );
        }
        println!(
            "rescued {rescued}/{} short failures with {kind} prompts\n",
            pool.len()
        );
    };
    let minimal_cfg = PromptConfig {
        setting: PromptSetting::Hints,
        window: None,
        minimal: true,
        retrieval: None,
    };
    rescue(&minimal_cfg, "minimal", "minimal dependency");

    // §5 extension: the same rescue attempted WITHOUT oracle knowledge of
    // the human proof — automated premise selection keeps the top-16
    // lemmas by rarity-weighted symbol overlap with the goal.
    println!("== Context selection: same failures, automated retrieval (top-16) ==");
    let retrieval_cfg = PromptConfig {
        setting: PromptSetting::Hints,
        window: None,
        minimal: false,
        retrieval: Some(16),
    };
    rescue(&retrieval_cfg, "retrieval", "automated retrieval");

    println!("== Whole-proof generation (reasoning-model comparison) ==");
    let mut wp_proved = 0usize;
    let mut repair_proved = 0usize;
    let mut bfs_proved = 0usize;
    let sample = [
        "in_cons",
        "add_0_r",
        "le_refl",
        "min_comm",
        "app_nil_r",
        "incl_refl",
    ];
    for name in sample {
        let thm = dev.theorem(name).expect("theorem");
        let env = dev.env_before(thm);
        let prompt = build_prompt(dev, thm, &hints, &PromptConfig::hints());
        let mut model = SimulatedModel::new(ModelProfile::gpt4o());
        let wp = whole_proof_with_repair(env, &thm.stmt, &thm.name, &mut model, &prompt, 16, 0);
        let rep = whole_proof_with_repair(env, &thm.stmt, &thm.name, &mut model, &prompt, 16, 4);
        let bfs = search(
            env,
            &thm.stmt,
            &thm.name,
            &mut model,
            &prompt,
            &SearchConfig::default(),
        );
        if wp.proved {
            wp_proved += 1;
        }
        if rep.proved {
            repair_proved += 1;
        }
        if bfs.proved() {
            bfs_proved += 1;
        }
        println!(
            "  {name:12} whole-proof: {} ({} of {} sentences applied) | +4 repairs: {} | best-first: {}",
            if wp.proved { "proved" } else { "failed" },
            wp.sentences_applied,
            wp.sentences_total,
            if rep.proved { "proved" } else { "failed" },
            if bfs.proved() { "proved" } else { "failed" },
        );
    }
    println!(
        "whole-proof proves {wp_proved}/{} vs {repair_proved}/{} with 4 repair rounds vs best-first {bfs_proved}/{}",
        sample.len(),
        sample.len(),
        sample.len()
    );
}

//! Quickstart: prove a theorem from the FSCQ-lite corpus with the
//! best-first search, then replay the found proof through the kernel.
//!
//! ```sh
//! cargo run --release --example quickstart [theorem_name]
//! ```

use llm_fscq::corpus::Corpus;
use llm_fscq::oracle::profiles::ModelProfile;
use llm_fscq::oracle::prompt::{build_prompt, PromptConfig};
use llm_fscq::oracle::split::hint_set;
use llm_fscq::oracle::SimulatedModel;
use llm_fscq::search::{search, SearchConfig};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "app_nil_r".into());

    // Load the corpus (fast path: the checked-in proofs are trusted here;
    // `Corpus::load_checked()` replays all 238 of them through the kernel).
    let corpus = Corpus::load();
    let thm = corpus
        .dev
        .theorem(&name)
        .unwrap_or_else(|| panic!("no theorem named {name} in the corpus"));
    println!("theorem: {}.", thm.statement_text);
    println!("human proof: {}", thm.proof_text);

    // Build the hint-setting prompt the model will see, exactly as in the
    // paper: everything in scope before the theorem, with the human proofs
    // of the 50% hint split included.
    let env = corpus.dev.env_before(thm);
    let hints = hint_set(&corpus.dev);
    let prompt = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
    println!(
        "prompt: {} tokens, {} lemma statements visible, {} hint proofs",
        prompt.tokens,
        prompt.visible_lemmas.len(),
        prompt.hint_facts.len()
    );

    // Best-first search (width 8, query limit 128 — the paper's settings).
    let mut model = SimulatedModel::new(ModelProfile::gpt4o());
    let result = search(
        env,
        &thm.stmt,
        &thm.name,
        &mut model,
        &prompt,
        &SearchConfig::default(),
    );
    println!(
        "search: {} queries, {} valid / {} rejected / {} duplicate / {} timed-out tactics",
        result.stats.queries,
        result.stats.valid_tactics,
        result.stats.rejected,
        result.stats.duplicates,
        result.stats.timeouts
    );

    match result.script_text() {
        Some(script) => {
            println!("found proof: {script}");
            // Soundness check: replay through the kernel.
            llm_fscq::minicoq::replay::replay_script(env, &thm.stmt, &script)
                .expect("found proofs always replay");
            println!("replayed through the kernel: QED");
        }
        None => println!("no proof found ({:?})", result.outcome),
    }
}

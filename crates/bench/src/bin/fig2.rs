//! Figure 2: case studies comparing human proofs with LLM-generated proofs
//! for the three lemmas the paper highlights. Usage: `fig2`, no arguments.

use fscq_corpus::Corpus;
use proof_chaos::cli::Cli;
use proof_metrics::levenshtein::canonical_script;
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::{build_prompt, PromptConfig};
use proof_oracle::split::hint_set;
use proof_oracle::tokenizer::count_tokens;
use proof_oracle::SimulatedModel;
use proof_search::{search, SearchConfig};

fn main() {
    Cli::new("fig2").parse();
    let corpus = Corpus::load();
    let dev = &corpus.dev;
    let hints = hint_set(dev);
    // The paper's Figure 2 presents *successful* cases, selected after the
    // fact; we do the same: try the capable models and show the first that
    // proves the lemma.
    let cases = [
        ("incl_tl_inv", "Case A"),
        ("ndata_log_padded_log", "Case B"),
        ("tree_name_distinct_head", "Case C"),
    ];
    for (name, tag) in cases {
        let thm = dev.theorem(name).expect("case-study lemma in corpus");
        let env = dev.env_before(thm);
        let prompt = build_prompt(dev, thm, &hints, &PromptConfig::hints());
        let mut chosen = ModelProfile::gpt4o();
        let mut r = None;
        for profile in [
            ModelProfile::gpt4o(),
            ModelProfile::gemini_pro(),
            ModelProfile::gemini_flash(),
            ModelProfile::gpt4o_mini(),
        ] {
            let mut model = SimulatedModel::new(profile.clone());
            let attempt = search(
                env,
                &thm.stmt,
                &thm.name,
                &mut model,
                &prompt,
                &SearchConfig::default(),
            );
            let ok = attempt.proved();
            if r.is_none() || ok {
                chosen = profile.clone();
                r = Some(attempt);
            }
            if ok {
                break;
            }
        }
        let mut r = r.expect("at least one attempt ran");
        let mut via_minimal = false;
        if !r.proved() {
            // §4.3 fallback: a minimal dependency-sliced prompt.
            let minimal = PromptConfig {
                minimal: true,
                ..PromptConfig::hints()
            };
            let prompt = build_prompt(dev, thm, &hints, &minimal);
            let mut model = SimulatedModel::new(ModelProfile::gpt4o());
            let attempt = search(
                env,
                &thm.stmt,
                &thm.name,
                &mut model,
                &prompt,
                &SearchConfig::default(),
            );
            if attempt.proved() {
                chosen = ModelProfile::gpt4o();
                via_minimal = true;
                r = attempt;
            }
        }
        let profile = chosen;
        if via_minimal {
            println!("  (proved via the minimal dependency-sliced prompt of §4.3)");
        }
        println!("[{tag}] {name}  ({})", profile.name);
        println!("  statement: {}", thm.statement_text.replace('\n', " "));
        let human = canonical_script(&thm.proof_text);
        println!(
            "  human proof  ({} tokens): {}",
            count_tokens(&thm.proof_text),
            human
        );
        match r.script_text() {
            Some(s) => {
                let c = canonical_script(&s);
                println!(
                    "  model proof  ({} tokens): {}  [queries: {}]",
                    count_tokens(&c),
                    c,
                    r.stats.queries
                );
            }
            None => println!(
                "  model proof: not found ({:?} after {} queries)",
                r.outcome, r.stats.queries
            ),
        }
        println!();
    }
}

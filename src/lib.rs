//! LLM-guided best-first proof search for system software — an executable
//! reproduction of *"Can Large Language Models Verify System Software? A
//! Case Study Using FSCQ as a Benchmark"* (HotOS '25).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`minicoq`] — a small Coq-like proof assistant (logic, tactics,
//!   parser);
//! * [`vernac`] — the Gallina-lite vernacular language and proof-checked
//!   development loader;
//! * [`stm`] — the SerAPI-like state-transition machine the search drives;
//! * [`corpus`] — FSCQ-lite, the 294-theorem crash-safe file-system
//!   benchmark corpus;
//! * [`gen`] — the seeded procedural theorem generator (backward
//!   template-driven construction with recorded, kernel-replayed
//!   witnesses);
//! * [`oracle`] — the tactic-prediction model layer (prompts, profiles,
//!   and the offline simulator);
//! * [`search`] — the paper's best-first tactic tree search;
//! * [`analysis`] — the whole-corpus semantic analyzer (dependency graph,
//!   hint-loop/positivity/dead-symbol/rewrite/axiom passes, and the
//!   premise-ranking heuristic);
//! * [`metrics`] — the evaluation harness regenerating every table and
//!   figure.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for paper-vs-measured numbers.
//!
//! # Example: prove a corpus theorem and replay it through the kernel
//!
//! ```
//! use llm_fscq::corpus::Corpus;
//! use llm_fscq::oracle::profiles::ModelProfile;
//! use llm_fscq::oracle::prompt::{build_prompt, PromptConfig};
//! use llm_fscq::oracle::split::hint_set;
//! use llm_fscq::oracle::SimulatedModel;
//! use llm_fscq::search::{search, SearchConfig};
//!
//! let corpus = Corpus::load();
//! let thm = corpus.dev.theorem("app_nil_l").unwrap();
//! let env = corpus.dev.env_before(thm);
//! let hints = hint_set(&corpus.dev);
//! let prompt = build_prompt(&corpus.dev, thm, &hints, &PromptConfig::hints());
//!
//! let mut model = SimulatedModel::new(ModelProfile::gpt4o());
//! let result = search(env, &thm.stmt, &thm.name, &mut model, &prompt, &SearchConfig::default());
//! if let Some(script) = result.script_text() {
//!     // Every found proof replays through the kernel.
//!     llm_fscq::minicoq::replay::replay_script(env, &thm.stmt, &script).unwrap();
//! }
//! ```

pub use corpus_analysis as analysis;
pub use corpus_gen as gen;
pub use fscq_corpus as corpus;
pub use minicoq;
pub use minicoq_stm as stm;
pub use minicoq_vernac as vernac;
pub use proof_metrics as metrics;
pub use proof_oracle as oracle;
pub use proof_search as search;

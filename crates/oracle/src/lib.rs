//! The LLM tactic-oracle layer.
//!
//! The paper queries off-the-shelf LLMs for next-tactic candidates with log
//! probabilities (§3), feeding them a *proof context* built from the
//! current file and its imports — definitions and theorem statements in the
//! vanilla setting, plus the human proofs of a random half of the theorems
//! in the hint setting (§4, "Prompt design").
//!
//! This crate reproduces that interface:
//!
//! * [`tokenizer`] — a deterministic code tokenizer standing in for the
//!   providers' BPE tokenizers (only relative counts matter: length bins
//!   and context-window budgets);
//! * [`prompt`] — prompt construction: vanilla / hints, import closure,
//!   window truncation keeping the text nearest the goal, and the §4.3
//!   minimal dependency-sliced prompts;
//! * [`split`] — the deterministic 50% hint split;
//! * [`model`] — the [`model::TacticModel`] trait (prompt in, ranked
//!   tactics with logprobs out) that a real LLM client could implement;
//! * [`profiles`] — capability profiles for the five evaluated model
//!   configurations;
//! * [`sim`] — [`sim::SimulatedModel`]: a retrieval-augmented stochastic
//!   tactic predictor. No network access is available, so the simulator
//!   stands in for the real models; DESIGN.md documents why this preserves
//!   the behaviours the evaluation measures;
//! * [`sip`] — the pinned SipHash-1-3 every simulator hash runs on;
//! * [`chaos`] — [`chaos::ChaoticModel`]: a fault-injecting decorator
//!   reproducing the failure channel of a *networked* client (transport
//!   errors, garbage completions), driven by a seeded
//!   [`proof_chaos::FaultPlan`].

pub mod chaos;
pub mod model;
pub mod profiles;
pub mod prompt;
pub mod retrieval;
pub mod sim;
pub mod sip;
pub mod split;
pub mod tokenizer;

pub use chaos::ChaoticModel;
pub use model::{OracleFault, Proposal, QueryCtx, TacticModel};
pub use profiles::ModelProfile;
pub use prompt::{PromptInfo, PromptSetting};
pub use sim::SimulatedModel;

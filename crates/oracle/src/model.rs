//! The tactic-model interface.

use minicoq::env::Env;
use minicoq::goal::ProofState;

use crate::prompt::PromptInfo;

/// A proposed next tactic with its log probability (the search's scoring
/// signal, as in GPT-f).
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// The tactic sentence (without the final `.`).
    pub tactic: String,
    /// Log probability assigned by the model.
    pub logprob: f64,
}

/// Everything a model sees for one query: the prompt (fixed per theorem)
/// and the current proof state rendered by the proof assistant.
pub struct QueryCtx<'a> {
    /// The proof context prompt.
    pub prompt: &'a PromptInfo,
    /// The current proof state (the model reads its rendering; the
    /// simulator also inspects it structurally, standing in for a language
    /// model's reading of the same text).
    pub state: &'a ProofState,
    /// The environment the proof runs in (used by the simulator to mirror
    /// what the rendered goal exposes: symbols and shapes).
    pub env: &'a Env,
    /// The tactic sentences applied from the root to this state (the
    /// paper's prompts include the proof steps so far).
    pub path: &'a [String],
    /// Theorem name (seeds the simulator's deterministic noise).
    pub theorem: &'a str,
    /// Index of this query within the search (seeds noise; the paper's
    /// query limit counts these).
    pub query_index: u32,
}

/// Renders the full text a real LLM client would send for one query: the
/// theorem's proof-context prompt followed by the proof assistant's
/// rendering of the current goals and the instruction line. The offline
/// simulator reads the structured fields instead, but this is the exact
/// payload shape the paper describes sending to the APIs.
pub fn render_query(ctx: &QueryCtx<'_>) -> String {
    let mut out = ctx.prompt.text();
    out.push_str("\n\n(* Current proof state: *)\n");
    out.push_str(&ctx.state.display());
    if !ctx.path.is_empty() {
        out.push_str("\n(* Tactics so far: ");
        out.push_str(&ctx.path.join(". "));
        out.push_str(". *)\n");
    }
    out.push_str("\nNext tactic:");
    out
}

/// A failed oracle call, as a real LLM client observes it. Both variants
/// are transient from the caller's perspective: the search layer retries
/// them ([`RecoveryConfig`]) rather than treating them as a proof
/// outcome, because neither says anything about the theorem.
///
/// [`RecoveryConfig`]: https://docs.rs/proof-search
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleFault {
    /// The call itself failed (timeout, 5xx, connection reset).
    Transient(String),
    /// The call returned, but the payload could not be parsed into a
    /// tactic list (truncated JSON, refusal text, markdown fences). The
    /// raw text is attached for diagnostics.
    Garbage(String),
}

impl std::fmt::Display for OracleFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleFault::Transient(m) => write!(f, "transient oracle error: {m}"),
            OracleFault::Garbage(m) => write!(f, "garbage oracle output: {m}"),
        }
    }
}

impl std::error::Error for OracleFault {}

/// A next-tactic prediction model.
///
/// The paper's implementation calls an LLM API with the prompt plus the
/// rendered goals and requests `width` completions with logprobs; the
/// simulator implements the same contract offline.
pub trait TacticModel {
    /// A short display name (e.g. `GPT-4o (w/ hints)`).
    fn name(&self) -> &str;

    /// Proposes up to `width` candidate tactics, most probable first.
    fn propose(&mut self, ctx: &QueryCtx<'_>, width: usize) -> Vec<Proposal>;

    /// As [`propose`](TacticModel::propose), but with the failure channel a
    /// networked client has: the call can fail or return unusable output.
    /// The search layer drives this method and retries faults; the
    /// in-process simulator never fails, so the default just delegates.
    fn try_propose(
        &mut self,
        ctx: &QueryCtx<'_>,
        width: usize,
    ) -> Result<Vec<Proposal>, OracleFault> {
        Ok(self.propose(ctx, width))
    }

    /// Unused by the search; kept only because the benchmark package's
    /// timing wrapper overrides it.
    fn clone_boxed(&self) -> Option<Box<dyn TacticModel + Send>> {
        None
    }
}

//! Static analysis over tactic invocations and developments.
//!
//! The first (and currently only) pass is the *pre-flight checker*
//! ([`preflight_goal`], [`preflight_state`]): given a parsed tactic and the goal it would run
//! against, decide — without evaluating the tactic — whether it is
//! *guaranteed* to fail. The search layer uses it as a pre-filter ahead of
//! full STM execution, so the one invariant that matters is soundness:
//! the checker may say [`PreflightVerdict::Accept`] for a tactic that later
//! fails (a false negative costs only the evaluation the filter was meant
//! to save), but it must never reject a tactic the evaluator would accept.
//! Every check therefore either mirrors a deterministic prefix of the
//! evaluator exactly, or under-approximates it.

mod preflight;

pub use preflight::{
    preflight_goal, preflight_state, PreflightRejection, PreflightVerdict, ReasonCode,
};

//! Evaluation harness: experiments, metrics and report data (§4).
//!
//! * [`levenshtein`] — normalized similarity between generated and human
//!   proofs (Table 2's qualitative metric);
//! * [`experiment`] — the per-(model, setting) experiment runner producing
//!   per-theorem outcomes;
//! * [`elo`] — a deterministic Elo-style ladder ranking model
//!   configurations by pairwise per-theorem duels (the generated-corpus
//!   leaderboard);
//! * [`runner`] — the parallel, cache-aware engine every evaluation runs
//!   through: a work-stealing pool (bit-identical at any worker count,
//!   one worker running inline on the caller's thread) plus a
//!   content-hashed, checksummed on-disk cell cache, with cell-level panic
//!   isolation and optional seeded fault injection ([`proof_chaos`]); one
//!   call serves a whole grid and returns each cell's provenance;
//! * [`journal`] — the crash-safe JSONL progress journal behind
//!   `--resume`: completed cells are appended as they finish and served
//!   back without re-evaluation after an interrupted run;
//! * [`incremental`] — dirty-cone re-verification of an edited corpus
//!   with cone-keyed per-theorem caching and baseline-journal merging
//!   (`prove --incremental`);
//! * [`coverage`] — proof coverage by human-proof-length bin (Figure 1)
//!   and by category with expected-coverage correction (Table 1);
//! * [`report`] — plain-text renderers for every table and figure, plus
//!   JSON serialization so the bench binaries and EXPERIMENTS.md share one
//!   artifact format.

pub mod coverage;
pub mod elo;
pub mod experiment;
pub mod incremental;
pub mod journal;
pub mod levenshtein;
pub mod report;
pub mod runner;

pub use elo::{elo_ladder, render_leaderboard, EloEntry, EloLeaderboard};
pub use experiment::{CellConfig, CellResult, EvalScope, TheoremOutcome};
pub use incremental::{load_edited, run_incremental, IncrementalOutcome};
pub use journal::{Journal, JournalState};
pub use runner::{CellCrash, CellRun, CellSource, Runner};

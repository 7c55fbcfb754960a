//! A stats shim for the benchmark package.
//!
//! The kernel keeps no interner and no memo tables: substitution, weak-head
//! exposure and evaluation recompute their result on every call, and each
//! proof session deduplicates its states by their canonical goal keys
//! (`statehash::state_stamp`). What remains is the [`Stats`] struct and
//! [`stats`], always zero, because fscqbench still reads them.

/// Interner counters, all always 0: the term arena and the substitution,
/// weak-head and evaluation memos are deleted. Kept only because the
/// benchmark package reads them.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub arena_bytes: u64,
    pub term_hits: u64,
    pub term_misses: u64,
    pub subst_memo_hits: u64,
    pub subst_memo_misses: u64,
    pub whnf_hits: u64,
    pub whnf_misses: u64,
    pub eval_hits: u64,
    pub eval_misses: u64,
}

/// The interner counters; every field is 0.
pub fn stats() -> Stats {
    Stats::default()
}

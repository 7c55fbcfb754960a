//! Goal alpha-classes for duplicate-state detection.
//!
//! A goal interns in two levels: a structural map (goal value → id) in
//! front of a canonical map (alpha-invariant `statehash::goal_key` string →
//! id), so a [`GoalId`] identifies an *alpha-equivalence class* and two
//! goals are alpha-equal iff their ids are equal. The canonical key string
//! is computed once per structurally distinct goal and cached; the session
//! dedupe path ([`state_stamp`]) reuses it instead of re-deriving canonical
//! keys on every `stm::Add`.
//!
//! The kernel keeps no memo tables: substitution, weak-head exposure and
//! evaluation recompute their result on every call. Keying a memo meant
//! hash-consing the whole argument tree first, and that cost more than the
//! recomputation it saved.
//!
//! The goal table is process-global and append-only; ids are meaningful
//! within one process only and never serialized.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::goal::{Goal, ProofState};

/// Interned goal *alpha-class*; equal ids ⇔ equal canonical goal keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GoalId(pub u32);

#[derive(Default)]
struct GoalTable {
    /// Structural goal → class id (front cache: most `stm::Add`s re-see
    /// structurally identical goals).
    by_struct: HashMap<Goal, GoalId>,
    /// Canonical key → class id (the alpha-class identity proper).
    by_key: HashMap<Arc<str>, GoalId>,
    /// Per class id: the canonical key.
    keys: Vec<Arc<str>>,
    /// Interns answered by `by_struct`.
    struct_hits: u64,
    /// Interns that derived a canonical key.
    misses: u64,
    /// Approximate resident bytes (stored goals and keys).
    bytes: u64,
}

/// Nanoseconds spent acquiring the goal table's lock while tracing was
/// armed ([`proof_trace::enabled`]); untraced runs never read the clock.
static LOCK_WAIT_NS: AtomicU64 = AtomicU64::new(0);

/// The process-global goal table. Recovers from a poisoned lock: the table
/// is append-only and an id is handed out only after its key is stored, so
/// a panic mid-update leaves it valid.
fn goals() -> MutexGuard<'static, GoalTable> {
    static GOALS: OnceLock<Mutex<GoalTable>> = OnceLock::new();
    let table = GOALS.get_or_init(Default::default);
    let lock = || table.lock().unwrap_or_else(|p| p.into_inner());
    if !proof_trace::enabled() {
        return lock();
    }
    let start = Instant::now();
    let guard = lock();
    let waited = start.elapsed().as_nanos() as u64;
    LOCK_WAIT_NS.fetch_add(waited, Ordering::Relaxed);
    guard
}

/// A point-in-time snapshot of the goal table's counters, published to the
/// trace as `intern.*` gauges ([`publish_metrics`]) and read by fscqbench.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Goal interns answered by the structural front map.
    pub goal_struct_hits: u64,
    /// Goal interns that derived a canonical key.
    pub goal_misses: u64,
    /// Approximate resident bytes of the goal table.
    pub arena_bytes: u64,
    /// Nanoseconds spent acquiring the goal table's lock while tracing was
    /// armed; 0 in an untraced run.
    pub lock_wait_ns: u64,
    /// Always 0: the term arena is deleted. Kept only because the benchmark
    /// package reads it.
    pub term_hits: u64,
    /// Always 0, like [`Stats::term_hits`].
    pub term_misses: u64,
    /// Always 0: the substitution memo is deleted. Kept only because the
    /// benchmark package reads it.
    pub subst_memo_hits: u64,
    /// Always 0, like [`Stats::subst_memo_hits`].
    pub subst_memo_misses: u64,
    /// Always 0: the weak-head memo is deleted. Kept only because the
    /// benchmark package reads it.
    pub whnf_hits: u64,
    /// Always 0, like [`Stats::whnf_hits`].
    pub whnf_misses: u64,
    /// Always 0: the evaluation memo is deleted. Kept only because the
    /// benchmark package reads it.
    pub eval_hits: u64,
    /// Always 0, like [`Stats::eval_hits`].
    pub eval_misses: u64,
}

/// Interns a goal into its alpha-equivalence class.
pub fn goal_class(g: &Goal) -> GoalId {
    {
        let mut t = goals();
        if let Some(&id) = t.by_struct.get(g) {
            t.struct_hits += 1;
            return id;
        }
    }
    // Miss in the structural front cache: derive the canonical key (the
    // fast scoped keyer, no per-binder map clones) outside the lock.
    let key: Arc<str> = Arc::from(crate::statehash::goal_key(g).as_str());
    let mut t = goals();
    let id = match t.by_key.get(&key) {
        Some(&id) => id,
        None => {
            let id = GoalId(t.keys.len() as u32);
            t.keys.push(Arc::clone(&key));
            t.by_key.insert(Arc::clone(&key), id);
            t.bytes += key.len() as u64 + 32;
            id
        }
    };
    t.misses += 1;
    t.bytes += 160;
    t.by_struct.insert(g.clone(), id);
    id
}

/// The canonical key of a goal class (exactly `statehash::goal_key`).
pub fn goal_key_of(id: GoalId) -> Arc<str> {
    Arc::clone(&goals().keys[id.0 as usize])
}

/// A proof state's identity for duplicate detection: the canonical state
/// hash (byte-compatible with `statehash::state_hash`) plus the per-goal
/// alpha-class ids. Two states are alpha-equal iff their `classes` agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateStamp {
    /// `DefaultHasher` over the canonical state key.
    pub hash: u64,
    /// Alpha-class per goal, in goal order.
    pub classes: Vec<GoalId>,
    /// Cached canonical key per goal (shared with the goal table).
    pub keys: Vec<Arc<str>>,
}

impl StateStamp {
    fn finish(classes: Vec<GoalId>, keys: Vec<Arc<str>>) -> StateStamp {
        // Reproduce `state_key(st).hash(&mut DefaultHasher)`: the state key
        // is the goal keys joined by '\n', and `str`'s Hash impl feeds the
        // bytes then a 0xff terminator. DefaultHasher is a streaming
        // hasher, so splitting the byte stream across writes is sound.
        let mut h = DefaultHasher::new();
        for k in &keys {
            h.write(k.as_bytes());
            h.write(b"\n");
        }
        h.write_u8(0xff);
        StateStamp {
            hash: h.finish(),
            classes,
            keys,
        }
    }
}

/// Stamps a state from scratch.
pub fn state_stamp(st: &ProofState) -> StateStamp {
    let classes: Vec<GoalId> = st.goals.iter().map(|g| goal_class(g)).collect();
    let keys: Vec<Arc<str>> = classes.iter().map(|&id| goal_key_of(id)).collect();
    StateStamp::finish(classes, keys)
}

/// Stamps a state incrementally against its parent: trailing goals that
/// are *pointer-identical* to the parent's trailing goals (the unfocused
/// tail a tactic did not touch) reuse the parent's cached classes and
/// keys; only fresh goals are interned.
pub fn state_stamp_from_parent(
    st: &ProofState,
    parent: &ProofState,
    parent_stamp: &StateStamp,
) -> StateStamp {
    let n = st.goals.len();
    let pn = parent.goals.len();
    let mut shared = 0usize;
    while shared < n && shared < pn {
        let (a, b) = (&st.goals[n - 1 - shared], &parent.goals[pn - 1 - shared]);
        if !Arc::ptr_eq(a, b) {
            break;
        }
        shared += 1;
    }
    let mut classes = Vec::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    for g in &st.goals[..n - shared] {
        let id = goal_class(g);
        classes.push(id);
        keys.push(goal_key_of(id));
    }
    classes.extend_from_slice(&parent_stamp.classes[pn - shared..]);
    keys.extend_from_slice(&parent_stamp.keys[pn - shared..]);
    StateStamp::finish(classes, keys)
}

/// Snapshots the goal table's counters.
pub fn stats() -> Stats {
    let t = goals();
    Stats {
        goal_struct_hits: t.struct_hits,
        goal_misses: t.misses,
        arena_bytes: t.bytes,
        lock_wait_ns: LOCK_WAIT_NS.load(Ordering::Relaxed),
        ..Stats::default()
    }
}

/// Publishes the goal table's counters into the `proof-trace` metrics
/// registry (gauges, so re-publishing overwrites rather than accumulates).
/// Callers that export trace artifacts invoke this right before
/// snapshotting.
pub fn publish_metrics() {
    let s = stats();
    let set = |name: &str, v: u64| proof_trace::metrics::gauge_set(name, v as i64);
    set("intern.goal.hit", s.goal_struct_hits);
    set("intern.goal.miss", s.goal_misses);
    set("intern.arena.bytes", s.arena_bytes);
    set("intern.goal.lock_wait_ns", s.lock_wait_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula as F;
    use crate::sort::Sort;
    use crate::term::Term;

    #[test]
    fn goal_classes_follow_goal_keys() {
        let mk = |v: &str| {
            let mut g = Goal::new(F::Eq(Sort::nat(), Term::var(v), Term::var(v)));
            g.vars.push((v.to_string(), Sort::nat()));
            g
        };
        let a = mk("x");
        let b = mk("y");
        assert_eq!(goal_class(&a), goal_class(&b));
        assert_eq!(
            goal_key_of(goal_class(&a)).as_ref(),
            crate::statehash::goal_key(&a)
        );
        let mut c = mk("x");
        c.concl = F::True;
        assert_ne!(goal_class(&a), goal_class(&c));
    }

    #[test]
    fn state_stamp_matches_legacy_state_hash() {
        let mut g = Goal::new(F::Eq(Sort::nat(), Term::var("x"), Term::var("x")));
        g.vars.push(("x".to_string(), Sort::nat()));
        let st = ProofState::from_goals(vec![g.clone(), Goal::new(F::True)]);
        assert_eq!(state_stamp(&st).hash, crate::statehash::state_hash(&st));
    }

    #[test]
    fn incremental_stamp_agrees_with_full_stamp() {
        let mut g = Goal::new(F::Eq(Sort::nat(), Term::var("x"), Term::var("x")));
        g.vars.push(("x".to_string(), Sort::nat()));
        let parent = ProofState::from_goals(vec![g, Goal::new(F::True), Goal::new(F::False)]);
        let pstamp = state_stamp(&parent);
        let child = parent.replace_focused(vec![Goal::new(F::True)]);
        let inc = state_stamp_from_parent(&child, &parent, &pstamp);
        assert_eq!(inc, state_stamp(&child));
    }
}

//! Global hash-consing interner for kernel structures.
//!
//! Terms, formulas, goals and substitutions are interned into sharded,
//! append-only arenas; an interned id ([`TermId`], [`FormulaId`], ...) is a
//! stable handle whose equality is structural equality of the underlying
//! node. Every node caches, at intern time:
//!
//! * its exact free-variable set (plus a 64-bit approximate filter),
//! * its exact binder-name set (plus filter),
//! * its structural size and whether it contains metavariables.
//!
//! On top of the arenas sit memo tables for the *fuel-free* kernel
//! functions — substitution ([`subst_formula_memo`], [`subst_term_memo`])
//! and weak-head normalization ([`whnf_memo`]) — keyed on interned ids.
//! Substitution gains an O(set-intersection) early-exit: when the
//! substitution's domain cannot touch the subtree's free variables *and*
//! its range cannot collide with any binder in the subtree, the
//! substitution is the identity and no traversal happens at all.
//!
//! Fueled functions (`eval`, `unify`) are deliberately **not** memoized:
//! their fuel charges are part of the observable timeout taxonomy, and a
//! memo hit would change `fuel_spent` and hence which tactics time out.
//!
//! Goal interning is two-level: a structural map (goal value → id) in
//! front of a canonical map (alpha-invariant `statehash::goal_key` string →
//! id), so a [`GoalId`] identifies an *alpha-equivalence class* and two
//! goals are alpha-equal iff their ids are equal. The canonical key string
//! is computed once per structurally distinct goal and cached; the session
//! dedupe path ([`state_stamp`]) reuses it instead of re-deriving canonical
//! keys on every `stm::Add`.
//!
//! All tables are process-global and append-only (memo tables are capped
//! and cleared wholesale when full); ids are meaningful within one process
//! only and never serialized.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::formula::Formula;
use crate::goal::{Goal, ProofState};
use crate::sort::Sort;
use crate::subst::TermSubst;
use crate::term::{Pat, Term};

/// Interned variable / symbol name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Interned sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortId(pub u32);

/// Interned term node; equal ids ⇔ structurally equal terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(pub u32);

/// Interned formula node; equal ids ⇔ structurally equal formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormulaId(pub u32);

/// Interned goal *alpha-class*; equal ids ⇔ equal canonical goal keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GoalId(pub u32);

/// Interned substitution (sorted domain/range pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubstId(pub u32);

const SHARDS: usize = 8;
const SHARD_MASK: u32 = (SHARDS as u32) - 1;
/// Memo tables are cleared wholesale past this size: the kernel stays
/// correct (memoized functions are pure), only the hit rate dips.
const MEMO_CAP: usize = 1 << 20;

/// A compact variable set: a 64-bit approximate filter plus the exact
/// sorted id list. `bits == 0` ⇔ the set is empty.
#[derive(Debug, Clone)]
pub struct VarSet {
    /// Union of `1 << (id & 63)` over the members.
    pub bits: u64,
    /// The members, sorted ascending.
    pub ids: Arc<[u32]>,
}

impl VarSet {
    fn empty() -> VarSet {
        static EMPTY: OnceLock<Arc<[u32]>> = OnceLock::new();
        VarSet {
            bits: 0,
            ids: Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new()))),
        }
    }

    fn single(v: VarId) -> VarSet {
        VarSet {
            bits: 1u64 << (v.0 & 63),
            ids: Arc::from(vec![v.0]),
        }
    }

    fn from_sorted(ids: Vec<u32>) -> VarSet {
        let bits = ids.iter().fold(0u64, |b, v| b | (1u64 << (v & 63)));
        VarSet {
            bits,
            ids: Arc::from(ids),
        }
    }

    /// True when the two sets share no member. The bit filters answer most
    /// queries without touching the exact lists.
    pub fn disjoint(&self, other: &VarSet) -> bool {
        if self.bits & other.bits == 0 {
            return true;
        }
        // Merge-scan the sorted lists.
        let (a, b) = (&self.ids, &other.ids);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }
}

/// Merges sorted var-id lists into one sorted deduplicated list.
fn merge_sets(sets: &[&VarSet]) -> VarSet {
    match sets.len() {
        0 => VarSet::empty(),
        1 => sets[0].clone(),
        _ => {
            let mut out: Vec<u32> = Vec::new();
            for s in sets {
                out.extend_from_slice(&s.ids);
            }
            out.sort_unstable();
            out.dedup();
            VarSet::from_sorted(out)
        }
    }
}

/// `base` minus `remove` (both sorted).
fn diff_set(base: &VarSet, remove: &[u32]) -> VarSet {
    if remove.is_empty() || base.ids.is_empty() {
        return base.clone();
    }
    let out: Vec<u32> = base
        .ids
        .iter()
        .copied()
        .filter(|v| !remove.contains(v))
        .collect();
    if out.len() == base.ids.len() {
        return base.clone();
    }
    VarSet::from_sorted(out)
}

/// Per-node facts cached at intern time.
#[derive(Debug, Clone)]
pub struct NodeFacts {
    /// Exact free variables.
    pub fv: VarSet,
    /// Exact binder names occurring anywhere in the subtree (quantifier
    /// variables and match-pattern binders).
    pub bv: VarSet,
    /// Structural size (as [`Term::size`] counts it).
    pub size: u32,
    /// True when a metavariable occurs in the subtree.
    pub has_meta: bool,
}

/// Structural key of a term node over interned children.
#[derive(PartialEq, Eq, Hash)]
enum TermKey {
    Var(VarId),
    Meta(u32),
    App(VarId, Box<[TermId]>),
    Match(TermId, Box<[(PatKey, TermId)]>),
}

#[derive(PartialEq, Eq, Hash, Clone)]
enum PatKey {
    Ctor(VarId, Box<[VarId]>),
    Var(VarId),
    Wild,
}

/// Structural key of a formula node over interned children.
#[derive(PartialEq, Eq, Hash)]
enum FormulaKey {
    True,
    False,
    Eq(SortId, TermId, TermId),
    Pred(VarId, Box<[SortId]>, Box<[TermId]>),
    Not(FormulaId),
    And(FormulaId, FormulaId),
    Or(FormulaId, FormulaId),
    Implies(FormulaId, FormulaId),
    Iff(FormulaId, FormulaId),
    Forall(VarId, SortId, FormulaId),
    Exists(VarId, SortId, FormulaId),
    ForallSort(VarId, FormulaId),
    FMatch(TermId, Box<[(PatKey, FormulaId)]>),
}

#[derive(Default)]
struct TermShard {
    map: HashMap<TermKey, u32>,
    facts: Vec<NodeFacts>,
}

#[derive(Default)]
struct FormulaShard {
    map: HashMap<FormulaKey, u32>,
    facts: Vec<NodeFacts>,
}

#[derive(Default)]
struct GoalTable {
    /// Structural goal → class id (front cache: most `stm::Add`s re-see
    /// structurally identical goals).
    by_struct: HashMap<Goal, GoalId>,
    /// Canonical key → class id (the alpha-class identity proper).
    by_key: HashMap<Arc<str>, GoalId>,
    /// Per class id: the canonical key.
    keys: Vec<Arc<str>>,
}

struct SubstEntry {
    /// Domain variables, sorted.
    dom: VarSet,
    /// Free variables of the range terms, sorted.
    range_fv: VarSet,
}

#[derive(Default)]
struct SubstTable {
    map: HashMap<Box<[(VarId, TermId)]>, u32>,
    entries: Vec<SubstEntry>,
}

/// Interner-wide effectiveness counters (always on; plain atomics).
#[derive(Default)]
pub struct Counters {
    pub term_hits: AtomicU64,
    pub term_misses: AtomicU64,
    pub formula_hits: AtomicU64,
    pub formula_misses: AtomicU64,
    pub goal_struct_hits: AtomicU64,
    pub goal_misses: AtomicU64,
    pub subst_memo_hits: AtomicU64,
    pub subst_memo_misses: AtomicU64,
    pub subst_early_exits: AtomicU64,
    pub whnf_hits: AtomicU64,
    pub whnf_misses: AtomicU64,
    pub eval_hits: AtomicU64,
    pub eval_misses: AtomicU64,
    /// Approximate resident bytes across arenas (node facts + stored keys).
    pub arena_bytes: AtomicU64,
}

/// A point-in-time snapshot of [`Counters`], published to the trace as
/// `intern.*` gauges ([`publish_metrics`]) and read by fscqbench.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub term_hits: u64,
    pub term_misses: u64,
    pub formula_hits: u64,
    pub formula_misses: u64,
    pub goal_struct_hits: u64,
    pub goal_misses: u64,
    pub subst_memo_hits: u64,
    pub subst_memo_misses: u64,
    pub subst_early_exits: u64,
    pub whnf_hits: u64,
    pub whnf_misses: u64,
    pub eval_hits: u64,
    pub eval_misses: u64,
    pub arena_bytes: u64,
}

impl Stats {
    /// Intern requests answered from the arena, across node kinds.
    pub fn hits(&self) -> u64 {
        self.term_hits + self.formula_hits + self.goal_struct_hits
    }

    /// Intern requests that allocated a new node.
    pub fn misses(&self) -> u64 {
        self.term_misses + self.formula_misses + self.goal_misses
    }

    /// Dedup factor: interned references per allocated node.
    pub fn dedup_factor(&self) -> f64 {
        let m = self.misses();
        if m == 0 {
            return 0.0;
        }
        (self.hits() + m) as f64 / m as f64
    }
}

/// Forward map + dense id-indexed store for a small intern table.
type NameTable = (HashMap<Box<str>, u32>, Vec<Arc<str>>);
/// Fuelled evaluation memo: `(env uid, flags, node) -> (result, fuel cost)`.
type EvalMemo<Id, Node> = Mutex<HashMap<(u64, u8, Id), (Arc<Node>, u64)>>;

struct Interner {
    names: Mutex<NameTable>,
    sorts: Mutex<(HashMap<Sort, u32>, Vec<Sort>)>,
    terms: [Mutex<TermShard>; SHARDS],
    formulas: [Mutex<FormulaShard>; SHARDS],
    goals: Mutex<GoalTable>,
    substs: Mutex<SubstTable>,
    subst_f_memo: Mutex<HashMap<(FormulaId, SubstId), Arc<Formula>>>,
    subst_t_memo: Mutex<HashMap<(TermId, SubstId), Arc<Term>>>,
    whnf_memo: Mutex<HashMap<(u64, FormulaId), Arc<Formula>>>,
    eval_f_memo: EvalMemo<FormulaId, Formula>,
    eval_t_memo: EvalMemo<TermId, Term>,
    alpha_terms: Mutex<HashMap<TermId, u64>>,
    alpha_formulas: Mutex<HashMap<FormulaId, u64>>,
    counters: Counters,
}

fn interner() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| Interner {
        names: Mutex::new(Default::default()),
        sorts: Mutex::new(Default::default()),
        terms: Default::default(),
        formulas: Default::default(),
        goals: Mutex::new(Default::default()),
        substs: Mutex::new(Default::default()),
        subst_f_memo: Mutex::new(Default::default()),
        subst_t_memo: Mutex::new(Default::default()),
        whnf_memo: Mutex::new(Default::default()),
        eval_f_memo: Mutex::new(Default::default()),
        eval_t_memo: Mutex::new(Default::default()),
        alpha_terms: Mutex::new(Default::default()),
        alpha_formulas: Mutex::new(Default::default()),
        counters: Counters::default(),
    })
}

/// Recovers from a poisoned lock: the protected tables are append-only or
/// clear-on-cap, so a panic mid-update leaves them valid (worst case: a
/// reserved id whose facts were never pushed is unreachable, because the
/// id is only handed out after the push).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// Interns a name.
pub fn var_id(name: &str) -> VarId {
    let mut t = lock(&interner().names);
    if let Some(&id) = t.0.get(name) {
        return VarId(id);
    }
    let id = t.1.len() as u32;
    t.0.insert(name.into(), id);
    t.1.push(Arc::from(name));
    bump(&interner().counters.arena_bytes, name.len() as u64 + 16);
    VarId(id)
}

/// The name behind a [`VarId`].
pub fn var_name(v: VarId) -> Arc<str> {
    Arc::clone(&lock(&interner().names).1[v.0 as usize])
}

fn sort_id(s: &Sort) -> SortId {
    let mut t = lock(&interner().sorts);
    if let Some(&id) = t.0.get(s) {
        return SortId(id);
    }
    let id = t.1.len() as u32;
    t.0.insert(s.clone(), id);
    t.1.push(s.clone());
    bump(&interner().counters.arena_bytes, 48);
    SortId(id)
}

fn pat_key(p: &Pat) -> PatKey {
    match p {
        Pat::Ctor(c, vs) => PatKey::Ctor(var_id(c), vs.iter().map(|v| var_id(v)).collect()),
        Pat::Var(v) => PatKey::Var(var_id(v)),
        Pat::Wild => PatKey::Wild,
    }
}

fn pat_binder_ids(k: &PatKey) -> Vec<u32> {
    match k {
        PatKey::Ctor(_, vs) => vs.iter().map(|v| v.0).collect(),
        PatKey::Var(v) => vec![v.0],
        PatKey::Wild => Vec::new(),
    }
}

fn shard_of<K: Hash>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as u32 & SHARD_MASK) as usize
}

/// Facts for a term id (cheap: a shard lock and a clone of shared `Arc`s).
pub fn term_facts(id: TermId) -> NodeFacts {
    let shard = (id.0 & SHARD_MASK) as usize;
    lock(&interner().terms[shard]).facts[(id.0 >> 3) as usize].clone()
}

/// Facts for a formula id.
pub fn formula_facts(id: FormulaId) -> NodeFacts {
    let shard = (id.0 & SHARD_MASK) as usize;
    lock(&interner().formulas[shard]).facts[(id.0 >> 3) as usize].clone()
}

/// Interns a term, returning its id. Structural equality of terms is id
/// equality; facts are computed once per distinct node.
pub fn term_id(t: &Term) -> TermId {
    let (key, facts) = match t {
        Term::Var(v) => {
            let v = var_id(v);
            (
                TermKey::Var(v),
                NodeFacts {
                    fv: VarSet::single(v),
                    bv: VarSet::empty(),
                    size: 1,
                    has_meta: false,
                },
            )
        }
        Term::Meta(m) => (
            TermKey::Meta(*m),
            NodeFacts {
                fv: VarSet::empty(),
                bv: VarSet::empty(),
                size: 1,
                has_meta: true,
            },
        ),
        Term::App(f, args) => {
            let ids: Box<[TermId]> = args.iter().map(term_id).collect();
            let child: Vec<NodeFacts> = ids.iter().map(|&i| term_facts(i)).collect();
            let fv = merge_sets(&child.iter().map(|c| &c.fv).collect::<Vec<_>>());
            let bv = merge_sets(&child.iter().map(|c| &c.bv).collect::<Vec<_>>());
            let size = 1 + child.iter().map(|c| c.size).sum::<u32>();
            let has_meta = child.iter().any(|c| c.has_meta);
            (
                TermKey::App(var_id(f), ids),
                NodeFacts {
                    fv,
                    bv,
                    size,
                    has_meta,
                },
            )
        }
        Term::Match(scrut, arms) => {
            let sid = term_id(scrut);
            let arm_keys: Box<[(PatKey, TermId)]> = arms
                .iter()
                .map(|(p, rhs)| (pat_key(p), term_id(rhs)))
                .collect();
            let sfacts = term_facts(sid);
            let mut fv_parts: Vec<VarSet> = vec![sfacts.fv.clone()];
            let mut bv_parts: Vec<VarSet> = vec![sfacts.bv.clone()];
            let mut size = 1 + sfacts.size;
            let mut has_meta = sfacts.has_meta;
            for (pk, rid) in arm_keys.iter() {
                let rf = term_facts(*rid);
                let mut binders = pat_binder_ids(pk);
                binders.sort_unstable();
                fv_parts.push(diff_set(&rf.fv, &binders));
                bv_parts.push(merge_sets(&[&rf.bv, &VarSet::from_sorted(binders)]));
                size += rf.size;
                has_meta |= rf.has_meta;
            }
            let fv = merge_sets(&fv_parts.iter().collect::<Vec<_>>());
            let bv = merge_sets(&bv_parts.iter().collect::<Vec<_>>());
            (
                TermKey::Match(sid, arm_keys),
                NodeFacts {
                    fv,
                    bv,
                    size,
                    has_meta,
                },
            )
        }
    };
    let c = &interner().counters;
    let shard = shard_of(&key);
    let mut s = lock(&interner().terms[shard]);
    if let Some(&idx) = s.map.get(&key) {
        bump(&c.term_hits, 1);
        return TermId((idx << 3) | shard as u32);
    }
    let idx = s.facts.len() as u32;
    s.facts.push(facts);
    s.map.insert(key, idx);
    bump(&c.term_misses, 1);
    bump(&c.arena_bytes, 96);
    TermId((idx << 3) | shard as u32)
}

/// Interns a formula, returning its id.
pub fn formula_id(f: &Formula) -> FormulaId {
    fn binary(a: &Formula, b: &Formula) -> (FormulaId, FormulaId, NodeFacts) {
        let ia = formula_id(a);
        let ib = formula_id(b);
        let fa = formula_facts(ia);
        let fb = formula_facts(ib);
        let facts = NodeFacts {
            fv: merge_sets(&[&fa.fv, &fb.fv]),
            bv: merge_sets(&[&fa.bv, &fb.bv]),
            size: 1 + fa.size + fb.size,
            has_meta: fa.has_meta || fb.has_meta,
        };
        (ia, ib, facts)
    }
    let empty_facts = || NodeFacts {
        fv: VarSet::empty(),
        bv: VarSet::empty(),
        size: 1,
        has_meta: false,
    };
    let (key, facts) = match f {
        Formula::True => (FormulaKey::True, empty_facts()),
        Formula::False => (FormulaKey::False, empty_facts()),
        Formula::Eq(s, a, b) => {
            let ia = term_id(a);
            let ib = term_id(b);
            let fa = term_facts(ia);
            let fb = term_facts(ib);
            (
                FormulaKey::Eq(sort_id(s), ia, ib),
                NodeFacts {
                    fv: merge_sets(&[&fa.fv, &fb.fv]),
                    bv: merge_sets(&[&fa.bv, &fb.bv]),
                    size: 1 + fa.size + fb.size,
                    has_meta: fa.has_meta || fb.has_meta,
                },
            )
        }
        Formula::Pred(p, sorts, args) => {
            let ids: Box<[TermId]> = args.iter().map(term_id).collect();
            let child: Vec<NodeFacts> = ids.iter().map(|&i| term_facts(i)).collect();
            let facts = NodeFacts {
                fv: merge_sets(&child.iter().map(|c| &c.fv).collect::<Vec<_>>()),
                bv: merge_sets(&child.iter().map(|c| &c.bv).collect::<Vec<_>>()),
                size: 1 + child.iter().map(|c| c.size).sum::<u32>(),
                has_meta: child.iter().any(|c| c.has_meta),
            };
            (
                FormulaKey::Pred(var_id(p), sorts.iter().map(sort_id).collect(), ids),
                facts,
            )
        }
        Formula::Not(g) => {
            let ig = formula_id(g);
            let fg = formula_facts(ig);
            (
                FormulaKey::Not(ig),
                NodeFacts {
                    size: 1 + fg.size,
                    ..fg
                },
            )
        }
        Formula::And(a, b) => {
            let (ia, ib, facts) = binary(a, b);
            (FormulaKey::And(ia, ib), facts)
        }
        Formula::Or(a, b) => {
            let (ia, ib, facts) = binary(a, b);
            (FormulaKey::Or(ia, ib), facts)
        }
        Formula::Implies(a, b) => {
            let (ia, ib, facts) = binary(a, b);
            (FormulaKey::Implies(ia, ib), facts)
        }
        Formula::Iff(a, b) => {
            let (ia, ib, facts) = binary(a, b);
            (FormulaKey::Iff(ia, ib), facts)
        }
        Formula::Forall(v, s, body) | Formula::Exists(v, s, body) => {
            let vid = var_id(v);
            let ib = formula_id(body);
            let fb = formula_facts(ib);
            let facts = NodeFacts {
                fv: diff_set(&fb.fv, &[vid.0]),
                bv: merge_sets(&[&fb.bv, &VarSet::single(vid)]),
                size: 1 + fb.size,
                has_meta: fb.has_meta,
            };
            let key = if matches!(f, Formula::Forall(..)) {
                FormulaKey::Forall(vid, sort_id(s), ib)
            } else {
                FormulaKey::Exists(vid, sort_id(s), ib)
            };
            (key, facts)
        }
        Formula::ForallSort(v, body) => {
            // Binds a *sort* variable: term-level fv/bv are untouched.
            let ib = formula_id(body);
            let fb = formula_facts(ib);
            (
                FormulaKey::ForallSort(var_id(v), ib),
                NodeFacts {
                    size: 1 + fb.size,
                    ..fb
                },
            )
        }
        Formula::FMatch(scrut, arms) => {
            let sid = term_id(scrut);
            let arm_keys: Box<[(PatKey, FormulaId)]> = arms
                .iter()
                .map(|(p, rhs)| (pat_key(p), formula_id(rhs)))
                .collect();
            let sfacts = term_facts(sid);
            let mut fv_parts: Vec<VarSet> = vec![sfacts.fv.clone()];
            let mut bv_parts: Vec<VarSet> = vec![sfacts.bv.clone()];
            let mut size = 1 + sfacts.size;
            let mut has_meta = sfacts.has_meta;
            for (pk, rid) in arm_keys.iter() {
                let rf = formula_facts(*rid);
                let mut binders = pat_binder_ids(pk);
                binders.sort_unstable();
                fv_parts.push(diff_set(&rf.fv, &binders));
                bv_parts.push(merge_sets(&[&rf.bv, &VarSet::from_sorted(binders)]));
                size += rf.size;
                has_meta |= rf.has_meta;
            }
            (
                FormulaKey::FMatch(sid, arm_keys),
                NodeFacts {
                    fv: merge_sets(&fv_parts.iter().collect::<Vec<_>>()),
                    bv: merge_sets(&bv_parts.iter().collect::<Vec<_>>()),
                    size,
                    has_meta,
                },
            )
        }
    };
    let c = &interner().counters;
    let shard = shard_of(&key);
    let mut s = lock(&interner().formulas[shard]);
    if let Some(&idx) = s.map.get(&key) {
        bump(&c.formula_hits, 1);
        return FormulaId((idx << 3) | shard as u32);
    }
    let idx = s.facts.len() as u32;
    s.facts.push(facts);
    s.map.insert(key, idx);
    bump(&c.formula_misses, 1);
    bump(&c.arena_bytes, 112);
    FormulaId((idx << 3) | shard as u32)
}

/// Alpha-invariant hash of a term: the hash of its canonical
/// [`statehash::term_key`](crate::statehash::term_key), cached per id, so
/// alpha-variant terms hash equal and repeated hashing is O(1).
pub fn alpha_hash_term(t: &Term) -> u64 {
    let id = term_id(t);
    if let Some(&h) = lock(&interner().alpha_terms).get(&id) {
        return h;
    }
    let mut hasher = DefaultHasher::new();
    crate::statehash::term_key(t).hash(&mut hasher);
    let h = hasher.finish();
    lock(&interner().alpha_terms).insert(id, h);
    h
}

/// Alpha-invariant hash of a formula (see [`alpha_hash_term`]).
pub fn alpha_hash_formula(f: &Formula) -> u64 {
    let id = formula_id(f);
    if let Some(&h) = lock(&interner().alpha_formulas).get(&id) {
        return h;
    }
    let mut hasher = DefaultHasher::new();
    crate::statehash::formula_key(f).hash(&mut hasher);
    let h = hasher.finish();
    lock(&interner().alpha_formulas).insert(id, h);
    h
}

/// Interns a goal into its alpha-equivalence class.
pub fn goal_class(g: &Goal) -> GoalId {
    let c = &interner().counters;
    {
        let t = lock(&interner().goals);
        if let Some(&id) = t.by_struct.get(g) {
            bump(&c.goal_struct_hits, 1);
            return id;
        }
    }
    // Miss in the structural front cache: derive the canonical key (the
    // fast scoped keyer, no per-binder map clones) outside the lock.
    let key: Arc<str> = Arc::from(crate::statehash::goal_key(g).as_str());
    let mut t = lock(&interner().goals);
    let id = match t.by_key.get(&key) {
        Some(&id) => id,
        None => {
            let id = GoalId(t.keys.len() as u32);
            t.keys.push(Arc::clone(&key));
            t.by_key.insert(Arc::clone(&key), id);
            bump(&c.arena_bytes, key.len() as u64 + 32);
            id
        }
    };
    bump(&c.goal_misses, 1);
    bump(&c.arena_bytes, 160);
    t.by_struct.insert(g.clone(), id);
    id
}

/// The canonical key of a goal class (exactly `statehash::goal_key`).
pub fn goal_key_of(id: GoalId) -> Arc<str> {
    Arc::clone(&lock(&interner().goals).keys[id.0 as usize])
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

/// Interns a substitution. The entry caches the domain set and the free
/// variables of the range, which power the early-exit test.
pub fn subst_id(map: &TermSubst) -> SubstId {
    let mut pairs: Vec<(VarId, TermId)> =
        map.iter().map(|(v, t)| (var_id(v), term_id(t))).collect();
    pairs.sort_unstable_by_key(|(v, _)| v.0);
    let key: Box<[(VarId, TermId)]> = pairs.into();
    {
        let t = lock(&interner().substs);
        if let Some(&idx) = t.map.get(&key) {
            return SubstId(idx);
        }
    }
    let mut dom: Vec<u32> = key.iter().map(|(v, _)| v.0).collect();
    dom.sort_unstable();
    let range_facts: Vec<NodeFacts> = key.iter().map(|(_, t)| term_facts(*t)).collect();
    let range_fv = merge_sets(&range_facts.iter().map(|f| &f.fv).collect::<Vec<_>>());
    let entry = SubstEntry {
        dom: VarSet::from_sorted(dom),
        range_fv,
    };
    let mut t = lock(&interner().substs);
    if let Some(&idx) = t.map.get(&key) {
        return SubstId(idx);
    }
    let idx = t.entries.len() as u32;
    t.entries.push(entry);
    t.map.insert(key, idx);
    bump(&interner().counters.arena_bytes, 128);
    SubstId(idx)
}

fn subst_entry(id: SubstId) -> (VarSet, VarSet) {
    let t = lock(&interner().substs);
    let e = &t.entries[id.0 as usize];
    (e.dom.clone(), e.range_fv.clone())
}

/// Memoized capture-avoiding formula substitution.
///
/// Early-exit: when `map`'s domain is disjoint from the formula's free
/// variables *and* `map`'s range variables are disjoint from every binder
/// in the formula, the substitution neither replaces anything nor renames
/// any binder, so the result is the input unchanged. Otherwise the result
/// is computed once per `(formula, substitution)` pair via `raw` and
/// cached.
pub fn subst_formula_memo(f: &Formula, map: &TermSubst, raw: impl FnOnce() -> Formula) -> Formula {
    let c = &interner().counters;
    let fid = formula_id(f);
    let sid = subst_id(map);
    let facts = formula_facts(fid);
    let (dom, range_fv) = subst_entry(sid);
    if facts.fv.disjoint(&dom) && facts.bv.disjoint(&range_fv) {
        bump(&c.subst_early_exits, 1);
        return f.clone();
    }
    if let Some(hit) = lock(&interner().subst_f_memo).get(&(fid, sid)) {
        bump(&c.subst_memo_hits, 1);
        return (**hit).clone();
    }
    bump(&c.subst_memo_misses, 1);
    let out = raw();
    let mut memo = lock(&interner().subst_f_memo);
    if memo.len() >= MEMO_CAP {
        memo.clear();
    }
    memo.insert((fid, sid), Arc::new(out.clone()));
    out
}

/// Memoized capture-avoiding term substitution (see
/// [`subst_formula_memo`]).
pub fn subst_term_memo(t: &Term, map: &TermSubst, raw: impl FnOnce() -> Term) -> Term {
    let c = &interner().counters;
    let tid = term_id(t);
    let sid = subst_id(map);
    let facts = term_facts(tid);
    let (dom, range_fv) = subst_entry(sid);
    if facts.fv.disjoint(&dom) && facts.bv.disjoint(&range_fv) {
        bump(&c.subst_early_exits, 1);
        return t.clone();
    }
    if let Some(hit) = lock(&interner().subst_t_memo).get(&(tid, sid)) {
        bump(&c.subst_memo_hits, 1);
        return (**hit).clone();
    }
    bump(&c.subst_memo_misses, 1);
    let out = raw();
    let mut memo = lock(&interner().subst_t_memo);
    if memo.len() >= MEMO_CAP {
        memo.clear();
    }
    memo.insert((tid, sid), Arc::new(out.clone()));
    out
}

/// Memoized fuel-free weak-head normalization, keyed on the environment's
/// unique id and the interned formula. Environments are immutable once
/// shared (the loader clones-then-extends, and a clone gets a fresh uid),
/// so a `(uid, formula)` pair always maps to one result.
pub fn whnf_memo(env_uid: u64, f: &Formula, raw: impl FnOnce() -> Formula) -> Formula {
    let c = &interner().counters;
    let fid = formula_id(f);
    if let Some(hit) = lock(&interner().whnf_memo).get(&(env_uid, fid)) {
        bump(&c.whnf_hits, 1);
        return (**hit).clone();
    }
    bump(&c.whnf_misses, 1);
    let out = raw();
    let mut memo = lock(&interner().whnf_memo);
    if memo.len() >= MEMO_CAP {
        memo.clear();
    }
    memo.insert((env_uid, fid), Arc::new(out.clone()));
    out
}

/// Memoized fueled formula normalization. Keyed on `(environment uid,
/// eval-mode tag, formula)`; the stored value carries the exact fuel cost
/// of the original successful run, which [`Fuel::replay`] re-charges so a
/// hit is indistinguishable from re-evaluating — including timing out at
/// the same point when the caller's remaining budget is smaller than the
/// recorded cost. Runs that themselves timed out are not cached (their
/// cost is a lower bound, not an exact figure).
///
/// [`Fuel::replay`]: crate::fuel::Fuel::replay
pub fn eval_formula_memo(
    env_uid: u64,
    mode_tag: u8,
    f: &Formula,
    fuel: &mut crate::fuel::Fuel,
    raw: impl FnOnce(&mut crate::fuel::Fuel) -> Result<Formula, crate::error::TacticError>,
) -> Result<Formula, crate::error::TacticError> {
    let c = &interner().counters;
    let fid = formula_id(f);
    let hit = lock(&interner().eval_f_memo)
        .get(&(env_uid, mode_tag, fid))
        .cloned();
    if let Some((res, cost)) = hit {
        bump(&c.eval_hits, 1);
        return fuel.replay(cost).map(|()| (*res).clone());
    }
    bump(&c.eval_misses, 1);
    let before = fuel.spent();
    let out = raw(fuel);
    if let Ok(res) = &out {
        let cost = fuel.spent() - before;
        let mut memo = lock(&interner().eval_f_memo);
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert((env_uid, mode_tag, fid), (Arc::new(res.clone()), cost));
    }
    out
}

/// Memoized fueled term normalization (see [`eval_formula_memo`]).
pub fn eval_term_memo(
    env_uid: u64,
    mode_tag: u8,
    t: &Term,
    fuel: &mut crate::fuel::Fuel,
    raw: impl FnOnce(&mut crate::fuel::Fuel) -> Result<Term, crate::error::TacticError>,
) -> Result<Term, crate::error::TacticError> {
    let c = &interner().counters;
    let tid = term_id(t);
    let hit = lock(&interner().eval_t_memo)
        .get(&(env_uid, mode_tag, tid))
        .cloned();
    if let Some((res, cost)) = hit {
        bump(&c.eval_hits, 1);
        return fuel.replay(cost).map(|()| (*res).clone());
    }
    bump(&c.eval_misses, 1);
    let before = fuel.spent();
    let out = raw(fuel);
    if let Ok(res) = &out {
        let cost = fuel.spent() - before;
        let mut memo = lock(&interner().eval_t_memo);
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert((env_uid, mode_tag, tid), (Arc::new(res.clone()), cost));
    }
    out
}

/// Snapshots the interner counters.
pub fn stats() -> Stats {
    let c = &interner().counters;
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
    Stats {
        term_hits: get(&c.term_hits),
        term_misses: get(&c.term_misses),
        formula_hits: get(&c.formula_hits),
        formula_misses: get(&c.formula_misses),
        goal_struct_hits: get(&c.goal_struct_hits),
        goal_misses: get(&c.goal_misses),
        subst_memo_hits: get(&c.subst_memo_hits),
        subst_memo_misses: get(&c.subst_memo_misses),
        subst_early_exits: get(&c.subst_early_exits),
        whnf_hits: get(&c.whnf_hits),
        whnf_misses: get(&c.whnf_misses),
        eval_hits: get(&c.eval_hits),
        eval_misses: get(&c.eval_misses),
        arena_bytes: get(&c.arena_bytes),
    }
}

/// Publishes the interner counters into the `proof-trace` metrics registry
/// (gauges, so re-publishing overwrites rather than accumulates). Callers
/// that export trace artifacts invoke this right before snapshotting.
pub fn publish_metrics() {
    let s = stats();
    let set = |name: &str, v: u64| proof_trace::metrics::gauge_set(name, v as i64);
    set("intern.term.hit", s.term_hits);
    set("intern.term.miss", s.term_misses);
    set("intern.formula.hit", s.formula_hits);
    set("intern.formula.miss", s.formula_misses);
    set("intern.goal.hit", s.goal_struct_hits);
    set("intern.goal.miss", s.goal_misses);
    set("intern.subst.memo_hit", s.subst_memo_hits);
    set("intern.subst.memo_miss", s.subst_memo_misses);
    set("intern.subst.early_exit", s.subst_early_exits);
    set("intern.whnf.hit", s.whnf_hits);
    set("intern.whnf.miss", s.whnf_misses);
    set("intern.eval.hit", s.eval_hits);
    set("intern.eval.miss", s.eval_misses);
    set("intern.arena.bytes", s.arena_bytes);
    set(
        "intern.dedup.factor_x1000",
        (s.dedup_factor() * 1000.0) as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula as F;

    #[test]
    fn interning_is_structural() {
        let a = Term::App("add".into(), vec![Term::var("x"), Term::nat(2)]);
        let b = Term::App("add".into(), vec![Term::var("x"), Term::nat(2)]);
        let c = Term::App("add".into(), vec![Term::var("y"), Term::nat(2)]);
        assert_eq!(term_id(&a), term_id(&b));
        assert_ne!(term_id(&a), term_id(&c));
    }

    #[test]
    fn facts_track_free_and_bound_vars() {
        // match l with nil => x | cons y ys => y end — fv {l, x}, bv {y, ys}.
        let t = Term::Match(
            Box::new(Term::var("l")),
            vec![
                (Pat::Ctor("nil".into(), vec![]), Term::var("x")),
                (
                    Pat::Ctor("cons".into(), vec!["y".into(), "ys".into()]),
                    Term::var("y"),
                ),
            ],
        );
        let facts = term_facts(term_id(&t));
        let names = |s: &VarSet| -> Vec<String> {
            s.ids
                .iter()
                .map(|&v| var_name(VarId(v)).to_string())
                .collect()
        };
        let mut fv = names(&facts.fv);
        fv.sort();
        assert_eq!(fv, vec!["l".to_string(), "x".to_string()]);
        let mut bv = names(&facts.bv);
        bv.sort();
        assert_eq!(bv, vec!["y".to_string(), "ys".to_string()]);
        assert_eq!(facts.size as usize, t.size());
    }

    #[test]
    fn alpha_hash_is_alpha_invariant() {
        let f1 = F::forall(
            "x",
            Sort::nat(),
            F::Eq(Sort::nat(), Term::var("x"), Term::var("x")),
        );
        let f2 = F::forall(
            "z",
            Sort::nat(),
            F::Eq(Sort::nat(), Term::var("z"), Term::var("z")),
        );
        assert_ne!(formula_id(&f1), formula_id(&f2));
        assert_eq!(alpha_hash_formula(&f1), alpha_hash_formula(&f2));
    }

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

    #[test]
    fn subst_early_exit_is_identity() {
        // (forall x, x = x)[y := 3] — domain unreachable, range collides
        // with no binder: must early-exit to the identical formula.
        let f = F::forall(
            "x",
            Sort::nat(),
            F::Eq(Sort::nat(), Term::var("x"), Term::var("x")),
        );
        let mut m = TermSubst::new();
        m.insert("y".to_string(), Term::nat(3));
        let before = stats().subst_early_exits;
        let out = subst_formula_memo(&f, &m, || unreachable!("must early-exit"));
        assert_eq!(out, f);
        assert!(stats().subst_early_exits > before);
    }

    #[test]
    fn subst_range_collision_disables_early_exit() {
        // (forall x, x = x)[y := x]: the range mentions the binder x, so
        // the raw path must run (it renames the binder).
        let f = F::forall(
            "x",
            Sort::nat(),
            F::Eq(Sort::nat(), Term::var("x"), Term::var("x")),
        );
        let mut m = TermSubst::new();
        m.insert("y".to_string(), Term::var("x"));
        let mut ran = false;
        let _ = subst_formula_memo(&f, &m, || {
            ran = true;
            crate::subst::subst_formula(&f, &m)
        });
        assert!(ran, "raw substitution must run on binder/range collision");
    }
}

//! The best-first tactic tree search.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use minicoq::env::Env;
use minicoq::formula::Formula;
use minicoq_stm::{AddError, ProofSession, SessionConfig, StateId};
use proof_chaos::FaultPlan;
use proof_oracle::{ChaoticModel, PromptInfo, Proposal, QueryCtx, TacticModel};
use serde::Serialize;

/// Search strategies; `BestFirst` is the paper's, the others are ablation
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Strategy {
    /// GPT-f-style best-first search on cumulative logprob.
    BestFirst,
    /// Greedy linear search (Rango-style trial-and-error): always expand
    /// the most recent state's best remaining proposal, never revisiting
    /// siblings of ancestors.
    Greedy,
    /// Breadth-first expansion (FIFO).
    BreadthFirst,
}

/// How (and whether) premise ranking steers the search.
///
/// `Off` leaves the environment and the oracle's proposal order untouched,
/// byte for byte. `Graph` reorders every hint database by dependency-graph
/// distance to the goal (`corpus_analysis::premise::reranked_env`, the
/// PR 5 baseline). `Learned` reorders hint databases *and* each query's
/// proposal order by the installed attempt-mined scorer
/// (`corpus_analysis::score`), falling back to `Graph` when no model is
/// installed. Every mode is a permutation only — no hint or proposal is
/// added or dropped — so found scripts always replay against the unranked
/// environment. Unlike `preflight`, ranking *can* change which proofs are
/// found (hint order is observable through `auto`'s traversal, and
/// proposal order drives the frontier), so it defaults to `Off`;
/// `--premise-rank=graph|learned` opts in for A/B runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PremiseRank {
    /// No reordering: the caller's environment is used as-is.
    Off,
    /// Hint databases sorted by dependency distance to the goal.
    Graph,
    /// Hint databases and oracle proposal order sorted by learned score.
    Learned,
}

/// Search hyper-parameters (§4 "Best-first search's hyperparameters").
#[derive(Debug, Clone, Serialize)]
pub struct SearchConfig {
    /// Proposals requested per query (8: Gemini's maximum outputs).
    pub width: usize,
    /// Model-query limit (128, as in GPT-f).
    pub query_limit: u32,
    /// Fuel budget per tactic (the deterministic 5-second timeout).
    pub tactic_fuel: u64,
    /// Reject duplicate proof states (§3's invalid-tactic rule 2).
    pub dedupe_states: bool,
    /// Which frontier discipline to use.
    pub strategy: Strategy,
    /// Statically reject guaranteed-to-fail proposals before executing
    /// them (`minicoq::analysis` pre-flight). Sound — search output is
    /// identical with the filter on or off, only cheaper — so it defaults
    /// to on; `--no-preflight` turns it off for A/B runs.
    pub preflight: bool,
    /// Premise-ranking mode; see [`PremiseRank`]. Defaults to
    /// [`PremiseRank::Off`], which leaves the environment untouched.
    pub premise_rank: PremiseRank,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            width: 8,
            query_limit: 128,
            tactic_fuel: minicoq::fuel::DEFAULT_TACTIC_FUEL,
            dedupe_states: true,
            strategy: Strategy::BestFirst,
            preflight: true,
            premise_rank: PremiseRank::Off,
        }
    }
}

/// How the search recovers from oracle-layer failure, and which fault
/// plan (if any) is injecting failures to recover from.
///
/// Kept apart from [`SearchConfig`] deliberately: recovery parameters
/// describe the *transport*, not the experiment — they must not affect
/// results (a retried query reuses its `query_index`, so the recovered
/// answer is the one a clean run gets) and therefore must not enter the
/// cell cache key, which is derived from `SearchConfig`'s `Debug` form.
#[derive(Clone)]
pub struct RecoveryConfig {
    /// Retries per failed oracle call before giving up (on top of the
    /// initial attempt).
    pub oracle_retries: u32,
    /// Base backoff before the first retry; doubles per retry.
    pub backoff_ms: u64,
    /// Ceiling on any single backoff sleep.
    pub backoff_cap_ms: u64,
    /// Seeded fault plan to inject oracle faults and prover stalls;
    /// `None` runs clean (and then the retry loop never engages).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Within-proof parallel expansion width: how many frontier entries
    /// to expand speculatively at once, each query answered on its own
    /// thread by a clone of the model. `1` (the default) is the plain
    /// sequential search: the same loop at width one. Like the retry knobs
    /// this is transport only — results commit serially in exactly the
    /// order a width-one search would pop, and speculation that order
    /// invalidates is requeued and recomputed — so every value yields
    /// byte-identical results and the knob stays out of the cell cache key.
    pub proof_jobs: usize,
    /// Record one [`AttemptRec`] per committed proposal into
    /// [`SearchStats::attempts`]. A side channel in the trace-crate
    /// sense: records are *read* from the finished search (attempt-log
    /// mining) and never flow back into behavior, so the knob lives here
    /// with the transport parameters, outside the cell cache key, and
    /// defaults to off so `SearchStats` serializes unchanged.
    pub collect_attempts: bool,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            oracle_retries: 3,
            backoff_ms: 10,
            backoff_cap_ms: 200,
            fault_plan: None,
            proof_jobs: 1,
            collect_attempts: false,
        }
    }
}

impl RecoveryConfig {
    /// A recovery layer driving the given fault plan, with default retry
    /// and backoff parameters.
    pub fn with_plan(plan: Arc<FaultPlan>) -> RecoveryConfig {
        RecoveryConfig {
            fault_plan: Some(plan),
            ..Default::default()
        }
    }
}

/// Why the search ended.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Outcome {
    /// A complete proof was found.
    Proved {
        /// The tactic sentences from the root to the proved state.
        script: Vec<String>,
    },
    /// The frontier emptied before the query limit.
    Stuck,
    /// The query limit was exhausted.
    Fuelout,
}

/// How one committed proposal fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AttemptOutcome {
    /// Produced a new live proof state.
    Applied,
    /// Closed the final goal: the search ends Proved on this attempt.
    Proved,
    /// Led to an already-seen proof state.
    Duplicate,
    /// Exceeded the tactic fuel budget.
    Timeout,
    /// Statically pruned by the pre-flight analyzer.
    Preflight,
    /// Rejected by the proof assistant.
    Rejected,
}

impl AttemptOutcome {
    /// Stable lower-case label (the attempt log's `outcome` field).
    pub fn label(self) -> &'static str {
        match self {
            AttemptOutcome::Applied => "applied",
            AttemptOutcome::Proved => "proved",
            AttemptOutcome::Duplicate => "duplicate",
            AttemptOutcome::Timeout => "timeout",
            AttemptOutcome::Preflight => "preflight",
            AttemptOutcome::Rejected => "rejected",
        }
    }
}

/// One charged proposal, recorded when
/// [`RecoveryConfig::collect_attempts`] is on — the raw material the
/// `rank` pipeline mines for training labels.
#[derive(Debug, Clone, Serialize)]
pub struct AttemptRec {
    /// The proposed tactic, verbatim.
    pub tactic: String,
    /// State id the proposal was applied at.
    pub parent: u64,
    /// Resulting state id, when the proposal applied cleanly.
    pub child: Option<u64>,
    /// How the commit fared.
    pub outcome: AttemptOutcome,
    /// Depth of the parent node.
    pub depth: u32,
    /// Oracle query the proposal came from.
    pub query: u32,
    /// Expansions charged when the attempt was tried.
    pub expansions: u64,
    /// Whether the attempt lies on the final proved script's path
    /// (marked after the search ends).
    pub on_path: bool,
}

/// Counters describing one search run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SearchStats {
    /// Model queries issued.
    pub queries: u32,
    /// Proposals that produced new states.
    pub valid_tactics: u32,
    /// Proposals rejected by the proof assistant.
    pub rejected: u32,
    /// Proposals leading to an already-seen proof state.
    pub duplicates: u32,
    /// Proposals exceeding the tactic budget.
    pub timeouts: u32,
    /// Proposals pruned by the static pre-flight analyzer (a subset of
    /// what `rejected` would otherwise count), never executed.
    pub preflight_pruned: u32,
    /// Pre-flight prunes per reason code (keys are
    /// [`minicoq::analysis::ReasonCode::code`] strings).
    pub preflight_reasons: BTreeMap<String, u32>,
    /// Total kernel fuel consumed.
    pub fuel_spent: u64,
    /// Live states in the final tree.
    pub tree_size: usize,
    /// Oracle calls that failed (transient errors or garbage output) and
    /// were retried. Zero in a clean run.
    pub oracle_faults: u32,
    /// Retry attempts issued for those faults.
    pub oracle_retries: u32,
    /// State ids in the order the search expanded them — the golden
    /// transcript the determinism suite compares across runs. Bounded by
    /// the query limit.
    pub expansions: Vec<u64>,
    /// Per-proposal attempt records; populated only when
    /// [`RecoveryConfig::collect_attempts`] is set, and skipped when
    /// empty so default-run serializations are unchanged.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub attempts: Vec<AttemptRec>,
}

/// The result of a search run.
#[derive(Debug, Clone, Serialize)]
pub struct SearchResult {
    /// Proved / Stuck / Fuelout.
    pub outcome: Outcome,
    /// Run counters.
    pub stats: SearchStats,
}

impl SearchResult {
    /// True when the theorem was proved.
    pub fn proved(&self) -> bool {
        matches!(self.outcome, Outcome::Proved { .. })
    }

    /// The found proof rendered as a script, if any.
    pub fn script_text(&self) -> Option<String> {
        match &self.outcome {
            Outcome::Proved { script } => Some(format!("{}.", script.join(". "))),
            _ => None,
        }
    }
}

/// A frontier entry: ordered by score, tie-broken by insertion order for
/// determinism.
#[derive(Clone)]
struct Entry {
    score: f64,
    seq: u64,
    id: StateId,
    depth: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on score; older entries win ties (stable).
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An entry under the greedy discipline: deepest first, then best score,
/// then oldest. `seq` is unique per entry, so the order is total and the
/// maximum unambiguous.
#[derive(Clone)]
struct GreedyEntry(Entry);

impl PartialEq for GreedyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for GreedyEntry {}
impl PartialOrd for GreedyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GreedyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .depth
            .cmp(&other.0.depth)
            .then_with(|| {
                self.0
                    .score
                    .partial_cmp(&other.0.score)
                    .unwrap_or(Ordering::Equal)
            })
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// The search frontier, one priority structure per discipline.
///
/// Earlier versions kept a best-first-ordered `BinaryHeap` for every
/// strategy and emulated Greedy/BreadthFirst by draining and rebuilding
/// the whole heap on each pop — O(n) per pop, O(n²) per search. Each
/// discipline now pops in O(log n) or O(1); the expansion order is
/// unchanged (each discipline's order is total thanks to the unique `seq`,
/// so the selected maximum is the same — asserted against a reference
/// implementation in `frontier_matches_drain_and_scan_reference`).
enum Frontier {
    /// Max-heap on cumulative score.
    BestFirst(BinaryHeap<Entry>),
    /// Max-heap on (depth, score, oldest): a linear dive with backtracking
    /// only when a branch dies.
    Greedy(BinaryHeap<GreedyEntry>),
    /// FIFO. Entries are pushed in increasing `seq` order, so the front is
    /// always the minimum-`seq` entry.
    BreadthFirst(VecDeque<Entry>),
}

impl Frontier {
    fn new(strategy: Strategy) -> Frontier {
        match strategy {
            Strategy::BestFirst => Frontier::BestFirst(BinaryHeap::new()),
            Strategy::Greedy => Frontier::Greedy(BinaryHeap::new()),
            Strategy::BreadthFirst => Frontier::BreadthFirst(VecDeque::new()),
        }
    }

    fn push(&mut self, entry: Entry) {
        match self {
            Frontier::BestFirst(heap) => heap.push(entry),
            Frontier::Greedy(heap) => heap.push(GreedyEntry(entry)),
            Frontier::BreadthFirst(queue) => {
                debug_assert!(queue.back().map(|b| b.seq < entry.seq).unwrap_or(true));
                queue.push_back(entry);
            }
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        match self {
            Frontier::BestFirst(heap) => heap.pop(),
            Frontier::Greedy(heap) => heap.pop().map(|g| g.0),
            Frontier::BreadthFirst(queue) => queue.pop_front(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Frontier::BestFirst(heap) => heap.len(),
            Frontier::Greedy(heap) => heap.len(),
            Frontier::BreadthFirst(queue) => queue.len(),
        }
    }

    /// True when the current top of the frontier would be popped before
    /// `entry` under this discipline's (total) order — the speculation
    /// check of a batch wider than one: a batched entry only commits while
    /// nothing pushed since outranks it. Under BreadthFirst everything in
    /// the queue was pushed after any already-popped entry, so the answer
    /// is always no.
    fn outranks(&self, entry: &Entry) -> bool {
        match self {
            Frontier::BestFirst(heap) => heap.peek().map(|t| t > entry).unwrap_or(false),
            Frontier::Greedy(heap) => heap
                .peek()
                .map(|t| *t > GreedyEntry(entry.clone()))
                .unwrap_or(false),
            Frontier::BreadthFirst(queue) => {
                queue.front().map(|t| t.seq < entry.seq).unwrap_or(false)
            }
        }
    }
}

/// One oracle call under the bounded-retry transport loop. Returns the
/// proposals plus the fault and retry counts the call consumed. A retried
/// query reuses its `query_index` (it is fixed in `ctx`), so the
/// recovered answer is the one a clean run gets. Panics when faults
/// outlast every retry — the oracle is genuinely down, and the cell
/// runner's panic isolation converts that into a typed crashed-cell
/// record for journaled resume.
fn propose_with_retry(
    model: &mut dyn TacticModel,
    ctx: &QueryCtx<'_>,
    width: usize,
    recovery: &RecoveryConfig,
) -> (Vec<Proposal>, u32, u32) {
    let mut faults = 0u32;
    let mut attempt = 0u32;
    let props = loop {
        match model.try_propose(ctx, width) {
            Ok(props) => break props,
            Err(fault) => {
                faults += 1;
                // Always-on: fault recovery is the one signal that must
                // survive even untraced runs (satellite reporting reads it
                // from the registry), and faults are rare enough that a
                // counter bump is free.
                proof_trace::metrics::counter_inc("search.oracle_faults");
                if attempt >= recovery.oracle_retries {
                    panic!(
                        "oracle failed after {} retries at {} q{}: {fault}",
                        recovery.oracle_retries, ctx.theorem, ctx.query_index
                    );
                }
                attempt += 1;
                proof_trace::metrics::counter_inc("search.oracle_retries");
                let backoff = recovery
                    .backoff_ms
                    .saturating_mul(1u64 << (attempt - 1).min(16))
                    .min(recovery.backoff_cap_ms);
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
            }
        }
    };
    (props, faults, attempt)
}

/// Applies one query's proposals at `entry`, updating the counters and
/// pushing the surviving children onto the frontier. Returns the proof
/// script when a proposal closes the goal.
fn commit_proposals(
    session: &mut ProofSession,
    frontier: &mut Frontier,
    stats: &mut SearchStats,
    seq: &mut u64,
    entry: &Entry,
    proposals: Vec<Proposal>,
    collect: bool,
) -> Option<Vec<String>> {
    // Attempt recording is pure observation: the closure reads the commit
    // result after the fact and touches nothing the search consults.
    let record = |stats: &mut SearchStats, tactic: &str, child, outcome| {
        if collect {
            stats.attempts.push(AttemptRec {
                tactic: tactic.to_string(),
                parent: entry.id.0,
                child,
                outcome,
                depth: entry.depth,
                query: stats.queries.saturating_sub(1),
                expansions: stats.expansions.len() as u64,
                on_path: false,
            });
        }
    };
    for prop in proposals {
        match session.add(entry.id, &prop.tactic) {
            Ok(out) => {
                stats.valid_tactics += 1;
                if out.proved {
                    record(stats, &prop.tactic, Some(out.id.0), AttemptOutcome::Proved);
                    return Some(session.script_to(out.id));
                }
                record(stats, &prop.tactic, Some(out.id.0), AttemptOutcome::Applied);
                *seq += 1;
                static PUSH_SITE: proof_trace::SampleSite = proof_trace::SampleSite::new();
                let _sp = proof_trace::span_sampled(&PUSH_SITE, "frontier", "push");
                frontier.push(Entry {
                    score: entry.score + prop.logprob,
                    seq: *seq,
                    id: out.id,
                    depth: entry.depth + 1,
                });
            }
            Err(AddError::DuplicateState(_)) => {
                stats.duplicates += 1;
                record(stats, &prop.tactic, None, AttemptOutcome::Duplicate);
            }
            Err(AddError::Timeout) => {
                stats.timeouts += 1;
                record(stats, &prop.tactic, None, AttemptOutcome::Timeout);
            }
            Err(AddError::Preflight(r)) => {
                record(stats, &prop.tactic, None, AttemptOutcome::Preflight);
                stats.preflight_pruned += 1;
                if proof_trace::enabled() {
                    proof_trace::metrics::counter_inc(&format!(
                        "search.preflight.{}",
                        r.code.code()
                    ));
                }
                *stats
                    .preflight_reasons
                    .entry(r.code.code().to_string())
                    .or_insert(0) += 1;
            }
            Err(_) => {
                stats.rejected += 1;
                record(stats, &prop.tactic, None, AttemptOutcome::Rejected);
            }
        }
    }
    None
}

/// Marks the attempts forming the proved script's root-to-QED chain. The
/// chain is reconstructed from the records themselves: starting at the
/// root, each script step matches exactly the applied attempt the search
/// committed for it (state ids are unique, so the walk is unambiguous).
fn mark_on_path(attempts: &mut [AttemptRec], root: u64, script: &[String]) {
    let mut cur = root;
    for tactic in script {
        let Some(a) = attempts
            .iter_mut()
            .find(|a| a.parent == cur && a.child.is_some() && &a.tactic == tactic)
        else {
            return;
        };
        a.on_path = true;
        cur = a.child.unwrap();
    }
}

/// Reorders one query's proposals by learned score (stable: declaration
/// order breaks ties), reassigning the descending logprob multiset to the
/// new order so frontier priorities follow it. A permutation only — the
/// proposal *set* is unchanged, so preflight/dedup outcomes per tactic
/// are too; only the order (and thus the best-first expansion order) can
/// differ.
fn rerank_proposals(
    rcx: &corpus_analysis::score::RankCtx<'_>,
    props: Vec<Proposal>,
) -> Vec<Proposal> {
    if props.len() < 2 {
        return props;
    }
    let tactics: Vec<&str> = props.iter().map(|p| p.tactic.as_str()).collect();
    let perm = rcx.order_tactics(&tactics);
    let mut logprobs: Vec<f64> = props.iter().map(|p| p.logprob).collect();
    logprobs.sort_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
    perm.into_iter()
        .zip(logprobs)
        .map(|(i, logprob)| Proposal {
            tactic: props[i].tactic.clone(),
            logprob,
        })
        .collect()
}

/// A popped frontier entry together with what its oracle query needs.
struct Pending {
    entry: Entry,
    state: minicoq::goal::ProofState,
    path: Vec<String>,
}

/// One answered query: proposals, faults seen, retries issued.
type Answer = (Vec<Proposal>, u32, u32);

/// The per-search half of every oracle query — everything a query carries
/// besides its state, path and index. Shared read-only by every worker of
/// a speculative batch.
struct Asker<'a> {
    prompt: &'a PromptInfo,
    env: &'a Env,
    theorem: &'a str,
    width: usize,
    recovery: &'a RecoveryConfig,
}

impl Asker<'_> {
    /// Answers `pending`'s query under `query_index` with `model`. The
    /// fault plan, when present, wraps the model in the client-side
    /// failure channel; its trip counters are shared and site-keyed, so
    /// which queries fault does not depend on which model or thread
    /// answers.
    fn ask(&self, model: &mut dyn TacticModel, pending: &Pending, query_index: u32) -> Answer {
        let mut chaotic_slot;
        let model: &mut dyn TacticModel = match &self.recovery.fault_plan {
            Some(plan) => {
                chaotic_slot = ChaoticModel::new(model, Arc::clone(plan));
                &mut chaotic_slot
            }
            None => model,
        };
        let ctx = QueryCtx {
            prompt: self.prompt,
            state: &pending.state,
            env: self.env,
            path: &pending.path,
            theorem: self.theorem,
            query_index,
        };
        // Sampled: one oracle query per TRACE_SAMPLE gets a full span (its
        // subtree — prompt assembly included — is all oracle-phase, so
        // eliding the rest shifts no time across phases; the residue keeps
        // the oracle total exact).
        static ORACLE_SITE: proof_trace::SampleSite = proof_trace::SampleSite::new();
        let mut sp = proof_trace::span_sampled(&ORACLE_SITE, "oracle", self.theorem);
        let answer = propose_with_retry(model, &ctx, self.width, self.recovery);
        if sp.is_armed() {
            sp.field_u64("query", query_index as u64);
            sp.field_u64("proposals", answer.0.len() as u64);
            sp.field_u64("retries", answer.2 as u64);
        }
        answer
    }
}

/// Who answers the oracle queries of one search.
enum Oracles<'m> {
    /// Width 1: the caller's own model, on the calling thread.
    Caller(&'m mut dyn TacticModel),
    /// Width > 1: one clone per speculative slot.
    Clones(Vec<Box<dyn TacticModel + Send>>),
}

impl<'m> Oracles<'m> {
    /// `proof_jobs` clones of `model` when more than one is asked for and
    /// the model declares its proposals pure ([`TacticModel::clone_boxed`]);
    /// otherwise the caller's model alone.
    fn new(model: &'m mut dyn TacticModel, proof_jobs: usize) -> Oracles<'m> {
        if proof_jobs > 1 {
            if let Some(clones) = (0..proof_jobs).map(|_| model.clone_boxed()).collect() {
                return Oracles::Clones(clones);
            }
        }
        Oracles::Caller(model)
    }

    /// How many entries one batch may speculate on.
    fn width(&self) -> usize {
        match self {
            Oracles::Caller(_) => 1,
            Oracles::Clones(models) => models.len(),
        }
    }

    /// Answers `batch`, its i-th query under index `base + i`. A batch of
    /// one is answered on the calling thread; a larger one on one scoped
    /// thread per query, each with its own clone.
    fn answer(&mut self, asker: &Asker<'_>, batch: &[Pending], base: u32) -> Vec<Answer> {
        let model: &mut dyn TacticModel = match self {
            Oracles::Clones(models) if batch.len() > 1 => {
                return std::thread::scope(|scope| {
                    let handles: Vec<_> = models
                        .iter_mut()
                        .zip(batch.iter().zip(base..))
                        .map(|(model, (pending, query_index))| {
                            scope.spawn(move || asker.ask(model.as_mut(), pending, query_index))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(v) => v,
                            Err(panic) => std::panic::resume_unwind(panic),
                        })
                        .collect()
                })
            }
            Oracles::Clones(models) => models[0].as_mut(),
            Oracles::Caller(model) => &mut **model,
        };
        batch
            .iter()
            .zip(base..)
            .map(|(pending, query_index)| asker.ask(&mut *model, pending, query_index))
            .collect()
    }
}

/// Pops up to `want` live entries in the discipline's pop order, each with
/// the state and path its query needs. Entries whose state is gone are
/// skipped.
fn pop_batch(frontier: &mut Frontier, session: &ProofSession, want: usize) -> Vec<Pending> {
    let mut batch = Vec::with_capacity(want);
    while batch.len() < want {
        let entry = {
            static POP_SITE: proof_trace::SampleSite = proof_trace::SampleSite::new();
            let _sp = proof_trace::span_sampled(&POP_SITE, "frontier", "pop");
            match frontier.pop() {
                Some(e) => e,
                None => break,
            }
        };
        let state = {
            static STATE_SITE: proof_trace::SampleSite = proof_trace::SampleSite::new();
            let _sp = proof_trace::span_sampled(&STATE_SITE, "stm", "state");
            match session.state(entry.id).cloned() {
                Some(s) => s,
                None => continue,
            }
        };
        let path = {
            static PATH_SITE: proof_trace::SampleSite = proof_trace::SampleSite::new();
            let _sp = proof_trace::span_sampled(&PATH_SITE, "stm", "path");
            session.script_to(entry.id)
        };
        batch.push(Pending { entry, state, path });
    }
    batch
}

/// Runs the search for `stmt` against `model`. The environment is shared
/// with the session (no copy), so concurrent searches over the same
/// snapshot are cheap.
pub fn search(
    env: &Arc<Env>,
    stmt: &Formula,
    theorem: &str,
    model: &mut dyn TacticModel,
    prompt: &PromptInfo,
    cfg: &SearchConfig,
) -> SearchResult {
    search_with_recovery(
        env,
        stmt,
        theorem,
        model,
        prompt,
        cfg,
        &RecoveryConfig::default(),
    )
}

/// As [`search`], with an explicit transport layer.
///
/// **Oracle recovery.** Failed oracle calls ([`proof_oracle::OracleFault`])
/// are retried with exponential backoff up to `recovery.oracle_retries`
/// times. A retried query keeps its `query_index` and does not count
/// against the query limit, so a recovered run is indistinguishable from a
/// clean one. When the plan's faults outlast every retry the oracle is
/// genuinely down; the search panics with a diagnostic, which the cell
/// runner's panic isolation converts into a typed crashed-cell record for
/// journaled resume.
///
/// **Speculative expansion.** There is one loop. Each round pops a batch
/// of up to `width` entries in the discipline's pop order, answers their
/// queries (each pinned to the index it would get in pop order), then
/// commits serially in that same order. The width is `recovery.proof_jobs`
/// when the model can be cloned ([`TacticModel::clone_boxed`]), one clone
/// per slot answering on its own thread; otherwise it is 1 and the
/// caller's model answers on the calling thread — the plain sequential
/// search. A speculated commit is valid only while nothing the batch has
/// committed so far would be popped before it; the moment
/// [`Frontier::outranks`] says otherwise, the rest of the batch is pushed
/// back (its `seq` is unchanged, so its order is too) and its answers
/// discarded — those queries re-run later under their true indices.
/// Everything observable (state ids, counters, expansion transcript,
/// scripts) is therefore byte-identical at every width; only wall-clock
/// and the fault plan's per-site retry budgets (consumed early by
/// discarded speculation, which faults report as transient anyway) differ.
#[allow(clippy::too_many_arguments)]
pub fn search_with_recovery(
    env: &Arc<Env>,
    stmt: &Formula,
    theorem: &str,
    model: &mut dyn TacticModel,
    prompt: &PromptInfo,
    cfg: &SearchConfig,
    recovery: &RecoveryConfig,
) -> SearchResult {
    let mut oracles = Oracles::new(model, recovery.proof_jobs);
    // Goal-directed ranking (opt-in). The learned scorer is built against
    // the caller's *unranked* environment — the same view mining and
    // training see — before hint reordering produces the fresh snapshot;
    // with ranking off the caller's Arc is used as-is, untouched.
    let rank_ctx = match cfg.premise_rank {
        PremiseRank::Learned => corpus_analysis::score::RankCtx::new(env, stmt),
        _ => None,
    };
    use corpus_analysis::premise::{reranked_env_v2, RankMode};
    let mode = match cfg.premise_rank {
        PremiseRank::Off => None,
        PremiseRank::Graph => Some(RankMode::Graph),
        PremiseRank::Learned => Some(RankMode::Learned),
    };
    let ranked_env;
    let env: &Arc<Env> = match mode {
        None => env,
        Some(mode) => {
            ranked_env = Arc::new(reranked_env_v2(env, stmt, mode));
            &ranked_env
        }
    };
    let mut session = ProofSession::new(
        Arc::clone(env),
        stmt.clone(),
        SessionConfig {
            tactic_fuel: cfg.tactic_fuel,
            dedupe_states: cfg.dedupe_states,
            preflight: cfg.preflight,
            fault_plan: recovery.fault_plan.clone(),
            fault_scope: theorem.to_string(),
        },
    );
    let asker = Asker {
        prompt,
        env: env.as_ref(),
        theorem,
        width: cfg.width,
        recovery,
    };
    let mut stats = SearchStats::default();
    let mut frontier = Frontier::new(cfg.strategy);
    let mut seq = 0u64;
    let root_id = session.root().0;
    frontier.push(Entry {
        score: 0.0,
        seq,
        id: session.root(),
        depth: 0,
    });

    let outcome = 'search: loop {
        let remaining = cfg.query_limit.saturating_sub(stats.queries) as usize;
        if remaining == 0 {
            // One more pop decides Fuelout (an entry was still waiting)
            // vs Stuck (the frontier emptied with the last query).
            break if frontier.pop().is_some() {
                Outcome::Fuelout
            } else {
                Outcome::Stuck
            };
        }
        // Sized by the query budget so a batch never overruns the limit
        // mid-commit.
        let batch = pop_batch(&mut frontier, &session, oracles.width().min(remaining));
        if batch.is_empty() {
            break Outcome::Stuck;
        }
        let answers = oracles.answer(&asker, &batch, stats.queries);
        for (i, (pending, (props, faults, retries))) in batch.iter().zip(answers).enumerate() {
            let entry = &pending.entry;
            let mut expand_sp = proof_trace::span("search.expand", theorem);
            if expand_sp.is_armed() {
                expand_sp.field_u64("state", entry.id.0);
                expand_sp.field_u64("depth", entry.depth as u64);
                expand_sp.field_u64("query", stats.queries as u64);
                proof_trace::metrics::observe("search.frontier.depth", frontier.len() as u64);
            }
            stats.expansions.push(entry.id.0);
            stats.oracle_faults += faults;
            stats.oracle_retries += retries;
            stats.queries += 1;
            let props = match &rank_ctx {
                Some(rcx) => rerank_proposals(rcx, props),
                None => props,
            };
            if let Some(script) = commit_proposals(
                &mut session,
                &mut frontier,
                &mut stats,
                &mut seq,
                entry,
                props,
                recovery.collect_attempts,
            ) {
                if recovery.collect_attempts {
                    mark_on_path(&mut stats.attempts, root_id, &script);
                }
                break 'search Outcome::Proved { script };
            }
            // The next speculated entry only stands while nothing this
            // commit pushed would be popped before it.
            if batch
                .get(i + 1)
                .is_some_and(|next| frontier.outranks(&next.entry))
            {
                proof_trace::metrics::counter_inc("search.parallel.requeued");
                for p in &batch[i + 1..] {
                    frontier.push(p.entry.clone());
                }
                break;
            }
        }
    };
    stats.fuel_spent = session.fuel_spent();
    stats.tree_size = session.live_states();
    SearchResult { outcome, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original drain-and-scan pop, kept verbatim as the order oracle
    /// for the indexed frontier.
    fn reference_pop(frontier: &mut BinaryHeap<Entry>, strategy: Strategy) -> Option<Entry> {
        match strategy {
            Strategy::BestFirst => frontier.pop(),
            Strategy::Greedy => {
                let mut items: Vec<Entry> = std::mem::take(frontier).into_vec();
                if items.is_empty() {
                    return None;
                }
                let mut best = 0usize;
                for (i, e) in items.iter().enumerate() {
                    let b = &items[best];
                    if (e.depth, e.score, std::cmp::Reverse(e.seq))
                        .partial_cmp(&(b.depth, b.score, std::cmp::Reverse(b.seq)))
                        .map(|o| o == Ordering::Greater)
                        .unwrap_or(false)
                    {
                        best = i;
                    }
                }
                let out = items.swap_remove(best);
                *frontier = items.into();
                Some(out)
            }
            Strategy::BreadthFirst => {
                let mut items: Vec<Entry> = std::mem::take(frontier).into_vec();
                if items.is_empty() {
                    return None;
                }
                let mut best = 0usize;
                for (i, e) in items.iter().enumerate() {
                    if e.seq < items[best].seq {
                        best = i;
                    }
                }
                let out = items.swap_remove(best);
                *frontier = items.into();
                Some(out)
            }
        }
    }

    #[test]
    fn frontier_matches_drain_and_scan_reference() {
        // A deterministic jumble of scores/depths with interleaved pushes
        // and pops, checked under every discipline.
        let mut state = 0x5EEDu64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for strategy in [
            Strategy::BestFirst,
            Strategy::Greedy,
            Strategy::BreadthFirst,
        ] {
            let mut fast = Frontier::new(strategy);
            let mut slow: BinaryHeap<Entry> = BinaryHeap::new();
            let mut seq = 0u64;
            for round in 0..50 {
                // Push a small burst (as `search` does after each query).
                for _ in 0..(rng() % 4 + 1) {
                    let e = Entry {
                        score: -((rng() % 1000) as f64) / 100.0,
                        seq,
                        id: StateId(seq),
                        depth: (rng() % 6) as u32,
                    };
                    seq += 1;
                    fast.push(e.clone());
                    slow.push(e);
                }
                // Pop one or two.
                for _ in 0..(round % 2 + 1) {
                    let a = fast.pop().map(|e| e.seq);
                    let b = reference_pop(&mut slow, strategy).map(|e| e.seq);
                    assert_eq!(a, b, "strategy {strategy:?} diverged");
                }
            }
            // Drain the rest.
            loop {
                let a = fast.pop().map(|e| e.seq);
                let b = reference_pop(&mut slow, strategy).map(|e| e.seq);
                assert_eq!(a, b, "strategy {strategy:?} diverged in drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }
    use proof_oracle::profiles::ModelProfile;
    use proof_oracle::prompt::{build_prompt, PromptConfig};
    use proof_oracle::SimulatedModel;

    fn run_one(theorem: &str, profile: ModelProfile, cfg: &SearchConfig) -> SearchResult {
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let thm = dev.theorem(theorem).unwrap();
        let env = dev.env_before(thm);
        let hints = proof_oracle::split::hint_set(&dev);
        let prompt = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
        let mut model = SimulatedModel::new(profile);
        search(env, &thm.stmt, &thm.name, &mut model, &prompt, cfg)
    }

    #[test]
    fn proves_simple_theorems() {
        let cfg = SearchConfig::default();
        let r = run_one("add_0_l", ModelProfile::gpt4o(), &cfg);
        assert!(r.proved(), "outcome: {:?}", r.outcome);
        let script = r.script_text().unwrap();
        assert!(!script.is_empty());
        assert!(r.stats.queries <= cfg.query_limit);
    }

    #[test]
    fn found_scripts_replay_in_the_kernel() {
        // The searched-for set depends on the simulator's calibration, so
        // require only that a healthy share of easy theorems is proved —
        // and that *every* found script replays in the kernel (soundness).
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let cfg = SearchConfig::default();
        let mut proved = 0;
        for name in [
            "le_refl",
            "in_eq",
            "app_nil_l",
            "add_0_l",
            "mflush_nil",
            "incl_refl",
        ] {
            let r = run_one(name, ModelProfile::gpt4o(), &cfg);
            if let Some(script) = r.script_text() {
                proved += 1;
                let thm = dev.theorem(name).unwrap();
                let env = dev.env_before(thm);
                minicoq_vernac::loader::replay_proof(env, &thm.stmt, &script)
                    .unwrap_or_else(|e| panic!("{name}: found script does not replay: {e}"));
            }
        }
        assert!(proved >= 3, "only {proved}/6 easy theorems proved");
    }

    #[test]
    fn preflight_filter_never_changes_the_result() {
        // The pre-flight analyzer may only prune proposals that the
        // evaluator would reject anyway, so the search must take the exact
        // same path with the filter on and off — same outcome, same
        // script, same query count — while the taxonomy shifts counts from
        // rejected/timeouts into preflight_pruned.
        let mut total_pruned = 0;
        for (name, profile) in [
            ("add_0_l", ModelProfile::gpt4o()),
            ("in_cons", ModelProfile::gemini_pro()),
            ("le_refl", ModelProfile::gpt4o_mini()),
            ("app_nil_l", ModelProfile::gpt4o()),
        ] {
            let on = run_one(
                name,
                profile.clone(),
                &SearchConfig {
                    preflight: true,
                    ..Default::default()
                },
            );
            let off = run_one(
                name,
                profile,
                &SearchConfig {
                    preflight: false,
                    ..Default::default()
                },
            );
            assert_eq!(on.outcome, off.outcome, "{name}: outcome diverged");
            assert_eq!(on.stats.queries, off.stats.queries, "{name}");
            assert_eq!(on.stats.valid_tactics, off.stats.valid_tactics, "{name}");
            assert_eq!(on.stats.duplicates, off.stats.duplicates, "{name}");
            assert_eq!(
                on.stats.rejected + on.stats.timeouts + on.stats.preflight_pruned,
                off.stats.rejected + off.stats.timeouts,
                "{name}: taxonomy totals diverged"
            );
            assert_eq!(off.stats.preflight_pruned, 0, "{name}");
            let per_reason: u32 = on.stats.preflight_reasons.values().sum();
            assert_eq!(per_reason, on.stats.preflight_pruned, "{name}");
            total_pruned += on.stats.preflight_pruned;
        }
        assert!(total_pruned > 0, "filter never fired on any run");
    }

    #[test]
    fn premise_rank_defaults_off_and_off_is_baseline() {
        // With ranking off the caller's environment is used untouched, so
        // a run with the explicit flag must match the plain default on
        // every observable: outcome, counters, and the full expansion
        // transcript.
        assert_eq!(SearchConfig::default().premise_rank, PremiseRank::Off);
        for name in ["add_0_l", "in_cons", "le_refl"] {
            let base = run_one(name, ModelProfile::gpt4o(), &SearchConfig::default());
            let off = run_one(
                name,
                ModelProfile::gpt4o(),
                &SearchConfig {
                    premise_rank: PremiseRank::Off,
                    ..Default::default()
                },
            );
            assert_eq!(base.outcome, off.outcome, "{name}");
            assert_eq!(base.stats.queries, off.stats.queries, "{name}");
            assert_eq!(base.stats.expansions, off.stats.expansions, "{name}");
        }
    }

    #[test]
    fn premise_rank_found_scripts_replay_unranked() {
        // Ranking permutes hint databases but adds nothing, so any script
        // found with ranking on must replay against the *unranked*
        // environment (soundness of the heuristic).
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let cfg = SearchConfig {
            premise_rank: PremiseRank::Graph,
            ..Default::default()
        };
        let mut proved = 0;
        for name in ["le_refl", "in_eq", "app_nil_l", "add_0_l", "incl_refl"] {
            let r = run_one(name, ModelProfile::gpt4o(), &cfg);
            if let Some(script) = r.script_text() {
                proved += 1;
                let thm = dev.theorem(name).unwrap();
                let env = dev.env_before(thm);
                minicoq_vernac::loader::replay_proof(env, &thm.stmt, &script)
                    .unwrap_or_else(|e| panic!("{name}: ranked-run script does not replay: {e}"));
            }
        }
        assert!(
            proved >= 2,
            "only {proved}/5 easy theorems proved with ranking"
        );
    }

    #[test]
    fn learned_rank_scripts_replay_and_attempts_are_mined() {
        // The one test in this binary that touches the global model
        // registry (other tests never consult it, so parallel test
        // threads cannot observe the install). A hand-built model that
        // loves `apply`-family proposals and shuns unresolved premise
        // names must still only *permute*: every found script replays
        // against the unranked environment, and attempt records cover
        // exactly the charged proposals.
        use corpus_analysis::features::{slot, FEATURES_SCHEMA};
        use corpus_analysis::score::{clear_model, install_model, Model};
        let mut weights = std::collections::BTreeMap::new();
        weights.insert(((slot::TACTIC_HEAD as u32) << 8) | 25, 5_000); // "apply"
        weights.insert(((slot::PREMISE_KIND as u32) << 8) | 2, -8_000); // unresolved
        install_model(Model {
            features_schema: FEATURES_SCHEMA,
            refined: false,
            weights,
        });
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let cfg = SearchConfig {
            premise_rank: PremiseRank::Learned,
            ..Default::default()
        };
        let recovery = RecoveryConfig {
            collect_attempts: true,
            ..Default::default()
        };
        let mut proved = 0;
        for name in ["le_refl", "in_eq", "app_nil_l", "add_0_l"] {
            let thm = dev.theorem(name).unwrap();
            let env = dev.env_before(thm);
            let hints = proof_oracle::split::hint_set(&dev);
            let prompt = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
            let mut model = SimulatedModel::new(ModelProfile::gpt4o());
            let r = search_with_recovery(
                env, &thm.stmt, &thm.name, &mut model, &prompt, &cfg, &recovery,
            );
            assert!(
                !r.stats.attempts.is_empty(),
                "{name}: no attempts collected"
            );
            let charged = r.stats.valid_tactics
                + r.stats.rejected
                + r.stats.duplicates
                + r.stats.timeouts
                + r.stats.preflight_pruned;
            assert_eq!(
                r.stats.attempts.len(),
                charged as usize,
                "{name}: attempt records != charged proposals"
            );
            if let Some(script) = r.script_text() {
                proved += 1;
                let on_path = r.stats.attempts.iter().filter(|a| a.on_path).count();
                assert!(on_path > 0, "{name}: proved but no on-path attempts");
                minicoq_vernac::loader::replay_proof(dev.env_before(thm), &thm.stmt, &script)
                    .unwrap_or_else(|e| panic!("{name}: learned-run script does not replay: {e}"));
            }
        }
        clear_model();
        assert!(
            proved >= 2,
            "only {proved}/4 easy theorems proved with learned ranking"
        );
    }

    #[test]
    fn search_is_deterministic() {
        let cfg = SearchConfig::default();
        let a = run_one("in_cons", ModelProfile::gemini_pro(), &cfg);
        let b = run_one("in_cons", ModelProfile::gemini_pro(), &cfg);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats.queries, b.stats.queries);
    }

    #[test]
    fn query_limit_produces_fuelout() {
        let cfg = SearchConfig {
            query_limit: 2,
            ..Default::default()
        };
        // A hard theorem under a tiny budget must not be Proved-by-luck;
        // accept Stuck too (frontier may die first), but never panic.
        let r = run_one("star_assoc_1", ModelProfile::gpt4o_mini(), &cfg);
        assert!(r.stats.queries <= 2);
        assert!(!r.proved());
    }

    #[test]
    fn strategies_all_terminate() {
        for strategy in [
            Strategy::BestFirst,
            Strategy::Greedy,
            Strategy::BreadthFirst,
        ] {
            let cfg = SearchConfig {
                query_limit: 16,
                strategy,
                ..Default::default()
            };
            let r = run_one("add_0_l", ModelProfile::gpt4o(), &cfg);
            assert!(r.stats.queries <= 16);
        }
    }
}

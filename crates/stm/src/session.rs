//! Proof sessions: the state-transition machine proper.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use minicoq::analysis::{preflight_state, PreflightRejection, PreflightVerdict};
use minicoq::env::Env;
use minicoq::error::TacticError;
use minicoq::formula::Formula;
use minicoq::fuel::Fuel;
use minicoq::goal::ProofState;
use minicoq::parse::parse_tactic;
use minicoq::statehash::{state_stamp, state_stamp_from_parent};
use minicoq::tactic::apply_tactic_timed;
use proof_chaos::{FaultKind, FaultPlan};

/// Identifier of a proof state within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u64);

/// Configuration of a session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Fuel budget per tactic — the deterministic analogue of the paper's
    /// 5-second timeout.
    pub tactic_fuel: u64,
    /// Reject tactics that lead to a proof state already present in the
    /// session (the paper's duplicate-state rule). Disable for linear
    /// replay of known-good scripts.
    pub dedupe_states: bool,
    /// Statically pre-screen tactics with [`minicoq::analysis`] before
    /// executing them; guaranteed failures surface as
    /// [`AddError::Preflight`] without spending any tactic fuel. Off by
    /// default so a bare session reports the evaluator's own taxonomy;
    /// the search layer turns it on.
    pub preflight: bool,
    /// Chaos-testing hook: a seeded fault plan injecting spurious
    /// [`AddError::Timeout`]s for plan-selected tactics, simulating a
    /// wall-clock prover stall. `None` (the default) runs clean.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Names this session in fault-site identifiers (conventionally the
    /// theorem name), so injected timeouts are deterministic per theorem
    /// rather than per process.
    pub fault_scope: String,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            tactic_fuel: minicoq::fuel::DEFAULT_TACTIC_FUEL,
            dedupe_states: true,
            preflight: false,
            fault_plan: None,
            fault_scope: String::new(),
        }
    }
}

/// Why an `add` failed, mirroring the paper's invalid-tactic taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddError {
    /// The proof assistant rejected the tactic.
    Rejected(String),
    /// The tactic could not be parsed (also a rejection, kept separate for
    /// diagnostics).
    Parse(String),
    /// The tactic exceeded its execution budget.
    Timeout,
    /// The pre-flight analyzer proved the tactic cannot succeed; it was
    /// never executed. A refinement of `Rejected` with a machine-readable
    /// reason code.
    Preflight(PreflightRejection),
    /// The resulting proof state was already in the session; the id of the
    /// earlier equal state is attached.
    DuplicateState(StateId),
    /// The referenced state id does not exist (or was cancelled).
    NoSuchState,
}

impl std::fmt::Display for AddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddError::Rejected(m) => write!(f, "rejected: {m}"),
            AddError::Parse(m) => write!(f, "parse error: {m}"),
            AddError::Timeout => write!(f, "timeout"),
            AddError::Preflight(r) => write!(f, "preflight: {r}"),
            AddError::DuplicateState(id) => write!(f, "duplicate of state {}", id.0),
            AddError::NoSuchState => write!(f, "no such state"),
        }
    }
}

impl AddError {
    /// A stable label for the `stm.add.<label>` outcome counters — the
    /// `AddError` taxonomy as metric names.
    pub fn metric_label(&self) -> &'static str {
        match self {
            AddError::Rejected(_) => "rejected",
            AddError::Parse(_) => "parse",
            AddError::Timeout => "timeout",
            AddError::Preflight(_) => "preflight",
            AddError::DuplicateState(_) => "duplicate",
            AddError::NoSuchState => "no_such_state",
        }
    }
}

impl std::error::Error for AddError {}

/// The cached `stm.add.<outcome>` counter handle for a known outcome
/// label (the two success labels plus every [`AddError::metric_label`]).
/// The label set is closed, so each gets a static
/// [`HotCounter`](proof_trace::metrics::HotCounter) and the hot path
/// never formats a name or walks the registry.
fn add_outcome_counter(outcome: &str) -> &'static proof_trace::metrics::HotCounter {
    use proof_trace::metrics::HotCounter;
    static PROVED: HotCounter = HotCounter::new("stm.add.proved");
    static OK: HotCounter = HotCounter::new("stm.add.ok");
    static REJECTED: HotCounter = HotCounter::new("stm.add.rejected");
    static PARSE: HotCounter = HotCounter::new("stm.add.parse");
    static TIMEOUT: HotCounter = HotCounter::new("stm.add.timeout");
    static PREFLIGHT: HotCounter = HotCounter::new("stm.add.preflight");
    static DUPLICATE: HotCounter = HotCounter::new("stm.add.duplicate");
    static NO_SUCH_STATE: HotCounter = HotCounter::new("stm.add.no_such_state");
    match outcome {
        "proved" => &PROVED,
        "ok" => &OK,
        "rejected" => &REJECTED,
        "parse" => &PARSE,
        "timeout" => &TIMEOUT,
        "preflight" => &PREFLIGHT,
        "duplicate" => &DUPLICATE,
        _ => {
            debug_assert_eq!(outcome, "no_such_state", "unknown add outcome");
            &NO_SUCH_STATE
        }
    }
}

/// The successful result of an `add`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddOutcome {
    /// The new state's id.
    pub id: StateId,
    /// True when the new state has no goals left (proof complete).
    pub proved: bool,
}

#[derive(Debug, Clone)]
struct StateEntry {
    parent: Option<StateId>,
    tactic: String,
    state: ProofState,
    /// Identity of `state`: its per-goal canonical keys, computed
    /// incrementally from the parent's stamp.
    stamp: Vec<Arc<str>>,
    alive: bool,
}

/// A proof session for a single theorem: a tree of proof states rooted at
/// the initial goal.
#[derive(Debug, Clone)]
pub struct ProofSession {
    env: Arc<Env>,
    config: SessionConfig,
    entries: Vec<StateEntry>,
    /// The first live state per stamp; read when deduplicating.
    states: HashMap<Vec<Arc<str>>, StateId>,
    fuel_spent: u64,
}

impl ProofSession {
    /// Opens a session on `stmt`; the root state has id 0. The environment
    /// is shared, not copied — many sessions (e.g. parallel search workers)
    /// can hold the same snapshot.
    pub fn new(env: impl Into<Arc<Env>>, stmt: Formula, config: SessionConfig) -> ProofSession {
        let env = env.into();
        let root = ProofState::new(stmt);
        let stamp = state_stamp(&root);
        let states = HashMap::from([(stamp.clone(), StateId(0))]);
        ProofSession {
            env,
            config,
            entries: vec![StateEntry {
                parent: None,
                tactic: String::new(),
                state: root,
                stamp,
                alive: true,
            }],
            states,
            fuel_spent: 0,
        }
    }

    /// The root state id.
    pub fn root(&self) -> StateId {
        StateId(0)
    }

    /// The environment the session checks against.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Total fuel charged across all tactics so far.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent
    }

    fn entry(&self, id: StateId) -> Option<&StateEntry> {
        self.entries.get(id.0 as usize).filter(|e| e.alive)
    }

    /// The proof state at `id`.
    pub fn state(&self, id: StateId) -> Option<&ProofState> {
        self.entry(id).map(|e| &e.state)
    }

    /// True when the state at `id` has no open goals.
    pub fn is_proved(&self, id: StateId) -> bool {
        self.entry(id)
            .map(|e| e.state.is_complete())
            .unwrap_or(false)
    }

    /// The tactic sentence that produced `id` (empty for the root).
    pub fn tactic_of(&self, id: StateId) -> Option<&str> {
        self.entry(id).map(|e| e.tactic.as_str())
    }

    /// The parent of `id`.
    pub fn parent_of(&self, id: StateId) -> Option<StateId> {
        self.entry(id).and_then(|e| e.parent)
    }

    /// The chain of tactic sentences from the root to `id`, in order.
    pub fn script_to(&self, id: StateId) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(e) = self.entry(c) else { break };
            if e.parent.is_some() {
                out.push(e.tactic.clone());
            }
            cur = e.parent;
        }
        out.reverse();
        out
    }

    /// Runs a tactic sentence against the state `at`.
    ///
    /// When tracing is armed, the per-outcome counter is a cached
    /// [`HotCounter`](proof_trace::metrics::HotCounter) handle — this
    /// runs once per tactic sentence, and the registry lookup (global
    /// lock, map walk, key allocation) would otherwise dominate the
    /// armed-tracing overhead budget.
    pub fn add(&mut self, at: StateId, tactic_src: &str) -> Result<AddOutcome, AddError> {
        if !proof_trace::enabled() {
            return self.add_inner(at, tactic_src);
        }
        // One span per tactic sentence: it encloses the `preflight` span,
        // and the outcome counter below counts the same adds.
        let mut sp = proof_trace::span("stm", "add");
        let result = self.add_inner(at, tactic_src);
        let outcome = match &result {
            Ok(o) if o.proved => "proved",
            Ok(_) => "ok",
            Err(e) => e.metric_label(),
        };
        sp.field_str("outcome", outcome);
        add_outcome_counter(outcome).inc();
        result
    }

    fn add_inner(&mut self, at: StateId, tactic_src: &str) -> Result<AddOutcome, AddError> {
        let Some(entry) = self.entry(at) else {
            return Err(AddError::NoSuchState);
        };
        let base = &entry.state;
        let tac = match parse_tactic(&self.env, base.focused(), tactic_src) {
            Ok(t) => t,
            Err(TacticError::Parse(m)) => return Err(AddError::Parse(m)),
            Err(other) => return Err(AddError::Rejected(other.to_string())),
        };
        // Injected prover stall: the tactic parsed but "ran out the clock".
        // Reported exactly like a genuine timeout (the search cannot tell
        // them apart, which is the point), with no fuel charged — a stalled
        // prover burns wall-clock, not our deterministic budget.
        if self.injected_stall(at, tactic_src) {
            return Err(AddError::Timeout);
        }
        if self.config.preflight {
            let _sp = proof_trace::span("preflight", "");
            if let PreflightVerdict::Reject(r) =
                preflight_state(&self.env, base, &tac, self.config.tactic_fuel)
            {
                return Err(AddError::Preflight(r));
            }
        }
        let mut fuel = Fuel::new(self.config.tactic_fuel);
        let result = apply_tactic_timed(&self.env, base, &tac, &mut fuel);
        self.fuel_spent += fuel.spent();
        let new_state = match result {
            Ok(s) => s,
            Err(TacticError::Timeout) => return Err(AddError::Timeout),
            Err(TacticError::Parse(m)) => return Err(AddError::Parse(m)),
            Err(other) => return Err(AddError::Rejected(other.to_string())),
        };
        self.commit(at, tactic_src, new_state)
    }

    /// True when the armed fault plan injects a prover stall for this call.
    fn injected_stall(&self, at: StateId, tactic_src: &str) -> bool {
        match &self.config.fault_plan {
            Some(plan) => {
                let site = format!("{}::{}@{}", self.config.fault_scope, tactic_src, at.0);
                plan.should_fault(FaultKind::StmTimeout, &site)
            }
            None => false,
        }
    }

    /// Stamps, deduplicates, and records an evaluated successor state.
    fn commit(
        &mut self,
        at: StateId,
        tactic_src: &str,
        new_state: ProofState,
    ) -> Result<AddOutcome, AddError> {
        let parent = &self.entries[at.0 as usize];
        let stamp = state_stamp_from_parent(&new_state, &parent.state, &parent.stamp);
        let id = StateId(self.entries.len() as u64);
        if self.config.dedupe_states {
            match self.states.entry(stamp.clone()) {
                Entry::Occupied(prev) => return Err(AddError::DuplicateState(*prev.get())),
                Entry::Vacant(slot) => {
                    slot.insert(id);
                }
            }
        }
        let proved = new_state.is_complete();
        self.entries.push(StateEntry {
            parent: Some(at),
            tactic: tactic_src.to_string(),
            state: new_state,
            stamp,
            alive: true,
        });
        Ok(AddOutcome { id, proved })
    }

    /// Cancels a state and its descendants (SerAPI `Cancel`).
    pub fn cancel(&mut self, id: StateId) {
        if id.0 == 0 {
            return; // The root cannot be cancelled.
        }
        let _sp = proof_trace::span("stm", "cancel");
        let mut dead = vec![id];
        while let Some(d) = dead.pop() {
            if let Some(e) = self.entries.get_mut(d.0 as usize) {
                e.alive = false;
            }
            for (i, e) in self.entries.iter().enumerate() {
                if e.alive && e.parent == Some(d) {
                    dead.push(StateId(i as u64));
                }
            }
        }
        self.states.retain(|_, v| {
            self.entries
                .get(v.0 as usize)
                .map(|e| e.alive)
                .unwrap_or(false)
        });
    }

    /// Renders the goals at `id` as the proof assistant would display them.
    pub fn display(&self, id: StateId) -> Option<String> {
        self.state(id).map(|s| s.display())
    }

    /// Number of live states.
    pub fn live_states(&self) -> usize {
        self.entries.iter().filter(|e| e.alive).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicoq::parse::parse_formula;

    fn session(stmt: &str, dedupe: bool) -> ProofSession {
        let env = Env::with_prelude();
        let f = parse_formula(&env, stmt).unwrap();
        ProofSession::new(
            env,
            f,
            SessionConfig {
                dedupe_states: dedupe,
                ..Default::default()
            },
        )
    }

    #[test]
    fn linear_proof_through_session() {
        let mut s = session("forall n : nat, add 0 n = n", true);
        let a = s.add(s.root(), "intros n").unwrap();
        assert!(!a.proved);
        let b = s.add(a.id, "simpl").unwrap();
        let c = s.add(b.id, "reflexivity").unwrap();
        assert!(c.proved);
        assert!(s.is_proved(c.id));
        assert_eq!(s.script_to(c.id), vec!["intros n", "simpl", "reflexivity"]);
    }

    #[test]
    fn duplicate_states_are_rejected() {
        let mut s = session("forall n : nat, n = n", true);
        let a = s.add(s.root(), "intros x").unwrap();
        // An alpha-variant introduction reaches the same canonical state.
        let err = s.add(s.root(), "intros y").unwrap_err();
        assert_eq!(err, AddError::DuplicateState(a.id));
        // A no-op tactic duplicates its own source state.
        let err = s.add(a.id, "idtac").unwrap_err();
        assert_eq!(err, AddError::DuplicateState(a.id));
    }

    #[test]
    fn duplicates_are_found_through_a_shared_tail_and_per_session() {
        let stmt = "(forall a : nat, a = a) /\\ (forall b : nat, b = b)";
        let mut s = session(stmt, true);
        let split = s.add(s.root(), "split").unwrap();
        let x = s.add(split.id, "intros x").unwrap();
        // The unfocused second goal is the parent's, pointer for pointer.
        let (parent, child) = (s.state(split.id).unwrap(), s.state(x.id).unwrap());
        assert_eq!(child.goals.len(), 2);
        assert!(Arc::ptr_eq(&child.goals[1], &parent.goals[1]));
        // An alpha-variant step reaches the same state a second way.
        let err = s.add(split.id, "intros y").unwrap_err();
        assert_eq!(err, AddError::DuplicateState(x.id));
        assert_eq!(
            s.add(s.root(), "split").unwrap_err(),
            AddError::DuplicateState(split.id)
        );
        // A second session on the same statement starts with no states but
        // its root.
        let mut t = session(stmt, true);
        let split2 = t.add(t.root(), "split").unwrap();
        assert!(t.add(split2.id, "intros y").is_ok());
    }

    #[test]
    fn dedupe_can_be_disabled_for_replay() {
        let mut s = session("forall n : nat, n = n", false);
        let a = s.add(s.root(), "intros x").unwrap();
        assert!(s.add(a.id, "idtac").is_ok());
    }

    #[test]
    fn rejection_and_timeout_taxonomy() {
        let env = Env::with_prelude();
        let f = parse_formula(&env, "forall n : nat, n = n").unwrap();
        let mut s = ProofSession::new(
            env,
            f,
            SessionConfig {
                tactic_fuel: 5,
                ..Default::default()
            },
        );
        assert!(matches!(
            s.add(s.root(), "garbage___"),
            Err(AddError::Parse(_))
        ));
        assert!(matches!(
            s.add(s.root(), "assumption"),
            Err(AddError::Rejected(_))
        ));
        assert!(matches!(s.add(s.root(), "auto"), Err(AddError::Timeout)));
        assert!(s.fuel_spent() > 0);
    }

    #[test]
    fn preflight_rejects_without_spending_fuel() {
        let env = Env::with_prelude();
        let f = parse_formula(&env, "forall n : nat, n = n").unwrap();
        let mut s = ProofSession::new(
            env,
            f,
            SessionConfig {
                preflight: true,
                ..Default::default()
            },
        );
        // `assumption` on a hypothesis-free goal is statically doomed.
        let err = s.add(s.root(), "assumption").unwrap_err();
        assert!(matches!(err, AddError::Preflight(_)));
        assert_eq!(s.fuel_spent(), 0);
        // Accepted tactics run as usual.
        let a = s.add(s.root(), "intros n").unwrap();
        assert!(s.add(a.id, "reflexivity").unwrap().proved);
    }

    #[test]
    fn cancel_removes_subtree() {
        let mut s = session("forall n : nat, n = n", true);
        let a = s.add(s.root(), "intros n").unwrap();
        let b = s.add(a.id, "reflexivity").unwrap();
        assert_eq!(s.live_states(), 3);
        s.cancel(a.id);
        assert_eq!(s.live_states(), 1);
        assert!(s.state(b.id).is_none());
        assert!(matches!(s.add(a.id, "simpl"), Err(AddError::NoSuchState)));
        // After cancel, the state can be re-derived (its stamp was purged).
        assert!(s.add(s.root(), "intros n").is_ok());
    }
}

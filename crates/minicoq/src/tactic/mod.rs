//! The tactic engine.
//!
//! A [`Tactic`] transforms the focused goal of a [`ProofState`] into zero or
//! more subgoals, or fails with a [`TacticError`]. The error taxonomy
//! matches what the paper's search layer needs: rejection vs. timeout.
//!
//! Tactic semantics follow Coq where practical; deliberate deviations are
//! documented on each variant.

mod apply;
mod auto;
mod basic;
mod case;
mod congruence;
mod lia;
mod rewrite;

pub use auto::AUTO_DEFAULT_DEPTH;

// The pre-flight analyzer runs the evaluator's whole fuel-free steps and
// its fuel-free prefixes of the rest, and the simulated oracle and the
// generator read formulas the way the tactics do; they borrow the same
// helpers so none can drift apart.
pub use apply::expose_rule;
pub(crate) use apply::{apply_prefix, constructor_prefix, pose_proof_prefix, specialize_prefix};
pub(crate) use basic::{f_equal_prefix, hyp, intro, reflexivity_prefix, unused_name, whnf_prop};
pub(crate) use case::{
    destruct_hyp_prefix, inductive_sort_prefix, injection_prefix, inversion_prefix,
};
pub use rewrite::{candidate_subterms, replace_in_formula};
pub(crate) use rewrite::{loc_prefix, unfold_prefix, RewriteSite};

/// Weak-head exposure of a goal's conclusion (unfolds defined predicates);
/// used by the parser to elaborate `exists` witnesses against the expected
/// sort.
pub fn whnf_concl(env: &crate::env::Env, goal: &crate::goal::Goal) -> crate::formula::Formula {
    basic::whnf_prop(env, &goal.concl).into_owned()
}

use proof_trace::metrics::{HotCounter, HotHistogram};

use crate::analysis::PreflightRejection;
use crate::env::Env;
use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::{Goal, ProofState};
use crate::term::Term;
use crate::Ident;

/// Where an `unfold`/`simpl` applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Loc {
    /// The conclusion of the focused goal.
    Goal,
    /// A named hypothesis.
    Hyp(Ident),
    /// Every hypothesis and the conclusion (`in *`).
    Everywhere,
}

/// A destructuring pattern: one name list per generated case.
///
/// `destruct H as [H1 H2]` is `[["H1", "H2"]]`; `destruct H as [H1|H2]` is
/// `[["H1"], ["H2"]]`; `destruct l as [|x xs]` is `[[], ["x", "xs"]]`.
pub type DestructPattern = Vec<Vec<Ident>>;

// Arguments to `specialize`/`pose proof` are plain terms; a bare variable
// that names a hypothesis discharges the next premise instead of
// instantiating a binder.

/// A tactic of the proof language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tactic {
    /// `intro x` / `intro`.
    Intro(Option<Ident>),
    /// `intros x y z` / `intros` (introduce as much as possible).
    Intros(Vec<Ident>),
    /// `exact H`: close the goal with a hypothesis (up to conversion).
    Exact(Ident),
    /// `assumption`.
    Assumption,
    /// `apply name` / `eapply name` / `apply name in H`.
    Apply {
        /// The lemma, rule or hypothesis to apply.
        name: Ident,
        /// Forward mode: apply in this hypothesis.
        in_hyp: Option<Ident>,
        /// `eapply`: allow metavariables, discharged by backchaining.
        existential: bool,
    },
    /// `split` on a conjunction or bi-implication.
    Split,
    /// `left`.
    Left,
    /// `right`.
    Right,
    /// `constructor`: first applicable constructor or intro rule.
    Constructor,
    /// `econstructor`: like `constructor` with `eapply` semantics.
    EConstructor,
    /// `exists t`.
    ExistsTac(Term),
    /// `destruct target [as pattern] [eqn:E]`.
    Destruct {
        /// A hypothesis name, a context variable, or a term.
        target: DestructTarget,
        /// Optional `as` pattern.
        pattern: Option<DestructPattern>,
        /// Optional `eqn:` name (term targets only).
        eqn: Option<Ident>,
    },
    /// `induction x [as pattern]`: structural induction on a context
    /// variable of inductive datatype sort. Hypotheses mentioning `x` are
    /// reverted into the motive automatically.
    Induction(Ident, Option<DestructPattern>),
    /// `inversion H` on an inductive-predicate hypothesis.
    Inversion(Ident),
    /// `injection H`: constructor injectivity, adds component equations.
    Injection(Ident),
    /// `discriminate [H]`: constructor-clash contradiction.
    Discriminate(Option<Ident>),
    /// `subst`: eliminate all `x = t` / `t = x` hypotheses.
    Subst,
    /// `reflexivity` (decides definitional equality).
    Reflexivity,
    /// `symmetry` / `symmetry in H`.
    Symmetry(Option<Ident>),
    /// `f_equal`: reduce `f a1.. = f b1..` to argument equalities.
    FEqual,
    /// `congruence`: congruence closure over hypothesis equations.
    Congruence,
    /// `simpl` / `simpl in H` / `simpl in *`.
    Simpl(Loc),
    /// `unfold f, g` / `... in H` / `... in *`.
    Unfold(Vec<Ident>, Loc),
    /// `rewrite [<-] name [in H]`.
    Rewrite {
        /// Equation lemma or hypothesis.
        name: Ident,
        /// False for `<-` (right-to-left).
        forward: bool,
        /// Rewrite inside this hypothesis instead of the conclusion.
        in_hyp: Option<Ident>,
    },
    /// `lia` (also `omega`): linear arithmetic over `nat`.
    Lia,
    /// `auto [using l1, l2]`.
    Auto(Vec<Ident>),
    /// `eauto [using l1, l2]`.
    EAuto(Vec<Ident>),
    /// `trivial`.
    Trivial,
    /// `contradiction`.
    Contradiction,
    /// `exfalso`.
    Exfalso,
    /// `clear H ...`.
    Clear(Vec<Ident>),
    /// `revert x H ...` (also used for `generalize dependent`).
    Revert(Vec<Ident>),
    /// `specialize (H a1 .. an)`.
    Specialize(Ident, Vec<Term>),
    /// `pose proof (name a1 .. an) as H`.
    PoseProof(Ident, Vec<Term>, Option<Ident>),
    /// `assert (H : F)` / `assert (F)`.
    Assert(Option<Ident>, Formula),
    /// `t1; t2`.
    Seq(Box<Tactic>, Box<Tactic>),
    /// `t; [t1 | t2 | ...]` — dispatch to the generated goals.
    SeqDispatch(Box<Tactic>, Vec<Tactic>),
    /// `try t`.
    Try(Box<Tactic>),
    /// `repeat t`.
    Repeat(Box<Tactic>),
    /// `first [t1 | t2 | ...]` (also `t1 || t2`).
    First(Vec<Tactic>),
    /// `idtac`, and bullets (`-`, `+`, `*`), which are treated as no-ops.
    Idtac,
    /// `fail`: always fails (useful in `first`/tests).
    Fail,
}

/// A hypothesis name, context variable, or term targeted by `destruct`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestructTarget {
    /// A name resolved against hypotheses first, then context variables.
    Name(Ident),
    /// An arbitrary term of inductive datatype sort.
    Term(Term),
}

/// The metrics [`apply_tactic_timed`] records for one tactic head: the
/// `minicoq.tactic.<head>.ns` latency histogram and one counter per
/// outcome. Each handle resolves once per process.
struct TacticMetrics {
    head: &'static str,
    ns: HotHistogram,
    ok: HotCounter,
    rejected: HotCounter,
    parse: HotCounter,
    timeout: HotCounter,
}

/// The `static` [`TacticMetrics`] of the head `$head`.
macro_rules! tactic_metrics {
    ($head:literal) => {{
        static METRICS: TacticMetrics = TacticMetrics {
            head: $head,
            ns: HotHistogram::new(concat!("minicoq.tactic.", $head, ".ns")),
            ok: HotCounter::new(concat!("minicoq.tactic.", $head, ".ok")),
            rejected: HotCounter::new(concat!("minicoq.tactic.", $head, ".rejected")),
            parse: HotCounter::new(concat!("minicoq.tactic.", $head, ".parse")),
            timeout: HotCounter::new(concat!("minicoq.tactic.", $head, ".timeout")),
        };
        &METRICS
    }};
}

impl Tactic {
    /// The head keyword of the tactic, as a stable label for per-tactic
    /// metrics. Tacticals report as their combinator (`seq`, `try`, …)
    /// rather than recursing into their bodies.
    pub fn head(&self) -> &'static str {
        self.metrics().head
    }

    /// The metric handles of the tactic's head.
    fn metrics(&self) -> &'static TacticMetrics {
        match self {
            Tactic::Intro(_) => tactic_metrics!("intro"),
            Tactic::Intros(_) => tactic_metrics!("intros"),
            Tactic::Exact(_) => tactic_metrics!("exact"),
            Tactic::Assumption => tactic_metrics!("assumption"),
            Tactic::Apply {
                in_hyp: Some(_), ..
            } => tactic_metrics!("apply_in"),
            Tactic::Apply {
                existential: true, ..
            } => tactic_metrics!("eapply"),
            Tactic::Apply { .. } => tactic_metrics!("apply"),
            Tactic::Split => tactic_metrics!("split"),
            Tactic::Left => tactic_metrics!("left"),
            Tactic::Right => tactic_metrics!("right"),
            Tactic::Constructor => tactic_metrics!("constructor"),
            Tactic::EConstructor => tactic_metrics!("econstructor"),
            Tactic::ExistsTac(_) => tactic_metrics!("exists"),
            Tactic::Destruct { .. } => tactic_metrics!("destruct"),
            Tactic::Induction(..) => tactic_metrics!("induction"),
            Tactic::Inversion(_) => tactic_metrics!("inversion"),
            Tactic::Injection(_) => tactic_metrics!("injection"),
            Tactic::Discriminate(_) => tactic_metrics!("discriminate"),
            Tactic::Subst => tactic_metrics!("subst"),
            Tactic::Reflexivity => tactic_metrics!("reflexivity"),
            Tactic::Symmetry(_) => tactic_metrics!("symmetry"),
            Tactic::FEqual => tactic_metrics!("f_equal"),
            Tactic::Congruence => tactic_metrics!("congruence"),
            Tactic::Simpl(_) => tactic_metrics!("simpl"),
            Tactic::Unfold(..) => tactic_metrics!("unfold"),
            Tactic::Rewrite { .. } => tactic_metrics!("rewrite"),
            Tactic::Lia => tactic_metrics!("lia"),
            Tactic::Auto(_) => tactic_metrics!("auto"),
            Tactic::EAuto(_) => tactic_metrics!("eauto"),
            Tactic::Trivial => tactic_metrics!("trivial"),
            Tactic::Contradiction => tactic_metrics!("contradiction"),
            Tactic::Exfalso => tactic_metrics!("exfalso"),
            Tactic::Clear(_) => tactic_metrics!("clear"),
            Tactic::Revert(_) => tactic_metrics!("revert"),
            Tactic::Specialize(..) => tactic_metrics!("specialize"),
            Tactic::PoseProof(..) => tactic_metrics!("pose_proof"),
            Tactic::Assert(..) => tactic_metrics!("assert"),
            Tactic::Seq(..) => tactic_metrics!("seq"),
            Tactic::SeqDispatch(..) => tactic_metrics!("seq_dispatch"),
            Tactic::Try(_) => tactic_metrics!("try"),
            Tactic::Repeat(_) => tactic_metrics!("repeat"),
            Tactic::First(_) => tactic_metrics!("first"),
            Tactic::Idtac => tactic_metrics!("idtac"),
            Tactic::Fail => tactic_metrics!("fail"),
        }
    }
}

/// Applies a tactic to the focused goal of `st`.
///
/// On success, returns the new proof state. Tacticals (`;`, `try`,
/// `repeat`, `first`) manage focus themselves.
pub fn apply_tactic(
    env: &Env,
    st: &ProofState,
    tac: &Tactic,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    eval(env, st, tac, &mut None, fuel)
}

/// [`apply_tactic`], instrumented: when tracing is armed, records the
/// evaluation into the `minicoq.tactic.<head>.ns` latency histogram and
/// bumps the matching outcome counter (`ok` / `rejected` / `parse` /
/// `timeout`), through handles resolved once per head, so the call
/// neither builds a name nor takes the registry lock. The non-recursive
/// entry point — tactical bodies do not come back through it, so each
/// top-level evaluation is counted exactly once.
/// With tracing off this is one atomic load over the plain call.
///
/// `ran` is what the pre-flight checker handed on
/// ([`PreflightVerdict::Ran`](crate::analysis::PreflightVerdict::Ran)):
/// the goals of the whole fuel-free step it ran on `st`'s focused goal,
/// which is the first goal step this evaluation reaches. That step
/// commits them instead of running again; every tick is charged as
/// without them.
pub fn apply_tactic_timed(
    env: &Env,
    st: &ProofState,
    tac: &Tactic,
    mut ran: Option<Vec<Goal>>,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    if !proof_trace::enabled() {
        return eval(env, st, tac, &mut ran, fuel);
    }
    let metrics = tac.metrics();
    let start = std::time::Instant::now();
    let result = eval(env, st, tac, &mut ran, fuel);
    metrics.ns.record(start.elapsed().as_nanos() as u64);
    let outcome = match &result {
        Ok(_) => &metrics.ok,
        Err(TacticError::Timeout) => &metrics.timeout,
        Err(TacticError::Parse(_)) => &metrics.parse,
        Err(_) => &metrics.rejected,
    };
    outcome.inc();
    result
}

/// The evaluator. `ran`, until a goal step takes it, holds the goals that
/// step commits (see [`apply_tactic_timed`]).
fn eval(
    env: &Env,
    st: &ProofState,
    tac: &Tactic,
    ran: &mut Option<Vec<Goal>>,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    fuel.tick()?;
    match tac {
        Tactic::Idtac => Ok(st.clone()),
        Tactic::Fail => Err(TacticError::rejected("fail tactic")),
        Tactic::Seq(t1, t2) => {
            let st1 = eval(env, st, t1, ran, fuel)?;
            focus_each(st, st1, None, |_, sub| eval(env, sub, t2, ran, fuel))
        }
        Tactic::SeqDispatch(t1, ts) => {
            let st1 = eval(env, st, t1, ran, fuel)?;
            focus_each(st, st1, Some(ts.len()), |i, sub| {
                eval(env, sub, &ts[i], ran, fuel)
            })
        }
        Tactic::Try(t) => match eval(env, st, t, ran, fuel) {
            Ok(st2) => Ok(st2),
            Err(TacticError::Timeout) => Err(TacticError::Timeout),
            Err(_) => Ok(st.clone()),
        },
        Tactic::Repeat(t) => repeat_tactic(env, st, t, ran, fuel),
        Tactic::First(ts) => {
            for t in ts {
                match eval(env, st, t, ran, fuel) {
                    Ok(st2) => return Ok(st2),
                    Err(TacticError::Timeout) => return Err(TacticError::Timeout),
                    Err(_) => continue,
                }
            }
            Err(TacticError::rejected("no tactic in `first` applied"))
        }
        _ => {
            if st.goals.is_empty() {
                return Err(TacticError::NoGoals);
            }
            dispatch_goal_tactic(env, st, tac, ran, fuel)
        }
    }
}

/// The focus loop of `;`, `; [..]` and `repeat`. `head` is what a tactic
/// made of `st`: the goals it put in place of the focused goal, then
/// `st`'s unfocused tail. Runs `then(i, sub)` on the `i`-th new goal alone
/// in focus — after checking there are `arity` of them, when given — and
/// appends the tail's goals untouched, so they stay shared with `st`.
fn focus_each(
    st: &ProofState,
    head: ProofState,
    arity: Option<usize>,
    mut then: impl FnMut(usize, &ProofState) -> Result<ProofState, TacticError>,
) -> Result<ProofState, TacticError> {
    let produced = head.goals.len() - st.goals.len().saturating_sub(1);
    if let Some(n) = arity.filter(|&n| n != produced) {
        return Err(TacticError::rejected(format!(
            "dispatch expects {n} goals, got {produced}"
        )));
    }
    let mut goals = head.goals.into_iter();
    let mut out = Vec::new();
    for (i, g) in goals.by_ref().take(produced).enumerate() {
        out.extend(then(i, &ProofState { goals: vec![g] })?.goals);
    }
    out.extend(goals);
    Ok(ProofState { goals: out })
}

/// `repeat t`: applies `t` to the focused goal until it fails, recursing
/// into generated subgoals, fuel-bounded.
fn repeat_tactic(
    env: &Env,
    st: &ProofState,
    t: &Tactic,
    ran: &mut Option<Vec<Goal>>,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    fuel.charge(4)?;
    let st1 = match eval(env, st, t, ran, fuel) {
        Ok(s) => s,
        Err(TacticError::Timeout) => return Err(TacticError::Timeout),
        Err(_) => return Ok(st.clone()),
    };
    // No progress: stop to guarantee termination on idempotent tactics.
    if st1 == *st {
        return Ok(st1);
    }
    focus_each(st, st1, None, |_, sub| {
        repeat_tactic(env, sub, t, ran, fuel)
    })
}

fn dispatch_goal_tactic(
    env: &Env,
    st: &ProofState,
    tac: &Tactic,
    ran: &mut Option<Vec<Goal>>,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    let goal: &Goal = &st.goals[0];
    // Pre-flight hands on goals only where the first goal step reached is
    // the whole step it ran.
    let step = match ran.take() {
        Some(goals) => Some(Ok(goals)),
        None => fuel_free_step(env, goal, tac),
    };
    if let Some(step) = step {
        return Ok(st.replace_focused(step?));
    }
    let new_goals = match tac {
        Tactic::Exact(h) => basic::exact(env, goal, h, fuel)?,
        Tactic::Assumption => basic::assumption(env, goal, fuel)?,
        Tactic::Contradiction => basic::contradiction(env, goal, fuel)?,
        Tactic::Reflexivity => basic::reflexivity(env, goal, fuel)?,
        Tactic::FEqual => basic::f_equal(env, goal, fuel)?,
        Tactic::Apply {
            name,
            in_hyp,
            existential,
        } => apply::apply(env, goal, name, in_hyp.as_deref(), *existential, fuel)?,
        Tactic::Constructor => apply::constructor(env, goal, false, fuel)?,
        Tactic::EConstructor => apply::constructor(env, goal, true, fuel)?,
        Tactic::Specialize(h, args) => apply::specialize(env, goal, h, args, fuel)?,
        Tactic::PoseProof(name, args, as_name) => {
            apply::pose_proof(env, goal, name, args, as_name.as_deref(), fuel)?
        }
        Tactic::Destruct {
            target,
            pattern,
            eqn,
        } => case::destruct(env, goal, target, pattern.as_ref(), eqn.as_deref(), fuel)?,
        Tactic::Induction(x, pattern) => case::induction(env, goal, x, pattern.as_ref())?,
        Tactic::Inversion(h) => case::inversion(env, goal, h, fuel)?,
        Tactic::Injection(h) => case::injection(env, goal, h, fuel)?,
        Tactic::Discriminate(h) => case::discriminate(env, goal, h.as_deref(), fuel)?,
        Tactic::Subst => case::subst_tac(goal, fuel)?,
        Tactic::Congruence => congruence::congruence(env, goal, fuel)?,
        Tactic::Simpl(loc) => rewrite::simpl(env, goal, loc, fuel)?,
        Tactic::Unfold(names, loc) => rewrite::unfold(env, goal, names, loc, fuel)?,
        Tactic::Rewrite {
            name,
            forward,
            in_hyp,
        } => rewrite::rewrite(env, goal, name, *forward, in_hyp.as_deref(), fuel)?,
        Tactic::Lia => lia::lia(env, goal, fuel)?,
        Tactic::Auto(using) => auto::auto_tactic(env, goal, using, false, fuel)?,
        Tactic::EAuto(using) => auto::auto_tactic(env, goal, using, true, fuel)?,
        Tactic::Trivial => auto::trivial(env, goal, fuel)?,
        // Tacticals and no-ops are handled by the caller, whole steps
        // above.
        _ => unreachable!("tactical reached goal dispatch"),
    };
    Ok(st.replace_focused(new_goals))
}

/// The tactics that are whole fuel-free steps on a goal — they read no
/// fuel and fail only with a [`PreflightRejection`] — run on `goal`:
/// the goals that replace it, or `None` for every other tactic.
pub(crate) fn fuel_free_step(
    env: &Env,
    goal: &Goal,
    tac: &Tactic,
) -> Option<Result<Vec<Goal>, PreflightRejection>> {
    let one = |step: Result<Goal, PreflightRejection>| step.map(|g| vec![g]);
    Some(match tac {
        Tactic::Intro(name) => one(basic::intro(env, goal, name.as_deref())),
        Tactic::Intros(names) => one(basic::intros(env, goal, names)),
        Tactic::Split => basic::split(goal),
        Tactic::Left => basic::left_or_right(goal, false),
        Tactic::Right => basic::left_or_right(goal, true),
        Tactic::ExistsTac(t) => one(basic::exists_tac(env, goal, t)),
        Tactic::Exfalso => Ok(basic::exfalso(goal)),
        Tactic::Clear(names) => one(basic::clear(goal, names)),
        Tactic::Revert(names) => one(basic::revert(goal, names)),
        Tactic::Symmetry(loc) => one(basic::symmetry(env, goal, loc.as_deref())),
        Tactic::Assert(name, f) => basic::assert_tac(goal, name.as_deref(), f),
        _ => return None,
    })
}

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

// The pre-flight analyzer mirrors exact prefixes of the evaluator, and
// the simulated oracle and the generator read formulas the way the
// tactics do; they borrow the same helpers so none can drift apart.
pub use apply::expose_rule;
pub(crate) use apply::stmt_of;
pub(crate) use basic::whnf_prop;
pub use rewrite::{candidate_subterms, replace_in_formula};

/// Weak-head exposure of a goal's conclusion (unfolds defined predicates);
/// used by the parser to elaborate `exists` witnesses against the expected
/// sort.
pub fn whnf_concl(env: &crate::env::Env, goal: &crate::goal::Goal) -> crate::formula::Formula {
    basic::whnf_prop(env, &goal.concl)
}

use crate::env::Env;
use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::ProofState;
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

impl Tactic {
    /// The head keyword of the tactic, as a stable label for per-tactic
    /// metrics. Tacticals report as their combinator (`seq`, `try`, …)
    /// rather than recursing into their bodies.
    pub fn head(&self) -> &'static str {
        match self {
            Tactic::Intro(_) => "intro",
            Tactic::Intros(_) => "intros",
            Tactic::Exact(_) => "exact",
            Tactic::Assumption => "assumption",
            Tactic::Apply {
                in_hyp: Some(_), ..
            } => "apply_in",
            Tactic::Apply {
                existential: true, ..
            } => "eapply",
            Tactic::Apply { .. } => "apply",
            Tactic::Split => "split",
            Tactic::Left => "left",
            Tactic::Right => "right",
            Tactic::Constructor => "constructor",
            Tactic::EConstructor => "econstructor",
            Tactic::ExistsTac(_) => "exists",
            Tactic::Destruct { .. } => "destruct",
            Tactic::Induction(..) => "induction",
            Tactic::Inversion(_) => "inversion",
            Tactic::Injection(_) => "injection",
            Tactic::Discriminate(_) => "discriminate",
            Tactic::Subst => "subst",
            Tactic::Reflexivity => "reflexivity",
            Tactic::Symmetry(_) => "symmetry",
            Tactic::FEqual => "f_equal",
            Tactic::Congruence => "congruence",
            Tactic::Simpl(_) => "simpl",
            Tactic::Unfold(..) => "unfold",
            Tactic::Rewrite { .. } => "rewrite",
            Tactic::Lia => "lia",
            Tactic::Auto(_) => "auto",
            Tactic::EAuto(_) => "eauto",
            Tactic::Trivial => "trivial",
            Tactic::Contradiction => "contradiction",
            Tactic::Exfalso => "exfalso",
            Tactic::Clear(_) => "clear",
            Tactic::Revert(_) => "revert",
            Tactic::Specialize(..) => "specialize",
            Tactic::PoseProof(..) => "pose_proof",
            Tactic::Assert(..) => "assert",
            Tactic::Seq(..) => "seq",
            Tactic::SeqDispatch(..) => "seq_dispatch",
            Tactic::Try(_) => "try",
            Tactic::Repeat(_) => "repeat",
            Tactic::First(_) => "first",
            Tactic::Idtac => "idtac",
            Tactic::Fail => "fail",
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
    fuel.tick()?;
    match tac {
        Tactic::Idtac => Ok(st.clone()),
        Tactic::Fail => Err(TacticError::rejected("fail tactic")),
        Tactic::Seq(t1, t2) => {
            let rest = st.goals.len().saturating_sub(1);
            let st1 = apply_tactic(env, st, t1, fuel)?;
            let produced = st1.goals.len() - rest;
            let mut out = Vec::new();
            for g in st1.goals.iter().take(produced) {
                let sub = ProofState {
                    goals: vec![g.clone()],
                };
                let sub = apply_tactic(env, &sub, t2, fuel)?;
                out.extend(sub.goals);
            }
            out.extend(st1.goals.into_iter().skip(produced));
            Ok(ProofState { goals: out })
        }
        Tactic::SeqDispatch(t1, ts) => {
            let rest = st.goals.len().saturating_sub(1);
            let st1 = apply_tactic(env, st, t1, fuel)?;
            let produced = st1.goals.len() - rest;
            if produced != ts.len() {
                return Err(TacticError::rejected(format!(
                    "dispatch expects {} goals, got {produced}",
                    ts.len()
                )));
            }
            let mut out = Vec::new();
            for (g, t) in st1.goals.iter().take(produced).zip(ts) {
                let sub = ProofState {
                    goals: vec![g.clone()],
                };
                let sub = apply_tactic(env, &sub, t, fuel)?;
                out.extend(sub.goals);
            }
            out.extend(st1.goals.into_iter().skip(produced));
            Ok(ProofState { goals: out })
        }
        Tactic::Try(t) => match apply_tactic(env, st, t, fuel) {
            Ok(st2) => Ok(st2),
            Err(TacticError::Timeout) => Err(TacticError::Timeout),
            Err(_) => Ok(st.clone()),
        },
        Tactic::Repeat(t) => repeat_tactic(env, st, t, fuel),
        Tactic::First(ts) => {
            for t in ts {
                match apply_tactic(env, st, t, fuel) {
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
            dispatch_goal_tactic(env, st, tac, fuel)
        }
    }
}

/// [`apply_tactic`], instrumented: when tracing is armed, records the
/// evaluation into the `minicoq.tactic.<head>.ns` latency histogram and
/// bumps the matching outcome counter (`ok` / `rejected` / `parse` /
/// `timeout`). The non-recursive entry point — tactical bodies still go
/// through plain [`apply_tactic`], so each top-level evaluation is counted
/// exactly once. With tracing off this is one atomic load over the plain
/// call.
pub fn apply_tactic_timed(
    env: &Env,
    st: &ProofState,
    tac: &Tactic,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    if !proof_trace::enabled() {
        return apply_tactic(env, st, tac, fuel);
    }
    let head = tac.head();
    let start = std::time::Instant::now();
    let result = apply_tactic(env, st, tac, fuel);
    let ns = start.elapsed().as_nanos() as u64;
    proof_trace::metrics::observe(&format!("minicoq.tactic.{head}.ns"), ns);
    let outcome = match &result {
        Ok(_) => "ok",
        Err(TacticError::Timeout) => "timeout",
        Err(TacticError::Parse(_)) => "parse",
        Err(_) => "rejected",
    };
    proof_trace::metrics::counter_inc(&format!("minicoq.tactic.{head}.{outcome}"));
    result
}

/// `repeat t`: applies `t` to the focused goal until it fails, recursing
/// into generated subgoals, fuel-bounded.
fn repeat_tactic(
    env: &Env,
    st: &ProofState,
    t: &Tactic,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    fuel.charge(4)?;
    let st1 = match apply_tactic(env, st, t, fuel) {
        Ok(s) => s,
        Err(TacticError::Timeout) => return Err(TacticError::Timeout),
        Err(_) => return Ok(st.clone()),
    };
    // No progress: stop to guarantee termination on idempotent tactics.
    if st1 == *st {
        return Ok(st1);
    }
    let rest = st.goals.len().saturating_sub(1);
    let produced = st1.goals.len() - rest;
    let mut out = Vec::new();
    for g in st1.goals.iter().take(produced) {
        let sub = ProofState {
            goals: vec![g.clone()],
        };
        let sub = repeat_tactic(env, &sub, t, fuel)?;
        out.extend(sub.goals);
    }
    out.extend(st1.goals.into_iter().skip(produced));
    Ok(ProofState { goals: out })
}

fn dispatch_goal_tactic(
    env: &Env,
    st: &ProofState,
    tac: &Tactic,
    fuel: &mut Fuel,
) -> Result<ProofState, TacticError> {
    let goal: &crate::goal::Goal = &st.goals[0];
    let new_goals = match tac {
        Tactic::Intro(name) => basic::intro(env, goal, name.as_deref())?,
        Tactic::Intros(names) => basic::intros(env, goal, names)?,
        Tactic::Exact(h) => basic::exact(env, goal, h, fuel)?,
        Tactic::Assumption => basic::assumption(env, goal, fuel)?,
        Tactic::Split => basic::split(goal)?,
        Tactic::Left => basic::left(goal)?,
        Tactic::Right => basic::right(goal)?,
        Tactic::ExistsTac(t) => basic::exists_tac(env, goal, t, fuel)?,
        Tactic::Exfalso => basic::exfalso(goal),
        Tactic::Contradiction => basic::contradiction(env, goal, fuel)?,
        Tactic::Clear(names) => basic::clear(goal, names)?,
        Tactic::Revert(names) => basic::revert(goal, names)?,
        Tactic::Reflexivity => basic::reflexivity(env, goal, fuel)?,
        Tactic::Symmetry(loc) => basic::symmetry(env, goal, loc.as_deref())?,
        Tactic::FEqual => basic::f_equal(env, goal, fuel)?,
        Tactic::Assert(name, f) => basic::assert_tac(goal, name.as_deref(), f)?,
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
        Tactic::Subst => case::subst_tac(env, goal, fuel)?,
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
        // Tacticals and no-ops are handled by the caller.
        _ => unreachable!("tactical reached goal dispatch"),
    };
    Ok(st.replace_focused(new_goals))
}

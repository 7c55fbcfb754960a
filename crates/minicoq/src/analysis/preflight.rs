//! The tactic pre-flight checker.
//!
//! Each check answers one question: *is this tactic guaranteed to fail on
//! this goal?* "Guaranteed" is with respect to the real evaluator in
//! [`crate::tactic`] — a rejection here must imply `apply_tactic` returns
//! `Err` (any error: rejection or timeout both mean the search discards the
//! proposal). The checks fall into three families:
//!
//! * **the kernel's own fuel-free code.** The whole steps `intro`,
//!   `intros`, `clear`, `revert`, `exists`, `symmetry`, `assert`, `split`,
//!   `left`, `right` and `exfalso` run here. Where the step is the first
//!   goal step the evaluator reaches — the sentence itself, the head of `;`
//!   or of `; [..]` (once the arity check passes), the first alternative
//!   of `first`/`||`, or the body of `idtac; t` and `idtac; [t]` — its
//!   goals are handed on ([`PreflightVerdict::Ran`]) and the caller passes
//!   them to `apply_tactic_timed`, whose evaluation commits them there
//!   instead of running the step again. Every other tactic's fuel-free
//!   prefix (name resolution, the goal or hypothesis shape, the `rewrite`
//!   equation) is one `*_prefix` function in [`crate::tactic`] that the
//!   evaluator calls too. All of them fail with a [`PreflightRejection`],
//!   so the verdict is exactly the evaluator's;
//! * **under-approximations** where the evaluator's behaviour depends on
//!   unification or fuel (the `apply` head-symbol analysis treats any head
//!   that conversion could still change as a wildcard, the `rewrite`
//!   candidate scan runs with at least the evaluator's budget);
//! * **tactical reasoning** (`;`-dispatch arity, `first` with every branch
//!   rejected) justified by the tactical semantics in `apply_tactic`.

use std::borrow::Cow;
use std::fmt;

use crate::env::{Env, PredDef};
use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::{Goal, ProofState};
use crate::rule::{Rule, RuleForm};
use crate::subst::{subst_sorts_formula, SortSubst};
use crate::tactic::{
    apply_prefix, candidate_subterms, constructor_prefix, destruct_hyp_prefix, f_equal_prefix,
    fuel_free_step, hyp, inductive_sort_prefix, injection_prefix, intro, inversion_prefix,
    loc_prefix, pose_proof_prefix, reflexivity_prefix, specialize_prefix, unfold_prefix,
    unused_name, whnf_prop, DestructTarget, RewriteSite, Tactic,
};
use crate::term::Term;
use crate::unify::{InstantiatedRule, Unifier};
use crate::Ident;

/// Machine-readable reason a tactic was statically rejected, aligned with
/// the paper's invalid-tactic taxonomy (all of these refine "rejected by
/// the proof assistant"; timeouts and duplicate states are only observable
/// dynamically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReasonCode {
    /// A referenced lemma, hypothesis, variable or definition is not in
    /// scope.
    UnknownName,
    /// A name the tactic would introduce is already bound.
    NameInUse,
    /// `apply`: the rule's conclusion head symbol can never unify with the
    /// goal's head symbol.
    HeadMismatch,
    /// `rewrite`/`injection`: the statement is not an equation.
    NonEquation,
    /// `destruct`/`induction`/`inversion`/`constructor` on a target that is
    /// not inductive.
    NotInductive,
    /// `intro`/`intros` on an atomic conclusion with nothing to introduce.
    AtomicConclusion,
    /// The goal's shape rules the tactic out (`split` on a non-conjunction,
    /// `exists` on a non-existential, a rewrite with no matching subterm).
    GoalShape,
    /// Argument-count mismatch (`specialize` without arguments, too many
    /// instantiation arguments, forward `apply` of a premise-free lemma).
    ArityMismatch,
    /// Malformed tactical nesting (`;`-dispatch arity, empty `first`).
    MalformedTactical,
    /// The tactic needs hypotheses and the context has none.
    EmptyContext,
    /// The tactic fails unconditionally (`fail`).
    AlwaysFails,
}

impl ReasonCode {
    /// Every reason code, for exhaustive per-reason reporting.
    pub const ALL: [ReasonCode; 11] = [
        ReasonCode::UnknownName,
        ReasonCode::NameInUse,
        ReasonCode::HeadMismatch,
        ReasonCode::NonEquation,
        ReasonCode::NotInductive,
        ReasonCode::AtomicConclusion,
        ReasonCode::GoalShape,
        ReasonCode::ArityMismatch,
        ReasonCode::MalformedTactical,
        ReasonCode::EmptyContext,
        ReasonCode::AlwaysFails,
    ];

    /// Stable kebab-case identifier, used as the per-reason counter key in
    /// search statistics and reports.
    pub fn code(self) -> &'static str {
        match self {
            ReasonCode::UnknownName => "unknown-name",
            ReasonCode::NameInUse => "name-in-use",
            ReasonCode::HeadMismatch => "head-mismatch",
            ReasonCode::NonEquation => "non-equation",
            ReasonCode::NotInductive => "not-inductive",
            ReasonCode::AtomicConclusion => "atomic-conclusion",
            ReasonCode::GoalShape => "goal-shape",
            ReasonCode::ArityMismatch => "arity-mismatch",
            ReasonCode::MalformedTactical => "malformed-tactical",
            ReasonCode::EmptyContext => "empty-context",
            ReasonCode::AlwaysFails => "always-fails",
        }
    }
    /// A rejection of this class, with `detail`.
    pub(crate) fn because(self, detail: impl Into<String>) -> PreflightRejection {
        PreflightRejection {
            code: self,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ReasonCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A static rejection: the reason class plus a human-readable detail. The
/// kernel's whole fuel-free steps and fuel-free prefixes fail with one, so
/// the checker reports exactly their verdict; the evaluator reports its
/// detail as a [`TacticError::Rejected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreflightRejection {
    /// The taxonomy class.
    pub code: ReasonCode,
    /// Human-readable specifics (names, shapes).
    pub detail: String,
}

impl From<PreflightRejection> for TacticError {
    fn from(r: PreflightRejection) -> TacticError {
        TacticError::Rejected(r.detail)
    }
}

impl fmt::Display for PreflightRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// The checker's verdict on one tactic invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreflightVerdict {
    /// The tactic may succeed; run it.
    Accept,
    /// The first goal step the evaluator reaches on the focused goal is a
    /// whole fuel-free step, and it ran: these goals replace that goal.
    /// That is the evaluator's own step, so the caller hands them to
    /// [`crate::tactic::apply_tactic_timed`], which commits them there
    /// instead of running the step again.
    Ran(Vec<Goal>),
    /// The tactic is guaranteed to fail; the evaluation can be skipped.
    Reject(PreflightRejection),
}

/// The outcome of a check that runs no step: passed, or rejected.
type Checked = Result<(), PreflightRejection>;

fn reject(code: ReasonCode, detail: impl Into<String>) -> PreflightVerdict {
    PreflightVerdict::Reject(code.because(detail))
}

/// Pre-flight check against a proof state: the tactic will run on the
/// focused goal. States with no focused goal are accepted unseen (the
/// evaluator's `NoGoals` handling stays authoritative there).
///
/// `fuel_budget` must be at least the evaluator's per-tactic fuel budget —
/// the `rewrite` subterm scan uses it to guarantee the static scan sees at
/// least as much as the real one.
pub fn preflight_state(
    env: &Env,
    st: &ProofState,
    tac: &Tactic,
    fuel_budget: u64,
) -> PreflightVerdict {
    match st.focused() {
        Some(goal) => preflight_goal(env, goal, tac, fuel_budget),
        None => PreflightVerdict::Accept,
    }
}

/// Pre-flight check of a tactic against a single goal.
pub fn preflight_goal(env: &Env, goal: &Goal, tac: &Tactic, fuel_budget: u64) -> PreflightVerdict {
    use PreflightVerdict::Accept;
    match tac {
        // Tacticals. `try`/`repeat` swallow every non-timeout error.
        Tactic::Try(_) | Tactic::Repeat(_) => Accept,
        Tactic::First(ts) => check_first(env, goal, ts, fuel_budget),
        // `t1; t2` fails when `t1` does, and reaches `t1`'s first goal
        // step first; `idtac; t` runs `t` on the unchanged goal.
        Tactic::Seq(t1, t2) => match **t1 {
            Tactic::Idtac => preflight_goal(env, goal, t2, fuel_budget),
            _ => preflight_goal(env, goal, t1, fuel_budget),
        },
        Tactic::SeqDispatch(t1, ts) => check_dispatch(env, goal, t1, ts, fuel_budget),
        // The kernel's whole fuel-free steps run here, and their goals are
        // handed on; every other tactic is checked.
        _ => match fuel_free_step(env, goal, tac) {
            Some(Ok(goals)) => PreflightVerdict::Ran(goals),
            Some(Err(r)) => PreflightVerdict::Reject(r),
            None => match check(env, goal, tac, fuel_budget) {
                Ok(()) => Accept,
                Err(r) => PreflightVerdict::Reject(r),
            },
        },
    }
}

/// The check of a tactic that is neither a tactical nor a whole step.
fn check(env: &Env, goal: &Goal, tac: &Tactic, fuel_budget: u64) -> Checked {
    match tac {
        Tactic::Fail => Err(ReasonCode::AlwaysFails.because("`fail` fails unconditionally")),

        // The kernel's fuel-free prefixes.
        Tactic::Exact(h) => hyp(goal, h).map(drop),
        Tactic::Reflexivity => reflexivity_prefix(env, goal).map(drop),
        Tactic::FEqual => f_equal_prefix(goal).map(drop),
        Tactic::Constructor | Tactic::EConstructor => constructor_prefix(env, goal).map(drop),
        Tactic::Inversion(h) => inversion_prefix(env, goal, h).map(drop),
        Tactic::Injection(h) => injection_prefix(env, goal, h).map(drop),
        Tactic::Unfold(names, loc) => unfold_prefix(env, goal, names, loc),
        Tactic::Simpl(loc) => loc_prefix(goal, loc),

        // Prefixes, then under-approximations of the rest.
        Tactic::Assumption => check_nonempty_context(goal, "assumption"),
        Tactic::Contradiction => check_nonempty_context(goal, "contradiction"),
        Tactic::Apply { name, in_hyp, .. } => check_apply(env, goal, name, in_hyp.as_deref()),
        Tactic::Specialize(h, args) => {
            let hf = specialize_prefix(goal, h, args)?;
            check_instantiate_first(env, goal, hf, &args[0])
        }
        Tactic::PoseProof(name, args, as_name) => {
            check_pose_proof(env, goal, name, args, as_name.as_deref())
        }
        Tactic::Destruct { target, .. } => check_destruct(env, goal, target),
        Tactic::Induction(x, _) => check_induction(env, goal, x),
        Tactic::Discriminate(h) => check_discriminate(env, goal, h.as_deref()),
        Tactic::Rewrite {
            name,
            forward,
            in_hyp,
        } => check_rewrite(env, goal, name, *forward, in_hyp.as_deref(), fuel_budget),

        // No-ops and always-dynamic tactics (`auto`-family tactics silently
        // skip unknown `using` names, so even those are not statically
        // checkable), and the tacticals and whole steps `preflight_goal`
        // handles.
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Tacticals

fn check_first(env: &Env, goal: &Goal, ts: &[Tactic], fuel_budget: u64) -> PreflightVerdict {
    if ts.is_empty() {
        return reject(
            ReasonCode::MalformedTactical,
            "`first` with no alternatives",
        );
    }
    let mut first_rejection = None;
    for (i, t) in ts.iter().enumerate() {
        match preflight_goal(env, goal, t, fuel_budget) {
            r @ PreflightVerdict::Reject(_) => {
                if first_rejection.is_none() {
                    first_rejection = Some(r);
                }
            }
            // Only the first alternative's first goal step is the
            // evaluator's first: a rejected one still runs and fails.
            ran @ PreflightVerdict::Ran(_) if i == 0 => return ran,
            _ => return PreflightVerdict::Accept,
        }
    }
    // Every alternative is guaranteed to fail, so `first` is too.
    first_rejection.expect("non-empty alternatives")
}

fn check_dispatch(
    env: &Env,
    goal: &Goal,
    t1: &Tactic,
    ts: &[Tactic],
    fuel_budget: u64,
) -> PreflightVerdict {
    let v1 = preflight_goal(env, goal, t1, fuel_budget);
    // If the head tactic's success goal count is known (it ran whole, or
    // it is statically certain) and differs from the branch count, the
    // dispatch errors whenever the head succeeds — and the whole tactical
    // fails whenever the head fails. A tactical head hands on its first
    // step's goals, not its own.
    let tactical = matches!(
        t1,
        Tactic::Seq(..) | Tactic::SeqDispatch(..) | Tactic::First(_)
    );
    let count = match &v1 {
        PreflightVerdict::Reject(_) => return v1,
        PreflightVerdict::Ran(goals) if !tactical => Some(goals.len()),
        _ => success_goal_count(env, goal, t1),
    };
    if let Some(k) = count {
        if k != ts.len() {
            return reject(
                ReasonCode::MalformedTactical,
                format!("dispatch provides {} branches for {k} goals", ts.len()),
            );
        }
        if matches!(t1, Tactic::Idtac) && ts.len() == 1 {
            // `idtac; [t]` runs `t` on the unchanged goal.
            return preflight_goal(env, goal, &ts[0], fuel_budget);
        }
    }
    v1
}

/// The number of goals `tac` leaves behind *if it succeeds*, when that
/// count is statically certain. Used only for dispatch-arity reasoning, so
/// `None` (unknown) is always safe. Whole steps are counted by running
/// them, in `check_dispatch`.
fn success_goal_count(env: &Env, goal: &Goal, tac: &Tactic) -> Option<usize> {
    match tac {
        // Goal closers: success returns zero subgoals.
        Tactic::Exact(_)
        | Tactic::Assumption
        | Tactic::Reflexivity
        | Tactic::Lia
        | Tactic::Congruence
        | Tactic::Contradiction
        | Tactic::Trivial
        | Tactic::Auto(_)
        | Tactic::EAuto(_)
        | Tactic::Discriminate(_) => Some(0),
        // Single-goal transformers.
        Tactic::Idtac
        | Tactic::Subst
        | Tactic::Simpl(_)
        | Tactic::Unfold(..)
        | Tactic::Specialize(..)
        | Tactic::PoseProof(..)
        | Tactic::Injection(_) => Some(1),
        // `rewrite` success yields the rewritten goal plus one side goal per
        // premise of the (exposed, instantiated) equation.
        Tactic::Rewrite { name, in_hyp, .. } => {
            let site = RewriteSite::read(env, goal, name, in_hyp.as_deref()).ok()?;
            let (form, _, _) = site.equation(env);
            Some(1 + form.instance().premises.len())
        }
        Tactic::Destruct {
            target: DestructTarget::Name(n),
            ..
        } => {
            if let Some(hf) = goal.hyp(n) {
                match *whnf_prop(env, hf) {
                    Formula::And(..) | Formula::Exists(..) | Formula::Iff(..) | Formula::True => {
                        Some(1)
                    }
                    Formula::Or(..) => Some(2),
                    Formula::False => Some(0),
                    _ => None,
                }
            } else if let Some(sort) = goal.var_sort(n) {
                env.sort_inductive(sort).map(|(ind, _)| ind.ctors.len())
            } else {
                None
            }
        }
        Tactic::Induction(x, _) => {
            let sort = goal.var_sort(x)?;
            env.sort_inductive(sort).map(|(ind, _)| ind.ctors.len())
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Prefixes, then under-approximations

fn check_nonempty_context(goal: &Goal, tactic: &str) -> Checked {
    if goal.hyps.is_empty() {
        return Err(ReasonCode::EmptyContext.because(format!("`{tactic}` with no hypotheses")));
    }
    Ok(())
}

/// The weak-head symbol of a formula for unification purposes. `Wild`
/// covers every head that conversion-time normalization could still change
/// (stuck defined predicates, unknown predicates, formula matches): those
/// must never participate in a static mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Head {
    True,
    False,
    Eq,
    And,
    Or,
    Implies,
    Iff,
    Not,
    Forall,
    ForallSort,
    Exists,
    Ind(Ident),
    Wild,
}

fn head_of(env: &Env, f: &Formula) -> Head {
    match &*whnf_prop(env, f) {
        Formula::True => Head::True,
        Formula::False => Head::False,
        Formula::Eq(..) => Head::Eq,
        Formula::And(..) => Head::And,
        Formula::Or(..) => Head::Or,
        Formula::Implies(..) => Head::Implies,
        Formula::Iff(..) => Head::Iff,
        Formula::Not(..) => Head::Not,
        Formula::Forall(..) => Head::Forall,
        Formula::ForallSort(..) => Head::ForallSort,
        Formula::Exists(..) => Head::Exists,
        Formula::Pred(p, _, _) => match env.preds.get(p.as_str()) {
            // Inductive predicates are never unfolded by normalization, so
            // their head is rigid.
            Some(PredDef::Inductive(_)) => Head::Ind(p.clone()),
            // A whnf-stuck defined predicate may still unfold once
            // conversion normalizes its arguments; unknown predicates stay
            // conservative too.
            _ => Head::Wild,
        },
        Formula::FMatch(..) => Head::Wild,
    }
}

/// The set of heads an instantiated rule conclusion can present to
/// `unify_concl`, including the iff-directional and `~P`-on-`False`
/// fallbacks of `apply_backward`.
fn conclusion_heads(env: &Env, inst: &InstantiatedRule, out: &mut Vec<Head>) {
    out.push(head_of(env, &inst.conclusion));
    match &inst.conclusion {
        Formula::Iff(a, b) => {
            out.push(head_of(env, a));
            out.push(head_of(env, b));
        }
        Formula::Not(_) => out.push(Head::False),
        _ => {}
    }
}

fn check_apply(env: &Env, goal: &Goal, name: &str, in_hyp: Option<&str>) -> Checked {
    let rule = apply_prefix(env, goal, name, in_hyp)?;
    match in_hyp {
        None => check_apply_backward(env, goal, name, &rule),
        Some(_) => check_apply_forward(env, &rule),
    }
}

fn check_apply_backward(env: &Env, goal: &Goal, name: &str, rule: &Rule) -> Checked {
    let goal_head = head_of(env, &goal.concl);
    if goal_head == Head::Wild {
        return Ok(());
    }
    // The evaluator tries the statement as parsed and, on failure, its
    // exposed reading; collect candidate conclusion heads from both.
    let mut heads = Vec::new();
    conclusion_heads(env, rule.plain().instance(), &mut heads);
    if let Some(exposed) = rule.exposed(env) {
        conclusion_heads(env, exposed.instance(), &mut heads);
    }
    if heads.iter().any(|h| *h == Head::Wild || *h == goal_head) {
        return Ok(());
    }
    Err(ReasonCode::HeadMismatch
        .because(format!("the conclusion of {name} can never match the goal")))
}

/// Forward `apply L in H` needs at least one premise reading; mirrors the
/// candidate construction in `apply_forward` for both the raw and exposed
/// statement.
fn check_apply_forward(env: &Env, rule: &Rule) -> Checked {
    let has_candidates = |form: &RuleForm| {
        let inst = form.instance();
        !inst.premises.is_empty() || matches!(inst.conclusion, Formula::Iff(..))
    };
    if has_candidates(rule.plain()) || rule.exposed(env).is_some_and(has_candidates) {
        return Ok(());
    }
    Err(ReasonCode::ArityMismatch.because("the lemma has no premise"))
}

/// Mirrors the first iteration of `instantiate_with_args`: exposes the next
/// binder or premise, then checks the first argument can be consumed at
/// all. Later iterations depend on term substitution, so only the first is
/// statically certain.
fn check_instantiate_first(env: &Env, goal: &Goal, stmt: &Formula, arg: &Term) -> Checked {
    let mut uni = Unifier::new();
    let mut cur = stmt.clone();
    loop {
        match cur {
            Formula::ForallSort(v, body) => {
                let m = uni.fresh_sort_meta();
                let mut map = SortSubst::new();
                map.insert(v, m);
                cur = subst_sorts_formula(&body, &map);
            }
            Formula::Pred(..) => match whnf_prop(env, &cur) {
                Cow::Owned(exposed) if exposed != cur => cur = exposed,
                _ => break,
            },
            _ => break,
        }
    }
    let names_a_hyp = matches!(arg, Term::Var(v) if goal.hyp(v).is_some());
    match (&cur, names_a_hyp) {
        (Formula::Forall(..), _) | (Formula::Implies(..), true) => Ok(()),
        (Formula::Implies(..), false) => {
            Err(ReasonCode::ArityMismatch
                .because("expected a hypothesis name to discharge a premise"))
        }
        _ => Err(ReasonCode::ArityMismatch.because("too many arguments")),
    }
}

fn check_pose_proof(
    env: &Env,
    goal: &Goal,
    name: &str,
    args: &[Term],
    as_name: Option<&str>,
) -> Checked {
    let stmt = pose_proof_prefix(env, goal, name, args)?;
    if let Some(arg) = args.first() {
        check_instantiate_first(env, goal, &stmt, arg)?;
    }
    if let Some(n) = as_name {
        unused_name(&goal.names_in_scope(), n)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Case analysis

fn check_destruct(env: &Env, goal: &Goal, target: &DestructTarget) -> Checked {
    match target {
        DestructTarget::Name(n) => check_destruct_name(env, goal, n),
        DestructTarget::Term(Term::Var(v))
            if goal.hyp(v).is_some() || goal.var_sort(v).is_some() =>
        {
            check_destruct_name(env, goal, v)
        }
        // Sort inference on arbitrary terms is dynamic.
        DestructTarget::Term(_) => Ok(()),
    }
}

fn check_destruct_name(env: &Env, goal: &Goal, n: &str) -> Checked {
    if goal.hyp(n).is_some() {
        return destruct_hyp_prefix(env, goal, n).map(drop);
    }
    if let Some(sort) = goal.var_sort(n) {
        return inductive_sort_prefix(env, n, sort);
    }
    // Otherwise `destruct` introduces binders until `n` is a variable;
    // it fails if it cannot make the first step.
    match intro(env, goal, None) {
        Ok(_) => Ok(()),
        Err(_) => Err(ReasonCode::UnknownName.because(format!("no such name: {n}"))),
    }
}

fn check_induction(env: &Env, goal: &Goal, x: &str) -> Checked {
    if let Some(sort) = goal.var_sort(x) {
        return inductive_sort_prefix(env, x, sort);
    }
    if goal.hyp(x).is_some() {
        // `intro_until_var` can never turn a hypothesis name into a
        // context variable: fresh names avoid the scope, and a binder that
        // happens to be named `x` collides with the hypothesis. The loop is
        // bounded and fuel-free, so the failure is guaranteed.
        return Err(ReasonCode::NotInductive
            .because(format!("{x} is a hypothesis, not an inducible variable")));
    }
    match intro(env, goal, None) {
        Ok(_) => Ok(()),
        Err(_) => Err(ReasonCode::UnknownName.because(format!("{x} is not a variable"))),
    }
}

fn check_discriminate(env: &Env, goal: &Goal, h: Option<&str>) -> Checked {
    if let Some(h) = h {
        return hyp(goal, h).map(drop);
    }
    if !goal.hyps.is_empty() {
        return Ok(());
    }
    // With no hypotheses, only a `a <> b` conclusion can discriminate.
    if let Formula::Not(inner) = &*whnf_prop(env, &goal.concl) {
        if matches!(**inner, Formula::Eq(..)) {
            return Ok(());
        }
    }
    Err(ReasonCode::EmptyContext.because("no hypotheses and the goal is not a disequality"))
}

// ---------------------------------------------------------------------------
// Equational tactics

fn check_rewrite(
    env: &Env,
    goal: &Goal,
    name: &str,
    forward: bool,
    in_hyp: Option<&str>,
    fuel_budget: u64,
) -> Checked {
    let site = RewriteSite::read(env, goal, name, in_hyp)?;
    let (form, l, r) = site.equation(env);
    // Replay the candidate scan with at least the evaluator's fuel budget:
    // a smaller budget can only find fewer matches, so a complete scan with
    // no match means the real one rejects or times out — both failures. If
    // *our* budget runs out first, the result is unknown: accept.
    let pat = if forward { l } else { r };
    let mut cands = Vec::new();
    candidate_subterms(&site.target, &mut cands);
    let mut fuel = Fuel::new(fuel_budget);
    for cand in &cands {
        if fuel.tick().is_err() {
            return Ok(());
        }
        let mut u2 = form.unifier().clone();
        if u2.unify_terms(pat, cand, &mut fuel).is_ok() {
            return Ok(());
        }
    }
    let side = if forward { "left" } else { "right" };
    Err(ReasonCode::GoalShape.because(format!(
        "found no subterm matching the {side} side of {name}"
    )))
}

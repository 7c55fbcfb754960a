//! The tactic pre-flight checker.
//!
//! Each check answers one question: *is this tactic guaranteed to fail on
//! this goal?* "Guaranteed" is with respect to the real evaluator in
//! [`crate::tactic`] — a rejection here must imply `apply_tactic` returns
//! `Err` (any error: rejection or timeout both mean the search discards the
//! proposal). The checks fall into three families:
//!
//! * **exact mirrors** of deterministic, fuel-free evaluator prefixes
//!   (name resolution, `whnf` goal shapes, the `rewrite` equality check on
//!   the very same cached rule readings, [`crate::rule`], the evaluator
//!   reads);
//! * **under-approximations** where the evaluator's behaviour depends on
//!   unification or fuel (the `apply` head-symbol analysis treats any head
//!   that conversion could still change as a wildcard);
//! * **tactical reasoning** (`;`-dispatch arity, `first` with every branch
//!   rejected) justified by the tactical semantics in `apply_tactic`.

use std::collections::BTreeSet;
use std::fmt;

use crate::env::{Env, PredDef};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::{Goal, ProofState};
use crate::rule::{Rule, RuleForm};
use crate::sort::Sort;
use crate::subst::{subst_formula1, subst_sorts_formula, SortSubst};
use crate::tactic::{candidate_subterms, stmt_of, whnf_prop, DestructTarget, Loc, Tactic};
use crate::term::Term;
use crate::unify::{InstantiatedRule, Unifier};

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
}

impl fmt::Display for ReasonCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A static rejection: the reason class plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreflightRejection {
    /// The taxonomy class.
    pub code: ReasonCode,
    /// Human-readable specifics (names, shapes).
    pub detail: String,
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
    /// The tactic is guaranteed to fail; the evaluation can be skipped.
    Reject(PreflightRejection),
}

impl PreflightVerdict {
    /// True for [`PreflightVerdict::Reject`].
    pub fn is_reject(&self) -> bool {
        matches!(self, PreflightVerdict::Reject(_))
    }
}

fn reject(code: ReasonCode, detail: impl Into<String>) -> PreflightVerdict {
    PreflightVerdict::Reject(PreflightRejection {
        code,
        detail: detail.into(),
    })
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
        // Unconditional no-ops and always-dynamic tactics. `auto`-family
        // tactics silently skip unknown `using` names, so even those are
        // not statically checkable.
        Tactic::Idtac
        | Tactic::Subst
        | Tactic::Exfalso
        | Tactic::Lia
        | Tactic::Congruence
        | Tactic::Auto(_)
        | Tactic::EAuto(_)
        | Tactic::Trivial => Accept,
        Tactic::Fail => reject(ReasonCode::AlwaysFails, "`fail` fails unconditionally"),

        // Tacticals. `try`/`repeat` swallow every non-timeout error.
        Tactic::Try(_) | Tactic::Repeat(_) => Accept,
        Tactic::First(ts) => check_first(env, goal, ts, fuel_budget),
        Tactic::Seq(t1, t2) => {
            let v1 = preflight_goal(env, goal, t1, fuel_budget);
            if v1.is_reject() {
                return v1;
            }
            if matches!(**t1, Tactic::Idtac) {
                // `idtac; t` runs `t` on the unchanged goal.
                return preflight_goal(env, goal, t2, fuel_budget);
            }
            Accept
        }
        Tactic::SeqDispatch(t1, ts) => check_dispatch(env, goal, t1, ts, fuel_budget),

        // Introduction and context management.
        Tactic::Intro(name) => check_intro(env, goal, name.as_deref()),
        Tactic::Intros(names) => check_intros(env, goal, names),
        Tactic::Exact(h) => check_hyp_exists(goal, h),
        Tactic::Assumption => check_nonempty_context(goal, "assumption"),
        Tactic::Contradiction => check_nonempty_context(goal, "contradiction"),
        Tactic::Clear(names) => check_clear(goal, names),
        Tactic::Revert(names) => check_revert(goal, names),

        // Goal-shape tactics.
        Tactic::Split => match goal.concl {
            Formula::And(..) | Formula::Iff(..) | Formula::True => Accept,
            _ => reject(ReasonCode::GoalShape, "goal is not a conjunction"),
        },
        Tactic::Left | Tactic::Right => match goal.concl {
            Formula::Or(..) => Accept,
            _ => reject(ReasonCode::GoalShape, "goal is not a disjunction"),
        },
        Tactic::ExistsTac(witness) => check_exists(env, goal, witness),
        Tactic::Reflexivity => match whnf_prop(env, &goal.concl) {
            Formula::Eq(..) | Formula::Iff(..) | Formula::True => Accept,
            _ => reject(ReasonCode::GoalShape, "goal is not an equality"),
        },
        Tactic::Symmetry(loc) => check_symmetry(env, goal, loc.as_deref()),
        Tactic::FEqual => check_f_equal(goal),
        Tactic::Assert(_, f) => check_formula_vars(goal, f),

        // Chaining.
        Tactic::Apply {
            name,
            in_hyp,
            existential: _,
        } => check_apply(env, goal, name, in_hyp.as_deref()),
        Tactic::Constructor | Tactic::EConstructor => check_constructor(env, goal),
        Tactic::Specialize(h, args) => check_specialize(env, goal, h, args),
        Tactic::PoseProof(name, args, as_name) => {
            check_pose_proof(env, goal, name, args, as_name.as_deref())
        }

        // Case analysis.
        Tactic::Destruct { target, .. } => check_destruct(env, goal, target),
        Tactic::Induction(x, _) => check_induction(env, goal, x),
        Tactic::Inversion(h) => check_inversion(env, goal, h),
        Tactic::Injection(h) => check_injection(env, goal, h),
        Tactic::Discriminate(h) => check_discriminate(env, goal, h.as_deref()),

        // Equational tactics.
        Tactic::Rewrite {
            name,
            forward,
            in_hyp,
        } => check_rewrite(env, goal, name, *forward, in_hyp.as_deref(), fuel_budget),
        Tactic::Unfold(names, loc) => check_unfold(env, goal, names, loc),
        Tactic::Simpl(loc) => match loc {
            Loc::Hyp(h) => check_hyp_exists(goal, h),
            _ => Accept,
        },
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
    for t in ts {
        match preflight_goal(env, goal, t, fuel_budget) {
            PreflightVerdict::Accept => return PreflightVerdict::Accept,
            r => {
                if first_rejection.is_none() {
                    first_rejection = Some(r);
                }
            }
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
    if v1.is_reject() {
        return v1;
    }
    // If the head tactic's success goal count is statically known and
    // differs from the branch count, the dispatch errors whenever the head
    // succeeds — and the whole tactical fails whenever the head fails.
    if let Some(k) = success_goal_count(env, goal, t1) {
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
    PreflightVerdict::Accept
}

/// The number of goals `tac` leaves behind *if it succeeds*, when that
/// count is statically certain. Used only for dispatch-arity reasoning, so
/// `None` (unknown) is always safe.
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
        | Tactic::Intro(_)
        | Tactic::Intros(_)
        | Tactic::Exfalso
        | Tactic::Symmetry(_)
        | Tactic::Subst
        | Tactic::Simpl(_)
        | Tactic::Unfold(..)
        | Tactic::Clear(_)
        | Tactic::Revert(_)
        | Tactic::Specialize(..)
        | Tactic::PoseProof(..)
        | Tactic::ExistsTac(_)
        | Tactic::Injection(_) => Some(1),
        Tactic::Assert(..) => Some(2),
        Tactic::Split => match goal.concl {
            Formula::And(..) | Formula::Iff(..) => Some(2),
            Formula::True => Some(0),
            _ => None,
        },
        Tactic::Left | Tactic::Right => match goal.concl {
            Formula::Or(..) => Some(1),
            _ => None,
        },
        // `rewrite` success yields the rewritten goal plus one side goal per
        // premise of the (exposed, instantiated) equation.
        Tactic::Rewrite { name, .. } => {
            let rule = Rule::resolve(env, goal, name)?;
            let inst = rule.exposed_or_plain(env).instance();
            match inst.conclusion {
                Formula::Eq(..) => Some(1 + inst.premises.len()),
                _ => None,
            }
        }
        Tactic::Destruct {
            target: DestructTarget::Name(n),
            ..
        } => {
            if let Some(hf) = goal.hyp(n) {
                match whnf_prop(env, hf) {
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
// Introduction and context management

fn check_intro(env: &Env, goal: &Goal, name: Option<&str>) -> PreflightVerdict {
    match name {
        Some(n) => check_intros(env, goal, std::slice::from_ref(&n.to_string())),
        None => match whnf_prop(env, &goal.concl) {
            Formula::Forall(..)
            | Formula::ForallSort(..)
            | Formula::Implies(..)
            | Formula::Not(..) => PreflightVerdict::Accept,
            _ => reject(ReasonCode::AtomicConclusion, "nothing to introduce"),
        },
    }
}

/// Exact simulation of `intros names`: the evaluator's per-step scope is
/// the initial scope plus the names introduced so far, and the conclusion
/// evolves by the same substitutions the evaluator performs.
fn check_intros(env: &Env, goal: &Goal, names: &[String]) -> PreflightVerdict {
    if names.is_empty() {
        // Plain `intros` is a no-op when there is nothing to introduce.
        return PreflightVerdict::Accept;
    }
    let mut scope = goal.names_in_scope();
    let mut sort_vars: BTreeSet<String> = goal.sort_vars.iter().cloned().collect();
    let mut cur = goal.concl.clone();
    for n in names {
        match whnf_prop(env, &cur) {
            Formula::Forall(v, _, body) => {
                if scope.contains(n) {
                    return reject(ReasonCode::NameInUse, format!("name {n} already used"));
                }
                cur = subst_formula1(&body, &v, &Term::var(n.clone()));
                scope.insert(n.clone());
            }
            Formula::ForallSort(v, body) => {
                if sort_vars.contains(n) {
                    return reject(
                        ReasonCode::NameInUse,
                        format!("sort variable {n} already used"),
                    );
                }
                cur = if *n != v {
                    let mut map = SortSubst::new();
                    map.insert(v, Sort::Var(n.clone()));
                    subst_sorts_formula(&body, &map)
                } else {
                    *body
                };
                sort_vars.insert(n.clone());
                scope.insert(n.clone());
            }
            Formula::Implies(_, q) => {
                if scope.contains(n) {
                    return reject(ReasonCode::NameInUse, format!("name {n} already used"));
                }
                cur = *q;
                scope.insert(n.clone());
            }
            Formula::Not(_) => {
                cur = Formula::False;
                scope.insert(n.clone());
            }
            _ => {
                return reject(
                    ReasonCode::AtomicConclusion,
                    format!("nothing to introduce for {n}"),
                )
            }
        }
    }
    PreflightVerdict::Accept
}

fn check_hyp_exists(goal: &Goal, h: &str) -> PreflightVerdict {
    if goal.hyp(h).is_none() {
        reject(ReasonCode::UnknownName, format!("no hypothesis {h}"))
    } else {
        PreflightVerdict::Accept
    }
}

fn check_nonempty_context(goal: &Goal, tactic: &str) -> PreflightVerdict {
    if goal.hyps.is_empty() {
        reject(
            ReasonCode::EmptyContext,
            format!("`{tactic}` with no hypotheses"),
        )
    } else {
        PreflightVerdict::Accept
    }
}

/// Exact mirror of `clear`'s (pure, fuel-free) name loop.
fn check_clear(goal: &Goal, names: &[String]) -> PreflightVerdict {
    let mut g = goal.clone();
    for n in names {
        if g.remove_hyp(n) {
            continue;
        }
        if g.var_sort(n).is_some() {
            let used = g.hyps.iter().any(|(_, f)| f.mentions(n)) || g.concl.mentions(n);
            if used {
                return reject(ReasonCode::NameInUse, format!("{n} is used in the goal"));
            }
            g.remove_var(n);
            continue;
        }
        return reject(ReasonCode::UnknownName, format!("no such hypothesis: {n}"));
    }
    PreflightVerdict::Accept
}

/// Exact mirror of `revert`'s name-resolution loop (the conclusion rebuilt
/// by `revert` never affects which names resolve).
fn check_revert(goal: &Goal, names: &[String]) -> PreflightVerdict {
    let mut g = goal.clone();
    for n in names.iter().rev() {
        if g.hyp(n).is_some() {
            g.remove_hyp(n);
            continue;
        }
        if g.var_sort(n).is_some() {
            let deps: Vec<String> = g
                .hyps
                .iter()
                .filter(|(_, f)| f.mentions(n))
                .map(|(hn, _)| hn.clone())
                .collect();
            for hn in &deps {
                g.remove_hyp(hn);
            }
            g.remove_var(n);
            continue;
        }
        return reject(ReasonCode::UnknownName, format!("no such name: {n}"));
    }
    PreflightVerdict::Accept
}

// ---------------------------------------------------------------------------
// Goal-shape tactics

fn check_exists(env: &Env, goal: &Goal, witness: &Term) -> PreflightVerdict {
    if !matches!(whnf_prop(env, &goal.concl), Formula::Exists(..)) {
        return reject(ReasonCode::GoalShape, "goal is not an existential");
    }
    let mut fv = BTreeSet::new();
    witness.free_vars(&mut fv);
    for x in &fv {
        if goal.var_sort(x).is_none() {
            return reject(ReasonCode::UnknownName, format!("unknown variable {x}"));
        }
    }
    PreflightVerdict::Accept
}

fn check_symmetry(env: &Env, goal: &Goal, loc: Option<&str>) -> PreflightVerdict {
    match loc {
        None => match whnf_prop(env, &goal.concl) {
            Formula::Eq(..) | Formula::Iff(..) => PreflightVerdict::Accept,
            _ => reject(ReasonCode::GoalShape, "goal is not an equality"),
        },
        Some(h) => match goal.hyp(h) {
            None => reject(ReasonCode::UnknownName, format!("no hypothesis {h}")),
            Some(f) => match whnf_prop(env, f) {
                Formula::Eq(..) | Formula::Iff(..) => PreflightVerdict::Accept,
                _ => reject(ReasonCode::NonEquation, "hypothesis is not an equality"),
            },
        },
    }
}

fn check_f_equal(goal: &Goal) -> PreflightVerdict {
    let Formula::Eq(_, a, b) = &goal.concl else {
        return reject(ReasonCode::GoalShape, "goal is not an equality");
    };
    let (Term::App(f, fargs), Term::App(g, gargs)) = (a, b) else {
        return reject(ReasonCode::GoalShape, "both sides must be applications");
    };
    if f != g || fargs.len() != gargs.len() {
        return reject(ReasonCode::HeadMismatch, "head symbols differ");
    }
    PreflightVerdict::Accept
}

fn check_formula_vars(goal: &Goal, f: &Formula) -> PreflightVerdict {
    let mut fv = BTreeSet::new();
    f.free_vars(&mut fv);
    for x in &fv {
        if goal.var_sort(x).is_none() {
            return reject(ReasonCode::UnknownName, format!("unknown variable {x}"));
        }
    }
    PreflightVerdict::Accept
}

// ---------------------------------------------------------------------------
// apply / constructor / specialize / pose proof

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
    Ind(String),
    Wild,
}

fn head_of(env: &Env, f: &Formula) -> Head {
    match whnf_prop(env, f) {
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
            Some(PredDef::Inductive(_)) => Head::Ind(p),
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

fn check_apply(env: &Env, goal: &Goal, name: &str, in_hyp: Option<&str>) -> PreflightVerdict {
    let Some(rule) = Rule::resolve(env, goal, name) else {
        return reject(ReasonCode::UnknownName, format!("unknown lemma {name}"));
    };
    match in_hyp {
        None => check_apply_backward(env, goal, name, &rule),
        Some(h) => {
            if goal.hyp(h).is_none() {
                return reject(ReasonCode::UnknownName, format!("no hypothesis {h}"));
            }
            check_apply_forward(env, &rule)
        }
    }
}

fn check_apply_backward(env: &Env, goal: &Goal, name: &str, rule: &Rule) -> PreflightVerdict {
    let goal_head = head_of(env, &goal.concl);
    if goal_head == Head::Wild {
        return PreflightVerdict::Accept;
    }
    // The evaluator tries the statement as parsed and, on failure, its
    // exposed reading; collect candidate conclusion heads from both.
    let mut heads = Vec::new();
    conclusion_heads(env, rule.plain().instance(), &mut heads);
    if let Some(exposed) = rule.exposed(env) {
        conclusion_heads(env, exposed.instance(), &mut heads);
    }
    if heads.iter().any(|h| *h == Head::Wild || *h == goal_head) {
        return PreflightVerdict::Accept;
    }
    reject(
        ReasonCode::HeadMismatch,
        format!("the conclusion of {name} can never match the goal"),
    )
}

/// Forward `apply L in H` needs at least one premise reading; mirrors the
/// candidate construction in `apply_forward` for both the raw and exposed
/// statement.
fn check_apply_forward(env: &Env, rule: &Rule) -> PreflightVerdict {
    let has_candidates = |form: &RuleForm| {
        let inst = form.instance();
        !inst.premises.is_empty() || matches!(inst.conclusion, Formula::Iff(..))
    };
    if has_candidates(rule.plain()) || rule.exposed(env).is_some_and(has_candidates) {
        return PreflightVerdict::Accept;
    }
    reject(ReasonCode::ArityMismatch, "the lemma has no premise")
}

fn check_constructor(env: &Env, goal: &Goal) -> PreflightVerdict {
    match whnf_prop(env, &goal.concl) {
        Formula::True | Formula::And(..) | Formula::Iff(..) | Formula::Or(..) | Formula::Eq(..) => {
            PreflightVerdict::Accept
        }
        Formula::Pred(p, _, _) => match env.preds.get(p.as_str()) {
            Some(PredDef::Inductive(_)) => PreflightVerdict::Accept,
            _ => reject(
                ReasonCode::NotInductive,
                format!("{p} is not an inductive predicate"),
            ),
        },
        _ => reject(ReasonCode::GoalShape, "no constructor applies"),
    }
}

/// Mirrors the first iteration of `instantiate_with_args`: exposes the next
/// binder or premise, then checks the first argument can be consumed at
/// all. Later iterations depend on term substitution, so only the first is
/// statically certain.
fn check_instantiate_first(env: &Env, goal: &Goal, stmt: &Formula, arg: &Term) -> PreflightVerdict {
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
            Formula::Pred(..) => {
                let exposed = whnf_prop(env, &cur);
                if exposed == cur {
                    break;
                }
                cur = exposed;
            }
            _ => break,
        }
    }
    let names_a_hyp = matches!(arg, Term::Var(v) if goal.hyp(v).is_some());
    match (&cur, names_a_hyp) {
        (Formula::Forall(..), _) | (Formula::Implies(..), true) => PreflightVerdict::Accept,
        (Formula::Implies(..), false) => reject(
            ReasonCode::ArityMismatch,
            "expected a hypothesis name to discharge a premise",
        ),
        _ => reject(ReasonCode::ArityMismatch, "too many arguments"),
    }
}

fn check_specialize(env: &Env, goal: &Goal, h: &str, args: &[Term]) -> PreflightVerdict {
    let Some(hf) = goal.hyp(h) else {
        return reject(ReasonCode::UnknownName, format!("no hypothesis {h}"));
    };
    if args.is_empty() {
        return reject(ReasonCode::ArityMismatch, "specialize needs arguments");
    }
    check_instantiate_first(env, goal, hf, &args[0])
}

fn check_pose_proof(
    env: &Env,
    goal: &Goal,
    name: &str,
    args: &[Term],
    as_name: Option<&str>,
) -> PreflightVerdict {
    let Some(stmt) = stmt_of(env, goal, name) else {
        return reject(ReasonCode::UnknownName, format!("unknown lemma {name}"));
    };
    if args.is_empty() {
        if !stmt.is_ground() {
            return reject(ReasonCode::GoalShape, "statement is not ground");
        }
    } else {
        let v = check_instantiate_first(env, goal, &stmt, &args[0]);
        if v.is_reject() {
            return v;
        }
    }
    if let Some(n) = as_name {
        if goal.names_in_scope().contains(n) {
            return reject(ReasonCode::NameInUse, format!("name {n} already used"));
        }
    }
    PreflightVerdict::Accept
}

// ---------------------------------------------------------------------------
// Case analysis

/// Can `intro_until_var` make at least one step? If the conclusion's weak
/// head has no binder or premise, the target can never become a context
/// variable and `destruct`/`induction` fail immediately.
fn intro_can_step(env: &Env, goal: &Goal) -> bool {
    matches!(
        whnf_prop(env, &goal.concl),
        Formula::Forall(..) | Formula::ForallSort(..) | Formula::Implies(..) | Formula::Not(..)
    )
}

fn check_destruct(env: &Env, goal: &Goal, target: &DestructTarget) -> PreflightVerdict {
    match target {
        DestructTarget::Name(n) => check_destruct_name(env, goal, n),
        DestructTarget::Term(t) => {
            if let Term::Var(v) = t {
                if goal.hyp(v).is_some() || goal.var_sort(v).is_some() {
                    return check_destruct_name(env, goal, v);
                }
            }
            // Sort inference on arbitrary terms is dynamic.
            PreflightVerdict::Accept
        }
    }
}

fn check_destruct_name(env: &Env, goal: &Goal, n: &str) -> PreflightVerdict {
    if let Some(hf) = goal.hyp(n) {
        return match whnf_prop(env, hf) {
            Formula::And(..)
            | Formula::Or(..)
            | Formula::Exists(..)
            | Formula::Iff(..)
            | Formula::True
            | Formula::False => PreflightVerdict::Accept,
            Formula::Pred(p, _, _) => match env.preds.get(p.as_str()) {
                Some(PredDef::Inductive(_)) => PreflightVerdict::Accept,
                _ => reject(
                    ReasonCode::NotInductive,
                    format!("hypothesis {n} cannot be destructed"),
                ),
            },
            _ => reject(
                ReasonCode::NotInductive,
                format!("hypothesis {n} cannot be destructed"),
            ),
        };
    }
    if let Some(sort) = goal.var_sort(n) {
        return if env.sort_inductive(sort).is_none() {
            reject(
                ReasonCode::NotInductive,
                format!("{n} is not of an inductive datatype sort"),
            )
        } else {
            PreflightVerdict::Accept
        };
    }
    if intro_can_step(env, goal) {
        PreflightVerdict::Accept
    } else {
        reject(ReasonCode::UnknownName, format!("no such name: {n}"))
    }
}

fn check_induction(env: &Env, goal: &Goal, x: &str) -> PreflightVerdict {
    if let Some(sort) = goal.var_sort(x) {
        return if env.sort_inductive(sort).is_none() {
            reject(
                ReasonCode::NotInductive,
                format!("{x} is not of an inductive datatype sort"),
            )
        } else {
            PreflightVerdict::Accept
        };
    }
    if goal.hyp(x).is_some() {
        // `intro_until_var` can never turn a hypothesis name into a
        // context variable: fresh names avoid the scope, and a binder that
        // happens to be named `x` collides with the hypothesis. The loop is
        // bounded and fuel-free, so the failure is guaranteed.
        return reject(
            ReasonCode::NotInductive,
            format!("{x} is a hypothesis, not an inducible variable"),
        );
    }
    if intro_can_step(env, goal) {
        PreflightVerdict::Accept
    } else {
        reject(ReasonCode::UnknownName, format!("{x} is not a variable"))
    }
}

fn check_inversion(env: &Env, goal: &Goal, h: &str) -> PreflightVerdict {
    let Some(hf) = goal.hyp(h) else {
        return reject(ReasonCode::UnknownName, format!("no hypothesis {h}"));
    };
    match whnf_prop(env, hf) {
        Formula::Pred(p, _, _) => match env.preds.get(p.as_str()) {
            Some(PredDef::Inductive(_)) => PreflightVerdict::Accept,
            _ => reject(
                ReasonCode::NotInductive,
                format!("{p} is not an inductive predicate"),
            ),
        },
        _ => reject(
            ReasonCode::NotInductive,
            "hypothesis is not an inductive predicate application",
        ),
    }
}

fn check_injection(env: &Env, goal: &Goal, h: &str) -> PreflightVerdict {
    let Some(hf) = goal.hyp(h) else {
        return reject(ReasonCode::UnknownName, format!("no hypothesis {h}"));
    };
    match whnf_prop(env, hf) {
        Formula::Eq(..) => PreflightVerdict::Accept,
        _ => reject(ReasonCode::NonEquation, "hypothesis is not an equality"),
    }
}

fn check_discriminate(env: &Env, goal: &Goal, h: Option<&str>) -> PreflightVerdict {
    match h {
        Some(h) => check_hyp_exists(goal, h),
        None => {
            if !goal.hyps.is_empty() {
                return PreflightVerdict::Accept;
            }
            // With no hypotheses, only a `a <> b` conclusion can
            // discriminate.
            if let Formula::Not(inner) = whnf_prop(env, &goal.concl) {
                if matches!(*inner, Formula::Eq(..)) {
                    return PreflightVerdict::Accept;
                }
            }
            reject(
                ReasonCode::EmptyContext,
                "no hypotheses and the goal is not a disequality",
            )
        }
    }
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
) -> PreflightVerdict {
    let Some(rule) = Rule::resolve(env, goal, name) else {
        return reject(ReasonCode::UnknownName, format!("unknown equation {name}"));
    };
    // Identical to the evaluator: the exposed reading of the statement,
    // which must conclude with a syntactic equation.
    let form = rule.exposed_or_plain(env);
    let (inst, uni) = (form.instance(), form.unifier());
    let Formula::Eq(_, l, r) = &inst.conclusion else {
        return reject(
            ReasonCode::NonEquation,
            format!("{name} does not conclude with an equality"),
        );
    };
    let target = match in_hyp {
        None => goal.concl.clone(),
        Some(h) => match goal.hyp(h) {
            Some(f) => f.clone(),
            None => return reject(ReasonCode::UnknownName, format!("no hypothesis {h}")),
        },
    };
    // Replay the candidate scan with at least the evaluator's fuel budget:
    // a smaller budget can only find fewer matches, so a complete scan with
    // no match means the real one rejects or times out — both failures. If
    // *our* budget runs out first, the result is unknown: accept.
    let (pat, _) = if forward { (l, r) } else { (r, l) };
    let mut cands = Vec::new();
    candidate_subterms(&target, &mut cands);
    let mut fuel = Fuel::new(fuel_budget);
    for cand in &cands {
        if fuel.tick().is_err() {
            return PreflightVerdict::Accept;
        }
        let mut u2 = uni.clone();
        if u2.unify_terms(pat, cand, &mut fuel).is_ok() {
            return PreflightVerdict::Accept;
        }
    }
    reject(
        ReasonCode::GoalShape,
        format!(
            "found no subterm matching the {} side of {name}",
            if forward { "left" } else { "right" }
        ),
    )
}

fn check_unfold(env: &Env, goal: &Goal, names: &[String], loc: &Loc) -> PreflightVerdict {
    for n in names {
        if !env.preds.contains_key(n) && !env.funcs.contains_key(n) {
            return reject(ReasonCode::UnknownName, format!("unknown definition {n}"));
        }
    }
    if let Loc::Hyp(h) = loc {
        return check_hyp_exists(goal, h);
    }
    PreflightVerdict::Accept
}

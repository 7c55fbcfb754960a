//! Rule readings: the forms of a statement that `apply`, `rewrite`, `auto`
//! and the pre-flight checker match against goals.
//!
//! A statement is read as a rule by [`instantiate_rule`], which turns its
//! leading binders into metavariables and splits off its premises (the
//! *plain* reading). When a defined predicate heads its conclusion, it is
//! also read after `expose_rule` unfolds that predicate (the *exposed*
//! reading: `incl l m` as `forall x, In x l -> In x m`). When a syntactic
//! match fails, `apply` retries with both sides normalized up to
//! conversion: the instance's conclusion (or, for `apply … in`, a
//! premise; for an `Iff` conclusion, one side) and the goal's conclusion
//! (or the hypothesis).
//!
//! All of these depend only on the statement and on the definitions it
//! mentions, so a lemma (or an inductive-predicate rule) builds them once
//! and keeps them in its shared `Arc<Lemma>` ([`Lemma::rule`]); a
//! hypothesis gets them built for the one call ([`Rule::fresh`]). Each
//! normal form sits in a `NormalForm` slot, the same helper a goal's
//! conclusion keeps its own in ([`Target`](crate::goal::Target)).
//!
//! Fuel stays exact. Normalization charges single ticks only, so a cached
//! normal form's cost is replayed with [`Fuel::replay`], which matches a
//! live run in `spent`, `remaining` and the point of timeout.

use std::borrow::Cow;
use std::sync::OnceLock;

use crate::env::{Env, Lemma};
use crate::error::TacticError;
use crate::eval::{normalize_formula_opt, EvalMode};
use crate::formula::Formula;
use crate::fuel::{Fuel, DEFAULT_TACTIC_FUEL};
use crate::goal::Goal;
use crate::tactic::expose_rule;
use crate::unify::{instantiate_rule, InstantiatedRule, Unifier};

/// The readings of one statement, each built the first time a caller asks
/// for it: a rule whose plain reading always succeeds never pays for
/// exposure, and a `rewrite` by an exposed hypothesis never instantiates
/// its plain reading. Both are boxed, so a lemma never read as a rule
/// carries only two empty slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleFacts {
    plain: OnceLock<Box<RuleForm>>,
    /// The [`expose_rule`] statement and its reading, or `None` when
    /// exposure changes nothing.
    exposed: OnceLock<Option<Box<(Formula, RuleForm)>>>,
}

/// One reading of a statement: its instance, the unifier that
/// instantiating it left, and the conversion-normal forms `apply` replays.
#[derive(Debug, Clone)]
pub struct RuleForm {
    inst: InstantiatedRule,
    uni: Unifier,
    /// The instance's conclusion's normal form.
    conclusion: NormalForm,
    /// One normal form per premise of the instance, in order.
    premises: Box<[NormalForm]>,
    /// The normal forms of an `Iff` conclusion's two sides, left then
    /// right; empty for any other conclusion.
    iff: Box<[NormalForm]>,
}

impl RuleForm {
    fn of(stmt: &Formula) -> RuleForm {
        let mut uni = Unifier::new();
        let inst = instantiate_rule(stmt, &mut uni);
        let slots = |n| {
            std::iter::repeat_with(NormalForm::default)
                .take(n)
                .collect()
        };
        let iff = usize::from(matches!(inst.conclusion, Formula::Iff(..))) * 2;
        RuleForm {
            premises: slots(inst.premises.len()),
            iff: slots(iff),
            conclusion: NormalForm::default(),
            inst,
            uni,
        }
    }

    /// The statement instantiated from a fresh unifier, so its
    /// metavariables are numbered from 0 exactly as a tactic numbering them
    /// itself would.
    pub fn instance(&self) -> &InstantiatedRule {
        &self.inst
    }

    /// The unifier [`RuleForm::instance`] was taken from; a caller clones it
    /// to unify against the instance.
    pub fn unifier(&self) -> &Unifier {
        &self.uni
    }

    /// The instance's conclusion normalized up to conversion, and the fuel
    /// that cost, computed on first use on a private budget of
    /// [`DEFAULT_TACTIC_FUEL`]. `None` when that budget runs out: the caller
    /// then normalizes live, against its own budget.
    pub fn normal_conclusion(&self, env: &Env) -> Option<(&Formula, u64)> {
        self.conclusion.get(env, &self.inst.conclusion)
    }

    /// The slot of the instance's conclusion.
    pub(crate) fn conclusion_slot(&self) -> &NormalForm {
        &self.conclusion
    }

    /// The slot of the instance's premise `i`.
    pub(crate) fn premise_slot(&self, i: usize) -> &NormalForm {
        &self.premises[i]
    }

    /// The slot of one side of the instance's `Iff` conclusion (`right`
    /// picks the right-hand side); `None` for any other conclusion.
    pub(crate) fn iff_slot(&self, right: bool) -> Option<&NormalForm> {
        self.iff.get(usize::from(right))
    }
}

/// One formula's conversion-normal form, computed the first time a caller
/// asks for it, on a private budget of [`DEFAULT_TACTIC_FUEL`], together
/// with the ticks that cost. The normal form is kept, boxed, only when it
/// differs from the formula, so an empty or unchanged slot stays small
/// (every goal carries one); the slot holds `None` when the private budget
/// ran out (or normalization failed), and every caller then normalizes
/// live.
///
/// A slot must only ever be read with the one formula it was made for, and
/// under environments that agree on that formula's definitions. Rule forms
/// and goal conclusions ([`Target`](crate::goal::Target)) own their slots,
/// so both hold by construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct NormalForm(OnceLock<Option<(Option<Box<Formula>>, u64)>>);

impl NormalForm {
    /// `f` normalized up to conversion, and the fuel that cost; `None` when
    /// the private budget runs out, and the caller then normalizes live
    /// against its own.
    pub(crate) fn get<'a>(&'a self, env: &Env, f: &'a Formula) -> Option<(&'a Formula, u64)> {
        #[cfg(test)]
        if tests::live() {
            return None;
        }
        let normal = self.0.get_or_init(|| {
            let mut fuel = Fuel::new(DEFAULT_TACTIC_FUEL);
            let nf = normalize_formula_opt(env, f, EvalMode::conversion(), &mut fuel).ok()?;
            Some((nf.map(Box::new), fuel.spent()))
        });
        let (nf, cost) = normal.as_ref()?;
        Some((nf.as_deref().unwrap_or(f), *cost))
    }

    /// Whether the slot has been filled (successfully or not).
    pub(crate) fn is_filled(&self) -> bool {
        self.0.get().is_some()
    }
}

/// Normalizes `f` up to conversion against `fuel`: with a `slot` that holds
/// `f`'s normal form, that form, its cost replayed with [`Fuel::replay`];
/// otherwise live.
pub(crate) fn normalize_conv<'a>(
    env: &Env,
    f: &'a Formula,
    slot: Option<&'a NormalForm>,
    fuel: &mut Fuel,
) -> Result<Cow<'a, Formula>, TacticError> {
    match slot.and_then(|slot| slot.get(env, f)) {
        Some((nf, cost)) => {
            fuel.replay(cost)?;
            Ok(Cow::Borrowed(nf))
        }
        None => Ok(normalize_formula_opt(env, f, EvalMode::conversion(), fuel)?
            .map_or(Cow::Borrowed(f), Cow::Owned)),
    }
}

/// A name resolved to a rule: its statement and that statement's facts,
/// borrowed from a declaration or built for a hypothesis.
#[derive(Debug, Clone)]
pub struct Rule<'a> {
    stmt: &'a Formula,
    facts: Cow<'a, RuleFacts>,
}

impl<'a> Rule<'a> {
    /// Resolves `name` as `apply` and `rewrite` do: a hypothesis shadows a
    /// lemma, and a lemma shadows an inductive-predicate rule.
    pub(crate) fn resolve(env: &'a Env, goal: &'a Goal, name: &str) -> Option<Rule<'a>> {
        match goal.hyp(name) {
            Some(h) => Some(Rule::fresh(h)),
            None => env.rule_or_lemma(name).map(Lemma::rule),
        }
    }

    /// A rule whose facts are built for this value only.
    pub fn fresh(stmt: &'a Formula) -> Rule<'a> {
        Rule {
            stmt,
            facts: Cow::Owned(RuleFacts::default()),
        }
    }

    /// A rule reading `facts`, which must only ever be read with `stmt`.
    pub(crate) fn cached(stmt: &'a Formula, facts: &'a RuleFacts) -> Rule<'a> {
        #[cfg(test)]
        if tests::live() {
            return Rule::fresh(stmt);
        }
        Rule {
            stmt,
            facts: Cow::Borrowed(facts),
        }
    }

    /// The statement as declared.
    pub(crate) fn stmt(&self) -> &'a Formula {
        self.stmt
    }

    /// The plain reading.
    pub fn plain(&self) -> &RuleForm {
        self.facts
            .plain
            .get_or_init(|| Box::new(RuleForm::of(self.stmt)))
    }

    /// The exposed statement and its reading, when exposure changes the
    /// statement.
    fn exposed_pair(&self, env: &Env) -> Option<&(Formula, RuleForm)> {
        let exposed = self.facts.exposed.get_or_init(|| {
            let exposed = expose_rule(env, self.stmt);
            (exposed != *self.stmt).then(|| {
                let form = RuleForm::of(&exposed);
                Box::new((exposed, form))
            })
        });
        exposed.as_deref()
    }

    /// The `expose_rule` form of the statement, when that differs from
    /// the statement.
    pub fn exposed_stmt(&self, env: &Env) -> Option<&Formula> {
        self.exposed_pair(env).map(|(stmt, _)| stmt)
    }

    /// The exposed reading, when exposure changes the statement.
    pub fn exposed(&self, env: &Env) -> Option<&RuleForm> {
        self.exposed_pair(env).map(|(_, form)| form)
    }

    /// The exposed reading, or the plain one when exposure changes nothing:
    /// what `rewrite` matches.
    pub(crate) fn exposed_or_plain(&self, env: &Env) -> &RuleForm {
        self.exposed(env).unwrap_or_else(|| self.plain())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    thread_local! {
        static LIVE: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether this thread runs the uncached path (see [`live_path`]).
    pub(crate) fn live() -> bool {
        LIVE.with(Cell::get)
    }

    /// Runs `f` as the kernel ran before rule facts: every name resolves
    /// to facts built for the call, and every [`NormalForm`](super::NormalForm)
    /// slot, a rule's or a goal's, is bypassed, so both sides of every
    /// conversion fallback normalize live. The reference the
    /// fuel-equivalence suites check the caches against.
    pub(crate) fn live_path<T>(f: impl FnOnce() -> T) -> T {
        LIVE.with(|l| l.set(true));
        let out = f();
        LIVE.with(|l| l.set(false));
        out
    }
}

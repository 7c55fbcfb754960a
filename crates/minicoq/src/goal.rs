//! Sequents (goals) and in-progress proof states.
//!
//! A goal's conclusion is a [`Target`]: the formula, plus a slot for its
//! conversion-normal form that `apply`, `eapply` and `constructor` fill the
//! first time they fall back to conversion and replay afterwards (see
//! [`crate::rule`] for why replay keeps fuel exact). Clones share the slot,
//! so every proposal tried on one goal, and every goal a tactic derives
//! without touching the conclusion, normalizes it at most once. The slot
//! cannot go stale: `Target` has no mutable access to its formula, and a
//! conclusion changes only by assigning a new `Target`, which starts empty.
//! The normal form is only valid under the [`Env`] that
//! built it; a goal never crosses environments.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use proof_trace::metrics::HotCounter;

use crate::env::Env;
use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::rule::{normalize_conv, NormalForm};
use crate::sort::Sort;
use crate::subst::fresh_name;
use crate::Ident;

/// A single proof obligation: a context of rigid sort variables, sorted term
/// variables and named hypotheses, and a conclusion to prove.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Goal {
    /// Rigid sort variables introduced by `intros` on `forall (A : Sort)`.
    pub sort_vars: Vec<Ident>,
    /// Term variables in scope, in introduction order.
    pub vars: Vec<(Ident, Sort)>,
    /// Named hypotheses, in introduction order.
    pub hyps: Vec<(Ident, Formula)>,
    /// The conclusion.
    pub concl: Target,
}

/// A goal's conclusion: a formula and its shared normal-form slot.
/// Equality and hashing look at the formula only.
#[derive(Clone)]
pub struct Target {
    formula: Formula,
    normal: Arc<NormalForm>,
}

impl Target {
    /// The formula, moved out.
    pub fn into_formula(self) -> Formula {
        self.formula
    }

    /// This conclusion normalized up to conversion against `fuel`: the
    /// slot's normal form with its cost replayed (computed the first time
    /// any clone asks), or a live normalization when the slot's private
    /// budget ran out.
    pub(crate) fn normalize(
        &self,
        env: &Env,
        fuel: &mut Fuel,
    ) -> Result<Cow<'_, Formula>, TacticError> {
        if proof_trace::enabled() {
            static COMPUTED: HotCounter = HotCounter::new("minicoq.target_nf.computed");
            static REPLAYED: HotCounter = HotCounter::new("minicoq.target_nf.replayed");
            let counter = if self.normal.is_filled() {
                &REPLAYED
            } else {
                &COMPUTED
            };
            counter.inc();
        }
        normalize_conv(env, &self.formula, Some(&self.normal), fuel)
    }
}

impl From<Formula> for Target {
    fn from(formula: Formula) -> Target {
        Target {
            formula,
            normal: Arc::default(),
        }
    }
}

impl Deref for Target {
    type Target = Formula;

    fn deref(&self) -> &Formula {
        &self.formula
    }
}

impl fmt::Debug for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.formula.fmt(f)
    }
}

impl PartialEq for Target {
    fn eq(&self, other: &Target) -> bool {
        self.formula == other.formula
    }
}

impl Eq for Target {}

impl PartialEq<Formula> for Target {
    fn eq(&self, other: &Formula) -> bool {
        self.formula == *other
    }
}

impl PartialEq<Target> for Formula {
    fn eq(&self, other: &Target) -> bool {
        *self == other.formula
    }
}

impl Hash for Target {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.formula.hash(state);
    }
}

impl Goal {
    /// A goal with an empty context.
    pub fn new(concl: Formula) -> Goal {
        Goal {
            sort_vars: Vec::new(),
            vars: Vec::new(),
            hyps: Vec::new(),
            concl: concl.into(),
        }
    }

    /// All identifiers in scope (variables and hypothesis names), for fresh
    /// name generation.
    pub fn names_in_scope(&self) -> BTreeSet<Ident> {
        let mut out: BTreeSet<Ident> = self.sort_vars.iter().cloned().collect();
        out.extend(self.vars.iter().map(|(v, _)| v.clone()));
        out.extend(self.hyps.iter().map(|(h, _)| h.clone()));
        // Also avoid free variables of all formulas, so renamings stay sane.
        for (_, f) in &self.hyps {
            f.free_vars(&mut out);
        }
        self.concl.free_vars(&mut out);
        out
    }

    /// A fresh identifier derived from `base` that is unused in this goal.
    pub fn fresh(&self, base: &str) -> Ident {
        fresh_name(base, &self.names_in_scope())
    }

    /// Looks up a hypothesis by name.
    pub fn hyp(&self, name: &str) -> Option<&Formula> {
        self.hyps.iter().find(|(h, _)| h == name).map(|(_, f)| f)
    }

    /// Looks up a context variable's sort by name.
    pub fn var_sort(&self, name: &str) -> Option<&Sort> {
        self.vars.iter().find(|(v, _)| v == name).map(|(_, s)| s)
    }

    /// Replaces the hypothesis `name` with `f`, keeping its position.
    /// Returns false if the hypothesis does not exist.
    pub fn set_hyp(&mut self, name: &str, f: Formula) -> bool {
        for (h, g) in &mut self.hyps {
            if h == name {
                *g = f;
                return true;
            }
        }
        false
    }

    /// Removes the hypothesis `name`. Returns false if it does not exist.
    pub fn remove_hyp(&mut self, name: &str) -> bool {
        let before = self.hyps.len();
        self.hyps.retain(|(h, _)| h != name);
        self.hyps.len() != before
    }

    /// Removes the context variable `name`. Returns false if it does not
    /// exist.
    pub fn remove_var(&mut self, name: &str) -> bool {
        let before = self.vars.len();
        self.vars.retain(|(v, _)| v != name);
        self.vars.len() != before
    }

    /// Renders the goal in the conventional hypotheses-bar-conclusion form.
    pub fn display(&self) -> String {
        crate::pretty::goal_to_string(self)
    }
}

/// An in-progress proof: a stack of goals, the first being focused.
///
/// Goals are held behind `Arc` so that tactics, which only touch the
/// focused goal, share the untouched tail with the parent state instead of
/// deep-cloning it. The sharing is also what makes incremental state
/// stamping cheap: a child state's trailing goals are pointer-identical to
/// the parent's, so duplicate detection re-canonicalizes only fresh goals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProofState {
    /// Open goals; tactics apply to `goals[0]`.
    pub goals: Vec<Arc<Goal>>,
}

impl ProofState {
    /// Starts a proof of a closed statement.
    pub fn new(stmt: Formula) -> ProofState {
        ProofState {
            goals: vec![Arc::new(Goal::new(stmt))],
        }
    }

    /// A state over the given goals, in order (first is focused).
    pub fn from_goals(goals: Vec<Goal>) -> ProofState {
        ProofState {
            goals: goals.into_iter().map(Arc::new).collect(),
        }
    }

    /// True when no goals remain: the proof is complete.
    pub fn is_complete(&self) -> bool {
        self.goals.is_empty()
    }

    /// The focused goal, if any.
    pub fn focused(&self) -> Option<&Goal> {
        self.goals.first().map(|g| g.as_ref())
    }

    /// Replaces the focused goal by `replacement` goals (possibly none),
    /// keeping the rest. The unfocused tail is shared with `self`.
    pub fn replace_focused(&self, replacement: Vec<Goal>) -> ProofState {
        let mut goals: Vec<Arc<Goal>> = replacement.into_iter().map(Arc::new).collect();
        goals.extend(self.goals.iter().skip(1).cloned());
        ProofState { goals }
    }

    /// Renders all goals for display.
    pub fn display(&self) -> String {
        crate::pretty::state_to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn trivial() -> Formula {
        Formula::Eq(Sort::nat(), Term::nat(1), Term::nat(1))
    }

    #[test]
    fn fresh_names_avoid_scope() {
        let mut g = Goal::new(trivial());
        g.vars.push(("x".into(), Sort::nat()));
        g.hyps.push(("H".into(), trivial()));
        assert_eq!(g.fresh("x"), "x0");
        assert_eq!(g.fresh("H"), "H0");
        assert_eq!(g.fresh("y"), "y");
    }

    #[test]
    fn replace_focused_keeps_rest() {
        let st = ProofState::from_goals(vec![Goal::new(trivial()), Goal::new(Formula::True)]);
        let st2 = st.replace_focused(vec![]);
        assert_eq!(st2.goals.len(), 1);
        assert_eq!(st2.goals[0].concl, Formula::True);
        let st3 = st.replace_focused(vec![Goal::new(Formula::False), Goal::new(Formula::True)]);
        assert_eq!(st3.goals.len(), 3);
    }

    #[test]
    fn replace_focused_shares_the_tail() {
        let st = ProofState::from_goals(vec![Goal::new(trivial()), Goal::new(Formula::True)]);
        let st2 = st.replace_focused(vec![Goal::new(Formula::False)]);
        assert!(Arc::ptr_eq(&st2.goals[1], &st.goals[1]));
    }

    #[test]
    fn clones_share_the_normal_form_slot_until_the_conclusion_changes() {
        let env = Env::with_prelude();
        let g = Goal::new(trivial());
        g.concl.normalize(&env, &mut Fuel::unlimited()).unwrap();
        assert!(g.concl.normal.is_filled());
        // A clone, and a goal derived without touching the conclusion,
        // read the same slot.
        let mut derived = g.clone();
        derived.hyps.push(("H".into(), Formula::True));
        assert!(Arc::ptr_eq(&derived.concl.normal, &g.concl.normal));
        // A new conclusion, even an equal one, starts an empty slot.
        derived.concl = trivial().into();
        assert_eq!(derived.concl, g.concl);
        assert!(!Arc::ptr_eq(&derived.concl.normal, &g.concl.normal));
        assert!(!derived.concl.normal.is_filled());
    }

    #[test]
    fn hyp_management() {
        let mut g = Goal::new(trivial());
        g.hyps.push(("H".into(), Formula::True));
        assert!(g.set_hyp("H", Formula::False));
        assert_eq!(g.hyp("H"), Some(&Formula::False));
        assert!(g.remove_hyp("H"));
        assert!(!g.remove_hyp("H"));
    }
}

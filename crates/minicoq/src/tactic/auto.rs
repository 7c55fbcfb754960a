//! The `auto`/`eauto` backchaining engine.
//!
//! A bounded, Prolog-style backward search over hypotheses and hint
//! lemmas. `auto` requires every instantiation to be determined by the
//! conclusion; `eauto` threads metavariables through premises (existential
//! search). `eapply` reuses [`backchain`] to discharge premises whose
//! instantiation the conclusion did not determine.
//!
//! Candidates are filtered by head symbol: a hypothesis or hint is only
//! instantiated and unified when its conclusion's head can unify with the
//! target's. A skipped candidate is charged exactly the fuel its failed
//! unification would have cost, so budgets, timeouts and every search
//! outcome are the same as a scan that tries every candidate.
//!
//! `auto`, `eauto` and `trivial` also remember, for the one call, the ground
//! sub-goals they failed: a failure depends only on the goal's context, the
//! remaining depth and the target, so a second visit replays the ticks the
//! first one spent instead of searching again (see [`Search::failures`]).
//! `backchain` keeps no such table: whether it fails also depends on the
//! caller's metavariables, through [`leaks`].

use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::mem::discriminant;

use proof_trace::metrics::HotCounter;

use crate::env::{Env, Lemma};
use crate::error::TacticError;
use crate::eval::conv_eq_term;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::rule::Rule;
use crate::subst::subst_formula1;
use crate::term::Term;
use crate::unify::{instantiate_rule, Unifier};
use crate::Ident;

use super::apply::expose_rule;

/// Default search depth, matching Coq's `auto` default of 5.
pub const AUTO_DEFAULT_DEPTH: u32 = 5;

/// Attempts to prove `target` (which may contain metavariables) by bounded
/// backchaining; returns the extended unifier on success.
///
/// Exposed within the tactic engine so `eapply` can discharge premises.
pub(crate) fn backchain(
    env: &Env,
    goal: &Goal,
    target: &Formula,
    uni: Unifier,
    depth: u32,
    extra_hints: &[Ident],
    fuel: &mut Fuel,
) -> Option<Unifier> {
    // Metavariables below the watermark belong to the caller; the search
    // must not bind them to search-local (`#bc`-prefixed) variables, which
    // would leak out of scope. The check runs at every success point so the
    // search backtracks over leaky branches.
    let watermark = uni.meta_watermark();
    Search::new(env, extra_hints, true, watermark)
        .solve(goal, target, uni, depth, fuel)
        .unwrap_or_default()
}

/// True when a caller-owned metavariable (id below the watermark) is bound
/// to a term mentioning a search-local variable.
fn leaks(u: &Unifier, watermark: u32) -> bool {
    u.term_metas.keys().any(|m| {
        if *m >= watermark {
            return false;
        }
        let t = u.resolve_term(&Term::Meta(*m));
        let mut fv = std::collections::BTreeSet::new();
        t.free_vars(&mut fv);
        fv.iter().any(|v| v.starts_with("#bc"))
    })
}

/// `auto [using ...]` / `eauto [using ...]` as a goal-closing tactic.
pub fn auto_tactic(
    env: &Env,
    goal: &Goal,
    using: &[Ident],
    e_mode: bool,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let search = Search::new(env, using, e_mode, 0);
    match search.solve(goal, &goal.concl, Unifier::new(), AUTO_DEFAULT_DEPTH, fuel)? {
        Some(_) => Ok(vec![]),
        None => Err(TacticError::rejected(if e_mode {
            "eauto cannot solve the goal"
        } else {
            "auto cannot solve the goal"
        })),
    }
}

/// `trivial`: depth-1 `auto`.
pub fn trivial(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let search = Search::new(env, &[], false, 0);
    match search.solve(goal, &goal.concl, Unifier::new(), 1, fuel)? {
        Some(_) => Ok(vec![]),
        None => Err(TacticError::rejected("trivial cannot solve the goal")),
    }
}

/// One `auto`/`eauto`/`trivial` invocation or `backchain` call: what stays
/// fixed while the search recurses.
struct Search<'a> {
    env: &'a Env,
    /// `using` extras, tried before `core`.
    extra_hints: &'a [Ident],
    /// `eauto`: premises may leave metavariables for later premises.
    e_mode: bool,
    /// Metavariables below this id belong to the caller (see [`leaks`]).
    watermark: u32,
    /// One slot per name of `extra_hints` then `core`, in database order.
    /// A slot is resolved the first time a scan reaches it and reused by
    /// every later node; names a search never reaches are never resolved.
    /// A slot borrows the declaration's statement and its cached
    /// [`expose_rule`] form ([`Lemma::rule`]), so nothing is cloned or
    /// exposed per invocation.
    hints: Vec<OnceCell<Option<Rule<'a>>>>,
    /// The failure table, kept only when the watermark is 0 (`auto_tactic`
    /// and `trivial`): the ticks each failed node spent, keyed by its
    /// [`Scope`] id, its depth and its resolved target, for ground targets
    /// in ground scopes. Within one search such a node's outcome and cost
    /// depend on nothing else, so a revisit replays the cost with
    /// [`Fuel::charge`] when the budget covers it and searches live
    /// otherwise (a skip tick can run dry without timing out, so a replay
    /// near exhaustion would not be equivalent). Successes and timeouts
    /// are never recorded. It is the one map in the kernel keyed on a
    /// formula: a hit saves a whole sub-search (about 51 ticks on the
    /// Table 2 grid), and the table is dropped when the call returns.
    failures: Option<RefCell<Failures>>,
    /// The last [`Scope`] id handed out.
    scopes: Cell<u32>,
    /// Test builds can run the pre-index linear scan instead: the reference
    /// the fuel-equivalence suite checks the head filter against.
    #[cfg(test)]
    linear: bool,
    /// Test builds count failure-table hits.
    #[cfg(test)]
    hits: Cell<u32>,
}

/// A failure table: (scope id, depth, resolved target) to the ticks the
/// failed node spent.
type Failures = HashMap<(u32, u32, Formula), u64>;

/// A search node's goal, with an id for it. The goal only grows through
/// the pushes of `Forall`, `Implies` and `Not`, and each push opens a new
/// scope, so an id names one goal without hashing its hypotheses.
#[derive(Clone, Copy)]
struct Scope<'g> {
    goal: &'g Goal,
    id: u32,
    /// Every hypothesis in the goal is ground: no search-time
    /// metavariable can change what it says.
    ground: bool,
}

impl<'a> Search<'a> {
    fn new(env: &'a Env, extra_hints: &'a [Ident], e_mode: bool, watermark: u32) -> Search<'a> {
        Search {
            env,
            extra_hints,
            e_mode,
            watermark,
            hints: std::iter::repeat_with(OnceCell::new)
                .take(extra_hints.len() + env.hint_db("core").len())
                .collect(),
            failures: (watermark == 0).then(RefCell::default),
            scopes: Cell::new(0),
            #[cfg(test)]
            linear: false,
            #[cfg(test)]
            hits: Cell::new(0),
        }
    }

    /// A scope with a fresh id for `goal`, whose hypotheses are all
    /// ground when `ground` says so.
    fn scope<'g>(&self, goal: &'g Goal, ground: bool) -> Scope<'g> {
        self.scopes.set(self.scopes.get() + 1);
        Scope {
            goal,
            id: self.scopes.get(),
            ground,
        }
    }

    /// The hint names in scan order: `using` extras, then `core`.
    fn hint_names(&self) -> impl Iterator<Item = &str> {
        let core = self.env.hint_db("core").iter().map(|h| &**h);
        self.extra_hints.iter().map(Ident::as_str).chain(core)
    }

    /// The hint candidates in scan order, each resolved on first use.
    fn hints(&self) -> impl Iterator<Item = &Rule<'a>> {
        let names = self.hint_names();
        names.zip(&self.hints).filter_map(|(name, slot)| {
            slot.get_or_init(|| self.env.rule_or_lemma(name).map(Lemma::rule))
                .as_ref()
        })
    }

    /// The search from `goal`'s own context. Returns `Ok(Some(uni))` on
    /// success, `Ok(None)` on exhausted search, and `Err(Timeout)` when
    /// fuel runs out.
    fn solve(
        &self,
        goal: &Goal,
        target: &Formula,
        uni: Unifier,
        depth: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<Unifier>, TacticError> {
        let ground = goal.hyps.iter().all(|(_, h)| h.is_ground());
        self.solve_in(self.scope(goal, ground), target, uni, depth, fuel)
    }

    /// [`Search::solve`] in `scope`, through the failure table.
    fn solve_in(
        &self,
        scope: Scope,
        target: &Formula,
        uni: Unifier,
        depth: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<Unifier>, TacticError> {
        let target = uni.resolve_formula(target);
        let table = self.failures.as_ref();
        let Some(table) = table.filter(|_| scope.ground && target.is_ground()) else {
            return self.expand(scope, &target, uni, depth, fuel);
        };
        let key = (scope.id, depth, target);
        let known = table.borrow().get(&key).copied();
        if let Some(cost) = known.filter(|&cost| fuel.remaining() >= cost) {
            count(&HITS);
            #[cfg(test)]
            self.hits.set(self.hits.get() + 1);
            fuel.charge(cost)?;
            return Ok(None);
        }
        let before = fuel.spent();
        let out = self.expand(scope, &key.2, uni, depth, fuel)?;
        if out.is_none() {
            count(&RECORDED);
            table.borrow_mut().insert(key, fuel.spent() - before);
        }
        Ok(out)
    }

    /// One search node on a resolved target.
    fn expand(
        &self,
        scope: Scope,
        target: &Formula,
        uni: Unifier,
        depth: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<Unifier>, TacticError> {
        fuel.charge(4)?;
        // For a defined-predicate target, try candidates against the
        // *folded* form first (hint lemmas and hypotheses state things about
        // `incl`, not its unfolding), then fall back to the unfolded form.
        if let Formula::Pred(..) = target {
            if let Some(u) = self.search_candidates(scope, target, uni.clone(), depth, fuel)? {
                return Ok(Some(u));
            }
            if let Cow::Owned(unfolded) = super::basic::whnf_prop(self.env, target) {
                if unfolded != *target {
                    return self.solve_in(scope, &unfolded, uni, depth, fuel);
                }
            }
            return Ok(None);
        }
        match &*super::basic::whnf_prop(self.env, target) {
            Formula::True => Ok(Some(uni)),
            Formula::And(a, b) => {
                let Some(u1) = self.solve_in(scope, a, uni, depth, fuel)? else {
                    return Ok(None);
                };
                self.solve_in(scope, b, u1, depth, fuel)
            }
            Formula::Or(a, b) => {
                if let Some(u) = self.solve_in(scope, a, uni.clone(), depth, fuel)? {
                    return Ok(Some(u));
                }
                self.solve_in(scope, b, uni, depth, fuel)
            }
            Formula::Iff(a, b) => {
                let fwd = Formula::implies((**a).clone(), (**b).clone());
                let bwd = Formula::implies((**b).clone(), (**a).clone());
                let Some(u1) = self.solve_in(scope, &fwd, uni, depth, fuel)? else {
                    return Ok(None);
                };
                self.solve_in(scope, &bwd, u1, depth, fuel)
            }
            Formula::Forall(v, s, body) => {
                // The `#bc` prefix marks search-local variables so the
                // backchain wrapper can reject solutions that would leak
                // them.
                let mut g = scope.goal.clone();
                let fresh = g.fresh(&format!("#bc{v}"));
                g.vars.push((fresh.clone(), s.clone()));
                let body = subst_formula1(body, v, &Term::var(fresh));
                self.solve_in(self.scope(&g, scope.ground), &body, uni, depth, fuel)
            }
            Formula::Implies(p, q) => {
                let mut g = scope.goal.clone();
                let h = g.fresh("H");
                g.hyps.push((h, (**p).clone()));
                let ground = scope.ground && p.is_ground();
                self.solve_in(self.scope(&g, ground), q, uni, depth, fuel)
            }
            Formula::Not(p) => {
                let mut g = scope.goal.clone();
                let h = g.fresh("H");
                g.hyps.push((h, (**p).clone()));
                let ground = scope.ground && p.is_ground();
                self.solve_in(self.scope(&g, ground), &Formula::False, uni, depth, fuel)
            }
            Formula::Exists(v, _, body) => {
                if !self.e_mode {
                    return Ok(None);
                }
                let mut uni = uni;
                let m = uni.fresh_term_meta();
                let body = subst_formula1(body, v, &m);
                self.solve_in(scope, &body, uni, depth, fuel)
            }
            Formula::Eq(_, a, b) => {
                // Reflexivity attempt (unification handles metavariables;
                // when ground, fall back to conversion).
                let mut u2 = uni.clone();
                if u2.unify_terms(a, b, fuel).is_ok() && !leaks(&u2, self.watermark) {
                    return Ok(Some(u2));
                }
                if a.is_ground() && b.is_ground() && conv_eq_term(self.env, a, b, fuel)? {
                    return Ok(Some(uni));
                }
                self.search_candidates(scope, &target, uni, depth, fuel)
            }
            _ => self.search_candidates(scope, &target, uni, depth, fuel),
        }
    }

    /// Tries hypotheses and hint lemmas against an atomic target.
    fn search_candidates(
        &self,
        scope: Scope,
        target: &Formula,
        uni: Unifier,
        depth: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<Unifier>, TacticError> {
        #[cfg(test)]
        if self.linear {
            return self.search_candidates_linear(scope, target, uni, depth, fuel);
        }
        // Hypotheses first: direct match, then as rules.
        for (_, hf) in &scope.goal.hyps {
            fuel.charge(2)?;
            if !same_head(hf, target) {
                skip(fuel);
                continue;
            }
            let mut u2 = uni.clone();
            if u2.unify_formulas(hf, target, fuel).is_ok() && !leaks(&u2, self.watermark) {
                return Ok(Some(u2));
            }
        }
        if depth == 0 {
            return Ok(None);
        }
        // A rule is tried as stated, then exposed (defined predicates such
        // as `incl` unfold to their rule structure); each form whose
        // conclusion cannot meet the target costs one skip tick.
        let try_rule = |stmt: &Formula, exposed: Option<&Formula>, fuel: &mut Fuel| {
            fuel.charge(4)?;
            for form in std::iter::once(stmt).chain(exposed) {
                if !concludes(form, target) {
                    skip(fuel);
                } else if let Some(u) =
                    self.try_rule_exact(scope, form, target, &uni, depth, fuel)?
                {
                    return Ok(Some(u));
                }
            }
            Ok::<_, TacticError>(None)
        };
        for (_, hf) in &scope.goal.hyps {
            if let Some(u) = try_rule(hf, exposed_form(self.env, hf).as_ref(), fuel)? {
                return Ok(Some(u));
            }
        }
        for rule in self.hints() {
            if let Some(u) = try_rule(rule.stmt(), rule.exposed_stmt(self.env), fuel)? {
                return Ok(Some(u));
            }
        }
        Ok(None)
    }

    fn try_rule_exact(
        &self,
        scope: Scope,
        stmt: &Formula,
        target: &Formula,
        uni: &Unifier,
        depth: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<Unifier>, TacticError> {
        let mut u2 = uni.clone();
        let inst = instantiate_rule(stmt, &mut u2);
        let mut premises = inst.premises;
        if u2.unify_formulas(&inst.conclusion, target, fuel).is_err() {
            // A rule concluding `~P` proves a `False` target with premise
            // `P`.
            let (Formula::Not(_), Formula::False) = (&inst.conclusion, target) else {
                return Ok(None);
            };
            u2 = uni.clone();
            let inst2 = instantiate_rule(stmt, &mut u2);
            let Formula::Not(p2) = inst2.conclusion else {
                return Ok(None);
            };
            premises = inst2.premises;
            premises.push(*p2);
        }
        if leaks(&u2, self.watermark) {
            return Ok(None);
        }
        if !self.e_mode {
            // `auto`: all premises must be fully determined by the
            // conclusion.
            for p in &premises {
                if !u2.resolve_formula(p).is_ground() {
                    return Ok(None);
                }
            }
        }
        let mut cur = u2;
        for p in &premises {
            match self.solve_in(scope, p, cur, depth - 1, fuel)? {
                Some(next) => cur = next,
                None => return Ok(None),
            }
        }
        if leaks(&cur, self.watermark) {
            return Ok(None);
        }
        Ok(Some(cur))
    }
}

/// Failure-table replays, counted when tracing is armed.
static HITS: HotCounter = HotCounter::new("minicoq.auto_fail.hit");
/// Failures recorded into a table, counted when tracing is armed.
static RECORDED: HotCounter = HotCounter::new("minicoq.auto_fail.recorded");

fn count(counter: &HotCounter) {
    if proof_trace::enabled() {
        counter.inc();
    }
}

/// Charges the one tick [`Unifier::unify_formulas`] spends before it finds
/// two heads apart. As there, running dry on it is not a timeout.
fn skip(fuel: &mut Fuel) {
    let _ = fuel.tick();
}

/// Whether `a` and `b` agree on what [`Unifier::unify_formulas`] compares
/// first: the connective, and for predicates the name. When they do not,
/// unification fails after exactly one tick.
fn same_head(a: &Formula, b: &Formula) -> bool {
    match (a, b) {
        (Formula::Pred(p, ..), Formula::Pred(q, ..)) => p == q,
        _ => discriminant(a) == discriminant(b),
    }
}

/// Whether a rule stated as `stmt` can get past unifying its conclusion
/// with `target`: the heads agree, or a `~P` conclusion meets a `False`
/// target (proved from premise `P`).
fn concludes(stmt: &Formula, target: &Formula) -> bool {
    // Instantiation only substitutes, so the instantiated conclusion has
    // the head of `stmt`'s own.
    let concl = stmt.conclusion();
    same_head(concl, target) || matches!((concl, target), (Formula::Not(_), Formula::False))
}

/// `stmt`'s [`expose_rule`] form, when that differs from `stmt`. Exposure
/// only changes a conclusion that weak-head unfolds, so any other
/// conclusion skips the unfolding.
fn exposed_form(env: &Env, stmt: &Formula) -> Option<Formula> {
    if !matches!(stmt.conclusion(), Formula::Pred(..) | Formula::FMatch(..)) {
        return None;
    }
    let exposed = expose_rule(env, stmt);
    (exposed != *stmt).then_some(exposed)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::env::{DefinedPred, PredDef};
    use crate::parse::parse_formula;
    use crate::sort::Sort;
    use crate::term::Pat;

    fn goal_of(env: &Env, f: Formula) -> Goal {
        let _ = env;
        Goal::new(f)
    }

    #[test]
    fn auto_solves_le_chain() {
        let env = Env::with_prelude();
        // le 2 4 via le_S (le_S (le_n 2)).
        let g = goal_of(
            &env,
            Formula::Pred("le".into(), vec![], vec![Term::nat(2), Term::nat(4)]),
        );
        let r = auto_tactic(&env, &g, &[], false, &mut Fuel::unlimited()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn auto_respects_depth() {
        let env = Env::with_prelude();
        // le 0 10 needs depth 11 — out of reach for depth-5 auto.
        let g = goal_of(
            &env,
            Formula::Pred("le".into(), vec![], vec![Term::nat(0), Term::nat(10)]),
        );
        assert!(auto_tactic(&env, &g, &[], false, &mut Fuel::unlimited()).is_err());
    }

    #[test]
    fn eauto_finds_existential_witness() {
        let env = Env::with_prelude();
        // exists x : nat, x = 3.
        let g = goal_of(
            &env,
            Formula::Exists(
                "x".into(),
                Sort::nat(),
                Box::new(Formula::Eq(Sort::nat(), Term::var("x"), Term::nat(3))),
            ),
        );
        assert!(auto_tactic(&env, &g, &[], false, &mut Fuel::unlimited()).is_err());
        let r = auto_tactic(&env, &g, &[], true, &mut Fuel::unlimited()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn auto_uses_hypotheses() {
        let env = Env::with_prelude();
        let p = Formula::Pred("le".into(), vec![], vec![Term::var("a"), Term::var("b")]);
        let mut g = goal_of(
            &env,
            Formula::Pred(
                "le".into(),
                vec![],
                vec![Term::var("a"), Term::App("S".into(), vec![Term::var("b")])],
            ),
        );
        g.vars.push(("a".into(), Sort::nat()));
        g.vars.push(("b".into(), Sort::nat()));
        g.hyps.push(("H".into(), p));
        let r = auto_tactic(&env, &g, &[], false, &mut Fuel::unlimited()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn trivial_is_shallow() {
        let env = Env::with_prelude();
        let g = goal_of(
            &env,
            Formula::Pred("le".into(), vec![], vec![Term::nat(3), Term::nat(3)]),
        );
        assert!(trivial(&env, &g, &mut Fuel::unlimited()).is_ok());
        let g2 = goal_of(
            &env,
            Formula::Pred("le".into(), vec![], vec![Term::nat(2), Term::nat(4)]),
        );
        assert!(trivial(&env, &g2, &mut Fuel::unlimited()).is_err());
    }

    impl Search<'_> {
        /// The scan before the head filter: every hypothesis and hint is
        /// resolved, instantiated and unified at every node.
        pub(super) fn search_candidates_linear(
            &self,
            scope: Scope,
            target: &Formula,
            uni: Unifier,
            depth: u32,
            fuel: &mut Fuel,
        ) -> Result<Option<Unifier>, TacticError> {
            for (_, hf) in &scope.goal.hyps {
                fuel.charge(2)?;
                let mut u2 = uni.clone();
                if u2.unify_formulas(hf, target, fuel).is_ok() && !leaks(&u2, self.watermark) {
                    return Ok(Some(u2));
                }
            }
            if depth == 0 {
                return Ok(None);
            }
            let hyp_stmts = scope.goal.hyps.iter().map(|(_, f)| f.clone());
            let hints = self
                .hint_names()
                .filter_map(|name| self.env.rule_or_lemma(name))
                .map(|rule| rule.stmt.clone());
            for stmt in hyp_stmts.chain(hints) {
                fuel.charge(4)?;
                if let Some(u) = self.try_rule_exact(scope, &stmt, target, &uni, depth, fuel)? {
                    return Ok(Some(u));
                }
                let exposed = expose_rule(self.env, &stmt);
                if exposed != stmt {
                    if let Some(u) =
                        self.try_rule_exact(scope, &exposed, target, &uni, depth, fuel)?
                    {
                        return Ok(Some(u));
                    }
                }
            }
            Ok(None)
        }
    }

    /// The prelude plus a list toolbox shaped like the corpus's: `In` is a
    /// recursive predicate over a formula `match`, `incl` a definition
    /// that exposes a rule, and the `core` hints mix `In`, `incl`, `~ P`
    /// and equation conclusions.
    pub(in crate::tactic) fn list_env() -> Env {
        let mut env = Env::with_prelude();
        let a = Sort::Var("A".into());
        let in_ = |x: &str, l: &str| {
            Formula::Pred(
                "In".into(),
                vec![a.clone()],
                vec![Term::var(x), Term::var(l)],
            )
        };
        let defined = |name: &str, params: [(&str, Sort); 2], body, recursive| {
            PredDef::Defined(DefinedPred {
                name: name.into(),
                sort_params: vec!["A".into()],
                params: params.map(|(v, s)| (v.into(), s)).to_vec(),
                body,
                recursive,
                struct_arg: recursive.then_some(1),
            })
        };
        let in_body = Formula::FMatch(
            Box::new(Term::var("l")),
            vec![
                (Pat::Ctor("nil".into(), vec![]), Formula::False),
                (
                    Pat::Ctor("cons".into(), vec!["y".into(), "ys".into()]),
                    Formula::or(
                        Formula::Eq(a.clone(), Term::var("y"), Term::var("x")),
                        in_("x", "ys"),
                    ),
                ),
            ],
        );
        let la = Sort::list(a.clone());
        env.declare_pred(defined(
            "In",
            [("x", a.clone()), ("l", la.clone())],
            in_body,
            true,
        ))
        .unwrap();
        let incl_body = Formula::forall(
            "x",
            a.clone(),
            Formula::implies(in_("x", "l1"), in_("x", "l2")),
        );
        env.declare_pred(defined(
            "incl",
            [("l1", la.clone()), ("l2", la)],
            incl_body,
            false,
        ))
        .unwrap();
        for (name, src) in [
            (
                "in_eq",
                "forall (A : Sort) (a : A) (l : list A), In a (a :: l)",
            ),
            (
                "in_cons",
                "forall (A : Sort) (a b : A) (l : list A), In b l -> In b (a :: l)",
            ),
            ("in_nil", "forall (A : Sort) (a : A), ~ In a []"),
            ("incl_refl", "forall (A : Sort) (l : list A), incl l l"),
            (
                "incl_tl",
                "forall (A : Sort) (a : A) (l m : list A), incl l m -> incl l (a :: m)",
            ),
            ("add_0_r", "forall n : nat, add n 0 = n"),
            ("le_Sn_n", "forall n : nat, ~ le (S n) n"),
        ] {
            let stmt = parse_formula(&env, src).unwrap();
            env.add_lemma(name, stmt).unwrap();
            env.add_hint("core", name);
        }
        env
    }

    /// One invocation of the search: the arguments `auto_tactic` or
    /// `backchain` would pass.
    struct Case {
        name: &'static str,
        goal: Goal,
        target: Formula,
        uni: Unifier,
        depth: u32,
        using: Vec<Ident>,
        e_mode: bool,
        watermark: u32,
    }

    /// `auto`/`eauto [using ...]` on a closed statement.
    fn auto_case(env: &Env, name: &'static str, src: &str, using: &[&str], e_mode: bool) -> Case {
        let stmt = parse_formula(env, src).unwrap();
        Case {
            name,
            goal: Goal::new(stmt.clone()),
            target: stmt,
            uni: Unifier::new(),
            depth: AUTO_DEFAULT_DEPTH,
            using: using.iter().map(|&u| u.into()).collect(),
            e_mode,
            watermark: 0,
        }
    }

    /// `backchain` as `eapply` calls it, on `pred ?m args..`: a target whose
    /// first argument is a caller-owned metavariable.
    fn backchain_case(name: &'static str, pred: &str, sorts: Vec<Sort>, args: Vec<Term>) -> Case {
        let mut uni = Unifier::new();
        let m = uni.fresh_term_meta();
        let target = Formula::Pred(pred.into(), sorts, std::iter::once(m).chain(args).collect());
        Case {
            name,
            goal: Goal::new(Formula::True),
            target,
            watermark: uni.meta_watermark(),
            uni,
            depth: 3,
            using: vec![],
            e_mode: true,
        }
    }

    fn nat_list(xs: &[u64]) -> Term {
        xs.iter().rev().fold(Term::cst("nil"), |tail, &x| {
            Term::App("cons".into(), vec![Term::nat(x), tail])
        })
    }

    fn cases(env: &Env) -> Vec<Case> {
        vec![
            auto_case(
                env,
                "incl unfolds, proved by incl_tl",
                "forall (l : list nat) (a b : nat), incl l (a :: b :: l)",
                &[],
                false,
            ),
            auto_case(
                env,
                "incl unfolds to In, exhausted",
                "forall (l m : list nat) (a : nat), incl (a :: l) m",
                &[],
                false,
            ),
            Case {
                // Depth 2 keeps `in_cons` from recursing into `In x []`.
                depth: 2,
                ..auto_case(
                    env,
                    "In unfolds through FMatch",
                    "forall (x y : nat), y = x -> In x (y :: [])",
                    &[],
                    false,
                )
            },
            auto_case(
                env,
                "In by hints",
                "forall (a b c : nat), In b (a :: b :: c :: [])",
                &[],
                false,
            ),
            auto_case(env, "inductive rules", "le 2 5", &[], false),
            auto_case(env, "inductive rules, out of depth", "le 0 7", &[], false),
            auto_case(
                env,
                "~P rule against False",
                "forall n : nat, le (S n) n -> False",
                &[],
                true,
            ),
            auto_case(
                env,
                "exposed hypothesis proves False",
                "forall x : nat, In x [] -> False",
                &[],
                false,
            ),
            auto_case(
                env,
                "Eq target by hint",
                "forall n : nat, add n 0 = n",
                &[],
                false,
            ),
            auto_case(
                env,
                "Eq target, exhausted",
                "forall n m : nat, add n 0 = m",
                &[],
                true,
            ),
            auto_case(
                env,
                "exposed hypothesis as rule",
                "forall (a : nat) (l m : list nat), incl l m -> In a l -> In a m",
                &[],
                false,
            ),
            auto_case(
                env,
                "hypothesis as rule",
                "forall n m : nat, (forall k : nat, le k n -> le k m) -> le 2 n -> le 2 m",
                &[],
                false,
            ),
            auto_case(
                env,
                "using duplicates core, exhausted",
                "forall (l m : list nat) (a : nat), incl (a :: l) m",
                &["in_cons", "incl_tl"],
                true,
            ),
            auto_case(
                env,
                "using duplicates core, proved",
                "forall (a b c : nat), In c (a :: b :: c :: [])",
                &["in_cons"],
                true,
            ),
            backchain_case(
                "backchain binds a caller meta",
                "In",
                vec![Sort::nat()],
                vec![nat_list(&[1, 2])],
            ),
            Case {
                depth: 2,
                ..backchain_case(
                    "backchain exhausted",
                    "In",
                    vec![Sort::nat()],
                    vec![nat_list(&[])],
                )
            },
        ]
    }

    /// What a caller observes of one run under `budget`: the result, and
    /// the fuel's spent and remaining counts.
    fn observe(env: &Env, case: &Case, linear: bool, budget: u64) -> (String, u64, u64) {
        let mut search = Search::new(env, &case.using, case.e_mode, case.watermark);
        search.linear = linear;
        let mut fuel = Fuel::new(budget);
        let r = search.solve(
            &case.goal,
            &case.target,
            case.uni.clone(),
            case.depth,
            &mut fuel,
        );
        (format!("{r:?}"), fuel.spent(), fuel.remaining())
    }

    #[test]
    fn backchain_index_charges_fuel_like_the_linear_scan() {
        let env = list_env();
        let (mut proved, mut exhausted) = (0, 0);
        for case in cases(&env) {
            let (result, full, _) = observe(&env, &case, true, u64::MAX / 2);
            proved += usize::from(result.starts_with("Ok(Some"));
            exhausted += usize::from(result == "Ok(None)");
            for budget in (0..=full + 1).chain([u64::MAX / 2]) {
                assert_eq!(
                    observe(&env, &case, false, budget),
                    observe(&env, &case, true, budget),
                    "{}: budget {budget} of {full}",
                    case.name
                );
            }
        }
        assert!(
            proved >= 5 && exhausted >= 5,
            "{proved} proved, {exhausted} exhausted"
        );
    }

    /// [`observe`] on the indexed scan, with the failure table on or off;
    /// also how many times the table answered.
    fn observe_table(
        env: &Env,
        case: &Case,
        table: bool,
        budget: u64,
    ) -> ((String, u64, u64), u32) {
        let mut search = Search::new(env, &case.using, case.e_mode, case.watermark);
        if !table {
            search.failures = None;
        }
        let mut fuel = Fuel::new(budget);
        let r = search.solve(
            &case.goal,
            &case.target,
            case.uni.clone(),
            case.depth,
            &mut fuel,
        );
        (
            (format!("{r:?}"), fuel.spent(), fuel.remaining()),
            search.hits.get(),
        )
    }

    #[test]
    fn auto_failure_table_charges_fuel_like_a_search_without_it() {
        let env = list_env();
        let mut cases = cases(&env);
        cases.extend([
            // The second disjunct is the first again: same scope, depth
            // and ground target.
            auto_case(&env, "repeated disjunct", "le 0 9 \\/ le 0 9", &[], false),
            // `In 3 (2 :: [])` fails under `in_cons`, then again once `In`
            // unfolds to its `match`.
            Case {
                depth: 3,
                ..auto_case(
                    &env,
                    "In, folded then unfolded",
                    "In 3 (1 :: 2 :: [])",
                    &[],
                    false,
                )
            },
            Case {
                depth: 2,
                ..auto_case(
                    &env,
                    "eauto, repeated",
                    "In 3 (1 :: []) \\/ In 3 (1 :: [])",
                    &[],
                    true,
                )
            },
            // A hypothesis over an existential witness: its scope is not
            // ground, so nothing under it is recorded. `le 7 2` fails once
            // the first disjunct binds the witness to 0, and then holds by
            // the hypothesis with the witness free.
            auto_case(
                &env,
                "non-ground scope",
                "exists n : nat, (le n 2 -> ((n = 0 /\\ le 7 2) \\/ le 7 2))",
                &[],
                true,
            ),
        ]);
        let mut hits = 0;
        for case in &cases {
            let ((_, full, _), n) = observe_table(&env, case, true, u64::MAX / 2);
            hits += n;
            for budget in (0..=full + 1).chain([u64::MAX / 2]) {
                assert_eq!(
                    observe_table(&env, case, true, budget).0,
                    observe_table(&env, case, false, budget).0,
                    "{}: budget {budget} of {full}",
                    case.name
                );
            }
        }
        assert!(hits >= 10, "only {hits} table hits");
        // `backchain` never keeps a table.
        let bc = cases.iter().find(|c| c.watermark > 0).unwrap();
        assert!(Search::new(&env, &[], true, bc.watermark)
            .failures
            .is_none());
    }

    #[test]
    fn backchain_index_resolves_each_hint_at_most_once_and_only_when_reached() {
        let env = list_env();
        let resolved = |search: &Search| -> Vec<Formula> {
            let slots = search.hints.iter().filter_map(OnceCell::get);
            slots.flatten().map(|rule| rule.stmt().clone()).collect()
        };
        // An exhausted search reaches every name: `using in_cons`, then all
        // of `core` (`le_n`, `le_S`, `in_eq`, `in_cons`, ...), whose
        // `in_cons` stays too.
        let case = auto_case(
            &env,
            "",
            "forall (l m : list nat) (a : nat), incl (a :: l) m",
            &["in_cons"],
            false,
        );
        let search = Search::new(&env, &case.using, false, 0);
        assert!(resolved(&search).is_empty());
        let r = search.solve(
            &case.goal,
            &case.target,
            Unifier::new(),
            5,
            &mut Fuel::unlimited(),
        );
        assert!(matches!(r, Ok(None)));
        let hints = resolved(&search);
        assert_eq!(hints.len(), 1 + env.hint_db("core").len());
        assert_eq!(hints[0], hints[4]);
        // `le 2 5` closes on `le_S` and `le_n`, the first two `core` hints.
        let case = auto_case(&env, "", "le 2 5", &[], false);
        let search = Search::new(&env, &[], false, 0);
        let r = search.solve(
            &case.goal,
            &case.target,
            Unifier::new(),
            5,
            &mut Fuel::unlimited(),
        );
        assert!(matches!(r, Ok(Some(_))));
        assert_eq!(resolved(&search).len(), 2);
    }
}

//! Backward template-driven theorem construction.
//!
//! A theorem is grown *backward* from a terminal goal whose closing
//! tactic is known, by repeatedly inverting the kernel's own tactic
//! semantics:
//!
//! * `rewrite L`⁻¹ — if the goal contains an instance of one side of a
//!   pool equation, replace that occurrence by the instantiated other
//!   side and prepend the rewrite to the witness;
//! * `apply le_S`⁻¹ — wrap a `le a b` conclusion into `le a (S b)`;
//! * `split`⁻¹ — conjoin a freshly built terminal goal and prepend
//!   `split`;
//! * premise insertion — add a hypothesis (a distractor premise), which
//!   only extends the leading `intros`.
//!
//! Every step is *committed only after the candidate witness replays to
//! `Qed` through the real kernel* ([`minicoq::replay::replay_script`]).
//! Inversion gets the proposal right nearly always (the safety filters
//! below run the kernel's own first-match-then-replace-all `rewrite`
//! scan and replacement), but replay is the referee — a proposal that fails simply
//! isn't committed, so emitted theorems are provable by construction.

use std::collections::{BTreeMap, BTreeSet};

use minicoq::env::Env;
use minicoq::formula::Formula;
use minicoq::replay::replay_script;
use minicoq::sort::Sort;
use minicoq::tactic::{candidate_subterms, replace_in_formula};
use minicoq::term::Term;

use crate::pool::PoolLemma;
use crate::rng::GenRng;

/// A theorem under construction: the goal context and the witness body.
#[derive(Debug, Clone)]
pub struct ThmBuild {
    /// Universally quantified variables, in binder order (all `nat`).
    pub vars: Vec<String>,
    /// Hypotheses, in premise order.
    pub hyps: Vec<(String, Formula)>,
    /// Conclusion.
    pub concl: Formula,
    /// Witness sentences after the leading `intros`.
    pub body: Vec<String>,
    /// Committed inverse steps (depth actually reached).
    pub depth: usize,
}

impl ThmBuild {
    /// The closed statement: `forall vars, H1 -> ... -> Hk -> concl`.
    pub fn statement(&self) -> Formula {
        let mut f = self.concl.clone();
        for (_, h) in self.hyps.iter().rev() {
            f = Formula::implies(h.clone(), f);
        }
        for v in self.vars.iter().rev() {
            f = Formula::forall(v.clone(), Sort::nat(), f);
        }
        f
    }

    /// The witness sentences, including the leading `intros`.
    pub fn sentences(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.vars.is_empty() || !self.hyps.is_empty() {
            let mut names: Vec<&str> = self.vars.iter().map(String::as_str).collect();
            names.extend(self.hyps.iter().map(|(n, _)| n.as_str()));
            out.push(format!("intros {}", names.join(" ")));
        }
        out.extend(self.body.iter().cloned());
        out
    }

    /// The witness as a replayable script.
    pub fn script_text(&self) -> String {
        format!("{}.", self.sentences().join(". "))
    }

    fn fresh_var(&mut self, rng: &mut GenRng) -> String {
        const NAMES: [&str; 4] = ["x", "y", "z", "w"];
        let name = if self.vars.len() < NAMES.len() {
            NAMES[self.vars.len()].to_string()
        } else {
            format!("v{}", self.vars.len())
        };
        let _ = rng; // Name choice is positional; the stream stays aligned.
        self.vars.push(name.clone());
        name
    }

    fn fresh_hyp_name(&self) -> String {
        format!("H{}", self.hyps.len())
    }
}

/// A random small arithmetic term over `vars` (depth-bounded).
fn rand_term(rng: &mut GenRng, vars: &[String], depth: usize) -> Term {
    if depth == 0 || rng.chance(35) {
        return if !vars.is_empty() && rng.chance(70) {
            Term::var(rng.pick(vars).clone())
        } else {
            Term::nat(rng.below(4) as u64)
        };
    }
    match rng.below(3) {
        0 => Term::App(
            "add".into(),
            vec![
                rand_term(rng, vars, depth - 1),
                rand_term(rng, vars, depth - 1),
            ],
        ),
        1 => Term::App(
            "mul".into(),
            vec![
                rand_term(rng, vars, depth - 1),
                rand_term(rng, vars, depth - 1),
            ],
        ),
        _ => Term::App("S".into(), vec![rand_term(rng, vars, depth - 1)]),
    }
}

/// A random atomic formula over `vars` (for premises; need not be
/// provable).
fn rand_atom(rng: &mut GenRng, vars: &[String]) -> Formula {
    let a = rand_term(rng, vars, 1);
    let b = rand_term(rng, vars, 1);
    if rng.chance(50) {
        Formula::Eq(Sort::nat(), a, b)
    } else {
        Formula::Pred("le".into(), vec![], vec![a, b])
    }
}

/// Builds a terminal goal: a conclusion with a known closing tactic.
fn make_terminal(rng: &mut GenRng, state: &mut ThmBuild, pool: &[PoolLemma]) -> Vec<String> {
    if state.vars.is_empty() {
        state.fresh_var(rng);
        if rng.chance(40) {
            state.fresh_var(rng);
        }
    }
    let vars = state.vars.clone();
    match rng.below(100) {
        // t = t, closed by reflexivity.
        0..=39 => {
            let t = rand_term(rng, &vars, 2);
            state.concl = Formula::Eq(Sort::nat(), t.clone(), t);
            vec!["reflexivity".to_string()]
        }
        // le t t, closed by the prelude rule le_n.
        40..=54 => {
            let t = rand_term(rng, &vars, 1);
            state.concl = Formula::Pred("le".into(), vec![], vec![t.clone(), t]);
            vec!["apply le_n".to_string()]
        }
        // le b (add a b), closed by the pool lemma le_add_l.
        55..=69 => {
            let a = rand_term(rng, &vars, 1);
            let b = rand_term(rng, &vars, 1);
            let lemma = pool
                .iter()
                .find(|l| l.base == "le_add_l")
                .expect("pool has le_add_l");
            state.concl = Formula::Pred(
                "le".into(),
                vec![],
                vec![b.clone(), Term::App("add".into(), vec![a, b])],
            );
            vec![format!("apply {}", lemma.name)]
        }
        // A with hypothesis A, closed by assumption.
        _ => {
            let atom = rand_atom(rng, &vars);
            state.hyps.push((state.fresh_hyp_name(), atom.clone()));
            state.concl = atom;
            vec!["assumption".to_string()]
        }
    }
}

// ---------------------------------------------------------------------
// First-order matching and occurrence surgery (the rewrite inversion).
// ---------------------------------------------------------------------

/// Matches `pat` (whose variables in `binders` are pattern holes) against
/// `t`, extending `sub`.
fn match_term(
    pat: &Term,
    t: &Term,
    binders: &BTreeSet<String>,
    sub: &mut BTreeMap<String, Term>,
) -> bool {
    match pat {
        Term::Var(v) if binders.contains(v) => match sub.get(v) {
            Some(bound) => bound == t,
            None => {
                sub.insert(v.clone(), t.clone());
                true
            }
        },
        Term::Var(v) => matches!(t, Term::Var(w) if w == v),
        Term::App(f, args) => match t {
            Term::App(g, targs) if g == f && targs.len() == args.len() => args
                .iter()
                .zip(targs)
                .all(|(p, a)| match_term(p, a, binders, sub)),
            _ => false,
        },
        Term::Match(..) | Term::Meta(_) => false,
    }
}

/// Instantiates a pattern whose holes are all bound in `sub`.
fn subst_pat(pat: &Term, sub: &BTreeMap<String, Term>) -> Term {
    match pat {
        Term::Var(v) => sub.get(v).cloned().unwrap_or_else(|| pat.clone()),
        Term::App(f, args) => {
            Term::App(f.clone(), args.iter().map(|a| subst_pat(a, sub)).collect())
        }
        Term::Match(..) | Term::Meta(_) => pat.clone(),
    }
}

/// Replaces the `n`-th (0-based, candidate order) occurrence of `from` by
/// `to` in the formula; counts exact matches only.
fn replace_nth(f: &Formula, from: &Term, to: &Term, n: &mut isize) -> Formula {
    fn in_term(t: &Term, from: &Term, to: &Term, n: &mut isize) -> Term {
        if t == from {
            *n -= 1;
            if *n == -1 {
                return to.clone();
            }
            // Note: an exact match still recurses so occurrence counting
            // follows the candidate enumeration (which lists the parent
            // before its arguments but counts each position once).
        }
        match t {
            Term::Var(_) | Term::Meta(_) => t.clone(),
            Term::App(g, args) => Term::App(
                g.clone(),
                args.iter().map(|a| in_term(a, from, to, n)).collect(),
            ),
            Term::Match(..) => t.clone(),
        }
    }
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Eq(s, a, b) => {
            Formula::Eq(s.clone(), in_term(a, from, to, n), in_term(b, from, to, n))
        }
        Formula::Pred(p, sorts, args) => Formula::Pred(
            p.clone(),
            sorts.clone(),
            args.iter().map(|a| in_term(a, from, to, n)).collect(),
        ),
        Formula::Not(g) => Formula::Not(Box::new(replace_nth(g, from, to, n))),
        Formula::And(a, b) => {
            Formula::and(replace_nth(a, from, to, n), replace_nth(b, from, to, n))
        }
        Formula::Or(a, b) => Formula::or(replace_nth(a, from, to, n), replace_nth(b, from, to, n)),
        Formula::Implies(a, b) => {
            Formula::implies(replace_nth(a, from, to, n), replace_nth(b, from, to, n))
        }
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(replace_nth(a, from, to, n)),
            Box::new(replace_nth(b, from, to, n)),
        ),
        // Conclusions built here never nest quantifiers; leave them be.
        Formula::Forall(..) | Formula::Exists(..) | Formula::ForallSort(..) => f.clone(),
        Formula::FMatch(..) => f.clone(),
    }
}

/// The sides of a rewrite-safe pool equation, with its binder set.
struct EqView<'a> {
    name: &'a str,
    binders: BTreeSet<String>,
    lhs: Term,
    rhs: Term,
}

fn eq_view(lemma: &PoolLemma) -> Option<EqView<'_>> {
    if !lemma.rewrite_safe {
        return None;
    }
    let peeled = lemma.stmt.peel();
    let Formula::Eq(_, l, r) = &peeled.conclusion else {
        return None;
    };
    Some(EqView {
        name: &lemma.name,
        binders: peeled.binders.iter().map(|(n, _)| n.clone()).collect(),
        lhs: l.clone(),
        rhs: r.clone(),
    })
}

/// Proposes a rewrite inversion: pick an equation, a direction, and an
/// occurrence; plant the other side; return the new conclusion and the
/// witness sentence. The proposal already passes a local simulation of
/// the kernel's rewrite (first match, replace all) — replay then confirms.
fn propose_rewrite(
    rng: &mut GenRng,
    concl: &Formula,
    eqs: &[EqView<'_>],
) -> Option<(Formula, String)> {
    if eqs.is_empty() {
        return None;
    }
    let eq = &eqs[rng.below(eqs.len())];
    // `forward` is the direction of the *witness* sentence: `rewrite L`
    // rewrites lhs→rhs at replay, so planting substitutes rhs-instances
    // with the instantiated lhs.
    let forward = rng.chance(65);
    let (match_side, plant_side) = if forward {
        (&eq.rhs, &eq.lhs)
    } else {
        (&eq.lhs, &eq.rhs)
    };

    // Collect matches of the side we are about to *remove*.
    let mut cands = Vec::new();
    candidate_subterms(concl, &mut cands);
    let mut matches: Vec<(Term, Term)> = Vec::new(); // (instance, planted)
    for c in &cands {
        let mut sub = BTreeMap::new();
        if match_term(match_side, c, &eq.binders, &mut sub)
            && eq.binders.iter().all(|b| sub.contains_key(b))
        {
            matches.push((c.clone(), subst_pat(plant_side, &sub)));
        }
    }
    if matches.is_empty() {
        return None;
    }
    let (instance, planted) = matches[rng.below(matches.len())].clone();
    if instance == planted {
        return None;
    }
    // The planted term must be new: a pre-existing occurrence would also
    // be rewritten at replay, yielding a different goal than ours.
    if cands.iter().any(|c| c == &planted) {
        return None;
    }
    let mut which = {
        // Count occurrences of the chosen instance, pick one.
        let occurrences = cands.iter().filter(|c| *c == &instance).count();
        rng.below(occurrences) as isize
    };
    let new_concl = replace_nth(concl, &instance, &planted, &mut which);

    // Simulate the replay: the first subterm of the new conclusion that
    // matches the replay-side pattern must be our planted term, and
    // replacing all its occurrences must restore the old conclusion.
    let mut new_cands = Vec::new();
    candidate_subterms(&new_concl, &mut new_cands);
    let first = new_cands.iter().find_map(|c| {
        let mut sub = BTreeMap::new();
        match_term(plant_side, c, &eq.binders, &mut sub).then(|| c.clone())
    })?;
    if first != planted {
        return None;
    }
    if replace_in_formula(&new_concl, &planted, &instance) != *concl {
        return None;
    }
    let sentence = if forward {
        format!("rewrite {}", eq.name)
    } else {
        format!("rewrite <- {}", eq.name)
    };
    Some((new_concl, sentence))
}

/// One backward step: returns the candidate state, which the caller
/// validates by replay before committing.
fn propose_step(
    rng: &mut GenRng,
    state: &ThmBuild,
    pool: &[PoolLemma],
    eqs: &[EqView<'_>],
) -> Option<ThmBuild> {
    let mut next = state.clone();
    match rng.below(100) {
        // Rewrite inversion: the workhorse.
        0..=59 => {
            let (concl, sentence) = propose_rewrite(rng, &state.concl, eqs)?;
            next.concl = concl;
            next.body.insert(0, sentence);
        }
        // le a b  ⇒  le a (S b), witnessed by `apply le_S`.
        60..=74 => {
            let Formula::Pred(p, _, args) = &state.concl else {
                return None;
            };
            if p != "le" || args.len() != 2 {
                return None;
            }
            next.concl = Formula::Pred(
                "le".into(),
                vec![],
                vec![
                    args[0].clone(),
                    Term::App("S".into(), vec![args[1].clone()]),
                ],
            );
            next.body.insert(0, "apply le_S".to_string());
        }
        // Conjoin a fresh terminal: split⁻¹.
        75..=84 => {
            let mut side = ThmBuild {
                vars: next.vars.clone(),
                hyps: Vec::new(),
                concl: Formula::True,
                body: Vec::new(),
                depth: 0,
            };
            let side_body = make_terminal(rng, &mut side, pool);
            // Adopt any vars/hyps the terminal introduced.
            for v in side.vars.iter().skip(next.vars.len()) {
                next.vars.push(v.clone());
            }
            for (name, h) in &side.hyps {
                let mut n = name.clone();
                // Hyp names are positional; re-number against our list.
                if next.hyps.iter().any(|(en, _)| en == &n) || n == "H0" {
                    n = format!("H{}", next.hyps.len());
                }
                next.hyps.push((n, h.clone()));
            }
            let left_first = rng.chance(50);
            let (first_body, second_body): (Vec<String>, Vec<String>) = if left_first {
                (side_body, state.body.clone())
            } else {
                (state.body.clone(), side_body)
            };
            next.concl = if left_first {
                Formula::and(side.concl, state.concl.clone())
            } else {
                Formula::and(state.concl.clone(), side.concl)
            };
            next.body = Vec::new();
            next.body.push("split".to_string());
            next.body.extend(first_body);
            next.body.extend(second_body);
        }
        // Premise insertion: a distractor hypothesis.
        _ => {
            if next.hyps.len() >= 3 {
                return None;
            }
            let atom = rand_atom(rng, &next.vars.clone());
            next.hyps.push((next.fresh_hyp_name(), atom));
        }
    }
    next.depth = state.depth + 1;
    Some(next)
}

/// Generates one theorem: a terminal goal grown by up to `depth` inverse
/// steps, every commit gated on a full kernel replay of the witness.
/// Always returns a valid theorem (the terminal alone replays).
pub fn gen_theorem(env: &Env, pool: &[PoolLemma], seed: u64, depth: usize) -> ThmBuild {
    let mut rng = GenRng::new(seed);
    let eqs: Vec<EqView<'_>> = pool.iter().filter_map(eq_view).collect();
    let mut state = ThmBuild {
        vars: Vec::new(),
        hyps: Vec::new(),
        concl: Formula::True,
        body: Vec::new(),
        depth: 0,
    };
    state.body = make_terminal(&mut rng, &mut state, pool);
    debug_assert!(
        replay_script(env, &state.statement(), &state.script_text()).is_ok(),
        "terminal goal must replay: {}",
        state.script_text()
    );
    for _ in 0..depth {
        let mut committed = false;
        for _try in 0..4 {
            let Some(candidate) = propose_step(&mut rng, &state, pool, &eqs) else {
                continue;
            };
            if replay_script(env, &candidate.statement(), &candidate.script_text()).is_ok() {
                state = candidate;
                committed = true;
                break;
            }
        }
        if !committed {
            // No proposal validated at this depth; the theorem stays at
            // its current (already valid) shape.
            continue;
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::build_pool;

    fn env_with_pool() -> (Env, Vec<PoolLemma>) {
        let pool = build_pool(&|b| format!("g0_{b}"));
        let mut env = Env::with_prelude();
        for l in &pool {
            env.add_lemma(l.name.clone(), l.stmt.clone()).unwrap();
        }
        (env, pool)
    }

    #[test]
    fn generated_theorems_replay_across_seeds() {
        let (env, pool) = env_with_pool();
        for seed in 0..40u64 {
            let thm = gen_theorem(&env, &pool, seed, 4);
            let r = replay_script(&env, &thm.statement(), &thm.script_text());
            assert!(
                r.is_ok(),
                "seed {seed}: witness failed: {}\nstmt: {:?}",
                thm.script_text(),
                thm.statement()
            );
        }
    }

    #[test]
    fn deeper_knobs_grow_longer_witnesses_somewhere() {
        let (env, pool) = env_with_pool();
        let shallow: usize = (0..20u64)
            .map(|s| gen_theorem(&env, &pool, s, 0).sentences().len())
            .sum();
        let deep: usize = (0..20u64)
            .map(|s| gen_theorem(&env, &pool, s, 6).sentences().len())
            .sum();
        assert!(
            deep > shallow,
            "depth knob had no effect: shallow {shallow}, deep {deep}"
        );
    }

    #[test]
    fn same_seed_same_theorem() {
        let (env, pool) = env_with_pool();
        for seed in [3u64, 17, 99] {
            let a = gen_theorem(&env, &pool, seed, 5);
            let b = gen_theorem(&env, &pool, seed, 5);
            assert_eq!(a.script_text(), b.script_text());
            assert_eq!(
                minicoq::pretty::formula_to_string(&a.statement()),
                minicoq::pretty::formula_to_string(&b.statement())
            );
        }
    }
}

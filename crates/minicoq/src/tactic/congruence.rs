//! `congruence`: congruence closure over hypothesis equations, with
//! constructor injectivity and disjointness.

use crate::env::Env;
use crate::error::TacticError;
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::term::Term;

use super::basic::whnf_prop;

/// A small congruence-closure engine over a fixed term universe.
struct Closure<'e> {
    env: &'e Env,
    terms: Vec<Term>,
    parent: Vec<usize>,
}

impl<'e> Closure<'e> {
    fn new(env: &'e Env) -> Self {
        Closure {
            env,
            terms: Vec::new(),
            parent: Vec::new(),
        }
    }

    /// Interns a term and all of its subterms; returns its node index.
    fn intern(&mut self, t: &Term) -> usize {
        if let Term::App(_, args) = t {
            for a in args {
                self.intern(a);
            }
        }
        if let Some(i) = self.terms.iter().position(|u| u == t) {
            return i;
        }
        self.terms.push(t.clone());
        self.parent.push(self.terms.len() - 1);
        self.terms.len() - 1
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Propagates congruence and injectivity to a fixpoint. Returns true if
    /// an inconsistency (constructor clash) is detected.
    fn saturate(&mut self, fuel: &mut Fuel) -> Result<bool, TacticError> {
        loop {
            fuel.charge(4)?;
            let mut changed = false;
            let n = self.terms.len();
            for i in 0..n {
                for j in (i + 1)..n {
                    fuel.tick()?;
                    let (ti, tj) = (self.terms[i].clone(), self.terms[j].clone());
                    let (Term::App(f, fa), Term::App(g, ga)) = (&ti, &tj) else {
                        continue;
                    };
                    if self.find(i) == self.find(j) {
                        // Injectivity and disjointness for constructors.
                        let fc = self.env.ctors.contains_key(f);
                        let gc = self.env.ctors.contains_key(g);
                        if fc && gc {
                            if f != g {
                                return Ok(true);
                            }
                            for (x, y) in fa.clone().iter().zip(ga.clone().iter()) {
                                let (xi, yi) = (self.intern(x), self.intern(y));
                                if self.find(xi) != self.find(yi) {
                                    self.union(xi, yi);
                                    changed = true;
                                }
                            }
                        }
                        continue;
                    }
                    // Congruence: equal heads, pairwise-equal arguments.
                    if f == g && fa.len() == ga.len() {
                        let mut all = true;
                        for (x, y) in fa.clone().iter().zip(ga.clone().iter()) {
                            let (xi, yi) = (self.intern(x), self.intern(y));
                            if self.find(xi) != self.find(yi) {
                                all = false;
                                break;
                            }
                        }
                        if all {
                            self.union(i, j);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return Ok(false);
            }
        }
    }

    fn equal(&mut self, a: &Term, b: &Term) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.find(ia) == self.find(ib)
    }
}

/// `congruence`.
pub fn congruence(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let mut eqs: Vec<(Term, Term)> = Vec::new();
    let mut neqs: Vec<(Term, Term)> = Vec::new();
    for (_, f) in &goal.hyps {
        match &*whnf_prop(env, f) {
            Formula::Eq(_, a, b) => eqs.push((a.clone(), b.clone())),
            Formula::Not(inner) => {
                if let Formula::Eq(_, a, b) = &**inner {
                    neqs.push((a.clone(), b.clone()));
                }
            }
            _ => {}
        }
    }
    // The goal contributes its negation.
    let mut goal_eq: Option<(Term, Term)> = None;
    match &*whnf_prop(env, &goal.concl) {
        Formula::Eq(_, a, b) => goal_eq = Some((a.clone(), b.clone())),
        Formula::Not(inner) => {
            if let Formula::Eq(_, a, b) = &**inner {
                eqs.push((a.clone(), b.clone()));
            } else {
                return Err(TacticError::rejected("goal is not an equality"));
            }
        }
        Formula::False => {}
        _ => return Err(TacticError::rejected("goal is not an equality")),
    }

    let mut cc = Closure::new(env);
    for (a, b) in &eqs {
        let (ia, ib) = (cc.intern(a), cc.intern(b));
        cc.union(ia, ib);
    }
    for (a, b) in &neqs {
        cc.intern(a);
        cc.intern(b);
    }
    if let Some((a, b)) = &goal_eq {
        cc.intern(a);
        cc.intern(b);
    }
    if cc.terms.len() > 256 {
        return Err(TacticError::rejected("too many terms for congruence"));
    }
    let clash = cc.saturate(fuel)?;
    if clash {
        return Ok(vec![]);
    }
    // A hypothesis pair `a <> b` with a ≡ b is a contradiction.
    for (a, b) in &neqs {
        if cc.equal(a, b) {
            return Ok(vec![]);
        }
    }
    if let Some((a, b)) = &goal_eq {
        if cc.equal(a, b) {
            return Ok(vec![]);
        }
    }
    Err(TacticError::rejected("congruence found no proof"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    fn eq(a: Term, b: Term) -> Formula {
        Formula::Eq(Sort::nat(), a, b)
    }

    #[test]
    fn transitivity_and_congruence() {
        let env = Env::with_prelude();
        let mut g = Goal::new(eq(
            Term::App("S".into(), vec![Term::var("a")]),
            Term::App("S".into(), vec![Term::var("c")]),
        ));
        g.vars.push(("a".into(), Sort::nat()));
        g.vars.push(("b".into(), Sort::nat()));
        g.vars.push(("c".into(), Sort::nat()));
        g.hyps
            .push(("H1".into(), eq(Term::var("a"), Term::var("b"))));
        g.hyps
            .push(("H2".into(), eq(Term::var("b"), Term::var("c"))));
        assert!(congruence(&env, &g, &mut Fuel::unlimited())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn constructor_clash_closes_any_goal() {
        let env = Env::with_prelude();
        let mut g = Goal::new(Formula::False);
        g.hyps.push(("H".into(), eq(Term::nat(0), Term::nat(1))));
        assert!(congruence(&env, &g, &mut Fuel::unlimited())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn injectivity_used() {
        let env = Env::with_prelude();
        // S a = S b |- a = b.
        let mut g = Goal::new(eq(Term::var("a"), Term::var("b")));
        g.vars.push(("a".into(), Sort::nat()));
        g.vars.push(("b".into(), Sort::nat()));
        g.hyps.push((
            "H".into(),
            eq(
                Term::App("S".into(), vec![Term::var("a")]),
                Term::App("S".into(), vec![Term::var("b")]),
            ),
        ));
        assert!(congruence(&env, &g, &mut Fuel::unlimited())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn honest_failure() {
        let env = Env::with_prelude();
        let mut g = Goal::new(eq(Term::var("a"), Term::var("b")));
        g.vars.push(("a".into(), Sort::nat()));
        g.vars.push(("b".into(), Sort::nat()));
        assert!(congruence(&env, &g, &mut Fuel::unlimited()).is_err());
    }
}

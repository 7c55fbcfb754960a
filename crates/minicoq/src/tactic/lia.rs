//! `lia`: linear arithmetic over `nat`.
//!
//! Constraints are extracted from the hypotheses and the negated goal,
//! non-linear subterms are abstracted as opaque atoms (each implicitly
//! `>= 0`), and infeasibility is decided by Fourier–Motzkin elimination
//! over the rationals with strict bounds tightened to integers
//! (`a < b` becomes `a + 1 <= b`). This is sound and handles the linear
//! fragment the corpus uses; divisibility-only contradictions are out of
//! scope, as documented in DESIGN.md.

use std::collections::BTreeMap;

use crate::env::Env;
use crate::error::TacticError;
use crate::eval::{normalize_term, EvalMode};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::term::Term;

use super::basic::whnf_prop;

/// A linear expression: `constant + Σ coeff · atom`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Lin {
    constant: i128,
    coeffs: BTreeMap<Term, i128>,
}

impl Lin {
    fn constant(c: i128) -> Lin {
        Lin {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    fn atom(t: Term) -> Lin {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(t, 1);
        Lin {
            constant: 0,
            coeffs,
        }
    }

    fn add(mut self, other: &Lin) -> Lin {
        self.constant += other.constant;
        for (t, c) in &other.coeffs {
            let e = self.coeffs.entry(t.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                self.coeffs.remove(t);
            }
        }
        self
    }

    fn scale(mut self, k: i128) -> Lin {
        if k == 0 {
            return Lin::constant(0);
        }
        self.constant *= k;
        for c in self.coeffs.values_mut() {
            *c *= k;
        }
        self
    }

    fn sub(self, other: &Lin) -> Lin {
        self.add(&other.clone().scale(-1))
    }
}

/// Converts a `nat` term into a linear expression, abstracting non-linear
/// subterms as atoms.
fn linearize(env: &Env, t: &Term, fuel: &mut Fuel) -> Result<Lin, TacticError> {
    fuel.tick()?;
    match t {
        Term::Var(_) => Ok(Lin::atom(t.clone())),
        Term::Meta(_) => Err(TacticError::rejected("metavariable in lia")),
        Term::App(f, args) => match (f.as_str(), args.len()) {
            ("O", 0) => Ok(Lin::constant(0)),
            ("S", 1) => Ok(linearize(env, &args[0], fuel)?.add(&Lin::constant(1))),
            ("add", 2) => {
                let a = linearize(env, &args[0], fuel)?;
                let b = linearize(env, &args[1], fuel)?;
                Ok(a.add(&b))
            }
            ("mul", 2) => {
                // Multiplication by a literal stays linear.
                let la = normalize_term(env, &args[0], EvalMode::simpl(), fuel)?;
                let lb = normalize_term(env, &args[1], EvalMode::simpl(), fuel)?;
                if let Some(k) = la.as_nat() {
                    Ok(linearize(env, &lb, fuel)?.scale(k as i128))
                } else if let Some(k) = lb.as_nat() {
                    Ok(linearize(env, &la, fuel)?.scale(k as i128))
                } else {
                    Ok(Lin::atom(t.clone()))
                }
            }
            _ => Ok(Lin::atom(t.clone())),
        },
        Term::Match(..) => Ok(Lin::atom(t.clone())),
    }
}

/// An inequality `lin >= 0`.
type Constraint = Lin;

/// Extracts `>= 0` constraints from a formula; `positive` is false when the
/// formula appears under a negation. Unsupported shapes yield no constraint
/// (sound: dropping hypotheses weakens the prover).
fn constraints_of(
    env: &Env,
    f: &Formula,
    positive: bool,
    out: &mut Vec<Constraint>,
    splits: &mut Vec<(Constraint, Constraint)>,
    fuel: &mut Fuel,
) -> Result<(), TacticError> {
    match &*whnf_prop(env, f) {
        Formula::Pred(p, _, args) if p == "le" && args.len() == 2 => {
            let a = linearize(env, &args[0], fuel)?;
            let b = linearize(env, &args[1], fuel)?;
            if positive {
                out.push(b.sub(&a)); // b - a >= 0
            } else {
                out.push(a.sub(&b).add(&Lin::constant(-1))); // a - b - 1 >= 0
            }
            Ok(())
        }
        Formula::Eq(s, a, b) if *s == crate::sort::Sort::nat() => {
            let a = linearize(env, a, fuel)?;
            let b = linearize(env, b, fuel)?;
            if positive {
                out.push(a.clone().sub(&b));
                out.push(b.sub(&a));
            } else {
                // a <> b: (a - b - 1 >= 0) or (b - a - 1 >= 0).
                let d1 = a.clone().sub(&b).add(&Lin::constant(-1));
                let d2 = b.sub(&a).add(&Lin::constant(-1));
                splits.push((d1, d2));
            }
            Ok(())
        }
        Formula::Not(inner) => constraints_of(env, inner, !positive, out, splits, fuel),
        Formula::And(x, y) if positive => {
            constraints_of(env, x, true, out, splits, fuel)?;
            constraints_of(env, y, true, out, splits, fuel)
        }
        Formula::Or(x, y) if !positive => {
            // ~(x \/ y): both negations hold.
            constraints_of(env, x, false, out, splits, fuel)?;
            constraints_of(env, y, false, out, splits, fuel)
        }
        _ => Ok(()), // Unsupported: ignored.
    }
}

/// Fourier–Motzkin infeasibility check for a system of `lin >= 0`
/// constraints where every atom is additionally `>= 0`.
fn infeasible(mut system: Vec<Constraint>, fuel: &mut Fuel) -> Result<bool, TacticError> {
    // Non-negativity of atoms.
    let mut atoms: Vec<Term> = Vec::new();
    for c in &system {
        for a in c.coeffs.keys() {
            if !atoms.contains(a) {
                atoms.push(a.clone());
            }
        }
    }
    for a in &atoms {
        system.push(Lin::atom(a.clone()));
    }
    for var in atoms {
        fuel.charge(8)?;
        if system.len() > 4000 {
            return Err(TacticError::Timeout);
        }
        let (with, without): (Vec<Lin>, Vec<Lin>) = system
            .into_iter()
            .partition(|c| c.coeffs.contains_key(&var));
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for c in with {
            let k = c.coeffs[&var];
            if k > 0 {
                pos.push((k, c));
            } else {
                neg.push((-k, c));
            }
        }
        system = without;
        for (kp, p) in &pos {
            for (kn, n) in &neg {
                fuel.tick()?;
                // kn·p + kp·n eliminates `var`.
                let combined = p.clone().scale(*kn).add(&n.clone().scale(*kp));
                debug_assert!(!combined.coeffs.contains_key(&var));
                system.push(combined);
            }
        }
    }
    Ok(system.iter().any(|c| c.coeffs.is_empty() && c.constant < 0))
}

/// `lia`.
pub fn lia(env: &Env, goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let mut base: Vec<Constraint> = Vec::new();
    let mut splits: Vec<(Constraint, Constraint)> = Vec::new();
    for (_, f) in &goal.hyps {
        constraints_of(env, f, true, &mut base, &mut splits, fuel)?;
    }
    // Negate the goal.
    let concl = whnf_prop(env, &goal.concl);
    match &*concl {
        Formula::False => {}
        _ => {
            let nb = base.len();
            let ns = splits.len();
            constraints_of(env, &concl, false, &mut base, &mut splits, fuel)?;
            if base.len() == nb && splits.len() == ns {
                return Err(TacticError::rejected("goal is not linear arithmetic"));
            }
        }
    }
    if splits.len() > 6 {
        return Err(TacticError::rejected("too many disequalities for lia"));
    }
    // Every branch of the disequality case split must be infeasible.
    let n_branches = 1usize << splits.len();
    for mask in 0..n_branches {
        let mut system = base.clone();
        for (i, (l, r)) in splits.iter().enumerate() {
            if mask & (1 << i) == 0 {
                system.push(l.clone());
            } else {
                system.push(r.clone());
            }
        }
        if !infeasible(system, fuel)? {
            return Err(TacticError::rejected("lia cannot prove the goal"));
        }
    }
    Ok(vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    fn le(a: Term, b: Term) -> Formula {
        Formula::Pred("le".into(), vec![], vec![a, b])
    }

    fn var(n: &str) -> Term {
        Term::var(n)
    }

    fn nat_goal(f: Formula, vars: &[&str]) -> Goal {
        let mut g = Goal::new(f);
        for v in vars {
            g.vars.push(((*v).into(), Sort::nat()));
        }
        g
    }

    #[test]
    fn transitivity() {
        let env = Env::with_prelude();
        let mut g = nat_goal(le(var("a"), var("c")), &["a", "b", "c"]);
        g.hyps.push(("H1".into(), le(var("a"), var("b"))));
        g.hyps.push(("H2".into(), le(var("b"), var("c"))));
        assert!(lia(&env, &g, &mut Fuel::unlimited()).unwrap().is_empty());
    }

    #[test]
    fn uses_lt_via_unfolding() {
        let env = Env::with_prelude();
        // a < b -> a <= b.
        let mut g = nat_goal(le(var("a"), var("b")), &["a", "b"]);
        g.hyps.push((
            "H".into(),
            Formula::Pred("lt".into(), vec![], vec![var("a"), var("b")]),
        ));
        assert!(lia(&env, &g, &mut Fuel::unlimited()).unwrap().is_empty());
    }

    #[test]
    fn equality_goal() {
        let env = Env::with_prelude();
        // a <= b -> b <= a -> a = b.
        let mut g = nat_goal(Formula::Eq(Sort::nat(), var("a"), var("b")), &["a", "b"]);
        g.hyps.push(("H1".into(), le(var("a"), var("b"))));
        g.hyps.push(("H2".into(), le(var("b"), var("a"))));
        assert!(lia(&env, &g, &mut Fuel::unlimited()).unwrap().is_empty());
    }

    #[test]
    fn arithmetic_identities() {
        let env = Env::with_prelude();
        // a + 1 <= S a (in fact equal).
        let g = nat_goal(
            le(
                Term::App("add".into(), vec![var("a"), Term::nat(1)]),
                Term::App("S".into(), vec![var("a")]),
            ),
            &["a"],
        );
        assert!(lia(&env, &g, &mut Fuel::unlimited()).unwrap().is_empty());
    }

    #[test]
    fn refuses_false_statements() {
        let env = Env::with_prelude();
        let g = nat_goal(le(Term::nat(3), Term::nat(2)), &[]);
        assert!(lia(&env, &g, &mut Fuel::unlimited()).is_err());
        let g2 = nat_goal(Formula::Eq(Sort::nat(), var("a"), var("b")), &["a", "b"]);
        assert!(lia(&env, &g2, &mut Fuel::unlimited()).is_err());
    }

    #[test]
    fn nonlinear_atoms_are_opaque_but_nonnegative() {
        let env = Env::with_prelude();
        // 0 <= x * y holds because atoms are >= 0.
        let g = nat_goal(
            le(
                Term::nat(0),
                Term::App("mul".into(), vec![var("x"), var("y")]),
            ),
            &["x", "y"],
        );
        assert!(lia(&env, &g, &mut Fuel::unlimited()).unwrap().is_empty());
    }

    #[test]
    fn disequality_hypothesis_split() {
        let env = Env::with_prelude();
        // a <> 0 -> 1 <= a.
        let mut g = nat_goal(le(Term::nat(1), var("a")), &["a"]);
        g.hyps.push((
            "H".into(),
            Formula::Not(Box::new(Formula::Eq(Sort::nat(), var("a"), Term::nat(0)))),
        ));
        assert!(lia(&env, &g, &mut Fuel::unlimited()).unwrap().is_empty());
    }
}

//! Equational tactics: `rewrite`, `unfold`, `simpl`.

use std::collections::BTreeSet;

use crate::env::Env;
use crate::error::TacticError;
use crate::eval::{normalize_formula, unfold_pred, EvalMode};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::rule::Rule;
use crate::subst::{subst_term, TermSubst};
use crate::term::Term;
use crate::unify::Unifier;

use super::Loc;

/// Replaces every occurrence of `from` by `to` in a term, skipping match
/// arms whose binders would capture or shadow the involved variables.
pub(crate) fn replace_in_term(t: &Term, from: &Term, to: &Term) -> Term {
    if t == from {
        return to.clone();
    }
    match t {
        Term::Var(_) | Term::Meta(_) => t.clone(),
        Term::App(f, args) => Term::App(
            f.clone(),
            args.iter().map(|a| replace_in_term(a, from, to)).collect(),
        ),
        Term::Match(scrut, arms) => {
            let scrut = replace_in_term(scrut, from, to);
            let arms = arms
                .iter()
                .map(|(p, rhs)| {
                    if binders_interfere(&p.binders(), from, to) {
                        (p.clone(), rhs.clone())
                    } else {
                        (p.clone(), replace_in_term(rhs, from, to))
                    }
                })
                .collect();
            Term::Match(Box::new(scrut), arms)
        }
    }
}

fn binders_interfere(binders: &[String], from: &Term, to: &Term) -> bool {
    let mut fv = BTreeSet::new();
    from.free_vars(&mut fv);
    to.free_vars(&mut fv);
    binders.iter().any(|b| fv.contains(b))
}

/// Replaces occurrences of `from` by `to` in a formula. Replacement does
/// not descend under quantifiers or match binders that shadow any involved
/// variable (plain `rewrite` in Coq similarly fails under binders). The
/// corpus generator checks its inverted rewrites with it.
pub fn replace_in_formula(f: &Formula, from: &Term, to: &Term) -> Formula {
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Eq(s, a, b) => Formula::Eq(
            s.clone(),
            replace_in_term(a, from, to),
            replace_in_term(b, from, to),
        ),
        Formula::Pred(p, sorts, args) => Formula::Pred(
            p.clone(),
            sorts.clone(),
            args.iter().map(|a| replace_in_term(a, from, to)).collect(),
        ),
        Formula::Not(g) => Formula::Not(Box::new(replace_in_formula(g, from, to))),
        Formula::And(a, b) => Formula::and(
            replace_in_formula(a, from, to),
            replace_in_formula(b, from, to),
        ),
        Formula::Or(a, b) => Formula::or(
            replace_in_formula(a, from, to),
            replace_in_formula(b, from, to),
        ),
        Formula::Implies(a, b) => Formula::implies(
            replace_in_formula(a, from, to),
            replace_in_formula(b, from, to),
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(replace_in_formula(a, from, to)),
            Box::new(replace_in_formula(b, from, to)),
        ),
        Formula::Forall(v, s, body) => {
            if binders_interfere(std::slice::from_ref(v), from, to) {
                f.clone()
            } else {
                Formula::Forall(
                    v.clone(),
                    s.clone(),
                    Box::new(replace_in_formula(body, from, to)),
                )
            }
        }
        Formula::Exists(v, s, body) => {
            if binders_interfere(std::slice::from_ref(v), from, to) {
                f.clone()
            } else {
                Formula::Exists(
                    v.clone(),
                    s.clone(),
                    Box::new(replace_in_formula(body, from, to)),
                )
            }
        }
        Formula::ForallSort(v, body) => {
            Formula::ForallSort(v.clone(), Box::new(replace_in_formula(body, from, to)))
        }
        Formula::FMatch(scrut, arms) => {
            let scrut = replace_in_term(scrut, from, to);
            let arms = arms
                .iter()
                .map(|(p, rhs)| {
                    if binders_interfere(&p.binders(), from, to) {
                        (p.clone(), rhs.clone())
                    } else {
                        (p.clone(), replace_in_formula(rhs, from, to))
                    }
                })
                .collect();
            Formula::FMatch(Box::new(scrut), arms)
        }
    }
}

/// Enumerates candidate subterms of a formula for rewriting, outside
/// binders, in left-to-right order. Shared with `analysis::preflight`,
/// whose no-match check replays the same candidate scan, and with the
/// corpus generator, which inverts `rewrite` over the same scan.
pub fn candidate_subterms(f: &Formula, out: &mut Vec<Term>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Eq(_, a, b) => {
            subterms(a, out);
            subterms(b, out);
        }
        Formula::Pred(_, _, args) => args.iter().for_each(|a| subterms(a, out)),
        Formula::Not(g) => candidate_subterms(g, out),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            candidate_subterms(a, out);
            candidate_subterms(b, out);
        }
        // Plain rewrite does not descend under binders.
        Formula::Forall(..) | Formula::Exists(..) | Formula::ForallSort(..) => {}
        Formula::FMatch(scrut, _) => subterms(scrut, out),
    }
}

fn subterms(t: &Term, out: &mut Vec<Term>) {
    out.push(t.clone());
    match t {
        Term::Var(_) | Term::Meta(_) => {}
        Term::App(_, args) => args.iter().for_each(|a| subterms(a, out)),
        Term::Match(scrut, _) => subterms(scrut, out),
    }
}

/// `rewrite [<-] name [in H]`.
pub fn rewrite(
    env: &Env,
    goal: &Goal,
    name: &str,
    forward: bool,
    in_hyp: Option<&str>,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let Some(rule) = Rule::resolve(env, goal, name) else {
        return Err(TacticError::rejected(format!("unknown equation {name}")));
    };
    // Expose defined predicates so e.g. a `meq m1 m2` hypothesis rewrites
    // as its unfolding `forall a, mfind m1 a = mfind m2 a`.
    let form = rule.exposed_or_plain(env);
    let (inst, uni) = (form.instance(), form.unifier());
    let Formula::Eq(_, l, r) = &inst.conclusion else {
        return Err(TacticError::rejected(
            "the statement does not conclude with an equality",
        ));
    };
    let (pat, repl) = if forward { (l, r) } else { (r, l) };

    let target: Formula = match in_hyp {
        None => goal.concl.clone(),
        Some(h) => goal
            .hyp(h)
            .cloned()
            .ok_or_else(|| TacticError::rejected(format!("no hypothesis {h}")))?,
    };

    // Find the first subterm the pattern matches.
    let mut cands = Vec::new();
    candidate_subterms(&target, &mut cands);
    let mut matched: Option<Unifier> = None;
    for cand in &cands {
        fuel.tick()?;
        // Metavariables must not capture bound variables; candidates come
        // from outside binders so the instantiation is well-scoped.
        let mut u2 = uni.clone();
        if u2.unify_terms(pat, cand, fuel).is_ok() {
            matched = Some(u2);
            break;
        }
    }
    let Some(u) = matched else {
        return Err(TacticError::rejected(format!(
            "found no subterm matching the {} side of {name}",
            if forward { "left" } else { "right" }
        )));
    };
    let from = u.resolve_term(pat);
    let to = u.resolve_term(repl);
    if !from.is_ground() || !to.is_ground() {
        return Err(TacticError::rejected(
            "cannot infer the full instantiation of the equation",
        ));
    }
    let new_target = replace_in_formula(&target, &from, &to);

    let mut main = goal.clone();
    match in_hyp {
        None => main.concl = new_target,
        Some(h) => {
            main.set_hyp(h, new_target);
        }
    }
    let mut out = vec![main];
    // Conditional rewriting: premises become side goals.
    for p in &inst.premises {
        let resolved = u.resolve_formula(p);
        if !resolved.is_ground() {
            return Err(TacticError::rejected(
                "cannot infer the instantiation of a premise",
            ));
        }
        let mut g = goal.clone();
        g.concl = resolved;
        out.push(g);
    }
    Ok(out)
}

/// `unfold f, g [in H | in *]`.
pub fn unfold(
    env: &Env,
    goal: &Goal,
    names: &[String],
    loc: &Loc,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    for n in names {
        if !env.preds.contains_key(n) && !env.funcs.contains_key(n) {
            return Err(TacticError::rejected(format!("unknown definition {n}")));
        }
    }
    let mut g = goal.clone();
    let apply_to = |f: &Formula, fuel: &mut Fuel| -> Result<Formula, TacticError> {
        let mut cur = f.clone();
        for n in names {
            cur = unfold_in_formula(env, &cur, n, fuel)?;
        }
        // Reduce the exposed matches (Coq performs beta-iota after delta,
        // but does not unfold other definitions).
        normalize_formula(env, &cur, EvalMode::iota(), fuel)
    };
    match loc {
        Loc::Goal => {
            g.concl = apply_to(&g.concl, fuel)?;
        }
        Loc::Hyp(h) => {
            let Some(f) = g.hyp(h).cloned() else {
                return Err(TacticError::rejected(format!("no hypothesis {h}")));
            };
            let nf = apply_to(&f, fuel)?;
            g.set_hyp(h, nf);
        }
        Loc::Everywhere => {
            let hyps: Vec<(String, Formula)> = g.hyps.clone();
            for (n, f) in hyps {
                let nf = apply_to(&f, fuel)?;
                g.set_hyp(&n, nf);
            }
            g.concl = apply_to(&g.concl, fuel)?;
        }
    }
    Ok(vec![g])
}

/// One-level delta unfolding of `name` everywhere in a formula.
fn unfold_in_formula(
    env: &Env,
    f: &Formula,
    name: &str,
    fuel: &mut Fuel,
) -> Result<Formula, TacticError> {
    fuel.tick()?;
    let f = match f {
        Formula::Pred(p, sorts, args) if p == name => {
            let args: Vec<Term> = args
                .iter()
                .map(|a| unfold_in_term(env, a, name, fuel))
                .collect::<Result<_, _>>()?;
            match unfold_pred(env, name, sorts, &args) {
                Some(body) => return Ok(body),
                None => Formula::Pred(p.clone(), sorts.clone(), args),
            }
        }
        other => other.clone(),
    };
    Ok(match &f {
        Formula::True | Formula::False => f.clone(),
        Formula::Eq(s, a, b) => Formula::Eq(
            s.clone(),
            unfold_in_term(env, a, name, fuel)?,
            unfold_in_term(env, b, name, fuel)?,
        ),
        Formula::Pred(p, sorts, args) => Formula::Pred(
            p.clone(),
            sorts.clone(),
            args.iter()
                .map(|a| unfold_in_term(env, a, name, fuel))
                .collect::<Result<_, _>>()?,
        ),
        Formula::Not(g) => Formula::Not(Box::new(unfold_in_formula(env, g, name, fuel)?)),
        Formula::And(a, b) => Formula::and(
            unfold_in_formula(env, a, name, fuel)?,
            unfold_in_formula(env, b, name, fuel)?,
        ),
        Formula::Or(a, b) => Formula::or(
            unfold_in_formula(env, a, name, fuel)?,
            unfold_in_formula(env, b, name, fuel)?,
        ),
        Formula::Implies(a, b) => Formula::implies(
            unfold_in_formula(env, a, name, fuel)?,
            unfold_in_formula(env, b, name, fuel)?,
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(unfold_in_formula(env, a, name, fuel)?),
            Box::new(unfold_in_formula(env, b, name, fuel)?),
        ),
        Formula::Forall(v, s, body) => Formula::Forall(
            v.clone(),
            s.clone(),
            Box::new(unfold_in_formula(env, body, name, fuel)?),
        ),
        Formula::Exists(v, s, body) => Formula::Exists(
            v.clone(),
            s.clone(),
            Box::new(unfold_in_formula(env, body, name, fuel)?),
        ),
        Formula::ForallSort(v, body) => Formula::ForallSort(
            v.clone(),
            Box::new(unfold_in_formula(env, body, name, fuel)?),
        ),
        Formula::FMatch(scrut, arms) => Formula::FMatch(
            Box::new(unfold_in_term(env, scrut, name, fuel)?),
            arms.iter()
                .map(|(p, rhs)| Ok((p.clone(), unfold_in_formula(env, rhs, name, fuel)?)))
                .collect::<Result<Vec<_>, TacticError>>()?,
        ),
    })
}

/// One-level delta unfolding of a function symbol in a term.
fn unfold_in_term(env: &Env, t: &Term, name: &str, fuel: &mut Fuel) -> Result<Term, TacticError> {
    fuel.tick()?;
    match t {
        Term::Var(_) | Term::Meta(_) => Ok(t.clone()),
        Term::App(f, args) => {
            let args: Vec<Term> = args
                .iter()
                .map(|a| unfold_in_term(env, a, name, fuel))
                .collect::<Result<_, _>>()?;
            if f == name {
                if let Some(def) = env.funcs.get(name) {
                    if def.params.len() == args.len() {
                        let map: TermSubst = def
                            .params
                            .iter()
                            .map(|(p, _)| p.clone())
                            .zip(args.iter().cloned())
                            .collect();
                        return Ok(subst_term(&def.body, &map));
                    }
                }
            }
            Ok(Term::App(f.clone(), args))
        }
        Term::Match(scrut, arms) => Ok(Term::Match(
            Box::new(unfold_in_term(env, scrut, name, fuel)?),
            arms.iter()
                .map(|(p, rhs)| Ok((p.clone(), unfold_in_term(env, rhs, name, fuel)?)))
                .collect::<Result<Vec<_>, TacticError>>()?,
        )),
    }
}

/// `simpl [in H | in *]`.
pub fn simpl(env: &Env, goal: &Goal, loc: &Loc, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let mut g = goal.clone();
    match loc {
        Loc::Goal => {
            g.concl = normalize_formula(env, &g.concl, EvalMode::simpl(), fuel)?;
        }
        Loc::Hyp(h) => {
            let Some(f) = g.hyp(h).cloned() else {
                return Err(TacticError::rejected(format!("no hypothesis {h}")));
            };
            let nf = normalize_formula(env, &f, EvalMode::simpl(), fuel)?;
            g.set_hyp(h, nf);
        }
        Loc::Everywhere => {
            let hyps: Vec<(String, Formula)> = g.hyps.clone();
            for (n, f) in hyps {
                let nf = normalize_formula(env, &f, EvalMode::simpl(), fuel)?;
                g.set_hyp(&n, nf);
            }
            g.concl = normalize_formula(env, &g.concl, EvalMode::simpl(), fuel)?;
        }
    }
    Ok(vec![g])
}

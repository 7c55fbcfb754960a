//! Case analysis: `destruct`, `induction`, `inversion`, `injection`,
//! `discriminate`, `subst`.

use std::collections::BTreeSet;

use crate::analysis::{PreflightRejection, ReasonCode};
use crate::env::{Env, IndPred, PredDef};
use crate::error::TacticError;
use crate::eval::{ctor_head, normalize_term, EvalMode};
use crate::formula::Formula;
use crate::fuel::Fuel;
use crate::goal::Goal;
use crate::sort::Sort;
use crate::subst::{fresh_name, subst_formula1};
use crate::term::Term;
use crate::typing::infer_sort;
use crate::unify::Unifier;
use crate::Ident;

use super::basic::{hyp, intro_binder, unused_name, whnf_prop};
use super::rewrite::replace_in_formula;
use super::{DestructPattern, DestructTarget};

/// Derives a variable base name from a sort (`nat` → `n`, `list _` → `l`).
fn base_name_for(sort: &Sort) -> &'static str {
    match sort {
        Sort::Atom(n) | Sort::App(n, _) => match n.as_str() {
            "nat" => "n",
            "bool" => "b",
            "list" => "l",
            "prod" => "p",
            "option" => "o",
            other => {
                let c = other.chars().next().unwrap_or('x');
                match c.to_ascii_lowercase() {
                    'a' => "a",
                    'd' => "d",
                    't' => "t",
                    'i' => "i",
                    'v' => "v",
                    'w' => "w",
                    's' => "s",
                    'p' => "p",
                    _ => "x",
                }
            }
        },
        _ => "x",
    }
}

/// Introduces leading binders until `x` is a context variable (Coq's
/// `induction`/`destruct` intro up to the named variable automatically).
/// A binder named `x` keeps its name; every other one gets a fresh name.
fn intro_until_var(env: &Env, goal: &Goal, x: &str) -> Result<Goal, TacticError> {
    let not_a_variable = || TacticError::rejected(format!("{x} is not a variable"));
    let mut g = goal.clone();
    let mut scope = goal.names_in_scope();
    let mut steps = 0;
    while g.var_sort(x).is_none() {
        steps += 1;
        if steps > 256 {
            return Err(not_a_variable());
        }
        let exposed = whnf_prop(env, &g.concl).into_owned();
        let want = matches!(&exposed, Formula::Forall(v, ..) if v == x).then_some(x);
        intro_binder(&mut g, &mut scope, exposed, want).map_err(|r| match r.code {
            ReasonCode::AtomicConclusion => not_a_variable(),
            _ => r.into(),
        })?;
    }
    Ok(g)
}

/// `destruct`.
pub fn destruct(
    env: &Env,
    goal: &Goal,
    target: &DestructTarget,
    pattern: Option<&DestructPattern>,
    eqn: Option<&str>,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    match target {
        DestructTarget::Name(n) => {
            if goal.hyp(n).is_some() {
                destruct_hyp(env, goal, n, pattern, fuel)
            } else if goal.var_sort(n).is_some() {
                destruct_var(env, goal, n, pattern, eqn)
            } else {
                let g = intro_until_var(env, goal, n)
                    .map_err(|_| TacticError::rejected(format!("no such name: {n}")))?;
                destruct_var(env, &g, n, pattern, eqn)
            }
        }
        DestructTarget::Term(t) => destruct_term(env, goal, t, pattern, eqn, fuel),
    }
}

fn pattern_names(pattern: Option<&DestructPattern>, case: usize) -> &[Ident] {
    match pattern {
        Some(p) if case < p.len() => p[case].as_slice(),
        _ => &[],
    }
}

/// The fuel-free prefix of `destruct H`: `H`, exposed, is a connective
/// case analysis splits, or an inductive predicate's application.
pub(crate) fn destruct_hyp_prefix(
    env: &Env,
    goal: &Goal,
    h: &str,
) -> Result<Formula, PreflightRejection> {
    let hf = whnf_prop(env, hyp(goal, h)?);
    match &*hf {
        Formula::And(..)
        | Formula::Or(..)
        | Formula::Exists(..)
        | Formula::Iff(..)
        | Formula::True
        | Formula::False => Ok(hf.into_owned()),
        Formula::Pred(p, _, _)
            if matches!(env.preds.get(p.as_str()), Some(PredDef::Inductive(_))) =>
        {
            Ok(hf.into_owned())
        }
        _ => Err(ReasonCode::NotInductive.because(format!("hypothesis {h} cannot be destructed"))),
    }
}

/// `destruct H` on a hypothesis.
fn destruct_hyp(
    env: &Env,
    goal: &Goal,
    h: &str,
    pattern: Option<&DestructPattern>,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let hf = destruct_hyp_prefix(env, goal, h)?;
    let pos = goal
        .hyps
        .iter()
        .position(|(n, _)| n == h)
        .expect("hypothesis exists");
    match hf {
        Formula::And(a, b) => {
            let mut g = goal.clone();
            g.hyps.remove(pos);
            let names = pattern_names(pattern, 0);
            let n1 = names.first().cloned().unwrap_or_else(|| g.fresh("H"));
            g.hyps.insert(pos, (n1, (*a).clone()));
            let n2 = names.get(1).cloned().unwrap_or_else(|| g.fresh("H"));
            g.hyps.insert(pos + 1, (n2, (*b).clone()));
            Ok(vec![g])
        }
        Formula::Or(a, b) => {
            let mut g1 = goal.clone();
            let n1 = pattern_names(pattern, 0)
                .first()
                .cloned()
                .unwrap_or_else(|| Ident::from(h));
            g1.hyps[pos] = (n1, (*a).clone());
            let mut g2 = goal.clone();
            let n2 = pattern_names(pattern, 1)
                .first()
                .cloned()
                .unwrap_or_else(|| Ident::from(h));
            g2.hyps[pos] = (n2, (*b).clone());
            Ok(vec![g1, g2])
        }
        Formula::Exists(v, s, body) => {
            let mut g = goal.clone();
            let names = pattern_names(pattern, 0);
            let vname = names.first().cloned().unwrap_or_else(|| g.fresh(&v));
            let vname = unused_name(&g.names_in_scope(), &vname)?;
            g.vars.push((vname.clone(), s));
            let hname = names.get(1).cloned().unwrap_or_else(|| Ident::from(h));
            g.hyps[pos] = (hname, subst_formula1(&body, &v, &Term::var(vname)));
            Ok(vec![g])
        }
        Formula::Iff(a, b) => {
            let mut g = goal.clone();
            g.hyps.remove(pos);
            let names = pattern_names(pattern, 0);
            let n1 = names.first().cloned().unwrap_or_else(|| g.fresh("H"));
            g.hyps
                .insert(pos, (n1, Formula::implies((*a).clone(), (*b).clone())));
            let n2 = names.get(1).cloned().unwrap_or_else(|| g.fresh("H"));
            g.hyps
                .insert(pos + 1, (n2, Formula::implies((*b).clone(), (*a).clone())));
            Ok(vec![g])
        }
        Formula::True => {
            let mut g = goal.clone();
            g.hyps.remove(pos);
            Ok(vec![g])
        }
        Formula::False => Ok(vec![]),
        // Case analysis on an inductive-predicate hypothesis is routed
        // through inversion (a mild strengthening of Coq's destruct).
        Formula::Pred(..) => inversion(env, goal, h, fuel),
        _ => unreachable!("destruct_hyp_prefix checked the shape"),
    }
}

/// The fuel-free prefix of case analysis on the variable `x` of `sort`: an
/// inductive datatype sort.
pub(crate) fn inductive_sort_prefix(
    env: &Env,
    x: &str,
    sort: &Sort,
) -> Result<(), PreflightRejection> {
    match env.sort_inductive(sort) {
        Some(_) => Ok(()),
        None => {
            Err(ReasonCode::NotInductive
                .because(format!("{x} is not of an inductive datatype sort")))
        }
    }
}

/// One case of a split on a value of an inductive sort.
struct Case {
    /// The constructor's arguments, as new context variables.
    args: Vec<(Ident, Sort)>,
    /// The constructor applied to them.
    term: Term,
    /// The names to avoid from here on: the caller's and the arguments.
    avoid: BTreeSet<Ident>,
}

/// The cases of a split on a value of `sort`, one per constructor, or
/// `None` when `sort` is not an inductive datatype. An argument takes its
/// name from the pattern's case, else a name fresh against `avoid` and the
/// earlier arguments, based on `rec` for an argument of `sort` itself (when
/// given) and on its own sort otherwise.
fn ctor_cases(
    env: &Env,
    sort: &Sort,
    pattern: Option<&DestructPattern>,
    avoid: &BTreeSet<Ident>,
    rec: Option<&str>,
) -> Option<Vec<Case>> {
    let (ind, _) = env.sort_inductive(sort)?;
    let cases = ind.ctors.iter().enumerate().map(|(ci, ctor)| {
        let arg_sorts = env
            .ctor_arg_sorts(&ctor.name, sort)
            .expect("constructor of the matched inductive");
        let names = pattern_names(pattern, ci);
        let mut avoid = avoid.clone();
        let mut args = Vec::new();
        for (ai, asort) in arg_sorts.into_iter().enumerate() {
            let base = match rec {
                Some(r) if asort == *sort => r,
                _ => base_name_for(&asort),
            };
            let name = names
                .get(ai)
                .cloned()
                .unwrap_or_else(|| fresh_name(base, &avoid));
            avoid.insert(name.clone());
            args.push((name, asort));
        }
        let term = Term::App(
            ctor.name.clone(),
            args.iter().map(|(n, _)| Term::var(n.clone())).collect(),
        );
        Case { args, term, avoid }
    });
    Some(cases.collect())
}

/// The `eqn:` hypothesis of a case: the given name, or a fresh `Heq`.
fn eqn_name(e: &str, avoid: &BTreeSet<Ident>) -> Ident {
    if e.is_empty() {
        fresh_name("Heq", avoid)
    } else {
        e.into()
    }
}

/// `destruct x [eqn:E]` on a context variable: one goal per constructor.
fn destruct_var(
    env: &Env,
    goal: &Goal,
    x: &str,
    pattern: Option<&DestructPattern>,
    eqn: Option<&str>,
) -> Result<Vec<Goal>, TacticError> {
    let sort = goal.var_sort(x).cloned().expect("checked by caller");
    inductive_sort_prefix(env, x, &sort)?;
    let cases = ctor_cases(env, &sort, pattern, &goal.names_in_scope(), None);
    let cases = cases.expect("an inductive sort");
    let mut out = Vec::new();
    for Case { args, term, avoid } in cases {
        let mut g = goal.clone();
        if eqn.is_none() {
            g.remove_var(x);
        }
        g.vars.extend(args);
        // Full capture-avoiding substitution: the variable is being
        // replaced, so every occurrence (also under binders) is rewritten.
        for (_, f) in g.hyps.iter_mut() {
            *f = subst_formula1(f, x, &term);
        }
        g.concl = subst_formula1(&g.concl, x, &term).into();
        if let Some(e) = eqn {
            g.hyps.push((
                eqn_name(e, &avoid),
                Formula::Eq(sort.clone(), Term::var(x), term),
            ));
        }
        out.push(g);
    }
    Ok(out)
}

/// `destruct (f x) [eqn:E]` on an arbitrary term.
fn destruct_term(
    env: &Env,
    goal: &Goal,
    t: &Term,
    pattern: Option<&DestructPattern>,
    eqn: Option<&str>,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    if let Term::Var(v) = t {
        if goal.hyp(v).is_some() || goal.var_sort(v).is_some() {
            return destruct(
                env,
                goal,
                &DestructTarget::Name(v.clone()),
                pattern,
                eqn,
                fuel,
            );
        }
    }
    let mut uni = Unifier::new();
    let sort = infer_sort(env, goal, t, &mut uni)?;
    let sort = sort.subst_metas(&uni.sort_metas);
    if !sort.is_ground_or_var() {
        return Err(TacticError::rejected("cannot infer the sort of the term"));
    }
    let Some(cases) = ctor_cases(env, &sort, pattern, &goal.names_in_scope(), None) else {
        return Err(TacticError::rejected(
            "the term is not of an inductive datatype sort",
        ));
    };
    let mut out = Vec::new();
    for Case { args, term, avoid } in cases {
        let mut g = goal.clone();
        g.vars.extend(args);
        // Like Coq, only the goal is abstracted; hypotheses keep the
        // original term (use `rewrite E in H` to propagate).
        g.concl = replace_in_formula(&g.concl, t, &term).into();
        if let Some(e) = eqn {
            g.hyps.push((
                eqn_name(e, &avoid),
                Formula::Eq(sort.clone(), t.clone(), term),
            ));
        }
        out.push(g);
    }
    Ok(out)
}

/// `induction x [as pattern]`.
pub fn induction(
    env: &Env,
    goal: &Goal,
    x: &str,
    pattern: Option<&DestructPattern>,
) -> Result<Vec<Goal>, TacticError> {
    let goal = &intro_until_var(env, goal, x)?;
    let Some(sort) = goal.var_sort(x).cloned() else {
        return Err(TacticError::rejected(format!("{x} is not a variable")));
    };
    inductive_sort_prefix(env, x, &sort)?;

    // Revert hypotheses that mention x into the motive.
    let deps: Vec<(Ident, Formula)> = goal
        .hyps
        .iter()
        .filter(|(_, f)| f.mentions(x))
        .cloned()
        .collect();
    let mut motive = Formula::clone(&goal.concl);
    for (_, f) in deps.iter().rev() {
        motive = Formula::implies(f.clone(), motive);
    }
    let mut base = goal.clone();
    for (n, _) in &deps {
        base.remove_hyp(n);
    }
    base.remove_var(x);
    // `x` itself is cleared, so constructor arguments may reuse its name:
    // like Coq, recursive arguments are named after the inducted variable
    // (`induction l1` names the tail l1). The motive mentions `x`, so
    // names_in_scope would otherwise reserve it.
    let mut avoid = base.names_in_scope();
    motive.free_vars(&mut avoid);
    avoid.remove(x);
    let cases = ctor_cases(env, &sort, pattern, &avoid, Some(x)).expect("an inductive sort");

    let mut out = Vec::new();
    for (ci, case) in cases.into_iter().enumerate() {
        let mut avoid = case.avoid;
        let mut g = base.clone();
        // Induction hypotheses for recursive arguments.
        let names = pattern_names(pattern, ci);
        let recursive = || case.args.iter().filter(|(_, s)| *s == sort);
        let rec_count = recursive().count();
        for (ih_index, (arg, _)) in recursive().enumerate() {
            let default = if rec_count == 1 {
                format!("IH{x}")
            } else {
                format!("IH{x}{ih_index}")
            };
            let name = names
                .get(case.args.len() + ih_index)
                .cloned()
                .unwrap_or_else(|| fresh_name(&default, &avoid));
            avoid.insert(name.clone());
            let ih = subst_formula1(&motive, x, &Term::var(arg.clone()));
            g.hyps.push((name, ih));
        }
        g.vars.extend(case.args);
        g.concl = subst_formula1(&motive, x, &case.term).into();
        out.push(g);
    }
    Ok(out)
}

/// An inductive-predicate application: the predicate's definition and
/// the application's name, sort arguments and term arguments.
type IndApp<'e> = (&'e IndPred, Ident, Vec<Sort>, Vec<Term>);

/// The fuel-free prefix of `inversion H`: `H`, exposed, must apply an
/// inductive predicate.
pub(crate) fn inversion_prefix<'e>(
    env: &'e Env,
    goal: &Goal,
    h: &str,
) -> Result<IndApp<'e>, PreflightRejection> {
    let exposed = whnf_prop(env, hyp(goal, h)?);
    let Formula::Pred(p, sorts, args) = &*exposed else {
        return Err(ReasonCode::NotInductive
            .because("hypothesis is not an inductive predicate application"));
    };
    let Some(PredDef::Inductive(ip)) = env.preds.get(p.as_str()) else {
        return Err(ReasonCode::NotInductive.because(format!("{p} is not an inductive predicate")));
    };
    Ok((ip, p.clone(), sorts.clone(), args.clone()))
}

/// `inversion H` on an inductive-predicate hypothesis.
pub fn inversion(
    env: &Env,
    goal: &Goal,
    h: &str,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let (ip, p, sorts, args) = inversion_prefix(env, goal, h)?;
    let mut out = Vec::new();
    for (rn, _) in &ip.rules {
        let rule = env.rule_or_lemma(rn).expect("registered rule").rule();
        let (inst, mut uni) = (rule.plain().instance(), rule.plain().unifier().clone());
        let Formula::Pred(cp, csorts, cargs) = &inst.conclusion else {
            continue;
        };
        if *cp != p || csorts.len() != sorts.len() || cargs.len() != args.len() {
            continue;
        }
        let mut ok = true;
        for (a, b) in csorts.iter().zip(&sorts) {
            if uni.unify_sorts(a, b).is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        // Simplify the equations between rule conclusion args and the
        // hypothesis args.
        let mut work: Vec<(Term, Term)> = cargs.iter().cloned().zip(args.iter().cloned()).collect();
        let mut residual: Vec<(Term, Term)> = Vec::new();
        let mut possible = true;
        let mut iterations = 0;
        while let Some((l, r)) = work.pop() {
            iterations += 1;
            if iterations > 10_000 || fuel.tick().is_err() {
                return Err(TacticError::Timeout);
            }
            let l = uni.resolve_term(&l);
            let r = uni.resolve_term(&r);
            if l == r {
                continue;
            }
            match (&l, &r) {
                (Term::Meta(_), _) | (_, Term::Meta(_)) => {
                    if uni.unify_terms(&l, &r, fuel).is_err() {
                        possible = false;
                        break;
                    }
                    // Re-examine residuals under the new solution.
                    work.append(&mut residual);
                }
                _ => {
                    let lh = ctor_head(env, &l);
                    let rh = ctor_head(env, &r);
                    match (lh, rh) {
                        (Some(a), Some(b)) if a == b => {
                            let (Term::App(_, la), Term::App(_, ra)) = (&l, &r) else {
                                unreachable!("ctor_head implies App");
                            };
                            work.extend(la.iter().cloned().zip(ra.iter().cloned()));
                        }
                        (Some(_), Some(_)) => {
                            possible = false;
                            break;
                        }
                        _ => residual.push((l, r)),
                    }
                }
            }
        }
        if !possible {
            continue;
        }
        // Build the case goal.
        let mut g = goal.clone();
        let mut avoid = g.names_in_scope();
        // Introduce leftover rule variables as fresh context variables.
        for (mid, base, msort) in &inst.metas {
            if uni.term_metas.contains_key(mid) {
                continue;
            }
            let name = fresh_name(base, &avoid);
            avoid.insert(name.clone());
            let s = msort.subst_metas(&uni.sort_metas);
            if !s.is_ground_or_var() {
                possible = false;
                break;
            }
            g.vars.push((name.clone(), s));
            uni.term_metas.insert(*mid, Term::var(name));
        }
        if !possible {
            continue;
        }
        // Premises of the rule become hypotheses.
        for prem in &inst.premises {
            let f = uni.resolve_formula(prem);
            if !f.is_ground() {
                possible = false;
                break;
            }
            let name = fresh_name("H", &avoid);
            avoid.insert(name.clone());
            g.hyps.push((name, f));
        }
        if !possible {
            continue;
        }
        // Residual equations: substitute variable equations away (as Coq's
        // inversion does), keep the rest as hypotheses.
        for (l, r) in &residual {
            let l = uni.resolve_term(l);
            let r = uni.resolve_term(r);
            if l == r {
                continue;
            }
            if let Some((v, t)) = var_equation(&g, &l, &r) {
                subst_var(&mut g, &v, &t);
                continue;
            }
            let mut u2 = Unifier::new();
            let s =
                infer_sort(env, &g, &l, &mut u2).or_else(|_| infer_sort(env, &g, &r, &mut u2))?;
            let s = s.subst_metas(&u2.sort_metas);
            let name = fresh_name("Heq", &avoid);
            avoid.insert(name.clone());
            g.hyps.push((name, Formula::Eq(s, l, r)));
        }
        out.push(g);
    }
    Ok(out)
}

/// The fuel-free prefix of `injection H`: `H`, exposed, must be an
/// equation; its sort and sides.
pub(crate) fn injection_prefix(
    env: &Env,
    goal: &Goal,
    h: &str,
) -> Result<(Sort, Term, Term), PreflightRejection> {
    match &*whnf_prop(env, hyp(goal, h)?) {
        Formula::Eq(s, a, b) => Ok((s.clone(), a.clone(), b.clone())),
        _ => Err(ReasonCode::NonEquation.because("hypothesis is not an equality")),
    }
}

/// `injection H`.
pub fn injection(
    env: &Env,
    goal: &Goal,
    h: &str,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let (s, a, b) = injection_prefix(env, goal, h)?;
    let a = normalize_term(env, &a, EvalMode::simpl(), fuel)?;
    let b = normalize_term(env, &b, EvalMode::simpl(), fuel)?;
    let (Some(ha), Some(hb)) = (ctor_head(env, &a), ctor_head(env, &b)) else {
        return Err(TacticError::rejected(
            "both sides must be constructor applications",
        ));
    };
    if ha != hb {
        return Err(TacticError::rejected(
            "sides have different constructors (use discriminate)",
        ));
    }
    let arg_sorts = env
        .ctor_arg_sorts(ha, &s)
        .ok_or_else(|| TacticError::rejected("sort does not match the constructor"))?;
    let (Term::App(_, aargs), Term::App(_, bargs)) = (&a, &b) else {
        unreachable!("ctor_head implies App");
    };
    let mut g = goal.clone();
    let mut avoid = g.names_in_scope();
    let mut added = false;
    for ((x, y), asort) in aargs.iter().zip(bargs).zip(arg_sorts) {
        if x == y {
            continue;
        }
        let name = fresh_name("H", &avoid);
        avoid.insert(name.clone());
        g.hyps
            .push((name, Formula::Eq(asort, x.clone(), y.clone())));
        added = true;
    }
    if !added {
        return Err(TacticError::rejected("nothing to inject"));
    }
    Ok(vec![g])
}

/// Recursive constructor-clash check.
fn clashes(env: &Env, a: &Term, b: &Term) -> bool {
    match (ctor_head(env, a), ctor_head(env, b)) {
        (Some(x), Some(y)) if x != y => true,
        (Some(x), Some(y)) if x == y => {
            let (Term::App(_, aa), Term::App(_, ba)) = (a, b) else {
                return false;
            };
            aa.len() == ba.len() && aa.iter().zip(ba).any(|(u, v)| clashes(env, u, v))
        }
        _ => false,
    }
}

/// `discriminate [H]`.
pub fn discriminate(
    env: &Env,
    goal: &Goal,
    h: Option<&str>,
    fuel: &mut Fuel,
) -> Result<Vec<Goal>, TacticError> {
    let check = |f: &Formula, fuel: &mut Fuel| -> Result<bool, TacticError> {
        if let Formula::Eq(_, a, b) = &*whnf_prop(env, f) {
            let a = normalize_term(env, a, EvalMode::simpl(), fuel)?;
            let b = normalize_term(env, b, EvalMode::simpl(), fuel)?;
            return Ok(clashes(env, &a, &b));
        }
        Ok(false)
    };
    match h {
        Some(h) => {
            if check(hyp(goal, h)?, fuel)? {
                return Ok(vec![]);
            }
        }
        None => {
            let hyps: Vec<Formula> = goal.hyps.iter().map(|(_, f)| f.clone()).collect();
            for f in hyps {
                if check(&f, fuel)? {
                    return Ok(vec![]);
                }
            }
            // Goal of the shape `a <> b` with clashing sides.
            if let Formula::Not(inner) = &*whnf_prop(env, &goal.concl) {
                if let Formula::Eq(_, a, b) = &**inner {
                    let a = normalize_term(env, a, EvalMode::simpl(), fuel)?;
                    let b = normalize_term(env, b, EvalMode::simpl(), fuel)?;
                    if clashes(env, &a, &b) {
                        return Ok(vec![]);
                    }
                }
            }
        }
    }
    Err(TacticError::rejected("no discriminable equality"))
}

/// The variable an equation `a = b` can eliminate: a side (the left one
/// first) that is a context variable `v` not occurring in the other side
/// `t`, as `(v, t)`.
fn var_equation(g: &Goal, a: &Term, b: &Term) -> Option<(Ident, Term)> {
    match (a, b) {
        (Term::Var(v), t) | (t, Term::Var(v)) if g.var_sort(v).is_some() && !t.mentions(v) => {
            Some((v.clone(), t.clone()))
        }
        _ => None,
    }
}

/// Replaces the context variable `v` by `t` in every hypothesis and the
/// conclusion, and drops `v`.
fn subst_var(g: &mut Goal, v: &str, t: &Term) {
    for (_, f) in g.hyps.iter_mut() {
        *f = subst_formula1(f, v, t);
    }
    g.concl = subst_formula1(&g.concl, v, t).into();
    g.remove_var(v);
}

/// `subst`.
pub fn subst_tac(goal: &Goal, fuel: &mut Fuel) -> Result<Vec<Goal>, TacticError> {
    let mut g = goal.clone();
    loop {
        fuel.tick()?;
        let found = g.hyps.iter().find_map(|(hn, f)| match f {
            Formula::Eq(_, a, b) => Some((hn.clone(), var_equation(&g, a, b)?)),
            _ => None,
        });
        let Some((hn, (v, t))) = found else { break };
        g.remove_hyp(&hn);
        subst_var(&mut g, &v, &t);
    }
    Ok(vec![g])
}

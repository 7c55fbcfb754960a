//! Elaboration of surface expressions into kernel terms and formulas, with
//! sort inference.

use crate::env::Env;
use crate::formula::Formula;
use crate::goal::Goal;
use crate::sort::Sort;
use crate::term::{Pat, Term};
use crate::unify::Unifier;
use crate::Ident;

use super::ast::{Binder, CmpOp, Expr, PatAst, SortExpr};
use super::lex::ParseError;

/// Lexical scope for elaboration.
#[derive(Debug, Clone, Default)]
pub struct ElabCtx {
    /// In-scope sort variables.
    pub sort_vars: Vec<Ident>,
    /// In-scope term binders, innermost last.
    pub term_vars: Vec<(Ident, Sort)>,
}

impl ElabCtx {
    /// A context seeded from a goal's variables and sort variables.
    pub fn from_goal(goal: &Goal) -> ElabCtx {
        ElabCtx {
            sort_vars: goal.sort_vars.clone(),
            term_vars: goal.vars.clone(),
        }
    }

    fn lookup(&self, name: &str) -> Option<&Sort> {
        self.term_vars
            .iter()
            .rev()
            .find(|(v, _)| v == name)
            .map(|(_, s)| s)
    }
}

/// An extra callable signature, used while elaborating the body of the very
/// definition that introduces it (`Fixpoint` self-reference).
#[derive(Debug, Clone)]
pub struct ExtraFunc {
    /// Function name.
    pub name: Ident,
    /// Sort parameters.
    pub sort_params: Vec<Ident>,
    /// Argument sorts.
    pub args: Vec<Sort>,
    /// Result sort.
    pub ret: Sort,
}

/// An extra predicate signature (recursive predicate self-reference).
#[derive(Debug, Clone)]
pub struct ExtraPred {
    /// Predicate name.
    pub name: Ident,
    /// Sort parameters.
    pub sort_params: Vec<Ident>,
    /// Argument sorts.
    pub args: Vec<Sort>,
}

/// The elaborator: carries the environment, the sort unifier and
/// self-reference signatures.
pub struct Elaborator<'e> {
    env: &'e Env,
    /// The sort unifier (exposed so callers can add constraints).
    pub uni: Unifier,
    /// Extra function signatures visible during elaboration.
    pub extra_funcs: Vec<ExtraFunc>,
    /// Extra predicate signatures visible during elaboration.
    pub extra_preds: Vec<ExtraPred>,
    fresh_binder: u32,
}

impl<'e> Elaborator<'e> {
    /// Creates an elaborator over `env`.
    pub fn new(env: &'e Env) -> Elaborator<'e> {
        Elaborator {
            env,
            uni: Unifier::new(),
            extra_funcs: Vec::new(),
            extra_preds: Vec::new(),
            fresh_binder: 0,
        }
    }

    /// Elaborates a sort expression.
    pub fn elab_sort(&self, ctx: &ElabCtx, s: &SortExpr) -> Result<Sort, ParseError> {
        let args: Vec<Sort> = s
            .args
            .iter()
            .map(|a| self.elab_sort(ctx, a))
            .collect::<Result<_, _>>()?;
        if ctx.sort_vars.contains(&s.head) {
            if !args.is_empty() {
                return Err(ParseError(format!(
                    "sort variable {} cannot be applied",
                    s.head
                )));
            }
            return Ok(Sort::Var(s.head.clone()));
        }
        if let Some(&arity) = self.env.sort_ctors.get(&s.head) {
            if args.len() != arity {
                return Err(ParseError(format!(
                    "sort constructor {} expects {arity} arguments",
                    s.head
                )));
            }
            return Ok(Sort::App(s.head.clone(), args));
        }
        if self.env.has_sort(&s.head) {
            if !args.is_empty() {
                return Err(ParseError(format!("sort {} is not applicable", s.head)));
            }
            return Ok(Sort::Atom(s.head.clone()));
        }
        Err(ParseError(format!("unknown sort {}", s.head)))
    }

    fn func_sig(&self, name: &str) -> Option<(Vec<Ident>, Vec<Sort>, Sort)> {
        if let Some(def) = self.env.funcs.get(name) {
            return Some((
                def.sort_params.clone(),
                def.params.iter().map(|(_, s)| s.clone()).collect(),
                def.ret.clone(),
            ));
        }
        self.extra_funcs
            .iter()
            .find(|f| f.name == name)
            .map(|f| (f.sort_params.clone(), f.args.clone(), f.ret.clone()))
    }

    /// Looks up a predicate signature. The boolean is true when the
    /// predicate is a self-reference to the declaration being elaborated,
    /// in which case its sort parameters are rigid formals rather than
    /// implicit arguments to infer.
    fn pred_sig(&self, name: &str) -> Option<(Vec<Ident>, Vec<Sort>, bool)> {
        if let Some(p) = self.env.preds.get(name) {
            return Some(match p {
                crate::env::PredDef::Defined(d) => (
                    d.sort_params.clone(),
                    d.params.iter().map(|(_, s)| s.clone()).collect(),
                    false,
                ),
                crate::env::PredDef::Inductive(i) => {
                    (i.sort_params.clone(), i.arg_sorts.clone(), false)
                }
            });
        }
        self.extra_preds
            .iter()
            .find(|p| p.name == name)
            .map(|p| (p.sort_params.clone(), p.args.clone(), true))
    }

    /// Instantiates a predicate's sort parameters: fresh metavariables for
    /// ordinary references, the rigid formals for self-references.
    fn instantiate_pred_params(
        &mut self,
        params: &[Ident],
        is_self: bool,
    ) -> crate::subst::SortSubst {
        if is_self {
            params
                .iter()
                .map(|p| (p.clone(), Sort::Var(p.clone())))
                .collect()
        } else {
            self.instantiate_params(params)
        }
    }

    fn instantiate_params(&mut self, params: &[Ident]) -> crate::subst::SortSubst {
        params
            .iter()
            .map(|p| (p.clone(), self.uni.fresh_sort_meta()))
            .collect()
    }

    fn unify_expect(&mut self, got: &Sort, want: &Sort, what: &str) -> Result<(), ParseError> {
        self.uni.unify_sorts(got, want).map_err(|_| {
            let got = got.subst_metas(&self.uni.sort_metas);
            let want = want.subst_metas(&self.uni.sort_metas);
            ParseError(format!(
                "sort mismatch at {what}: got {got}, expected {want}"
            ))
        })
    }

    /// Elaborates a term expression against an expected sort.
    pub fn elab_term(
        &mut self,
        ctx: &ElabCtx,
        e: &Expr,
        expected: &Sort,
    ) -> Result<Term, ParseError> {
        match e {
            Expr::Id(x) => {
                if let Some(s) = ctx.lookup(x).cloned() {
                    self.unify_expect(&s, expected, x)?;
                    return Ok(Term::var(x.clone()));
                }
                self.elab_app(ctx, x, &[], expected)
            }
            Expr::Num(n) => {
                self.unify_expect(&Sort::nat(), expected, "numeral")?;
                Ok(Term::nat(*n))
            }
            Expr::App(f, args) => {
                if ctx.lookup(f).is_some() {
                    return Err(ParseError(format!(
                        "variable {f} cannot be applied (first-order logic)"
                    )));
                }
                self.elab_app(ctx, f, args, expected)
            }
            Expr::ListLit(items) => {
                let elem = self.uni.fresh_sort_meta();
                self.unify_expect(&Sort::list(elem.clone()), expected, "list literal")?;
                let mut t = Term::cst("nil");
                for item in items.iter().rev() {
                    let it = self.elab_term(ctx, item, &elem)?;
                    t = Term::App("cons".into(), vec![it, t]);
                }
                Ok(t)
            }
            Expr::Cons(a, b) => {
                let elem = self.uni.fresh_sort_meta();
                self.unify_expect(&Sort::list(elem.clone()), expected, "::")?;
                let ta = self.elab_term(ctx, a, &elem)?;
                let tb = self.elab_term(ctx, b, &Sort::list(elem))?;
                Ok(Term::App("cons".into(), vec![ta, tb]))
            }
            Expr::Match(scrut, arms) => {
                let (tscrut, arms) = self.elab_match_common(ctx, scrut, arms)?;
                let mut out = Vec::new();
                for (pat, inner_ctx, body) in arms {
                    let tb = self.elab_term(&inner_ctx, &body, expected)?;
                    out.push((pat, tb));
                }
                Ok(Term::Match(Box::new(tscrut), out))
            }
            Expr::Ascribe(inner, sexpr) => {
                let s = self.elab_sort(ctx, sexpr)?;
                self.unify_expect(&s, expected, "type ascription")?;
                self.elab_term(ctx, inner, &s)
            }
            _ => Err(ParseError("expected a term, found a proposition".into())),
        }
    }

    fn elab_app(
        &mut self,
        ctx: &ElabCtx,
        f: &str,
        args: &[Expr],
        expected: &Sort,
    ) -> Result<Term, ParseError> {
        // Constructor?
        if let Some(info) = self.env.ctors.get(f) {
            let ind = self.env.inductives.get(&info.ind).expect("registered");
            let map = self.instantiate_params(&ind.params.clone());
            let ctor = &ind.ctors[info.index].clone();
            if ctor.args.len() != args.len() {
                return Err(ParseError(format!(
                    "constructor {f} expects {} arguments, got {}",
                    ctor.args.len(),
                    args.len()
                )));
            }
            let ret = ind.self_sort().subst_vars(&map);
            self.unify_expect(&ret, expected, f)?;
            let want_sorts: Vec<Sort> = ctor.args.iter().map(|s| s.subst_vars(&map)).collect();
            let mut targs = Vec::new();
            for (a, want) in args.iter().zip(&want_sorts) {
                targs.push(self.elab_term(ctx, a, want)?);
            }
            return Ok(Term::App(f.to_string(), targs));
        }
        // Function?
        if let Some((sort_params, want_args, ret)) = self.func_sig(f) {
            let map = self.instantiate_params(&sort_params);
            if want_args.len() != args.len() {
                return Err(ParseError(format!(
                    "function {f} expects {} arguments, got {}",
                    want_args.len(),
                    args.len()
                )));
            }
            let ret = ret.subst_vars(&map);
            self.unify_expect(&ret, expected, f)?;
            let mut targs = Vec::new();
            for (a, want) in args.iter().zip(&want_args) {
                let want = want.subst_vars(&map);
                targs.push(self.elab_term(ctx, a, &want)?);
            }
            return Ok(Term::App(f.to_string(), targs));
        }
        Err(ParseError(format!("unknown term symbol {f}")))
    }

    /// Shared scrutinee/pattern handling for term- and formula-level match.
    #[allow(clippy::type_complexity)]
    fn elab_match_common(
        &mut self,
        ctx: &ElabCtx,
        scrut: &Expr,
        arms: &[(PatAst, Expr)],
    ) -> Result<(Term, Vec<(Pat, ElabCtx, Expr)>), ParseError> {
        let smeta = self.uni.fresh_sort_meta();
        let tscrut = self.elab_term(ctx, scrut, &smeta)?;
        let ssort = smeta.subst_metas(&self.uni.sort_metas);
        if matches!(ssort, Sort::Meta(_)) {
            return Err(ParseError(
                "cannot infer the sort of the match scrutinee".into(),
            ));
        }
        let mut out = Vec::new();
        for (pat, body) in arms {
            let (kpat, binders) = self.elab_pattern(pat, &ssort)?;
            let mut inner = ctx.clone();
            inner.term_vars.extend(binders);
            out.push((kpat, inner, body.clone()));
        }
        Ok((tscrut, out))
    }

    fn fresh_wild(&mut self) -> Ident {
        self.fresh_binder += 1;
        format!("_w{}", self.fresh_binder)
    }

    fn elab_pattern(
        &mut self,
        pat: &PatAst,
        scrut_sort: &Sort,
    ) -> Result<(Pat, Vec<(Ident, Sort)>), ParseError> {
        let resolve_ctor = |this: &Self, name: &str| -> Result<Vec<Sort>, ParseError> {
            this.env.ctor_arg_sorts(name, scrut_sort).ok_or_else(|| {
                ParseError(format!(
                    "constructor {name} does not build a value of sort {scrut_sort}"
                ))
            })
        };
        match pat {
            PatAst::Wild => Ok((Pat::Wild, Vec::new())),
            PatAst::Nil => {
                resolve_ctor(self, "nil")?;
                Ok((Pat::Ctor("nil".into(), vec![]), Vec::new()))
            }
            PatAst::Num(0) => {
                resolve_ctor(self, "O")?;
                Ok((Pat::Ctor("O".into(), vec![]), Vec::new()))
            }
            PatAst::Num(_) => Err(ParseError("only 0 is allowed as a numeral pattern".into())),
            PatAst::Cons(h, t) => {
                let sorts = resolve_ctor(self, "cons")?;
                let mut binders = Vec::new();
                let mut names = Vec::new();
                for (n, s) in [h, t].into_iter().zip(sorts) {
                    let n = if n == "_" {
                        self.fresh_wild()
                    } else {
                        n.clone()
                    };
                    names.push(n.clone());
                    binders.push((n, s));
                }
                Ok((Pat::Ctor("cons".into(), names), binders))
            }
            PatAst::Apply(h, args) => {
                if self.env.ctors.contains_key(h) {
                    let sorts = resolve_ctor(self, h)?;
                    if sorts.len() != args.len() {
                        return Err(ParseError(format!(
                            "constructor {h} expects {} pattern arguments",
                            sorts.len()
                        )));
                    }
                    let mut binders = Vec::new();
                    let mut names = Vec::new();
                    for (n, s) in args.iter().zip(sorts) {
                        let n = if n == "_" {
                            self.fresh_wild()
                        } else {
                            n.clone()
                        };
                        names.push(n.clone());
                        binders.push((n, s));
                    }
                    Ok((Pat::Ctor(h.clone(), names), binders))
                } else if args.is_empty() {
                    let n = h.clone();
                    Ok((Pat::Var(n.clone()), vec![(n, scrut_sort.clone())]))
                } else {
                    Err(ParseError(format!("unknown constructor {h}")))
                }
            }
        }
    }

    /// Elaborates a formula expression.
    pub fn elab_formula(&mut self, ctx: &ElabCtx, e: &Expr) -> Result<Formula, ParseError> {
        match e {
            Expr::Id(x) if x == "True" => Ok(Formula::True),
            Expr::Id(x) if x == "False" => Ok(Formula::False),
            Expr::Id(x) => {
                if let Some((sort_params, want_args, is_self)) = self.pred_sig(x) {
                    if !want_args.is_empty() {
                        return Err(ParseError(format!(
                            "predicate {x} expects {} arguments",
                            want_args.len()
                        )));
                    }
                    let map = self.instantiate_pred_params(&sort_params, is_self);
                    let sorts = sort_params.iter().map(|p| map[p].clone()).collect();
                    return Ok(Formula::Pred(x.clone(), sorts, vec![]));
                }
                Err(ParseError(format!("expected a proposition, found {x}")))
            }
            Expr::App(p, args) => {
                let Some((sort_params, want_args, is_self)) = self.pred_sig(p) else {
                    return Err(ParseError(format!("unknown predicate {p}")));
                };
                if want_args.len() != args.len() {
                    return Err(ParseError(format!(
                        "predicate {p} expects {} arguments, got {}",
                        want_args.len(),
                        args.len()
                    )));
                }
                let map = self.instantiate_pred_params(&sort_params, is_self);
                let mut targs = Vec::new();
                for (a, want) in args.iter().zip(&want_args) {
                    let want = want.subst_vars(&map);
                    targs.push(self.elab_term(ctx, a, &want)?);
                }
                let sorts = sort_params.iter().map(|q| map[q].clone()).collect();
                Ok(Formula::Pred(p.clone(), sorts, targs))
            }
            Expr::Cmp(op, a, b) => match op {
                CmpOp::Eq | CmpOp::Ne => {
                    let s = self.uni.fresh_sort_meta();
                    let ta = self.elab_term(ctx, a, &s)?;
                    let tb = self.elab_term(ctx, b, &s)?;
                    let eq = Formula::Eq(s, ta, tb);
                    Ok(if matches!(op, CmpOp::Ne) {
                        Formula::Not(Box::new(eq))
                    } else {
                        eq
                    })
                }
                CmpOp::Le | CmpOp::Lt | CmpOp::Ge | CmpOp::Gt => {
                    let ta = self.elab_term(ctx, a, &Sort::nat())?;
                    let tb = self.elab_term(ctx, b, &Sort::nat())?;
                    let name = match op {
                        CmpOp::Le => "le",
                        CmpOp::Lt => "lt",
                        CmpOp::Ge => "ge",
                        CmpOp::Gt => "gt",
                        _ => unreachable!(),
                    };
                    Ok(Formula::Pred(name.into(), vec![], vec![ta, tb]))
                }
            },
            Expr::Not(inner) => Ok(Formula::Not(Box::new(self.elab_formula(ctx, inner)?))),
            Expr::And(a, b) => Ok(Formula::and(
                self.elab_formula(ctx, a)?,
                self.elab_formula(ctx, b)?,
            )),
            Expr::Or(a, b) => Ok(Formula::or(
                self.elab_formula(ctx, a)?,
                self.elab_formula(ctx, b)?,
            )),
            Expr::Implies(a, b) => Ok(Formula::implies(
                self.elab_formula(ctx, a)?,
                self.elab_formula(ctx, b)?,
            )),
            Expr::Iff(a, b) => Ok(Formula::Iff(
                Box::new(self.elab_formula(ctx, a)?),
                Box::new(self.elab_formula(ctx, b)?),
            )),
            Expr::Forall(binders, body) => self.elab_quant(ctx, binders, body, true),
            Expr::Exists(binders, body) => self.elab_quant(ctx, binders, body, false),
            Expr::Match(scrut, arms) => {
                let (tscrut, arms) = self.elab_match_common(ctx, scrut, arms)?;
                let mut out = Vec::new();
                for (pat, inner_ctx, body) in arms {
                    let fb = self.elab_formula(&inner_ctx, &body)?;
                    out.push((pat, fb));
                }
                Ok(Formula::FMatch(Box::new(tscrut), out))
            }
            _ => Err(ParseError("expected a proposition, found a term".into())),
        }
    }

    fn elab_quant(
        &mut self,
        ctx: &ElabCtx,
        binders: &[Binder],
        body: &Expr,
        universal: bool,
    ) -> Result<Formula, ParseError> {
        let mut inner = ctx.clone();
        // Collected binder list in order, to wrap the body afterwards.
        enum B {
            SortB(Ident),
            TermB(Ident, Sort),
        }
        let mut flat = Vec::new();
        for b in binders {
            match b {
                Binder::Sort(names) => {
                    if !universal {
                        return Err(ParseError(
                            "existential sort quantification is not supported".into(),
                        ));
                    }
                    for n in names {
                        inner.sort_vars.push(n.clone());
                        flat.push(B::SortB(n.clone()));
                    }
                }
                Binder::Term(names, sexpr) => {
                    let s = self.elab_sort(&inner, sexpr)?;
                    for n in names {
                        inner.term_vars.push((n.clone(), s.clone()));
                        flat.push(B::TermB(n.clone(), s.clone()));
                    }
                }
            }
        }
        let mut f = self.elab_formula(&inner, body)?;
        for b in flat.into_iter().rev() {
            f = match b {
                B::SortB(n) => Formula::ForallSort(n, Box::new(f)),
                B::TermB(n, s) => {
                    if universal {
                        Formula::Forall(n, s, Box::new(f))
                    } else {
                        Formula::Exists(n, s, Box::new(f))
                    }
                }
            };
        }
        Ok(f)
    }

    /// Applies accumulated sort solutions and checks that no sort
    /// metavariables remain.
    pub fn finish_formula(&self, f: &Formula) -> Result<Formula, ParseError> {
        let zonked = crate::subst::zonk_formula(f, &Default::default(), &self.uni.sort_metas);
        if !zonked.is_ground() {
            return Err(ParseError(
                "could not infer all sorts; add annotations".into(),
            ));
        }
        Ok(zonked)
    }
}

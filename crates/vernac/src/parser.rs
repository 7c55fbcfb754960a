//! Parsing and elaboration of declarations into kernel objects.

use minicoq::env::{Ctor, DefinedPred, Env, FuncDef, IndPred, Inductive, PredDef};
use minicoq::formula::Formula;
use minicoq::parse::ast::{parse_expr, parse_sort_expr};
use minicoq::parse::elab::{ElabCtx, Elaborator, ExtraFunc, ExtraPred};
use minicoq::parse::{lex, Cursor, ParseError, Tok};
use minicoq::sort::Sort;
use minicoq::term::Term;
use minicoq::walk::Node;

use crate::item::{Item, ItemKind};

/// A fully elaborated declaration, ready to be added to an [`Env`].
#[derive(Debug, Clone)]
pub enum Decl {
    /// An import edge (resolved by the loader).
    Import(String),
    /// An opaque sort.
    SortDecl(String),
    /// A group of (possibly mutual) inductive datatypes.
    Datatypes(Vec<Inductive>),
    /// A group of (possibly mutual) inductive predicates.
    IndPredDecl(Vec<IndPred>),
    /// A function definition.
    Func(FuncDef),
    /// A defined predicate.
    Pred(DefinedPred),
    /// A lemma statement (proof is replayed by the loader).
    LemmaStmt {
        /// Lemma name.
        name: String,
        /// Closed statement.
        stmt: Formula,
    },
    /// An axiom: a statement assumed into the environment without proof.
    AxiomStmt {
        /// Axiom name.
        name: String,
        /// Closed statement.
        stmt: Formula,
    },
    /// `Hint Resolve` names.
    HintResolve(Vec<String>),
    /// `Hint Constructors` predicate names.
    HintConstructors(Vec<String>),
}

/// Parses and elaborates one grouped item against the current environment.
pub fn parse_item(env: &Env, item: &Item) -> Result<Decl, ParseError> {
    match item.kind {
        ItemKind::Import => Ok(Decl::Import(item.name.clone())),
        ItemKind::SortDecl => Ok(Decl::SortDecl(item.name.clone())),
        ItemKind::Hint => parse_hint(&item.text),
        ItemKind::Inductive => parse_inductive(env, &item.text),
        ItemKind::Definition | ItemKind::Fixpoint => {
            parse_def(env, &item.text, item.kind == ItemKind::Fixpoint)
        }
        ItemKind::Lemma => parse_lemma(env, &item.text),
        ItemKind::Axiom => parse_axiom(env, &item.text),
    }
}

fn parse_axiom(env: &Env, text: &str) -> Result<Decl, ParseError> {
    let mut cur = Cursor::new(lex(text)?);
    cur.expect_kw("Axiom")?;
    let name = cur.expect_ident()?;
    cur.expect_sym(":")?;
    let e = parse_expr(&mut cur)?;
    if !cur.at_end() {
        return Err(ParseError(format!(
            "trailing tokens in axiom {name}: {:?}",
            cur.remainder()
        )));
    }
    let mut el = Elaborator::new(env);
    let f = el.elab_formula(&ElabCtx::default(), &e)?;
    let stmt = el.finish_formula(&f)?;
    Ok(Decl::AxiomStmt { name, stmt })
}

fn parse_hint(text: &str) -> Result<Decl, ParseError> {
    let mut cur = Cursor::new(lex(text)?);
    cur.expect_kw("Hint")?;
    let kind = cur.expect_ident()?;
    let mut names = Vec::new();
    while let Some(Tok::Ident(_)) = cur.peek() {
        names.push(cur.expect_ident()?);
    }
    // Optional `: db` suffix; only the core database is supported.
    if cur.eat_sym(":") {
        let _db = cur.expect_ident()?;
    }
    match kind.as_str() {
        "Resolve" => Ok(Decl::HintResolve(names)),
        "Constructors" => Ok(Decl::HintConstructors(names)),
        other => Err(ParseError(format!("unsupported hint kind {other}"))),
    }
}

fn parse_lemma(env: &Env, text: &str) -> Result<Decl, ParseError> {
    let mut cur = Cursor::new(lex(text)?);
    let kw = cur.expect_ident()?;
    if !matches!(kw.as_str(), "Lemma" | "Theorem" | "Corollary" | "Remark") {
        return Err(ParseError(format!("expected a lemma keyword, got {kw}")));
    }
    let name = cur.expect_ident()?;
    cur.expect_sym(":")?;
    let e = parse_expr(&mut cur)?;
    if !cur.at_end() {
        return Err(ParseError(format!(
            "trailing tokens in lemma {name}: {:?}",
            cur.remainder()
        )));
    }
    let mut el = Elaborator::new(env);
    let f = el.elab_formula(&ElabCtx::default(), &e)?;
    let stmt = el.finish_formula(&f)?;
    Ok(Decl::LemmaStmt { name, stmt })
}

/// Parses `(A : Sort)` and `(x y : sort)` parameter groups. Sort parameters
/// must precede term parameters.
struct Params {
    sort_params: Vec<String>,
    term_params: Vec<(String, Sort)>,
}

fn parse_params(
    env: &Env,
    cur: &mut Cursor,
    sort_scope: &mut Vec<String>,
) -> Result<Params, ParseError> {
    let mut sort_params = Vec::new();
    let mut term_params: Vec<(String, Sort)> = Vec::new();
    let el = Elaborator::new(env);
    while cur.at_sym("(") {
        cur.expect_sym("(")?;
        let mut names = Vec::new();
        while let Some(Tok::Ident(_)) = cur.peek() {
            names.push(cur.expect_ident()?);
        }
        cur.expect_sym(":")?;
        if cur.at_kw("Sort") {
            cur.next();
            if !term_params.is_empty() {
                return Err(ParseError(
                    "sort parameters must precede term parameters".into(),
                ));
            }
            for n in names {
                sort_scope.push(n.clone());
                sort_params.push(n);
            }
        } else {
            let sexpr = parse_sort_expr(cur)?;
            let ctx = ElabCtx {
                sort_vars: sort_scope.clone(),
                term_vars: vec![],
            };
            let s = el.elab_sort(&ctx, &sexpr)?;
            for n in names {
                term_params.push((n, s.clone()));
            }
        }
        cur.expect_sym(")")?;
    }
    Ok(Params {
        sort_params,
        term_params,
    })
}

fn parse_inductive(env: &Env, text: &str) -> Result<Decl, ParseError> {
    let mut cur = Cursor::new(lex(text)?);
    cur.expect_kw("Inductive")?;
    // Look ahead: after name and parameters, `:` means predicate, `:=`
    // means datatype.
    let name = cur.expect_ident()?;
    let mut sort_scope = Vec::new();
    let params = parse_params(env, &mut cur, &mut sort_scope)?;
    if cur.at_sym(":") && !cur.at_sym(":=") {
        if !params.term_params.is_empty() {
            return Err(ParseError(
                "inductive predicates take their arguments in the signature".into(),
            ));
        }
        return parse_ind_pred(env, name, params.sort_params, &mut cur);
    }
    parse_datatypes(env, name, params, &mut cur, text)
}

fn parse_ind_pred(
    env: &Env,
    name: String,
    sort_params: Vec<String>,
    cur: &mut Cursor,
) -> Result<Decl, ParseError> {
    // Parse the (possibly `with`-chained) group: signatures and raw rule
    // expressions first, so rules of each member may reference the others.
    struct RawPred {
        name: String,
        sort_params: Vec<String>,
        arg_sorts: Vec<Sort>,
        rules: Vec<(String, minicoq::parse::ast::Expr)>,
    }
    let mut raws: Vec<RawPred> = Vec::new();
    let mut name = name;
    let mut sort_params = sort_params;
    loop {
        cur.expect_sym(":")?;
        // Signature: s1 -> s2 -> ... -> Prop.
        let el = Elaborator::new(env);
        let ctx = ElabCtx {
            sort_vars: sort_params.clone(),
            term_vars: vec![],
        };
        let mut arg_sorts = Vec::new();
        loop {
            if cur.at_kw("Prop") {
                cur.next();
                break;
            }
            let sexpr = parse_sort_expr(cur)?;
            arg_sorts.push(el.elab_sort(&ctx, &sexpr)?);
            if cur.eat_sym("->") {
                continue;
            }
            return Err(ParseError(format!(
                "expected -> or Prop in signature of {name}"
            )));
        }
        cur.expect_sym(":=")?;
        cur.eat_sym("|");
        let mut rules = Vec::new();
        let mut chained = false;
        loop {
            let rname = cur.expect_ident()?;
            cur.expect_sym(":")?;
            let e = parse_expr(cur)?;
            rules.push((rname, e));
            if cur.eat_sym("|") {
                continue;
            }
            if cur.eat_kw("with") {
                chained = true;
            }
            break;
        }
        raws.push(RawPred {
            name: name.clone(),
            sort_params: sort_params.clone(),
            arg_sorts,
            rules,
        });
        if chained {
            name = cur.expect_ident()?;
            let mut scope = Vec::new();
            let params = parse_params(env, cur, &mut scope)?;
            if !params.term_params.is_empty() {
                return Err(ParseError(
                    "inductive predicates take their arguments in the signature".into(),
                ));
            }
            sort_params = params.sort_params;
            continue;
        }
        break;
    }
    if !cur.at_end() {
        return Err(ParseError(format!(
            "trailing tokens in inductive {name}: {:?}",
            cur.remainder()
        )));
    }
    // Elaborate every rule with the whole group's signatures in scope.
    let sigs: Vec<ExtraPred> = raws
        .iter()
        .map(|r| ExtraPred {
            name: r.name.clone(),
            sort_params: r.sort_params.clone(),
            args: r.arg_sorts.clone(),
        })
        .collect();
    let mut out = Vec::new();
    for r in &raws {
        let mut rules = Vec::new();
        for (rname, e) in &r.rules {
            let mut el = Elaborator::new(env);
            el.extra_preds = sigs.clone();
            let rctx = ElabCtx {
                sort_vars: r.sort_params.clone(),
                term_vars: vec![],
            };
            let f = el.elab_formula(&rctx, e)?;
            let stmt = el.finish_formula(&f)?;
            rules.push((rname.clone(), stmt));
        }
        out.push(IndPred {
            name: r.name.clone(),
            sort_params: r.sort_params.clone(),
            arg_sorts: r.arg_sorts.clone(),
            rules,
        });
    }
    Ok(Decl::IndPredDecl(out))
}

fn parse_datatypes(
    env: &Env,
    first_name: String,
    first_params: Params,
    cur: &mut Cursor,
    _text: &str,
) -> Result<Decl, ParseError> {
    // Collect the raw bodies of the (possibly mutual) group first, so the
    // group's sorts can be registered before elaborating argument sorts.
    struct RawInd {
        name: String,
        params: Vec<String>,
        ctors: Vec<(String, Vec<minicoq::parse::ast::SortExpr>)>,
    }
    let mut raws = Vec::new();
    let mut name = first_name;
    let mut params = first_params;
    loop {
        if !params.term_params.is_empty() {
            return Err(ParseError(
                "datatype parameters must be sorts (use `(A : Sort)`)".into(),
            ));
        }
        cur.expect_sym(":=")?;
        cur.eat_sym("|");
        let mut ctors = Vec::new();
        loop {
            let cname = cur.expect_ident()?;
            // Argument groups `(x y : sort)`.
            let mut argsorts = Vec::new();
            while cur.at_sym("(") {
                cur.expect_sym("(")?;
                let mut count = 0usize;
                while let Some(Tok::Ident(_)) = cur.peek() {
                    cur.expect_ident()?;
                    count += 1;
                }
                cur.expect_sym(":")?;
                let sexpr = parse_sort_expr(cur)?;
                cur.expect_sym(")")?;
                for _ in 0..count {
                    argsorts.push(sexpr.clone());
                }
            }
            ctors.push((cname, argsorts));
            if cur.eat_sym("|") {
                continue;
            }
            break;
        }
        raws.push(RawInd {
            name,
            params: params.sort_params,
            ctors,
        });
        if cur.eat_kw("with") {
            name = cur.expect_ident()?;
            let mut scope = Vec::new();
            params = parse_params(env, cur, &mut scope)?;
            continue;
        }
        break;
    }
    if !cur.at_end() {
        return Err(ParseError(format!(
            "trailing tokens in inductive: {:?}",
            cur.remainder()
        )));
    }
    // Temporary environment with the group's sorts registered, for
    // elaborating constructor argument sorts (self- and mutual references).
    let mut tmp = env.clone();
    for r in &raws {
        if r.params.is_empty() {
            tmp.declare_sort(r.name.clone());
        } else {
            tmp.declare_sort_ctor(r.name.clone(), r.params.len());
        }
    }
    let el = Elaborator::new(&tmp);
    let mut out = Vec::new();
    for r in &raws {
        let ctx = ElabCtx {
            sort_vars: r.params.clone(),
            term_vars: vec![],
        };
        let mut ctors = Vec::new();
        for (cname, argsorts) in &r.ctors {
            let args: Vec<Sort> = argsorts
                .iter()
                .map(|s| el.elab_sort(&ctx, s))
                .collect::<Result<_, _>>()?;
            ctors.push(Ctor {
                name: cname.clone(),
                args,
            });
        }
        out.push(Inductive {
            name: r.name.clone(),
            params: r.params.clone(),
            ctors,
        });
    }
    Ok(Decl::Datatypes(out))
}

fn parse_def(env: &Env, text: &str, recursive: bool) -> Result<Decl, ParseError> {
    let mut cur = Cursor::new(lex(text)?);
    cur.expect_kw(if recursive { "Fixpoint" } else { "Definition" })?;
    let name = cur.expect_ident()?;
    let mut sort_scope = Vec::new();
    let params = parse_params(env, &mut cur, &mut sort_scope)?;
    // Optional `{struct x}`.
    let mut struct_name: Option<String> = None;
    if cur.eat_sym("{") {
        cur.expect_kw("struct")?;
        struct_name = Some(cur.expect_ident()?);
        cur.expect_sym("}")?;
    }
    cur.expect_sym(":")?;
    let is_prop = cur.at_kw("Prop");
    let ctx = ElabCtx {
        sort_vars: params.sort_params.clone(),
        term_vars: params.term_params.clone(),
    };
    if is_prop {
        cur.next();
        cur.expect_sym(":=")?;
        let e = parse_expr(&mut cur)?;
        if !cur.at_end() {
            return Err(ParseError(format!(
                "trailing tokens in {name}: {:?}",
                cur.remainder()
            )));
        }
        let mut el = Elaborator::new(env);
        el.extra_preds.push(ExtraPred {
            name: name.clone(),
            sort_params: params.sort_params.clone(),
            args: params.term_params.iter().map(|(_, s)| s.clone()).collect(),
        });
        let f = el.elab_formula(&ctx, &e)?;
        let body = el.finish_formula(&f)?;
        let is_recursive = mentions_symbol(Node::Formula(&body), &name);
        if recursive != is_recursive {
            return Err(ParseError(format!(
                "{name}: use Fixpoint if and only if the body is recursive"
            )));
        }
        let struct_arg = if recursive {
            resolve_struct_arg(
                &params.term_params,
                struct_name.as_deref(),
                |p| has_match_on(Node::Formula(&body), p),
                &name,
            )?
        } else {
            None
        };
        return Ok(Decl::Pred(DefinedPred {
            name,
            sort_params: params.sort_params,
            params: params.term_params,
            body,
            recursive,
            struct_arg,
        }));
    }
    let ret_expr = parse_sort_expr(&mut cur)?;
    let el0 = Elaborator::new(env);
    let ret = el0.elab_sort(&ctx, &ret_expr)?;
    cur.expect_sym(":=")?;
    let e = parse_expr(&mut cur)?;
    if !cur.at_end() {
        return Err(ParseError(format!(
            "trailing tokens in {name}: {:?}",
            cur.remainder()
        )));
    }
    let mut el = Elaborator::new(env);
    el.extra_funcs.push(ExtraFunc {
        name: name.clone(),
        sort_params: params.sort_params.clone(),
        args: params.term_params.iter().map(|(_, s)| s.clone()).collect(),
        ret: ret.clone(),
    });
    let body = el.elab_term(&ctx, &e, &ret)?;
    let is_recursive = mentions_symbol(Node::Term(&body), &name);
    if recursive != is_recursive {
        return Err(ParseError(format!(
            "{name}: use Fixpoint if and only if the body is recursive"
        )));
    }
    let struct_arg = if recursive {
        resolve_struct_arg(
            &params.term_params,
            struct_name.as_deref(),
            |p| has_match_on(Node::Term(&body), p),
            &name,
        )?
    } else {
        None
    };
    Ok(Decl::Func(FuncDef {
        name,
        sort_params: params.sort_params,
        params: params.term_params,
        ret,
        body,
        recursive,
        struct_arg,
    }))
}

fn resolve_struct_arg(
    params: &[(String, Sort)],
    explicit: Option<&str>,
    has_match_on: impl Fn(&str) -> bool,
    name: &str,
) -> Result<Option<usize>, ParseError> {
    if let Some(x) = explicit {
        return params
            .iter()
            .position(|(p, _)| p == x)
            .map(Some)
            .ok_or_else(|| ParseError(format!("{name}: unknown struct parameter {x}")));
    }
    for (i, (p, _)) in params.iter().enumerate() {
        if has_match_on(p) {
            return Ok(Some(i));
        }
    }
    Err(ParseError(format!(
        "{name}: cannot determine the structural argument (add {{struct x}})"
    )))
}

/// True when a predicate or function application in `n` names `name`.
fn mentions_symbol(n: Node, name: &str) -> bool {
    n.any(|n| {
        matches!(n, Node::Formula(Formula::Pred(f, ..)) | Node::Term(Term::App(f, _)) if f == name)
    })
}

/// True when a `match` in `n` scrutinizes the variable `var` itself.
fn has_match_on(n: Node, var: &str) -> bool {
    n.any(|n| {
        matches!(n, Node::Formula(Formula::FMatch(s, _)) | Node::Term(Term::Match(s, _))
            if matches!(&**s, Term::Var(v) if v == var))
    })
}

/// Applies a declaration to an environment (registering hints, datatypes,
/// predicates and functions; lemma statements are added by the loader after
/// proof replay).
pub fn apply_decl(env: &mut Env, decl: &Decl) -> Result<(), ParseError> {
    match decl {
        Decl::Import(_) => Ok(()),
        Decl::SortDecl(n) => {
            env.declare_sort(n.clone());
            Ok(())
        }
        Decl::Datatypes(group) => {
            for ind in group {
                env.declare_inductive(ind.clone())
                    .map_err(|e| ParseError(e.to_string()))?;
            }
            Ok(())
        }
        Decl::IndPredDecl(group) => {
            for p in group {
                env.declare_pred(PredDef::Inductive(p.clone()))
                    .map_err(|e| ParseError(e.to_string()))?;
            }
            Ok(())
        }
        Decl::Func(f) => env
            .declare_func(f.clone())
            .map_err(|e| ParseError(e.to_string())),
        Decl::Pred(p) => env
            .declare_pred(PredDef::Defined(p.clone()))
            .map_err(|e| ParseError(e.to_string())),
        Decl::LemmaStmt { .. } => Ok(()),
        Decl::AxiomStmt { name, stmt } => env
            .add_lemma(name.clone(), stmt.clone())
            .map_err(|e| ParseError(e.to_string())),
        Decl::HintResolve(names) => {
            for n in names {
                if env.rule_or_lemma(n).is_none() {
                    return Err(ParseError(format!("Hint Resolve: unknown lemma {n}")));
                }
                env.add_hint("core", n.clone());
            }
            Ok(())
        }
        Decl::HintConstructors(preds) => {
            for p in preds {
                let Some(PredDef::Inductive(ip)) = env.preds.get(p.as_str()) else {
                    return Err(ParseError(format!(
                        "Hint Constructors: {p} is not an inductive predicate"
                    )));
                };
                let rules: Vec<String> = ip.rules.iter().map(|(n, _)| n.clone()).collect();
                for r in rules {
                    env.add_hint("core", r);
                }
            }
            Ok(())
        }
    }
}

//! Surface expression grammar, shared between formulas, terms and the
//! vernacular.
//!
//! Precedence, loosest to tightest: quantifiers; `<->`; `->` (right
//! associative, body may start a quantifier); `\/`; `/\`; `~`; comparisons
//! (`=`, `<>`, `<=`, `<`, `>=`, `>`); `::`; application; atoms.

use super::lex::{Cursor, ParseError, Tok};
use crate::Ident;

/// A surface sort expression, e.g. `list (prod nat T)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortExpr {
    /// Head identifier.
    pub head: Ident,
    /// Applied sort arguments.
    pub args: Vec<SortExpr>,
}

/// A binder group in `forall`/`exists`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binder {
    /// `x y : s`.
    Term(Vec<Ident>, SortExpr),
    /// `A B : Sort`.
    Sort(Vec<Ident>),
}

/// A surface pattern in a `match` arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatAst {
    /// `c x y` or a bare identifier (constructor or binder, resolved later).
    Apply(Ident, Vec<Ident>),
    /// `x :: xs`.
    Cons(Ident, Ident),
    /// `[]` or `nil`.
    Nil,
    /// `_`.
    Wild,
    /// A numeral (only `0` is meaningful as a pattern).
    Num(u64),
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

/// A surface expression covering both terms and formulas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Identifier (variable, constant, nullary predicate, `True`/`False`).
    Id(Ident),
    /// Numeral.
    Num(u64),
    /// Application `f a b`.
    App(Ident, Vec<Expr>),
    /// `[a; b; c]` (possibly empty).
    ListLit(Vec<Expr>),
    /// `a :: b`.
    Cons(Box<Expr>, Box<Expr>),
    /// `match e with | p => e ... end`.
    Match(Box<Expr>, Vec<(PatAst, Expr)>),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `~ e`.
    Not(Box<Expr>),
    /// `a /\ b`.
    And(Box<Expr>, Box<Expr>),
    /// `a \/ b`.
    Or(Box<Expr>, Box<Expr>),
    /// `a -> b`.
    Implies(Box<Expr>, Box<Expr>),
    /// `a <-> b`.
    Iff(Box<Expr>, Box<Expr>),
    /// `forall binders, e`.
    Forall(Vec<Binder>, Box<Expr>),
    /// `exists binders, e`.
    Exists(Vec<Binder>, Box<Expr>),
    /// `(e : sort)` type ascription.
    Ascribe(Box<Expr>, SortExpr),
}

const KEYWORDS: &[&str] = &[
    "forall", "exists", "match", "with", "end", "in", "as", "using",
];

fn is_atom_start(t: &Tok) -> bool {
    match t {
        Tok::Ident(s) => !KEYWORDS.contains(&s.as_str()) || s == "match",
        Tok::Num(_) => true,
        Tok::Sym(s) => *s == "(" || *s == "[",
    }
}

/// Parses a sort expression: application of sort constructors to atoms.
pub fn parse_sort_expr(cur: &mut Cursor) -> Result<SortExpr, ParseError> {
    let head = parse_sort_atom(cur)?;
    let mut args = Vec::new();
    loop {
        match cur.peek() {
            Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
                let s = s.clone();
                cur.next();
                args.push(SortExpr {
                    head: s,
                    args: vec![],
                });
            }
            Some(Tok::Sym("(")) => {
                cur.next();
                let inner = parse_sort_expr(cur)?;
                cur.expect_sym(")")?;
                args.push(inner);
            }
            _ => break,
        }
    }
    Ok(SortExpr {
        head: head.head,
        args: {
            let mut v = head.args;
            v.extend(args);
            v
        },
    })
}

fn parse_sort_atom(cur: &mut Cursor) -> Result<SortExpr, ParseError> {
    match cur.next() {
        Some(Tok::Ident(s)) => Ok(SortExpr {
            head: s,
            args: vec![],
        }),
        Some(Tok::Sym("(")) => {
            let inner = parse_sort_expr(cur)?;
            cur.expect_sym(")")?;
            Ok(inner)
        }
        other => Err(ParseError(format!("expected a sort, found {other:?}"))),
    }
}

/// Parses binder groups up to (but not consuming) `,`.
pub fn parse_binders(cur: &mut Cursor) -> Result<Vec<Binder>, ParseError> {
    let mut out = Vec::new();
    loop {
        if cur.at_sym(",") {
            break;
        }
        if cur.eat_sym("(") {
            let mut names = Vec::new();
            while let Some(Tok::Ident(_)) = cur.peek() {
                if cur.at_sym(":") {
                    break;
                }
                names.push(cur.expect_ident()?);
                if cur.at_sym(":") {
                    break;
                }
            }
            cur.expect_sym(":")?;
            if cur.at_kw("Sort") {
                cur.next();
                cur.expect_sym(")")?;
                out.push(Binder::Sort(names));
            } else {
                let s = parse_sort_expr(cur)?;
                cur.expect_sym(")")?;
                out.push(Binder::Term(names, s));
            }
            continue;
        }
        // Bare group: idents then `: sort`, ending the binder list.
        let mut names = Vec::new();
        while let Some(Tok::Ident(_)) = cur.peek() {
            names.push(cur.expect_ident()?);
            if cur.at_sym(":") {
                break;
            }
        }
        if names.is_empty() {
            return Err(ParseError("expected binder".into()));
        }
        cur.expect_sym(":")?;
        if cur.at_kw("Sort") {
            cur.next();
            out.push(Binder::Sort(names));
        } else {
            let s = parse_sort_expr(cur)?;
            out.push(Binder::Term(names, s));
        }
        break;
    }
    if out.is_empty() {
        return Err(ParseError("expected at least one binder".into()));
    }
    Ok(out)
}

/// Parses a full expression.
pub fn parse_expr(cur: &mut Cursor) -> Result<Expr, ParseError> {
    if cur.eat_kw("forall") {
        let binders = parse_binders(cur)?;
        cur.expect_sym(",")?;
        let body = parse_expr(cur)?;
        return Ok(Expr::Forall(binders, Box::new(body)));
    }
    if cur.eat_kw("exists") {
        let binders = parse_binders(cur)?;
        cur.expect_sym(",")?;
        let body = parse_expr(cur)?;
        return Ok(Expr::Exists(binders, Box::new(body)));
    }
    parse_iff(cur)
}

fn parse_iff(cur: &mut Cursor) -> Result<Expr, ParseError> {
    let lhs = parse_implies(cur)?;
    if cur.eat_sym("<->") {
        let rhs = parse_expr(cur)?;
        return Ok(Expr::Iff(Box::new(lhs), Box::new(rhs)));
    }
    Ok(lhs)
}

fn parse_implies(cur: &mut Cursor) -> Result<Expr, ParseError> {
    let lhs = parse_or(cur)?;
    if cur.eat_sym("->") {
        let rhs = if cur.at_kw("forall") || cur.at_kw("exists") {
            parse_expr(cur)?
        } else {
            parse_implies_tail(cur)?
        };
        return Ok(Expr::Implies(Box::new(lhs), Box::new(rhs)));
    }
    Ok(lhs)
}

// The body of `->` may itself chain implications and quantifiers but must
// not swallow a following `<->` (kept right-associative within `->`).
fn parse_implies_tail(cur: &mut Cursor) -> Result<Expr, ParseError> {
    parse_implies(cur)
}

fn parse_or(cur: &mut Cursor) -> Result<Expr, ParseError> {
    let lhs = parse_and(cur)?;
    if cur.eat_sym("\\/") {
        let rhs = parse_or(cur)?;
        return Ok(Expr::Or(Box::new(lhs), Box::new(rhs)));
    }
    Ok(lhs)
}

fn parse_and(cur: &mut Cursor) -> Result<Expr, ParseError> {
    let lhs = parse_not(cur)?;
    if cur.eat_sym("/\\") {
        let rhs = parse_and(cur)?;
        return Ok(Expr::And(Box::new(lhs), Box::new(rhs)));
    }
    Ok(lhs)
}

fn parse_not(cur: &mut Cursor) -> Result<Expr, ParseError> {
    if cur.eat_sym("~") {
        let inner = parse_not(cur)?;
        return Ok(Expr::Not(Box::new(inner)));
    }
    parse_cmp(cur)
}

fn parse_cmp(cur: &mut Cursor) -> Result<Expr, ParseError> {
    let lhs = parse_cons(cur)?;
    let op = match cur.peek() {
        Some(Tok::Sym("=")) => Some(CmpOp::Eq),
        Some(Tok::Sym("<>")) => Some(CmpOp::Ne),
        Some(Tok::Sym("<=")) => Some(CmpOp::Le),
        Some(Tok::Sym("<")) => Some(CmpOp::Lt),
        Some(Tok::Sym(">=")) => Some(CmpOp::Ge),
        Some(Tok::Sym(">")) => Some(CmpOp::Gt),
        _ => None,
    };
    if let Some(op) = op {
        cur.next();
        let rhs = parse_cons(cur)?;
        return Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)));
    }
    Ok(lhs)
}

fn parse_cons(cur: &mut Cursor) -> Result<Expr, ParseError> {
    let lhs = parse_app(cur)?;
    if cur.eat_sym("::") {
        let rhs = parse_cons(cur)?;
        return Ok(Expr::Cons(Box::new(lhs), Box::new(rhs)));
    }
    Ok(lhs)
}

fn parse_app(cur: &mut Cursor) -> Result<Expr, ParseError> {
    let head = parse_atom(cur)?;
    let mut args = Vec::new();
    while let Some(t) = cur.peek() {
        if !is_atom_start(t) {
            break;
        }
        args.push(parse_atom(cur)?);
    }
    if args.is_empty() {
        return Ok(head);
    }
    match head {
        Expr::Id(f) => Ok(Expr::App(f, args)),
        _ => Err(ParseError("application head must be an identifier".into())),
    }
}

fn parse_atom(cur: &mut Cursor) -> Result<Expr, ParseError> {
    match cur.peek().cloned() {
        Some(Tok::Ident(s)) if s == "match" => {
            cur.next();
            let scrut = parse_expr(cur)?;
            cur.expect_kw("with")?;
            let mut arms = Vec::new();
            cur.eat_sym("|");
            loop {
                let pat = parse_pattern(cur)?;
                cur.expect_sym("=>")?;
                let body = parse_expr(cur)?;
                arms.push((pat, body));
                if cur.eat_sym("|") {
                    continue;
                }
                cur.expect_kw("end")?;
                break;
            }
            Ok(Expr::Match(Box::new(scrut), arms))
        }
        Some(Tok::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => {
            cur.next();
            Ok(Expr::Id(s))
        }
        Some(Tok::Num(n)) => {
            cur.next();
            Ok(Expr::Num(n))
        }
        Some(Tok::Sym("(")) => {
            cur.next();
            let inner = parse_expr(cur)?;
            if cur.eat_sym(":") {
                let s = parse_sort_expr(cur)?;
                cur.expect_sym(")")?;
                return Ok(Expr::Ascribe(Box::new(inner), s));
            }
            cur.expect_sym(")")?;
            Ok(inner)
        }
        Some(Tok::Sym("[")) => {
            cur.next();
            let mut items = Vec::new();
            if cur.eat_sym("]") {
                return Ok(Expr::ListLit(items));
            }
            loop {
                items.push(parse_expr(cur)?);
                if cur.eat_sym(";") {
                    continue;
                }
                cur.expect_sym("]")?;
                break;
            }
            Ok(Expr::ListLit(items))
        }
        other => Err(ParseError(format!("expected expression, found {other:?}"))),
    }
}

/// Parses a single atomic expression (public wrapper used by the tactic
/// parser for argument lists).
pub fn parse_atom_pub(cur: &mut Cursor) -> Result<Expr, ParseError> {
    parse_atom(cur)
}

/// Parses a match pattern.
pub fn parse_pattern(cur: &mut Cursor) -> Result<PatAst, ParseError> {
    if cur.eat_sym("(") {
        let p = parse_pattern(cur)?;
        cur.expect_sym(")")?;
        return Ok(p);
    }
    if cur.eat_sym("[") {
        cur.expect_sym("]")?;
        return Ok(PatAst::Nil);
    }
    if cur.eat_sym("_") {
        return Ok(PatAst::Wild);
    }
    match cur.next() {
        Some(Tok::Num(n)) => Ok(PatAst::Num(n)),
        Some(Tok::Ident(h)) if h == "_" => Ok(PatAst::Wild),
        Some(Tok::Ident(h)) => {
            // `x :: xs`?
            if cur.eat_sym("::") {
                let tail = cur.expect_ident()?;
                return Ok(PatAst::Cons(h, tail));
            }
            let mut args = Vec::new();
            while let Some(Tok::Ident(a)) = cur.peek() {
                if KEYWORDS.contains(&a.as_str()) {
                    break;
                }
                args.push(cur.expect_ident()?);
            }
            // Also allow `_` in argument position.
            Ok(PatAst::Apply(h, args))
        }
        other => Err(ParseError(format!("expected pattern, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::lex::lex;

    fn parse(s: &str) -> Expr {
        let mut cur = Cursor::new(lex(s).unwrap());
        let e = parse_expr(&mut cur).unwrap();
        assert!(cur.at_end(), "leftover tokens: {:?}", cur.remainder());
        e
    }

    #[test]
    fn precedence_shapes() {
        let e = parse("a = b -> c = d /\\ e = f");
        assert!(matches!(e, Expr::Implies(..)));
        let e = parse("~ a = b \\/ c = d");
        assert!(matches!(e, Expr::Or(..)));
    }

    #[test]
    fn quantifiers_with_groups() {
        let e = parse("forall (A : Sort) (x : A) (l : list A), In x l -> In x l");
        match e {
            Expr::Forall(binders, _) => {
                assert_eq!(binders.len(), 3);
                assert!(matches!(binders[0], Binder::Sort(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_binder_group() {
        let e = parse("forall n m : nat, n = m");
        match e {
            Expr::Forall(binders, _) => match &binders[0] {
                Binder::Term(names, s) => {
                    assert_eq!(names.len(), 2);
                    assert_eq!(s.head, "nat");
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn match_and_lists() {
        let e = parse("match l with | [] => 0 | x :: xs => S (length xs) end");
        match e {
            Expr::Match(_, arms) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].0, PatAst::Nil);
                assert!(matches!(arms[1].0, PatAst::Cons(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse("[1; 2; 3]");
        assert!(matches!(e, Expr::ListLit(v) if v.len() == 3));
    }

    #[test]
    fn forall_after_arrow() {
        let e = parse("a = b -> forall x : nat, x = x");
        match e {
            Expr::Implies(_, rhs) => assert!(matches!(*rhs, Expr::Forall(..))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparisons() {
        assert!(matches!(parse("a <= b"), Expr::Cmp(CmpOp::Le, ..)));
        assert!(matches!(parse("a <> b"), Expr::Cmp(CmpOp::Ne, ..)));
    }
}

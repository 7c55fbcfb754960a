//! Parsing: sentence splitting, lexer, surface grammar, elaboration, and
//! tactic scripts.

pub mod ast;
pub mod elab;
pub mod lex;
mod sentence;
mod tactic;

pub use lex::{lex, Cursor, ParseError, Tok};
pub use sentence::{split_sentences, split_with_spans, Sentence};
pub use tactic::parse_tactic;

use crate::env::Env;
use crate::formula::Formula;
use crate::goal::Goal;
use crate::sort::Sort;
use crate::term::Term;

use ast::parse_expr;
use elab::{ElabCtx, Elaborator};

/// Parses a closed formula (a lemma statement).
pub fn parse_formula(env: &Env, src: &str) -> Result<Formula, ParseError> {
    let mut cur = Cursor::new(lex(src)?);
    let e = parse_expr(&mut cur)?;
    if !cur.at_end() {
        return Err(ParseError(format!(
            "trailing tokens after formula: {:?}",
            cur.remainder()
        )));
    }
    let mut el = Elaborator::new(env);
    let f = el.elab_formula(&ElabCtx::default(), &e)?;
    el.finish_formula(&f)
}

/// Parses a term in the context of a goal, against an optional expected
/// sort.
pub fn parse_term_in_goal(
    env: &Env,
    goal: &Goal,
    src: &str,
    expected: Option<Sort>,
) -> Result<Term, ParseError> {
    let mut cur = Cursor::new(lex(src)?);
    let e = parse_expr(&mut cur)?;
    if !cur.at_end() {
        return Err(ParseError(format!(
            "trailing tokens after term: {:?}",
            cur.remainder()
        )));
    }
    let mut el = Elaborator::new(env);
    let want = expected.unwrap_or_else(|| el.uni.fresh_sort_meta());
    el.elab_term(&ElabCtx::from_goal(goal), &e, &want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_polymorphic_statement() {
        let env = Env::with_prelude();
        let f = parse_formula(
            &env,
            "forall (A : Sort) (x : A) (l : list A), x :: l = x :: l",
        )
        .unwrap();
        assert!(matches!(f, Formula::ForallSort(..)));
        assert!(f.is_ground());
    }

    #[test]
    fn rejects_unresolvable_sorts() {
        let env = Env::with_prelude();
        // nil = nil has an undetermined element sort.
        assert!(parse_formula(&env, "nil = nil").is_err());
    }

    #[test]
    fn parses_arithmetic_statement() {
        let env = Env::with_prelude();
        let f = parse_formula(&env, "forall n : nat, add n 0 = n").unwrap();
        match &f {
            Formula::Forall(_, s, _) => assert_eq!(*s, Sort::nat()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_comparison_sugar() {
        let env = Env::with_prelude();
        let f = parse_formula(&env, "forall n m : nat, n < m -> n <= m").unwrap();
        let p = f.peel();
        assert_eq!(p.binders.len(), 2);
        assert_eq!(p.premises.len(), 1);
    }

    #[test]
    fn term_in_goal_uses_context() {
        let env = Env::with_prelude();
        let mut g = Goal::new(Formula::True);
        g.vars.push(("x".into(), Sort::nat()));
        let t = parse_term_in_goal(&env, &g, "S x", None).unwrap();
        assert_eq!(t, Term::App("S".into(), vec![Term::var("x")]));
        assert!(parse_term_in_goal(&env, &g, "S y", None).is_err());
    }
}

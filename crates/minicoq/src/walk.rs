//! The one pre-order walk over formula, term and pattern nodes.
//!
//! Readers that make the same decision at every node, whatever binds
//! around it (groundness, size, symbol and scrutinee searches), go through
//! [`Node::any`] or [`Node::for_each`] instead of their own `match` over
//! every variant. Code that treats a binder differently from other nodes
//! (free variables, substitution, unification, evaluation, canonical keys,
//! printing) keeps its own recursion.

use std::ops::ControlFlow;

use crate::formula::Formula;
use crate::term::{Pat, Term};

/// A node of a formula tree.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// A formula node.
    Formula(&'a Formula),
    /// A term node.
    Term(&'a Term),
    /// The pattern of a `match` arm, visited just before the arm's body.
    Pat(&'a Pat),
}

impl<'a> Node<'a> {
    /// Visits this node and every node below it in pre-order, left to
    /// right, and stops at the first `visit` that breaks.
    fn walk(self, visit: &mut impl FnMut(Node<'a>) -> ControlFlow<()>) -> ControlFlow<()> {
        match self {
            Node::Formula(f) => walk_formula(f, visit),
            Node::Term(t) => walk_term(t, visit),
            Node::Pat(_) => visit(self),
        }
    }

    /// True when `pred` holds at some node; stops at the first.
    pub fn any(self, mut pred: impl FnMut(Node<'a>) -> bool) -> bool {
        self.walk(&mut |n| {
            if pred(n) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }

    /// Calls `f` on every node, in pre-order.
    pub fn for_each(self, mut f: impl FnMut(Node<'a>)) {
        let _ = self.walk(&mut |n| {
            f(n);
            ControlFlow::Continue(())
        });
    }

    /// The number of formula and term nodes (patterns do not count): the
    /// structural size fuel accounting and size heuristics use.
    pub fn size(self) -> usize {
        let mut n = 0;
        self.for_each(|node| n += usize::from(!matches!(node, Node::Pat(_))));
        n
    }
}

fn walk_formula<'a>(
    f: &'a Formula,
    visit: &mut impl FnMut(Node<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    visit(Node::Formula(f))?;
    match f {
        Formula::True | Formula::False => {}
        Formula::Eq(_, a, b) => {
            walk_term(a, visit)?;
            walk_term(b, visit)?;
        }
        Formula::Pred(_, _, args) => {
            for a in args {
                walk_term(a, visit)?;
            }
        }
        Formula::Not(g)
        | Formula::Forall(_, _, g)
        | Formula::Exists(_, _, g)
        | Formula::ForallSort(_, g) => walk_formula(g, visit)?,
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            walk_formula(a, visit)?;
            walk_formula(b, visit)?;
        }
        Formula::FMatch(scrut, arms) => {
            walk_term(scrut, visit)?;
            for (pat, rhs) in arms {
                visit(Node::Pat(pat))?;
                walk_formula(rhs, visit)?;
            }
        }
    }
    ControlFlow::Continue(())
}

fn walk_term<'a>(
    t: &'a Term,
    visit: &mut impl FnMut(Node<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    visit(Node::Term(t))?;
    match t {
        Term::Var(_) | Term::Meta(_) => {}
        Term::App(_, args) => {
            for a in args {
                walk_term(a, visit)?;
            }
        }
        Term::Match(scrut, arms) => {
            walk_term(scrut, visit)?;
            for (pat, rhs) in arms {
                visit(Node::Pat(pat))?;
                walk_term(rhs, visit)?;
            }
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn visits_in_pre_order_and_stops_early() {
        // match l with nil => O | cons x xs => S x end = O
        let t = Term::Match(
            Box::new(Term::var("l")),
            vec![
                (Pat::Ctor("nil".into(), vec![]), Term::cst("O")),
                (
                    Pat::Ctor("cons".into(), vec!["x".into(), "xs".into()]),
                    Term::App("S".into(), vec![Term::var("x")]),
                ),
            ],
        );
        let f = Formula::Eq(Sort::nat(), t, Term::cst("O"));
        let mut seen = Vec::new();
        Node::Formula(&f).for_each(|n| {
            seen.push(match n {
                Node::Formula(_) => "F".to_string(),
                Node::Term(Term::Var(v)) => v.clone(),
                Node::Term(Term::App(g, _)) => g.clone(),
                Node::Term(Term::Match(..)) => "match".to_string(),
                Node::Term(Term::Meta(_)) => "?".to_string(),
                Node::Pat(_) => "pat".to_string(),
            })
        });
        assert_eq!(
            seen,
            ["F", "match", "l", "pat", "O", "pat", "S", "x", "O"].map(String::from)
        );
        assert_eq!(Node::Formula(&f).size(), 7);
        let mut visited = 0;
        assert!(Node::Formula(&f).any(|n| {
            visited += 1;
            matches!(n, Node::Pat(_))
        }));
        assert_eq!(visited, 4);
    }
}

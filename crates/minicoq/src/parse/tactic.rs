//! Parsing of tactic scripts.
//!
//! Scripts are sequences of sentences terminated by `.`. Each sentence is a
//! tactic expression with the tacticals `;`, `; [ .. | .. ]`, `||`, `try`,
//! `repeat`, `first [ .. ]`. Bullets (`-`, `+`, `*`) at the start of a
//! sentence are accepted and ignored (focus bookkeeping only).
//!
//! Term and formula arguments are elaborated against the focused goal's
//! context, which is why [`parse_tactic`] takes an optional [`Goal`].

use crate::env::Env;
use crate::error::TacticError;
use crate::formula::Formula;
use crate::goal::Goal;
use crate::tactic::{DestructPattern, DestructTarget, Loc, Tactic};
use crate::term::Term;

use super::ast::{parse_expr, Expr};
use super::elab::{ElabCtx, Elaborator};
use super::lex::{lex, Cursor, ParseError, Tok};

/// Parses one tactic sentence, elaborating any term or formula arguments
/// against the focused goal's context.
pub fn parse_tactic(env: &Env, goal: Option<&Goal>, src: &str) -> Result<Tactic, TacticError> {
    let toks = lex(src).map_err(|e| TacticError::Parse(e.0))?;
    let mut cur = Cursor::new(toks);
    // Leading bullets.
    let mut any_bullet = false;
    while cur.at_sym("-") || cur.at_sym("+") || cur.at_sym("*") {
        cur.next();
        any_bullet = true;
    }
    if cur.at_end() {
        if any_bullet {
            return Ok(Tactic::Idtac);
        }
        return Err(TacticError::Parse("empty tactic".into()));
    }
    let t = parse_seq(env, goal, &mut cur).map_err(|e| TacticError::Parse(e.0))?;
    if !cur.at_end() {
        return Err(TacticError::Parse(format!(
            "trailing tokens: {:?}",
            cur.remainder()
        )));
    }
    Ok(t)
}

fn parse_seq(env: &Env, goal: Option<&Goal>, cur: &mut Cursor) -> Result<Tactic, ParseError> {
    let mut acc = parse_orelse(env, goal, cur)?;
    while cur.eat_sym(";") {
        if cur.eat_sym("[") {
            let mut branches = Vec::new();
            loop {
                branches.push(parse_seq(env, goal, cur)?);
                if cur.eat_sym("|") {
                    continue;
                }
                cur.expect_sym("]")?;
                break;
            }
            acc = Tactic::SeqDispatch(Box::new(acc), branches);
        } else {
            let rhs = parse_orelse(env, goal, cur)?;
            acc = Tactic::Seq(Box::new(acc), Box::new(rhs));
        }
    }
    Ok(acc)
}

fn parse_orelse(env: &Env, goal: Option<&Goal>, cur: &mut Cursor) -> Result<Tactic, ParseError> {
    let first = parse_prim(env, goal, cur)?;
    if !cur.at_sym("||") {
        return Ok(first);
    }
    let mut alts = vec![first];
    while cur.eat_sym("||") {
        alts.push(parse_prim(env, goal, cur)?);
    }
    Ok(Tactic::First(alts))
}

fn parse_prim(env: &Env, goal: Option<&Goal>, cur: &mut Cursor) -> Result<Tactic, ParseError> {
    if cur.eat_sym("(") {
        let t = parse_seq(env, goal, cur)?;
        cur.expect_sym(")")?;
        return Ok(t);
    }
    if cur.eat_kw("try") {
        let t = parse_prim(env, goal, cur)?;
        return Ok(Tactic::Try(Box::new(t)));
    }
    if cur.eat_kw("repeat") {
        let t = parse_prim(env, goal, cur)?;
        return Ok(Tactic::Repeat(Box::new(t)));
    }
    if cur.eat_kw("first") {
        cur.expect_sym("[")?;
        let mut alts = Vec::new();
        loop {
            alts.push(parse_seq(env, goal, cur)?);
            if cur.eat_sym("|") {
                continue;
            }
            cur.expect_sym("]")?;
            break;
        }
        return Ok(Tactic::First(alts));
    }
    parse_simple(env, goal, cur)
}

fn ident_list(cur: &mut Cursor) -> Result<Vec<String>, ParseError> {
    let mut names = Vec::new();
    while let Some(Tok::Ident(_)) = cur.peek() {
        names.push(cur.expect_ident()?);
        cur.eat_sym(",");
    }
    Ok(names)
}

fn parse_loc(cur: &mut Cursor) -> Result<Loc, ParseError> {
    if cur.eat_kw("in") {
        if cur.eat_sym("*") {
            Ok(Loc::Everywhere)
        } else {
            Ok(Loc::Hyp(cur.expect_ident()?))
        }
    } else {
        Ok(Loc::Goal)
    }
}

fn parse_destruct_pattern(cur: &mut Cursor) -> Result<DestructPattern, ParseError> {
    cur.expect_sym("[")?;
    let mut cases = vec![Vec::new()];
    loop {
        match cur.peek() {
            Some(Tok::Ident(_)) => {
                let n = cur.expect_ident()?;
                cases.last_mut().expect("nonempty").push(n);
            }
            Some(Tok::Sym("|")) => {
                cur.next();
                cases.push(Vec::new());
            }
            Some(Tok::Sym("]")) => {
                cur.next();
                break;
            }
            other => return Err(ParseError(format!("bad pattern token {other:?}"))),
        }
    }
    Ok(cases)
}

fn elab_term_arg(
    env: &Env,
    goal: Option<&Goal>,
    e: &Expr,
    expected: Option<crate::sort::Sort>,
) -> Result<Term, ParseError> {
    // A bare identifier naming a hypothesis stands for that hypothesis
    // (discharging a premise in `specialize`/`pose proof`).
    if let Expr::Id(x) = e {
        if let Some(g) = goal {
            if g.hyp(x).is_some() {
                return Ok(Term::var(x.clone()));
            }
        }
    }
    let mut el = Elaborator::new(env);
    let ctx = match goal {
        Some(g) => ElabCtx::from_goal(g),
        None => ElabCtx::default(),
    };
    let want = expected.unwrap_or_else(|| el.uni.fresh_sort_meta());
    el.elab_term(&ctx, e, &want)
}

fn elab_formula_arg(env: &Env, goal: Option<&Goal>, e: &Expr) -> Result<Formula, ParseError> {
    let mut el = Elaborator::new(env);
    let ctx = match goal {
        Some(g) => ElabCtx::from_goal(g),
        None => ElabCtx::default(),
    };
    let f = el.elab_formula(&ctx, e)?;
    el.finish_formula(&f)
}

#[allow(clippy::too_many_lines)]
fn parse_simple(env: &Env, goal: Option<&Goal>, cur: &mut Cursor) -> Result<Tactic, ParseError> {
    let kw = cur.expect_ident()?;
    match kw.as_str() {
        "idtac" => Ok(Tactic::Idtac),
        "fail" => Ok(Tactic::Fail),
        "intro" => {
            let name = match cur.peek() {
                Some(Tok::Ident(_)) => Some(cur.expect_ident()?),
                _ => None,
            };
            Ok(Tactic::Intro(name))
        }
        "intros" => {
            let mut names = Vec::new();
            while let Some(Tok::Ident(_)) = cur.peek() {
                names.push(cur.expect_ident()?);
            }
            Ok(Tactic::Intros(names))
        }
        "exact" => Ok(Tactic::Exact(cur.expect_ident()?)),
        "assumption" => Ok(Tactic::Assumption),
        "apply" | "eapply" => {
            let name = cur.expect_ident()?;
            let in_hyp = if cur.eat_kw("in") {
                Some(cur.expect_ident()?)
            } else {
                None
            };
            Ok(Tactic::Apply {
                name,
                in_hyp,
                existential: kw == "eapply",
            })
        }
        "split" => Ok(Tactic::Split),
        "left" => Ok(Tactic::Left),
        "right" => Ok(Tactic::Right),
        "constructor" => Ok(Tactic::Constructor),
        "econstructor" => Ok(Tactic::EConstructor),
        "exists" => {
            let e = parse_expr(cur)?;
            let expected = goal.and_then(|g| {
                let c = crate::tactic::whnf_concl(env, g);
                match c {
                    Formula::Exists(_, s, _) => Some(s),
                    _ => None,
                }
            });
            let t = elab_term_arg(env, goal, &e, expected)?;
            let mut tac = Tactic::ExistsTac(t);
            // `exists a, b` provides several witnesses.
            while cur.eat_sym(",") {
                let e = parse_expr(cur)?;
                let t = elab_term_arg(env, goal, &e, None)?;
                tac = Tactic::Seq(Box::new(tac), Box::new(Tactic::ExistsTac(t)));
            }
            Ok(tac)
        }
        "destruct" => {
            let parse_one = |cur: &mut Cursor| -> Result<Tactic, ParseError> {
                let target = match cur.peek() {
                    Some(Tok::Ident(_)) => DestructTarget::Name(cur.expect_ident()?),
                    Some(Tok::Sym("(")) => {
                        cur.next();
                        let e = parse_expr(cur)?;
                        cur.expect_sym(")")?;
                        let t = elab_term_arg(env, goal, &e, None)?;
                        DestructTarget::Term(t)
                    }
                    other => return Err(ParseError(format!("bad destruct target {other:?}"))),
                };
                let pattern = if cur.eat_kw("as") {
                    Some(parse_destruct_pattern(cur)?)
                } else {
                    None
                };
                let eqn = if cur.eat_kw("eqn") {
                    cur.expect_sym(":")?;
                    Some(cur.expect_ident()?)
                } else {
                    None
                };
                Ok(Tactic::Destruct {
                    target,
                    pattern,
                    eqn,
                })
            };
            let mut tac = parse_one(cur)?;
            while cur.eat_sym(",") {
                let next = parse_one(cur)?;
                tac = Tactic::Seq(Box::new(tac), Box::new(next));
            }
            Ok(tac)
        }
        "induction" => {
            let x = cur.expect_ident()?;
            let pattern = if cur.eat_kw("as") {
                Some(parse_destruct_pattern(cur)?)
            } else {
                None
            };
            Ok(Tactic::Induction(x, pattern))
        }
        "inversion" => Ok(Tactic::Inversion(cur.expect_ident()?)),
        "injection" => Ok(Tactic::Injection(cur.expect_ident()?)),
        "discriminate" => {
            let h = match cur.peek() {
                Some(Tok::Ident(_)) => Some(cur.expect_ident()?),
                _ => None,
            };
            Ok(Tactic::Discriminate(h))
        }
        "subst" => Ok(Tactic::Subst),
        "reflexivity" => Ok(Tactic::Reflexivity),
        "symmetry" => {
            if cur.eat_kw("in") {
                Ok(Tactic::Symmetry(Some(cur.expect_ident()?)))
            } else {
                Ok(Tactic::Symmetry(None))
            }
        }
        "f_equal" => Ok(Tactic::FEqual),
        "congruence" => Ok(Tactic::Congruence),
        "simpl" => Ok(Tactic::Simpl(parse_loc(cur)?)),
        "unfold" => {
            let mut names = vec![cur.expect_ident()?];
            while cur.eat_sym(",") {
                names.push(cur.expect_ident()?);
            }
            Ok(Tactic::Unfold(names, parse_loc(cur)?))
        }
        "rewrite" => {
            let parse_one = |cur: &mut Cursor| -> Result<Tactic, ParseError> {
                let forward = !cur.eat_sym("<-");
                let name = cur.expect_ident()?;
                let in_hyp = if cur.eat_kw("in") {
                    Some(cur.expect_ident()?)
                } else {
                    None
                };
                Ok(Tactic::Rewrite {
                    name,
                    forward,
                    in_hyp,
                })
            };
            let mut tac = parse_one(cur)?;
            while cur.eat_sym(",") {
                let next = parse_one(cur)?;
                tac = Tactic::Seq(Box::new(tac), Box::new(next));
            }
            Ok(tac)
        }
        "lia" | "omega" => Ok(Tactic::Lia),
        "auto" | "eauto" => {
            let using = if cur.eat_kw("using") {
                ident_list(cur)?
            } else {
                Vec::new()
            };
            Ok(if kw == "auto" {
                Tactic::Auto(using)
            } else {
                Tactic::EAuto(using)
            })
        }
        "trivial" => Ok(Tactic::Trivial),
        "contradiction" => Ok(Tactic::Contradiction),
        "exfalso" => Ok(Tactic::Exfalso),
        "clear" => Ok(Tactic::Clear(ident_list(cur)?)),
        "revert" => Ok(Tactic::Revert(ident_list(cur)?)),
        "generalize" => {
            cur.expect_kw("dependent")?;
            Ok(Tactic::Revert(ident_list(cur)?))
        }
        "specialize" => {
            cur.expect_sym("(")?;
            let h = cur.expect_ident()?;
            let mut args = Vec::new();
            while !cur.at_sym(")") {
                let e = super::ast::parse_atom_pub(cur)?;
                args.push(elab_term_arg(env, goal, &e, None)?);
            }
            cur.expect_sym(")")?;
            Ok(Tactic::Specialize(h, args))
        }
        "pose" => {
            cur.expect_kw("proof")?;
            let (name, args) = if cur.eat_sym("(") {
                let name = cur.expect_ident()?;
                let mut args = Vec::new();
                while !cur.at_sym(")") {
                    let e = super::ast::parse_atom_pub(cur)?;
                    args.push(elab_term_arg(env, goal, &e, None)?);
                }
                cur.expect_sym(")")?;
                (name, args)
            } else {
                (cur.expect_ident()?, Vec::new())
            };
            let as_name = if cur.eat_kw("as") {
                Some(cur.expect_ident()?)
            } else {
                None
            };
            Ok(Tactic::PoseProof(name, args, as_name))
        }
        "assert" => {
            cur.expect_sym("(")?;
            // `assert (H : F)` or `assert (F)`.
            let named = matches!(
                (cur.peek(), cur.peek_at(1)),
                (Some(Tok::Ident(_)), Some(Tok::Sym(":")))
            );
            let name = if named {
                let n = cur.expect_ident()?;
                cur.expect_sym(":")?;
                Some(n)
            } else {
                None
            };
            let e = parse_expr(cur)?;
            cur.expect_sym(")")?;
            let f = elab_formula_arg(env, goal, &e)?;
            Ok(Tactic::Assert(name, f))
        }
        other => Err(ParseError(format!("unknown tactic {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tacticals() {
        let env = Env::with_prelude();
        let t = parse_tactic(&env, None, "intros; simpl; try lia").unwrap();
        assert!(matches!(t, Tactic::Seq(..)));
        let t = parse_tactic(&env, None, "split; [ auto | eauto ]").unwrap();
        assert!(matches!(t, Tactic::SeqDispatch(..)));
        let t = parse_tactic(&env, None, "auto || eauto").unwrap();
        assert!(matches!(t, Tactic::First(v) if v.len() == 2));
    }

    #[test]
    fn parses_bullets_as_noops() {
        let env = Env::with_prelude();
        let t = parse_tactic(&env, None, "- intros").unwrap();
        assert!(matches!(t, Tactic::Intros(_)));
        let t = parse_tactic(&env, None, "-").unwrap();
        assert!(matches!(t, Tactic::Idtac));
    }

    #[test]
    fn parses_rewrite_variants() {
        let env = Env::with_prelude();
        let t = parse_tactic(&env, None, "rewrite <- H in H2").unwrap();
        assert_eq!(
            t,
            Tactic::Rewrite {
                name: "H".into(),
                forward: false,
                in_hyp: Some("H2".into())
            }
        );
    }

    #[test]
    fn parses_destruct_with_pattern() {
        let env = Env::with_prelude();
        let t = parse_tactic(&env, None, "destruct l as [|x xs] eqn:E").unwrap();
        match t {
            Tactic::Destruct { pattern, eqn, .. } => {
                assert_eq!(pattern, Some(vec![vec![], vec!["x".into(), "xs".into()]]));
                assert_eq!(eqn, Some("E".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_tactic_is_parse_error() {
        let env = Env::with_prelude();
        assert!(matches!(
            parse_tactic(&env, None, "frobnicate"),
            Err(TacticError::Parse(_))
        ));
    }
}

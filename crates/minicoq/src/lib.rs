//! A small Coq-like proof assistant.
//!
//! `minicoq` implements the substrate that the paper's proof-search system
//! needs from Coq: a logic with inductive datatypes, recursive functions,
//! inductive predicates and equality, plus a tactic engine whose observable
//! behaviour is goals-in/goals-out transitions with a precise error and
//! timeout taxonomy.
//!
//! The logic is first-order with prenex sort polymorphism:
//!
//! * [`sort::Sort`] — sorts (`nat`, `bool`, `list A`, opaque atoms, sort
//!   variables for polymorphic definitions and lemmas);
//! * [`term::Term`] — first-order terms with `match` expressions;
//! * [`formula::Formula`] — formulas over terms (equality, declared
//!   predicates, the usual connectives and quantifiers);
//! * [`env::Env`] — the global environment of declarations;
//! * [`rule`] — the readings of a statement used as a rule, cached per
//!   declaration;
//! * [`goal::Goal`] / [`goal::ProofState`] — sequents and in-progress proofs;
//! * [`tactic`] — the tactic engine (`intros`, `apply`, `rewrite`,
//!   `induction`, `eauto`, `lia`, tacticals, ...);
//! * [`parse`] — the tactic-script parser.
//!
//! # Examples
//!
//! ```
//! use minicoq::env::Env;
//! use minicoq::goal::ProofState;
//! use minicoq::parse::{parse_formula, parse_tactic, split_sentences};
//!
//! let env = Env::with_prelude();
//! let stmt = parse_formula(&env, "forall n : nat, n = n").unwrap();
//! let mut st = ProofState::new(stmt);
//! for sentence in split_sentences("intros. reflexivity.") {
//!     let tac = parse_tactic(&env, st.focused(), &sentence).unwrap();
//!     st = minicoq::tactic::apply_tactic(&env, &st, &tac, &mut Default::default()).unwrap();
//! }
//! assert!(st.is_complete());
//! ```

pub mod analysis;
pub mod env;
pub mod error;
pub mod eval;
pub mod formula;
pub mod fuel;
pub mod goal;
pub mod ident;
pub mod intern;
pub mod parse;
pub mod pretty;
pub mod refs;
pub mod replay;
pub mod rule;
pub mod sort;
pub mod statehash;
pub mod subst;
pub mod tactic;
pub mod term;
pub mod typing;
pub mod unify;
pub mod walk;

pub use ident::Ident;

//! Gallina-lite: the vernacular language of minicoq developments.
//!
//! A development is a set of `.v`-style source files containing
//! declarations:
//!
//! ```text
//! Require Import NatUtils.
//! Sort T.
//! Inductive tree := | Leaf | Node (l : tree) (v : nat) (r : tree).
//! Inductive Sorted : list nat -> Prop := | Sorted_nil : Sorted nil | ...
//! Fixpoint app (A : Sort) (l1 l2 : list A) : list A := match l1 with ... end.
//! Definition incl (A : Sort) (l1 l2 : list A) : Prop := forall x : A, ...
//! Lemma app_nil_r : forall (A : Sort) (l : list A), app l nil = l.
//! Proof. induction l. - reflexivity. - simpl. rewrite IHl. reflexivity. Qed.
//! Hint Resolve app_nil_r.
//! Hint Constructors Sorted.
//! ```
//!
//! The [`loader::Loader`] elaborates files in import order, replays every
//! proof through the kernel (so the corpus's "human" proofs are *checked*,
//! not trusted), and records per-item source text and line so the oracle
//! can build prompts that mirror the original files and audits (the
//! `corpus-analysis` crate) can point at a declaration.

pub mod emit;
pub mod item;
pub mod loader;
pub mod parser;

pub use emit::ModuleBuilder;
pub use item::{Item, ItemKind};
pub use loader::{Development, LoadError, Loader, TheoremInfo};

//! The global environment: declared sorts, inductive datatypes, functions,
//! predicates, lemmas and hint databases.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::KernelError;
use crate::formula::Formula;
use crate::refs::LemmaFacts;
use crate::sort::Sort;
use crate::term::{Pat, Term};
use crate::Ident;

/// An inductive datatype declaration.
#[derive(Debug, Clone)]
pub struct Inductive {
    /// The name of the type (also the name of its sort constructor when it
    /// has parameters, or of its atom sort when it has none).
    pub name: Ident,
    /// Sort parameters, e.g. `A` for `list A`.
    pub params: Vec<Ident>,
    /// The constructors.
    pub ctors: Vec<Ctor>,
}

impl Inductive {
    /// The sort denoted by this inductive applied to its formal parameters.
    pub fn self_sort(&self) -> Sort {
        if self.params.is_empty() {
            Sort::Atom(self.name.clone())
        } else {
            Sort::App(
                self.name.clone(),
                self.params.iter().map(|p| Sort::Var(p.clone())).collect(),
            )
        }
    }
}

/// A constructor of an inductive datatype.
#[derive(Debug, Clone)]
pub struct Ctor {
    /// Constructor name, globally unique.
    pub name: Ident,
    /// Argument sorts; may mention the inductive's parameters and the
    /// inductive itself (recursive positions).
    pub args: Vec<Sort>,
}

/// A function definition (`Definition` or `Fixpoint`).
#[derive(Debug, Clone)]
pub struct FuncDef {
    /// Function name.
    pub name: Ident,
    /// Sort parameters for polymorphic functions.
    pub sort_params: Vec<Ident>,
    /// Named, sorted value parameters.
    pub params: Vec<(Ident, Sort)>,
    /// Result sort.
    pub ret: Sort,
    /// The body, typically a `match` tree over some parameter.
    pub body: Term,
    /// True for `Fixpoint`s; recursion must be structural.
    pub recursive: bool,
    /// For `Fixpoint`s, the index of the structurally decreasing parameter.
    pub struct_arg: Option<usize>,
}

/// A predicate defined by a formula (`Definition ... : Prop` or
/// `Fixpoint ... : Prop`).
#[derive(Debug, Clone)]
pub struct DefinedPred {
    /// Predicate name.
    pub name: Ident,
    /// Sort parameters.
    pub sort_params: Vec<Ident>,
    /// Named, sorted parameters.
    pub params: Vec<(Ident, Sort)>,
    /// Defining formula.
    pub body: Formula,
    /// True when the body mentions the predicate itself.
    pub recursive: bool,
    /// For recursive predicates, the structurally decreasing parameter.
    pub struct_arg: Option<usize>,
}

/// An inductively defined predicate with introduction rules.
#[derive(Debug, Clone)]
pub struct IndPred {
    /// Predicate name.
    pub name: Ident,
    /// Sort parameters.
    pub sort_params: Vec<Ident>,
    /// Argument sorts (may mention sort parameters).
    pub arg_sorts: Vec<Sort>,
    /// Introduction rules: `(rule name, closed rule statement)`. Statements
    /// may use the sort parameters as free sort variables.
    pub rules: Vec<(Ident, Formula)>,
}

/// A predicate declaration.
#[derive(Debug, Clone)]
pub enum PredDef {
    /// Defined by a formula, unfoldable.
    Defined(DefinedPred),
    /// Defined by introduction rules.
    Inductive(IndPred),
}

impl PredDef {
    /// The predicate's name.
    pub fn name(&self) -> &Ident {
        match self {
            PredDef::Defined(d) => &d.name,
            PredDef::Inductive(i) => &i.name,
        }
    }

    /// The predicate's arity.
    pub fn arity(&self) -> usize {
        match self {
            PredDef::Defined(d) => d.params.len(),
            PredDef::Inductive(i) => i.arg_sorts.len(),
        }
    }
}

/// A proved lemma or theorem available for `apply`, `rewrite` and hints.
#[derive(Clone)]
pub struct Lemma {
    /// Lemma name.
    pub name: Ident,
    /// Closed statement; polymorphism is a `ForallSort` prefix.
    pub stmt: Formula,
    /// Facts about `stmt`, filled on the first [`Lemma::facts`] call.
    facts: OnceLock<LemmaFacts>,
}

impl Lemma {
    /// The static ranking facts of the statement, computed on first use.
    /// Every snapshot holding this lemma shares its `Arc`, and with it
    /// the facts, so a corpus computes them once per lemma. A declared
    /// lemma's statement never changes, so the facts never go stale.
    pub fn facts(&self) -> &LemmaFacts {
        self.facts.get_or_init(|| LemmaFacts::of(&self.stmt))
    }
}

/// The facts are a cache of `stmt`, so they stay out of the `Debug` form.
impl fmt::Debug for Lemma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lemma")
            .field("name", &self.name)
            .field("stmt", &self.stmt)
            .finish()
    }
}

/// Location of a constructor within the environment.
#[derive(Debug, Clone)]
pub struct CtorInfo {
    /// The inductive the constructor belongs to.
    pub ind: Ident,
    /// Its index within the inductive's constructor list.
    pub index: usize,
}

/// A process-unique id naming one immutable *value state* of an [`Env`].
///
/// Fresh ids are allocated on construction, on clone, and on every
/// declaration, so two environments with equal uids hold identical
/// declarations. The simulated oracle's prompt-preparation cache keys on
/// this instead of on environment contents. A clone getting a new uid never
/// costs correctness, but it starts that cache cold, so a cache keyed here
/// is only free for environments that are not cloned per search. The
/// `auto`/`eauto` hint index is therefore built per invocation instead.
/// Per-lemma facts ([`Lemma::facts`]) are not keyed here: they
/// live in the `Arc<Lemma>`, so every snapshot and clone that holds the
/// lemma shares them whatever its uid, and a new uid never recomputes them.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnvUid(u64);

impl EnvUid {
    fn fresh() -> EnvUid {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        EnvUid(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl Default for EnvUid {
    fn default() -> EnvUid {
        EnvUid::fresh()
    }
}

impl Clone for EnvUid {
    fn clone(&self) -> EnvUid {
        EnvUid::fresh()
    }
}

/// The global environment of a development.
///
/// Every collection is behind an `Arc`, so cloning an environment is a
/// handful of reference-count bumps and snapshots share storage with the
/// original (copy-on-write: mutating methods use [`Arc::make_mut`], which
/// copies a collection when some snapshot still aliases it). That copy is
/// shallow only where the entries are themselves shared: lemmas are
/// `Arc<Lemma>`, and the lemma index and hint databases hold `Arc<str>`
/// names, so the first `add_lemma`/`add_hint` after a snapshot copies one
/// pointer per earlier entry and clones no statement or name. A per-theorem
/// snapshot sequence over `n` lemmas therefore costs O(n²) pointers, not
/// O(n²) formulas. Sorts, inductives, functions and predicates are still
/// copied entry by entry when declared after a snapshot; corpora declare
/// few of them. Readers are unaffected: all lookup methods auto-deref
/// through the `Arc`s.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Process-unique id of this environment value; see [`EnvUid`].
    pub uid: EnvUid,
    /// Declared atomic sorts (`nat`, `bool`, opaque sorts).
    pub sorts: Arc<BTreeSet<Ident>>,
    /// Declared sort constructors with arities (`list/1`, `prod/2`).
    pub sort_ctors: Arc<BTreeMap<Ident, usize>>,
    /// Inductive datatypes by name.
    pub inductives: Arc<BTreeMap<Ident, Inductive>>,
    /// Constructor name to inductive lookup.
    pub ctors: Arc<BTreeMap<Ident, CtorInfo>>,
    /// Function definitions by name.
    pub funcs: Arc<BTreeMap<Ident, FuncDef>>,
    /// Predicate declarations by name.
    pub preds: Arc<BTreeMap<Ident, PredDef>>,
    /// Lemmas in declaration order, each shared by every snapshot that
    /// sees it.
    pub lemmas: Arc<Vec<Arc<Lemma>>>,
    /// Lemma name to index lookup.
    pub lemma_index: Arc<BTreeMap<Arc<str>, usize>>,
    /// Hint databases (`core` is used by `auto`/`eauto`), by name.
    pub hints: Arc<BTreeMap<Arc<str>, Vec<Arc<str>>>>,
}

impl Env {
    /// An empty environment with no declarations at all.
    pub fn empty() -> Env {
        Env::default()
    }

    /// An environment with the built-in prelude: `nat`, `bool`, `list`,
    /// `prod`, `option`, arithmetic and boolean functions, and the `le`
    /// order with its derived relations.
    pub fn with_prelude() -> Env {
        let mut env = Env::empty();
        env.install_prelude();
        env
    }

    /// Declares an opaque atomic sort.
    pub fn declare_sort(&mut self, name: impl Into<Ident>) {
        self.uid = EnvUid::fresh();
        Arc::make_mut(&mut self.sorts).insert(name.into());
    }

    /// Declares a sort constructor of the given arity (e.g. `list/1`).
    pub fn declare_sort_ctor(&mut self, name: impl Into<Ident>, arity: usize) {
        self.uid = EnvUid::fresh();
        Arc::make_mut(&mut self.sort_ctors).insert(name.into(), arity);
    }

    /// Returns true if `name` is a declared atomic sort.
    pub fn has_sort(&self, name: &str) -> bool {
        self.sorts.contains(name)
    }

    /// Declares an inductive datatype, registering its constructors and its
    /// sort (atom or constructor, depending on parameters).
    pub fn declare_inductive(&mut self, ind: Inductive) -> Result<(), KernelError> {
        self.uid = EnvUid::fresh();
        if self.inductives.contains_key(&ind.name) {
            return Err(KernelError::Redeclared(ind.name.clone()));
        }
        for (i, c) in ind.ctors.iter().enumerate() {
            if self.ctors.contains_key(&c.name) {
                return Err(KernelError::Redeclared(c.name.clone()));
            }
            Arc::make_mut(&mut self.ctors).insert(
                c.name.clone(),
                CtorInfo {
                    ind: ind.name.clone(),
                    index: i,
                },
            );
        }
        if ind.params.is_empty() {
            Arc::make_mut(&mut self.sorts).insert(ind.name.clone());
        } else {
            Arc::make_mut(&mut self.sort_ctors).insert(ind.name.clone(), ind.params.len());
        }
        Arc::make_mut(&mut self.inductives).insert(ind.name.clone(), ind);
        Ok(())
    }

    /// Declares a function definition.
    pub fn declare_func(&mut self, f: FuncDef) -> Result<(), KernelError> {
        self.uid = EnvUid::fresh();
        if self.funcs.contains_key(&f.name) || self.ctors.contains_key(&f.name) {
            return Err(KernelError::Redeclared(f.name.clone()));
        }
        Arc::make_mut(&mut self.funcs).insert(f.name.clone(), f);
        Ok(())
    }

    /// Declares a predicate.
    pub fn declare_pred(&mut self, p: PredDef) -> Result<(), KernelError> {
        self.uid = EnvUid::fresh();
        let name = p.name().clone();
        if self.preds.contains_key(&name) {
            return Err(KernelError::Redeclared(name));
        }
        Arc::make_mut(&mut self.preds).insert(name, p);
        Ok(())
    }

    /// Records a proved lemma, making it available to tactics.
    pub fn add_lemma(&mut self, name: impl Into<Ident>, stmt: Formula) -> Result<(), KernelError> {
        self.uid = EnvUid::fresh();
        let name = name.into();
        if self.lemma_index.contains_key(name.as_str()) {
            return Err(KernelError::Redeclared(name));
        }
        Arc::make_mut(&mut self.lemma_index).insert(Arc::from(name.as_str()), self.lemmas.len());
        Arc::make_mut(&mut self.lemmas).push(Arc::new(Lemma {
            name,
            stmt,
            facts: OnceLock::new(),
        }));
        Ok(())
    }

    /// Looks up a lemma statement by name.
    pub fn lemma(&self, name: &str) -> Option<&Lemma> {
        self.lemma_index.get(name).map(|&i| &*self.lemmas[i])
    }

    /// Adds a lemma (or inductive-predicate rule) name to a hint database.
    pub fn add_hint(&mut self, db: &str, name: impl Into<Ident>) {
        self.uid = EnvUid::fresh();
        let name = name.into();
        let v = Arc::make_mut(&mut self.hints)
            .entry(Arc::from(db))
            .or_default();
        if !v.iter().any(|h| **h == *name) {
            v.push(Arc::from(name));
        }
    }

    /// The hints in a database, empty if the database does not exist.
    pub fn hint_db(&self, db: &str) -> &[Arc<str>] {
        self.hints.get(db).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolves a name usable as an `apply` target that is not a hypothesis:
    /// a lemma or an inductive-predicate rule. Returns its closed statement.
    pub fn rule_or_lemma(&self, name: &str) -> Option<Formula> {
        if let Some(l) = self.lemma(name) {
            return Some(l.stmt.clone());
        }
        for p in self.preds.values() {
            if let PredDef::Inductive(ip) = p {
                for (rn, stmt) in &ip.rules {
                    if rn == name {
                        // Close over the predicate's sort parameters.
                        let mut f = stmt.clone();
                        for sp in ip.sort_params.iter().rev() {
                            f = Formula::ForallSort(sp.clone(), Box::new(f));
                        }
                        return Some(f);
                    }
                }
            }
        }
        None
    }

    /// Instantiates the constructor argument sorts of `ctor` so that the
    /// constructor's result has sort `result`. Returns `None` when `ctor` is
    /// unknown or `result` does not match its inductive.
    pub fn ctor_arg_sorts(&self, ctor: &str, result: &Sort) -> Option<Vec<Sort>> {
        let info = self.ctors.get(ctor)?;
        let ind = self.inductives.get(&info.ind)?;
        let sargs: Vec<Sort> = match result {
            Sort::Atom(n) if *n == ind.name && ind.params.is_empty() => Vec::new(),
            Sort::App(n, sargs) if *n == ind.name && sargs.len() == ind.params.len() => {
                sargs.clone()
            }
            _ => return None,
        };
        let map: BTreeMap<Ident, Sort> = ind.params.iter().cloned().zip(sargs).collect();
        let c = &ind.ctors[info.index];
        Some(c.args.iter().map(|s| s.subst_vars(&map)).collect())
    }

    /// The inductive datatype a sort denotes, if any, together with the sort
    /// arguments it is applied to.
    pub fn sort_inductive<'a>(&'a self, s: &Sort) -> Option<(&'a Inductive, Vec<Sort>)> {
        match s {
            Sort::Atom(n) => {
                let ind = self.inductives.get(n)?;
                if ind.params.is_empty() {
                    Some((ind, Vec::new()))
                } else {
                    None
                }
            }
            Sort::App(n, args) => {
                let ind = self.inductives.get(n)?;
                if ind.params.len() == args.len() {
                    Some((ind, args.clone()))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn install_prelude(&mut self) {
        let nat = Sort::nat();
        let bool_ = Sort::bool();

        self.declare_inductive(Inductive {
            name: "nat".into(),
            params: vec![],
            ctors: vec![
                Ctor {
                    name: "O".into(),
                    args: vec![],
                },
                Ctor {
                    name: "S".into(),
                    args: vec![nat.clone()],
                },
            ],
        })
        .expect("prelude nat");

        self.declare_inductive(Inductive {
            name: "bool".into(),
            params: vec![],
            ctors: vec![
                Ctor {
                    name: "true".into(),
                    args: vec![],
                },
                Ctor {
                    name: "false".into(),
                    args: vec![],
                },
            ],
        })
        .expect("prelude bool");

        self.declare_inductive(Inductive {
            name: "list".into(),
            params: vec!["A".into()],
            ctors: vec![
                Ctor {
                    name: "nil".into(),
                    args: vec![],
                },
                Ctor {
                    name: "cons".into(),
                    args: vec![Sort::Var("A".into()), Sort::list(Sort::Var("A".into()))],
                },
            ],
        })
        .expect("prelude list");

        self.declare_inductive(Inductive {
            name: "prod".into(),
            params: vec!["A".into(), "B".into()],
            ctors: vec![Ctor {
                name: "pair".into(),
                args: vec![Sort::Var("A".into()), Sort::Var("B".into())],
            }],
        })
        .expect("prelude prod");

        self.declare_inductive(Inductive {
            name: "option".into(),
            params: vec!["A".into()],
            ctors: vec![
                Ctor {
                    name: "Some".into(),
                    args: vec![Sort::Var("A".into())],
                },
                Ctor {
                    name: "None".into(),
                    args: vec![],
                },
            ],
        })
        .expect("prelude option");

        // Arithmetic on nat, defined by structural recursion on the first
        // argument (mirroring Coq's standard library).
        let rec_nat2 = |name: &str, body: Term| FuncDef {
            name: name.into(),
            sort_params: vec![],
            params: vec![("n".into(), nat.clone()), ("m".into(), nat.clone())],
            ret: nat.clone(),
            body,
            recursive: true,
            struct_arg: Some(0),
        };

        // add n m = match n with O => m | S p => S (add p m) end.
        self.declare_func(rec_nat2(
            "add",
            Term::Match(
                Box::new(Term::var("n")),
                vec![
                    (Pat::Ctor("O".into(), vec![]), Term::var("m")),
                    (
                        Pat::Ctor("S".into(), vec!["p".into()]),
                        Term::App(
                            "S".into(),
                            vec![Term::App(
                                "add".into(),
                                vec![Term::var("p"), Term::var("m")],
                            )],
                        ),
                    ),
                ],
            ),
        ))
        .expect("prelude add");

        // sub n m = match n with O => O | S p => match m with O => n | S q => sub p q end end.
        self.declare_func(rec_nat2(
            "sub",
            Term::Match(
                Box::new(Term::var("n")),
                vec![
                    (Pat::Ctor("O".into(), vec![]), Term::cst("O")),
                    (
                        Pat::Ctor("S".into(), vec!["p".into()]),
                        Term::Match(
                            Box::new(Term::var("m")),
                            vec![
                                (Pat::Ctor("O".into(), vec![]), Term::var("n")),
                                (
                                    Pat::Ctor("S".into(), vec!["q".into()]),
                                    Term::App("sub".into(), vec![Term::var("p"), Term::var("q")]),
                                ),
                            ],
                        ),
                    ),
                ],
            ),
        ))
        .expect("prelude sub");

        // mul n m = match n with O => O | S p => add m (mul p m) end.
        self.declare_func(rec_nat2(
            "mul",
            Term::Match(
                Box::new(Term::var("n")),
                vec![
                    (Pat::Ctor("O".into(), vec![]), Term::cst("O")),
                    (
                        Pat::Ctor("S".into(), vec!["p".into()]),
                        Term::App(
                            "add".into(),
                            vec![
                                Term::var("m"),
                                Term::App("mul".into(), vec![Term::var("p"), Term::var("m")]),
                            ],
                        ),
                    ),
                ],
            ),
        ))
        .expect("prelude mul");

        // eqb n m : bool — structural equality test on nat.
        self.declare_func(FuncDef {
            name: "eqb".into(),
            sort_params: vec![],
            params: vec![("n".into(), nat.clone()), ("m".into(), nat.clone())],
            ret: bool_.clone(),
            body: Term::Match(
                Box::new(Term::var("n")),
                vec![
                    (
                        Pat::Ctor("O".into(), vec![]),
                        Term::Match(
                            Box::new(Term::var("m")),
                            vec![
                                (Pat::Ctor("O".into(), vec![]), Term::cst("true")),
                                (Pat::Ctor("S".into(), vec!["q".into()]), Term::cst("false")),
                            ],
                        ),
                    ),
                    (
                        Pat::Ctor("S".into(), vec!["p".into()]),
                        Term::Match(
                            Box::new(Term::var("m")),
                            vec![
                                (Pat::Ctor("O".into(), vec![]), Term::cst("false")),
                                (
                                    Pat::Ctor("S".into(), vec!["q".into()]),
                                    Term::App("eqb".into(), vec![Term::var("p"), Term::var("q")]),
                                ),
                            ],
                        ),
                    ),
                ],
            ),
            recursive: true,
            struct_arg: Some(0),
        })
        .expect("prelude eqb");

        // leb n m : bool.
        self.declare_func(FuncDef {
            name: "leb".into(),
            sort_params: vec![],
            params: vec![("n".into(), nat.clone()), ("m".into(), nat.clone())],
            ret: bool_.clone(),
            body: Term::Match(
                Box::new(Term::var("n")),
                vec![
                    (Pat::Ctor("O".into(), vec![]), Term::cst("true")),
                    (
                        Pat::Ctor("S".into(), vec!["p".into()]),
                        Term::Match(
                            Box::new(Term::var("m")),
                            vec![
                                (Pat::Ctor("O".into(), vec![]), Term::cst("false")),
                                (
                                    Pat::Ctor("S".into(), vec!["q".into()]),
                                    Term::App("leb".into(), vec![Term::var("p"), Term::var("q")]),
                                ),
                            ],
                        ),
                    ),
                ],
            ),
            recursive: true,
            struct_arg: Some(0),
        })
        .expect("prelude leb");

        // Boolean connectives.
        let bool2 = |name: &str, body: Term| FuncDef {
            name: name.into(),
            sort_params: vec![],
            params: vec![("a".into(), bool_.clone()), ("b".into(), bool_.clone())],
            ret: bool_.clone(),
            body,
            recursive: false,
            struct_arg: None,
        };
        self.declare_func(bool2(
            "andb",
            Term::Match(
                Box::new(Term::var("a")),
                vec![
                    (Pat::Ctor("true".into(), vec![]), Term::var("b")),
                    (Pat::Ctor("false".into(), vec![]), Term::cst("false")),
                ],
            ),
        ))
        .expect("prelude andb");
        self.declare_func(bool2(
            "orb",
            Term::Match(
                Box::new(Term::var("a")),
                vec![
                    (Pat::Ctor("true".into(), vec![]), Term::cst("true")),
                    (Pat::Ctor("false".into(), vec![]), Term::var("b")),
                ],
            ),
        ))
        .expect("prelude orb");
        self.declare_func(FuncDef {
            name: "negb".into(),
            sort_params: vec![],
            params: vec![("a".into(), bool_.clone())],
            ret: bool_.clone(),
            body: Term::Match(
                Box::new(Term::var("a")),
                vec![
                    (Pat::Ctor("true".into(), vec![]), Term::cst("false")),
                    (Pat::Ctor("false".into(), vec![]), Term::cst("true")),
                ],
            ),
            recursive: false,
            struct_arg: None,
        })
        .expect("prelude negb");

        // le as an inductive predicate, following Coq's definition.
        let le_n = Formula::forall(
            "n",
            nat.clone(),
            Formula::Pred("le".into(), vec![], vec![Term::var("n"), Term::var("n")]),
        );
        let le_s = Formula::forall(
            "n",
            nat.clone(),
            Formula::forall(
                "m",
                nat.clone(),
                Formula::implies(
                    Formula::Pred("le".into(), vec![], vec![Term::var("n"), Term::var("m")]),
                    Formula::Pred(
                        "le".into(),
                        vec![],
                        vec![Term::var("n"), Term::App("S".into(), vec![Term::var("m")])],
                    ),
                ),
            ),
        );
        self.declare_pred(PredDef::Inductive(IndPred {
            name: "le".into(),
            sort_params: vec![],
            arg_sorts: vec![nat.clone(), nat.clone()],
            rules: vec![("le_n".into(), le_n), ("le_S".into(), le_s)],
        }))
        .expect("prelude le");

        // lt / ge / gt as definitions over le.
        let defined2 = |name: &str, body: Formula| {
            PredDef::Defined(DefinedPred {
                name: name.into(),
                sort_params: vec![],
                params: vec![("n".into(), nat.clone()), ("m".into(), nat.clone())],
                body,
                recursive: false,
                struct_arg: None,
            })
        };
        self.declare_pred(defined2(
            "lt",
            Formula::Pred(
                "le".into(),
                vec![],
                vec![Term::App("S".into(), vec![Term::var("n")]), Term::var("m")],
            ),
        ))
        .expect("prelude lt");
        self.declare_pred(defined2(
            "ge",
            Formula::Pred("le".into(), vec![], vec![Term::var("m"), Term::var("n")]),
        ))
        .expect("prelude ge");
        self.declare_pred(defined2(
            "gt",
            Formula::Pred("lt".into(), vec![], vec![Term::var("m"), Term::var("n")]),
        ))
        .expect("prelude gt");

        self.add_hint("core", "le_n");
        self.add_hint("core", "le_S");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_declares_basics() {
        let env = Env::with_prelude();
        assert!(env.has_sort("nat"));
        assert!(env.inductives.contains_key("list"));
        assert!(env.funcs.contains_key("add"));
        assert!(env.preds.contains_key("le"));
        assert!(env.rule_or_lemma("le_n").is_some());
    }

    #[test]
    fn ctor_arg_sorts_instantiate_params() {
        let env = Env::with_prelude();
        let s = Sort::list(Sort::nat());
        let args = env.ctor_arg_sorts("cons", &s).unwrap();
        assert_eq!(args, vec![Sort::nat(), Sort::list(Sort::nat())]);
        assert!(env.ctor_arg_sorts("cons", &Sort::nat()).is_none());
    }

    #[test]
    fn redeclaration_rejected() {
        let mut env = Env::with_prelude();
        let err = env.declare_inductive(Inductive {
            name: "nat".into(),
            params: vec![],
            ctors: vec![],
        });
        assert!(err.is_err());
    }

    #[test]
    fn hint_db_dedups() {
        let mut env = Env::empty();
        env.add_hint("core", "a");
        env.add_hint("core", "a");
        assert_eq!(env.hint_db("core").len(), 1);
        assert!(env.hint_db("missing").is_empty());
    }

    #[test]
    fn declarations_after_a_snapshot_share_earlier_lemmas_and_hints() {
        let mut env = Env::with_prelude();
        for name in ["a", "b", "c"] {
            env.add_lemma(name, Formula::True).unwrap();
            env.add_hint("core", name);
        }
        let snap = env.clone();
        env.add_lemma("d", Formula::True).unwrap();
        env.add_hint("core", "d");
        env.add_hint("other", "d");

        assert_eq!(snap.lemmas.len(), 3);
        for i in 0..snap.lemmas.len() {
            assert!(Arc::ptr_eq(&snap.lemmas[i], &env.lemmas[i]), "lemma {i}");
        }
        for (name, i) in snap.lemma_index.iter() {
            let (key, &j) = env.lemma_index.get_key_value(&**name).unwrap();
            assert!(Arc::ptr_eq(name, key) && *i == j, "index key {name}");
        }
        let (old, new) = (snap.hint_db("core"), env.hint_db("core"));
        for (i, h) in old.iter().enumerate() {
            assert!(Arc::ptr_eq(h, &new[i]), "core hint {h}");
        }
        let (db, _) = env.hints.get_key_value("core").unwrap();
        assert!(Arc::ptr_eq(db, snap.hints.get_key_value("core").unwrap().0));

        assert_ne!(snap.uid, env.uid);
        assert!(snap.lemma("d").is_none() && env.lemma("d").is_some());
        assert!(!snap.hint_db("core").iter().any(|h| &**h == "d"));
        assert!(snap.hint_db("other").is_empty());
        assert_eq!(env.hint_db("core").len(), old.len() + 1);
    }

    #[test]
    fn lemma_facts_are_shared_by_later_snapshots_and_stay_out_of_debug() {
        let mut env = Env::with_prelude();
        let stmt = Formula::Pred("le".into(), vec![], vec![Term::nat(0), Term::nat(1)]);
        env.add_lemma("a", stmt).unwrap();
        let snap = env.clone();
        env.add_lemma("b", Formula::True).unwrap();
        let facts = snap.lemmas[0].facts();
        assert!(std::ptr::eq(facts, env.lemmas[0].facts()));
        assert_eq!(&*facts.refs, ["O", "S", "le"]);
        let lemma = env.lemma("a").unwrap();
        assert_eq!(
            format!("{lemma:?}"),
            format!("Lemma {{ name: \"a\", stmt: {:?} }}", lemma.stmt)
        );
    }
}

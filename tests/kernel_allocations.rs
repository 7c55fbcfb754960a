//! Allocation bounds on the kernel's tree operations. Substitution and
//! zonking hand back the input's own subtrees wherever they change
//! nothing, and unification borrows its inputs, so on the corpus's
//! theorem statements:
//!
//! - substituting for variables a statement does not mention allocates
//!   no more than one clone of the statement (the owned result);
//! - zonking a statement that holds no metavariable does the same;
//! - unifying a statement with an equal copy of itself allocates nothing.
//!
//! This binary counts heap allocations per thread with its own global
//! allocator, so it runs apart from the other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use llm_fscq::corpus::Corpus;
use llm_fscq::minicoq::formula::Formula;
use llm_fscq::minicoq::fuel::Fuel;
use llm_fscq::minicoq::sort::Sort;
use llm_fscq::minicoq::subst::{subst_formula, zonk_formula, TermSubst};
use llm_fscq::minicoq::term::Term;
use llm_fscq::minicoq::unify::Unifier;

/// The system allocator, counting the allocations (fresh and grown) each
/// thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Every theorem statement of the corpus, by name. None holds a
/// metavariable.
fn statements() -> Vec<(String, Formula)> {
    let corpus = Corpus::load();
    let out: Vec<(String, Formula)> = corpus
        .dev
        .theorems
        .iter()
        .map(|thm| (thm.name.to_string(), thm.stmt.clone()))
        .collect();
    assert!(out.len() > 200, "the corpus loads");
    assert!(out.iter().all(|(_, f)| f.is_ground()));
    out
}

/// Asserts that `op` allocates no more on any statement than cloning it.
fn at_most_a_clone(what: &str, op: impl Fn(&Formula) -> Formula) {
    let mut over = Vec::new();
    let (mut total, mut clones) = (0, 0);
    for (name, f) in statements() {
        let (clone, copy) = allocations(|| f.clone());
        let (n, out) = allocations(|| op(&f));
        assert_eq!(out, copy, "{what} changed {name}");
        total += n;
        clones += clone;
        if n > clone {
            over.push(format!("{name}: {n} > {clone}"));
        }
    }
    eprintln!("{what}: {total} allocations over the corpus, {clones} to clone it");
    assert!(
        over.is_empty(),
        "{what} allocates more than a clone on {} statements: {}",
        over.len(),
        over.join(", ")
    );
}

#[test]
fn substituting_absent_variables_allocates_at_most_a_clone() {
    let map = TermSubst::from([
        (
            "#absent".into(),
            Term::App("S".into(), vec![Term::cst("O")]),
        ),
        ("#absent2".into(), Term::cst("O")),
    ]);
    at_most_a_clone("subst_formula", |f| subst_formula(f, &map));
}

#[test]
fn zonking_a_ground_formula_allocates_at_most_a_clone() {
    let metas = BTreeMap::from([(0, Term::cst("O")), (1, Term::Meta(0))]);
    let smetas = BTreeMap::from([(0, Sort::nat())]);
    at_most_a_clone("zonk_formula", |f| zonk_formula(f, &metas, &smetas));
}

#[test]
fn unifying_equal_ground_formulas_allocates_nothing() {
    let mut over = Vec::new();
    for (name, f) in statements() {
        let g = f.clone();
        let mut uni = Unifier::new();
        let mut fuel = Fuel::unlimited();
        let (n, ok) = allocations(|| uni.unify_formulas(&f, &g, &mut fuel).is_ok());
        assert!(ok, "{name} unifies with itself");
        if n > 0 {
            over.push(format!("{name}: {n}"));
        }
    }
    assert!(
        over.is_empty(),
        "unify_formulas allocates on {} statements: {}",
        over.len(),
        over.join(", ")
    );
}

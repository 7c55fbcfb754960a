//! Allocation bound on warm prompt construction. Once a cell's prompt
//! cache holds every item, a prompt is a view of shared items: building
//! one allocates its few handle lists and the goal line, never a copy of
//! the rendered text, a lemma name or a hint script. This binary counts
//! heap allocations per thread with its own global allocator, so it runs
//! apart from the other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use llm_fscq::corpus::Corpus;
use llm_fscq::oracle::prompt::{build_prompt_cached, PromptCache, PromptConfig};
use llm_fscq::oracle::split::hint_set;

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

/// The most allocations one warm prompt may make.
const MAX_WARM_ALLOCATIONS: usize = 48;

#[test]
fn a_warm_prompt_allocates_only_its_view() {
    let corpus = Corpus::load();
    let dev = &corpus.dev;
    let hints = hint_set(dev);
    let mut over = Vec::new();
    // Minimal and retrieval prompts are left out: their dependency and
    // retrieval sets are computed per theorem, outside the view.
    for cfg in [
        PromptConfig::vanilla(),
        PromptConfig::hints(),
        PromptConfig {
            window: Some(4_000),
            ..PromptConfig::hints()
        },
    ] {
        let cache = PromptCache::new();
        for thm in &dev.theorems {
            build_prompt_cached(dev, thm, &hints, &cfg, &cache);
        }
        let (mut total, mut worst) = (0, ("", 0));
        for thm in &dev.theorems {
            let before = ALLOCATIONS.with(Cell::get);
            let prompt = build_prompt_cached(dev, thm, &hints, &cfg, &cache);
            let n = ALLOCATIONS.with(Cell::get) - before;
            drop(prompt);
            total += n;
            if n > worst.1 {
                worst = (thm.name.as_str(), n);
            }
        }
        let line = format!(
            "{:?} window {:?}: {:.0} allocations per warm prompt on average, {} at most ({})",
            cfg.setting,
            cfg.window,
            total as f64 / dev.theorems.len() as f64,
            worst.1,
            worst.0
        );
        eprintln!("{line}");
        if worst.1 > MAX_WARM_ALLOCATIONS {
            over.push(line);
        }
    }
    assert!(
        over.is_empty(),
        "warm prompts over {MAX_WARM_ALLOCATIONS} allocations:\n{}",
        over.join("\n")
    );
}

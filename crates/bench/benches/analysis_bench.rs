//! Ranking-layer microbenchmarks: the per-search `RankCtx` build (the
//! reference graph over a theorem's environment snapshot, and the goal's
//! distances in it) on the last hard-tier snapshot of the pinned
//! generated corpus, the largest a `rank ab` search ranks against, and on
//! the last snapshot of the embedded corpus. The first iteration also
//! fills each lemma's shared facts; every later one measures what a
//! search pays once they are filled.

use std::path::Path;

use corpus_analysis::score::{install_model, Model, RankCtx};
use corpus_gen::generate_pinned;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fscq_corpus::Corpus;
use llm_fscq_bench::rank::{gen_dev, hard_tier, PINNED_SPEC};

/// Times `RankCtx::new` on the snapshot of `theorem`.
fn bench_snapshot(c: &mut Criterion, label: &str, corpus: &Corpus, theorem: &str) {
    let thm = corpus.dev.theorem(theorem).expect("theorem exists");
    let env = corpus.dev.env_before(thm);
    let name = format!("analysis/rank_ctx {label} ({} lemmas)", env.lemmas.len());
    c.bench_function(&name, |b| {
        b.iter(|| RankCtx::new(black_box(env), &thm.stmt).expect("a model is installed"))
    });
}

fn bench_rank_ctx(c: &mut Criterion) {
    // Building the context does not read the weights; any model of the
    // current schema will do.
    install_model(Model::train(&[], false));
    let spec = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(PINNED_SPEC);
    let generated = generate_pinned(&spec).expect("pinned corpus rebuilds");
    let tier = hard_tier(&generated);
    let gen = gen_dev(&generated).expect("pinned corpus loads");
    let last_hard = gen
        .dev
        .theorems
        .iter()
        .rev()
        .find(|t| tier.contains(&t.name))
        .expect("the hard tier is not empty");
    bench_snapshot(c, "gen_1k last hard-tier", &gen, &last_hard.name);
    let embedded = Corpus::load();
    let last = embedded.dev.theorems.last().expect("corpus is not empty");
    bench_snapshot(c, "embedded last", &embedded, &last.name);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rank_ctx
}
criterion_main!(benches);

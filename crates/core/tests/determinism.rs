//! Golden-transcript determinism and chaos-robustness suite.
//!
//! The paper's evaluation is only trustworthy if the search is a pure
//! function of its configuration: same corpus, same model profile, same
//! strategy → same proof scripts, same node-expansion order, byte for
//! byte. `SearchStats::expansions` records the exact sequence of state
//! ids the frontier popped, so the "transcript" here is the full
//! observable trace, not just the endpoint.
//!
//! The chaos half asserts the recovery invariant end to end: a run with
//! injected oracle faults (transient errors, garbage completions),
//! recovered by bounded retry, produces the *identical* transcript —
//! outcomes, scripts, query counts, expansion order — as a clean run.

use std::sync::Arc;

use proof_chaos::{FaultConfig, FaultPlan};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::{build_prompt, PromptConfig};
use proof_oracle::SimulatedModel;
use proof_search::{search_with_recovery, RecoveryConfig, SearchConfig, SearchResult, Strategy};

/// A fixed corpus slice mixing provable and hard theorems.
const SLICE: &[&str] = &[
    "add_0_l",
    "le_refl",
    "in_eq",
    "app_nil_l",
    "in_cons",
    "incl_refl",
];

fn run_one(theorem: &str, strategy: Strategy, recovery: &RecoveryConfig) -> SearchResult {
    run_limited(theorem, strategy, recovery, 24)
}

fn run_limited(
    theorem: &str,
    strategy: Strategy,
    recovery: &RecoveryConfig,
    query_limit: u32,
) -> SearchResult {
    let dev = fscq_corpus::load_corpus(false).unwrap();
    let thm = dev.theorem(theorem).unwrap();
    let env = dev.env_before(thm);
    let hints = proof_oracle::split::hint_set(&dev);
    let prompt = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
    let mut model = SimulatedModel::new(ModelProfile::gpt4o());
    let cfg = SearchConfig {
        strategy,
        query_limit,
        ..Default::default()
    };
    search_with_recovery(
        env, &thm.stmt, &thm.name, &mut model, &prompt, &cfg, recovery,
    )
}

/// Asserts two runs produced the same observable transcript.
fn assert_same_transcript(a: &SearchResult, b: &SearchResult, ctx: &str) {
    assert_eq!(a.outcome, b.outcome, "{ctx}: outcome diverged");
    assert_eq!(a.script_text(), b.script_text(), "{ctx}: script diverged");
    assert_eq!(
        a.stats.queries, b.stats.queries,
        "{ctx}: query count diverged"
    );
    assert_eq!(
        a.stats.expansions, b.stats.expansions,
        "{ctx}: node-expansion order diverged"
    );
    assert_eq!(
        a.stats.valid_tactics, b.stats.valid_tactics,
        "{ctx}: tactic taxonomy diverged"
    );
}

#[test]
fn golden_transcript_greedy_and_best_first() {
    for strategy in [Strategy::Greedy, Strategy::BestFirst] {
        for &name in SLICE {
            let clean = RecoveryConfig::default();
            let a = run_one(name, strategy, &clean);
            let b = run_one(name, strategy, &clean);
            assert!(
                !a.stats.expansions.is_empty(),
                "{name}: expansion trace not recorded"
            );
            assert_same_transcript(&a, &b, &format!("{name} under {strategy:?}"));
        }
    }
}

#[test]
fn expansion_order_distinguishes_strategies() {
    // The transcript is only a meaningful golden artifact if it actually
    // captures the discipline: greedy and best-first must diverge on at
    // least one theorem of the slice.
    let clean = RecoveryConfig::default();
    let diverged = SLICE.iter().any(|&name| {
        let g = run_one(name, Strategy::Greedy, &clean);
        let b = run_one(name, Strategy::BestFirst, &clean);
        g.stats.expansions != b.stats.expansions
    });
    assert!(
        diverged,
        "greedy and best-first popped identical orders everywhere"
    );
}

#[test]
fn recovered_faulted_run_matches_clean_transcript() {
    // The smoke plan injects transient oracle errors and garbage
    // completions (no spurious STM timeouts — those legitimately change
    // results and belong to the havoc plan only). Bounded retry must
    // recover every one of them invisibly.
    let plan = Arc::new(FaultPlan::new(FaultConfig::smoke(7)));
    let faulted = RecoveryConfig {
        backoff_ms: 0, // keep the suite fast; backoff timing is not under test
        ..RecoveryConfig::with_plan(Arc::clone(&plan))
    };
    let clean = RecoveryConfig::default();
    let mut total_faults = 0;
    for &name in SLICE {
        let a = run_one(name, Strategy::BestFirst, &clean);
        let b = run_one(name, Strategy::BestFirst, &faulted);
        assert_same_transcript(&a, &b, &format!("{name} clean vs recovered"));
        assert_eq!(a.stats.oracle_faults, 0, "{name}: clean run saw faults");
        total_faults += b.stats.oracle_faults;
    }
    assert!(
        total_faults > 0,
        "fault plan never fired — the recovery path was not exercised"
    );
}

#[test]
fn parallel_expansion_matches_sequential_transcript() {
    // `proof_jobs` is transport only: speculative parallel expansion must
    // reproduce the sequential search byte for byte — same outcomes, same
    // scripts, same node-expansion order — under every frontier
    // discipline and any worker count.
    let sequential = RecoveryConfig::default();
    for strategy in [
        Strategy::BestFirst,
        Strategy::Greedy,
        Strategy::BreadthFirst,
    ] {
        for &name in SLICE {
            let a = run_one(name, strategy, &sequential);
            for jobs in [2usize, 4] {
                let b = run_one(
                    name,
                    strategy,
                    &RecoveryConfig {
                        proof_jobs: jobs,
                        ..Default::default()
                    },
                );
                assert_same_transcript(
                    &a,
                    &b,
                    &format!("{name} under {strategy:?}, proof_jobs={jobs}"),
                );
            }
        }
    }
}

#[test]
fn every_query_budget_ends_the_same_at_every_width() {
    // The budget check is where a batch is cut short, so sweep it. At each
    // limit a speculative search must end exactly where the width-one
    // search ends: same outcome, expansions and query count. `in_cons` is
    // proved at the third query; `incl_refl` runs out of frontier at the
    // fourteenth, so limit 14 is a Stuck that a Fuelout check could miss.
    for &name in &["in_cons", "incl_refl"] {
        for query_limit in 0..=15 {
            let a = run_limited(
                name,
                Strategy::BestFirst,
                &RecoveryConfig::default(),
                query_limit,
            );
            for proof_jobs in [2usize, 3] {
                let recovery = RecoveryConfig {
                    proof_jobs,
                    ..Default::default()
                };
                let b = run_limited(name, Strategy::BestFirst, &recovery, query_limit);
                assert_same_transcript(
                    &a,
                    &b,
                    &format!("{name} limit {query_limit}, proof_jobs={proof_jobs}"),
                );
            }
        }
    }
}

#[test]
fn parallel_expansion_matches_under_chaos() {
    // The two transports compose: a parallel run whose oracle calls are
    // faulted (and recovered by bounded retry inside each worker) must
    // still match the clean sequential transcript. Discarded speculation
    // may consume some of a site's fault budget early — that only turns
    // injected faults into clean calls, which recovery makes invisible
    // either way.
    let clean = RecoveryConfig::default();
    for seed in [101, 202, 303] {
        let chaotic_parallel = RecoveryConfig {
            backoff_ms: 0,
            proof_jobs: 2,
            ..RecoveryConfig::with_plan(Arc::new(FaultPlan::new(FaultConfig::smoke(seed))))
        };
        for &name in &SLICE[..4] {
            let a = run_one(name, Strategy::BestFirst, &clean);
            let b = run_one(name, Strategy::BestFirst, &chaotic_parallel);
            assert_same_transcript(&a, &b, &format!("{name} seed {seed} parallel chaos"));
        }
    }
}

/// A small pinned-seed generated corpus: several modules, every knob
/// exercised, loaded the same way the `gen grid` bench loads it.
fn golden_gen_corpus() -> corpus_gen::GeneratedCorpus {
    let mut spec = corpus_gen::GenSpec::new(0xC0FFEE, 40);
    spec.theorems_per_module = 8;
    spec.knobs.depth = 3;
    corpus_gen::generate(&spec)
}

#[test]
fn generated_corpus_is_byte_identical_for_pinned_seed() {
    // The corpus itself is a golden artifact: same seed and knobs must
    // reproduce every module source and the manifest byte for byte.
    let a = golden_gen_corpus();
    let b = golden_gen_corpus();
    assert_eq!(a.modules, b.modules, "module sources diverged");
    assert_eq!(
        serde_json::to_string(&a.manifest).unwrap(),
        serde_json::to_string(&b.manifest).unwrap(),
        "manifest diverged"
    );
}

#[test]
fn generated_grid_is_byte_identical_across_jobs_and_proof_jobs() {
    // The full evaluation pipeline over a generated corpus is a pure
    // function of (seed, cell): worker count and within-proof speculation
    // are transport only, so the serialized cell result must not move by
    // a byte across `--jobs 1/2` and `--proof-jobs 1/2`.
    use proof_metrics::runner::Runner;
    use proof_metrics::{CellConfig, EvalScope};
    use proof_oracle::prompt::PromptSetting;

    let corpus = golden_gen_corpus();
    let dev = corpus.development(false).expect("generated corpus loads");
    let fscq = fscq_corpus::Corpus { dev };
    let mut cell = CellConfig::standard(ModelProfile::gpt4o_mini(), PromptSetting::Hints);
    cell.scope = EvalScope::Full;
    cell.variant = Some(format!("gen:{}", corpus.manifest.fingerprint));

    let run = |jobs: usize, proof_jobs: usize| {
        let recovery = RecoveryConfig {
            proof_jobs,
            ..Default::default()
        };
        let runner = Runner::from_env()
            .with_jobs(jobs)
            .without_cache()
            .with_recovery(recovery);
        let result = runner.run_cell(&fscq, &cell);
        serde_json::to_string_pretty(&result).expect("cell result serializes")
    };

    let baseline = run(1, 1);
    assert!(!baseline.is_empty());
    for (jobs, proof_jobs) in [(2, 1), (1, 2), (2, 2)] {
        assert_eq!(
            baseline,
            run(jobs, proof_jobs),
            "grid output diverged at jobs={jobs}, proof_jobs={proof_jobs}"
        );
    }
}

#[test]
fn havoc_plan_terminates_without_panic() {
    // With spurious STM timeouts armed the *results* may legitimately
    // shift (a timed-out tactic is a lost branch), but the search must
    // stay deterministic under the same seed and never panic.
    let recovery = |seed| RecoveryConfig {
        backoff_ms: 0,
        ..RecoveryConfig::with_plan(Arc::new(FaultPlan::new(FaultConfig::havoc(seed))))
    };
    for &name in &SLICE[..3] {
        let a = run_one(name, Strategy::BestFirst, &recovery(11));
        let b = run_one(name, Strategy::BestFirst, &recovery(11));
        assert_same_transcript(&a, &b, &format!("{name} havoc determinism"));
    }
}

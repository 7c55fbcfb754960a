//! Unit tests for the best-first search driver: outcome classification,
//! statistics accounting, strategy behaviour, and robustness against a
//! hostile model (garbage proposals must never panic or wedge the search —
//! the paper's protocol counts them as invalid and moves on).

use minicoq::env::Env;
use minicoq::parse::parse_formula;
use proof_oracle::model::{Proposal, QueryCtx, TacticModel};
use proof_oracle::prompt::PromptInfo;
use proof_search::search::{
    search, search_with_recovery, Outcome, PremiseRank, RecoveryConfig, SearchConfig, Strategy,
};

/// An empty prompt (the scripted models below ignore it).
fn empty_prompt() -> PromptInfo {
    PromptInfo {
        text: String::new(),
        tokens: 0,
        visible_lemmas: Vec::new(),
        hint_scripts: Vec::new(),
        truncated: false,
        fingerprint: 0,
    }
}

/// A deterministic model that proposes a fixed candidate list at every
/// query, most probable first.
struct FixedModel {
    candidates: Vec<(String, f64)>,
}

impl FixedModel {
    fn new<const N: usize>(c: [(&str, f64); N]) -> FixedModel {
        FixedModel {
            candidates: c.iter().map(|(s, p)| (s.to_string(), *p)).collect(),
        }
    }
}

impl TacticModel for FixedModel {
    fn name(&self) -> &str {
        "fixed"
    }
    fn propose(&mut self, _ctx: &QueryCtx<'_>, width: usize) -> Vec<Proposal> {
        self.candidates
            .iter()
            .take(width)
            .map(|(t, p)| Proposal {
                tactic: t.clone(),
                logprob: *p,
            })
            .collect()
    }
}

fn cfg() -> SearchConfig {
    SearchConfig {
        width: 8,
        query_limit: 32,
        tactic_fuel: 200_000,
        dedupe_states: true,
        strategy: Strategy::BestFirst,
        preflight: true,
        premise_rank: PremiseRank::Off,
    }
}

fn run(
    model: &mut dyn TacticModel,
    stmt: &str,
    cfg: &SearchConfig,
) -> proof_search::search::SearchResult {
    let env = Env::with_prelude();
    let f = parse_formula(&env, stmt).unwrap();
    let prompt = empty_prompt();
    search(&std::sync::Arc::new(env), &f, "t", model, &prompt, cfg)
}

// ------------------------------------------------------------------ outcomes

#[test]
fn proves_a_two_step_goal_and_reports_the_script() {
    let mut m = FixedModel::new([("intros n", -0.1), ("reflexivity", -0.2)]);
    let r = run(&mut m, "forall n : nat, n = n", &cfg());
    match &r.outcome {
        Outcome::Proved { script } => {
            assert_eq!(
                script,
                &vec!["intros n".to_string(), "reflexivity".to_string()]
            );
        }
        other => panic!("expected proof, got {other:?} ({:?})", r.stats),
    }
    assert_eq!(r.script_text().unwrap(), "intros n. reflexivity.");
    assert!(r.stats.queries >= 2);
    assert!(r.stats.valid_tactics >= 2);
}

#[test]
fn stuck_when_every_proposal_is_rejected() {
    let mut m = FixedModel::new([("apply nonexistent_lemma", -0.1), ("split", -0.2)]);
    let r = run(&mut m, "0 = 0", &cfg());
    assert!(matches!(r.outcome, Outcome::Stuck), "{:?}", r.outcome);
    // Both proposals are statically doomed (unknown lemma, `split` on an
    // equality), so the pre-flight filter prunes them without execution.
    assert!(r.stats.rejected + r.stats.preflight_pruned > 0);
    assert!(r.stats.preflight_pruned > 0);
    assert_eq!(r.stats.valid_tactics, 0);
    // Stuck must cost only the frontier's worth of queries, not the limit.
    assert!(r.stats.queries < cfg().query_limit);
}

#[test]
fn fuelout_when_valid_states_outrun_the_query_limit() {
    // `constructor` makes progress on `le 0 n` forever without closing it
    // within the limit.
    let mut m = FixedModel::new([("constructor", -0.1)]);
    let mut c = cfg();
    c.query_limit = 10;
    let r = run(&mut m, "le 0 100", &c);
    assert!(matches!(r.outcome, Outcome::Fuelout), "{:?}", r.outcome);
    assert_eq!(r.stats.queries, 10);
}

#[test]
fn empty_proposal_lists_terminate_as_stuck() {
    struct Silent;
    impl TacticModel for Silent {
        fn name(&self) -> &str {
            "silent"
        }
        fn propose(&mut self, _: &QueryCtx<'_>, _: usize) -> Vec<Proposal> {
            Vec::new()
        }
    }
    let r = run(&mut Silent, "0 = 0", &cfg());
    assert!(matches!(r.outcome, Outcome::Stuck));
}

// ------------------------------------------------------- failure injection

#[test]
fn garbage_proposals_never_panic() {
    // Unparseable syntax, control characters, unicode, pathological
    // lengths: all must be classified as rejected.
    let junk: Vec<(String, f64)> = vec![
        ("".to_string(), -0.1),
        ("   ".to_string(), -0.2),
        ("((((".to_string(), -0.3),
        ("apply".to_string(), -0.4),
        ("rewrite <- in *".to_string(), -0.5),
        ("intros 123 456".to_string(), -0.6),
        ("解决 这个 目标".to_string(), -0.7),
        ("a".repeat(10_000), -0.8),
        ("destruct n as [x|y|z|w]; [|||]".to_string(), -0.9),
        ("exact (fun x => x)".to_string(), -1.0),
    ];
    struct Junk(Vec<(String, f64)>);
    impl TacticModel for Junk {
        fn name(&self) -> &str {
            "junk"
        }
        fn propose(&mut self, _: &QueryCtx<'_>, w: usize) -> Vec<Proposal> {
            self.0
                .iter()
                .take(w)
                .map(|(t, p)| Proposal {
                    tactic: t.clone(),
                    logprob: *p,
                })
                .collect()
        }
    }
    let mut m = Junk(junk);
    let mut c = cfg();
    c.width = 10;
    let r = run(&mut m, "forall n : nat, n = n", &c);
    assert!(matches!(r.outcome, Outcome::Stuck), "{:?}", r.outcome);
    assert_eq!(r.stats.valid_tactics, 0);
}

#[test]
fn mixed_garbage_and_signal_still_proves() {
    let mut m = FixedModel::new([
        ("%%%%", -0.05),
        ("apply bogus", -0.1),
        ("intros n", -0.3),
        ("reflexivity", -0.4),
    ]);
    let r = run(&mut m, "forall n : nat, n = n", &cfg());
    assert!(r.proved(), "{:?}", r.outcome);
    assert!(r.stats.rejected > 0);
}

#[test]
fn nonfinite_logprobs_are_tolerated() {
    let mut m = FixedModel::new([("reflexivity", f64::NAN), ("intros", f64::NEG_INFINITY)]);
    let r = run(&mut m, "0 = 0", &cfg());
    assert!(r.proved(), "{:?}", r.outcome);
}

// -------------------------------------------------------------- duplicates

#[test]
fn duplicate_states_are_rejected_when_dedupe_is_on() {
    // `intros` on an atom is a no-op producing an identical state.
    let mut m = FixedModel::new([("intros", -0.1), ("assumption", -0.2)]);
    let r = run(&mut m, "0 = 0 -> 0 = 0", &cfg());
    // intro-less root: `intros` is valid once (introduces H), a second
    // `intros` duplicates. assumption never fires at the root.
    assert!(r.stats.duplicates > 0, "{:?}", r.stats);
}

#[test]
fn dedupe_off_burns_queries_on_repeats() {
    let mut on = FixedModel::new([("intros", -0.1)]);
    let mut off = FixedModel::new([("intros", -0.1)]);
    let mut c_on = cfg();
    c_on.query_limit = 16;
    let mut c_off = c_on.clone();
    c_off.dedupe_states = false;
    let r_on = run(&mut on, "forall n : nat, le 0 n", &c_on);
    let r_off = run(&mut off, "forall n : nat, le 0 n", &c_off);
    // With dedupe the no-op loop dies immediately (stuck); without it the
    // search grinds to the query limit.
    assert!(matches!(r_on.outcome, Outcome::Stuck), "{:?}", r_on.outcome);
    assert!(
        matches!(r_off.outcome, Outcome::Fuelout),
        "{:?}",
        r_off.outcome
    );
}

// -------------------------------------------------------------- strategies

#[test]
fn all_strategies_find_a_short_proof() {
    for strategy in [
        Strategy::BestFirst,
        Strategy::Greedy,
        Strategy::BreadthFirst,
    ] {
        let mut m = FixedModel::new([("intros n", -0.1), ("reflexivity", -0.2)]);
        let mut c = cfg();
        c.strategy = strategy;
        let r = run(&mut m, "forall n : nat, n = n", &c);
        assert!(r.proved(), "{strategy:?}: {:?}", r.outcome);
    }
}

#[test]
fn best_first_prefers_the_higher_logprob_branch() {
    // Two valid first moves; only the high-logprob one leads anywhere.
    // Best-first must expand it first, so the proof costs few queries.
    let mut good_first =
        FixedModel::new([("split", -0.1), ("intros", -3.0), ("reflexivity", -0.2)]);
    let r = run(&mut good_first, "0 = 0 /\\ 1 = 1", &cfg());
    assert!(r.proved());
    let cheap = r.stats.queries;

    let mut good_last = FixedModel::new([("split", -3.0), ("intros", -0.1), ("reflexivity", -0.2)]);
    let r2 = run(&mut good_last, "0 = 0 /\\ 1 = 1", &cfg());
    assert!(r2.proved());
    assert!(
        r2.stats.queries >= cheap,
        "demoting the useful branch should not make the search cheaper"
    );
}

#[test]
fn query_limit_zero_is_an_immediate_fuelout() {
    let mut m = FixedModel::new([("reflexivity", -0.1)]);
    let mut c = cfg();
    c.query_limit = 0;
    let r = run(&mut m, "0 = 0", &c);
    assert!(matches!(r.outcome, Outcome::Fuelout));
    assert_eq!(r.stats.queries, 0);
}

#[test]
fn frontier_dying_on_the_last_allowed_query_is_stuck() {
    // `intros` applies once, then duplicates: the frontier empties with
    // the second query. A budget of exactly two must read Stuck (nothing
    // was left to expand), one less Fuelout (a state was still waiting).
    for (limit, stuck) in [(2, true), (1, false)] {
        let mut m = FixedModel::new([("intros", -0.1)]);
        let mut c = cfg();
        c.query_limit = limit;
        let r = run(&mut m, "forall n : nat, le 0 n", &c);
        assert_eq!(r.stats.queries, limit);
        assert_eq!(
            matches!(r.outcome, Outcome::Stuck),
            stuck,
            "{limit}: {:?}",
            r.outcome
        );
        assert_eq!(
            matches!(r.outcome, Outcome::Fuelout),
            !stuck,
            "{limit}: {:?}",
            r.outcome
        );
    }
}

#[test]
fn tactic_timeouts_are_counted_separately() {
    // A starvation budget turns even reflexivity into a timeout.
    let mut m = FixedModel::new([("reflexivity", -0.1)]);
    let mut c = cfg();
    c.tactic_fuel = 1;
    let r = run(&mut m, "add 7 7 = 14", &c);
    assert!(!r.proved());
    assert!(r.stats.timeouts > 0, "{:?}", r.stats);
}

// ------------------------------------------------------------- proof jobs

#[test]
fn uncloneable_model_answers_every_query_itself_at_any_proof_jobs() {
    // A model that cannot be cloned keeps the search at width one, so the
    // caller's own model must answer every query, in order, whatever
    // `proof_jobs` asks for — and the result cannot tell the widths apart.
    struct Counting {
        inner: FixedModel,
        indices: Vec<u32>,
    }
    impl TacticModel for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn propose(&mut self, ctx: &QueryCtx<'_>, w: usize) -> Vec<Proposal> {
            self.indices.push(ctx.query_index);
            self.inner.propose(ctx, w)
        }
    }
    let env = std::sync::Arc::new(Env::with_prelude());
    let f = parse_formula(&env, "0 = 0 /\\ 1 = 1").unwrap();
    let prompt = empty_prompt();
    let mut transcripts = Vec::new();
    for proof_jobs in [1usize, 4] {
        let mut m = Counting {
            inner: FixedModel::new([("split", -3.0), ("intros", -0.1), ("reflexivity", -0.2)]),
            indices: Vec::new(),
        };
        let recovery = RecoveryConfig {
            proof_jobs,
            ..Default::default()
        };
        let r = search_with_recovery(&env, &f, "t", &mut m, &prompt, &cfg(), &recovery);
        assert!(r.proved(), "proof_jobs={proof_jobs}: {:?}", r.outcome);
        let expected: Vec<u32> = (0..r.stats.queries).collect();
        assert_eq!(m.indices, expected, "proof_jobs={proof_jobs}");
        transcripts.push((r.outcome, r.stats.expansions));
    }
    assert_eq!(transcripts[0], transcripts[1]);
}

#[test]
fn stats_fuel_accounting_is_monotone() {
    let mut m = FixedModel::new([("intros n", -0.1), ("reflexivity", -0.2)]);
    let r = run(&mut m, "forall n : nat, n = n", &cfg());
    assert!(r.stats.fuel_spent > 0);
    assert!(r.stats.tree_size >= 2);
}

//! Unit tests for whole-proof generation: with a model that genuinely
//! knows the proof it must succeed; with a model that derails it must
//! exhibit the paper's failure mode (belief diverges from the checker,
//! the verification pass stops at the first failing sentence).

use minicoq::env::Env;
use minicoq::parse::parse_formula;
use proof_oracle::model::{Proposal, QueryCtx, TacticModel};
use proof_oracle::prompt::PromptInfo;
use proof_search::whole_proof::whole_proof_with_repair;

/// Proposes a scripted sequence, one tactic per query, then falls silent.
struct Sequenced {
    steps: Vec<&'static str>,
    next: usize,
}

impl TacticModel for Sequenced {
    fn name(&self) -> &str {
        "sequenced"
    }
    fn propose(&mut self, _: &QueryCtx<'_>, _: usize) -> Vec<Proposal> {
        let Some(t) = self.steps.get(self.next) else {
            return Vec::new();
        };
        self.next += 1;
        vec![Proposal {
            tactic: t.to_string(),
            logprob: -0.1,
        }]
    }
}

fn attempt(stmt: &str, steps: Vec<&'static str>) -> proof_search::whole_proof::WholeProofResult {
    let env = Env::with_prelude();
    let f = parse_formula(&env, stmt).unwrap();
    let mut m = Sequenced { steps, next: 0 };
    let prompt = PromptInfo::default();
    whole_proof_with_repair(&env, &f, "t", &mut m, &prompt, 16, 0)
}

#[test]
fn correct_one_pass_script_proves() {
    let r = attempt("forall n : nat, n = n", vec!["intros n", "reflexivity"]);
    assert!(r.proved, "{r:?}");
    assert_eq!(r.sentences_applied, r.sentences_total);
    assert_eq!(r.script, "intros n. reflexivity.");
}

#[test]
fn derailed_script_reports_where_it_died() {
    // The second sentence fails; everything after it is generated against
    // an imagined state and the verification pass never reaches it.
    let r = attempt(
        "forall n : nat, n = n",
        vec![
            "intros n",
            "apply ghost_lemma",
            "rewrite ghost",
            "reflexivity",
        ],
    );
    assert!(!r.proved);
    assert_eq!(r.sentences_applied, 1, "{r:?}");
    assert!(r.sentences_total >= 2);
}

#[test]
fn belief_update_skips_goals_after_repeated_misses() {
    // Two consecutive failing tactics make the model assume the subgoal is
    // closed; it then writes the (valid) proof of the *next* goal, but the
    // faithful replay still fails at the first bad sentence. This is the
    // paper's "assumes a subgoal is simple enough to be closed" trace.
    let r = attempt(
        "0 = 0 /\\ 1 = 1",
        vec![
            "split",
            "apply ghost1",
            "apply ghost2",
            "reflexivity", // believed to target the second conjunct
        ],
    );
    assert!(!r.proved);
    assert_eq!(r.sentences_applied, 1);
    assert!(r.script.contains("reflexivity"));
}

#[test]
fn silent_model_yields_an_unproved_empty_attempt() {
    let r = attempt("0 = 0", vec![]);
    assert!(!r.proved);
    assert_eq!(r.sentences_applied, 0);
}

#[test]
fn generation_stops_once_the_believed_state_is_complete() {
    // After the proof closes, no further sentences are requested even
    // though the model has more to say.
    let r = attempt(
        "0 = 0",
        vec!["reflexivity", "reflexivity", "reflexivity", "reflexivity"],
    );
    assert!(r.proved);
    assert_eq!(r.sentences_total, 1, "{r:?}");
}

#[test]
fn max_sentences_bounds_generation() {
    let env = Env::with_prelude();
    let f = parse_formula(&env, "le 0 100").unwrap();
    // An endless stream of `constructor` makes real progress forever.
    struct Endless;
    impl TacticModel for Endless {
        fn name(&self) -> &str {
            "endless"
        }
        fn propose(&mut self, _: &QueryCtx<'_>, _: usize) -> Vec<Proposal> {
            vec![
                Proposal {
                    tactic: "constructor".into(),
                    logprob: -0.1,
                },
                Proposal {
                    tactic: "apply le_S".into(),
                    logprob: -0.2,
                },
            ]
        }
    }
    let prompt = PromptInfo::default();
    let r = whole_proof_with_repair(&env, &f, "t", &mut Endless, &prompt, 5, 0);
    assert!(!r.proved);
    assert!(r.sentences_total <= 5);
}

// ----------------------------------------------------------------- repair

/// Like `Sequenced` but keyed by query index, so repair rounds (which
/// shift the query stream) see different continuations.
struct ByQuery {
    rounds: Vec<Vec<&'static str>>,
    per_round: usize,
}

impl TacticModel for ByQuery {
    fn name(&self) -> &str {
        "by-query"
    }
    fn propose(&mut self, ctx: &QueryCtx<'_>, _: usize) -> Vec<Proposal> {
        let round = (ctx.query_index as usize) / self.per_round;
        let step = ctx.path.len();
        let Some(t) = self.rounds.get(round).and_then(|r| r.get(step)) else {
            return Vec::new();
        };
        vec![Proposal {
            tactic: t.to_string(),
            logprob: -0.1,
        }]
    }
}

#[test]
fn repair_recovers_from_a_single_bad_sentence() {
    let env = Env::with_prelude();
    let f = parse_formula(&env, "forall n : nat, n = n").unwrap();
    // Round 0 derails after `intros n`; round 1 sees the true state at the
    // failure point (path = ["intros n"]) and finishes.
    let mut m = ByQuery {
        rounds: vec![
            vec!["intros n", "apply ghost", "apply ghost2"],
            vec!["intros n", "reflexivity"],
        ],
        per_round: 8,
    };
    let prompt = PromptInfo::default();
    let r = whole_proof_with_repair(&env, &f, "t", &mut m, &prompt, 8, 1);
    assert!(r.proved, "{r:?}");
    assert!(r.script.contains("reflexivity"), "{}", r.script);
    assert!(
        !r.script.contains("ghost"),
        "failed sentence must be dropped: {}",
        r.script
    );
}

#[test]
fn zero_repairs_matches_one_pass_failure() {
    let env = Env::with_prelude();
    let f = parse_formula(&env, "forall n : nat, n = n").unwrap();
    let mut m = ByQuery {
        rounds: vec![
            vec!["intros n", "apply ghost", "apply ghost2"],
            vec!["intros n", "reflexivity"],
        ],
        per_round: 8,
    };
    let prompt = PromptInfo::default();
    let r = whole_proof_with_repair(&env, &f, "t", &mut m, &prompt, 8, 0);
    assert!(!r.proved, "{r:?}");
}

#[test]
fn repair_budget_is_bounded() {
    let env = Env::with_prelude();
    let f = parse_formula(&env, "0 = 0").unwrap();
    // A model that never says anything useful: every round fails, and the
    // loop must stop after the repair budget.
    let mut m = ByQuery {
        rounds: vec![vec!["apply nope"]; 100],
        per_round: 8,
    };
    let prompt = PromptInfo::default();
    let r = whole_proof_with_repair(&env, &f, "t", &mut m, &prompt, 8, 3);
    assert!(!r.proved);
}

//! Replays every corpus proof through the state-transition machine — the
//! same interface the search uses — rather than through the tactic engine
//! directly. Exercises session bookkeeping (ids, scripts, fuel accounting)
//! at corpus scale, and checks that a session with pre-flight on, which
//! commits the whole steps the checker ran instead of running them again
//! (a sentence, or the first step of its tactical), ends up exactly where
//! one with it off does.

use llm_fscq::corpus::Corpus;
use llm_fscq::minicoq::parse::{parse_tactic, split_sentences};
use llm_fscq::stm::{AddError, ProofSession, SessionConfig, StateId};

#[test]
fn full_corpus_replays_through_sessions() {
    let corpus = Corpus::load();
    let mut replayed = 0usize;
    for thm in &corpus.dev.theorems {
        let env = corpus.dev.env_before(thm);
        // Linear replay: duplicate detection off (idempotent steps such as
        // a no-op `intros` are legal in scripts), generous fuel.
        let mut session = ProofSession::new(
            env.clone(),
            thm.stmt.clone(),
            SessionConfig {
                tactic_fuel: 50_000_000,
                dedupe_states: false,
                ..Default::default()
            },
        );
        let mut at: StateId = session.root();
        let mut expected_script = Vec::new();
        for sentence in split_sentences(&thm.proof_text) {
            let out = session
                .add(at, &sentence)
                .unwrap_or_else(|e| panic!("{}: `{sentence}`: {e}", thm.name));
            at = out.id;
            expected_script.push(sentence);
        }
        assert!(session.is_proved(at), "{} did not finish", thm.name);
        assert_eq!(session.script_to(at), expected_script, "{}", thm.name);
        assert!(session.fuel_spent() > 0);
        replayed += 1;
    }
    assert!(replayed >= 280, "only {replayed} theorems replayed");
}

/// Tactics tried at every state of the replayed proofs, beside the human
/// step: mostly whole fuel-free steps, which pre-flight runs and hands on,
/// alone or at the head of a tactical.
const PROBES: [&str; 19] = [
    "intros",
    "intro",
    "intros x y",
    "split",
    "left",
    "right",
    "symmetry",
    "exfalso",
    "exists 0",
    "clear H",
    "revert H",
    "assert (0 = 0)",
    "reflexivity",
    "assumption",
    "intros; reflexivity",
    "split; reflexivity",
    "first [split | left]",
    "idtac; intros",
    "split; [reflexivity | reflexivity]",
];

#[test]
fn preflight_on_and_off_sessions_agree_add_for_add() {
    let corpus = Corpus::load();
    // A few theorems whose proofs take each of these steps.
    let steps = [
        "intros ", "split.", "left.", "symmetry", "exists ", "intros;",
    ];
    let mut theorems = Vec::new();
    for step in steps {
        let using = corpus
            .dev
            .theorems
            .iter()
            .filter(|t| t.proof_text.contains(step));
        for thm in using.take(2) {
            if !theorems.iter().any(|t: &&_| std::ptr::eq(*t, thm)) {
                theorems.push(thm);
            }
        }
    }
    let mut both_ok = std::collections::BTreeSet::new();
    for thm in theorems {
        let env = corpus.dev.env_before(thm);
        let session = |preflight| {
            let config = SessionConfig {
                preflight,
                ..Default::default()
            };
            ProofSession::new(env.clone(), thm.stmt.clone(), config)
        };
        let (mut on, mut off) = (session(true), session(false));
        let mut at = on.root();
        for sentence in split_sentences(&thm.proof_text) {
            let mut next = None;
            for text in std::iter::once(sentence.as_str()).chain(PROBES) {
                let (fuel_on, fuel_off) = (on.fuel_spent(), off.fuel_spent());
                let (a, b) = (on.add(at, text), off.add(at, text));
                let what = format!("{}: `{text}` at state {}", thm.name, at.0);
                if let Err(AddError::Preflight(r)) = &a {
                    assert!(
                        matches!(b, Err(AddError::Rejected(_) | AddError::Timeout)),
                        "{what}: pruned ({r}) but the evaluator gives {b:?}"
                    );
                } else {
                    assert_eq!(a, b, "{what}");
                    let delta = (on.fuel_spent() - fuel_on, off.fuel_spent() - fuel_off);
                    assert_eq!(delta.0, delta.1, "{what}: fuel");
                }
                if let Ok(o) = &a {
                    assert_eq!(on.display(o.id), off.display(o.id), "{what}");
                    let focused = on.state(at).and_then(|s| s.focused());
                    let head = parse_tactic(env, focused, text).unwrap().head();
                    let named = head == "intros" && text.trim_end_matches('.') != "intros";
                    both_ok.insert(if named { "named intros" } else { head });
                }
                // The human step leads on, to a new state or a known one.
                if next.is_none() {
                    next = Some(match a {
                        Ok(o) => o.id,
                        Err(AddError::DuplicateState(id)) => id,
                        Err(e) => panic!("{what}: {e}"),
                    });
                }
            }
            at = next.expect("the human step ran");
        }
        assert!(on.is_proved(at), "{} did not finish", thm.name);
    }
    for step in ["named intros", "split", "left", "symmetry", "exists", "seq"] {
        assert!(
            both_ok.contains(step),
            "no accepted `{step}` add: {both_ok:?}"
        );
    }
}

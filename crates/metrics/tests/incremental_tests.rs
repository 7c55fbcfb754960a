//! Soundness suite for the dirty cone and `run_incremental`.
//!
//! The contract under test (ISSUE 7's acceptance criteria): for any
//! single-symbol edit, merging baseline outcomes for the clean remainder
//! with re-verified outcomes for the dirty cone must be **byte-identical**
//! (as JSON) to a full cold re-run of the same cell on the edited corpus —
//! including under injected recoverable faults — and a cosmetic
//! (whitespace/comment) edit must produce an empty dirty set.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corpus_analysis::{ImpactReason, Snapshot};
use fscq_corpus::Corpus;
use proof_chaos::{FaultConfig, FaultPlan};
use proof_metrics::incremental::{load_edited, run_incremental};
use proof_metrics::{CellConfig, CellResult, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proptest::prelude::*;

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("inc-tests-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A four-module corpus small enough to re-run dozens of times under
/// proptest: `B` and `C` both import `A`, which registers a hint, and `D`
/// imports nothing — hint databases still reach it (they accumulate in
/// load order), so it pins the channels that must cross non-import
/// boundaries.
const A_V: &str = "\
Fixpoint dbl (n : nat) : nat :=
  match n with
  | 0 => 0
  | S p => S (S (dbl p))
  end.

Lemma dbl_0 : dbl 0 = 0.
Proof. reflexivity. Qed.

Lemma dbl_succ : forall n : nat, dbl (S n) = S (S (dbl n)).
Proof. intros. reflexivity. Qed.

Hint Resolve dbl_0.
";

const B_V: &str = "\
Require Import A.

Lemma b_refl : forall n : nat, dbl n = dbl n.
Proof. intros. reflexivity. Qed.

Lemma b_one : dbl (S 0) = S (S 0).
Proof. reflexivity. Qed.
";

const C_V: &str = "\
Require Import A.

Lemma c_zero : dbl 0 = 0.
Proof. apply dbl_0. Qed.

Lemma c_add : forall n : nat, add n 0 = n.
Proof.
  induction n.
  - reflexivity.
  - simpl. rewrite IHn. reflexivity.
Qed.
";

const D_V: &str = "\
Lemma d_add : forall n : nat, add n 0 = n.
Proof.
  induction n.
  - reflexivity.
  - simpl. rewrite IHn. reflexivity.
Qed.
";

fn tiny_sources() -> Vec<(String, String)> {
    vec![
        ("A".to_string(), A_V.to_string()),
        ("B".to_string(), B_V.to_string()),
        ("C".to_string(), C_V.to_string()),
        ("D".to_string(), D_V.to_string()),
    ]
}

/// A cheap cell: the evaluation itself is not under test, only the
/// merge/cone bookkeeping around it.
fn cheap_cell() -> CellConfig {
    let mut cell = CellConfig::standard(ModelProfile::gpt4o_mini(), PromptSetting::Vanilla);
    cell.search.query_limit = 4;
    cell
}

fn replace_once(sources: &mut [(String, String)], module: &str, old: &str, new: &str) {
    let src = sources
        .iter_mut()
        .find(|(name, _)| name == module)
        .unwrap_or_else(|| panic!("module {module} missing"));
    assert_eq!(
        src.1.matches(old).count(),
        1,
        "edit target `{old}` must be unique in {module}"
    );
    src.1 = src.1.replacen(old, new, 1);
}

/// A single-symbol edit of the tiny corpus, as drawn by proptest.
#[derive(Debug, Clone)]
enum Edit {
    /// Rename a bound variable inside `dbl`'s body: textual change,
    /// semantically invisible (alpha-invariant fingerprints).
    RenameLocal(&'static str),
    /// Flip an equation's orientation in a lemma statement: a real
    /// semantic change to that one symbol.
    TweakRhs(&'static str),
    /// Repoint the hint registration: dirties everything loaded after it.
    TouchHintDb(&'static str),
    /// Delete the hint registration outright: the edited graph has no
    /// trace of it, so the dirty cone must synthesize the event from the
    /// baseline-only symbol — in particular for `D`, which never imports
    /// `A` and is otherwise invisible to the edit.
    DeleteHint,
    /// Blank lines between items and trailing newlines: the sentence
    /// splitter drops them, so the snapshot must be bit-identical.
    WhitespaceOnly(usize),
    /// A comment attaches to the following item's text, which prompts
    /// carry verbatim — semantically invisible, but prompt-visible.
    CommentOnly,
}

fn apply_edit(edit: &Edit, sources: &mut [(String, String)]) {
    match edit {
        Edit::RenameLocal(v) => replace_once(
            sources,
            "A",
            "S p => S (S (dbl p))",
            &format!("S {v} => S (S (dbl {v}))"),
        ),
        Edit::TweakRhs(lemma) => match *lemma {
            "c_zero" => replace_once(sources, "C", "c_zero : dbl 0 = 0", "c_zero : 0 = dbl 0"),
            "b_one" => replace_once(
                sources,
                "B",
                "b_one : dbl (S 0) = S (S 0)",
                "b_one : S (S 0) = dbl (S 0)",
            ),
            other => panic!("unknown tweak target {other}"),
        },
        Edit::TouchHintDb(targets) => replace_once(
            sources,
            "A",
            "Hint Resolve dbl_0.",
            &format!("Hint Resolve {targets}."),
        ),
        Edit::DeleteHint => replace_once(sources, "A", "Hint Resolve dbl_0.", ""),
        Edit::WhitespaceOnly(n) => {
            let src = &mut sources.iter_mut().find(|(name, _)| name == "A").unwrap().1;
            let mut text = src.replacen("Qed.", &format!("Qed.{}", "\n".repeat(*n)), 1);
            text.push('\n');
            *src = text;
        }
        Edit::CommentOnly => {
            let src = &mut sources.iter_mut().find(|(name, _)| name == "A").unwrap().1;
            *src = format!("(* cosmetic header *)\n{src}");
        }
    }
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    const VARS: [&str; 4] = ["q", "r", "x0", "y1"];
    const LEMMAS: [&str; 2] = ["c_zero", "b_one"];
    const HINTS: [&str; 2] = ["dbl_succ", "dbl_0 dbl_succ"];
    prop_oneof![
        (0usize..VARS.len()).prop_map(|i| Edit::RenameLocal(VARS[i])),
        (0usize..LEMMAS.len()).prop_map(|i| Edit::TweakRhs(LEMMAS[i])),
        (0usize..HINTS.len()).prop_map(|i| Edit::TouchHintDb(HINTS[i])),
        (0usize..1).prop_map(|_| Edit::DeleteHint),
        (1usize..4).prop_map(Edit::WhitespaceOnly),
        (0usize..1).prop_map(|_| Edit::CommentOnly),
    ]
}

fn result_json(r: &CellResult) -> String {
    serde_json::to_string(r).unwrap()
}

/// Full cold run of `cell` on `sources`, plus the snapshot of that corpus.
fn cold_run(sources: &[(String, String)], cell: &CellConfig) -> (CellResult, Snapshot) {
    let (corpus, _graph) = load_edited(sources).expect("corpus elaborates");
    let snapshot = Snapshot::capture(&corpus.dev);
    (
        uncached()
            .run_cell_checked(&corpus, cell)
            .expect("a clean cell does not crash"),
        snapshot,
    )
}

/// One inline worker, no cell or cone cache.
fn uncached() -> Runner {
    Runner::from_env().with_jobs(1).without_cache()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// For ANY drawn single-symbol edit, the incremental merge equals a
    /// full cold re-run byte-for-byte, and the semantic fingerprint layer
    /// never fires on cosmetic changes.
    #[test]
    fn incremental_matches_full_cold_rerun(edit in edit_strategy()) {
        let cell = cheap_cell();
        let pristine = tiny_sources();
        let (baseline, snapshot) = cold_run(&pristine, &cell);

        let mut edited = pristine.clone();
        apply_edit(&edit, &mut edited);
        let (full, _) = cold_run(&edited, &cell);

        let inc = run_incremental(&uncached(), &cell, Some(&baseline), &snapshot, &edited)
            .expect("incremental run completes");

        prop_assert!(!inc.fallback_full, "no edit here changes the theorem set");
        prop_assert_eq!(
            result_json(&inc.result),
            result_json(&full),
            "merged incremental output diverged from the full cold re-run ({:?})",
            edit
        );

        match &edit {
            Edit::RenameLocal(_) => {
                // Alpha-invariant fingerprints: a bound-variable rename is
                // not a semantic change (the textual prompt layer may
                // still conservatively dirty downstream theorems).
                prop_assert!(
                    inc.impact.changed_symbols.is_empty(),
                    "rename-local must not change any semantic fingerprint: {:?}",
                    inc.impact.changed_symbols
                );
            }
            Edit::TweakRhs(lemma) => {
                prop_assert!(
                    inc.impact.changed_symbols.contains(&lemma.to_string()),
                    "flipping {}'s statement is a semantic change",
                    lemma
                );
                let trace = inc.impact.dirty.get(*lemma).expect("edited lemma is dirty");
                prop_assert_eq!(trace.reason, ImpactReason::SelfEdit);
            }
            Edit::TouchHintDb(_) => {
                // Every theorem loaded after the hint registration (all of
                // B, C, and D) must be in the cone.
                for thm in ["b_refl", "b_one", "c_zero", "c_add", "d_add"] {
                    prop_assert!(
                        inc.impact.dirty.contains_key(thm),
                        "{} loads after the edited hint and must be dirty",
                        thm
                    );
                }
            }
            Edit::DeleteHint => {
                prop_assert!(
                    inc.impact
                        .removed_symbols
                        .iter()
                        .any(|s| s.starts_with("Hint@A#")),
                    "the deleted hint must show up as a removed symbol: {:?}",
                    inc.impact.removed_symbols
                );
                for thm in ["b_refl", "b_one", "c_zero", "c_add", "d_add"] {
                    prop_assert!(
                        inc.impact.dirty.contains_key(thm),
                        "{} loads after the deleted hint and must be dirty",
                        thm
                    );
                }
                // D never imports A, so only the synthesized removal
                // event can reach it — and it must arrive on the hint-db
                // channel, not via some textual accident.
                let trace = inc.impact.dirty.get("d_add").expect("d_add is dirty");
                prop_assert_eq!(trace.reason, ImpactReason::HintDb);
            }
            Edit::WhitespaceOnly(_) => {
                prop_assert!(
                    inc.impact.is_clean(),
                    "cosmetic edit produced a non-empty impact: {}",
                    inc.impact.render()
                );
                prop_assert!(inc.reverified.is_empty(), "nothing to re-verify");
                prop_assert_eq!(inc.served_baseline, inc.result.outcomes.len());
            }
            Edit::CommentOnly => {
                // Semantically invisible — but prompts carry the comment
                // (token counts shift positional attention), so the
                // textual layer must conservatively dirty via the prompt
                // channel and nothing else.
                prop_assert!(
                    inc.impact.changed_symbols.is_empty(),
                    "a comment must not change any semantic fingerprint: {:?}",
                    inc.impact.changed_symbols
                );
                for (thm, trace) in &inc.impact.dirty {
                    prop_assert_eq!(
                        trace.reason,
                        ImpactReason::Prompt,
                        "{} dirtied by {:?}, expected the prompt channel only",
                        thm,
                        trace.reason
                    );
                }
            }
        }
    }
}

/// Without a baseline the run degrades to a full re-verification and says
/// so, still producing the exact cold output.
#[test]
fn missing_baseline_falls_back_to_full() {
    let cell = cheap_cell();
    let pristine = tiny_sources();
    let (full, snapshot) = cold_run(&pristine, &cell);
    let inc = run_incremental(&uncached(), &cell, None, &snapshot, &pristine)
        .expect("fallback run completes");
    assert!(inc.fallback_full);
    assert_eq!(inc.served_baseline, 0);
    assert_eq!(result_json(&inc.result), result_json(&full));
}

/// A baseline saved from one cell must not silently merge into a run of
/// a different cell — mixing outcomes across `--model`/`--vanilla` is an
/// error, not a quiet wrong answer.
#[test]
fn mismatched_baseline_cell_is_rejected() {
    let cell = cheap_cell();
    let pristine = tiny_sources();
    let (baseline, snapshot) = cold_run(&pristine, &cell);

    let mut other = cheap_cell();
    other.setting = PromptSetting::Hints;
    let err = match run_incremental(&uncached(), &other, Some(&baseline), &snapshot, &pristine) {
        Err(e) => e,
        Ok(_) => panic!("merging a vanilla baseline into a hints cell must fail"),
    };
    assert!(
        err.contains("does not match the requested cell"),
        "unhelpful mismatch error: {err}"
    );
}

/// Deleting a hallucination-collision axiom leaves no trace in the edited
/// graph, yet theorems in later-loaded modules that never import the
/// edited one could resolve the hallucinated name before the edit — they
/// must land in the dirty cone via the collision channel, and the merged
/// result must still equal a full cold re-run.
#[test]
fn deleting_a_collision_axiom_dirties_non_importers() {
    const COLL_A: &str = "\
Lemma foo : forall n : nat, add n 0 = n.
Proof.
  induction n.
  - reflexivity.
  - simpl. rewrite IHn. reflexivity.
Qed.

Axiom foo_l : forall (n : nat), add 0 n = n.
";
    const COLL_B: &str = "\
Lemma bar : forall n : nat, add n 0 = n.
Proof.
  induction n.
  - reflexivity.
  - simpl. rewrite IHn. reflexivity.
Qed.
";
    let pristine = vec![
        ("A".to_string(), COLL_A.to_string()),
        ("B".to_string(), COLL_B.to_string()),
    ];
    let cell = cheap_cell();
    let (baseline, snapshot) = cold_run(&pristine, &cell);

    let mut edited = pristine.clone();
    replace_once(
        &mut edited,
        "A",
        "Axiom foo_l : forall (n : nat), add 0 n = n.",
        "",
    );
    let (full, _) = cold_run(&edited, &cell);

    let inc = run_incremental(&uncached(), &cell, Some(&baseline), &snapshot, &edited)
        .expect("incremental run completes");
    assert!(
        !inc.fallback_full,
        "axioms are not theorems; the set is unchanged"
    );
    assert!(
        inc.impact.removed_symbols.iter().any(|s| s == "foo_l"),
        "the deleted axiom must show up as a removed symbol: {:?}",
        inc.impact.removed_symbols
    );
    let trace = inc
        .impact
        .dirty
        .get("bar")
        .expect("bar never imports A, only the collision channel reaches it");
    assert_eq!(trace.reason, ImpactReason::Collision);
    assert_eq!(result_json(&inc.result), result_json(&full));
}

/// The pinned single-module cone on the embedded corpus, for the cheap
/// cell and for the full-scope mini cell with hints at the default search:
/// flipping one equation in `DirTree` must re-verify only theorems of that
/// module from the edit onward plus its one importer (`FS`). Every other
/// module is served from the baseline, the merged result equals a full
/// cold run of the edited corpus byte for byte, and a second incremental
/// run serves the whole dirty cone from the cone-keyed cache.
#[test]
fn embedded_corpus_single_module_edit_pins_the_cone() {
    let pristine = fscq_corpus::corpus_sources()
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect::<Vec<_>>();
    let mut edited = pristine.clone();
    replace_once(
        &mut edited,
        "DirTree",
        "tl_find n TNil = None",
        "None = tl_find n TNil",
    );
    let (corpus, _) = load_edited(&edited).expect("edited corpus elaborates");
    let edited_idx = corpus
        .dev
        .theorem("tl_find_nil")
        .expect("pinned theorem")
        .item_index;

    let hints_cell = CellConfig::standard(ModelProfile::gpt4o_mini(), PromptSetting::Hints);
    for cell in [cheap_cell(), hints_cell] {
        let label = cell.label();
        let (baseline, snapshot) = cold_run(&pristine, &cell);
        let dir = scratch_dir("cone");
        // The cone cache lives at `<cache dir>/cones`.
        let runner = Runner::from_env().with_jobs(1).with_cache_dir(&dir);
        let inc = run_incremental(&runner, &cell, Some(&baseline), &snapshot, &edited)
            .expect("incremental run completes");
        assert!(!inc.fallback_full, "{label}");
        assert!(
            !inc.reverified.is_empty(),
            "{label}: the edit hits eval theorems"
        );
        assert!(
            inc.served_baseline > 0,
            "{label}: nothing was served from the baseline"
        );

        // Cone precision: nothing outside DirTree-from-the-edit-onward and
        // FS (the only module importing DirTree) is re-verified.
        let by_name: std::collections::BTreeMap<&str, &str> = inc
            .result
            .outcomes
            .iter()
            .map(|o| (o.name.as_str(), o.file.as_str()))
            .collect();
        for name in &inc.reverified {
            let file = by_name[name.as_str()];
            assert!(
                file == "DirTree" || file == "FS",
                "{label}: {name} ({file}) is outside the pinned cone"
            );
            if file == "DirTree" {
                let idx = corpus.dev.theorem(name).unwrap().item_index;
                assert!(
                    idx >= edited_idx,
                    "{label}: {name} precedes the edit in DirTree and must stay clean"
                );
            }
        }
        let reverified: BTreeSet<&str> = inc.reverified.iter().map(String::as_str).collect();
        assert_eq!(
            inc.served_baseline + inc.cone_cache_hits + reverified.len(),
            inc.result.outcomes.len(),
            "{label}"
        );

        // Byte-identity: the merge equals a clean full cold run.
        let (full, _) = cold_run(&edited, &cell);
        assert_eq!(
            result_json(&inc.result),
            result_json(&full),
            "{label}: the merged result diverged from the full cold run"
        );

        // Second run: the cone cache now holds every dirty outcome.
        let again = run_incremental(&runner, &cell, Some(&baseline), &snapshot, &edited)
            .expect("second incremental run completes");
        assert!(
            again.reverified.is_empty(),
            "{label}: cone cache must serve all dirty theorems"
        );
        assert_eq!(
            again.cone_cache_hits,
            reverified.len() + inc.cone_cache_hits,
            "{label}"
        );
        assert_eq!(
            result_json(&again.result),
            result_json(&inc.result),
            "{label}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Acceptance: merged incremental output stays byte-identical to the clean
/// full re-run under injected recoverable oracle faults, across the three
/// pinned chaos seeds.
#[test]
fn incremental_is_byte_identical_under_chaos_seeds() {
    let cell = cheap_cell();
    let pristine = fscq_corpus::corpus_sources()
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect::<Vec<_>>();
    let (baseline, snapshot) = cold_run(&pristine, &cell);

    let mut edited = pristine.clone();
    replace_once(
        &mut edited,
        "DirTree",
        "tl_find n TNil = None",
        "None = tl_find n TNil",
    );
    let (full, _) = cold_run(&edited, &cell);

    for seed in [101u64, 202, 303] {
        // Recoverable faults only: transient transport errors and garbage
        // completions, both absorbed by the retry layer.
        let plan = FaultConfig {
            seed,
            oracle_error: 0.25,
            oracle_garbage: 0.15,
            ..FaultConfig::default()
        };
        let runner = uncached().with_fault_plan(Arc::new(FaultPlan::new(plan)));
        let inc = run_incremental(&runner, &cell, Some(&baseline), &snapshot, &edited)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(!inc.fallback_full);
        assert_eq!(
            result_json(&inc.result),
            result_json(&full),
            "seed {seed}: faulted incremental output diverged from the clean full run"
        );
    }
}

/// The corpus used by `Corpus::load()` and the one rebuilt from
/// `corpus_sources()` must agree, or baselines saved from one would
/// structurally mismatch the other (triggering the full-run fallback).
#[test]
fn corpus_sources_round_trip_matches_embedded_load() {
    let embedded = Corpus::load();
    let sources = fscq_corpus::corpus_sources()
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect::<Vec<_>>();
    let (rebuilt, _) = load_edited(&sources).expect("sources elaborate");
    let a = Snapshot::capture(&embedded.dev);
    let b = Snapshot::capture(&rebuilt.dev);
    assert_eq!(a.theorems, b.theorems, "theorem load order must agree");
    assert_eq!(a.to_json(), b.to_json(), "snapshots must agree");
}

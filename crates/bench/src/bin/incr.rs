//! Incremental-verification driver: the dirty-cone workflow end to end.
//!
//! Usage: `incr [ci] [--jobs N]`
//!
//! `ci` (the default and only mode) is the CI gate. It runs the baseline
//! cell cold on the pristine corpus, applies the checked-in single-module
//! edit (`fixtures/incremental_edit.txt`), re-verifies incrementally, and
//! asserts (a) only the expected dependency cone was re-verified (DirTree
//! from the edited item onward, plus FS — its only importer), (b) the
//! merged result is byte-identical to a full cold run of the edited
//! corpus, and (c) writes the impact report and SARIF artifacts under
//! `target/experiments/`. Exit 0 on pass, 1 on any violation.

use std::time::Instant;

use corpus_analysis::Snapshot;
use llm_fscq_bench::artifact_dir;
use proof_metrics::incremental::{load_edited, run_incremental};
use proof_metrics::{CellConfig, CellResult, Runner};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

/// The checked-in single-module edit.
struct EditSpec {
    /// Module the edit lives in.
    module: String,
    /// The theorem whose statement the edit rewrites.
    theorem: String,
    /// Exact text replaced.
    old: String,
    /// Replacement text.
    new: String,
}

fn edit_spec() -> EditSpec {
    let text = include_str!("../../fixtures/incremental_edit.txt");
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("incremental_edit.txt: missing `{key}` line"))
            .trim()
            .to_string()
    };
    EditSpec {
        module: field("module:"),
        theorem: field("theorem:"),
        old: field("old:"),
        new: field("new:"),
    }
}

fn pristine_sources() -> Vec<(String, String)> {
    fscq_corpus::corpus_sources()
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect()
}

/// Applies the checked-in edit, asserting it matches exactly once.
fn edited_sources(spec: &EditSpec) -> Vec<(String, String)> {
    pristine_sources()
        .into_iter()
        .map(|(n, t)| {
            if n == spec.module {
                assert_eq!(
                    t.matches(&spec.old).count(),
                    1,
                    "edit needle must match exactly once in {}",
                    spec.module
                );
                (n, t.replacen(&spec.old, &spec.new, 1))
            } else {
                (n, t)
            }
        })
        .collect()
}

/// The cell both the baseline and the incremental run evaluate: the
/// full-scope mini profile (147 eval theorems) with hints.
fn cell() -> CellConfig {
    CellConfig::standard(ModelProfile::gpt4o_mini(), PromptSetting::Hints)
}

fn result_json(r: &CellResult) -> String {
    serde_json::to_string_pretty(r).expect("cell result serializes")
}

fn run_full(runner: &Runner, sources: &[(String, String)], cell: &CellConfig) -> CellResult {
    let (corpus, _) = load_edited(sources).expect("corpus loads");
    runner
        .run_cell_checked(&corpus, cell)
        .unwrap_or_else(|crash| fail(&crash.to_string()))
}

struct IncRun {
    merged: CellResult,
    reverified: Vec<String>,
    served_baseline: usize,
    wall_ms: f64,
}

fn run_inc(baseline: &CellResult, snapshot: &Snapshot, edited: &[(String, String)]) -> IncRun {
    let scratch = std::env::temp_dir().join(format!("incremental-cones-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let runner = Runner::from_env().with_cache_dir(&scratch);
    let t = Instant::now();
    let inc = run_incremental(&runner, &cell(), Some(baseline), snapshot, edited)
        .expect("incremental runs");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(!inc.fallback_full, "single-module edit must not fall back");

    // Artifacts: the human-readable impact report and the SARIF document.
    let _ = std::fs::create_dir_all(artifact_dir());
    let (corpus, graph) = load_edited(edited).expect("edited corpus loads");
    let sarif = inc
        .impact
        .to_analysis_report(&corpus.dev, &graph)
        .sarif_json("impact", "crates/fscq/corpus/");
    let _ = std::fs::write(artifact_dir().join("impact.sarif"), sarif);
    let _ = std::fs::write(
        artifact_dir().join("impact_report.txt"),
        inc.impact.render(),
    );
    eprintln!(
        "[incremental] dirty {} / reverified {} / cone-cache {} / baseline {}",
        inc.impact.dirty.len(),
        inc.reverified.len(),
        inc.cone_cache_hits,
        inc.served_baseline
    );
    IncRun {
        merged: inc.result,
        reverified: inc.reverified,
        served_baseline: inc.served_baseline,
        wall_ms,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("[incremental] FAIL: {msg}");
    std::process::exit(1)
}

/// Appends the incremental run (series `incr/ci`) to the fleet ledger.
fn append_ledger(result: &CellResult, wall_ms: f64, jobs: usize) {
    let proved = result
        .outcomes
        .iter()
        .filter(|o| o.outcome == "proved")
        .count() as u64;
    if let Some(path) = llm_fscq_bench::ledger_append(&llm_fscq_bench::LedgerRun {
        bin: "incr",
        label: "ci",
        variant: "ci",
        jobs,
        cells: 1,
        wall_ms,
        theorems: result.outcomes.len() as u64,
        proved,
        ..Default::default()
    }) {
        eprintln!("[incremental] ledger appended to {}", path.display());
    }
}

/// The CI gate: cone precision + byte-identity.
fn ci() {
    let cell = cell();
    let spec = edit_spec();
    let pristine = pristine_sources();
    let edited = edited_sources(&spec);

    eprintln!("[incremental] baseline: full cold run on the pristine corpus");
    let (pristine_corpus, _) = load_edited(&pristine).expect("pristine corpus loads");
    let snapshot = Snapshot::capture(&pristine_corpus.dev);
    let cold = Runner::from_env().without_cache();
    let baseline = run_full(&cold, &pristine, &cell);

    eprintln!(
        "[incremental] incremental run on the edited corpus ({} edited)",
        spec.module
    );
    let inc = run_inc(&baseline, &snapshot, &edited);

    // (a) Cone precision: only the edited module (from the edited item
    // onward) and its importer FS re-verify; everything else is served
    // from the baseline.
    let (edited_corpus, _) = load_edited(&edited).expect("edited corpus loads");
    let edited_item = edited_corpus
        .dev
        .theorem(&spec.theorem)
        .unwrap_or_else(|| fail("edited theorem not found in the edited corpus"))
        .item_index;
    if inc.reverified.is_empty() {
        fail("a semantic edit re-verified nothing");
    }
    if inc.served_baseline == 0 {
        fail("nothing was served from the baseline — the cone is not proper");
    }
    for name in &inc.reverified {
        let thm = edited_corpus
            .dev
            .theorem(name)
            .expect("reverified theorem exists");
        if thm.file != spec.module && thm.file != "FS" {
            fail(&format!(
                "`{name}` ({}) re-verified but is outside the {}/FS cone",
                thm.file, spec.module
            ));
        }
        if thm.file == spec.module && thm.item_index < edited_item {
            fail(&format!(
                "`{name}` precedes the edit in {} but was re-verified",
                spec.module
            ));
        }
    }

    // (b) Byte-identity: the merged result equals a full cold run of the
    // edited corpus.
    eprintln!("[incremental] reference: full cold run on the edited corpus");
    let full = run_full(&cold, &edited, &cell);
    if result_json(&inc.merged) != result_json(&full) {
        fail("merged incremental result diverges from the full cold run");
    }
    append_ledger(&inc.merged, inc.wall_ms, cold.jobs());
    println!(
        "[incremental] PASS: {} re-verified / {} served from baseline, merged output \
         byte-identical to the full run (artifacts in {})",
        inc.reverified.len(),
        inc.served_baseline,
        artifact_dir().display()
    );
}

fn main() {
    let mode = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "ci".to_string());
    if mode != "ci" {
        eprintln!("usage: incr [ci] [--jobs N] (got `{mode}`)");
        std::process::exit(2);
    }
    ci();
}

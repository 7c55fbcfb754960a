//! Pre-flight filter A/B: the full-corpus evaluation with the static
//! analyzer on vs off.
//!
//! The analyzer's contract is "cheaper, never different": with the filter
//! on, statically doomed proposals skip STM execution entirely, but the
//! search must visit the same states and find byte-identical proofs. This
//! binary runs the same cell both ways, *verifies* that invariant over the
//! whole corpus (exiting non-zero on any divergence), prints the
//! per-reason pruning table, and appends one run-ledger record covering
//! both cells, with the prune counts (total and per reason) as counters.
//! It prints no wall-time comparison: both arms share one process, so the
//! second inherits the rule readings and ranking facts its lemmas filled
//! during the first.
//!
//! Usage: `preflight [--fresh] [--jobs N] [--trace-out BASE]`

use std::collections::BTreeMap;
use std::process::ExitCode;

use fscq_corpus::Corpus;
use llm_fscq_bench::{completed, run_grid, GridOpts};
use proof_metrics::report::render_preflight;
use proof_metrics::{CellConfig, EvalScope};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;

fn main() -> ExitCode {
    let opts = GridOpts::parse(
        "preflight",
        &GridOpts::flags(&["--fresh", "--jobs", "--trace-out"]),
    );
    opts.arm_tracing();
    let runner = opts.runner();

    let mut on = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
    on.scope = EvalScope::Full;
    on.search.preflight = true;
    let mut off = on.clone();
    off.search.preflight = false;

    eprintln!(
        "running cells: {} [preflight on, off] ({} jobs)",
        on.label(),
        runner.jobs()
    );
    let runs = run_grid(&runner, &Corpus::load(), &[on, off]);
    let [r_on, r_off] = completed(&runs)[..] else {
        unreachable!("two cells in, two runs out")
    };

    // The no-false-positive invariant, checked end-to-end: same theorems,
    // same outcomes, same proof scripts, same query counts.
    let mut divergences = 0usize;
    for (a, b) in r_on.outcomes.iter().zip(&r_off.outcomes) {
        if (a.name.as_str(), &a.outcome, &a.script, a.queries)
            != (b.name.as_str(), &b.outcome, &b.script, b.queries)
        {
            eprintln!(
                "DIVERGENCE at {}: on=({}, {:?}) off=({}, {:?})",
                a.name, a.outcome, a.script, b.outcome, b.script
            );
            divergences += 1;
        }
    }

    let pruned: u64 = r_on.outcomes.iter().map(|o| u64::from(o.pruned)).sum();
    let queries: u64 = r_on.outcomes.iter().map(|o| u64::from(o.queries)).sum();
    println!("{}", render_preflight(&[r_on]));

    println!(
        "outcomes : {} theorems, proved {:.1}% (both runs identical: {})",
        r_on.outcomes.len(),
        r_on.proved_rate() * 100.0,
        divergences == 0
    );
    println!("pruning  : {pruned} proposals statically rejected across {queries} model queries");

    let mut counters = BTreeMap::from([
        ("preflight.pruned".to_string(), pruned),
        ("preflight.queries".to_string(), queries),
        ("preflight.divergences".to_string(), divergences as u64),
    ]);
    for o in &r_on.outcomes {
        for (code, n) in &o.pruned_reasons {
            *counters
                .entry(format!("preflight.pruned.{code}"))
                .or_insert(0) += u64::from(*n);
        }
    }
    llm_fscq_bench::ledger_append_cells(
        "preflight-ab",
        &runner,
        &runs,
        counters,
        opts.trace_out.as_deref(),
    );

    if divergences > 0 {
        eprintln!("preflight: {divergences} diverging theorem(s) — the filter is NOT neutral");
        return ExitCode::FAILURE;
    }
    if pruned == 0 {
        eprintln!(
            "preflight: filter pruned nothing — expected a nonzero statically-rejected fraction"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

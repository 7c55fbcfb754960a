//! Figure 1: proof coverage by human-proof length bin.
//!
//! Panel (a): the four main models, vanilla and with hints.
//! Panel (b): Gemini 1.5 Pro with 1M vs 128k context windows.
//!
//! Usage: `fig1 [--fresh] [--resume] [--jobs N] [--fault-seed N] [--fault-plan SPEC]
//! [--trace-out BASE]`

use llm_fscq_bench::GridOpts;
use proof_metrics::report::render_fig1;

fn main() {
    let rs = llm_fscq_bench::main_grid_opts(&GridOpts::parse("fig1", &GridOpts::ALL));
    let order_a = [
        "GPT-4o mini",
        "GPT-4o mini (w/ hints)",
        "GPT-4o",
        "GPT-4o (w/ hints)",
        "Gemini 1.5 Flash",
        "Gemini 1.5 Flash (w/ hints)",
        "Gemini 1.5 Pro",
        "Gemini 1.5 Pro (w/ hints)",
    ];
    let cells_a: Vec<_> = order_a.iter().filter_map(|l| rs.cell(l)).collect();
    println!(
        "{}",
        render_fig1(
            &cells_a,
            "Figure 1a: proof coverage by human-proof token bin"
        )
    );
    let order_b = [
        "Gemini 1.5 Pro",
        "Gemini 1.5 Pro (w/ hints)",
        "Gemini 1.5 Pro (128k context)",
        "Gemini 1.5 Pro (128k context) (w/ hints)",
    ];
    let cells_b: Vec<_> = order_b.iter().filter_map(|l| rs.cell(l)).collect();
    println!(
        "{}",
        render_fig1(
            &cells_b,
            "Figure 1b: Gemini 1.5 Pro, 1M vs 128k context window"
        )
    );
    // Headline numbers (abstract / §4.1).
    if let Some(c) = rs.cell("GPT-4o (w/ hints)") {
        let cov = proof_metrics::coverage::bin_coverage(c);
        let (under64, share) = proof_metrics::coverage::coverage_under(c, 64);
        println!(
            "GPT-4o (w/ hints): overall {:.1}% | under-64-token proofs {:.1}% (these are {:.1}% of the evaluated theorems)",
            cov.overall() * 100.0,
            under64 * 100.0,
            share * 100.0
        );
    }
}

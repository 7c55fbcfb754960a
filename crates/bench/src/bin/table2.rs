//! Table 2: proved / stuck / fuelout rates and qualitative metrics for the
//! five model configurations, vanilla -> with hints.
//!
//! Usage: `table2 [--fresh] [--jobs N] [--fault-seed N] [--fault-plan SPEC]
//! [--trace-out BASE]`
//!
//! Exits 3 when a cell crashed; its finished cells are cached, and a
//! re-run without `--fresh` completes the grid.

use llm_fscq_bench::GridOpts;
use proof_metrics::levenshtein::random_pair_baseline;
use proof_metrics::report::render_table2;

fn main() {
    let (rs, corpus) = llm_fscq_bench::main_grid_opts(&GridOpts::parse("table2", &GridOpts::ALL));
    let names = [
        "GPT-4o mini",
        "GPT-4o",
        "Gemini 1.5 Flash",
        "Gemini 1.5 Pro",
        "Gemini 1.5 Pro (128k context)",
    ];
    let mut pairs = Vec::new();
    for n in names {
        let vanilla = rs.cell(n);
        let hints = rs.cell(&format!("{n} (w/ hints)"));
        if let (Some(v), Some(h)) = (vanilla, hints) {
            pairs.push((v, h));
        }
    }
    let proofs: Vec<String> = corpus
        .dev
        .theorems
        .iter()
        .map(|t| t.proof_text.clone())
        .collect();
    let baseline = random_pair_baseline(&proofs, 400);
    println!("{}", render_table2(&pairs, baseline));
}

//! Table 1: proof coverage across theorem categories (actual / expected),
//! GPT-4o with and without hints.
//!
//! Usage: `table1 [--fresh] [--jobs N] [--fault-seed N] [--fault-plan SPEC]
//! [--trace-out BASE]`
//!
//! Exits 3 when a cell crashed; its finished cells are cached, and a
//! re-run without `--fresh` completes the grid.

use llm_fscq_bench::GridOpts;
use proof_metrics::report::render_table1;

fn main() {
    let (rs, _) = llm_fscq_bench::main_grid_opts(&GridOpts::parse("table1", &GridOpts::ALL));
    let order = ["GPT-4o", "GPT-4o (w/ hints)"];
    let cells: Vec<_> = order.iter().filter_map(|l| rs.cell(l)).collect();
    println!("{}", render_table1(&cells));
}

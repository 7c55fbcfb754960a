//! Table 1: proof coverage across theorem categories (actual / expected),
//! GPT-4o with and without hints.
//!
//! Usage: `table1 [--fresh] [--resume] [--jobs N] [--fault-seed N] [--fault-plan SPEC]
//! [--trace-out BASE]`

use llm_fscq_bench::GridOpts;
use proof_metrics::report::render_table1;

fn main() {
    let rs = llm_fscq_bench::main_grid_opts(&GridOpts::parse("table1", &GridOpts::ALL));
    let order = ["GPT-4o", "GPT-4o (w/ hints)"];
    let cells: Vec<_> = order.iter().filter_map(|l| rs.cell(l)).collect();
    println!("{}", render_table1(&cells));
}

//! Ablations called out in DESIGN.md: search strategy and duplicate-state
//! detection, at equal query budgets. Appends one run-ledger record for
//! all of its cells.
//!
//! Usage: `ablations [--fresh] [--jobs N] [--trace-out BASE]`

use fscq_corpus::Corpus;
use llm_fscq_bench::GridOpts;
use proof_metrics::{CellConfig, CellResult};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_search::Strategy;

const STRATEGIES: [Strategy; 3] = [
    Strategy::BestFirst,
    Strategy::Greedy,
    Strategy::BreadthFirst,
];
const DEDUPE: [bool; 2] = [true, false];
const CONTEXTS: [(&str, Option<usize>); 4] = [
    ("full prompt", None),
    ("retrieval top-8", Some(8)),
    ("retrieval top-16", Some(16)),
    ("retrieval top-32", Some(32)),
];

/// One result line: the proved / stuck / fuelout rates of `r`, plus its
/// mean query count when `with_queries`.
fn line(label: String, r: &CellResult, with_queries: bool) -> String {
    let mut line = format!(
        "  {label}: proved {:5.1}%  stuck {:5.1}%  fuelout {:5.1}%",
        r.proved_rate() * 100.0,
        r.rate_of("stuck") * 100.0,
        r.rate_of("fuelout") * 100.0,
    );
    if with_queries {
        let avg_q = r.outcomes.iter().map(|o| o.queries as f64).sum::<f64>()
            / r.outcomes.len().max(1) as f64;
        line += &format!("  avg queries {avg_q:.1}");
    }
    line
}

fn main() {
    let opts = GridOpts::parse(
        "ablations",
        &GridOpts::flags(&["--fresh", "--jobs", "--trace-out"]),
    );
    opts.arm_tracing();
    let tweaked = |tweak: &dyn Fn(&mut CellConfig)| {
        let mut cell = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
        tweak(&mut cell);
        cell
    };
    let cells: Vec<CellConfig> = STRATEGIES
        .iter()
        .map(|&s| tweaked(&|c| c.search.strategy = s))
        .chain(
            DEDUPE
                .iter()
                .map(|&d| tweaked(&|c| c.search.dedupe_states = d)),
        )
        .chain(CONTEXTS.iter().map(|&(_, k)| tweaked(&|c| c.retrieval = k)))
        .collect();
    let runner = opts.runner();
    let runs = llm_fscq_bench::run_grid(&runner, &Corpus::load(), &cells);
    let mut results = llm_fscq_bench::completed(&runs).into_iter();

    println!("== Search-strategy ablation (GPT-4o w/ hints, query limit 128) ==");
    for (strategy, r) in STRATEGIES.iter().zip(&mut results) {
        println!("{}", line(format!("{strategy:?}"), r, true));
    }
    println!("\n== Duplicate-state detection ablation ==");
    for (dedupe, r) in DEDUPE.iter().zip(&mut results) {
        println!("{}", line(format!("dedupe={dedupe}"), r, true));
    }
    println!("\n== Context-policy ablation (automated premise selection) ==");
    for ((label, _), r) in CONTEXTS.iter().zip(&mut results) {
        println!("{}", line(format!("{label:16}"), r, false));
    }
    llm_fscq_bench::ledger_append_cells(
        "ablations",
        &runner,
        &runs,
        Default::default(),
        opts.trace_out.as_deref(),
    );
}

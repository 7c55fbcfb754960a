//! `corpus_analyze` — the corpus audit: whole-corpus semantic analysis
//! plus per-item hygiene.
//!
//! ```text
//! corpus_analyze [--check] [--dir PATH] [--sarif PATH] [--attempt-log PATH]
//!                [--trace-out BASE]
//! ```
//!
//! Default mode loads every corpus module (the embedded corpus, or the
//! `.v` files of `--dir`), builds the dependency graph, runs the five
//! analysis passes (hint-loop, positivity, dead-symbol,
//! rewrite-orientation, axiom/admit) and the hygiene rules
//! (duplicate-name, shadowed-binder, unused-hypothesis), and prints the
//! findings with per-code counts. `--check` is the CI entry point (same
//! run; the name marks intent). `--sarif PATH` additionally writes the
//! SARIF 2.1.0 report. `--attempt-log PATH` feeds a mined attempt log
//! (see the `rank` bin) to the cold-hint audit, flagging hint entries that
//! never contributed to a successful proof.
//!
//! The premise-rank A/B experiment that used to live here (`--premise-ab`)
//! moved to the dedicated `rank` bin, which runs the three-arm
//! off/graph/learned comparison.
//!
//! Exit codes: 0 = analysis clean, 1 = findings, 2 = load/usage error.

use std::path::Path;
use std::process::ExitCode;

use corpus_analysis::{analyze_development, load_sources, passes, AnalysisConfig};
use llm_fscq_bench::GridOpts;
use minicoq_vernac::loader::dir_sources;
use proof_chaos::cli::{Cli, Flag};
use proof_trace::attempts::AttemptLog;

/// Path prefix for SARIF artifact URIs: findings point into the embedded
/// corpus; `--dir` runs point into that directory instead.
const URI_PREFIX: &str = "crates/fscq/corpus/";

fn main() -> ExitCode {
    let args = Cli::new("corpus_analyze")
        .flags(&[
            // The explicit CI spelling of the default mode.
            Flag::switch("--check"),
            Flag::value("--dir", "PATH"),
            Flag::value("--sarif", "PATH"),
            Flag::value("--attempt-log", "PATH"),
        ])
        .flags(&GridOpts::flags(&["--trace-out"]))
        .parse();
    let opts = GridOpts::from_args(&args);
    opts.arm_tracing();
    let dir = args.value("--dir");

    let sources: Vec<(String, String)> = match dir {
        Some(dir) => match dir_sources(Path::new(dir)) {
            Ok(sources) => sources,
            Err(e) => {
                eprintln!("corpus_analyze: {e}");
                return ExitCode::from(2);
            }
        },
        None => fscq_corpus::corpus_sources()
            .into_iter()
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect(),
    };
    // Hygiene runs after the analysis, not inside it: generated corpora
    // must analyze clean, and the unused-hypothesis rule fires on them.
    let analyzed = {
        let _sp = proof_trace::span("analysis", "run");
        load_sources(&sources).map(|dev| {
            let (mut report, graph) = analyze_development(&dev, &AnalysisConfig::default());
            passes::hygiene::run(&dev, &mut report.findings);
            (report, graph)
        })
    };
    let (mut report, graph) = match analyzed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("corpus_analyze: load error: {e}");
            return ExitCode::from(2);
        }
    };

    // The log-driven cold-hint audit only runs when a log is supplied, so
    // plain `--check` output is unchanged.
    if let Some(path) = args.value("--attempt-log") {
        let log = AttemptLog::at(path).load();
        if log.is_empty() {
            eprintln!("corpus_analyze: {path}: no valid attempt records");
            return ExitCode::from(2);
        }
        let before = report.findings.len();
        passes::cold::run(&graph, &log, &mut report.findings);
        println!(
            "cold-hint: {} record(s) mined, {} cold hint(s) flagged",
            log.len(),
            report.findings.len() - before
        );
    }

    println!(
        "graph    : {} symbols, {} edges across {} modules",
        graph.len(),
        report.edges,
        sources.len()
    );
    let counts = report.pass_counts();
    for (code, n) in &counts {
        proof_trace::metrics::counter_add(&format!("analysis.pass.{code}"), *n as u64);
    }
    proof_trace::metrics::counter_add("analysis.graph.symbols", report.symbols as u64);
    proof_trace::metrics::counter_add("analysis.graph.edges", report.edges as u64);
    let rendered: Vec<String> = counts.iter().map(|(c, n)| format!("{c}={n}")).collect();
    println!("passes   : {}", rendered.join(", "));
    for f in &report.findings {
        println!("finding  : {f}");
    }
    println!(
        "analysis : {} finding(s) — {}",
        report.findings.len(),
        if report.is_clean() {
            "clean"
        } else {
            "NOT clean"
        }
    );

    if let Some(path) = args.value("--sarif") {
        let prefix = match dir {
            Some(dir) => format!("{}/", dir.trim_end_matches('/')),
            None => URI_PREFIX.to_string(),
        };
        let sarif = report.sarif_json("corpus_analyze", &prefix);
        if let Err(e) = std::fs::write(path, sarif) {
            eprintln!("corpus_analyze: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("sarif    : written to {path}");
    }

    if let Some(base) = &opts.trace_out {
        llm_fscq_bench::write_trace_artifacts(base);
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

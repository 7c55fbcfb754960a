//! `lint` — audit the bundled FSCQ-lite corpus for hygiene problems.
//!
//! ```text
//! lint [--local-only]
//! ```
//!
//! Two layers run in sequence:
//!
//! 1. the per-item lints of [`llm_fscq::vernac::lint`] (duplicate names,
//!    shadowed binders, unused hypotheses), which need no global view;
//! 2. the whole-corpus semantic analysis of [`llm_fscq::analysis`]
//!    (hint loops, positivity, dead symbols, rewrite orientation,
//!    axioms/admits, unresolved references), which this binary delegates
//!    to rather than reimplementing — `--local-only` skips it.
//!
//! One line per diagnostic. Exit codes: 0 = clean, 1 = findings,
//! 2 = corpus failed to load.

use llm_fscq::analysis::{analyze_development, AnalysisConfig};
use llm_fscq::corpus::Corpus;
use llm_fscq::vernac::lint_development;
use proof_chaos::cli::{Cli, Flag};
use std::process::ExitCode;

fn main() -> ExitCode {
    let local_only = Cli::new("lint")
        .flags(&[Flag::switch("--local-only")])
        .parse()
        .given("--local-only");
    let corpus = match Corpus::try_load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lint: corpus failed to load: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = lint_development(&corpus.dev);
    for d in &diags {
        println!("{d}");
    }
    let mut total = diags.len();

    if !local_only {
        let sources: Vec<(String, String)> = llm_fscq::corpus::corpus_sources()
            .into_iter()
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect();
        let (report, _) = analyze_development(&corpus.dev, &sources, &AnalysisConfig::default());
        for f in &report.findings {
            println!("{f}");
        }
        total += report.findings.len();
    }

    if total == 0 {
        println!(
            "lint: {} files, {} theorems — clean",
            corpus.dev.files.len(),
            corpus.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {total} diagnostic(s)");
        ExitCode::from(1)
    }
}

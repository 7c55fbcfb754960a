//! Whole-corpus semantic analysis for minicoq developments.
//!
//! This crate loads every vernacular file of a development, builds a
//! global symbol table and dependency graph ([`graph::DepGraph`]), and
//! runs five static passes over it:
//!
//! 1. **hint-loop** — abstract backchaining cycles a hint database lets
//!    `auto`/`eauto` diverge on ([`passes::hints`]);
//! 2. **non-positive** — strict-positivity/stratification violations in
//!    inductive predicates, including mutual groups
//!    ([`passes::positivity`]);
//! 3. **dead-symbol** — symbols unreachable from every benchmark theorem
//!    and hint ([`passes::dead`]);
//! 4. **rewrite-pingpong** — equational lemma pairs that are exact
//!    reverses of each other ([`passes::rewrite`]);
//! 5. **admitted/axiom** — unproved assumptions ([`passes::axioms`]).
//!
//! Unresolved references discovered while building the graph are reported
//! as a sixth, structural finding (`unknown-ref`). Two audits run apart
//! from [`analyze_development`], in `corpus_analyze`: the per-item
//! hygiene rules ([`passes::hygiene`]: `duplicate-name`,
//! `shadowed-binder`, `unused-hypothesis`), and a log-driven audit
//! ([`passes::cold`], reason code `cold-hint`) that flags hint entries
//! that never contributed to a successful proof in a supplied attempt log.
//! Findings carry a stable reason-code taxonomy ([`report::Code`]) and
//! render as SARIF 2.1.0 ([`report::AnalysisReport::to_sarif`]).
//!
//! The same dependency graph also powers the opt-in premise-ranking
//! pipeline: deterministic feature extraction ([`features`]), an offline
//! attempt-mined scorer ([`score`]), and goal-specific hint reordering
//! ([`premise::reranked_env_v2`], see `proof-search`'s `premise_rank`
//! option) — and the change-impact analysis ([`impact`]): per-symbol
//! semantic fingerprints, snapshot diffing, and the dirty-cone
//! computation behind incremental re-verification.

pub mod features;
pub mod graph;
pub mod impact;
pub mod passes;
pub mod premise;
pub mod report;
pub mod score;

use minicoq_vernac::loader::{Development, Loader};

pub use graph::DepGraph;
pub use impact::{
    cone_fingerprint, cone_fingerprint_in, diff_and_cone, ConeIndex, ImpactReason, ImpactReport,
    ImpactTrace, Snapshot,
};
pub use passes::dead::Roots;
pub use report::{AnalysisReport, Code, Finding, ALL_CODES};

/// Configuration of a full analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Liveness roots for the dead-symbol audit.
    pub roots: Roots,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            roots: Roots::AllTheorems,
        }
    }
}

/// Loads `(module, text)` sources without replaying proofs. Returns `Err`
/// with a load diagnostic when the development does not elaborate.
pub fn load_sources(sources: &[(String, String)]) -> Result<Development, String> {
    let mut loader = Loader::new().check_proofs(false);
    for (name, text) in sources {
        loader.add_source(name.clone(), text.clone());
    }
    loader.load().map_err(|e| e.to_string())
}

/// [`load_sources`], then [`analyze_development`].
pub fn analyze_sources(
    sources: &[(String, String)],
    config: &AnalysisConfig,
) -> Result<(AnalysisReport, DepGraph), String> {
    let _sp = proof_trace::span("analysis", "run");
    Ok(analyze_development(&load_sources(sources)?, config))
}

/// Builds the dependency graph of an already-loaded development and runs
/// every pass over it.
pub fn analyze_development(
    dev: &Development,
    config: &AnalysisConfig,
) -> (AnalysisReport, DepGraph) {
    let graph = DepGraph::build(dev);
    let mut findings = Vec::new();
    passes::hints::run(&dev.env, &graph, &mut findings);
    passes::positivity::run(&dev.env, &graph, &mut findings);
    passes::dead::run(dev, &graph, &config.roots, &mut findings);
    passes::rewrite::run(&dev.env, &graph, &mut findings);
    passes::axioms::run(dev, &graph, &mut findings);
    for u in &graph.unresolved {
        findings.push(Finding {
            code: Code::UnknownRef,
            file: u.file.clone(),
            item: u.item.clone(),
            item_index: u.item_index,
            line: u.line,
            message: format!(
                "`{}` references `{}`, which resolves to no symbol",
                u.item, u.name
            ),
        });
    }
    let report = AnalysisReport {
        findings,
        symbols: graph.len(),
        edges: graph.edge_count(),
    };
    (report, graph)
}

//! Cold-hint audit: a hint whose targets an attempt log shows on a
//! successful proof path stays quiet; a hint whose targets never
//! contributed gets exactly one finding.

use corpus_analysis::passes::cold;
use corpus_analysis::{analyze_sources, AnalysisConfig, AnalysisReport, Code, ALL_CODES};
use proof_trace::attempts::AttemptRecord;

/// One hot hint (`near`, used on a proved path) and one cold hint
/// (`far`, never used).
const SRC: &str = "Sort blob.\n\
    Definition idb (b : blob) : blob := b.\n\
    Lemma near : forall (b : blob), idb b = b.\n\
    Proof. unfold idb. reflexivity. Qed.\n\
    Lemma far : forall (n : nat), le n n.\n\
    Proof. auto. Qed.\n\
    Hint Resolve far.\n\
    Hint Resolve near.\n";

fn on_path_record(premise: &str) -> AttemptRecord {
    AttemptRecord {
        theorem: "goal".to_string(),
        tactic: format!("apply {premise}"),
        premise: premise.to_string(),
        outcome: "proved".to_string(),
        on_path: true,
        ..AttemptRecord::default()
    }
}

fn graph_of(src: &str) -> corpus_analysis::DepGraph {
    let sources = vec![("Gen".to_string(), src.to_string())];
    let (_report, graph) =
        analyze_sources(&sources, &AnalysisConfig::default()).expect("fixture loads");
    graph
}

#[test]
fn one_hot_one_cold_hint_yields_exactly_one_finding() {
    let graph = graph_of(SRC);
    let log = vec![on_path_record("near")];
    let mut findings = Vec::new();
    cold::run(&graph, &log, &mut findings);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.code, Code::ColdHint);
    assert_eq!(f.code.code(), "cold-hint");
    assert!(
        f.message.contains("far"),
        "the cold hint targets `far`: {}",
        f.message
    );
}

#[test]
fn log_without_successes_is_no_evidence() {
    let graph = graph_of(SRC);
    // Plenty of attempts, none on a proved path: branding every hint
    // cold from a failed run would be noise, so the pass stays silent.
    let mut rec = on_path_record("near");
    rec.on_path = false;
    let mut findings = Vec::new();
    cold::run(&graph, &vec![rec; 5], &mut findings);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn all_hot_hints_yield_no_findings() {
    let graph = graph_of(SRC);
    let log = vec![on_path_record("near"), on_path_record("far")];
    let mut findings = Vec::new();
    cold::run(&graph, &log, &mut findings);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn cold_hint_is_a_first_class_reason_code() {
    assert_eq!(ALL_CODES.len(), 11);
    assert!(ALL_CODES.contains(&Code::ColdHint));
    // Reason codes must stay pairwise distinct.
    for (i, a) in ALL_CODES.iter().enumerate() {
        for b in &ALL_CODES[i + 1..] {
            assert_ne!(a.code(), b.code());
        }
    }
}

#[test]
fn cold_findings_render_in_sarif() {
    let graph = graph_of(SRC);
    let log = vec![on_path_record("near")];
    let mut findings = Vec::new();
    cold::run(&graph, &log, &mut findings);
    let report = AnalysisReport {
        findings,
        symbols: graph.len(),
        edges: graph.edge_count(),
    };
    let sarif = report.sarif_json("cold_test", "corpus/");
    assert!(sarif.contains("\"cold-hint\""), "sarif: {sarif}");
    assert!(sarif.contains("far"), "sarif names the cold hint's target");
}

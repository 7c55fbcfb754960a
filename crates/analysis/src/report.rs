//! Findings, the reason-code taxonomy, and the SARIF-shaped JSON report.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

/// The stable reason-code taxonomy of analyzer findings. Codes are part of
/// the tool's output contract (CI greps them, SARIF `ruleId`s carry them),
/// so a code's string never changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Code {
    /// A hint database admits a fuel-divergent backchaining cycle.
    HintLoop,
    /// An inductive predicate (or mutual group) occurs non-strictly-
    /// positively in one of its own introduction rules.
    NonPositive,
    /// A symbol is unreachable from every liveness root.
    DeadSymbol,
    /// Two equational lemmas are exact reverses of each other, so using
    /// both as rewrites can ping-pong forever.
    RewritePingPong,
    /// A lemma was closed with `Admitted.` instead of a checked proof.
    Admitted,
    /// An `Axiom` statement was assumed into the environment.
    Axiom,
    /// A reference did not resolve against the symbol table.
    UnknownRef,
    /// Two items declare the same top-level name (hygiene; see
    /// [`crate::passes::hygiene`]).
    DuplicateName,
    /// A quantifier rebinds a name already bound in an enclosing scope.
    ShadowedBinder,
    /// A proof introduces a named hypothesis it never mentions again.
    UnusedHypothesis,
    /// A hint-database entry never contributed to any successful proof
    /// in a supplied attempt log (log-driven audit; see
    /// [`crate::passes::cold`]).
    ColdHint,
}

/// Every code, in report order.
pub const ALL_CODES: [Code; 11] = [
    Code::HintLoop,
    Code::NonPositive,
    Code::DeadSymbol,
    Code::RewritePingPong,
    Code::Admitted,
    Code::Axiom,
    Code::UnknownRef,
    Code::DuplicateName,
    Code::ShadowedBinder,
    Code::UnusedHypothesis,
    Code::ColdHint,
];

impl Code {
    /// The stable machine-readable code.
    pub fn code(self) -> &'static str {
        match self {
            Code::HintLoop => "hint-loop",
            Code::NonPositive => "non-positive",
            Code::DeadSymbol => "dead-symbol",
            Code::RewritePingPong => "rewrite-pingpong",
            Code::Admitted => "admitted",
            Code::Axiom => "axiom",
            Code::UnknownRef => "unknown-ref",
            Code::DuplicateName => "duplicate-name",
            Code::ShadowedBinder => "shadowed-binder",
            Code::UnusedHypothesis => "unused-hypothesis",
            Code::ColdHint => "cold-hint",
        }
    }

    /// One-line rule description (SARIF `shortDescription`).
    pub fn description(self) -> &'static str {
        match self {
            Code::HintLoop => {
                "hint database admits a backchaining cycle that auto/eauto cannot exhaust"
            }
            Code::NonPositive => {
                "inductive predicate occurs non-strictly-positively in its own rules"
            }
            Code::DeadSymbol => "symbol is unreachable from every benchmark theorem and hint",
            Code::RewritePingPong => "two equational lemmas rewrite each other back and forth",
            Code::Admitted => "lemma admitted without a checked proof",
            Code::Axiom => "statement assumed as an axiom",
            Code::UnknownRef => "reference does not resolve to any declared symbol",
            Code::DuplicateName => "two items declare the same top-level name",
            Code::ShadowedBinder => "a quantifier rebinds a name bound in an enclosing scope",
            Code::UnusedHypothesis => "proof introduces a named hypothesis it never uses",
            Code::ColdHint => {
                "hint entry never contributed to a successful proof in the supplied attempt log"
            }
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One analyzer finding, anchored to a file, item, and source line.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Reason code.
    pub code: Code,
    /// Module of the offending item.
    pub file: String,
    /// Item name (synthetic for hints, empty when unknown).
    pub item: String,
    /// Index of the item within its file.
    pub item_index: usize,
    /// 1-based source line (0 when unknown).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {} [{}]",
            self.file,
            self.line,
            self.item,
            self.message,
            self.code.code()
        )
    }
}

/// The result of a full analysis run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Every finding, in pass order.
    pub findings: Vec<Finding>,
    /// Symbols in the dependency graph.
    pub symbols: usize,
    /// Reference edges in the dependency graph.
    pub edges: usize,
}

impl AnalysisReport {
    /// Finding counts per reason code, with every code present (zero
    /// counts included, so reports are shape-stable).
    pub fn pass_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out: BTreeMap<&'static str, usize> =
            ALL_CODES.iter().map(|c| (c.code(), 0)).collect();
        for f in &self.findings {
            *out.entry(f.code.code()).or_insert(0) += 1;
        }
        out
    }

    /// True when no pass produced a finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The SARIF 2.1.0 document for this report. `uri_prefix` is prepended
    /// to `<module>.v` in result locations (e.g. `crates/fscq/corpus/`).
    pub fn to_sarif(&self, tool: &str, uri_prefix: &str) -> Value {
        let rules: Vec<Value> = ALL_CODES
            .iter()
            .map(|c| {
                obj(vec![
                    ("id", s(c.code())),
                    ("shortDescription", obj(vec![("text", s(c.description()))])),
                ])
            })
            .collect();
        let results: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                obj(vec![
                    ("ruleId", s(f.code.code())),
                    ("level", s("warning")),
                    ("message", obj(vec![("text", s(&f.message))])),
                    (
                        "locations",
                        Value::Array(vec![obj(vec![(
                            "physicalLocation",
                            obj(vec![
                                (
                                    "artifactLocation",
                                    obj(vec![("uri", s(&format!("{uri_prefix}{}.v", f.file)))]),
                                ),
                                (
                                    "region",
                                    obj(vec![("startLine", Value::Int(f.line.max(1) as i64))]),
                                ),
                            ]),
                        )])]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            (
                "$schema",
                s("https://json.schemastore.org/sarif-2.1.0.json"),
            ),
            ("version", s("2.1.0")),
            (
                "runs",
                Value::Array(vec![obj(vec![
                    (
                        "tool",
                        obj(vec![(
                            "driver",
                            obj(vec![("name", s(tool)), ("rules", Value::Array(rules))]),
                        )]),
                    ),
                    ("results", Value::Array(results)),
                ])]),
            ),
        ])
    }

    /// [`to_sarif`](Self::to_sarif) rendered as pretty JSON.
    pub fn sarif_json(&self, tool: &str, uri_prefix: &str) -> String {
        serde_json::to_string_pretty(&self.to_sarif(tool, uri_prefix))
            .expect("SARIF value serializes")
    }
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

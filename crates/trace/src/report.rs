//! Trace analysis: the per-phase time breakdown and slowest-cells tables
//! behind the `trace_report` binary.
//!
//! The report operates on *parsed* spans ([`Span`], plain `String` kinds —
//! the binary reads them back from the trace file,
//! [`crate::export::read_chrome`]) plus a metrics snapshot. The central quantity is **self time**: a span's duration
//! minus the durations of its direct children on the same thread,
//! aggregated by *phase* (the span kind up to the first `.`, so
//! `oracle.prompt` accounts under `oracle`). Because children nest inside
//! parents on each thread, phase self times over a well-formed trace
//! partition total busy time exactly — whatever share lands in a named
//! phase is genuinely attributed, and the remainder is visible as container
//! overhead rather than silently lost. A child on another thread (a worker
//! under the cell that spawned it) runs alongside its parent, not inside
//! it, so its duration is busy time of its own. The [`WAIT_PHASE`] is a
//! thread idling on a join: it is reported apart, outside busy time.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;

/// A parsed span, as read back from the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Trace-local thread id.
    pub tid: u64,
    /// Phase taxonomy kind.
    pub kind: String,
    /// Display name.
    pub name: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl From<&crate::SpanRec> for Span {
    fn from(s: &crate::SpanRec) -> Span {
        Span {
            id: s.id,
            parent: s.parent,
            tid: s.tid,
            kind: s.kind.to_string(),
            name: s.name.clone(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        }
    }
}

/// The execution phases the acceptance contract names: a healthy trace
/// attributes ≥95% of busy time to these.
pub const NAMED_PHASES: [&str; 6] = [
    "oracle",
    "preflight",
    "stm",
    "frontier",
    "cache",
    "classify",
];

/// The phase of a thread blocked on joining its workers: idle time,
/// reported apart from the busy phases.
pub const WAIT_PHASE: &str = "wait";

/// The phase a span kind accounts under: everything before the first `.`.
pub fn phase_of(kind: &str) -> &str {
    kind.split('.').next().unwrap_or(kind)
}

/// Aggregated per-phase accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Busy phase → (self nanoseconds, span count); never [`WAIT_PHASE`].
    pub phases: BTreeMap<String, (u64, u64)>,
    /// Total thread-busy nanoseconds: the durations of the spans with no
    /// parent on their own thread, less the wait. Equals wall time for a
    /// single-threaded run; for a pooled run it is the across-threads busy
    /// total the phase shares are taken against.
    pub total_busy_ns: u64,
    /// [`WAIT_PHASE`] (self nanoseconds, span count).
    pub wait: (u64, u64),
}

impl PhaseBreakdown {
    /// Self time of `phase` in nanoseconds.
    pub fn self_ns(&self, phase: &str) -> u64 {
        self.phases.get(phase).map(|&(ns, _)| ns).unwrap_or(0)
    }

    /// Share of busy time attributed to the named phases of the
    /// acceptance contract, in percent.
    pub fn named_phase_pct(&self) -> f64 {
        if self.total_busy_ns == 0 {
            return 0.0;
        }
        let named: u64 = NAMED_PHASES.iter().map(|p| self.self_ns(p)).sum();
        100.0 * named as f64 / self.total_busy_ns as f64
    }
}

/// Computes the per-phase self-time breakdown.
pub fn phase_breakdown(spans: &[Span]) -> PhaseBreakdown {
    let tid_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.tid)).collect();
    // A parent missing from the trace (dropped at the cap) counts as the
    // child's own thread, so the child is not busy time of its own.
    let nested = |s: &Span| s.parent != 0 && tid_of.get(&s.parent).is_none_or(|&tid| tid == s.tid);
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| nested(s)) {
        *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
    }
    let mut out = PhaseBreakdown::default();
    for s in spans {
        let self_ns = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let phase = phase_of(&s.kind);
        let entry = if phase == WAIT_PHASE {
            &mut out.wait
        } else {
            out.phases.entry(phase.to_string()).or_insert((0, 0))
        };
        entry.0 += self_ns;
        entry.1 += 1;
        if !nested(s) {
            out.total_busy_ns += s.dur_ns;
        }
    }
    out.total_busy_ns = out.total_busy_ns.saturating_sub(out.wait.0);
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the full report: phase breakdown, slowest cells, per-tactic
/// latency/outcome table, the oracle fault-recovery summary, and what the
/// kernel replayed instead of recomputing (goal normal forms computed and
/// replayed, `auto` failures recorded and hit).
pub fn render_report(
    spans: &[Span],
    metrics: &MetricsSnapshot,
    dropped: u64,
    top_n: usize,
) -> String {
    let mut out = String::new();
    let bd = phase_breakdown(spans);
    let _ = writeln!(out, "== Phase breakdown (self time) ==");
    if dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: {dropped} spans dropped at the collector cap — \
             phase attribution below is truncated."
        );
    }
    let _ = writeln!(
        out,
        "total busy: {:.1} ms across {} spans{}",
        ms(bd.total_busy_ns),
        spans.len(),
        if dropped > 0 {
            format!(" ({dropped} spans dropped at the collector cap)")
        } else {
            String::new()
        }
    );
    let mut phases: Vec<(&String, &(u64, u64))> = bd.phases.iter().collect();
    phases.sort_by_key(|p| std::cmp::Reverse(p.1 .0));
    for (phase, &(self_ns, count)) in &phases {
        let share = if bd.total_busy_ns > 0 {
            100.0 * self_ns as f64 / bd.total_busy_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {phase:12} {:>10.1} ms  {share:>5.1}%  ({count} spans)",
            ms(self_ns)
        );
    }
    if bd.wait.1 > 0 {
        let _ = writeln!(
            out,
            "  {WAIT_PHASE:12} {:>10.1} ms  idle   ({} spans, outside total busy)",
            ms(bd.wait.0),
            bd.wait.1
        );
    }
    let _ = writeln!(
        out,
        "named-phase attribution ({}): {:.1}%",
        NAMED_PHASES.join(" / "),
        bd.named_phase_pct()
    );

    let mut cells: Vec<&Span> = spans.iter().filter(|s| s.kind == "cell").collect();
    cells.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
    if !cells.is_empty() {
        let _ = writeln!(out, "\n== Slowest cells (top {top_n}) ==");
        for s in cells.iter().take(top_n) {
            let _ = writeln!(out, "  {:>10.1} ms  {}", ms(s.dur_ns), s.name);
        }
    }

    let tactic_rows = tactic_table(metrics);
    if !tactic_rows.is_empty() {
        let _ = writeln!(out, "\n== Per-tactic latency and outcomes ==");
        let _ = writeln!(
            out,
            "  {:16} {:>8} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8}",
            "tactic", "calls", "total ms", "mean µs", "p95 µs", "ok", "rejected", "timeout"
        );
        for r in tactic_rows {
            let _ = writeln!(
                out,
                "  {:16} {:>8} {:>10.1} {:>9.1} {:>9.1} {:>8} {:>8} {:>8}",
                r.head,
                r.calls,
                r.total_ns as f64 / 1e6,
                r.mean_ns / 1e3,
                r.p95_ns as f64 / 1e3,
                r.ok,
                r.rejected,
                r.timeout
            );
        }
    }

    let _ = writeln!(out, "\n== Oracle and cache counters ==");
    for key in [
        "search.oracle_faults",
        "search.oracle_retries",
        "oracle.fault.injected.error",
        "oracle.fault.injected.garbage",
        "oracle.prompt_cache.hit",
        "oracle.prompt_cache.miss",
        "oracle.candidates",
        "oracle.candidates_gated",
    ] {
        let _ = writeln!(
            out,
            "  {key:32} {}",
            metrics.counters.get(key).copied().unwrap_or(0)
        );
    }
    if let Some(depth) = metrics.hists.get("search.frontier.depth") {
        let _ = writeln!(
            out,
            "  frontier depth: {} samples, mean {:.1}, p95 ≤ {}",
            depth.count,
            depth.mean(),
            depth.quantile_upper(0.95)
        );
    }
    let _ = writeln!(out, "\n== Kernel replay counters ==");
    for key in [
        "minicoq.target_nf.computed",
        "minicoq.target_nf.replayed",
        "minicoq.auto_fail.recorded",
        "minicoq.auto_fail.hit",
    ] {
        let _ = writeln!(
            out,
            "  {key:32} {}",
            metrics.counters.get(key).copied().unwrap_or(0)
        );
    }
    let stm: Vec<(&String, &u64)> = metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("stm.add."))
        .collect();
    if !stm.is_empty() {
        let _ = writeln!(out, "\n== STM add outcomes ==");
        for (k, v) in stm {
            let _ = writeln!(out, "  {:32} {v}", &k["stm.add.".len()..]);
        }
    }
    let analysis: Vec<(&String, &u64)> = metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("analysis."))
        .collect();
    if !analysis.is_empty() {
        let _ = writeln!(out, "\n== Corpus analysis counters ==");
        for (k, v) in analysis {
            let _ = writeln!(out, "  {:32} {v}", &k["analysis.".len()..]);
        }
    }
    out
}

/// One row of the per-tactic table.
struct TacticRow {
    head: String,
    calls: u64,
    total_ns: u64,
    mean_ns: f64,
    p95_ns: u64,
    ok: u64,
    rejected: u64,
    timeout: u64,
}

fn tactic_table(metrics: &MetricsSnapshot) -> Vec<TacticRow> {
    const PREFIX: &str = "minicoq.tactic.";
    const SUFFIX: &str = ".ns";
    let mut rows: Vec<TacticRow> = metrics
        .hists
        .iter()
        .filter_map(|(name, h)| {
            let head = name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
            let counter = |o: &str| -> u64 {
                metrics
                    .counters
                    .get(&format!("{PREFIX}{head}.{o}"))
                    .copied()
                    .unwrap_or(0)
            };
            Some(TacticRow {
                head: head.to_string(),
                calls: h.count,
                total_ns: h.sum,
                mean_ns: h.mean(),
                p95_ns: h.quantile_upper(0.95),
                ok: counter("ok"),
                rejected: counter("rejected") + counter("parse"),
                timeout: counter("timeout"),
            })
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: &str, dur: u64) -> Span {
        Span {
            id,
            parent,
            tid: 1,
            kind: kind.into(),
            name: format!("s{id}"),
            start_ns: id,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_partitions_total() {
        // root(cell, 100) > theorem(90) > {oracle(40), stm(30) > preflight(10)}
        let spans = vec![
            span(1, 0, "cell", 100),
            span(2, 1, "theorem", 90),
            span(3, 2, "oracle", 40),
            span(4, 2, "stm", 30),
            span(5, 4, "preflight", 10),
        ];
        let bd = phase_breakdown(&spans);
        assert_eq!(bd.total_busy_ns, 100);
        assert_eq!(bd.self_ns("cell"), 10);
        assert_eq!(bd.self_ns("theorem"), 20);
        assert_eq!(bd.self_ns("oracle"), 40);
        assert_eq!(bd.self_ns("stm"), 20);
        assert_eq!(bd.self_ns("preflight"), 10);
        let total: u64 = bd.phases.values().map(|&(ns, _)| ns).sum();
        assert_eq!(total, 100, "self times partition the root duration");
        // Named phases: oracle 40 + stm 20 + preflight 10 = 70%.
        assert!((bd.named_phase_pct() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn cross_thread_children_are_busy_time_and_wait_is_idle() {
        // Caller (tid 1): cell(100) > wait(90). Two workers (tids 2, 3)
        // run theorem spans adopted by the cell.
        let mut spans = vec![
            span(1, 0, "cell", 100),
            span(2, 1, "wait", 90),
            span(3, 1, "theorem", 80),
            span(4, 3, "oracle", 60),
            span(5, 1, "theorem", 70),
            span(6, 5, "stm", 70),
        ];
        for (i, tid) in [(2, 2), (3, 2), (4, 3), (5, 3)] {
            spans[i].tid = tid;
        }
        let bd = phase_breakdown(&spans);
        assert_eq!(bd.self_ns("cell"), 10, "only the same-thread wait nests");
        assert_eq!(bd.self_ns("theorem"), 20);
        assert_eq!(bd.wait, (90, 1));
        assert_eq!(bd.self_ns("wait"), 0, "wait is not a busy phase");
        // 100 (cell) + 80 + 70 (worker roots) - 90 (wait).
        assert_eq!(bd.total_busy_ns, 160);
        let total: u64 = bd.phases.values().map(|&(ns, _)| ns).sum();
        assert_eq!(total, 160, "busy self times partition total busy");
        let text = render_report(&spans, &MetricsSnapshot::default(), 0, 5);
        assert!(text.contains("outside total busy"), "{text}");
    }

    #[test]
    fn sub_kinds_report_under_their_phase() {
        let spans = vec![span(1, 0, "oracle.prompt", 50)];
        let bd = phase_breakdown(&spans);
        assert_eq!(bd.self_ns("oracle"), 50);
    }

    #[test]
    fn report_renders_sections() {
        let spans = vec![span(1, 0, "cell", 100), span(2, 1, "oracle", 60)];
        let mut m = MetricsSnapshot::default();
        m.counters.insert("search.oracle_faults".into(), 3);
        let text = render_report(&spans, &m, 0, 5);
        assert!(text.contains("Phase breakdown"));
        assert!(text.contains("Slowest cells"));
        assert!(text.contains("search.oracle_faults"));
        assert!(text.contains('3'));
    }

    #[test]
    fn report_renders_analysis_counters() {
        let spans = vec![span(1, 0, "cell", 100)];
        let mut m = MetricsSnapshot::default();
        m.counters.insert("analysis.pass.hint-loop".into(), 2);
        m.counters.insert("analysis.graph.symbols".into(), 418);
        let text = render_report(&spans, &m, 0, 5);
        assert!(text.contains("Corpus analysis counters"));
        assert!(text.contains("pass.hint-loop"));
        assert!(text.contains("418"));
        // The section is omitted entirely when no analysis ran.
        let empty = render_report(&spans, &MetricsSnapshot::default(), 0, 5);
        assert!(!empty.contains("Corpus analysis counters"));
    }
}

//! Offline trace analysis: turns a `--trace-out` JSONL stream into the
//! per-phase/per-tactic profiling report, and (with `--check`) validates
//! the companion Chrome trace-event JSON.
//!
//! ```text
//! trace_report <trace.jsonl> [--check <trace.json>] [--top N] [--min-phase-pct P]
//! ```
//!
//! `--check` asserts the Chrome artifact is well-formed: it parses, every
//! record carries a known phase (`M`/`X`/`i`), complete events have
//! non-negative durations and pid 1, every referenced tid has a
//! `thread_name` metadata record, and per-tid spans nest properly.
//! `--min-phase-pct P` exits non-zero unless at least `P` percent of busy
//! time is attributed to the named execution phases — the acceptance bar
//! for the instrumentation's coverage.

use std::process::ExitCode;

use proof_trace::metrics::{HistData, MetricsSnapshot};
use proof_trace::report::{phase_breakdown, render_report, Span};
use serde_json::Value;

fn num_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(|x| x.as_i64()).map(|n| n as u64)
}

fn str_of(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(|x| x.as_str()).map(str::to_string)
}

/// Everything a JSONL trace stream carries.
struct Parsed {
    spans: Vec<Span>,
    snap: MetricsSnapshot,
    dropped: u64,
}

/// Parses the JSONL stream into report inputs.
fn parse_jsonl(text: &str) -> Result<Parsed, String> {
    let mut spans = Vec::new();
    let mut snap = MetricsSnapshot::default();
    let mut dropped = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not JSON: {e}", lineno + 1))?;
        let t = str_of(&v, "t").ok_or_else(|| format!("line {}: missing \"t\"", lineno + 1))?;
        match t.as_str() {
            "meta" => dropped = num_u64(&v, "dropped").unwrap_or(0),
            "span" => spans.push(Span {
                id: num_u64(&v, "id").unwrap_or(0),
                parent: num_u64(&v, "parent").unwrap_or(0),
                tid: num_u64(&v, "tid").unwrap_or(0),
                kind: str_of(&v, "kind").unwrap_or_default(),
                name: str_of(&v, "name").unwrap_or_default(),
                start_ns: num_u64(&v, "start_ns").unwrap_or(0),
                dur_ns: num_u64(&v, "dur_ns").unwrap_or(0),
            }),
            "event" => {}
            "counter" => {
                if let (Some(name), Some(value)) = (str_of(&v, "name"), num_u64(&v, "value")) {
                    snap.counters.insert(name, value);
                }
            }
            "gauge" => {
                if let (Some(name), Some(value)) =
                    (str_of(&v, "name"), v.get("value").and_then(|x| x.as_i64()))
                {
                    snap.gauges.insert(name, value);
                }
            }
            "hist" => {
                if let Some(name) = str_of(&v, "name") {
                    let buckets: Vec<u64> = v
                        .get("buckets")
                        .and_then(|b| b.as_array())
                        .map(|a| a.iter().map(|x| x.as_i64().unwrap_or(0) as u64).collect())
                        .unwrap_or_default();
                    snap.hists.insert(
                        name,
                        HistData {
                            buckets,
                            count: num_u64(&v, "count").unwrap_or(0),
                            sum: num_u64(&v, "sum").unwrap_or(0),
                        },
                    );
                }
            }
            other => return Err(format!("line {}: unknown record {other}", lineno + 1)),
        }
    }
    Ok(Parsed {
        spans,
        snap,
        dropped,
    })
}

/// Validates a Chrome trace-event JSON artifact. Returns the number of
/// `traceEvents` on success.
fn check_chrome(text: &str) -> Result<usize, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    let mut named_tids = std::collections::BTreeSet::new();
    for e in events {
        if str_of(e, "ph").as_deref() == Some("M")
            && str_of(e, "name").as_deref() == Some("thread_name")
        {
            named_tids.insert(num_u64(e, "tid").ok_or("thread_name without tid")?);
        }
    }
    // Per-tid stacks of (start, end): X events must nest.
    let mut stacks: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = str_of(e, "ph").ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph.as_str() {
            "M" => {}
            "X" | "i" => {
                if str_of(e, "name").is_none() {
                    return Err(format!("event {i}: missing name"));
                }
                if num_u64(e, "pid") != Some(1) {
                    return Err(format!("event {i}: pid is not 1"));
                }
                let tid = num_u64(e, "tid").ok_or_else(|| format!("event {i}: missing tid"))?;
                if !named_tids.contains(&tid) {
                    return Err(format!("event {i}: tid {tid} has no thread_name metadata"));
                }
                let ts = e
                    .get("ts")
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                if ph == "X" {
                    let dur = e
                        .get("dur")
                        .and_then(|x| x.as_f64())
                        .ok_or_else(|| format!("event {i}: X without dur"))?;
                    if dur < 0.0 {
                        return Err(format!("event {i}: negative dur"));
                    }
                    // Spans are exported sorted by start; nesting means a
                    // span starting inside an open interval must end
                    // inside it too.
                    let stack = stacks.entry(tid).or_default();
                    while let Some(&(_, end)) = stack.last() {
                        if ts >= end {
                            stack.pop();
                        } else {
                            break;
                        }
                    }
                    if let Some(&(_, end)) = stack.last() {
                        if ts + dur > end {
                            return Err(format!(
                                "event {i}: span [{ts}, {}) overlaps its enclosing span ending at {end} on tid {tid}",
                                ts + dur
                            ));
                        }
                    }
                    stack.push((ts, ts + dur));
                    complete += 1;
                }
            }
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    if complete == 0 {
        return Err("no complete (X) span events".into());
    }
    Ok(events.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jsonl_path = None;
    let mut check_path = None;
    let mut flame_path = None;
    let mut top_n = 10usize;
    let mut min_phase_pct: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check_path = it.next().cloned(),
            "--flame" => flame_path = it.next().cloned(),
            "--top" => top_n = it.next().and_then(|v| v.parse().ok()).unwrap_or(top_n),
            "--min-phase-pct" => min_phase_pct = it.next().and_then(|v| v.parse().ok()),
            other if !other.starts_with("--") => jsonl_path = Some(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(jsonl_path) = jsonl_path else {
        eprintln!(
            "usage: trace_report <trace.jsonl> [--check <trace.json>] [--flame <out.folded>] \
             [--top N] [--min-phase-pct P]"
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&jsonl_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {jsonl_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Parsed {
        spans,
        snap,
        dropped,
    } = match parse_jsonl(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{jsonl_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} trace records were dropped at the collector cap — \
             phase totals undercount; raise TRACE_CAP"
        );
    }
    print!("{}", render_report(&spans, &snap, dropped, top_n));

    if let Some(path) = &flame_path {
        match proof_trace::export::write_collapsed(std::path::Path::new(path), &spans) {
            Ok(()) => println!("\nflamegraph collapsed stacks -> {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_chrome(&text) {
            Ok(n) => println!("\nchrome trace OK: {n} events, spans nest, tids named"),
            Err(e) => {
                eprintln!("{path}: INVALID chrome trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(min) = min_phase_pct {
        let pct = phase_breakdown(&spans).named_phase_pct();
        if pct < min {
            eprintln!("named-phase attribution {pct:.1}% is below the required {min:.1}%");
            return ExitCode::FAILURE;
        }
        println!("named-phase attribution {pct:.1}% >= {min:.1}% required");
    }
    ExitCode::SUCCESS
}

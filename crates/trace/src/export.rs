//! The trace artifact: Chrome trace-event JSON, written from a drained
//! collector and read back for `trace_report`.
//!
//! The file is an object whose `traceEvents` array holds process/thread
//! name metadata (`"ph":"M"`) and one complete event (`"ph":"X"`) per
//! span, loadable in Perfetto or `chrome://tracing`. Each complete event's
//! `args` carry the span's `id` and `parent` before its fields, so nesting
//! across threads (`collect::adopt_parent`) survives the round trip.
//! Timestamps are microseconds with nanosecond decimals, so nothing is
//! rounded away. Beside `traceEvents` sit three trace-metadata
//! properties, which trace viewers ignore: `dropped` (spans lost at the
//! collector cap), `counters` and `histograms` (the metrics registry
//! snapshot). Everything is rendered with the workspace's one JSON
//! escaper ([`json_str`]).

use std::collections::{BTreeMap, HashSet};
use std::io::{BufWriter, Write};
use std::path::Path;

use serde_json::Value;

use crate::collect::{Field, TraceData};
use crate::envelope::{json_str, object};
use crate::metrics::MetricsSnapshot;
use crate::report::Span;

/// Renders a span's `args`: its id and parent, then its fields.
fn args_json(id: u64, parent: u64, fields: &[(&'static str, Field)]) -> String {
    let mut rendered = vec![("id", id.to_string()), ("parent", parent.to_string())];
    rendered.extend(fields.iter().map(|(k, v)| match v {
        Field::U64(n) => (*k, n.to_string()),
        Field::Str(s) => (*k, json_str(s)),
    }));
    object(&rendered)
}

/// Microsecond timestamp with nanosecond decimals, as Chrome expects.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A span's display name in a trace viewer: `kind: name`, or the kind
/// alone for an unnamed span. [`read_chrome`] inverts it.
fn display_name(kind: &str, name: &str) -> String {
    if name.is_empty() {
        kind.to_string()
    } else {
        format!("{kind}: {name}")
    }
}

/// Sanitizes a collapsed-stack frame label: `;` separates frames and the
/// trailing space separates the value, so both are replaced.
fn flame_frame(kind: &str, name: &str) -> String {
    let raw = if name.is_empty() {
        kind.to_string()
    } else {
        format!("{kind}:{name}")
    };
    raw.chars()
        .map(|c| match c {
            ';' | ' ' | '\n' | '\r' | '\t' => '_',
            c => c,
        })
        .collect()
}

/// Renders parsed spans (as [`read_chrome`] reads them back) as
/// collapsed stacks (the `inferno` / `flamegraph.pl` /
/// speedscope input format): one `frame;frame;frame value` line per
/// distinct root-to-leaf path, value = **self time in microseconds**
/// (duration minus recorded children on the same thread), identical stacks
/// merged, lines sorted so output is a function of the span data alone.
/// Spans whose parent was dropped by the collector cap surface as roots.
pub fn collapsed_stacks(spans: &[Span]) -> String {
    use std::collections::BTreeMap;
    use std::collections::HashMap;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if by_id.get(&s.parent).is_some_and(|p| p.tid == s.tid) {
            *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
        }
    }
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let self_ns = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let self_us = self_ns / 1_000;
        if self_us == 0 {
            continue;
        }
        let mut frames = vec![flame_frame(&s.kind, &s.name)];
        let mut cur = s.parent;
        let mut hops = 0;
        while cur != 0 && hops < 512 {
            let Some(p) = by_id.get(&cur) else { break };
            frames.push(flame_frame(&p.kind, &p.name));
            cur = p.parent;
            hops += 1;
        }
        frames.reverse();
        *merged.entry(frames.join(";")).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (stack, us) in merged {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Writes [`collapsed_stacks`] to a file.
pub fn write_collapsed(path: impl AsRef<Path>, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, collapsed_stacks(spans))
}

/// Writes the trace file: the drop count and the metrics snapshot as
/// metadata, thread-name records, and one complete (`X`) event per span.
/// All spans share `pid` 1; `tid` is the trace-local thread id.
pub fn write_chrome(
    path: impl AsRef<Path>,
    data: &TraceData,
    metrics: &MetricsSnapshot,
) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    let counters: Vec<(&str, String)> = (metrics.counters.iter())
        .map(|(name, v)| (name.as_str(), v.to_string()))
        .collect();
    let hists: Vec<(&str, String)> = (metrics.hists.iter())
        .map(|(name, h)| {
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            let hist = object(&[
                ("count", h.count.to_string()),
                ("sum", h.sum.to_string()),
                ("buckets", format!("[{}]", buckets.join(","))),
            ]);
            (name.as_str(), hist)
        })
        .collect();
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"displayTimeUnit\":\"ms\",\"dropped\":{},",
        data.dropped
    )?;
    writeln!(w, "\"counters\":{},", object(&counters))?;
    writeln!(w, "\"histograms\":{},", object(&hists))?;
    writeln!(w, "\"traceEvents\":[")?;
    writeln!(
        w,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"proof-search\"}}}}"
    )?;
    let mut tids: Vec<u64> = data.spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        writeln!(
            w,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"trace-thread-{tid}\"}}}}"
        )?;
    }
    for s in &data.spans {
        writeln!(
            w,
            ",{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
            json_str(&display_name(s.kind, &s.name)),
            json_str(s.kind),
            us(s.start_ns),
            us(s.dur_ns),
            s.tid,
            args_json(s.id, s.parent, &s.fields)
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// A trace file read back by [`read_chrome`].
#[derive(Debug, Default)]
pub struct ChromeTrace {
    /// The spans, in file order (sorted by start).
    pub spans: Vec<Span>,
    /// The metrics registry snapshot.
    pub metrics: MetricsSnapshot,
    /// Spans dropped at the collector cap.
    pub dropped: u64,
}

fn u64_of(v: &Value) -> Option<u64> {
    v.as_i64().and_then(|n| u64::try_from(n).ok())
}

/// A microsecond timestamp or duration back in whole nanoseconds. The
/// writer's three decimals make the product an integer up to the `f64`
/// parse error, which rounding removes.
fn ns_of(v: &Value) -> Option<u64> {
    let us = v.as_f64()?;
    (us >= 0.0 && us.is_finite()).then(|| (us * 1e3).round() as u64)
}

/// Reads the metadata object `key` as `name → T`.
fn metadata<T>(
    top: &Value,
    key: &str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<BTreeMap<String, T>, String> {
    let entries = (top.get(key).and_then(Value::as_object))
        .ok_or_else(|| format!("missing `{key}` object"))?;
    (entries.iter())
        .map(|(name, v)| {
            read(v)
                .map(|x| (name.clone(), x))
                .ok_or(format!("`{key}`: bad entry `{name}`"))
        })
        .collect()
}

/// Parses and validates a trace file. The metadata must be present, and
/// every complete event must carry a
/// name of the form `cat: name` (or the bare `cat`), pid 1, a tid with
/// a `thread_name` record, a non-negative `ts` and `dur`, and its span's
/// `id` and `parent` in `args`; on each tid the spans must nest; and
/// there must be at least one. Any other `ph` is an error.
pub fn read_chrome(text: &str) -> Result<ChromeTrace, String> {
    let top: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = (top.get("traceEvents"))
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut trace = ChromeTrace {
        dropped: (top.get("dropped").and_then(u64_of)).ok_or("missing `dropped` count")?,
        metrics: MetricsSnapshot {
            counters: metadata(&top, "counters", u64_of)?,
            hists: metadata(&top, "histograms", |v| {
                serde_json::from_value(v.clone()).ok()
            })?,
        },
        spans: Vec::new(),
    };
    let str_of = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_string);
    let named_tids: HashSet<u64> = (events.iter())
        .filter(|e| {
            str_of(e, "ph").as_deref() == Some("M")
                && str_of(e, "name").as_deref() == Some("thread_name")
        })
        .filter_map(|e| e.get("tid").and_then(u64_of))
        .collect();
    // Per tid, the last start and the stack of open span ends: spans come
    // sorted by start, so a span starting inside an open interval must end
    // inside it too.
    let mut threads: BTreeMap<u64, (u64, Vec<u64>)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let err = |what: &str| format!("event {i}: {what}");
        let field = |key: &str| e.get(key).ok_or_else(|| err(&format!("missing {key}")));
        match str_of(e, "ph").as_deref() {
            Some("M") => continue,
            Some("X") => {}
            other => return Err(err(&format!("unknown ph {other:?}"))),
        }
        let display = str_of(e, "name").ok_or_else(|| err("missing name"))?;
        let kind = str_of(e, "cat").ok_or_else(|| err("missing cat"))?;
        let name = if display == kind {
            String::new()
        } else {
            (display.strip_prefix(&format!("{kind}: ")))
                .ok_or_else(|| err(&format!("name {display:?} is not of cat {kind:?}")))?
                .to_string()
        };
        if field("pid").ok().and_then(u64_of) != Some(1) {
            return Err(err("pid is not 1"));
        }
        let tid = u64_of(field("tid")?).ok_or_else(|| err("bad tid"))?;
        if !named_tids.contains(&tid) {
            return Err(err(&format!("tid {tid} has no thread_name metadata")));
        }
        let start_ns = ns_of(field("ts")?).ok_or_else(|| err("bad ts"))?;
        let dur_ns = ns_of(field("dur")?).ok_or_else(|| err("bad dur"))?;
        let args = field("args")?;
        let arg = |key: &str| {
            (args.get(key).and_then(u64_of))
                .ok_or_else(|| err(&format!("args lack the span {key}")))
        };
        let (id, parent) = (arg("id")?, arg("parent")?);
        let end_ns = start_ns + dur_ns;
        let (last_start, stack) = threads.entry(tid).or_default();
        if start_ns < *last_start {
            return Err(err(&format!(
                "span starts before its predecessor on tid {tid}"
            )));
        }
        *last_start = start_ns;
        while stack.last().is_some_and(|&end| start_ns >= end) {
            stack.pop();
        }
        if let Some(&end) = stack.last() {
            if end_ns > end {
                return Err(err(&format!(
                    "span [{start_ns}, {end_ns}) ns overlaps its enclosing span \
                     ending at {end} ns on tid {tid}"
                )));
            }
        }
        stack.push(end_ns);
        trace.spans.push(Span {
            id,
            parent,
            tid,
            kind,
            name,
            start_ns,
            dur_ns,
        });
    }
    if trace.spans.is_empty() {
        return Err("no complete (X) span events".into());
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::SpanRec;
    use crate::metrics::HistData;

    #[test]
    fn us_renders_sub_microsecond() {
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(999), "0.999");
    }

    fn rec(id: u64, parent: u64, name: &str, start_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            tid: 1,
            kind: "cell",
            name: name.into(),
            start_ns,
            dur_ns,
            fields: vec![("theorems", Field::U64(3))],
        }
    }

    fn write_then_read(
        tag: &str,
        data: &TraceData,
        snap: &MetricsSnapshot,
    ) -> Result<ChromeTrace, String> {
        let dir = std::env::temp_dir().join(format!("trace-export-{}", std::process::id()));
        let path = dir.join(format!("{tag}.json"));
        write_chrome(&path, data, snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        read_chrome(&text)
    }

    #[test]
    fn the_file_round_trips_spans_metrics_and_drops() {
        let data = TraceData {
            spans: vec![
                rec(1, 0, "A \"quoted\"", 10, 123_456_789_012),
                rec(2, 1, "", 1_000_000_007, 999),
            ],
            dropped: 4,
        };
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("c".into(), 7);
        let mut hist = HistData::default();
        hist.merge(&HistData {
            buckets: vec![1, 2],
            count: 3,
            sum: 5,
        });
        snap.hists.insert("h.ns".into(), hist);
        let back = write_then_read("round-trip", &data, &snap).unwrap();
        assert_eq!(back.dropped, 4);
        assert_eq!(back.metrics, snap);
        let want: Vec<Span> = data.spans.iter().map(Span::from).collect();
        assert_eq!(back.spans, want);
    }

    #[test]
    fn spans_out_of_start_order_are_rejected() {
        let data = TraceData {
            spans: vec![rec(1, 0, "a", 50, 10), rec(2, 0, "b", 0, 10)],
            dropped: 0,
        };
        let err = write_then_read("order", &data, &MetricsSnapshot::default()).unwrap_err();
        assert!(err.contains("predecessor"), "{err}");
    }

    #[test]
    fn overlapping_spans_on_one_thread_are_rejected() {
        let data = TraceData {
            spans: vec![rec(1, 0, "a", 0, 100), rec(2, 1, "b", 50, 100)],
            dropped: 0,
        };
        let err = write_then_read("overlap", &data, &MetricsSnapshot::default()).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn malformed_files_are_rejected() {
        let x = |args: &str| {
            format!(
                "{{\"dropped\":0,\"counters\":{{}},\"histograms\":{{}},\"traceEvents\":[{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1}},\
                 {{\"name\":\"cell\",\"cat\":\"cell\",\"ph\":\"X\",\"ts\":1.5,\"dur\":2,\"pid\":1,\"tid\":1,\"args\":{args}}}]}}"
            )
        };
        assert!(read_chrome(&x("{\"id\":1,\"parent\":0}")).is_ok());
        for bad in [
            "{".to_string(),
            "{}".to_string(),
            "{\"dropped\":0,\"counters\":{},\"histograms\":{},\"traceEvents\":[]}".to_string(),
            x("{\"id\":1,\"parent\":0}").replace("\"dropped\":0,", ""),
            x("{\"id\":1,\"parent\":0}").replace("\"counters\":{},", ""),
            x("{\"id\":1}"),
            x("{\"id\":1,\"parent\":0}").replace("\"tid\":1}", "\"tid\":2}"),
            x("{\"id\":1,\"parent\":0}").replace("\"ph\":\"X\"", "\"ph\":\"i\""),
            x("{\"id\":1,\"parent\":0}")
                .replace("\"pid\":1,\"tid\":1,\"args", "\"pid\":2,\"tid\":1,\"args"),
            x("{\"id\":1,\"parent\":0}").replace("\"name\":\"cell\"", "\"name\":\"oracle: x\""),
            x("{\"id\":1,\"parent\":0}").replace("\"dur\":2", "\"dur\":-2"),
        ] {
            assert!(read_chrome(&bad).is_err(), "accepted {bad}");
        }
    }
}

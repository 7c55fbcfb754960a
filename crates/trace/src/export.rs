//! Exporters: the JSONL event stream and Chrome trace-event JSON.
//!
//! Both formats are rendered line by line with the workspace's one JSON
//! escaper ([`json_str`]); the shapes are deliberately boring:
//!
//! * **JSONL** — one self-describing object per line: a `meta` header,
//!   then `span`, `event`, `counter`, `gauge`, and `hist` lines. This is
//!   the lossless artifact the `trace_report` binary consumes.
//! * **Chrome trace-event JSON** — an object with a `traceEvents` array of
//!   complete (`"ph":"X"`) span events and instant (`"ph":"i"`) events,
//!   plus process/thread-name metadata, loadable in Perfetto or
//!   `chrome://tracing`. Timestamps are microseconds with sub-µs decimals,
//!   so nothing is rounded away.

use std::io::{BufWriter, Write};
use std::path::Path;

use crate::collect::{Field, TraceData};
use crate::envelope::{json_str, object};
use crate::metrics::MetricsSnapshot;
use crate::report::Span;

/// Renders a field map as a JSON object.
fn fields_json(fields: &[(&'static str, Field)]) -> String {
    let rendered: Vec<(&str, String)> = (fields.iter())
        .map(|(k, v)| match v {
            Field::U64(n) => (*k, n.to_string()),
            Field::Str(s) => (*k, json_str(s)),
        })
        .collect();
    object(&rendered)
}

/// Microsecond timestamp with nanosecond decimals, as Chrome expects.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Writes the JSONL event stream: a `meta` line, every span and event,
/// then the metrics registry snapshot.
pub fn write_jsonl(
    path: impl AsRef<Path>,
    data: &TraceData,
    metrics: &MetricsSnapshot,
) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"t\":\"meta\",\"spans\":{},\"events\":{},\"dropped\":{}}}",
        data.spans.len(),
        data.events.len(),
        data.dropped
    )?;
    for s in &data.spans {
        writeln!(
            w,
            "{{\"t\":\"span\",\"id\":{},\"parent\":{},\"tid\":{},\"kind\":{},\"name\":{},\"start_ns\":{},\"dur_ns\":{},\"fields\":{}}}",
            s.id,
            s.parent,
            s.tid,
            json_str(s.kind),
            json_str(&s.name),
            s.start_ns,
            s.dur_ns,
            fields_json(&s.fields)
        )?;
    }
    for e in &data.events {
        writeln!(
            w,
            "{{\"t\":\"event\",\"parent\":{},\"tid\":{},\"kind\":{},\"name\":{},\"ts_ns\":{},\"fields\":{}}}",
            e.parent,
            e.tid,
            json_str(e.kind),
            json_str(&e.name),
            e.ts_ns,
            fields_json(&e.fields)
        )?;
    }
    for (name, v) in &metrics.counters {
        writeln!(
            w,
            "{{\"t\":\"counter\",\"name\":{},\"value\":{v}}}",
            json_str(name)
        )?;
    }
    for (name, v) in &metrics.gauges {
        writeln!(
            w,
            "{{\"t\":\"gauge\",\"name\":{},\"value\":{v}}}",
            json_str(name)
        )?;
    }
    for (name, h) in &metrics.hists {
        let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
        writeln!(
            w,
            "{{\"t\":\"hist\",\"name\":{},\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            json_str(name),
            h.count,
            h.sum,
            buckets.join(",")
        )?;
    }
    w.flush()
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

/// Renders parsed spans (as `trace_report` reads them back from a JSONL
/// export) as collapsed stacks (the `inferno` / `flamegraph.pl` /
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

/// Writes Chrome trace-event JSON: thread-name metadata, one complete
/// (`X`) event per span, one instant (`i`) event per trace event. All
/// spans share `pid` 1; `tid` is the trace-local thread id.
pub fn write_chrome(path: impl AsRef<Path>, data: &TraceData) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let mut emit = |w: &mut BufWriter<std::fs::File>, line: &str| -> std::io::Result<()> {
        if first {
            first = false;
            writeln!(w, "{line}")
        } else {
            writeln!(w, ",{line}")
        }
    };
    emit(
        &mut w,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"proof-search\"}}",
    )?;
    let mut tids: Vec<u64> = data
        .spans
        .iter()
        .map(|s| s.tid)
        .chain(data.events.iter().map(|e| e.tid))
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        emit(
            &mut w,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"trace-thread-{tid}\"}}}}"
            ),
        )?;
    }
    for s in &data.spans {
        let display = if s.name.is_empty() {
            s.kind.to_string()
        } else {
            format!("{}: {}", s.kind, s.name)
        };
        emit(
            &mut w,
            &format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                json_str(&display),
                json_str(s.kind),
                us(s.start_ns),
                us(s.dur_ns),
                s.tid,
                fields_json(&s.fields)
            ),
        )?;
    }
    for e in &data.events {
        let display = if e.name.is_empty() {
            e.kind.to_string()
        } else {
            format!("{}: {}", e.kind, e.name)
        };
        emit(
            &mut w,
            &format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                json_str(&display),
                json_str(e.kind),
                us(e.ts_ns),
                e.tid,
                fields_json(&e.fields)
            ),
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{EventRec, SpanRec};

    #[test]
    fn us_renders_sub_microsecond() {
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(999), "0.999");
    }

    #[test]
    fn writers_produce_files() {
        let dir = std::env::temp_dir().join(format!("trace-export-{}", std::process::id()));
        let data = TraceData {
            spans: vec![SpanRec {
                id: 1,
                parent: 0,
                tid: 1,
                kind: "cell",
                name: "A \"quoted\"".into(),
                start_ns: 10,
                dur_ns: 1_000_000,
                fields: vec![("theorems", Field::U64(3))],
            }],
            events: vec![EventRec {
                parent: 1,
                tid: 1,
                kind: "cache",
                name: "miss".into(),
                ts_ns: 20,
                fields: vec![],
            }],
            dropped: 0,
        };
        let snap = MetricsSnapshot::default();
        let jsonl = dir.join("t.jsonl");
        let chrome = dir.join("t.json");
        write_jsonl(&jsonl, &data, &snap).unwrap();
        write_chrome(&chrome, &data).unwrap();
        let j = std::fs::read_to_string(&jsonl).unwrap();
        assert!(j.starts_with("{\"t\":\"meta\""));
        assert!(j.contains("\"kind\":\"cell\""));
        let c = std::fs::read_to_string(&chrome).unwrap();
        assert!(c.contains("\"traceEvents\""));
        assert!(c.contains("\"ph\":\"X\""));
        assert!(c.contains("\"ph\":\"i\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

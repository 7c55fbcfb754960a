//! `radar` — the fleet regression radar over the run ledger.
//!
//! ```text
//! radar [--ledger PATH] [--check] [--last-k N] [--z Z] [--rel R]
//!       [--metrics a,b,c] [--md PATH] [--html PATH]
//! ```
//!
//! Loads `telemetry/RUNS.jsonl` (or `--ledger` / `LEDGER_PATH`), groups
//! records into per-(bin, variant) series, and runs the robust
//! median/MAD changepoint test from `proof_trace::radar` on every tracked
//! metric: the newest run against the median of up to `--last-k`
//! predecessors, MAD-scaled z with a relative-change fallback for
//! perfectly stable baselines. The verdicts render as a markdown
//! dashboard on stdout (and to `--md`), and `--html` writes a
//! self-contained dashboard with inline SVG sparklines — no external
//! assets, safe to archive as a CI artifact.
//!
//! Exit codes with `--check`: 0 = no regression, 1 = at least one metric
//! regressed (each is named on stderr), 2 = usage or unreadable ledger.
//! Without `--check` the exit is 0 unless the ledger is unusable.

use std::process::ExitCode;

use proof_chaos::cli::{Cli, Flag};
use proof_trace::ledger::Ledger;
use proof_trace::radar::{assess, metric_def, Assessment, RadarParams, METRICS};

fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Markdown dashboard: one table per series, regressions flagged.
fn render_md(assessments: &[Assessment], runs: usize, series: usize) -> String {
    let mut out = String::new();
    out.push_str("# Regression radar\n\n");
    out.push_str(&format!(
        "{runs} ledger runs across {series} series; newest run vs the median of its \
         baseline window (robust z / relative-change fallback).\n\n"
    ));
    let regressed: Vec<&Assessment> = assessments.iter().filter(|a| a.regressed).collect();
    if regressed.is_empty() {
        out.push_str("**Status: clean** — no tracked metric regressed.\n");
    } else {
        out.push_str(&format!(
            "**Status: {} regression(s) flagged.**\n",
            regressed.len()
        ));
        for a in &regressed {
            out.push_str(&format!(
                "- `{}` **{}**: latest {} vs median {} (z {:.2}, rel {:+.1}%)\n",
                a.series,
                a.metric,
                fmt(a.latest),
                fmt(a.median),
                a.robust_z,
                100.0 * a.rel_change
            ));
        }
    }
    let mut current_series = "";
    for a in assessments {
        if a.series != current_series {
            current_series = &a.series;
            out.push_str(&format!("\n## {current_series}\n\n"));
            out.push_str("| metric | latest | median | MAD | z | rel | n | verdict |\n");
            out.push_str("|---|---|---|---|---|---|---|---|\n");
        }
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {:+.1}% | {} | {} |\n",
            a.metric,
            fmt(a.latest),
            fmt(a.median),
            fmt(a.mad),
            a.robust_z,
            100.0 * a.rel_change,
            a.baseline_n,
            if a.regressed { "**REGRESSED**" } else { "ok" }
        ));
    }
    out
}

/// Inline SVG sparkline for a value history (oldest → newest); the final
/// point is marked, red when regressed.
fn sparkline(history: &[f64], regressed: bool) -> String {
    const W: f64 = 120.0;
    const H: f64 = 28.0;
    const PAD: f64 = 3.0;
    if history.len() < 2 {
        return String::new();
    }
    let min = history.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = history.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let pts: Vec<(f64, f64)> = history
        .iter()
        .enumerate()
        .map(|(i, v)| {
            (
                PAD + (W - 2.0 * PAD) * i as f64 / (history.len() - 1) as f64,
                H - PAD - (H - 2.0 * PAD) * (v - min) / span,
            )
        })
        .collect();
    let path: Vec<String> = pts.iter().map(|(x, y)| format!("{x:.1},{y:.1}")).collect();
    let (lx, ly) = *pts.last().unwrap();
    let dot_color = if regressed { "#c0392b" } else { "#27ae60" };
    format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\">\
         <polyline fill=\"none\" stroke=\"#5b7fa6\" \
         stroke-width=\"1.5\" points=\"{}\"/><circle cx=\"{lx:.1}\" cy=\"{ly:.1}\" r=\"2.5\" \
         fill=\"{dot_color}\"/></svg>",
        path.join(" ")
    )
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Self-contained HTML dashboard: inline CSS, inline SVG, zero external
/// requests.
fn render_html(assessments: &[Assessment], runs: usize, series: usize) -> String {
    let regressed = assessments.iter().filter(|a| a.regressed).count();
    let mut out = String::new();
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>Regression radar</title><style>\
         body{font-family:system-ui,sans-serif;margin:2rem;color:#222}\
         table{border-collapse:collapse;margin:0.5rem 0 1.5rem}\
         th,td{border:1px solid #ccc;padding:0.3rem 0.6rem;text-align:right;\
         font-variant-numeric:tabular-nums}\
         th:first-child,td:first-child{text-align:left}\
         tr.bad{background:#fdecea}\
         .badge{display:inline-block;padding:0.15rem 0.6rem;border-radius:1rem;color:#fff}\
         .ok{background:#27ae60}.bad-badge{background:#c0392b}\
         h2{margin-top:1.5rem;border-bottom:1px solid #ddd;padding-bottom:0.2rem}\
         </style></head><body>\n<h1>Regression radar</h1>\n",
    );
    out.push_str(&format!(
        "<p>{runs} ledger runs across {series} series. Status: {}</p>\n",
        if regressed == 0 {
            "<span class=\"badge ok\">clean</span>".to_string()
        } else {
            format!("<span class=\"badge bad-badge\">{regressed} regression(s)</span>")
        }
    ));
    let mut current_series = "";
    for a in assessments {
        if a.series != current_series {
            if !current_series.is_empty() {
                out.push_str("</table>\n");
            }
            current_series = &a.series;
            out.push_str(&format!("<h2>{}</h2>\n", html_escape(current_series)));
            out.push_str(
                "<table><tr><th>metric</th><th>trend</th><th>latest</th><th>median</th>\
                 <th>MAD</th><th>z</th><th>rel</th><th>n</th><th>verdict</th></tr>\n",
            );
        }
        out.push_str(&format!(
            "<tr{}><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{:.2}</td><td>{:+.1}%</td><td>{}</td><td>{}</td></tr>\n",
            if a.regressed { " class=\"bad\"" } else { "" },
            a.metric,
            sparkline(&a.history, a.regressed),
            fmt(a.latest),
            fmt(a.median),
            fmt(a.mad),
            a.robust_z,
            100.0 * a.rel_change,
            a.baseline_n,
            if a.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    if !current_series.is_empty() {
        out.push_str("</table>\n");
    }
    out.push_str("</body></html>\n");
    out
}

fn main() -> ExitCode {
    let args = Cli::new("radar")
        .flags(&[
            Flag::value("--ledger", "PATH"),
            Flag::switch("--check"),
            Flag::parsed::<usize>("--last-k", "N"),
            Flag::parsed::<f64>("--z", "Z"),
            Flag::parsed::<f64>("--rel", "R"),
            Flag::value("--metrics", "a,b,c"),
            Flag::value("--md", "PATH"),
            Flag::value("--html", "PATH"),
        ])
        .parse();
    let defaults = RadarParams::default();
    let params = RadarParams {
        last_k: args.get("--last-k").unwrap_or(defaults.last_k),
        z_max: args.get("--z").unwrap_or(defaults.z_max),
        rel_scale: args.get("--rel").unwrap_or(defaults.rel_scale),
    };
    let list = args
        .value("--metrics")
        .unwrap_or("")
        .split(',')
        .map(str::trim);
    let metrics: Vec<String> = list.filter(|m| !m.is_empty()).map(String::from).collect();
    if let Some(m) = metrics.iter().find(|m| metric_def(m).is_none()) {
        let known: Vec<&str> = METRICS.iter().map(|d| d.key).collect();
        args.fail(&format!(
            "radar: unknown metric `{m}` (known: {})",
            known.join(", ")
        ));
    }
    let ledger = match args.value("--ledger") {
        Some(p) => Ledger::at(p),
        None => Ledger::from_env(),
    };
    let records = ledger.load();
    if records.is_empty() {
        eprintln!(
            "radar: no usable runs in {} — run any bench bin (table2, gen, …) to seed it",
            ledger.path().display()
        );
        return ExitCode::from(2);
    }
    let series: std::collections::BTreeSet<String> = records.iter().map(|r| r.series()).collect();
    let assessments = assess(&records, &params, &metrics);

    let md = render_md(&assessments, records.len(), series.len());
    print!("{md}");
    if let Some(path) = args.value("--md") {
        if let Err(e) = std::fs::write(path, &md) {
            eprintln!("radar: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = args.value("--html") {
        let html = render_html(&assessments, records.len(), series.len());
        if let Err(e) = std::fs::write(path, html) {
            eprintln!("radar: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("radar: HTML dashboard -> {path}");
    }

    if args.given("--check") {
        let bad: Vec<&Assessment> = assessments.iter().filter(|a| a.regressed).collect();
        if !bad.is_empty() {
            for a in &bad {
                eprintln!(
                    "radar: REGRESSION {} {} (latest {} vs median {}, z {:.2}, rel {:+.1}%)",
                    a.series,
                    a.metric,
                    fmt(a.latest),
                    fmt(a.median),
                    a.robust_z,
                    100.0 * a.rel_change
                );
            }
            return ExitCode::from(1);
        }
        println!("\nradar --check: clean");
    }
    ExitCode::SUCCESS
}

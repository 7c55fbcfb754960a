//! `fscqbench`: end-to-end and per-layer benchmark of the proof-search
//! pipeline. See `README.md` beside this crate for the workloads, the
//! metrics and how each layer metric maps onto an end-to-end one.
//!
//! ```text
//! fscqbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! fscqbench pin            # regenerate reference.tsv on stdout
//! ```
//!
//! Run from the repository root. Every repetition runs in a fresh child
//! process of this binary, with a pinned environment, because the kernel
//! interner and the STM, whnf and prompt memo tables are process-global.
//! The last stdout line of a single-workload run is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when
//! the correctness gate trips.

mod check;
mod host;
mod measure;
mod probe;
mod replay;
mod report;
mod stats;
mod workload;

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::Report;
use workload::Workload;

/// Where runs write, relative to the repository root.
const OUT_DIR: &str = "fscqbench/out";
/// Repetitions a timed run makes however short `--seconds` is.
const MIN_REPS: usize = 3;
/// A child still running after this long is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// End-to-end metrics with their units, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ms_per_proved", "ms"),
    ("proved", "count"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("verified_frac", "ratio"),
];

/// Per-layer metrics with their units, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit| m.push((name.to_string(), unit));
    for n in [
        "fscq.load_ms",
        "gen.generate_ms",
        "analysis.train_ms",
        "analysis.rank_ctx_ms",
        "analysis.rerank_env_ms",
    ] {
        add(n, "ms");
    }
    add("oracle.prompt_calls", "count");
    add("oracle.prompt_ms", "ms");
    add("oracle.propose_calls", "count");
    add("oracle.propose_ms", "ms");
    add("oracle.proposals", "count");
    add("search.ms", "ms");
    add("search.non_oracle_ms", "ms");
    for n in [
        "search.queries",
        "search.expansions",
        "search.tree_size",
        "search.fuel",
    ] {
        add(n, "count");
    }
    add("stm.adds", "count");
    add("stm.add_ms", "ms");
    for o in replay::OUTCOMES {
        add(&format!("stm.n.{o}"), "count");
        add(&format!("stm.add_ms.{o}"), "ms");
    }
    add("stm.useful_ratio", "ratio");
    add("preflight.calls", "count");
    add("preflight.ms", "ms");
    add("preflight.prune_ratio", "ratio");
    add("kernel.calls", "count");
    add("kernel.ms", "ms");
    for h in replay::HEADS {
        add(&format!("kernel.{h}.calls"), "count");
        add(&format!("kernel.{h}.ms"), "ms");
        add(&format!("kernel.{h}.ok_ratio"), "ratio");
    }
    add("kernel.eauto.tail_us", "us");
    add("kernel.eauto.tail_pct", "pct");
    add("intern.arena_bytes", "bytes");
    for n in ["term", "subst", "whnf", "eval"] {
        add(&format!("intern.{n}_hit_ratio"), "ratio");
    }
    add("runner.cell_ms.max", "ms");
    add("runner.busy_frac", "ratio");
    add("theorem.n", "count");
    add("theorem.p50_ms", "ms");
    add("theorem.tail_ms", "ms");
    add("theorem.tail_pct", "pct");
    add("traced.overhead_frac", "ratio");
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("pin") => pin(),
        _ => match parse_args(&args) {
            Ok(a) => drive(&a),
            Err(e) => {
                eprintln!("fscqbench: {e}");
                eprintln!("usage: fscqbench --workload <table2-cold|gen-ladder-j2|rank-learned|all> [--seed N] [--seconds S] [--trace 0|1]");
                ExitCode::from(2)
            }
        },
    }
}

/// The benchmark's inputs live in the repository it is run from.
fn repo_root() -> PathBuf {
    PathBuf::from(".")
}

// ------------------------------------------------------------------ child

/// `child <kind> --workload W --workers N --out DIR`: one measuring
/// process. Prints its [`Report`] on stdout.
fn child(args: &[String]) -> ExitCode {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(kind), Some(w), Some(workers), Some(out)) = (
        args.first(),
        get("--workload").and_then(|w| Workload::parse(w)),
        get("--workers").and_then(|v| v.parse::<usize>().ok()),
        get("--out").map(PathBuf::from),
    ) else {
        eprintln!("fscqbench child: bad arguments {args:?}");
        return ExitCode::from(2);
    };
    let root = repo_root();
    let report = match kind.as_str() {
        "timed" => measure::timed(w, workers, &root, &out),
        "traced" => measure::traced(w, &root, &out),
        "replay-stm" => replay::stm(w, &root, &out),
        "replay-kernel" => replay::kernel(w, &root, &out),
        other => Report::fatal(format!("unknown child kind `{other}`")),
    };
    print!("{}", report.render());
    ExitCode::SUCCESS
}

/// The environment every child runs under, whatever the caller's says:
/// worker counts, tracing knobs, and every side channel that could write
/// outside the benchmark's output directory.
fn pinned_env(workers: usize, out: &Path) -> Vec<(&'static str, String)> {
    vec![
        ("JOBS", workers.to_string()),
        ("PROOF_JOBS", "1".to_string()),
        ("TRACE_SAMPLE", "16".to_string()),
        ("TRACE_CAP", "4000000".to_string()),
        ("METRICS_ADDR", String::new()),
        (
            "LEDGER_PATH",
            out.join("ledger.jsonl").display().to_string(),
        ),
        ("ATTEMPT_LOG", String::new()),
    ]
}

/// Runs one child to completion (or [`CHILD_TIMEOUT`]) and parses its
/// report. A child that crashes, hangs or prints no report comes back as
/// a failed report.
fn run_child(kind: &str, w: Workload, workers: usize, out: &Path) -> Report {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return Report::fatal(format!("cannot find own executable: {e}")),
    };
    let spawned = Command::new(exe)
        .args([
            "child",
            kind,
            "--workload",
            w.name(),
            "--workers",
            &workers.to_string(),
        ])
        .arg("--out")
        .arg(out)
        .env_clear()
        .envs(pinned_env(workers, out))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => return Report::fatal(format!("{kind} child failed to start: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        None => Report::fatal(format!(
            "{kind} child for {} timed out after {CHILD_TIMEOUT:?}",
            w.name()
        )),
        Some(s) if !s.success() => {
            Report::fatal(format!("{kind} child for {} exited with {s}", w.name()))
        }
        Some(_) => Report::parse(&text)
            .unwrap_or_else(|e| Report::fatal(format!("{kind} child for {}: {e}", w.name()))),
    }
}

// ------------------------------------------------------------------- runs

/// The outcome of one benchmark run of one workload.
#[derive(Default)]
struct RunResult {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    reps: usize,
    /// Median machine-speed probe time over the run (timed runs only).
    probe_s: f64,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn absorb(&mut self, r: &Report) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.failures.extend(r.failures.iter().cloned());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    host::json_str(n),
                    json_num(*v),
                    host::json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit the measurement has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// End-to-end metrics that are times, and so are scaled to the reference
/// host's speed.
const TIMES: [&str; 4] = ["setup_s", "wall_s", "ms_per_proved", "cpu_s"];

/// Timed repetitions until `seconds` have passed (at least [`MIN_REPS`]);
/// end-to-end metrics are the medians over repetitions. The machine-speed
/// probe runs [`probe::PER_GAP`] times before the first repetition and
/// after each one, on as many threads as the workload has workers, and the
/// time metrics are scaled by the reference probe time over the run's
/// median probe time. Scaling each repetition by the probes next to it
/// would add their own noise: the host's speed swings within seconds,
/// while the slow drift the scaling is for holds across a run.
fn run_timed(w: Workload, seconds: u64, dir: &Path) -> RunResult {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut reps: Vec<Report> = Vec::new();
    let mut res = RunResult::default();
    let mut probes = Vec::new();
    let take_probes = |probes: &mut Vec<f64>| {
        for _ in 0..probe::PER_GAP {
            probes.push(probe::seconds(w.workers()));
        }
    };
    take_probes(&mut probes);
    loop {
        let r = run_child("timed", w, w.workers(), dir);
        take_probes(&mut probes);
        res.absorb(&r);
        reps.push(r);
        let mean_rep = start.elapsed() / reps.len() as u32;
        if reps.len() >= MIN_REPS && start.elapsed() + mean_rep > budget {
            break;
        }
        if !res.correct() || start.elapsed() > CHILD_TIMEOUT {
            break;
        }
    }
    res.reps = reps.len();
    res.probe_s = stats::median(&probes).unwrap_or(0.0);
    let speed = stats::ratio(probe::REFERENCE_S, res.probe_s);
    for (name, unit) in END_TO_END {
        let value = if name == "verified_frac" {
            1.0 - stats::ratio(res.failed as f64, res.attempted as f64)
        } else {
            let vals: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let median = stats::median(&vals).unwrap_or(0.0);
            if TIMES.contains(&name) {
                median * speed
            } else {
                median
            }
        };
        res.metrics.push((name.to_string(), value, unit));
    }
    res
}

/// The traced pipeline: a timed run, the traced run, and the two replays,
/// each in its own process.
fn run_traced(w: Workload, dir: &Path) -> RunResult {
    let mut res = RunResult {
        reps: 1,
        ..RunResult::default()
    };
    let timed = run_child("timed", w, w.workers(), dir);
    res.absorb(&timed);
    // Tracing overhead compares like with like: an untraced run at the
    // traced run's single worker.
    let untraced_1w = if w.workers() == 1 {
        timed.clone()
    } else {
        let r = run_child("timed", w, 1, dir);
        res.absorb(&r);
        r
    };
    let traced = run_child("traced", w, 1, dir);
    res.absorb(&traced);
    if traced.digest != timed.digest {
        res.failed += 1;
        res.failures.push(format!(
            "{}: traced-run outcome digest {:?} differs from the timed run's {:?}",
            w.name(),
            traced.digest.map(|d| format!("{d:016x}")),
            timed.digest.map(|d| format!("{d:016x}"))
        ));
    }
    let stm = run_child("replay-stm", w, 1, dir);
    res.absorb(&stm);
    let kernel = run_child("replay-kernel", w, 1, dir);
    res.absorb(&kernel);

    let traced_wall_s = traced.metrics.get("traced.wall_ms").copied().unwrap_or(0.0) / 1e3;
    let untraced_wall_s = untraced_1w.metrics.get("wall_s").copied().unwrap_or(0.0);
    let overhead = stats::ratio(traced_wall_s, untraced_wall_s) - 1.0;
    for (name, unit) in per_layer() {
        let value = if name == "traced.overhead_frac" {
            Some(overhead)
        } else {
            [&timed, &traced, &stm, &kernel]
                .into_iter()
                .find_map(|r| r.metrics.get(&name).copied())
        };
        match value {
            Some(v) => res.metrics.push((name, v, unit)),
            None => {
                res.failed += 1;
                res.failures
                    .push(format!("{}: no child reported {name}", w.name()));
            }
        }
    }
    res
}

/// Runs one workload once in the requested mode, after clearing its
/// output directory.
fn run_workload(w: Workload, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let dir = repo_root().join(OUT_DIR).join(w.name());
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return RunResult {
            attempted: 1,
            failed: 1,
            failures: vec![format!("create {}: {e}", dir.display())],
            ..RunResult::default()
        };
    }
    let res = if trace {
        run_traced(w, &dir)
    } else {
        run_timed(w, seconds, &dir)
    };
    record_result(w, seed, trace, &res);
    res
}

/// Appends the run, with the host it ran on, to `results.jsonl` in the
/// output directory.
fn record_result(w: Workload, seed: u64, trace: bool, res: &RunResult) {
    let line = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"reps\": {}, \"probe_s\": {}, {}, \"result\": {}}}\n",
        host::json_str(w.name()),
        u8::from(trace),
        res.reps,
        json_num(res.probe_s),
        host::Host::detect().json_fields(),
        res.json()
    );
    let path = repo_root().join(OUT_DIR).join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("fscqbench: cannot record result in {}: {e}", path.display());
    }
}

fn print_table(out: &mut dyn Write, title: &str, res: &RunResult) {
    let _ = writeln!(out, "{title}");
    for (name, value, unit) in &res.metrics {
        let _ = writeln!(out, "  {name:<28} {value:>16.4} {unit}");
    }
    let _ = writeln!(
        out,
        "  attempted {} failed {} ({} process runs)",
        res.attempted, res.failed, res.reps
    );
    if res.probe_s > 0.0 {
        let _ = writeln!(
            out,
            "  times scaled to the reference host: probe took {:.4} s here, {} s there",
            res.probe_s,
            probe::REFERENCE_S
        );
    }
}

fn print_failures(res: &RunResult) {
    for f in res.failures.iter().take(40) {
        eprintln!("FAIL: {f}");
    }
    if res.failures.len() > 40 {
        eprintln!("FAIL: … and {} more", res.failures.len() - 40);
    }
}

fn drive(a: &Args) -> ExitCode {
    if a.workload == "all" {
        return drive_all(a.seed, a.seconds);
    }
    let Some(w) = Workload::parse(&a.workload) else {
        eprintln!("fscqbench: unknown workload `{}`", a.workload);
        return ExitCode::from(2);
    };
    let host = host::Host::detect();
    eprintln!(
        "fscqbench: {} seed {} on {{{}}}",
        w.name(),
        a.seed,
        host.json_fields()
    );
    let res = run_workload(w, a.seed, a.seconds, a.trace);
    print_table(&mut std::io::stderr(), w.name(), &res);
    print_failures(&res);
    println!("{}", res.json());
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload, timed and traced, as readable tables on stdout.
fn drive_all(seed: u64, seconds: u64) -> ExitCode {
    let host = host::Host::detect();
    println!("host: {{{}}}", host.json_fields());
    let mut correct = true;
    for w in workload::ALL {
        let timed = run_workload(w, seed, seconds, false);
        print_table(
            &mut std::io::stdout(),
            &format!("{}: end to end", w.name()),
            &timed,
        );
        let traced = run_workload(w, seed, seconds, true);
        print_table(
            &mut std::io::stdout(),
            &format!("{}: per layer (traced run)", w.name()),
            &traced,
        );
        for r in [&timed, &traced] {
            print_failures(r);
            correct &= r.correct();
        }
    }
    println!("correct: {correct}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `pin`: runs every workload once and prints a fresh `reference.tsv`.
/// Failures other than the missing or stale reference itself abort.
fn pin() -> ExitCode {
    let dir = repo_root().join(OUT_DIR).join("pin");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("fscqbench pin: create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let mut lines = Vec::new();
    for w in workload::ALL {
        let r = run_child("timed", w, w.workers(), &dir);
        let real: Vec<&String> = r
            .failures
            .iter()
            .filter(|f| !f.contains("pinned"))
            .collect();
        match r.pin {
            Some(line) if real.is_empty() => lines.push(line),
            _ => {
                eprintln!("fscqbench pin: {} failed: {real:?}", w.name());
                return ExitCode::from(1);
            }
        }
    }
    println!("# Pinned outcome records: workload, corpus fingerprint, model hash,");
    println!("# evaluations, proved, digest, then the low 32 bits of every record's hash.");
    println!("# Regenerate with `fscqbench pin` only when outcomes change on purpose.");
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|x| x.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(|a| a.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn args_parse_and_reject() {
        let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&[
            "--workload",
            "table2-cold",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("table2-cold", 7, 20, true)
        );
        assert!(parse_args(&s(&["--trace", "2", "--workload", "x"])).is_err());
        assert!(parse_args(&s(&["--seed", "-1", "--workload", "x"])).is_err());
        assert!(parse_args(&s(&["--seconds"])).is_err());
        assert!(parse_args(&s(&[])).is_err());
    }
}

//! The two evaluating children: the timed run, driven through
//! `proof_metrics::Runner` with tracing off, and the traced run, which
//! mirrors the runner's per-theorem loop at one worker and times every
//! call it makes into a layer's public functions.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use proof_metrics::levenshtein::{canonical_script, similarity};
use proof_metrics::Runner;
use proof_oracle::prompt::{build_prompt_cached, PromptCache};
use proof_oracle::split::hint_set;
use proof_oracle::tokenizer::count_tokens;
use proof_oracle::{OracleFault, Proposal, QueryCtx, TacticModel};
use proof_search::{search_with_recovery, Outcome, RecoveryConfig};

use crate::check::{self, Pin, Record};
use crate::host;
use crate::report::Report;
use crate::stats;
use crate::workload::{self, Setup, Workload};

/// Name of the attempt file the traced run writes for the replays.
pub const ATTEMPTS_FILE: &str = "attempts.tsv";

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs set-up, timing it, and reports the per-layer set-up costs.
fn timed_setup(w: Workload, root: &Path, report: &mut Report) -> Option<Setup> {
    let t = Instant::now();
    match workload::setup(w, root) {
        Ok(setup) => {
            report.set("setup_s", t.elapsed().as_secs_f64());
            for (k, v) in &setup.layer_ms {
                report.set(*k, *v);
            }
            Some(setup)
        }
        Err(e) => {
            report.fail(1, format!("{}: set-up failed: {e}", w.name()));
            None
        }
    }
}

/// Checks a run's records: against the workload's pinned reference, and
/// by replaying every proved script in the kernel. Fills in the report's
/// digest and pin line.
fn check_records(w: Workload, setup: &Setup, records: &[Record], report: &mut Report) {
    let actual = Pin::of(
        w.name(),
        setup.fingerprint.as_deref(),
        setup.model_hash,
        records,
    );
    report.digest = Some(actual.digest);
    report.pin = Some(actual.render());
    match check::parse_reference(check::REFERENCE) {
        Err(e) => report.fail(1, format!("pinned reference unreadable: {e}")),
        Ok(pins) => match pins.iter().find(|p| p.workload == w.name()) {
            None => report.fail(1, format!("{}: no pinned reference", w.name())),
            Some(pin) => {
                for f in check::compare(&actual, records, pin) {
                    report.fail(1, f);
                }
            }
        },
    }
    for f in check::replay_proved(&setup.corpora, records) {
        report.fail(1, f);
    }
}

/// The timed run: the workload's cells on `workers` runner workers with
/// the cell cache off, exactly as the bench binaries drive them, but
/// without their artifact writes.
pub fn timed(w: Workload, workers: usize, root: &Path, out: &Path) -> Report {
    let mut report = Report::default();
    let Some(setup) = timed_setup(w, root, &mut report) else {
        return report;
    };
    let mut runner = Runner::from_env()
        .with_jobs(workers)
        .without_cache()
        .with_recovery(RecoveryConfig::default());
    if w == Workload::Table2Cold {
        // `table2 --fresh` journals every cell; keep that cost, but in the
        // benchmark's own output directory.
        runner = runner.with_journal(out.join("journal.jsonl"));
        if let Some(j) = runner.journal() {
            j.clear();
        }
    }
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut results = Vec::with_capacity(setup.cells.len());
    let mut cell_ms_max: f64 = 0.0;
    for cell in &setup.cells {
        let t = Instant::now();
        results.push(runner.run_cell_checked(&setup.corpora[cell.corpus], &cell.config));
        cell_ms_max = cell_ms_max.max(ms(t));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let intern = minicoq::intern::stats();
    if let Some(j) = runner.journal() {
        j.clear();
    }

    let mut records = Vec::new();
    for (cell, result) in setup.cells.iter().zip(results) {
        let dev = &setup.corpora[cell.corpus].dev;
        let indices = cell.config.eval_indices(dev);
        report.attempted += indices.len() as u64;
        match result {
            Ok(res) => records.extend(indices.iter().zip(res.outcomes).map(|(&index, o)| Record {
                corpus: cell.corpus,
                index,
                cell: res.label.clone(),
                theorem: o.name,
                outcome: o.outcome,
                script: o.script,
                queries: o.queries,
            })),
            Err(crash) => report.fail(indices.len() as u64, format!("{crash}")),
        }
    }
    check_records(w, &setup, &records, &mut report);

    let proved = records.iter().filter(|r| r.outcome == "proved").count() as u64;
    report.set("wall_s", wall_s);
    report.set("proved", proved as f64);
    report.set("ms_per_proved", stats::ms_per_proved(wall_s, proved));
    report.set("cpu_s", cpu_s);
    report.set("peak_rss_mb", host::peak_rss_mb());
    report.set("runner.cell_ms.max", cell_ms_max);
    report.set("runner.busy_frac", stats::busy_frac(cpu_s, workers, wall_s));
    let hit = |h: u64, m: u64| stats::ratio(h as f64, (h + m) as f64);
    report.set("intern.arena_bytes", intern.arena_bytes as f64);
    report.set(
        "intern.term_hit_ratio",
        hit(intern.term_hits, intern.term_misses),
    );
    report.set(
        "intern.subst_hit_ratio",
        hit(intern.subst_memo_hits, intern.subst_memo_misses),
    );
    report.set(
        "intern.whnf_hit_ratio",
        hit(intern.whnf_hits, intern.whnf_misses),
    );
    report.set(
        "intern.eval_hit_ratio",
        hit(intern.eval_hits, intern.eval_misses),
    );
    report
}

/// Oracle call counters shared by a [`TimedModel`] and its clones.
#[derive(Default)]
struct OracleCounters {
    calls: AtomicU64,
    ns: AtomicU64,
    proposals: AtomicU64,
}

/// A [`TacticModel`] that times every proposal call of the model it wraps.
struct TimedModel {
    inner: Box<dyn TacticModel + Send>,
    counters: Arc<OracleCounters>,
}

impl TimedModel {
    fn count(&self, t: Instant, proposals: usize) {
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.proposals.fetch_add(proposals as u64, Ordering::Relaxed);
    }
}

impl TacticModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, ctx: &QueryCtx<'_>, width: usize) -> Vec<Proposal> {
        let t = Instant::now();
        let props = self.inner.propose(ctx, width);
        self.count(t, props.len());
        props
    }

    fn try_propose(
        &mut self,
        ctx: &QueryCtx<'_>,
        width: usize,
    ) -> Result<Vec<Proposal>, OracleFault> {
        let t = Instant::now();
        let props = self.inner.try_propose(ctx, width);
        self.count(t, props.as_ref().map_or(0, Vec::len));
        props
    }

    fn clone_boxed(&self) -> Option<Box<dyn TacticModel + Send>> {
        let inner = self.inner.clone_boxed()?;
        Some(Box::new(TimedModel {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }
}

/// The traced run: at one worker, the runner's per-theorem loop
/// (`eval_theorem_with_recovery`) with one model and one prompt cache per
/// cell, attempt collection on, and a timer around each call into a
/// layer. Writes every recorded attempt to [`ATTEMPTS_FILE`] for the
/// replays.
pub fn traced(w: Workload, root: &Path, out: &Path) -> Report {
    let mut report = Report::default();
    let Some(setup) = timed_setup(w, root, &mut report) else {
        return report;
    };
    let mut attempts = String::new();
    let mut records = Vec::new();
    let mut theorem_ms = Vec::new();
    let counters = Arc::new(OracleCounters::default());
    let recovery = RecoveryConfig {
        collect_attempts: true,
        ..RecoveryConfig::default()
    };
    let (mut prompt_calls, mut prompt_ms, mut search_ms) = (0u64, 0.0, 0.0);
    let (mut queries, mut expansions, mut tree_size, mut fuel) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for (ci, cell) in setup.cells.iter().enumerate() {
        let dev = &setup.corpora[cell.corpus].dev;
        let cfg = &cell.config;
        let hints = hint_set(dev);
        let prompt_cfg = cfg.prompt_config();
        let prompt_cache = PromptCache::new();
        let mut model = TimedModel {
            inner: Box::new(cfg.model()),
            counters: Arc::clone(&counters),
        };
        for index in cfg.eval_indices(dev) {
            let thm = &dev.theorems[index];
            let env = dev.env_before(thm);
            let t_thm = Instant::now();
            let t = Instant::now();
            let prompt = build_prompt_cached(dev, thm, &hints, &prompt_cfg, &prompt_cache);
            prompt_calls += 1;
            prompt_ms += ms(t);
            let t = Instant::now();
            let result = search_with_recovery(
                env,
                &thm.stmt,
                &thm.name,
                &mut model,
                &prompt,
                &cfg.search,
                &recovery,
            );
            search_ms += ms(t);
            // Classification as the runner does it (similarity to the
            // human proof), so the traced theorem time covers the same
            // work as the timed run's.
            let script = result.script_text();
            let human = canonical_script(&thm.proof_text);
            std::hint::black_box((count_tokens(&thm.proof_text), &human));
            if let Some(s) = &script {
                let found = canonical_script(s);
                std::hint::black_box((count_tokens(&found), similarity(&found, &human)));
            }
            theorem_ms.push(ms(t_thm));
            let s = &result.stats;
            queries += u64::from(s.queries);
            expansions += s.expansions.len() as u64;
            tree_size += s.tree_size as u64;
            fuel += s.fuel_spent;
            write_attempts(
                &mut attempts,
                ci,
                index,
                &result.stats.attempts,
                &mut report,
                &thm.name,
            );
            records.push(Record {
                corpus: cell.corpus,
                index,
                cell: cfg.label(),
                theorem: thm.name.clone(),
                outcome: match result.outcome {
                    Outcome::Proved { .. } => "proved",
                    Outcome::Stuck => "stuck",
                    Outcome::Fuelout => "fuelout",
                }
                .to_string(),
                script,
                queries: s.queries,
            });
        }
    }
    let wall_ms = ms(start);
    report.attempted = records.len() as u64;
    check_records(w, &setup, &records, &mut report);
    if let Err(e) = std::fs::File::create(out.join(ATTEMPTS_FILE))
        .and_then(|mut f| f.write_all(attempts.as_bytes()))
    {
        report.fail(1, format!("write {ATTEMPTS_FILE}: {e}"));
    }

    let oracle_ms = counters.ns.load(Ordering::Relaxed) as f64 / 1e6;
    report.set("traced.wall_ms", wall_ms);
    report.set("oracle.prompt_calls", prompt_calls as f64);
    report.set("oracle.prompt_ms", prompt_ms);
    report.set(
        "oracle.propose_calls",
        counters.calls.load(Ordering::Relaxed) as f64,
    );
    report.set("oracle.propose_ms", oracle_ms);
    report.set(
        "oracle.proposals",
        counters.proposals.load(Ordering::Relaxed) as f64,
    );
    report.set("search.ms", search_ms);
    report.set("search.non_oracle_ms", search_ms - oracle_ms);
    report.set("search.queries", queries as f64);
    report.set("search.expansions", expansions as f64);
    report.set("search.tree_size", tree_size as f64);
    report.set("search.fuel", fuel as f64);
    report.set("theorem.n", theorem_ms.len() as f64);
    report.set("theorem.p50_ms", stats::median(&theorem_ms).unwrap_or(0.0));
    let tail = stats::tail(&theorem_ms);
    report.set("theorem.tail_ms", tail.map_or(0.0, |t| t.value));
    report.set("theorem.tail_pct", tail.map_or(0.0, |t| t.pct));
    report
}

/// Appends one theorem's attempts: a `T` line (cell, theorem index,
/// attempt count), then one `A` line per attempt (parent state, child
/// state or `-`, session outcome, tactic).
fn write_attempts(
    out: &mut String,
    cell: usize,
    index: usize,
    attempts: &[proof_search::search::AttemptRec],
    report: &mut Report,
    theorem: &str,
) {
    out.push_str(&format!("T\t{cell}\t{index}\t{}\n", attempts.len()));
    for a in attempts {
        if a.tactic.contains(['\n', '\r']) {
            report.fail(
                1,
                format!(
                    "theorem {theorem}: tactic `{}` spans lines and cannot be replayed",
                    a.tactic
                ),
            );
        }
        let child = a.child.map_or("-".to_string(), |c| c.to_string());
        out.push_str(&format!(
            "A\t{}\t{child}\t{}\t{}\n",
            a.parent,
            session_label(a.outcome),
            a.tactic
        ));
    }
}

/// The session-level name of a search attempt outcome: the `stm.add`
/// outcome labels (`ok` for a new live state).
pub fn session_label(o: proof_search::search::AttemptOutcome) -> &'static str {
    use proof_search::search::AttemptOutcome as A;
    match o {
        A::Applied => "ok",
        A::Proved => "proved",
        A::Duplicate => "duplicate",
        A::Timeout => "timeout",
        A::Preflight => "preflight",
        A::Rejected => "rejected",
    }
}

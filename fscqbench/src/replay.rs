//! The replays: every attempt the traced run recorded, in the original
//! order, in a fresh process (the memo tables are process-global). The
//! STM replay drives `ProofSession::add` and checks that each call
//! reproduces the recorded outcome and child state. The kernel replay
//! feeds each attempt's parent state to `preflight_state` and
//! `apply_tactic`, skipping the evaluations the session's apply memo
//! would have answered, and times them per tactic head.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use corpus_analysis::premise::{reranked_env_v2, RankMode};
use corpus_analysis::score::RankCtx;
use minicoq::analysis::{preflight_state, PreflightVerdict};
use minicoq::env::Env;
use minicoq::error::TacticError;
use minicoq::formula::Formula;
use minicoq::fuel::Fuel;
use minicoq::goal::{Goal, ProofState};
use minicoq::parse::parse_tactic;
use minicoq::tactic::apply_tactic;
use minicoq_stm::{AddError, ProofSession, SessionConfig, StateId};
use proof_search::{PremiseRank, SearchConfig};

use crate::measure::ATTEMPTS_FILE;
use crate::report::Report;
use crate::stats;
use crate::workload::{self, Workload};

/// Session outcome labels, as `stm.add` names them.
pub const OUTCOMES: [&str; 6] = [
    "ok",
    "proved",
    "rejected",
    "preflight",
    "duplicate",
    "timeout",
];

/// Tactic heads the kernel replay reports one by one.
pub const HEADS: [&str; 6] = ["eauto", "apply", "eapply", "auto", "inversion", "apply_in"];

/// One recorded attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    pub parent: u64,
    pub child: Option<u64>,
    /// One of [`OUTCOMES`].
    pub outcome: String,
    pub tactic: String,
}

/// One theorem's attempts, in the order the search made them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index into the set-up's cells.
    pub cell: usize,
    /// Theorem index in the cell's corpus.
    pub index: usize,
    pub attempts: Vec<Attempt>,
}

/// Parses the traced run's attempt file.
pub fn parse_attempts(text: &str) -> Result<Vec<Block>, String> {
    let mut blocks: Vec<Block> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let bad = |what: &str| format!("{ATTEMPTS_FILE}:{}: {what}", n + 1);
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| bad(&format!("bad number `{s}`")))
        };
        let f: Vec<&str> = line.splitn(5, '\t').collect();
        match f.as_slice() {
            ["T", cell, index, _count] => blocks.push(Block {
                cell: num(cell)? as usize,
                index: num(index)? as usize,
                attempts: Vec::new(),
            }),
            ["A", parent, child, outcome, tactic] => {
                let block = blocks
                    .last_mut()
                    .ok_or_else(|| bad("attempt before any theorem"))?;
                if !OUTCOMES.contains(outcome) {
                    return Err(bad(&format!("unknown outcome `{outcome}`")));
                }
                block.attempts.push(Attempt {
                    parent: num(parent)?,
                    child: if *child == "-" {
                        None
                    } else {
                        Some(num(child)?)
                    },
                    outcome: outcome.to_string(),
                    tactic: tactic.to_string(),
                });
            }
            _ => return Err(bad("unrecognised line")),
        }
    }
    Ok(blocks)
}

/// Milliseconds spent building ranking contexts and reranked
/// environments.
#[derive(Default)]
struct RankTimes {
    rank_ctx_ms: f64,
    rerank_env_ms: f64,
}

/// The environment the search ran the theorem's session in: the caller's
/// snapshot, or a reranked copy when premise ranking is on. Learned
/// ranking makes the search's own calls, in its order and timed: the
/// ranking context first, then the reranked environment.
fn session_env(
    env: &Arc<Env>,
    stmt: &Formula,
    rank: PremiseRank,
    times: &mut RankTimes,
) -> Arc<Env> {
    match rank {
        PremiseRank::Off => Arc::clone(env),
        PremiseRank::Graph => Arc::new(reranked_env_v2(env, stmt, RankMode::Graph)),
        PremiseRank::Learned => {
            let t = Instant::now();
            std::hint::black_box(RankCtx::new(env, stmt));
            times.rank_ctx_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let ranked = Arc::new(reranked_env_v2(env, stmt, RankMode::Learned));
            times.rerank_env_ms += t.elapsed().as_secs_f64() * 1e3;
            ranked
        }
    }
}

/// The session outcome label and child state of one `add`.
pub fn add_label(r: &Result<minicoq_stm::AddOutcome, AddError>) -> (&'static str, Option<u64>) {
    match r {
        Ok(o) if o.proved => ("proved", Some(o.id.0)),
        Ok(o) => ("ok", Some(o.id.0)),
        Err(AddError::DuplicateState(_)) => ("duplicate", None),
        Err(AddError::Timeout) => ("timeout", None),
        Err(AddError::Preflight(_)) => ("preflight", None),
        Err(_) => ("rejected", None),
    }
}

/// Replays one theorem's attempts through a fresh session and checks each
/// against its record. Calls `timed` with every add's label and duration.
pub fn replay_session(
    env: Arc<Env>,
    stmt: &Formula,
    theorem: &str,
    cfg: &SearchConfig,
    attempts: &[Attempt],
    report: &mut Report,
    mut timed: impl FnMut(&'static str, f64),
) {
    let mut session = ProofSession::new(
        env,
        stmt.clone(),
        SessionConfig {
            tactic_fuel: cfg.tactic_fuel,
            dedupe_states: cfg.dedupe_states,
            preflight: cfg.preflight,
            fault_plan: None,
            fault_scope: theorem.to_string(),
        },
    );
    for (k, a) in attempts.iter().enumerate() {
        let t = Instant::now();
        let r = session.add(StateId(a.parent), &a.tactic);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (label, child) = add_label(&r);
        timed(label, ms);
        report.attempted += 1;
        if label != a.outcome || child != a.child {
            report.fail(
                1,
                format!(
                    "theorem {theorem}: attempt #{k} `{}` at state {}: replay gave {label} (child {child:?}), \
                     recorded {} (child {:?})",
                    a.tactic, a.parent, a.outcome, a.child
                ),
            );
        }
    }
}

fn load_blocks(out: &Path, report: &mut Report) -> Option<Vec<Block>> {
    let path = out.join(ATTEMPTS_FILE);
    match std::fs::read_to_string(&path)
        .map_err(|e| format!("read {}: {e}", path.display()))
        .and_then(|t| parse_attempts(&t))
    {
        Ok(blocks) => Some(blocks),
        Err(e) => {
            report.fail(1, e);
            None
        }
    }
}

/// The STM replay child: `stm.*` metrics plus the replay self-check.
pub fn stm(w: Workload, root: &Path, out: &Path) -> Report {
    let mut report = Report::default();
    let setup = match workload::setup(w, root) {
        Ok(s) => s,
        Err(e) => return Report::fatal(e),
    };
    let Some(blocks) = load_blocks(out, &mut report) else {
        return report;
    };
    let mut n: BTreeMap<&str, f64> = OUTCOMES.iter().map(|o| (*o, 0.0)).collect();
    let mut add_ms: BTreeMap<&str, f64> = n.clone();
    let mut rank = RankTimes::default();
    for b in &blocks {
        let Some(cell) = setup.cells.get(b.cell) else {
            report.fail(
                1,
                format!(
                    "attempt file names cell {} of {}",
                    b.cell,
                    setup.cells.len()
                ),
            );
            continue;
        };
        let dev = &setup.corpora[cell.corpus].dev;
        let thm = &dev.theorems[b.index];
        let cfg = &cell.config.search;
        let env = session_env(dev.env_before(thm), &thm.stmt, cfg.premise_rank, &mut rank);
        replay_session(
            env,
            &thm.stmt,
            &thm.name,
            cfg,
            &b.attempts,
            &mut report,
            |label, ms| {
                *n.get_mut(label).expect("labels are OUTCOMES") += 1.0;
                *add_ms.get_mut(label).expect("labels are OUTCOMES") += ms;
            },
        );
    }
    report.set("analysis.rank_ctx_ms", rank.rank_ctx_ms);
    report.set("analysis.rerank_env_ms", rank.rerank_env_ms);
    let adds: f64 = n.values().sum();
    report.set("stm.adds", adds);
    report.set("stm.add_ms", add_ms.values().sum());
    report.set(
        "stm.useful_ratio",
        stats::ratio(n["ok"] + n["proved"], adds),
    );
    for o in OUTCOMES {
        report.set(format!("stm.n.{o}"), n[o]);
        report.set(format!("stm.add_ms.{o}"), add_ms[o]);
    }
    report
}

/// What the kernel made of one (goal, tactic) pair: the replacement goals
/// for the focused goal, or the session outcome label of the failure.
type KernelResult = Result<Vec<Arc<Goal>>, &'static str>;

#[derive(Default)]
struct KernelCounts {
    preflight_calls: u64,
    preflight_ms: f64,
    prunes: u64,
    /// Per tactic head: calls, milliseconds, successes.
    heads: BTreeMap<&'static str, (u64, f64, u64)>,
    eauto_us: Vec<f64>,
}

/// Parses, pre-flights and applies one tactic at `parent`, timing the
/// pre-flight and kernel calls. Returns the successor state, or the
/// session outcome label of the failure.
fn kernel_eval(
    env: &Env,
    parent: &ProofState,
    tactic: &str,
    cfg: &SearchConfig,
    c: &mut KernelCounts,
) -> Result<ProofState, &'static str> {
    let tac = parse_tactic(env, parent.focused(), tactic).map_err(|_| "rejected")?;
    if cfg.preflight {
        let t = Instant::now();
        let verdict = preflight_state(env, parent, &tac, cfg.tactic_fuel);
        c.preflight_ms += t.elapsed().as_secs_f64() * 1e3;
        c.preflight_calls += 1;
        if let PreflightVerdict::Reject(_) = verdict {
            c.prunes += 1;
            return Err("preflight");
        }
    }
    let head = tac.head();
    let t = Instant::now();
    let r = apply_tactic(env, parent, &tac, &mut Fuel::new(cfg.tactic_fuel));
    let elapsed = t.elapsed().as_secs_f64();
    let e = c.heads.entry(head).or_default();
    e.0 += 1;
    e.1 += elapsed * 1e3;
    e.2 += u64::from(r.is_ok());
    if head == "eauto" {
        c.eauto_us.push(elapsed * 1e6);
    }
    r.map_err(|e| match e {
        TacticError::Timeout => "timeout",
        _ => "rejected",
    })
}

/// The goals that replaced `parent`'s focused goal in `next`, when the
/// unfocused tail rode along untouched (the condition under which the
/// session memoizes an outcome).
fn replacement(parent: &ProofState, next: &ProofState) -> Option<Vec<Arc<Goal>>> {
    let tail = parent.goals.get(1..)?;
    let split = next.goals.len().checked_sub(tail.len())?;
    let shared = next.goals[split..]
        .iter()
        .zip(tail)
        .all(|(a, b)| Arc::ptr_eq(a, b));
    shared.then(|| next.goals[..split].to_vec())
}

/// The kernel replay child: `preflight.*` and `kernel.*` metrics.
pub fn kernel(w: Workload, root: &Path, out: &Path) -> Report {
    let mut report = Report::default();
    let setup = match workload::setup(w, root) {
        Ok(s) => s,
        Err(e) => return Report::fatal(e),
    };
    let Some(blocks) = load_blocks(out, &mut report) else {
        return report;
    };
    let mut c = KernelCounts::default();
    // The session's apply memo, keyed as it keys it (environment uid,
    // tactic, focused goal; fuel and pre-flight are fixed per workload):
    // an attempt it would answer costs the kernel nothing.
    let mut memo: HashMap<(u64, String, Arc<Goal>), KernelResult> = HashMap::new();
    for b in &blocks {
        let Some(cell) = setup.cells.get(b.cell) else {
            report.fail(
                1,
                format!(
                    "attempt file names cell {} of {}",
                    b.cell,
                    setup.cells.len()
                ),
            );
            continue;
        };
        let dev = &setup.corpora[cell.corpus].dev;
        let thm = &dev.theorems[b.index];
        let cfg = &cell.config.search;
        let env = session_env(
            dev.env_before(thm),
            &thm.stmt,
            cfg.premise_rank,
            &mut RankTimes::default(),
        );
        let mut states: HashMap<u64, ProofState> =
            HashMap::from([(0, ProofState::new(thm.stmt.clone()))]);
        for (k, a) in b.attempts.iter().enumerate() {
            report.attempted += 1;
            let Some(parent) = states.get(&a.parent).cloned() else {
                report.fail(
                    1,
                    format!(
                        "theorem {}: attempt #{k} starts from unknown state {}",
                        thm.name, a.parent
                    ),
                );
                continue;
            };
            let Some(focused) = parent.goals.first().cloned() else {
                report.fail(
                    1,
                    format!(
                        "theorem {}: attempt #{k} starts from a closed state",
                        thm.name
                    ),
                );
                continue;
            };
            let key = (env.uid.get(), a.tactic.clone(), focused);
            // The successor state: computed now, or rebuilt from what the
            // memo holds for the focused goal.
            let result: Result<ProofState, &str> = match memo.get(&key) {
                Some(Ok(goals)) => {
                    let mut goals = goals.clone();
                    goals.extend(parent.goals.iter().skip(1).cloned());
                    Ok(ProofState { goals })
                }
                Some(Err(label)) => Err(*label),
                None => {
                    let r = kernel_eval(&env, &parent, &a.tactic, cfg, &mut c);
                    match &r {
                        Ok(next) => {
                            if let Some(goals) = replacement(&parent, next) {
                                memo.insert(key, Ok(goals));
                            }
                        }
                        Err(label) => {
                            memo.insert(key, Err(*label));
                        }
                    }
                    r
                }
            };
            let want = match a.outcome.as_str() {
                "ok" | "proved" | "duplicate" => "applies",
                other => other,
            };
            let got = result.as_ref().map_or_else(|l| *l, |_| "applies");
            if got != want {
                report.fail(
                    1,
                    format!(
                        "theorem {}: attempt #{k} `{}`: kernel {got}, session recorded {}",
                        thm.name, a.tactic, a.outcome
                    ),
                );
            }
            if let (Ok(state), Some(child)) = (result, a.child) {
                states.insert(child, state);
            }
        }
    }
    report.set("preflight.calls", c.preflight_calls as f64);
    report.set("preflight.ms", c.preflight_ms);
    report.set(
        "preflight.prune_ratio",
        stats::ratio(c.prunes as f64, c.preflight_calls as f64),
    );
    report.set(
        "kernel.calls",
        c.heads.values().map(|h| h.0).sum::<u64>() as f64,
    );
    report.set("kernel.ms", c.heads.values().map(|h| h.1).sum());
    for head in HEADS {
        let (calls, ms, ok) = c.heads.get(head).copied().unwrap_or_default();
        report.set(format!("kernel.{head}.calls"), calls as f64);
        report.set(format!("kernel.{head}.ms"), ms);
        report.set(
            format!("kernel.{head}.ok_ratio"),
            stats::ratio(ok as f64, calls as f64),
        );
    }
    let tail = stats::tail(&c.eauto_us);
    report.set("kernel.eauto.tail_us", tail.map_or(0.0, |t| t.value));
    report.set("kernel.eauto.tail_pct", tail.map_or(0.0, |t| t.pct));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a short search on an embedded theorem, so the tests replay
    /// real attempts.
    fn recorded(name: &str) -> (fscq_corpus::Corpus, usize, Vec<Attempt>) {
        let corpus = fscq_corpus::Corpus::load();
        let dev = &corpus.dev;
        let index = dev
            .theorems
            .iter()
            .position(|t| t.name == name)
            .expect("theorem exists");
        let thm = &dev.theorems[index];
        let hints = proof_oracle::split::hint_set(dev);
        let prompt = proof_oracle::prompt::build_prompt(
            dev,
            thm,
            &hints,
            &proof_oracle::prompt::PromptConfig::hints(),
        );
        let mut model =
            proof_oracle::SimulatedModel::new(proof_oracle::profiles::ModelProfile::gpt4o());
        let recovery = proof_search::RecoveryConfig {
            collect_attempts: true,
            ..Default::default()
        };
        let r = proof_search::search_with_recovery(
            dev.env_before(thm),
            &thm.stmt,
            &thm.name,
            &mut model,
            &prompt,
            &SearchConfig::default(),
            &recovery,
        );
        let attempts = r
            .stats
            .attempts
            .iter()
            .map(|a| Attempt {
                parent: a.parent,
                child: a.child,
                outcome: crate::measure::session_label(a.outcome).to_string(),
                tactic: a.tactic.clone(),
            })
            .collect();
        (corpus, index, attempts)
    }

    fn replay(corpus: &fscq_corpus::Corpus, index: usize, attempts: &[Attempt]) -> Report {
        let thm = &corpus.dev.theorems[index];
        let mut report = Report::default();
        let env = Arc::clone(corpus.dev.env_before(thm));
        replay_session(
            env,
            &thm.stmt,
            &thm.name,
            &SearchConfig::default(),
            attempts,
            &mut report,
            |_, _| {},
        );
        report
    }

    #[test]
    fn replay_reproduces_a_recorded_search() {
        let (corpus, index, attempts) = recorded("in_cons");
        assert!(attempts.len() > 3, "search too short to test: {attempts:?}");
        let report = replay(&corpus, index, &attempts);
        assert_eq!(report.attempted, attempts.len() as u64);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
    }

    #[test]
    fn replay_check_flags_a_perturbed_attempt() {
        let (corpus, index, attempts) = recorded("in_cons");
        let first_ok = attempts
            .iter()
            .position(|a| a.outcome == "ok")
            .expect("an attempt applied");
        let perturbations: [fn(&mut Attempt); 3] = [
            |a| a.outcome = "rejected".into(),
            |a| a.child = a.child.map(|c| c + 1),
            |a| a.tactic = "fail".into(),
        ];
        for perturb in perturbations {
            let mut bad = attempts.clone();
            perturb(&mut bad[first_ok]);
            let report = replay(&corpus, index, &bad);
            assert!(report.failed >= 1);
            assert!(
                report.failures[0].contains("in_cons"),
                "{}",
                report.failures[0]
            );
            assert!(
                report.failures[0].contains(&format!("#{first_ok}")),
                "{}",
                report.failures[0]
            );
        }
    }

    #[test]
    fn attempt_file_round_trips() {
        let text = "T\t1\t42\t2\nA\t0\t1\tok\tintros n\nA\t1\t-\trejected\tapply\tweird\n";
        let blocks = parse_attempts(text).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!((blocks[0].cell, blocks[0].index), (1, 42));
        assert_eq!(blocks[0].attempts[1].tactic, "apply\tweird");
        assert_eq!(blocks[0].attempts[0].child, Some(1));
        assert!(parse_attempts("A\t0\t1\tok\tx\n").is_err());
        assert!(parse_attempts("T\t0\t0\t1\nA\t0\t1\tmaybe\tx\n").is_err());
    }
}

//! Deterministic fault injection for the evaluation stack.
//!
//! Real LLM-backed proof pipelines treat partial failure as the common
//! case: API calls 503, models emit garbage instead of tactic lists,
//! provers stall, caches rot on disk, and workers die mid-cell. This crate
//! provides the *plan* for injecting exactly those faults — deterministic
//! in a seed, so a chaos run is as reproducible as a clean one.
//!
//! A [`FaultPlan`] answers one question: *does attempt `n` at site `s`
//! suffer fault kind `k`?* Two properties make the whole subsystem
//! testable:
//!
//! 1. **Site selection is a pure hash** of `(seed, kind, site)`. Which
//!    sites fault never depends on thread schedule or wall clock.
//! 2. **Faults are transient by default**: a selected site faults on its
//!    first [`FaultConfig::max_trips`] attempts and then behaves normally,
//!    so bounded retry (oracle faults), recompute-on-corruption (cache)
//!    and journal resume (worker panics) each recover the clean result —
//!    a faulted-then-recovered run is byte-identical to an unfaulted one.
//!
//! The consumers are `proof_oracle::chaos` (oracle errors / garbage
//! output), `minicoq_stm::session` (spurious timeouts), and
//! `proof_metrics::runner` (worker panics, cell-cache corruption). The
//! grid binaries build a plan from `--fault-seed N` / `--fault-plan SPEC`
//! ([`plan_from_flags`]), parsed by [`cli`], the workspace's one
//! command-line parser.

pub mod cli;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The fault classes the evaluation stack knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The oracle call fails outright (a simulated API 5xx / transport
    /// error). Recovered by bounded retry in the search layer.
    OracleError,
    /// The oracle replies, but with garbage the client cannot parse into a
    /// tactic list. Detected client-side and retried like an error.
    OracleGarbage,
    /// The state-transition machine reports a spurious timeout for a
    /// tactic. *Not* recoverable — timeouts are part of the paper's
    /// observable taxonomy — so this kind is for robustness runs, not for
    /// byte-identity plans.
    StmTimeout,
    /// The on-disk cell cache write is corrupted (truncated file).
    /// Recovered by checksum verification on load, which recomputes.
    CacheCorrupt,
    /// A worker thread panics inside a cell. Recovered by per-cell panic
    /// isolation plus journal resume, which re-runs the cell.
    WorkerPanic,
}

impl FaultKind {
    /// Stable tag used in the site-selection hash.
    fn tag(self) -> &'static str {
        match self {
            FaultKind::OracleError => "oracle-error",
            FaultKind::OracleGarbage => "oracle-garbage",
            FaultKind::StmTimeout => "stm-timeout",
            FaultKind::CacheCorrupt => "cache-corrupt",
            FaultKind::WorkerPanic => "worker-panic",
        }
    }
}

/// Per-kind fault rates plus the seed and the transience horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for site selection; the same seed injects the same faults.
    pub seed: u64,
    /// Probability an oracle query site suffers a transport error.
    pub oracle_error: f64,
    /// Probability an oracle query site returns garbage output.
    pub oracle_garbage: f64,
    /// Probability a (theorem, tactic) site gets a spurious STM timeout.
    pub stm_timeout: f64,
    /// Probability a cell's cache write is corrupted.
    pub cache_corrupt: f64,
    /// Probability a cell's evaluation panics a worker.
    pub worker_panic: f64,
    /// How many consecutive attempts at a selected site fault before it
    /// recovers (1 = transient: fail once, then succeed).
    pub max_trips: u32,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            oracle_error: 0.0,
            oracle_garbage: 0.0,
            stm_timeout: 0.0,
            cache_corrupt: 0.0,
            worker_panic: 0.0,
            max_trips: 1,
        }
    }
}

impl FaultConfig {
    /// The standard smoke-suite plan: transient oracle errors and garbage,
    /// every cell's first attempt panics a worker, and half the cache
    /// writes are corrupted. `stm_timeout` stays 0 because spurious
    /// timeouts are observable in the paper's taxonomy (they would change
    /// results); they get their own robustness plan ([`havoc`]).
    ///
    /// [`havoc`]: FaultConfig::havoc
    pub fn smoke(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            oracle_error: 0.25,
            oracle_garbage: 0.15,
            stm_timeout: 0.0,
            cache_corrupt: 0.5,
            worker_panic: 1.0,
            max_trips: 1,
        }
    }

    /// Everything at once, including non-recoverable spurious timeouts.
    /// Used to assert the stack degrades without crashing or hanging, not
    /// to assert byte-identity.
    pub fn havoc(seed: u64) -> FaultConfig {
        FaultConfig {
            stm_timeout: 0.2,
            ..FaultConfig::smoke(seed)
        }
    }

    /// Parses a `--fault-plan` spec: comma-separated `key=value` pairs with
    /// keys `oracle_err`, `garbage`, `timeout`, `cache`, `panic` (rates in
    /// `[0, 1]`) and `trips` (a count). Unset keys stay 0 (`trips` stays
    /// 1). The seed comes from `--fault-seed`, not the spec.
    pub fn parse_spec(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry `{part}` is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            if key == "trips" {
                cfg.max_trips = value
                    .parse::<u32>()
                    .map_err(|_| format!("bad trips count `{value}`"))?;
                continue;
            }
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("bad rate `{value}` for `{key}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate `{value}` for `{key}` outside [0, 1]"));
            }
            match key {
                "oracle_err" => cfg.oracle_error = rate,
                "garbage" => cfg.oracle_garbage = rate,
                "timeout" => cfg.stm_timeout = rate,
                "cache" => cfg.cache_corrupt = rate,
                "panic" => cfg.worker_panic = rate,
                other => return Err(format!("unknown fault-plan key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// A live fault plan: the config plus per-site attempt counters (the
/// "trips" that make faults transient within one process). Shared as
/// `Arc<FaultPlan>` across workers; the counter map is the only state.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cfg: FaultConfig,
    trips: Mutex<HashMap<(&'static str, String), u32>>,
}

/// FNV-1a over the seed, kind tag, and site name.
fn site_hash(seed: u64, tag: &str, site: &str) -> u64 {
    let mut buf = Vec::with_capacity(9 + tag.len() + site.len());
    buf.extend_from_slice(&seed.to_le_bytes());
    buf.extend_from_slice(tag.as_bytes());
    buf.push(0);
    buf.extend_from_slice(site.as_bytes());
    proof_trace::envelope::fnv1a(&buf)
}

/// Deterministic uniform in [0, 1) from a hash.
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64) / ((1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan over the given configuration.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            trips: Mutex::new(HashMap::new()),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::OracleError => self.cfg.oracle_error,
            FaultKind::OracleGarbage => self.cfg.oracle_garbage,
            FaultKind::StmTimeout => self.cfg.stm_timeout,
            FaultKind::CacheCorrupt => self.cfg.cache_corrupt,
            FaultKind::WorkerPanic => self.cfg.worker_panic,
        }
    }

    fn lock_trips(&self) -> MutexGuard<'_, HashMap<(&'static str, String), u32>> {
        // A panic while holding this lock (e.g. an injected worker panic
        // elsewhere in the cell) must not wedge the plan.
        self.trips
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// True when the plan selects `site` for faults of `kind` at all
    /// (before transience is considered). A pure function of the seed.
    pub fn selected(&self, kind: FaultKind, site: &str) -> bool {
        unit(site_hash(self.cfg.seed, kind.tag(), site)) < self.rate(kind)
    }

    /// Stateless query: does attempt number `attempt` (0-based) at `site`
    /// fault? Callers that track attempts externally — e.g. the runner
    /// counting prior cell attempts from the journal, so a resumed process
    /// does not re-panic — use this form.
    pub fn should_fault_at(&self, kind: FaultKind, site: &str, attempt: u32) -> bool {
        attempt < self.cfg.max_trips && self.selected(kind, site)
    }

    /// Stateful query: consult and advance this process's attempt counter
    /// for `(kind, site)`. The first `max_trips` calls on a selected site
    /// return true, later ones false — which is what lets an immediate
    /// retry succeed.
    pub fn should_fault(&self, kind: FaultKind, site: &str) -> bool {
        if self.rate(kind) <= 0.0 {
            return false;
        }
        let mut trips = self.lock_trips();
        let attempt = trips.entry((kind.tag(), site.to_string())).or_insert(0);
        let fault = self.should_fault_at(kind, site, *attempt);
        *attempt = attempt.saturating_add(1);
        fault
    }

    /// Number of attempts recorded at `site` for `kind` in this process.
    pub fn attempts(&self, kind: FaultKind, site: &str) -> u32 {
        self.lock_trips()
            .get(&(kind.tag(), site.to_string()))
            .copied()
            .unwrap_or(0)
    }
}

/// The fault plan of a `--fault-seed` / `--fault-plan` pair.
/// `--fault-plan` alone seeds 0; `--fault-seed` alone uses the standard
/// smoke rates ([`FaultConfig::smoke`]). Neither means no plan — the
/// stack runs clean. A malformed spec is an error (a chaos run that
/// silently ran clean would defeat its own point).
pub fn plan_from_flags(
    seed: Option<u64>,
    spec: Option<&str>,
) -> Result<Option<Arc<FaultPlan>>, String> {
    let mut cfg = match (spec, seed) {
        (Some(spec), _) => FaultConfig::parse_spec(spec)?,
        (None, Some(seed)) => FaultConfig::smoke(seed),
        (None, None) => return Ok(None),
    };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    Ok(Some(Arc::new(FaultPlan::new(cfg))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(FaultConfig {
            seed: 7,
            oracle_error: 0.5,
            ..Default::default()
        });
        let b = FaultPlan::new(FaultConfig {
            seed: 8,
            oracle_error: 0.5,
            ..Default::default()
        });
        let sites: Vec<String> = (0..64).map(|i| format!("thm{i}:q0")).collect();
        let pick = |p: &FaultPlan| -> Vec<bool> {
            sites
                .iter()
                .map(|s| p.selected(FaultKind::OracleError, s))
                .collect()
        };
        assert_eq!(pick(&a), pick(&a), "selection must be pure");
        assert_ne!(pick(&a), pick(&b), "different seeds must differ");
        let hits = pick(&a).iter().filter(|x| **x).count();
        assert!(
            (8..=56).contains(&hits),
            "rate 0.5 should hit roughly half of 64 sites, got {hits}"
        );
    }

    #[test]
    fn faults_are_transient_per_site() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            worker_panic: 1.0,
            max_trips: 2,
            ..Default::default()
        });
        assert!(plan.should_fault(FaultKind::WorkerPanic, "cell-a"));
        assert!(plan.should_fault(FaultKind::WorkerPanic, "cell-a"));
        assert!(!plan.should_fault(FaultKind::WorkerPanic, "cell-a"));
        assert!(!plan.should_fault(FaultKind::WorkerPanic, "cell-a"));
        assert_eq!(plan.attempts(FaultKind::WorkerPanic, "cell-a"), 4);
        // Another site has its own counter.
        assert!(plan.should_fault(FaultKind::WorkerPanic, "cell-b"));
    }

    #[test]
    fn external_attempt_tracking_skips_consumed_trips() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            worker_panic: 1.0,
            ..Default::default()
        });
        assert!(plan.should_fault_at(FaultKind::WorkerPanic, "cell", 0));
        // A resumed process that learned of the first attempt from the
        // journal must not fault again.
        assert!(!plan.should_fault_at(FaultKind::WorkerPanic, "cell", 1));
    }

    #[test]
    fn zero_rate_never_faults_and_never_counts() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 9,
            ..Default::default()
        });
        for i in 0..16 {
            assert!(!plan.should_fault(FaultKind::StmTimeout, &format!("s{i}")));
        }
        assert_eq!(plan.attempts(FaultKind::StmTimeout, "s0"), 0);
    }

    #[test]
    fn kinds_are_independent_channels() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 2,
            oracle_error: 1.0,
            ..Default::default()
        });
        assert!(plan.should_fault(FaultKind::OracleError, "site"));
        // Same site, different kind, rate 0: unaffected.
        assert!(!plan.should_fault(FaultKind::OracleGarbage, "site"));
    }

    #[test]
    fn spec_parsing_round_trips_the_knobs() {
        let cfg = FaultConfig::parse_spec(
            "oracle_err=0.25, garbage=0.1,timeout=0.05,cache=1,panic=0.5,trips=3",
        )
        .unwrap();
        assert_eq!(cfg.oracle_error, 0.25);
        assert_eq!(cfg.oracle_garbage, 0.1);
        assert_eq!(cfg.stm_timeout, 0.05);
        assert_eq!(cfg.cache_corrupt, 1.0);
        assert_eq!(cfg.worker_panic, 0.5);
        assert_eq!(cfg.max_trips, 3);
        assert!(FaultConfig::parse_spec("bogus=1").is_err());
        assert!(FaultConfig::parse_spec("oracle_err=2").is_err());
        assert!(FaultConfig::parse_spec("oracle_err").is_err());
        assert_eq!(FaultConfig::parse_spec("").unwrap(), FaultConfig::default());
    }

    #[test]
    fn flags_build_plans() {
        assert!(plan_from_flags(None, None).unwrap().is_none());
        let p = plan_from_flags(Some(42), None).unwrap().unwrap();
        assert_eq!(p.config().seed, 42);
        assert_eq!(p.config().worker_panic, 1.0, "bare seed uses smoke rates");
        assert!(plan_from_flags(Some(7), Some("bogus=1")).is_err());
        let p = plan_from_flags(Some(7), Some("timeout=0.5,trips=2"))
            .unwrap()
            .unwrap();
        assert_eq!(p.config().seed, 7);
        assert_eq!(p.config().stm_timeout, 0.5);
        assert_eq!(p.config().max_trips, 2);
        assert_eq!(p.config().worker_panic, 0.0);
    }
}

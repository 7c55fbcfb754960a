//! The regression radar: robust changepoint detection over the run
//! ledger.
//!
//! Records group into series by (`bin`, `variant`); within a series each
//! tracked metric's **newest** value is compared against the median of
//! the previous `last_k` runs using the classic robust z-score
//!
//! ```text
//! z = 0.6745 · |x − median| / MAD        (MAD > 0)
//! ```
//!
//! where MAD is the median absolute deviation and 0.6745 rescales it to a
//! standard-deviation-equivalent under normality. Median/MAD (instead of
//! mean/σ) keeps one historical outlier — a loaded CI machine, a cold
//! cache — from either masking a real regression or poisoning the
//! baseline. When the baseline is perfectly stable (MAD = 0, the common
//! case for deterministic metrics like proved fraction), the test falls
//! back to a per-metric relative-change threshold, which is what lets a
//! two-run ledger already flag a regression.
//!
//! Only deviations in each metric's *bad* direction (throughput down,
//! faults up) flag; improvements are reported but never fail `--check`.

use crate::ledger::RunRecord;

/// A metric the radar trends.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Key into [`metric_value`].
    pub key: &'static str,
    /// Direction: `true` when larger is better (throughput), `false`
    /// when smaller is better (wall time, faults, drops).
    pub higher_is_better: bool,
    /// Relative-change threshold for the MAD = 0 fallback.
    pub rel_max: f64,
    /// Floor for the relative-change denominator (lets a 0 → n jump in a
    /// count metric register as a finite change of n / floor).
    pub floor: f64,
}

/// Every metric the radar watches.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        key: "thm_per_sec",
        higher_is_better: true,
        rel_max: 0.30,
        floor: 1e-9,
    },
    MetricDef {
        key: "proved_fraction",
        higher_is_better: true,
        rel_max: 0.02,
        floor: 1e-9,
    },
    MetricDef {
        key: "wall_ms",
        higher_is_better: false,
        rel_max: 0.50,
        floor: 1e-9,
    },
    MetricDef {
        key: "oracle_faults",
        higher_is_better: false,
        rel_max: 0.90,
        floor: 1.0,
    },
    MetricDef {
        key: "oracle_retries",
        higher_is_better: false,
        rel_max: 0.90,
        floor: 1.0,
    },
    MetricDef {
        key: "dropped_spans",
        higher_is_better: false,
        rel_max: 0.90,
        floor: 1.0,
    },
    // Node-expansion totals from the premise-rank A/B (`rank` bin): a
    // counter, absent from most series, trended so a ranking-quality
    // regression (more frontier pops to reach the same proofs) is caught.
    MetricDef {
        key: "expansions",
        higher_is_better: false,
        rel_max: 0.10,
        floor: 1.0,
    },
];

/// Looks up a metric definition by key.
pub fn metric_def(key: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.key == key)
}

/// Extracts a metric value from a record.
pub fn metric_value(r: &RunRecord, key: &str) -> Option<f64> {
    match key {
        "thm_per_sec" => Some(r.thm_per_sec),
        "proved_fraction" => Some(r.proved_fraction()),
        "wall_ms" => Some(r.wall_ms),
        "oracle_faults" => Some(r.oracle_faults as f64),
        "oracle_retries" => Some(r.oracle_retries as f64),
        "dropped_spans" => Some(r.dropped_spans as f64),
        "expansions" => r.counters.get("expansions").map(|&n| n as f64),
        _ => None,
    }
}

/// Radar tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RadarParams {
    /// Baseline window: the newest value is judged against the median of
    /// at most this many preceding runs.
    pub last_k: usize,
    /// Robust z-score threshold (MAD > 0 path).
    pub z_max: f64,
    /// Global scale on the per-metric relative thresholds (1.0 = as
    /// defined in [`METRICS`]).
    pub rel_scale: f64,
}

impl Default for RadarParams {
    fn default() -> RadarParams {
        RadarParams {
            last_k: 8,
            z_max: 3.5,
            rel_scale: 1.0,
        }
    }
}

/// One (series, metric) verdict.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// Series key (`bin` or `bin/variant`).
    pub series: String,
    /// Metric key.
    pub metric: &'static str,
    /// Newest value.
    pub latest: f64,
    /// Median of the baseline window.
    pub median: f64,
    /// MAD of the baseline window.
    pub mad: f64,
    /// Robust z of the newest value against the baseline (signed: > 0 is
    /// the bad direction, < 0 an improvement; 0 when MAD = 0).
    pub robust_z: f64,
    /// Relative change in the bad direction (signed like `robust_z`).
    pub rel_change: f64,
    /// How many baseline runs the verdict used.
    pub baseline_n: usize,
    /// Full history, oldest first (baseline window + latest).
    pub history: Vec<f64>,
    /// True when the newest value regressed.
    pub regressed: bool,
}

/// Median of a sample (0 for an empty one).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `med`.
pub fn mad(xs: &[f64], med: f64) -> f64 {
    median(xs.iter().map(|x| (x - med).abs()).collect())
}

/// Runs the changepoint test over every series × metric. `metric_filter`
/// restricts to the named metrics (empty = all of [`METRICS`]). Series
/// with fewer than two runs yield no assessment — there is nothing to
/// compare yet.
pub fn assess(
    records: &[RunRecord],
    params: &RadarParams,
    metric_filter: &[String],
) -> Vec<Assessment> {
    let mut series_keys: Vec<String> = Vec::new();
    for r in records {
        let key = r.series();
        if !series_keys.contains(&key) {
            series_keys.push(key);
        }
    }
    let mut out = Vec::new();
    for series in &series_keys {
        let runs: Vec<&RunRecord> = records.iter().filter(|r| &r.series() == series).collect();
        if runs.len() < 2 {
            continue;
        }
        for def in METRICS {
            if !metric_filter.is_empty() && !metric_filter.iter().any(|m| m == def.key) {
                continue;
            }
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, def.key))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let latest = *values.last().unwrap();
            let window_start = values.len().saturating_sub(1 + params.last_k);
            let baseline = &values[window_start..values.len() - 1];
            let med = median(baseline.to_vec());
            let mad_v = mad(baseline, med);
            // Signed deviation in the bad direction.
            let bad_delta = if def.higher_is_better {
                med - latest
            } else {
                latest - med
            };
            let robust_z = if mad_v > 0.0 {
                0.6745 * bad_delta / mad_v
            } else {
                0.0
            };
            let rel_change = bad_delta / med.abs().max(def.floor);
            let rel_max = def.rel_max * params.rel_scale;
            let regressed = if mad_v > 0.0 {
                robust_z > params.z_max && rel_change > 0.0
            } else {
                rel_change > rel_max
            };
            out.push(Assessment {
                series: series.clone(),
                metric: def.key,
                latest,
                median: med,
                mad: mad_v,
                robust_z,
                rel_change,
                baseline_n: baseline.len(),
                history: values[window_start..].to_vec(),
                regressed,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bin: &str, thm_per_sec: f64, faults: u64) -> RunRecord {
        RunRecord {
            bin: bin.to_string(),
            theorems: 100,
            proved: 36,
            wall_ms: 100.0 * 1000.0 / thm_per_sec.max(1e-9),
            thm_per_sec,
            oracle_faults: faults,
            ..RunRecord::default()
        }
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 100.0], 2.5), 1.0);
    }

    #[test]
    fn stable_series_flags_fault_jump_on_second_run() {
        // The two-run demo: run 1 seeds, run 2 regresses.
        let records = vec![rec("table2", 60.0, 0), rec("table2", 58.0, 12)];
        let flags = assess(&records, &RadarParams::default(), &[]);
        let faults = flags
            .iter()
            .find(|a| a.metric == "oracle_faults")
            .expect("fault metric assessed");
        assert!(faults.regressed, "0 -> 12 faults must flag: {faults:?}");
        let tps = flags.iter().find(|a| a.metric == "thm_per_sec").unwrap();
        assert!(!tps.regressed, "a 3% throughput dip must not flag");
    }

    #[test]
    fn mad_path_flags_large_deviation_only() {
        let mut records: Vec<RunRecord> = [60.0, 61.0, 59.0, 60.5, 59.5, 60.2]
            .iter()
            .map(|&t| rec("table2", t, 0))
            .collect();
        records.push(rec("table2", 30.0, 0));
        let flags = assess(&records, &RadarParams::default(), &[]);
        let tps = flags.iter().find(|a| a.metric == "thm_per_sec").unwrap();
        assert!(tps.mad > 0.0);
        assert!(tps.regressed, "halved throughput must flag: {tps:?}");
        // An improvement must never flag.
        let mut improving = records.clone();
        improving.last_mut().unwrap().thm_per_sec = 120.0;
        improving.last_mut().unwrap().wall_ms = 100.0 * 1000.0 / 120.0;
        let flags = assess(&improving, &RadarParams::default(), &[]);
        assert!(flags
            .iter()
            .filter(|a| a.metric == "thm_per_sec" || a.metric == "wall_ms")
            .all(|a| !a.regressed));
    }

    #[test]
    fn filter_restricts_metrics() {
        let records = vec![rec("t", 60.0, 0), rec("t", 10.0, 9)];
        let flags = assess(
            &records,
            &RadarParams::default(),
            &["oracle_faults".to_string()],
        );
        assert!(flags.iter().all(|a| a.metric == "oracle_faults"));
        assert!(flags.iter().any(|a| a.regressed));
    }

    #[test]
    fn single_run_series_yields_nothing() {
        let records = vec![rec("solo", 60.0, 0)];
        assert!(assess(&records, &RadarParams::default(), &[]).is_empty());
    }
}

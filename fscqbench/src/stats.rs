//! Small statistics helpers: medians, the tail-percentile rule and the
//! ratios whose bases the report states.

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Percentiles the tail rule tries, highest first, in tenths of a percent
/// so the nearest-rank arithmetic is exact.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail summary: the highest percentile in [`TAIL_PERMILLE`] with at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest-rank
/// position, and that percentile's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
}

/// Applies the tail rule to `xs`; `None` when even the median has fewer
/// than [`TAIL_MIN_BEYOND`] samples beyond it (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PERMILLE.iter().find_map(|&p| {
        // Nearest-rank position, 1-based: the smallest k with k/n >= p.
        let k = (p * n).div_ceil(1000).max(1);
        (k <= n && n - k >= TAIL_MIN_BEYOND).then(|| Tail {
            pct: p as f64 / 10.0,
            value: v[k - 1],
        })
    })
}

/// `part / whole`, or 0 when `whole` is 0 (no work means no waste).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Share of the available worker time the process kept busy: CPU seconds
/// over `workers × wall` seconds.
pub fn busy_frac(cpu_s: f64, workers: usize, wall_s: f64) -> f64 {
    ratio(cpu_s, workers as f64 * wall_s)
}

/// Wall milliseconds per proved theorem. With nothing proved the whole
/// wall time is charged to one notional theorem, so the metric stays
/// finite and a run that proves nothing still reads worse than any run
/// that proves something in the same time.
pub fn ms_per_proved(wall_s: f64, proved: u64) -> f64 {
    wall_s * 1e3 / proved.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median's nearest rank is 10, leaving 9 beyond.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 10.0));
    }

    #[test]
    fn tail_picks_the_highest_qualifying_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 is rank 99 (1 beyond), p95 rank 95 (5 beyond), p90 rank 90
        // (10 beyond): p90 is the highest with ten samples past it.
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev), Some(t));
    }

    #[test]
    fn ratio_bases() {
        // busy_frac: 3 CPU seconds over 2 workers for 2 wall seconds.
        assert_eq!(busy_frac(3.0, 2, 2.0), 0.75);
        assert_eq!(busy_frac(1.0, 1, 0.0), 0.0);
        // useful_ratio-style ratios: zero attempts means zero, not NaN.
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        // ms_per_proved: nothing proved charges the whole wall to one.
        assert_eq!(ms_per_proved(2.0, 0), 2000.0);
        assert_eq!(ms_per_proved(2.0, 1), 2000.0);
        assert_eq!(ms_per_proved(3.0, 150), 20.0);
    }
}

//! Sample summaries: medians, quartiles and the highest percentile a
//! sample supports.

/// The order statistics one metric is reported with.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample: every metric the benchmark names must have
/// been measured at least once.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "metric has no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
    }
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default, exclusive
/// method), which is how the driver takes a metric's run-to-run spread.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn driver_quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Nearest rank of the `p`-th percentile among `n` samples, 1-based.
/// Whole-number arithmetic in tenths of a percent: `0.9 * 100.0` is not
/// 90 in floating point.
fn rank(p: f64, n: usize) -> usize {
    (((p * 10.0).round() as usize * n).div_ceil(1000)).clamp(1, n)
}

/// The `p`-th percentile (nearest rank) of a pooled latency sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest of p90/p99/p99.9 with at least ten samples beyond it, as
/// `(percentile, value)`; falls back to the maximum of a tiny sample.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    for p in [99.9, 99.0, 90.0] {
        if samples.len() - rank(p, samples.len()) >= 10 {
            return (p, percentile(samples, p));
        }
    }
    (100.0, summarize(samples).max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (1.0, 2.0, 3.0, 4.0, 5.0));
    }

    #[test]
    fn driver_quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(driver_quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(driver_quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(driver_quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&small).0, 100.0);
        let mid: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mid), (90.0, 90.0));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), (99.0, 990.0));
    }
}

//! Order statistics: every timing the benchmark reports is a median over
//! repetitions, printed with its quartiles, minimum and sample count.

/// Median, quartiles, minimum and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `values` (must be non-empty).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            median,
            q1,
            q3,
            min: sorted[0],
            n: sorted.len(),
        }
    }
}

/// The three quartile cut points of `sorted`, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (the "exclusive" method), so a
/// spread computed here equals one computed from the printed values there.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    if m == 1 {
        return [sorted[0]; 3];
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `values` (must be non-empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still leaves at least ten
/// samples beyond it: a tail percentile with fewer is one or two outliers,
/// not a percentile.
pub fn tail_percentile(samples: usize) -> f64 {
    const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];
    LADDER
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` (0..=100) of `sorted` (must be non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.n), (1.0, 3.0, 4.5, 1.0, 5));
        assert_eq!(quartiles(&[2.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(12_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(v.len() - 990, 10, "ten samples lie beyond p99 of 1000");
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}

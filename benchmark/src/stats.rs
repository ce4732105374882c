//! Order statistics over the samples of one metric.

/// Median, quartiles and extremes of a sample set, plus the highest
/// percentile that still has ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(p, value)` with `p = 1 - 10/n`, reported only when `n >= 20`.
    pub high: Option<(f64, f64)>,
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the harness and an outside checker agree to the digit.
/// A single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    assert!(m > 0, "quartiles of an empty sample set");
    if m == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// The sample with exactly ten samples above it, as `(1 - 10/n, value)`.
pub fn high_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= 20).then(|| (1.0 - 10.0 / n as f64, sorted[n - 11]))
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let [q1, median, q3] = quartiles(&sorted);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        q1,
        median,
        q3,
        max: sorted[sorted.len() - 1],
        high: high_percentile(&sorted),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([3, 9], n=4) extrapolates past both ends.
        assert_eq!(quartiles(&[3.0, 9.0]), [1.5, 6.0, 10.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_sorts_and_reports_extremes() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 3.0, 5.0));
        assert_eq!(s.high, None);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(high_percentile(&v), None);
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        let (p, value) = high_percentile(&v).unwrap();
        assert_eq!(p, 0.75);
        assert_eq!(value, 29.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }
}

//! Order statistics used by every report: nearest-rank percentiles, the
//! "highest percentile with ten samples beyond it" rule, and the quartile
//! spread the acceptance criterion is stated in.

/// Nearest-rank percentile of an ascending-sorted sample set; `p` in
/// `(0, 100]`. Empty input reads 0.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sorts ascending in place (latencies are finite by construction).
pub fn sort<T: Copy + Into<f64>>(values: &mut [T]) {
    values.sort_by(|a, b| (*a).into().total_cmp(&(*b).into()));
}

/// Median of an unsorted sample set (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of p99 / p95 / p90 that still has at least ten samples
/// beyond it in a set of `n`; 50 when even p90 does not.
pub fn highest_supported_percentile(n: usize) -> u32 {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| n * (100 - *p as usize) >= 10 * 100)
        .unwrap_or(50)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the acceptance criterion is stated in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(22), 50);
        assert_eq!(highest_supported_percentile(99), 50);
        assert_eq!(highest_supported_percentile(100), 90);
        assert_eq!(highest_supported_percentile(199), 90);
        assert_eq!(highest_supported_percentile(200), 95);
        assert_eq!(highest_supported_percentile(999), 95);
        assert_eq!(highest_supported_percentile(1000), 99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile::<f64>(&[], 50.0), 0.0);
        assert_eq!(percentile(&[1.5f32, 2.5], 50.0), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

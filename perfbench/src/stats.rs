//! Order statistics shared by the run report and the steadiness mode.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail sample: the highest order statistic with at least ten
/// samples above it. Returns `(value, percentile, samples)`; with ten or
/// fewer samples it falls back to the maximum.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n as f64 + 1.0;
    let q = |i: f64| {
        let j = ((i * m / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = i * m - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1.0), q(2.0), q(3.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct, n) = tail(&xs);
        assert_eq!((v, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }
}

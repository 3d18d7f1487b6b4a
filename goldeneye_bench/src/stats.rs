//! Order statistics for reporting timings: median, quartiles, and the
//! highest percentile that still has at least ten samples beyond it.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `xs` by the "exclusive" rule
/// (Hyndman–Fan type 6, what Python's `statistics.quantiles` uses by
/// default): position `p·(n+1)` in the 1-based sorted sample, clamped to
/// the sample range and linearly interpolated. `NaN` for an empty sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let h = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    if lo >= n {
        return s[n - 1];
    }
    s[lo - 1] + frac * (s[lo] - s[lo - 1])
}

/// The sample median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    (quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
}

/// The highest of p99.9, p99, p90, p75 and p50 that leaves at least ten
/// samples above it, as `(percentile, value)`; `None` below 20 samples,
/// where not even the median has ten beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    // In permille, so the count beyond is exact integer arithmetic.
    [999, 990, 900, 750, 500]
        .into_iter()
        .find(|&pm| xs.len() * (1000 - pm) / 1000 >= 10)
        .map(|pm| (pm as f64 / 10.0, quantile(xs, pm as f64 / 1000.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // Two samples clamp to the extremes.
        assert_eq!(quartiles(&[1.0, 3.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&xs(19)), None);
        assert_eq!(tail(&xs(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&xs(99)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&xs(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&xs(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&xs(10_000)).map(|t| t.0), Some(99.9));
        // p90 of 1..=100 by the exclusive rule: position 90.9.
        let (_, v) = tail(&xs(100)).unwrap();
        assert!((v - 90.9).abs() < 1e-9, "{v}");
        // At least ten samples lie strictly above the reported value.
        for n in [20, 57, 100, 345, 1000, 4321] {
            let (_, v) = tail(&xs(n)).unwrap();
            assert!(xs(n).iter().filter(|&&x| x > v).count() >= 10, "n={n}");
        }
    }
}

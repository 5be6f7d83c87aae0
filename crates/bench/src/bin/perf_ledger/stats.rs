//! Order statistics the ledger reports: medians and quartiles of repeated
//! host timings, and nearest-rank percentiles of simulated latencies.

/// Median of `values` (mean of the two middle samples for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile with the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses (the rule the acceptance
/// spread is computed with). Fewer than two samples have no spread: both
/// quartiles are the sample itself (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let x = values.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |quarter: usize| -> f64 {
        // Position quarter * (n + 1) / 4 in 1-based ranks, clamped and
        // linearly interpolated.
        let num = quarter * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range over the median — the spread a host metric is
/// judged by. 0 when the median is 0.
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest rank (1-based) of the `per_mille`/1000 quantile among `count`
/// samples, in integer arithmetic so 99.9 % of 10 000 is rank 9 990 and
/// not one off through a rounded float product.
fn nearest_rank(count: usize, per_mille: usize) -> usize {
    (per_mille * count).div_ceil(1000).clamp(1, count.max(1))
}

/// Nearest-rank percentile of an ascending-sorted slice, the percentile
/// given in tenths of a percent (`990` = p99).
pub fn percentile_sorted(sorted: &[u64], per_mille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len(), per_mille) - 1]
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 50 (in
/// tenths of a percent) that still has at least ten samples beyond it in
/// a sample of `count`.
pub fn highest_supported_percentile(count: usize) -> usize {
    [999, 990, 950, 900]
        .into_iter()
        .find(|&p| count.saturating_sub(nearest_rank(count, p)) >= 10)
        .unwrap_or(500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 500), 500);
        assert_eq!(percentile_sorted(&v, 990), 990);
        assert_eq!(percentile_sorted(&v, 1000), 1000);
        assert_eq!(percentile_sorted(&[7], 990), 7);
        assert_eq!(percentile_sorted(&[], 990), 0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(20_000), 999);
        assert_eq!(highest_supported_percentile(10_000), 999);
        assert_eq!(highest_supported_percentile(9_999), 990);
        assert_eq!(highest_supported_percentile(1_000), 990);
        assert_eq!(highest_supported_percentile(999), 950);
        assert_eq!(highest_supported_percentile(200), 950);
        assert_eq!(highest_supported_percentile(150), 900);
        assert_eq!(highest_supported_percentile(60), 500);
        assert_eq!(highest_supported_percentile(0), 500);
    }
}

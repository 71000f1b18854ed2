//! Order statistics and means over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of the positive values; 0.0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile_nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail-latency figure: the samples, in the order they were taken, are
/// cut into ten equal slices when there are at least 1,000 of them (one
/// slice otherwise); the result is the median of the slices' p99s. A p99
/// taken over the whole run would move with a single stall; the median of
/// slices does not.
pub fn sliced_p99(samples_in_order: &[f64]) -> f64 {
    let slices = if samples_in_order.len() >= 1000 {
        10
    } else {
        1
    };
    let len = samples_in_order.len() / slices;
    if len == 0 {
        return 0.0;
    }
    let p99s: Vec<f64> = samples_in_order
        .chunks_exact(len)
        .take(slices)
        .map(|s| percentile_nearest_rank(s, 99.0))
        .collect();
    median(&p99s)
}

/// Interquartile range over the median, with quartiles as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the spread figure the benchmark contract is written in.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    let m = median(values);
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: f64| {
        // Position k·(n+1)/4 in 1-based order statistics, clamped.
        let pos = (k * (n as f64 + 1.0) / 4.0 - 1.0).clamp(0.0, (n - 1) as f64);
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(3.0) - at(1.0)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn geomean_weights_ratios_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_and_slices() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&v, 99.0), 99.0);
        assert_eq!(percentile_nearest_rank(&v, 100.0), 100.0);
        // Ten samples: the p99 is the slowest one.
        assert_eq!(sliced_p99(&v[..10]), 10.0);
        // One stall in 2,000 samples moves one slice, not the median.
        let mut many = vec![1.0; 2000];
        many[7] = 1e6;
        assert_eq!(sliced_p99(&many), 1.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}

//! Order statistics: the percentile rule for latency samples and the
//! quartile rule the repeat driver uses to summarise runs.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let idx = rank(sorted.len(), p)?;
    Some(sorted[idx])
}

/// Zero-based index of the nearest-rank `p`th percentile among `n`
/// samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

/// How many samples lie strictly above the `p`th percentile's rank —
/// the count the run must keep at 10 or more for the percentile to be
/// reported as measured.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |idx| n - idx - 1)
}

/// Median (mean of the two middle values for an even count).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points of `values` into four equal groups, computed
/// exactly as Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method). `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Odd counts round the rank up: p50 of 7 samples is the 4th.
        let seven = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(percentile(&seven, 50.0), Some(4.0));
        assert_eq!(percentile(&seven, 90.0), Some(7.0));
    }

    #[test]
    fn ten_samples_beyond_p90_needs_a_hundred() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 90.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

//! Order statistics: the nearest-rank percentile with the "ten samples
//! beyond" validity rule, and the quartiles `compare` reports.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `p` is a share in `(0, 1]`.
///
/// Errors (never re-ranks) when the slice is empty or when fewer than
/// `min_beyond` samples lie strictly beyond the chosen rank.
pub fn percentile(sorted: &[u64], p: f64, min_beyond: usize) -> Result<u64, String> {
    if sorted.is_empty() {
        return Err("no samples".into());
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < min_beyond {
        return Err(format!(
            "p{} of {n} samples has {beyond} samples beyond it, fewer than {min_beyond}",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of an unsorted slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the ends.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread the driver
/// and `compare` hold against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50, 0), Ok(50));
        assert_eq!(percentile(&v, 0.99, 0), Ok(99));
        assert_eq!(percentile(&v, 1.0, 0), Ok(100));
        assert_eq!(percentile(&[7], 0.5, 0), Ok(7));
        // 5 samples: p50 → rank ceil(2.5) = 3.
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5, 0), Ok(3));
        // p80 of 5 → rank 4.
        assert_eq!(percentile(&[1, 2, 3, 4, 50], 0.8, 0), Ok(4));
    }

    #[test]
    fn ten_samples_beyond_rule_refuses_instead_of_reranking() {
        // p99 of 1000 samples: rank 990, 10 beyond → valid.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99, MIN_BEYOND), Ok(990));
        // 999 samples: rank ceil(989.01) = 990, 9 beyond → refused.
        assert!(percentile(&v[..999], 0.99, MIN_BEYOND).is_err());
        // p80 of 50 cycles: rank 40, 10 beyond → valid; of 49 → refused.
        assert_eq!(percentile(&v[..50], 0.80, MIN_BEYOND), Ok(40));
        assert!(percentile(&v[..49], 0.80, MIN_BEYOND).is_err());
        assert!(percentile(&[], 0.5, 0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
    }
}

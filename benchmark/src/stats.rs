//! Order statistics over repeated measurements.

/// The `p`-quantile of `values` by the exclusive method (the default of
/// Python's `statistics.quantiles`): rank `(n + 1)·p`, clamped to the sample,
/// interpolated linearly. 0 for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((n + 1) as f64 * p).clamp(1.0, n as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let below = sorted[lo - 1];
    let above = sorted[lo.min(n - 1)];
    below + frac * (above - below)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 0.25),
        median(values),
        quantile(values, 0.75),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
    }
}

//! Order statistics for the benchmark's own numbers.

/// The value at quantile `q` in `[0, 1]` (linear interpolation between the
/// two nearest order statistics); `NaN` on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the bounds are judged against. Zero for fewer than two samples.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// The percentiles a tail may be reported at, ascending, in per-mille so
/// the sample-count test is exact integer arithmetic.
const TAILS_PER_MILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest percentile of `TAILS_PER_MILLE` that still has at least ten samples
/// beyond it in a sample of `n`; `None` when even p75 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|pm| n * (1000 - **pm) >= 10 * 1000)
        .map(|pm| *pm as f64 / 10.0)
}

/// The tail of a pooled sample: `(percentile, value)` at the highest
/// percentile the sample count supports, `None` below 40 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    tail_percentile(values.len()).map(|p| (p, quantile(values, p / 100.0)))
}

/// Least-squares slope of `ys` against their indices.
pub fn slope(ys: &[f64]) -> f64 {
    let n = ys.len() as f64;
    if ys.len() < 2 {
        return 0.0;
    }
    let (mx, my) = ((n - 1.0) / 2.0, ys.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (i, y) in ys.iter().enumerate() {
        sxy += (i as f64 - mx) * (y - my);
        sxx += (i as f64 - mx).powi(2);
    }
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(spread(&[10.0, 10.0, 10.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn slope_of_a_line() {
        let ys: Vec<f64> = (0..10).map(|i| 3.0 + 2.5 * i as f64).collect();
        assert!((slope(&ys) - 2.5).abs() < 1e-12);
        assert_eq!(slope(&[1.0]), 0.0);
    }
}

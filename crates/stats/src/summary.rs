//! Descriptive summaries for experiment reports.

/// A fixed-range, equal-width histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    /// Panics when `hi <= lo` or `bins == 0`.
    #[track_caller]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "need at least one bin");
        Self { lo, hi, bins: vec![0; bins], below: 0, above: 0 }
    }

    /// Records one observation; out-of-range values go to overflow counters.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.below += 1;
        } else if x >= self.hi {
            self.above += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Per-bin counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below `lo` / at-or-above `hi`.
    #[inline]
    pub fn overflow(&self) -> (u64, u64) {
        (self.below, self.above)
    }

    /// Total recorded observations, including overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.below + self.above
    }
}

/// Five-number summary plus mean of a finite sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Computes the summary of a sample (sorts a copy).
    ///
    /// # Panics
    /// Panics on an empty sample or NaN values.
    #[track_caller]
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of empty sample");
        let mut s = xs.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("sample must not contain NaN"));
        let q = |p: f64| -> f64 {
            // Linear interpolation between closest ranks (type-7 quantile).
            let h = p * (s.len() - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            if lo == hi {
                s[lo]
            } else {
                s[lo] + (h - lo as f64) * (s[hi] - s[lo])
            }
        };
        Self {
            n: s.len(),
            min: s[0],
            p25: q(0.25),
            p50: q(0.5),
            p75: q(0.75),
            max: s[s.len() - 1],
            mean: s.iter().sum::<f64>() / s.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 5.5, 9.999, -1.0, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert_eq!(h.overflow(), (1, 2));
        assert_eq!(h.total(), 8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn histogram_empty_range_rejected() {
        let _ = Histogram::new(1.0, 1.0, 3);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
    }

    #[test]
    fn summary_interpolates_quantiles() {
        let s = Summary::of(&[0.0, 10.0]);
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.p25, 2.5);
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = Summary::of(&[3.0, 1.0, 2.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }
}

//! Streaming estimators: Welford moments and an exponentially weighted
//! mean, each O(1) memory however long the stream. `F`'s report smooths
//! its `N_v` with [`Ewma`]; the samplers' tests check their moments with
//! [`OnlineMoments`].

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineMoments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[inline]
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation `sd/mean` — the homogeneity score used by
    /// the flatten experiments (a homogeneous process drives per-cell count
    /// CV towards `1/√mean`).
    ///
    /// Returns `f64::INFINITY` when the mean is zero but observations exist.
    pub fn cv(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.sd() / self.mean.abs()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

impl Extend<f64> for OnlineMoments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Exponentially-weighted moving average.
///
/// Budget tuning smooths the per-batch rate-violation percentage `N_v`
/// before comparing it with the user threshold, so a single noisy batch does
/// not flip the budget direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha ∈ (0, 1]` (1 = no
    /// smoothing, track the last observation exactly).
    ///
    /// # Panics
    /// Panics when `alpha` is outside `(0, 1]`.
    #[track_caller]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1], got {alpha}");
        Self { alpha, value: None }
    }

    /// Feeds an observation, returning the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, or `None` before the first observation.
    #[inline]
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Resets to the pre-observation state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = OnlineMoments::new();
        m.extend(xs.iter().copied());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.count(), 8);
    }

    #[test]
    fn welford_empty_and_singleton() {
        let mut m = OnlineMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        m.push(42.0);
        assert_eq!(m.mean(), 42.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.sd(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineMoments::new();
        whole.extend(xs.iter().copied());

        let mut left = OnlineMoments::new();
        left.extend(xs[..37].iter().copied());
        let mut right = OnlineMoments::new();
        right.extend(xs[37..].iter().copied());
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty_is_identity() {
        let mut a = OnlineMoments::new();
        a.extend([1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&OnlineMoments::new());
        assert_eq!(a, before);

        let mut empty = OnlineMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn cv_of_constant_stream_is_zero() {
        let mut m = OnlineMoments::new();
        m.extend([5.0; 10]);
        assert_eq!(m.cv(), 0.0);
    }

    #[test]
    fn cv_of_zero_mean_is_infinite() {
        let mut m = OnlineMoments::new();
        m.extend([-1.0, 1.0]);
        assert!(m.cv().is_infinite());
    }

    #[test]
    fn ewma_first_observation_passes_through() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.value(), None);
        assert_eq!(e.push(10.0), 10.0);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.5);
        for _ in 0..60 {
            e.push(4.0);
        }
        assert!((e.value().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_alpha_one_tracks_last_value() {
        let mut e = Ewma::new(1.0);
        e.push(1.0);
        e.push(100.0);
        assert_eq!(e.value(), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }
}

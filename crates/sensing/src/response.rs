//! Participation behaviour of mobile sensors.
//!
//! "His/her reply could be unpredictably delayed for several reasons: he/she
//! is not interested in responding at this moment, he/she thinks that the
//! incentive offered for responding is not enough …" (Section III). The
//! response model captures exactly those two axes: *whether* a sensor
//! answers (probability increasing in the incentive) and *when* (an
//! exponential latency).

use craqr_stats::dist::Exponential;
use rand::distributions::Distribution;
use rand::Rng;

/// Stochastic response behaviour of one sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseModel {
    /// Probability of answering an un-incentivized request, in `[0, 1]`.
    pub base_probability: f64,
    /// Incentive sensitivity `k ≥ 0`: the answer probability is
    /// `p(i) = base + (1 − base)·(1 − e^{−k·i})`, saturating at 1.
    pub incentive_sensitivity: f64,
    /// Mean response latency (minutes) for an answered request.
    pub mean_latency: f64,
}

impl ResponseModel {
    /// A human participant: moderately likely to answer, slow, noticeably
    /// incentive-sensitive.
    pub fn human() -> Self {
        Self { base_probability: 0.3, incentive_sensitivity: 1.0, mean_latency: 2.0 }
    }

    /// An automated on-board sensor: answers almost always, quickly, and
    /// ignores incentives.
    pub fn automatic() -> Self {
        Self { base_probability: 0.95, incentive_sensitivity: 0.0, mean_latency: 0.05 }
    }

    /// Creates a custom model.
    ///
    /// # Panics
    /// Panics when the probability is outside `[0, 1]` or other parameters
    /// are negative.
    #[track_caller]
    pub fn new(base_probability: f64, incentive_sensitivity: f64, mean_latency: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&base_probability),
            "base probability must be in [0,1], got {base_probability}"
        );
        assert!(incentive_sensitivity >= 0.0, "sensitivity must be >= 0");
        assert!(mean_latency >= 0.0, "latency must be >= 0");
        Self { base_probability, incentive_sensitivity, mean_latency }
    }

    /// The probability of answering a request with the given incentive.
    pub fn response_probability(&self, incentive: f64) -> f64 {
        let incentive = incentive.max(0.0);
        let boost = 1.0 - (-self.incentive_sensitivity * incentive).exp();
        (self.base_probability + (1.0 - self.base_probability) * boost).clamp(0.0, 1.0)
    }

    /// Decides whether this request gets answered, and if so after how many
    /// minutes. `None` means the request is silently ignored.
    pub fn draw_response<R: Rng + ?Sized>(&self, incentive: f64, rng: &mut R) -> Option<f64> {
        if rng.gen::<f64>() >= self.response_probability(incentive) {
            return None;
        }
        if self.mean_latency == 0.0 {
            return Some(0.0);
        }
        Some(Exponential::new(1.0 / self.mean_latency).sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_stats::seeded_rng;

    #[test]
    fn probability_increases_with_incentive() {
        let m = ResponseModel::human();
        let p0 = m.response_probability(0.0);
        let p1 = m.response_probability(1.0);
        let p5 = m.response_probability(5.0);
        assert!((p0 - 0.3).abs() < 1e-12);
        assert!(p1 > p0);
        assert!(p5 > p1);
        assert!(p5 <= 1.0);
    }

    #[test]
    fn insensitive_model_ignores_incentive() {
        let m = ResponseModel::automatic();
        assert_eq!(m.response_probability(0.0), m.response_probability(100.0));
    }

    #[test]
    fn negative_incentive_treated_as_zero() {
        let m = ResponseModel::human();
        assert_eq!(m.response_probability(-3.0), m.response_probability(0.0));
    }

    #[test]
    fn empirical_response_rate_matches_probability() {
        let m = ResponseModel::new(0.4, 0.0, 1.0);
        let mut rng = seeded_rng(1);
        let n = 100_000;
        let answered = (0..n).filter(|_| m.draw_response(0.0, &mut rng).is_some()).count();
        let frac = answered as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn latency_mean_matches_model() {
        let m = ResponseModel::new(1.0, 0.0, 3.0);
        let mut rng = seeded_rng(2);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| m.draw_response(0.0, &mut rng).unwrap()).sum();
        let mean = total / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean latency {mean}");
    }

    #[test]
    fn zero_latency_model_is_instant() {
        let m = ResponseModel::new(1.0, 0.0, 0.0);
        let mut rng = seeded_rng(3);
        assert_eq!(m.draw_response(0.0, &mut rng), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = ResponseModel::new(1.5, 0.0, 1.0);
    }
}

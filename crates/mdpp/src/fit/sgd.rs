//! Online stochastic-gradient estimation of Eq. (1).
//!
//! For sliding windows the paper points to "online parameter estimation
//! algorithms like stochastic gradient descent … [13]" (Section IV-B).
//! [`SgdEstimator`] consumes point batches as they arrive and maintains a
//! running θ estimate with O(1) work per point; the adaptive controller
//! keeps one per query.

use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};
use craqr_stats::Interval;

use super::{project_positive, WindowScale, POSITIVITY_EPS};
use crate::intensity::LinearIntensity;

/// Configuration of the online estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Initial learning rate γ₀.
    pub gamma0: f64,
    /// Learning-rate decay horizon: `γ_k = γ0 / (1 + k / k0)` after `k`
    /// batches (Bottou's schedule with λ·γ0 = 1/k0).
    pub decay_batches: f64,
    /// Initial rate guess (per km²·min) before any data arrives.
    pub initial_rate: f64,
}

impl SgdConfig {
    /// Range of [`SgdConfig::gamma0`].
    pub const GAMMA0: Interval = Interval::Positive;
    /// Range of [`SgdConfig::decay_batches`].
    pub const DECAY_BATCHES: Interval = Interval::Positive;
    /// Range of [`SgdConfig::initial_rate`].
    pub const INITIAL_RATE: Interval = Interval::Positive;
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self { gamma0: 0.5, decay_batches: 50.0, initial_rate: 1.0 }
    }
}

/// The one-step-ahead residual of a batch: how far the observed count fell
/// from what the *pre-update* model predicted for the batch window.
///
/// While the process is stationary the observed count is approximately
/// Poisson with mean μ, and `expected` is itself a weighted average of
/// earlier counts, with variance `s·μ` for the sum `s` of its squared
/// weights ([`SgdEstimator`]'s level). The residual's variance is then
/// `(1 + s)·μ`, so the standardization
/// `(observed − expected) / √(max(expected, 1)·(1 + s))` hovers around
/// zero with unit variance — exactly the signal sequential drift
/// detectors ([`craqr_stats::drift`]) are calibrated for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Innovation {
    /// Points observed in the batch window.
    pub observed: usize,
    /// Expected count under the pre-update estimate: `∫_window λ̂`.
    pub expected: f64,
    /// `(observed − expected) / √(max(expected, 1)·(1 + s))`.
    pub standardized: f64,
}

/// Online SGD estimator for the linear conditional-intensity model.
///
/// The estimator is anchored to a *reference window* (the spatial region and
/// a nominal batch duration) whose scaling keeps the optimization
/// well-conditioned; batches may cover any sub-window of the region.
///
/// The level (the rate at the window's centre, `φ0` in scaled coordinates)
/// is a running average of the batch rates `n / V`: the first batch sets
/// it, and each later one relaxes it by `γ_k`. For an affine intensity
/// over a rectangle `∫_W λ = V·λ(centre)`, and Eq. (1)'s maximum-likelihood
/// fit, railed at the positivity boundary or not, integrates to the count
/// it was fitted to (scaling λ by `c` scales the likelihood's `∫ λ` term by
/// `c` and stays feasible), so the level's own statistic is the count. The
/// spatial and temporal slopes take gradient steps.
#[derive(Debug, Clone)]
pub struct SgdEstimator {
    scale: WindowScale,
    phi: [f64; 4],
    /// Sum of the squared weights the level gives past batch rates: its
    /// variance in units of one batch's Poisson variance (0 before any
    /// batch, when it is the prior `initial_rate`).
    level_weight2: f64,
    batches_seen: u64,
    points_seen: u64,
    config: SgdConfig,
}

impl SgdEstimator {
    /// Creates an estimator anchored to `reference` (typically: the grid
    /// cell's rectangle over one batch duration).
    pub fn new(reference: &SpaceTimeWindow, config: SgdConfig) -> Self {
        SgdConfig::GAMMA0.assert("gamma0", config.gamma0);
        SgdConfig::DECAY_BATCHES.assert("decay_batches", config.decay_batches);
        SgdConfig::INITIAL_RATE.assert("initial_rate", config.initial_rate);
        let scale = WindowScale::of(reference);
        let mut phi = [config.initial_rate, 0.0, 0.0, 0.0];
        project_positive(&mut phi, POSITIVITY_EPS);
        Self { scale, phi, level_weight2: 0.0, batches_seen: 0, points_seen: 0, config }
    }

    /// Feeds one batch of points observed in `window` (a sub-window of the
    /// reference region) and performs one gradient step. Returns the
    /// batch's [`Innovation`] — the observed-vs-expected residual under
    /// the **pre-update** estimate, which is what downstream drift
    /// detection consumes.
    ///
    /// The per-batch gradient of the Poisson log-likelihood is
    /// `Σᵢ f(pᵢ)/λ(pᵢ) − V_b · f(midpoint)`, normalized by the expected
    /// batch size so the step magnitude is insensitive to batch volume;
    /// the slopes follow it, and the level relaxes towards the batch rate.
    pub fn observe_batch(
        &mut self,
        points: &[SpaceTimePoint],
        window: &SpaceTimeWindow,
    ) -> Innovation {
        self.batches_seen += 1;
        self.points_seen += points.len() as u64;
        let k = self.batches_seen as f64;
        let gamma = self.config.gamma0 / (1.0 + k / self.config.decay_batches);
        let volume = window.volume();

        // Integral term: for an affine intensity, the window average of the
        // scaled features is their value at the window midpoint.
        let (cx, cy) = window.rect.center();
        let mid = SpaceTimePoint::new((window.t0 + window.t1) * 0.5, cx, cy);
        let fbar = self.scale.features(&mid);

        // Innovation before the update: E[count] = V_b × λ̂(midpoint) for
        // an affine intensity.
        let lam_mid: f64 = self.phi.iter().zip(&fbar).map(|(a, b)| a * b).sum();
        let expected = (volume * lam_mid).max(0.0);
        let spread = (expected.max(1.0) * (1.0 + self.level_weight2)).sqrt();
        let innovation = Innovation {
            observed: points.len(),
            expected,
            standardized: (points.len() as f64 - expected) / spread,
        };

        let mut g = [0.0f64; 4];
        for p in points {
            let f = self.scale.features(p);
            let lam: f64 = self.phi.iter().zip(&f).map(|(a, b)| a * b).sum();
            let lam = lam.max(POSITIVITY_EPS);
            let inv = 1.0 / lam;
            for i in 1..4 {
                g[i] += f[i] * inv;
            }
        }
        for i in 1..4 {
            g[i] -= volume * fbar[i];
        }
        // Preconditioned slope steps: scaling the raw gradient by `φ0 / V`
        // keeps them O(γ) relative to the level whatever the batch size,
        // instead of the `1/φ0²`-scaled steps a flat normalizer produces —
        // those overshoot violently once the estimate dips low.
        let prev0 = self.phi[0];
        let precond = prev0.max(POSITIVITY_EPS) / volume.max(f64::MIN_POSITIVE);
        for (p, gi) in self.phi[1..].iter_mut().zip(&g[1..]) {
            *p += gamma * gi * precond;
        }
        // The level relaxes towards the batch rate, `φ0 ← φ0 + γ (n/V − φ0)`,
        // and the first batch replaces the prior outright. A gradient step
        // would reach the same fixed point only with the slopes stationary:
        // while the positivity projection holds them back (points clustered
        // in part of the window), the level settles below `n / V` and every
        // expected count reads low.
        let level_gamma = if self.batches_seen == 1 { 1.0 } else { gamma };
        let batch_rate = points.len() as f64 / volume.max(f64::MIN_POSITIVE);
        self.phi[0] = prev0 + level_gamma * (batch_rate - prev0);
        self.level_weight2 = (1.0 - level_gamma) * (1.0 - level_gamma) * self.level_weight2
            + level_gamma * level_gamma;
        project_positive(&mut self.phi, POSITIVITY_EPS);
        innovation
    }

    /// The current estimate in physical (Eq. (1)) coordinates.
    pub fn estimate(&self) -> LinearIntensity {
        self.scale.to_physical(self.phi)
    }

    /// Number of batches consumed.
    #[inline]
    pub fn batches_seen(&self) -> u64 {
        self.batches_seen
    }

    /// Number of points consumed.
    #[inline]
    pub fn points_seen(&self) -> u64 {
        self.points_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::IntensityModel;
    use crate::process::InhomogeneousMdpp;
    use craqr_geom::Rect;
    use craqr_stats::seeded_rng;

    fn reference() -> SpaceTimeWindow {
        SpaceTimeWindow::new(Rect::with_size(10.0, 10.0), 0.0, 5.0)
    }

    /// Stream `n_batches` consecutive 5-minute batches from `truth` into an
    /// estimator and return it.
    fn run_stream(truth: LinearIntensity, n_batches: usize, seed: u64) -> SgdEstimator {
        let mut est = SgdEstimator::new(&reference(), SgdConfig::default());
        let region = Rect::with_size(10.0, 10.0);
        let process = InhomogeneousMdpp::new(truth, region);
        let mut rng = seeded_rng(seed);
        for b in 0..n_batches {
            let w = SpaceTimeWindow::new(region, b as f64 * 5.0, (b + 1) as f64 * 5.0);
            let pts = process.sample(&w, &mut rng);
            // Re-anchor each batch to the reference time span: the spatial
            // gradient is stationary, so shift times into [0, 5).
            let shifted: Vec<_> =
                pts.iter().map(|p| SpaceTimePoint::new(p.t - b as f64 * 5.0, p.x, p.y)).collect();
            est.observe_batch(&shifted, &reference());
        }
        est
    }

    #[test]
    fn recovers_constant_rate() {
        let truth = LinearIntensity::constant(2.0);
        let est = run_stream(truth, 150, 3);
        let got = est.estimate();
        let w = reference();
        let rel = (got.integral(&w) - 2.0 * w.volume()).abs() / (2.0 * w.volume());
        assert!(rel < 0.1, "relative count error {rel}, theta {:?}", got.theta());
    }

    #[test]
    fn recovers_spatial_gradient_direction_and_magnitude() {
        let truth = LinearIntensity::new([1.0, 0.0, 0.6, 0.0]);
        let est = run_stream(truth, 300, 5);
        let got = est.estimate();
        // Compare fitted surface against truth at probe points.
        for &(x, y) in &[(1.0, 5.0), (5.0, 5.0), (9.0, 5.0)] {
            let p = SpaceTimePoint::new(2.5, x, y);
            let rel = (got.rate_at(&p) - truth.rate_at(&p)).abs() / truth.rate_at(&p);
            assert!(rel < 0.25, "rel {rel} at x={x}, est {:?}", got.theta());
        }
        // Gradient sign must match.
        assert!(got.theta()[2] > 0.05, "theta2 {:?}", got.theta());
    }

    #[test]
    fn estimate_stays_positive_on_reference_window() {
        let truth = LinearIntensity::new([0.4, 0.0, 0.9, 0.9]);
        let est = run_stream(truth, 100, 7);
        assert!(est.estimate().min_on(&reference()) >= 0.0);
    }

    #[test]
    fn empty_batches_decay_rate_towards_zero() {
        let mut est =
            SgdEstimator::new(&reference(), SgdConfig { initial_rate: 5.0, ..Default::default() });
        for _ in 0..100 {
            est.observe_batch(&[], &reference());
        }
        let got = est.estimate();
        let w = reference();
        assert!(
            got.integral(&w) < 2.0 * w.volume(),
            "rate should shrink with no observations: {:?}",
            got.theta()
        );
    }

    #[test]
    fn innovations_centre_once_calibrated_and_react_to_jumps() {
        let truth = LinearIntensity::constant(2.0);
        let est = run_stream(truth, 200, 11);
        // Replay a fresh stationary stream through the calibrated model:
        // standardized innovations must hover around zero.
        let region = Rect::with_size(10.0, 10.0);
        let process = InhomogeneousMdpp::new(LinearIntensity::constant(2.0), region);
        let mut rng = seeded_rng(99);
        let mut calibrated = est.clone();
        let mut sum = 0.0;
        for _ in 0..40 {
            let pts = process.sample(&reference(), &mut rng);
            sum += calibrated.observe_batch(&pts, &reference()).standardized;
        }
        assert!((sum / 40.0).abs() < 1.0, "stationary innovations biased: {}", sum / 40.0);

        // A 3x rate jump produces a strongly positive innovation at once.
        let burst = InhomogeneousMdpp::new(LinearIntensity::constant(6.0), region);
        let pts = burst.sample(&reference(), &mut rng);
        let innov = calibrated.observe_batch(&pts, &reference());
        assert!(innov.standardized > 5.0, "jump innovation {innov:?}");
        assert!(innov.expected > 0.0 && innov.observed > innov.expected as usize);
    }

    #[test]
    fn counters_track_input() {
        let mut est = SgdEstimator::new(&reference(), SgdConfig::default());
        est.observe_batch(&[SpaceTimePoint::new(1.0, 1.0, 1.0)], &reference());
        est.observe_batch(&[], &reference());
        assert_eq!(est.batches_seen(), 2);
        assert_eq!(est.points_seen(), 1);
    }
}

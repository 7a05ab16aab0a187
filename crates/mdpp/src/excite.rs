//! Self-exciting (Hawkes-style) intensities.
//!
//! The paper models crowdsensed arrivals as inhomogeneous MDPPs; real
//! incident-driven workloads (accidents, cloudbursts, flash crowds) go one
//! step further — every event *raises* the local rate and triggers
//! offspring events. A [`SelfExcitingIntensity`] is the conditional
//! intensity of such a process *given a realized event history*:
//!
//! ```text
//! λ(t, x, y) = μ + Σᵢ α · exp(−β (t − tᵢ)) · g_σ(x − xᵢ, y − yᵢ)
//! ```
//!
//! with `g_σ` an (unnormalized) isotropic Gaussian kernel. Freezing the
//! history makes the model a plain [`IntensityModel`], so the whole stack —
//! thinning samplers, flatten estimators, scenario ground-truth fields —
//! can consume bursts without knowing about the branching structure.
//!
//! [`SelfExcitingIntensity::cascade`] generates the history itself: seeded
//! immigrant events spawn Poisson offspring (mean `branching_ratio`) with
//! exponentially distributed delays and Gaussian displacements, recursively,
//! exactly the cluster representation of a Hawkes process.

use crate::intensity::IntensityModel;
use craqr_geom::{Rect, SpaceTimePoint, SpaceTimeWindow};
use rand::rngs::StdRng;
use rand::Rng;

/// A conditional Hawkes intensity over a frozen event history.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfExcitingIntensity {
    /// Background (immigrant) rate μ (events /km²/min).
    mu: f64,
    /// Kernel jump α: the rate added right on top of a fresh event.
    alpha: f64,
    /// Temporal decay β (1/min).
    beta: f64,
    /// Spatial kernel width σ (km).
    sigma: f64,
    /// The frozen trigger events, ascending in time.
    events: Vec<SpaceTimePoint>,
}

impl SelfExcitingIntensity {
    /// Creates the model over an explicit event history (sorted by time
    /// internally).
    ///
    /// # Panics
    /// Panics when `mu < 0`, `alpha < 0`, `beta <= 0`, or `sigma <= 0`.
    #[track_caller]
    pub fn new(
        mu: f64,
        alpha: f64,
        beta: f64,
        sigma: f64,
        mut events: Vec<SpaceTimePoint>,
    ) -> Self {
        assert!(mu.is_finite() && mu >= 0.0, "background rate must be >= 0");
        assert!(alpha.is_finite() && alpha >= 0.0, "kernel jump must be >= 0");
        assert!(beta.is_finite() && beta > 0.0, "temporal decay must be > 0");
        assert!(sigma.is_finite() && sigma > 0.0, "spatial width must be > 0");
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        Self { mu, alpha, beta, sigma, events }
    }

    /// Generates a Hawkes cluster cascade and freezes it into a model.
    ///
    /// `immigrants` seed events are placed uniformly in `region × [0,
    /// horizon)`; each event (immigrant or offspring) spawns
    /// `Poisson(branching_ratio)` children with `Exp(beta)` time delays and
    /// `N(0, sigma²)` axis displacements. Events past `horizon` or outside
    /// `region` are kept as triggers only if inside the region (escaped
    /// offspring die). A `branching_ratio ≥ 1` would be supercritical, so
    /// it is rejected.
    ///
    /// # Panics
    /// Panics on invalid kernel parameters (see [`SelfExcitingIntensity::new`]),
    /// `branching_ratio ∉ [0, 1)`, or a non-positive horizon.
    #[allow(clippy::too_many_arguments)]
    #[track_caller]
    pub fn cascade(
        mu: f64,
        alpha: f64,
        beta: f64,
        sigma: f64,
        region: Rect,
        horizon: f64,
        immigrants: usize,
        branching_ratio: f64,
        rng: &mut StdRng,
    ) -> Self {
        assert!((0.0..1.0).contains(&branching_ratio), "branching ratio must be in [0,1)");
        assert!(horizon > 0.0, "horizon must be > 0");
        let mut events: Vec<SpaceTimePoint> = Vec::new();
        let mut frontier: Vec<SpaceTimePoint> = (0..immigrants)
            .map(|_| {
                SpaceTimePoint::new(
                    rng.gen_range(0.0..horizon),
                    rng.gen_range(region.x0..region.x1),
                    rng.gen_range(region.y0..region.y1),
                )
            })
            .collect();
        let displacement = craqr_stats::dist::Normal::new(0.0, sigma);
        while let Some(parent) = frontier.pop() {
            events.push(parent);
            // Poisson(branching_ratio) children by inversion (ratio < 1, so
            // counts are tiny and the loop terminates fast).
            let mut k = 0usize;
            let mut acc = (-branching_ratio).exp();
            let u = rng.gen::<f64>();
            let mut cum = acc;
            while u > cum && k < 16 {
                k += 1;
                acc *= branching_ratio / k as f64;
                cum += acc;
            }
            for _ in 0..k {
                use rand::distributions::Distribution;
                let dt = -rng.gen::<f64>().max(1e-12).ln() / beta;
                let child = SpaceTimePoint::new(
                    parent.t + dt,
                    parent.x + displacement.sample(rng),
                    parent.y + displacement.sample(rng),
                );
                if child.t < horizon && region.contains(child.x, child.y) {
                    frontier.push(child);
                }
            }
        }
        Self::new(mu, alpha, beta, sigma, events)
    }

    /// The frozen trigger events, ascending in time.
    pub fn events(&self) -> &[SpaceTimePoint] {
        &self.events
    }

    /// Kernel parameters `(μ, α, β, σ)`.
    pub fn params(&self) -> (f64, f64, f64, f64) {
        (self.mu, self.alpha, self.beta, self.sigma)
    }
}

impl IntensityModel for SelfExcitingIntensity {
    fn rate_at(&self, p: &SpaceTimePoint) -> f64 {
        let mut rate = self.mu;
        let inv_2s2 = 1.0 / (2.0 * self.sigma * self.sigma);
        for e in &self.events {
            if e.t > p.t {
                break; // events are sorted; the future cannot excite the past
            }
            let dt = p.t - e.t;
            let dx = p.x - e.x;
            let dy = p.y - e.y;
            rate += self.alpha * (-self.beta * dt).exp() * (-(dx * dx + dy * dy) * inv_2s2).exp();
        }
        rate
    }

    fn max_rate(&self, w: &SpaceTimeWindow) -> f64 {
        // Bound: every event ≤ t1 contributes at most α (kernel peaks at the
        // event itself, decay only shrinks it).
        let active = self.events.iter().filter(|e| e.t <= w.t1).count();
        self.mu + self.alpha * active as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_stats::seeded_rng;

    fn region() -> Rect {
        Rect::with_size(4.0, 4.0)
    }

    #[test]
    fn rate_spikes_at_events_and_decays() {
        let e = SpaceTimePoint::new(10.0, 2.0, 2.0);
        let m = SelfExcitingIntensity::new(0.5, 3.0, 0.2, 0.5, vec![e]);
        let at_event = m.rate_at(&SpaceTimePoint::new(10.0, 2.0, 2.0));
        assert!((at_event - 3.5).abs() < 1e-12, "peak {at_event}");
        let later = m.rate_at(&SpaceTimePoint::new(20.0, 2.0, 2.0));
        assert!(later < at_event && later > 0.5, "decayed {later}");
        let before = m.rate_at(&SpaceTimePoint::new(5.0, 2.0, 2.0));
        assert!((before - 0.5).abs() < 1e-12, "future events must not excite the past");
        let far = m.rate_at(&SpaceTimePoint::new(10.0, 0.0, 0.0));
        assert!(far < 0.6, "spatially distant point barely excited: {far}");
    }

    #[test]
    fn max_rate_bounds_rate_everywhere() {
        let mut rng = seeded_rng(9);
        let m =
            SelfExcitingIntensity::cascade(0.4, 2.0, 0.3, 0.4, region(), 30.0, 5, 0.6, &mut rng);
        let w = SpaceTimeWindow::new(region(), 0.0, 30.0);
        let bound = m.max_rate(&w);
        for i in 0..200 {
            let p = SpaceTimePoint::new(
                (i as f64 * 0.149).rem_euclid(30.0),
                (i as f64 * 0.731).rem_euclid(4.0),
                (i as f64 * 0.377).rem_euclid(4.0),
            );
            assert!(m.rate_at(&p) <= bound + 1e-9);
        }
    }

    #[test]
    fn cascade_is_deterministic_and_supercritical_rejected() {
        let build = |seed| {
            SelfExcitingIntensity::cascade(
                0.2,
                1.5,
                0.25,
                0.3,
                region(),
                20.0,
                4,
                0.5,
                &mut seeded_rng(seed),
            )
        };
        assert_eq!(build(3), build(3));
        assert!(build(3).events().len() >= 4, "immigrants must survive");
        let r = std::panic::catch_unwind(|| {
            SelfExcitingIntensity::cascade(
                0.2,
                1.0,
                0.25,
                0.3,
                region(),
                20.0,
                1,
                1.0,
                &mut seeded_rng(1),
            )
        });
        assert!(r.is_err(), "branching ratio 1.0 is supercritical");
    }

    #[test]
    fn events_sorted_regardless_of_input_order() {
        let m = SelfExcitingIntensity::new(
            0.0,
            1.0,
            1.0,
            1.0,
            vec![SpaceTimePoint::new(5.0, 0.0, 0.0), SpaceTimePoint::new(1.0, 0.0, 0.0)],
        );
        assert!(m.events()[0].t < m.events()[1].t);
    }
}

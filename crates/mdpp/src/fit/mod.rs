//! Parameter estimation for the linear conditional-intensity model.
//!
//! The paper points at two estimation regimes (Section III-A and IV-B):
//! batch maximum-likelihood "given a set of acquired tuples" (ref. \[12\]) and
//! online stochastic gradient descent for sliding-window flattening
//! (ref. \[13\]). Both are implemented here over the concave Poisson
//! log-likelihood
//!
//! ```text
//! ℓ(θ) = Σᵢ ln λ̃(pᵢ; θ) − ∫_W λ̃(·; θ)
//! ```
//!
//! Internally both estimators work in *centred, scaled* window coordinates
//! (`u, v, w ∈ [−1, 1]`), which makes the problem well-conditioned no matter
//! the window's physical units, and makes the positivity constraint a simple
//! corner inequality `φ0 > |φ1| + |φ2| + |φ3|`.

mod mle;
mod sgd;

pub use mle::{fit_mle, fit_mle_with, FitConfig, FitResult, FitScratch};
pub use sgd::{Innovation, SgdConfig, SgdEstimator};

use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};

use crate::intensity::LinearIntensity;

/// Affine map between physical coordinates and centred/scaled coordinates
/// of a window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowScale {
    mid: [f64; 3],  // (t̄, x̄, ȳ)
    half: [f64; 3], // (Δt/2, Δx/2, Δy/2)
}

impl WindowScale {
    pub(crate) fn of(w: &SpaceTimeWindow) -> Self {
        let (cx, cy) = w.rect.center();
        Self {
            mid: [(w.t0 + w.t1) * 0.5, cx, cy],
            half: [w.duration() * 0.5, w.rect.width() * 0.5, w.rect.height() * 0.5],
        }
    }

    /// Scaled feature vector `(1, u, v, w)` of a point.
    #[inline]
    pub(crate) fn features(&self, p: &SpaceTimePoint) -> [f64; 4] {
        [
            1.0,
            (p.t - self.mid[0]) / self.half[0],
            (p.x - self.mid[1]) / self.half[1],
            (p.y - self.mid[2]) / self.half[2],
        ]
    }

    /// Converts scaled parameters φ back to physical θ (Eq. (1)).
    pub(crate) fn to_physical(self, phi: [f64; 4]) -> LinearIntensity {
        let slopes = [phi[1] / self.half[0], phi[2] / self.half[1], phi[3] / self.half[2]];
        let theta0 =
            phi[0] - slopes[0] * self.mid[0] - slopes[1] * self.mid[1] - slopes[2] * self.mid[2];
        LinearIntensity::new([theta0, slopes[0], slopes[1], slopes[2]])
    }
}

/// Smallest admissible intensity floor in scaled coordinates; keeps `ln λ`
/// finite during optimization.
pub(crate) const POSITIVITY_EPS: f64 = 1e-8;

/// Projects scaled parameters onto the positivity region
/// `φ0 ≥ |φ1| + |φ2| + |φ3| + eps` by shrinking the slopes.
pub(crate) fn project_positive(phi: &mut [f64; 4], eps: f64) {
    if phi[0] < eps {
        phi[0] = eps;
    }
    let slope_sum = phi[1].abs() + phi[2].abs() + phi[3].abs();
    let budget = phi[0] - eps;
    if slope_sum > budget {
        let shrink = if slope_sum > 0.0 { (budget / slope_sum).max(0.0) } else { 0.0 };
        for s in &mut phi[1..] {
            *s *= shrink;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::Rect;

    /// Converts physical θ to scaled φ: the inverse of
    /// [`WindowScale::to_physical`].
    fn to_scaled(s: WindowScale, theta: [f64; 4]) -> [f64; 4] {
        let phi0 = theta[0] + theta[1] * s.mid[0] + theta[2] * s.mid[1] + theta[3] * s.mid[2];
        [phi0, theta[1] * s.half[0], theta[2] * s.half[1], theta[3] * s.half[2]]
    }

    #[test]
    fn scale_round_trip() {
        let w = SpaceTimeWindow::new(Rect::new(2.0, 3.0, 12.0, 23.0), 5.0, 45.0);
        let s = WindowScale::of(&w);
        let theta = [4.0, 0.05, -0.2, 0.12];
        let phi = to_scaled(s, theta);
        let back = s.to_physical(phi).theta();
        for i in 0..4 {
            assert!((back[i] - theta[i]).abs() < 1e-10, "{back:?} vs {theta:?}");
        }
    }

    #[test]
    fn scaled_features_lie_in_unit_box() {
        let w = SpaceTimeWindow::new(Rect::new(0.0, 0.0, 10.0, 4.0), 0.0, 100.0);
        let s = WindowScale::of(&w);
        let f = s.features(&SpaceTimePoint::new(0.0, 0.0, 0.0));
        assert_eq!(f, [1.0, -1.0, -1.0, -1.0]);
        let f = s.features(&SpaceTimePoint::new(100.0, 10.0, 4.0));
        assert_eq!(f, [1.0, 1.0, 1.0, 1.0]);
        let f = s.features(&SpaceTimePoint::new(50.0, 5.0, 2.0));
        assert_eq!(f, [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn scaled_value_equals_physical_value() {
        let w = SpaceTimeWindow::new(Rect::new(1.0, 2.0, 7.0, 8.0), 10.0, 40.0);
        let s = WindowScale::of(&w);
        let theta = [3.0, 0.02, 0.3, -0.1];
        let phi = to_scaled(s, theta);
        let model = LinearIntensity::new(theta);
        let p = SpaceTimePoint::new(22.0, 4.5, 3.25);
        let f = s.features(&p);
        let scaled_val: f64 = phi.iter().zip(&f).map(|(a, b)| a * b).sum();
        assert!((scaled_val - model.linear_at(&p)).abs() < 1e-10);
    }

    #[test]
    fn projection_enforces_corner_positivity() {
        let mut phi = [1.0, 3.0, -4.0, 0.5];
        project_positive(&mut phi, 1e-6);
        let slope_sum = phi[1].abs() + phi[2].abs() + phi[3].abs();
        assert!(phi[0] >= slope_sum, "{phi:?}");
        // Direction of slopes preserved.
        assert!(phi[1] > 0.0 && phi[2] < 0.0 && phi[3] > 0.0);
    }

    #[test]
    fn projection_leaves_feasible_points_unchanged() {
        let mut phi = [5.0, 1.0, 1.0, 1.0];
        let before = phi;
        project_positive(&mut phi, 1e-6);
        assert_eq!(phi, before);
    }

    #[test]
    fn projection_handles_nonpositive_intercept() {
        let mut phi = [-2.0, 1.0, 1.0, 1.0];
        project_positive(&mut phi, 1e-6);
        assert!(phi[0] > 0.0);
        let slope_sum: f64 = phi[1..].iter().map(|s| s.abs()).sum();
        assert!(phi[0] >= slope_sum);
    }
}

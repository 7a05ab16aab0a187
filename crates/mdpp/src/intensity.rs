//! Conditional-intensity models `λ̃(t, x, y; θ)`.
//!
//! An intensity model answers three questions the rest of the stack needs:
//! the *pointwise rate* (flatten's Eq. (3) denominator), a *window upper
//! bound* (the envelope for Lewis–Shedler thinning), and the *window
//! integral* (expected count; the normalizer of the Poisson
//! log-likelihood). Models where the integral has a closed form implement
//! it exactly; the rest fall back to midpoint-rule quadrature.

use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};

/// A conditional spatio-temporal intensity (rate) function.
pub trait IntensityModel {
    /// The rate at a space-time point (always ≥ 0).
    fn rate_at(&self, p: &SpaceTimePoint) -> f64;

    /// An upper bound of the rate over the window (need not be tight, but
    /// tighter bounds make thinning-based samplers faster).
    fn max_rate(&self, w: &SpaceTimeWindow) -> f64;

    /// `∫_W λ` — the expected number of points in the window.
    ///
    /// The default implementation uses midpoint quadrature on a
    /// `res × res × res` lattice; override when a closed form exists.
    fn integral(&self, w: &SpaceTimeWindow) -> f64 {
        numeric_integral(self, w, 32)
    }
}

/// Midpoint-rule quadrature of an intensity over a window.
///
/// Exposed so tests can cross-check closed-form integrals. The lattice
/// midpoint coordinates are precomputed per axis and a single probe point
/// is mutated in place, so the `res³` inner loop does no
/// `SpaceTimePoint` construction — only the `rate_at` calls remain.
/// Summation order matches the naive triple loop exactly (`t`, then `x`,
/// then `y`), keeping results bit-identical to previous versions.
pub fn numeric_integral<I: IntensityModel + ?Sized>(
    intensity: &I,
    w: &SpaceTimeWindow,
    res: usize,
) -> f64 {
    assert!(res > 0, "need at least one lattice cell");
    let dt = w.duration() / res as f64;
    let dx = w.rect.width() / res as f64;
    let dy = w.rect.height() / res as f64;
    let ts: Vec<f64> = (0..res).map(|i| w.t0 + dt * (i as f64 + 0.5)).collect();
    let xs: Vec<f64> = (0..res).map(|i| w.rect.x0 + dx * (i as f64 + 0.5)).collect();
    let ys: Vec<f64> = (0..res).map(|i| w.rect.y0 + dy * (i as f64 + 0.5)).collect();
    let mut probe = SpaceTimePoint::new(0.0, 0.0, 0.0);
    let mut sum = 0.0;
    for &t in &ts {
        probe.t = t;
        for &x in &xs {
            probe.x = x;
            for &y in &ys {
                probe.y = y;
                sum += intensity.rate_at(&probe);
            }
        }
    }
    sum * dt * dx * dy
}

/// Constant rate `λ` — the intensity of a homogeneous MDPP `P(λ, R)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantIntensity {
    rate: f64,
}

impl ConstantIntensity {
    /// Creates a constant intensity.
    ///
    /// # Panics
    /// Panics when `rate` is negative or non-finite.
    #[track_caller]
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0, got {rate}");
        Self { rate }
    }

    /// The rate λ.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl IntensityModel for ConstantIntensity {
    #[inline]
    fn rate_at(&self, _p: &SpaceTimePoint) -> f64 {
        self.rate
    }

    #[inline]
    fn max_rate(&self, _w: &SpaceTimeWindow) -> f64 {
        self.rate
    }

    #[inline]
    fn integral(&self, w: &SpaceTimeWindow) -> f64 {
        self.rate * w.volume()
    }
}

/// The paper's Eq. (1): `λ̃(t, x, y; θ) = θ0 + θ1·t + θ2·x + θ3·y`,
/// truncated at zero.
///
/// The linear form can go negative outside its fitted range; following the
/// convention of conditional-intensity fitting (ref. \[12\]) the model value
/// is `max(0, ·)`. [`LinearIntensity::is_positive_on`] reports whether the
/// window stays in the strictly-positive regime, where the closed-form
/// integral and the concavity of the log-likelihood are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearIntensity {
    theta: [f64; 4],
}

impl LinearIntensity {
    /// Creates the model from `θ = [θ0, θ1, θ2, θ3]`.
    ///
    /// # Panics
    /// Panics on non-finite parameters.
    #[track_caller]
    pub fn new(theta: [f64; 4]) -> Self {
        assert!(theta.iter().all(|t| t.is_finite()), "theta must be finite: {theta:?}");
        Self { theta }
    }

    /// A constant-rate special case (`θ1 = θ2 = θ3 = 0`).
    pub fn constant(rate: f64) -> Self {
        Self::new([rate, 0.0, 0.0, 0.0])
    }

    /// The parameter vector θ.
    #[inline]
    pub fn theta(&self) -> [f64; 4] {
        self.theta
    }

    /// The raw (untruncated) linear form.
    #[inline]
    pub fn linear_at(&self, p: &SpaceTimePoint) -> f64 {
        self.theta[0] + self.theta[1] * p.t + self.theta[2] * p.x + self.theta[3] * p.y
    }

    /// The feature vector `f(p) = (1, t, x, y)` of Eq. (1); gradient of the
    /// linear form with respect to θ.
    #[inline]
    pub fn features(p: &SpaceTimePoint) -> [f64; 4] {
        [1.0, p.t, p.x, p.y]
    }

    /// Evaluates the linear form at every corner of the window. Because the
    /// form is affine, its extrema over the box lie at corners.
    fn corner_values(&self, w: &SpaceTimeWindow) -> [f64; 8] {
        let mut vals = [0.0; 8];
        let mut i = 0;
        for &t in &[w.t0, w.t1] {
            for &x in &[w.rect.x0, w.rect.x1] {
                for &y in &[w.rect.y0, w.rect.y1] {
                    vals[i] = self.linear_at(&SpaceTimePoint::new(t, x, y));
                    i += 1;
                }
            }
        }
        vals
    }

    /// `true` when the linear form is strictly positive over the whole
    /// window (checked at corners; exact for an affine function).
    pub fn is_positive_on(&self, w: &SpaceTimeWindow) -> bool {
        self.corner_values(w).iter().all(|&v| v > 0.0)
    }

    /// Minimum of the linear form over the window.
    pub fn min_on(&self, w: &SpaceTimeWindow) -> f64 {
        self.corner_values(w).iter().copied().fold(f64::INFINITY, f64::min)
    }
}

impl IntensityModel for LinearIntensity {
    #[inline]
    fn rate_at(&self, p: &SpaceTimePoint) -> f64 {
        self.linear_at(p).max(0.0)
    }

    fn max_rate(&self, w: &SpaceTimeWindow) -> f64 {
        self.corner_values(w).iter().copied().fold(0.0, f64::max)
    }

    fn integral(&self, w: &SpaceTimeWindow) -> f64 {
        if self.is_positive_on(w) {
            // ∫_W (θ0 + θ1 t + θ2 x + θ3 y) = V · λ(midpoint) for an affine
            // integrand over a box.
            let (cx, cy) = w.rect.center();
            let mid = SpaceTimePoint::new((w.t0 + w.t1) * 0.5, cx, cy);
            self.linear_at(&mid) * w.volume()
        } else {
            // Truncation active somewhere: integrate max(0, ·) numerically.
            numeric_integral(self, w, 64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::Rect;

    fn window() -> SpaceTimeWindow {
        SpaceTimeWindow::new(Rect::with_size(10.0, 10.0), 0.0, 20.0)
    }

    #[test]
    fn constant_intensity_integral_is_rate_times_volume() {
        let c = ConstantIntensity::new(2.5);
        let w = window();
        assert!((c.integral(&w) - 2.5 * 2000.0).abs() < 1e-9);
        assert_eq!(c.max_rate(&w), 2.5);
        assert_eq!(c.rate_at(&SpaceTimePoint::new(1.0, 2.0, 3.0)), 2.5);
    }

    #[test]
    fn linear_intensity_matches_eq1() {
        let l = LinearIntensity::new([1.0, 0.5, 2.0, -0.25]);
        let p = SpaceTimePoint::new(2.0, 3.0, 4.0);
        // 1 + 0.5*2 + 2*3 - 0.25*4 = 7.
        assert!((l.rate_at(&p) - 7.0).abs() < 1e-12);
        assert_eq!(LinearIntensity::features(&p), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn linear_intensity_truncates_at_zero() {
        let l = LinearIntensity::new([-5.0, 0.0, 0.0, 0.0]);
        assert_eq!(l.rate_at(&SpaceTimePoint::new(0.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn linear_closed_form_integral_matches_quadrature() {
        let l = LinearIntensity::new([3.0, 0.05, 0.2, 0.1]);
        let w = window();
        assert!(l.is_positive_on(&w));
        let closed = l.integral(&w);
        let numeric = numeric_integral(&l, &w, 48);
        assert!((closed - numeric).abs() < 1e-3 * closed, "closed {closed} vs numeric {numeric}");
    }

    #[test]
    fn linear_truncated_integral_uses_quadrature() {
        // Goes negative over part of the window.
        let l = LinearIntensity::new([-2.0, 0.0, 1.0, 0.0]);
        let w = window();
        assert!(!l.is_positive_on(&w));
        // Analytic: ∫max(0, x-2) over x∈[0,10] = 32; times 10 (y) times 20 (t).
        let expected = 32.0 * 10.0 * 20.0;
        let got = l.integral(&w);
        assert!((got - expected).abs() < 0.02 * expected, "got {got} want {expected}");
    }

    #[test]
    fn linear_max_and_min_on_corners() {
        let l = LinearIntensity::new([1.0, 1.0, 1.0, 1.0]);
        let w = window();
        assert!((l.max_rate(&w) - (1.0 + 20.0 + 10.0 + 10.0)).abs() < 1e-12);
        assert!((l.min_on(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hoisted_numeric_integral_matches_closed_forms() {
        let w = window();
        let c = ConstantIntensity::new(1.75);
        assert!((numeric_integral(&c, &w, 16) - c.integral(&w)).abs() < 1e-9);
        let l = LinearIntensity::new([3.0, 0.05, 0.2, 0.1]);
        assert!((numeric_integral(&l, &w, 48) - l.integral(&w)).abs() < 1e-3 * l.integral(&w));
    }
}

//! The process types `P(λ, R)` and `P̃(λ̃, R)` with exact samplers.

use crate::intensity::{ConstantIntensity, IntensityModel};
use craqr_geom::{Rect, SpaceTimePoint, SpaceTimeWindow};
use craqr_stats::dist::Poisson;
use rand::distributions::Distribution;
use rand::Rng;

/// A homogeneous MDPP `P⟨j⟩(λ, R)` — constant rate over space and time
/// (Section III-A; the paper's default process kind).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomogeneousMdpp {
    rate: f64,
    region: Rect,
}

impl HomogeneousMdpp {
    /// Creates `P(λ, R)`.
    ///
    /// # Panics
    /// Panics when `rate` is negative or non-finite.
    #[track_caller]
    pub fn new(rate: f64, region: Rect) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0, got {rate}");
        Self { rate, region }
    }

    /// The constant rate λ (points / km² / min).
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The spatial extent `R`.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Samples every point the process drops in `[t0, t1) × region`.
    ///
    /// Exact two-stage sampler: `N ~ Poisson(λ·V)`, then `N` points placed
    /// independently and uniformly. Output is sorted by time so it can feed
    /// streaming operators directly.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        window: &SpaceTimeWindow,
        rng: &mut R,
    ) -> Vec<SpaceTimePoint> {
        let w = window.restricted_to(&self.region).unwrap_or_else(|| {
            panic!("window {:?} outside process region {}", window.rect, self.region)
        });
        let n = Poisson::new(self.rate * w.volume()).sample(rng);
        let mut points = Vec::with_capacity(n as usize);
        for _ in 0..n {
            points.push(SpaceTimePoint::new(
                rng.gen_range(w.t0..w.t1),
                rng.gen_range(w.rect.x0..w.rect.x1),
                rng.gen_range(w.rect.y0..w.rect.y1),
            ));
        }
        points.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("sampled times are finite"));
        points
    }

    /// The expected number of points in a window (after clipping to `R`).
    pub fn expected_count(&self, window: &SpaceTimeWindow) -> f64 {
        window.restricted_to(&self.region).map_or(0.0, |w| self.rate * w.volume())
    }

    /// Views this process as an intensity model.
    pub fn intensity(&self) -> ConstantIntensity {
        ConstantIntensity::new(self.rate)
    }
}

/// An inhomogeneous MDPP `P̃⟨j⟩(λ̃, R)` whose rate varies over space-time.
#[derive(Debug, Clone, PartialEq)]
pub struct InhomogeneousMdpp<I> {
    intensity: I,
    region: Rect,
}

impl<I: IntensityModel> InhomogeneousMdpp<I> {
    /// Creates `P̃(λ̃, R)`.
    pub fn new(intensity: I, region: Rect) -> Self {
        Self { intensity, region }
    }

    /// The conditional-intensity model λ̃.
    #[inline]
    pub fn intensity(&self) -> &I {
        &self.intensity
    }

    /// The spatial extent `R`.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Samples the process in a window by Lewis–Shedler thinning:
    /// draw from the homogeneous envelope `P(λ_max, R)` and retain each
    /// point with probability `λ̃(p)/λ_max`.
    ///
    /// # Panics
    /// Panics when the window lies outside `R` or the intensity's claimed
    /// `max_rate` is violated at a sampled point (a model bug worth
    /// crashing loudly on, since it silently skews every experiment).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        window: &SpaceTimeWindow,
        rng: &mut R,
    ) -> Vec<SpaceTimePoint> {
        let w = window.restricted_to(&self.region).unwrap_or_else(|| {
            panic!("window {:?} outside process region {}", window.rect, self.region)
        });
        let lambda_max = self.intensity.max_rate(&w);
        if lambda_max <= 0.0 {
            return Vec::new();
        }
        let envelope = HomogeneousMdpp::new(lambda_max, w.rect);
        let mut points = envelope.sample(&w, rng);
        points.retain(|p| {
            let rate = self.intensity.rate_at(p);
            assert!(
                rate <= lambda_max * (1.0 + 1e-9),
                "intensity {rate} exceeds claimed max {lambda_max} at {p:?}"
            );
            rng.gen::<f64>() < rate / lambda_max
        });
        points
    }

    /// The expected number of points in a window (after clipping to `R`).
    pub fn expected_count(&self, window: &SpaceTimeWindow) -> f64 {
        window.restricted_to(&self.region).map_or(0.0, |w| self.intensity.integral(&w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::LinearIntensity;
    use craqr_stats::seeded_rng;

    fn region() -> Rect {
        Rect::with_size(10.0, 10.0)
    }

    #[test]
    fn homogeneous_sample_count_matches_expectation() {
        let p = HomogeneousMdpp::new(0.5, region());
        let w = SpaceTimeWindow::new(region(), 0.0, 10.0);
        let mut rng = seeded_rng(1);
        let n: usize = (0..200).map(|_| p.sample(&w, &mut rng).len()).sum();
        let mean = n as f64 / 200.0;
        let expected = p.expected_count(&w); // 0.5 * 1000 = 500
        assert!((expected - 500.0).abs() < 1e-9);
        assert!((mean - expected).abs() < 0.02 * expected, "mean {mean}");
    }

    #[test]
    fn homogeneous_sample_is_time_sorted_and_inside_window() {
        let p = HomogeneousMdpp::new(2.0, region());
        let w = SpaceTimeWindow::new(Rect::new(2.0, 3.0, 6.0, 8.0), 5.0, 9.0);
        let mut rng = seeded_rng(2);
        let pts = p.sample(&w, &mut rng);
        assert!(!pts.is_empty());
        for pair in pts.windows(2) {
            assert!(pair[0].t <= pair[1].t);
        }
        for pt in &pts {
            assert!(w.contains(pt), "{pt:?} outside {w:?}");
        }
    }

    #[test]
    fn zero_rate_process_is_empty() {
        let p = HomogeneousMdpp::new(0.0, region());
        let w = SpaceTimeWindow::new(region(), 0.0, 100.0);
        assert!(p.sample(&w, &mut seeded_rng(3)).is_empty());
        assert_eq!(p.expected_count(&w), 0.0);
    }

    #[test]
    fn window_clipped_to_region() {
        let p = HomogeneousMdpp::new(1.0, Rect::with_size(5.0, 5.0));
        // Window extends beyond the region; only the overlap counts.
        let w = SpaceTimeWindow::new(Rect::with_size(10.0, 10.0), 0.0, 4.0);
        assert!((p.expected_count(&w) - 25.0 * 4.0).abs() < 1e-9);
        let pts = p.sample(&w, &mut seeded_rng(4));
        for pt in &pts {
            assert!(pt.x < 5.0 && pt.y < 5.0);
        }
    }

    #[test]
    fn inhomogeneous_sample_count_matches_integral() {
        let li = LinearIntensity::new([1.0, 0.0, 0.3, 0.0]);
        let p = InhomogeneousMdpp::new(li, region());
        let w = SpaceTimeWindow::new(region(), 0.0, 10.0);
        let expected = p.expected_count(&w); // (1 + 0.3*5) * 1000 = 2500
        assert!((expected - 2500.0).abs() < 1e-6);
        let mut rng = seeded_rng(5);
        let n: usize = (0..50).map(|_| p.sample(&w, &mut rng).len()).sum();
        let mean = n as f64 / 50.0;
        assert!((mean - expected).abs() < 0.03 * expected, "mean {mean} vs {expected}");
    }

    #[test]
    fn inhomogeneous_density_follows_gradient() {
        // Rate grows with x; the high-x half must receive more points.
        let li = LinearIntensity::new([0.5, 0.0, 0.8, 0.0]);
        let p = InhomogeneousMdpp::new(li, region());
        let w = SpaceTimeWindow::new(region(), 0.0, 20.0);
        let pts = p.sample(&w, &mut seeded_rng(6));
        let high = pts.iter().filter(|p| p.x >= 5.0).count();
        let low = pts.len() - high;
        assert!(high > low * 2, "high {high} low {low}");
    }

    #[test]
    fn inhomogeneous_zero_intensity_is_empty() {
        let li = LinearIntensity::new([0.0, 0.0, 0.0, 0.0]);
        let p = InhomogeneousMdpp::new(li, region());
        let w = SpaceTimeWindow::new(region(), 0.0, 10.0);
        assert!(p.sample(&w, &mut seeded_rng(7)).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside process region")]
    fn disjoint_window_panics() {
        let p = HomogeneousMdpp::new(1.0, Rect::with_size(1.0, 1.0));
        let w = SpaceTimeWindow::new(Rect::new(5.0, 5.0, 6.0, 6.0), 0.0, 1.0);
        let _ = p.sample(&w, &mut seeded_rng(8));
    }
}

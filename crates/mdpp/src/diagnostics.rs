//! Empirical homogeneity diagnostics.
//!
//! "As shown in \[12\], this procedure produces an approximately homogeneous
//! point process" — claims like this one are *testable*, and this module is
//! how the workspace tests them. A [`HomogeneityReport`] bins a point set
//! over a space-time lattice and runs three complementary checks:
//!
//! - χ² goodness of fit of per-bin counts against the uniform expectation,
//! - the variance-to-mean dispersion index of those counts,
//! - a Kolmogorov–Smirnov test of temporal inter-arrival gaps against the
//!   exponential law implied by the empirical rate.

use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};
use craqr_stats::hypothesis::{
    chi_square_uniform, dispersion_index, ks_exponential, ChiSquare, Dispersion, KsTest,
};
use craqr_stats::online::OnlineMoments;

/// Outcome of the homogeneity diagnostics over one window.
#[derive(Debug, Clone, PartialEq)]
pub struct HomogeneityReport {
    /// Total points observed.
    pub n: usize,
    /// Empirical rate `n / volume` (points per km²·min).
    pub empirical_rate: f64,
    /// Per-bin counts over the `s_bins × s_bins × t_bins` lattice.
    pub counts: Vec<u64>,
    /// Coefficient of variation of the per-bin counts.
    pub count_cv: f64,
    /// χ² homogeneity test over the bins.
    pub chi_square: ChiSquare,
    /// Variance-to-mean dispersion test over the bins.
    pub dispersion: Dispersion,
    /// KS test of the temporal gaps (`None` with fewer than 10 points).
    pub temporal_ks: Option<KsTest>,
}

impl HomogeneityReport {
    /// A single headline verdict: `true` when both count-based tests accept
    /// homogeneity at significance `alpha`.
    pub fn is_homogeneous(&self, alpha: f64) -> bool {
        self.chi_square.accepts(alpha) && self.dispersion.p_value >= alpha
    }
}

/// Bins `points` over an `s_bins × s_bins` spatial lattice crossed with
/// `t_bins` time slices of `window`, and runs the homogeneity tests.
///
/// Points outside the window are ignored (callers often diagnose a clipped
/// sub-stream against its own sub-window).
///
/// # Panics
/// Panics when `s_bins == 0`, `t_bins == 0`, or no point falls inside the
/// window (there is nothing to diagnose).
pub fn homogeneity_report(
    points: &[SpaceTimePoint],
    window: &SpaceTimeWindow,
    s_bins: usize,
    t_bins: usize,
) -> HomogeneityReport {
    assert!(s_bins > 0 && t_bins > 0, "need at least one bin per axis");
    let mut counts = vec![0u64; s_bins * s_bins * t_bins];
    let dx = window.rect.width() / s_bins as f64;
    let dy = window.rect.height() / s_bins as f64;
    let dt = window.duration() / t_bins as f64;
    let mut times: Vec<f64> = Vec::new();
    for p in points {
        if !window.contains(p) {
            continue;
        }
        let ix = (((p.x - window.rect.x0) / dx) as usize).min(s_bins - 1);
        let iy = (((p.y - window.rect.y0) / dy) as usize).min(s_bins - 1);
        let it = (((p.t - window.t0) / dt) as usize).min(t_bins - 1);
        counts[(it * s_bins + iy) * s_bins + ix] += 1;
        times.push(p.t);
    }
    let n = times.len();
    assert!(n > 0, "no points inside the window");

    let mut moments = OnlineMoments::new();
    moments.extend(counts.iter().map(|&c| c as f64));

    let temporal_ks = if n >= 10 {
        times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]).max(1e-12)).collect();
        // Under homogeneity, gaps are Exp(n / duration).
        let temporal_rate = n as f64 / window.duration();
        Some(ks_exponential(&gaps, temporal_rate))
    } else {
        None
    };

    HomogeneityReport {
        n,
        empirical_rate: window.empirical_rate(n),
        count_cv: moments.cv(),
        chi_square: chi_square_uniform(&counts),
        dispersion: dispersion_index(&counts),
        temporal_ks,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::LinearIntensity;
    use crate::process::{HomogeneousMdpp, InhomogeneousMdpp};
    use craqr_geom::Rect;
    use craqr_stats::seeded_rng;

    fn window() -> SpaceTimeWindow {
        SpaceTimeWindow::new(Rect::with_size(10.0, 10.0), 0.0, 40.0)
    }

    #[test]
    fn homogeneous_process_passes_all_tests() {
        let w = window();
        let pts = HomogeneousMdpp::new(2.0, w.rect).sample(&w, &mut seeded_rng(1));
        let rep = homogeneity_report(&pts, &w, 4, 4);
        assert!(rep.is_homogeneous(0.001), "chi p={}", rep.chi_square.p_value);
        assert!((rep.empirical_rate - 2.0).abs() < 0.15, "rate {}", rep.empirical_rate);
        let ks = rep.temporal_ks.expect("large sample has KS");
        assert!(ks.accepts(0.001), "KS p={}", ks.p_value);
    }

    #[test]
    fn skewed_process_fails_chi_square() {
        let w = window();
        let truth = LinearIntensity::new([0.5, 0.0, 0.9, 0.0]);
        let pts = InhomogeneousMdpp::new(truth, w.rect).sample(&w, &mut seeded_rng(2));
        let rep = homogeneity_report(&pts, &w, 4, 4);
        assert!(!rep.is_homogeneous(0.001), "should reject: p={}", rep.chi_square.p_value);
        assert!(rep.dispersion.index > 1.5, "dispersion {}", rep.dispersion.index);
    }

    #[test]
    fn cv_larger_for_skewed_streams() {
        let w = window();
        let homog = HomogeneousMdpp::new(2.0, w.rect).sample(&w, &mut seeded_rng(3));
        let skewed = InhomogeneousMdpp::new(LinearIntensity::new([0.2, 0.0, 0.36, 0.0]), w.rect)
            .sample(&w, &mut seeded_rng(3));
        let rep_h = homogeneity_report(&homog, &w, 4, 4);
        let rep_s = homogeneity_report(&skewed, &w, 4, 4);
        assert!(
            rep_s.count_cv > rep_h.count_cv * 1.5,
            "skewed CV {} vs homog CV {}",
            rep_s.count_cv,
            rep_h.count_cv
        );
    }

    #[test]
    fn points_outside_window_are_ignored() {
        let w = window();
        let mut pts = HomogeneousMdpp::new(1.0, w.rect).sample(&w, &mut seeded_rng(4));
        let inside = pts.len();
        pts.push(SpaceTimePoint::new(999.0, 1.0, 1.0));
        pts.push(SpaceTimePoint::new(1.0, -5.0, 1.0));
        let rep = homogeneity_report(&pts, &w, 3, 3);
        assert_eq!(rep.n, inside);
    }

    #[test]
    fn small_sample_skips_ks() {
        let w = window();
        let pts = vec![
            SpaceTimePoint::new(1.0, 1.0, 1.0),
            SpaceTimePoint::new(2.0, 2.0, 2.0),
            SpaceTimePoint::new(3.0, 3.0, 3.0),
        ];
        let rep = homogeneity_report(&pts, &w, 2, 2);
        assert!(rep.temporal_ks.is_none());
        assert_eq!(rep.n, 3);
    }

    #[test]
    #[should_panic(expected = "no points inside")]
    fn empty_window_panics() {
        let w = window();
        let _ = homogeneity_report(&[], &w, 2, 2);
    }

    #[test]
    fn counts_sum_to_n() {
        let w = window();
        let pts = HomogeneousMdpp::new(1.5, w.rect).sample(&w, &mut seeded_rng(5));
        let rep = homogeneity_report(&pts, &w, 5, 3);
        assert_eq!(rep.counts.iter().sum::<u64>() as usize, rep.n);
        assert_eq!(rep.counts.len(), 5 * 5 * 3);
    }
}

//! Batch maximum-likelihood estimation of Eq. (1).

use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};

use super::{project_positive, WindowScale, POSITIVITY_EPS};
use crate::intensity::LinearIntensity;

/// Configuration of the MLE solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Maximum gradient-ascent iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the relative log-likelihood improvement.
    pub tol: f64,
    /// Initial step size for backtracking line search.
    pub initial_step: f64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self { max_iters: 500, tol: 1e-10, initial_step: 1.0 }
    }
}

/// Result of an MLE fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// The fitted intensity model (physical coordinates, Eq. (1) form).
    pub intensity: LinearIntensity,
    /// The attained Poisson log-likelihood.
    pub log_likelihood: f64,
    /// Iterations used.
    pub iterations: usize,
    /// `true` when the tolerance was met within the iteration budget.
    pub converged: bool,
}

/// Fits the linear conditional intensity of Eq. (1) to points observed in a
/// window, by projected gradient ascent on the concave Poisson
/// log-likelihood `ℓ(θ) = Σᵢ ln λ̃(pᵢ) − ∫_W λ̃`.
///
/// With no points the MLE degenerates to the zero process and
/// `LinearIntensity::constant(0)` is returned as converged.
///
/// Four parameters need more than four points: on a smaller sample the
/// optimum sits on the positivity boundary, and the fit recovers the
/// intensity surface worse than the homogeneous `n / V` it starts from.
/// On E3's truth (`tests/paper_claims.rs`) the fit has the lower
/// relative RMSE on 41 % of 2-point samples, 47 % at 4, 56 % at 8 and
/// 72 % at 16, which is why the flatten operator calls it only from 8
/// points (`FlattenOp::MIN_FIT_POINTS` in `craqr-core`).
///
/// # Panics
/// Panics when a point lies outside the window (the caller batched wrongly).
pub fn fit_mle(
    points: &[SpaceTimePoint],
    window: &SpaceTimeWindow,
    config: FitConfig,
) -> FitResult {
    fit_mle_with(points, window, config, &mut FitScratch::default())
}

/// The buffers of one fit, kept by a caller that fits every batch so that
/// fitting allocates only when a batch outgrows every earlier one.
#[derive(Debug, Default)]
pub struct FitScratch {
    /// Each point's scaled feature vector `(1, u, v, w)`.
    features: Vec<[f64; 4]>,
    /// Each point's `λ̃` at the current φ.
    lam: Vec<f64>,
    /// Each point's `λ̃` at the line search's latest candidate.
    trial: Vec<f64>,
}

/// `true` when `a` and `b` are the same four floats, bit for bit.
fn same_bits(a: &[f64; 4], b: &[f64; 4]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// [`fit_mle`] on buffers the caller keeps. The result is bit-identical
/// to [`fit_mle`]'s.
///
/// # Panics
/// Panics when a point lies outside the window.
pub fn fit_mle_with(
    points: &[SpaceTimePoint],
    window: &SpaceTimeWindow,
    config: FitConfig,
    scratch: &mut FitScratch,
) -> FitResult {
    for p in points {
        assert!(window.contains(p), "point {p:?} outside fit window");
    }
    if points.is_empty() {
        return FitResult {
            intensity: LinearIntensity::constant(0.0),
            log_likelihood: 0.0,
            iterations: 0,
            converged: true,
        };
    }

    let scale = WindowScale::of(window);
    let volume = window.volume();
    let FitScratch { features, lam, trial } = scratch;
    features.clear();
    features.extend(points.iter().map(|p| scale.features(p)));
    let features: &[[f64; 4]] = features;
    // Sized once: the likelihood writes every slot before anything reads it.
    lam.resize(points.len(), 0.0);
    trial.resize(points.len(), 0.0);

    // In centred/scaled coordinates the window integral of the affine form
    // is simply `φ0 · V` (the odd terms integrate to zero). Each `λ̃(pᵢ)`
    // is kept in `lams`: if φ is accepted, its gradient reuses them.
    let log_lik = |phi: &[f64; 4], lams: &mut [f64]| -> f64 {
        let mut ll = -phi[0] * volume;
        for (f, slot) in features.iter().zip(lams) {
            let lam: f64 = phi.iter().zip(f).map(|(a, b)| a * b).sum();
            debug_assert!(lam > 0.0, "infeasible phi reached the likelihood");
            *slot = lam;
            ll += lam.ln();
        }
        ll
    };
    // The gradient at φ, from the `λ̃(pᵢ)` the likelihood at φ kept.
    let gradient = |lams: &[f64]| -> [f64; 4] {
        let mut g = [-volume, 0.0, 0.0, 0.0];
        for (f, &lam) in features.iter().zip(lams) {
            let inv = 1.0 / lam;
            for k in 0..4 {
                g[k] += f[k] * inv;
            }
        }
        g
    };
    let feasible = |phi: &[f64; 4]| {
        phi[0] - (phi[1].abs() + phi[2].abs() + phi[3].abs()) >= POSITIVITY_EPS * 0.5
    };

    // Start from the homogeneous MLE: φ = (n/V, 0, 0, 0).
    let mut phi = [points.len() as f64 / volume, 0.0, 0.0, 0.0];
    project_positive(&mut phi, POSITIVITY_EPS);
    let mut ll = log_lik(&phi, lam);
    let mut converged = false;
    let mut iterations = 0;

    for it in 0..config.max_iters {
        iterations = it + 1;
        let g = gradient(lam);
        // Scale-free step: normalize by n so the step size is O(1).
        let n = points.len() as f64;
        let mut step = config.initial_step;
        let mut advanced = false;
        for _ in 0..60 {
            let mut cand = [
                phi[0] + step * g[0] / n,
                phi[1] + step * g[1] / n,
                phi[2] + step * g[2] / n,
                phi[3] + step * g[3] / n,
            ];
            // Halving is exact and rounding monotone: once a step no longer
            // moves φ, no shorter one does, and every later trial is this
            // one again.
            let stalled = same_bits(&cand, &phi);
            project_positive(&mut cand, POSITIVITY_EPS);
            // A candidate that is φ has φ's likelihood: no ascent.
            if !same_bits(&cand, &phi) && feasible(&cand) {
                let cand_ll = log_lik(&cand, trial);
                if cand_ll > ll {
                    let improvement = cand_ll - ll;
                    phi = cand;
                    ll = cand_ll;
                    std::mem::swap(lam, trial);
                    advanced = true;
                    if improvement < config.tol * (1.0 + ll.abs()) {
                        converged = true;
                    }
                    break;
                }
            }
            if stalled {
                break;
            }
            step *= 0.5;
        }
        if !advanced {
            // No ascent direction at line-search resolution: at the optimum.
            converged = true;
            break;
        }
        if converged {
            break;
        }
    }

    FitResult { intensity: scale.to_physical(phi), log_likelihood: ll, iterations, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::IntensityModel;
    use crate::process::{HomogeneousMdpp, InhomogeneousMdpp};
    use craqr_geom::Rect;
    use craqr_stats::seeded_rng;

    fn window() -> SpaceTimeWindow {
        SpaceTimeWindow::new(Rect::with_size(10.0, 10.0), 0.0, 30.0)
    }

    /// The solver before its exact trims: the gradient recomputes every
    /// `λ̃(pᵢ)`, and the line search evaluates every trial, all 60 of them
    /// when none ascends.
    fn oracle_fit_mle(
        points: &[SpaceTimePoint],
        window: &SpaceTimeWindow,
        config: FitConfig,
    ) -> FitResult {
        for p in points {
            assert!(window.contains(p), "point {p:?} outside fit window");
        }
        if points.is_empty() {
            return FitResult {
                intensity: LinearIntensity::constant(0.0),
                log_likelihood: 0.0,
                iterations: 0,
                converged: true,
            };
        }

        let scale = WindowScale::of(window);
        let volume = window.volume();
        let features: Vec<[f64; 4]> = points.iter().map(|p| scale.features(p)).collect();
        let features = &features;

        let log_lik = |phi: &[f64; 4]| -> f64 {
            let mut ll = -phi[0] * volume;
            for f in features {
                let lam: f64 = phi.iter().zip(f).map(|(a, b)| a * b).sum();
                debug_assert!(lam > 0.0, "infeasible phi reached the likelihood");
                ll += lam.ln();
            }
            ll
        };
        let gradient = |phi: &[f64; 4]| -> [f64; 4] {
            let mut g = [-volume, 0.0, 0.0, 0.0];
            for f in features {
                let lam: f64 = phi.iter().zip(f).map(|(a, b)| a * b).sum();
                let inv = 1.0 / lam;
                for k in 0..4 {
                    g[k] += f[k] * inv;
                }
            }
            g
        };
        let feasible = |phi: &[f64; 4]| {
            phi[0] - (phi[1].abs() + phi[2].abs() + phi[3].abs()) >= POSITIVITY_EPS * 0.5
        };

        // Start from the homogeneous MLE: φ = (n/V, 0, 0, 0).
        let mut phi = [points.len() as f64 / volume, 0.0, 0.0, 0.0];
        project_positive(&mut phi, POSITIVITY_EPS);
        let mut ll = log_lik(&phi);
        let mut converged = false;
        let mut iterations = 0;

        for it in 0..config.max_iters {
            iterations = it + 1;
            let g = gradient(&phi);
            // Scale-free step: normalize by n so the step size is O(1).
            let n = points.len() as f64;
            let mut step = config.initial_step;
            let mut advanced = false;
            for _ in 0..60 {
                let mut cand = [
                    phi[0] + step * g[0] / n,
                    phi[1] + step * g[1] / n,
                    phi[2] + step * g[2] / n,
                    phi[3] + step * g[3] / n,
                ];
                project_positive(&mut cand, POSITIVITY_EPS);
                if feasible(&cand) {
                    let cand_ll = log_lik(&cand);
                    if cand_ll > ll {
                        let improvement = cand_ll - ll;
                        phi = cand;
                        ll = cand_ll;
                        advanced = true;
                        if improvement < config.tol * (1.0 + ll.abs()) {
                            converged = true;
                        }
                        break;
                    }
                }
                step *= 0.5;
            }
            if !advanced {
                // No ascent direction at line-search resolution: at the optimum.
                converged = true;
                break;
            }
            if converged {
                break;
            }
        }

        FitResult { intensity: scale.to_physical(phi), log_likelihood: ll, iterations, converged }
    }

    #[test]
    fn empty_sample_yields_zero_process() {
        let r = fit_mle(&[], &window(), FitConfig::default());
        assert!(r.converged);
        assert_eq!(r.intensity.theta(), [0.0; 4]);
    }

    #[test]
    fn homogeneous_sample_recovers_constant_rate() {
        let w = window();
        let truth = 3.0;
        let pts = HomogeneousMdpp::new(truth, w.rect).sample(&w, &mut seeded_rng(42));
        let r = fit_mle(&pts, &w, FitConfig::default());
        assert!(r.converged);
        let theta = r.intensity.theta();
        assert!((theta[0] - truth).abs() < 0.3, "theta0 {}", theta[0]);
        // Slopes should be near zero relative to the scale of the rate.
        assert!(theta[1].abs() * 15.0 < 0.5, "theta1 {}", theta[1]);
        assert!(theta[2].abs() * 5.0 < 0.5, "theta2 {}", theta[2]);
    }

    #[test]
    fn linear_gradient_sample_recovers_theta() {
        let w = window();
        let truth = LinearIntensity::new([2.0, 0.05, 0.4, -0.1]);
        assert!(truth.is_positive_on(&w));
        let pts = InhomogeneousMdpp::new(truth, w.rect).sample(&w, &mut seeded_rng(11));
        assert!(pts.len() > 3_000, "need a healthy sample, got {}", pts.len());
        let r = fit_mle(&pts, &w, FitConfig::default());
        assert!(r.converged);
        let est = r.intensity.theta();
        let tru = truth.theta();
        // Compare intensity values rather than raw θ (θ components trade off);
        // relative error of the fitted surface must be small at probe points.
        for &(t, x, y) in &[(5.0, 2.0, 8.0), (15.0, 5.0, 5.0), (25.0, 9.0, 1.0)] {
            let p = SpaceTimePoint::new(t, x, y);
            let rel = (r.intensity.rate_at(&p) - truth.rate_at(&p)).abs() / truth.rate_at(&p);
            assert!(rel < 0.12, "rel err {rel} at {p:?}; est {est:?} truth {tru:?}");
        }
    }

    #[test]
    fn fitted_likelihood_beats_homogeneous_baseline() {
        let w = window();
        let truth = LinearIntensity::new([1.0, 0.0, 0.8, 0.0]);
        let pts = InhomogeneousMdpp::new(truth, w.rect).sample(&w, &mut seeded_rng(13));
        let fit = fit_mle(&pts, &w, FitConfig::default());

        // Log-likelihood of the best *constant* model: λ = n/V.
        let lam = pts.len() as f64 / w.volume();
        let const_ll = pts.len() as f64 * lam.ln() - lam * w.volume();
        assert!(
            fit.log_likelihood > const_ll + 10.0,
            "fit {} vs const {}",
            fit.log_likelihood,
            const_ll
        );
    }

    #[test]
    fn fit_respects_positivity_on_window() {
        let w = window();
        // Strong gradient pushing towards zero on one edge.
        let truth = LinearIntensity::new([0.5, 0.0, 1.0, 0.0]);
        let pts = InhomogeneousMdpp::new(truth, w.rect).sample(&w, &mut seeded_rng(17));
        let r = fit_mle(&pts, &w, FitConfig::default());
        assert!(r.intensity.min_on(&w) >= 0.0, "min {}", r.intensity.min_on(&w));
    }

    #[test]
    #[should_panic(expected = "outside fit window")]
    fn point_outside_window_panics() {
        let w = window();
        let _ = fit_mle(&[SpaceTimePoint::new(99.0, 1.0, 1.0)], &w, FitConfig::default());
    }

    #[test]
    fn tiny_sample_still_converges() {
        let w = window();
        let pts = vec![
            SpaceTimePoint::new(1.0, 1.0, 1.0),
            SpaceTimePoint::new(2.0, 9.0, 9.0),
            SpaceTimePoint::new(20.0, 5.0, 5.0),
        ];
        let r = fit_mle(&pts, &w, FitConfig::default());
        assert!(r.converged);
        // Expected count of the fitted model ≈ sample size.
        let expected = r.intensity.integral(&w);
        assert!((expected - 3.0).abs() < 0.5, "expected {expected}");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The trimmed solver returns the oracle's result bit for bit, on
        /// batches spread evenly over the window or piled towards one
        /// corner (each unit coordinate raised to a power of two).
        #[test]
        fn trimmed_fit_matches_the_oracle_bit_for_bit(
            units in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..65),
            skew_log2 in 0i32..4,
            side in 0.1f64..10.0,
            minutes in 0.5f64..30.0,
        ) {
            let skew = 2f64.powi(skew_log2);
            let w = SpaceTimeWindow::new(Rect::with_size(side, side), 0.0, minutes);
            let pts: Vec<SpaceTimePoint> = units
                .iter()
                .map(|&(t, x, y)| {
                    SpaceTimePoint::new(t * minutes, x.powf(skew) * side, y.powf(skew) * side)
                })
                .collect();
            let want = oracle_fit_mle(&pts, &w, FitConfig::default());
            let mut scratch = FitScratch::default();
            // A scratch that fitted another batch first must not matter.
            fit_mle_with(&pts[..pts.len() / 2], &w, FitConfig::default(), &mut scratch);
            let got = fit_mle_with(&pts, &w, FitConfig::default(), &mut scratch);
            let bits = |r: &FitResult| r.intensity.theta().map(f64::to_bits);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got.log_likelihood.to_bits(), want.log_likelihood.to_bits());
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.converged, want.converged);
        }
    }
}

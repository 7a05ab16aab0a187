//! Batch maximum-likelihood estimation of Eq. (1).

use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};

use super::{project_positive, WindowScale, POSITIVITY_EPS};
use crate::intensity::LinearIntensity;

/// Configuration of the MLE solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Maximum solver iterations: Newton steps and corner releases.
    pub max_iters: usize,
    /// Convergence tolerance on the Newton decrement `∇ℓ·d` per point
    /// (twice the likelihood gain the quadratic model still predicts).
    pub tol: f64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self { max_iters: 100, tol: 1e-12 }
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
    /// `true` when the fit ended at a KKT point within the iteration
    /// budget.
    pub converged: bool,
    /// `true` when the fit ended with at least one corner of the window
    /// held at the positivity floor.
    pub on_boundary: bool,
}

/// Fits the linear conditional intensity of Eq. (1) to points observed in a
/// window: the maximum of the concave Poisson log-likelihood
/// `ℓ(θ) = Σᵢ ln λ̃(pᵢ) − ∫_W λ̃` over the θ that keep `λ̃` positive on the
/// window, found by an active-set Newton method.
///
/// Positivity on the window's box is exactly eight linear constraints, one
/// per corner. Each step solves the Newton system of the quadratic model
/// with the active corners held, and is cut short where it meets another
/// corner, which then joins the active set. Where the model is stationary
/// the corner whose multiplier pulls inward is released; where none does,
/// the fit is at a KKT point and reports `converged`. There the fitted
/// mass `∫_W λ̃` equals the sample size up to the positivity floor's
/// share. Points at one to three distinct sites leave the Hessian
/// singular; the likelihood is then linear along its null space and the
/// step runs along it until a corner stops it.
///
/// With no points the MLE degenerates to the zero process and
/// `LinearIntensity::constant(0)` is returned as converged.
///
/// Four parameters need more than four points: on a small sample the
/// optimum sits on the positivity boundary, and the fit recovers the
/// intensity surface worse than the homogeneous `n / V` does. On E3's
/// truth (`tests/paper_claims.rs`) the fit has the lower relative RMSE on
/// 32 % of 2-point samples, 39 % at 4, half at 8 (a tie by share, while
/// `n / V` is ahead on the mean), 57 % at 12 and 69 % at 16. The flatten
/// operator calls it from 8 points (`FlattenOp::MIN_FIT_POINTS` in
/// `craqr-core`), where E1 finds its pooled output twice as homogeneous.
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

/// The buffer of one fit, kept by a caller that fits every batch so that
/// fitting allocates only when a batch outgrows every earlier one.
#[derive(Debug, Default)]
pub struct FitScratch {
    /// Each point's scaled feature vector `(1, u, v, w)`.
    features: Vec<[f64; 4]>,
}

/// Positivity on the window as `CORNERS[k]·φ ≥ ε`: `λ̃` at the box's
/// corners `(±1, ±1, ±1)` in scaled coordinates. Their minimum is
/// `φ0 − |φ1| − |φ2| − |φ3|`.
const CORNERS: [[f64; 4]; 8] = [
    [1.0, 1.0, 1.0, 1.0],
    [1.0, -1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, 1.0],
    [1.0, -1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0, -1.0],
    [1.0, -1.0, 1.0, -1.0],
    [1.0, 1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0, -1.0],
];

/// The ridge `δ` subtracted from the Hessian's diagonal, relative to its
/// largest entry `Σ 1/λ̃ᵢ²`. It keeps the Newton system solvable when the
/// points leave a direction without curvature, and turns the step along
/// that direction into a long one that the next corner cuts short.
const RIDGE: f64 = 1e-9;

/// A multiplier below `−MULTIPLIER_TOL · Σ 1/λ̃ᵢ` pulls its corner inward.
const MULTIPLIER_TOL: f64 = 1e-9;

/// A corner stops a step only if the step leaves it faster than this
/// share of the step's size: slower is rounding in a direction the active
/// corners already span.
const CORNER_RATE_TOL: f64 = 1e-12;

/// The line search accepts a step where the likelihood still rises, or
/// where it has gained this share of what the slope at 0 promised.
const ARMIJO: f64 = 1e-4;

/// Inside a bracket the line search stops once the slope has fallen to
/// this share of its value at 0.
const CURVATURE: f64 = 0.1;

/// Most slope evaluations of one bracketed line search.
const LINE_ITERS: usize = 50;

fn dot(a: &[f64; 4], b: &[f64; 4]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
}

/// [`fit_mle`] on a buffer the caller keeps. The result is bit-identical
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
            on_boundary: false,
        };
    }

    let scale = WindowScale::of(window);
    let volume = window.volume();
    let n = points.len() as f64;
    scratch.features.clear();
    scratch.features.extend(points.iter().map(|p| scale.features(p)));
    let features: &[[f64; 4]] = &scratch.features;

    // Start from the homogeneous MLE: φ = (n/V, 0, 0, 0), no corner active.
    let mut phi = [n / volume, 0.0, 0.0, 0.0];
    project_positive(&mut phi, POSITIVITY_EPS);
    let mut active = 0u8;
    let mut converged = false;
    let mut iterations = 0;

    while iterations < config.max_iters {
        iterations += 1;
        let (g, h, inv_sum) = derivatives(features, &phi, volume);
        let Some((d, mu)) = newton_step(&g, &h, active) else { break };
        // `∇ℓ·d = dᵀ(δI − H)d ≥ 0`: the step ascends unless it is zero.
        let decrement = dot(&g, &d);
        if !decrement.is_finite() {
            break;
        }
        if decrement <= config.tol * n {
            // Stationary with the active corners held: a KKT point unless
            // a corner's multiplier pulls inward, which releases it.
            match pulling_corner(active, &mu, MULTIPLIER_TOL * inv_sum) {
                None => {
                    converged = true;
                    break;
                }
                Some(k) => {
                    active &= !(1 << k);
                    continue;
                }
            }
        }
        // The longest step along d that keeps every other corner at ε. A
        // corner the active ones span moves with them: d leaves it only by
        // rounding, and it could not join them.
        let size = d.iter().map(|x| x.abs()).sum::<f64>();
        let (mut reach, mut blocker) = (1.0, None);
        for (k, corner) in CORNERS.iter().enumerate() {
            let rate = dot(corner, &d);
            if active & (1 << k) == 0
                && rate < -CORNER_RATE_TOL * size
                && independent(active | 1 << k)
            {
                let room = (dot(corner, &phi) - POSITIVITY_EPS).max(0.0) / -rate;
                if room < reach {
                    reach = room;
                    blocker = Some(k);
                }
            }
        }
        let alpha = line_search(features, &phi, &d, volume, reach, decrement);
        for (p, dk) in phi.iter_mut().zip(&d) {
            *p += alpha * dk;
        }
        if alpha == reach {
            if let Some(k) = blocker {
                active |= 1 << k;
            }
        }
        // Rounding may leave a corner a hair below ε; lift φ0 to it.
        let floor = phi[0] - phi[1].abs() - phi[2].abs() - phi[3].abs();
        if floor < POSITIVITY_EPS {
            phi[0] += POSITIVITY_EPS - floor;
        }
    }

    // In centred/scaled coordinates the window integral of the affine form
    // is simply `φ0 · V` (the odd terms integrate to zero).
    let log_likelihood = features.iter().map(|f| dot(f, &phi).ln()).sum::<f64>() - phi[0] * volume;
    FitResult {
        intensity: scale.to_physical(phi),
        log_likelihood,
        iterations,
        converged,
        on_boundary: active != 0,
    }
}

/// The gradient and Hessian of `ℓ` at φ, and `Σ 1/λ̃ᵢ`, the scale of the
/// gradient's terms.
fn derivatives(
    features: &[[f64; 4]],
    phi: &[f64; 4],
    volume: f64,
) -> ([f64; 4], [[f64; 4]; 4], f64) {
    let mut g = [-volume, 0.0, 0.0, 0.0];
    let mut h = [[0.0; 4]; 4];
    let mut inv_sum = 0.0;
    for f in features {
        let inv = 1.0 / dot(f, phi);
        debug_assert!(inv > 0.0, "infeasible phi reached the likelihood");
        inv_sum += inv;
        let w = inv * inv;
        for ((gr, row), &fr) in g.iter_mut().zip(&mut h).zip(f) {
            *gr += fr * inv;
            for (x, &fc) in row.iter_mut().zip(f) {
                *x -= w * (fr * fc);
            }
        }
    }
    (g, h, inv_sum)
}

/// The Newton step with the active corners held: the solution of
/// `[H − δI, Cᵀ; C, 0] [d; μ] = [−g; 0]`, C the active corners' rows, by
/// Gaussian elimination with partial pivoting. `μ[j]` is the multiplier of
/// the j-th active corner in index order; `None` when the system is
/// singular, which independent active corners and `δ > 0` rule out.
fn newton_step(g: &[f64; 4], h: &[[f64; 4]; 4], active: u8) -> Option<([f64; 4], [f64; 4])> {
    const RHS: usize = 8;
    if active.count_ones() > 4 {
        return None;
    }
    let mut a = [[0.0; RHS + 1]; 8];
    let ridge = -RIDGE * h[0][0];
    for r in 0..4 {
        a[r][..4].copy_from_slice(&h[r]);
        a[r][r] -= ridge;
        a[r][RHS] = -g[r];
    }
    let mut m = 4;
    for (k, corner) in CORNERS.iter().enumerate() {
        if active & (1 << k) != 0 {
            for (c, &x) in corner.iter().enumerate() {
                a[m][c] = x;
                a[c][m] = x;
            }
            m += 1;
        }
    }
    for col in 0..m {
        let pivot = (col..m).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col] == 0.0 {
            return None;
        }
        a.swap(col, pivot);
        let top = a[col];
        for row in &mut a[col + 1..m] {
            let factor = row[col] / top[col];
            if factor != 0.0 {
                for (x, t) in row[col..m].iter_mut().zip(&top[col..m]) {
                    *x -= factor * t;
                }
                row[RHS] -= factor * top[RHS];
            }
        }
    }
    let mut x = [0.0; 8];
    for r in (0..m).rev() {
        let tail: f64 = (r + 1..m).map(|c| a[r][c] * x[c]).sum();
        x[r] = (a[r][RHS] - tail) / a[r][r];
    }
    let mut mu = [0.0; 4];
    mu.copy_from_slice(&x[4..]);
    Some(([x[0], x[1], x[2], x[3]], mu))
}

/// `true` when the corners in `mask` are linearly independent. Four
/// corners on one face of the box are not: a face at ε puts all four
/// there, and only three of them can be active.
fn independent(mask: u8) -> bool {
    let mut rows = [[0.0; 4]; 8];
    let mut m = 0;
    for (k, corner) in CORNERS.iter().enumerate() {
        if mask & (1 << k) != 0 {
            rows[m] = *corner;
            m += 1;
        }
    }
    // Elimination on rows of ±1: every factor is a power of two, so a
    // dependent row reduces to exact zeros.
    let mut rank = 0;
    for col in 0..4 {
        let Some(p) = (rank..m).find(|&r| rows[r][col] != 0.0) else { continue };
        rows.swap(rank, p);
        let pivot = rows[rank];
        for row in &mut rows[rank + 1..m] {
            let factor = row[col] / pivot[col];
            for c in 0..4 {
                row[c] -= factor * pivot[c];
            }
        }
        rank += 1;
    }
    rank == m
}

/// The active corner to release: the lowest-indexed one whose multiplier
/// is below `-tol`, if any. Releasing by index (Bland's rule) keeps a
/// degenerate vertex, where a face's four corners sit at ε, from cycling.
fn pulling_corner(active: u8, mu: &[f64; 4], tol: f64) -> Option<usize> {
    let corners = (0..8).filter(|&k| active & (1 << k) != 0);
    corners.zip(mu).find(|&(_, &m)| m < -tol).map(|(k, _)| k)
}

/// The step along d from φ, in `(0, reach]`, that the fit takes, given
/// the slope `ψ'(0) = ∇ℓ·d > 0` of `ψ(a) = ℓ(φ + a·d)`. The step `reach`
/// (the full Newton step, or where a corner stops it) is taken when the
/// likelihood still rises there or has risen enough on the way; otherwise
/// the maximum of the concave `ψ` lies well inside, and a safeguarded
/// Newton iteration on `ψ'` closes in on it from a bracket, returning an
/// ascending point.
fn line_search(
    features: &[[f64; 4]],
    phi: &[f64; 4],
    d: &[f64; 4],
    volume: f64,
    reach: f64,
    slope0: f64,
) -> f64 {
    // `ψ'(a)` and `ψ''(a)`.
    let slope = |a: f64| {
        let (mut s1, mut s2) = (-volume * d[0], 0.0);
        for f in features {
            let rate = dot(f, d);
            let q = rate / (dot(f, phi) + a * rate);
            s1 += q;
            s2 -= q * q;
        }
        (s1, s2)
    };
    // `ψ(a) − ψ(0)`, accurate however short the step.
    let gain = |a: f64| {
        let logs: f64 = features.iter().map(|f| (a * dot(f, d) / dot(f, phi)).ln_1p()).sum();
        logs - a * volume * d[0]
    };
    let (mut s1, mut s2) = slope(reach);
    if s1 >= 0.0 || gain(reach) >= ARMIJO * reach * slope0 {
        return reach;
    }
    let (mut lo, mut hi, mut a) = (0.0, reach, reach);
    for _ in 0..LINE_ITERS {
        let newton = a - s1 / s2;
        a = if newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
        (s1, s2) = slope(a);
        if s1 >= 0.0 {
            lo = a;
            if s1 <= CURVATURE * slope0 {
                break;
            }
        } else {
            hi = a;
            if -s1 <= CURVATURE * slope0 && gain(a) >= ARMIJO * a * slope0 {
                return a;
            }
        }
    }
    lo
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

    /// The projected gradient ascent this solver replaced, kept as a
    /// reference: each step moves along `∇ℓ / n`, halving from 1 until the
    /// likelihood rises, projected onto the corners, until a step gains
    /// less than 1e-10 relative. Returns its final log-likelihood.
    fn projected_gradient_log_likelihood(points: &[SpaceTimePoint], w: &SpaceTimeWindow) -> f64 {
        let scale = WindowScale::of(w);
        let volume = w.volume();
        let features: Vec<[f64; 4]> = points.iter().map(|p| scale.features(p)).collect();
        let n = points.len() as f64;
        let log_lik = |phi: &[f64; 4]| {
            features.iter().map(|f| dot(f, phi).ln()).sum::<f64>() - phi[0] * volume
        };
        let mut phi = [n / volume, 0.0, 0.0, 0.0];
        project_positive(&mut phi, POSITIVITY_EPS);
        let mut ll = log_lik(&phi);
        for _ in 0..500 {
            let mut g = [-volume, 0.0, 0.0, 0.0];
            for f in &features {
                let inv = 1.0 / dot(f, &phi);
                for k in 0..4 {
                    g[k] += f[k] * inv;
                }
            }
            let mut step = 1.0;
            let mut advanced = None;
            for _ in 0..60 {
                let mut cand = [0, 1, 2, 3].map(|k| phi[k] + step * g[k] / n);
                project_positive(&mut cand, POSITIVITY_EPS);
                let floor = cand[0] - cand[1].abs() - cand[2].abs() - cand[3].abs();
                if floor >= POSITIVITY_EPS * 0.5 && log_lik(&cand) > ll {
                    advanced = Some(cand);
                    break;
                }
                step *= 0.5;
            }
            let Some(cand) = advanced else { break };
            let gained = log_lik(&cand) - ll;
            (phi, ll) = (cand, ll + gained);
            if gained < 1e-10 * (1.0 + ll.abs()) {
                break;
            }
        }
        ll
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

    /// Solves the `k × k` system `a x = b` by Gauss–Jordan elimination
    /// with partial pivoting.
    fn solve_small(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
        let k = b.len();
        for col in 0..k {
            let pivot = (col..k).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()));
            let pivot = pivot.unwrap();
            a.swap(col, pivot);
            b.swap(col, pivot);
            let (top, b_top) = (a[col].clone(), b[col]);
            for (r, (row, br)) in a.iter_mut().zip(&mut b).enumerate() {
                if r != col {
                    let factor = row[col] / top[col];
                    for (x, t) in row.iter_mut().zip(&top) {
                        *x -= factor * t;
                    }
                    *br -= factor * b_top;
                }
            }
        }
        (0..k).map(|r| b[r] / a[r][r]).collect()
    }

    /// Checks, from the fit's physical θ alone, that it is feasible at the
    /// eight corners, and returns how far it is from a KKT point: the
    /// largest violation of stationarity or of a multiplier's sign,
    /// relative to `Σ 1/λ̃ᵢ`.
    fn kkt_violation(points: &[SpaceTimePoint], w: &SpaceTimeWindow, fit: &FitResult) -> f64 {
        let s = WindowScale::of(w);
        let theta = fit.intensity.theta();
        let phi = [
            theta[0] + theta[1] * s.mid[0] + theta[2] * s.mid[1] + theta[3] * s.mid[2],
            theta[1] * s.half[0],
            theta[2] * s.half[1],
            theta[3] * s.half[2],
        ];
        for (k, corner) in CORNERS.iter().enumerate() {
            assert!(dot(corner, &phi) >= 0.5 * POSITIVITY_EPS, "corner {k} infeasible: {phi:?}");
        }
        let mut g = [-w.volume(), 0.0, 0.0, 0.0];
        let mut inv_sum = 0.0;
        for p in points {
            let f = s.features(p);
            let inv = 1.0 / dot(&f, &phi);
            inv_sum += inv;
            for k in 0..4 {
                g[k] += f[k] * inv;
            }
        }
        // The corners at the floor. A face at ε puts four dependent ones
        // there, so the certificate is the best over independent subsets:
        // multipliers that explain the gradient by them (`g + Cᵀμ = 0` in
        // least squares), none of them negative.
        let floor = (0..8)
            .filter(|&k| dot(&CORNERS[k], &phi) - POSITIVITY_EPS <= 1e-9 * phi[0])
            .fold(0u8, |m, k| m | 1 << k);
        let subsets = (0..=floor).filter(|&m| m & !floor == 0 && independent(m));
        let violation = |mask: u8| {
            let rows: Vec<[f64; 4]> =
                (0..8).filter(|&k| mask & (1 << k) != 0).map(|k| CORNERS[k]).collect();
            let gram = rows.iter().map(|a| rows.iter().map(|b| dot(a, b)).collect()).collect();
            let mu = solve_small(gram, rows.iter().map(|c| -dot(c, &g)).collect());
            let mut residual = g;
            for (c, m) in rows.iter().zip(&mu) {
                for k in 0..4 {
                    residual[k] += m * c[k];
                }
            }
            let stationarity = residual.iter().fold(0.0f64, |a, r| a.max(r.abs()));
            mu.iter().fold(stationarity, |a, &m| a.max(-m)) / inv_sum
        };
        subsets.map(violation).fold(f64::INFINITY, f64::min)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every fit carries a KKT certificate and beats the projected
        /// gradient ascent it replaced, on batches spread over the window
        /// or piled towards one corner (each unit coordinate raised to a
        /// power of two), at every point's own site or at 1–3 shared ones
        /// (a singular Hessian), over the whole window or its first 3 %.
        #[test]
        fn every_fit_is_a_kkt_point_that_beats_the_gradient_ascent(
            units in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 5..65),
            skew_log2 in 0i32..4,
            sites in 0usize..4,
            early in any::<bool>(),
            side in 0.1f64..10.0,
            minutes in 0.5f64..30.0,
        ) {
            let skew = 2f64.powi(skew_log2);
            let span = if early { 0.03 * minutes } else { minutes };
            let w = SpaceTimeWindow::new(Rect::with_size(side, side), 0.0, minutes);
            let pts: Vec<SpaceTimePoint> = units
                .iter()
                .enumerate()
                .map(|(i, &(t, x, y))| {
                    let (_, x, y) = if sites == 0 { (t, x, y) } else { units[i % sites] };
                    SpaceTimePoint::new(t * span, x.powf(skew) * side, y.powf(skew) * side)
                })
                .collect();
            let mut scratch = FitScratch::default();
            // A scratch that fitted another batch first must not matter.
            fit_mle_with(&pts[..pts.len() / 2], &w, FitConfig::default(), &mut scratch);
            let fit = fit_mle_with(&pts, &w, FitConfig::default(), &mut scratch);
            prop_assert_eq!(fit, fit_mle(&pts, &w, FitConfig::default()));
            prop_assert!(fit.converged, "{} iterations", fit.iterations);
            let n = pts.len() as f64;
            let mass = fit.intensity.integral(&w);
            prop_assert!((mass - n).abs() <= 1e-4 * n, "mass {} of {}", mass, n);
            let violation = kkt_violation(&pts, &w, &fit);
            prop_assert!(violation <= 1e-5, "KKT violation {}", violation);
            let old = projected_gradient_log_likelihood(&pts, &w);
            prop_assert!(
                fit.log_likelihood >= old - 1e-9 * (1.0 + old.abs()),
                "log-likelihood {} below the gradient ascent's {}",
                fit.log_likelihood,
                old
            );
        }
    }
}

//! The paper's estimator claims, asserted at the batch sizes the product
//! runs (E1, E3).
//!
//! The F operator (§IV-B.1) estimates Eq. (1)'s four parameters per batch
//! by maximum likelihood [12]. The product's batches are small: a
//! 48×48-grid run hands F a median of two points a batch. These claims
//! check where a four-parameter fit means something and where the
//! homogeneous estimate `n / V` does as well:
//!
//! - **E3** (§III-A, "we can estimate the rate … using maximum-likelihood
//!   estimation"), a claim about `fit_mle` alone: on E3's truth
//!   θ* = [2.0, 0.02, 0.4, −0.1], the batch MLE's relative surface RMSE
//!   against `n / V`'s, over seeded batches of exactly n points. `n / V`
//!   wins at n = 2, the two tie at n = 8, the MLE wins at n ≈ 2 000, and
//!   the crossover (from which the MLE beats `n / V` on most batches) is
//!   pinned.
//! - **E1** (§IV-B.1, "F converts P̃(λ̃, R*) into an approximately
//!   homogeneous P(λ̄, R*)"): F's output pooled over many batches of n
//!   points from the same truth, with `λ̃` the batch MLE on every batch or
//!   `n / V` on every batch. Homogeneity is measured as the pooled
//!   output's skew, `(χ² − df) / n` over a 4 × 4 × 2 lattice: the χ²
//!   statistic's excess over its Poisson expectation per point, which
//!   does not grow with the output's size. F exists to make its output
//!   homogeneous, so E1 sets F's threshold `FlattenOp::MIN_FIT_POINTS`:
//!   the smallest tested n at which the MLE at least halves `n / V`'s
//!   pooled skew.
//!
//! Every draw is seeded, so each assertion is a fixed computation; the
//! tolerances are stated beside them. Batches of n points are drawn from
//! the truth conditioned on n points (rejection from the window's
//! envelope), over a window whose expected count under the truth is n.

use craqr::core::ops::{FlattenConfig, FlattenOp};
use craqr::core::tuple::CrowdTuple;
use craqr::geom::{Rect, SpaceTimePoint, SpaceTimeWindow};
use craqr::mdpp::diagnostics::{homogeneity_report, HomogeneityReport};
use craqr::mdpp::fit::{fit_mle, FitConfig};
use craqr::mdpp::intensity::{IntensityModel, LinearIntensity};
use craqr::sensing::{AttrValue, AttributeId, SensorId};
use craqr::stats::seeded_rng;
use rand::rngs::StdRng;
use rand::Rng;

/// E3's ground truth: a rate of 1.0–5.7 /km²·min over the region.
const THETA_STAR: [f64; 4] = [2.0, 0.02, 0.4, -0.1];

/// The batch sizes under test: the product's regime, then E3's large-n
/// reference.
const SMALL_N: [usize; 6] = [2, 4, 8, 12, 16, 32];
const LARGE_N: usize = 2_000;

/// The tested batch size at which the MLE and `n / V` tie in E3: each wins
/// about half the batches, while `n / V` is ahead on the mean.
const TIE: usize = 8;

/// The smallest tested batch size from which the MLE beats `n / V` on
/// most batches, with its mean RMSE within 3 % of `n / V`'s, at every
/// larger tested size too (E3).
const CROSSOVER: usize = 12;

fn truth() -> LinearIntensity {
    LinearIntensity::new(THETA_STAR)
}

fn region() -> Rect {
    Rect::with_size(10.0, 10.0)
}

/// The duration from which a window over the region expects `n` points
/// under `truth` (bisection; the integral grows with the duration).
fn duration_for(truth: &LinearIntensity, n: usize) -> f64 {
    let expected = |d: f64| truth.integral(&SpaceTimeWindow::new(region(), 0.0, d));
    let (mut lo, mut hi) = (0.0, 1.0);
    while expected(hi) < n as f64 {
        hi *= 2.0;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if expected(mid) < n as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Exactly `n` points of `truth` in `w`: the Poisson process conditioned
/// on its count, by rejection from the window's envelope.
fn sample_exact(
    truth: &LinearIntensity,
    w: &SpaceTimeWindow,
    n: usize,
    rng: &mut StdRng,
) -> Vec<SpaceTimePoint> {
    let max = truth.max_rate(w);
    let mut points = Vec::with_capacity(n);
    while points.len() < n {
        let p = SpaceTimePoint::new(
            w.t0 + rng.gen::<f64>() * w.duration(),
            w.rect.x0 + rng.gen::<f64>() * w.rect.width(),
            w.rect.y0 + rng.gen::<f64>() * w.rect.height(),
        );
        if rng.gen::<f64>() * max < truth.rate_at(&p) {
            points.push(p);
        }
    }
    points
}

/// The RMSE of `estimate` against `truth` on a 5 × 5 × 5 probe lattice
/// over `w`, relative to the truth's mean there (E3's measure).
fn surface_rel_rmse(
    estimate: impl Fn(&SpaceTimePoint) -> f64,
    truth: &LinearIntensity,
    w: &SpaceTimeWindow,
) -> f64 {
    let (mut se, mut mean, mut k) = (0.0, 0.0, 0.0);
    let at = |lo: f64, span: f64, i: usize| lo + span * (i as f64 + 0.5) / 5.0;
    for it in 0..5 {
        for ix in 0..5 {
            for iy in 0..5 {
                let p = SpaceTimePoint::new(
                    at(w.t0, w.duration(), it),
                    at(w.rect.x0, w.rect.width(), ix),
                    at(w.rect.y0, w.rect.height(), iy),
                );
                let d = estimate(&p) - truth.rate_at(&p);
                se += d * d;
                mean += truth.rate_at(&p);
                k += 1.0;
            }
        }
    }
    (se / k).sqrt() / (mean / k)
}

/// E3 at one batch size: `(MLE mean RMSE, n / V mean RMSE, share of
/// batches on which the MLE's RMSE is the lower)`.
fn e3_at(n: usize, batches: u64) -> (f64, f64, f64) {
    let truth = truth();
    let w = SpaceTimeWindow::new(region(), 0.0, duration_for(&truth, n));
    let homogeneous = n as f64 / w.volume();
    let (mut mle, mut flat, mut wins) = (0.0, 0.0, 0u64);
    for seed in 0..batches {
        let points = sample_exact(&truth, &w, n, &mut seeded_rng(0xE3_0000 + seed));
        let fit = fit_mle(&points, &w, FitConfig::default()).intensity;
        let m = surface_rel_rmse(|p| fit.rate_at(p), &truth, &w);
        let h = surface_rel_rmse(|_| homogeneous, &truth, &w);
        mle += m;
        flat += h;
        wins += u64::from(m < h);
    }
    let b = batches as f64;
    (mle / b, flat / b, wins as f64 / b)
}

/// E3: `n / V` recovers Eq. (1)'s surface better than the batch MLE on
/// two points, the two tie at 8, the MLE is better on 2 000, and the
/// crossover is pinned.
///
/// 400 batches at each small n (the share of MLE wins has a standard
/// error of 2.5 points there), 50 at n ≈ 2 000. The crossover is read
/// from the share of batches won together with the mean: at n = 8 the MLE
/// wins half the batches, but its misses are the larger, so `n / V` is
/// ahead on the mean by more than 5 %.
#[test]
fn e3_the_mle_identifies_eq1_only_from_the_crossover() {
    let mut rows = Vec::new();
    for n in SMALL_N {
        let (mle, flat, share) = e3_at(n, 400);
        eprintln!("E3 n={n}: MLE {mle:.4}  n/V {flat:.4}  MLE wins {:.1} %", 100.0 * share);
        if n == TIE {
            assert!((share - 0.5).abs() <= 0.05, "n = {n}: the MLE won {share} of batches");
            assert!(flat < 0.95 * mle, "n = {n}: n/V {flat} vs MLE {mle}, want a 5 % margin");
        } else if n < CROSSOVER {
            assert!(share < 0.5, "n = {n}: the MLE won {share} of batches");
            assert!(flat < 0.95 * mle, "n = {n}: n/V {flat} vs MLE {mle}, want a 5 % margin");
        }
        if n >= 16 {
            assert!(mle < flat, "n = {n}: MLE {mle} must beat n/V {flat} on the mean too");
        }
        rows.push((n, share > 0.5 && mle < 1.03 * flat));
    }
    // The smallest n from which every tested n has the MLE ahead.
    let crossover = (0..rows.len()).find(|&i| rows[i..].iter().all(|r| r.1)).map(|i| rows[i].0);
    assert_eq!(crossover, Some(CROSSOVER));

    let (mle, flat, share) = e3_at(LARGE_N, 50);
    eprintln!("E3 n={LARGE_N}: MLE {mle:.4}  n/V {flat:.4}  MLE wins {:.1} %", 100.0 * share);
    assert_eq!(share, 1.0, "the MLE must win every batch at n = {LARGE_N}");
    assert!(mle < 0.25 * flat, "n = {LARGE_N}: MLE {mle} vs n/V {flat}, want 4× lower");
}

/// F's target rate in E1: below the truth's minimum (1.0), so a correct
/// estimate never needs a retaining probability above 1.
const LAMBDA_BAR: f64 = 0.8;

/// Input points pooled per batch size in E1.
const E1_INPUT: usize = 24_000;

/// Eq. (3) on one batch in `w`, with `λ̃` the batch MLE (`fit`) or the
/// homogeneous `n / V`; kept points go to `out` in batch-local time
/// scaled to `[0, 1)`. The product's F computes the same retaining
/// probabilities (pinned bit for bit by its unit tests) on each side of
/// `MIN_FIT_POINTS`; this reference runs either estimate at every n.
fn flatten_reference(
    points: &[SpaceTimePoint],
    w: &SpaceTimeWindow,
    fit: bool,
    rng: &mut StdRng,
    out: &mut Vec<SpaceTimePoint>,
) {
    let local_window = SpaceTimeWindow::new(w.rect, 0.0, w.duration());
    let batch: Vec<SpaceTimePoint> =
        points.iter().map(|p| SpaceTimePoint::new(p.t - w.t0, p.x, p.y)).collect();
    let model = fit.then(|| fit_mle(&batch, &local_window, FitConfig::default()).intensity);
    let homogeneous = batch.len() as f64 / w.volume();
    let rates: Vec<f64> = batch
        .iter()
        .map(|p| model.as_ref().map_or(homogeneous, |m| m.rate_at(p).max(1e-9)))
        .collect();
    let lambda_c: f64 = rates.iter().map(|r| 1.0 / r).sum();
    let target_count = LAMBDA_BAR * w.volume();
    for (p, rate) in batch.iter().zip(&rates) {
        let keep = (target_count / (rate * lambda_c)).min(1.0);
        if rng.gen::<f64>() < keep {
            out.push(SpaceTimePoint::new(p.t / w.duration(), p.x, p.y));
        }
    }
}

/// One E1 run at batch size `n`: the input, and F's output under `n / V`
/// on every batch and under the MLE on every batch, each pooled in
/// batch-local time.
struct Pooled {
    input: Vec<SpaceTimePoint>,
    flat: Vec<SpaceTimePoint>,
    mle: Vec<SpaceTimePoint>,
    /// `λ̄ ×` the pooled batches' volume: the count F is asked for.
    target: f64,
}

fn e1_at(n: usize) -> Pooled {
    let truth = truth();
    let d = duration_for(&truth, n);
    let mut pooled = Pooled { input: vec![], flat: vec![], mle: vec![], target: 0.0 };
    let mut points_rng = seeded_rng(0xE1);
    let (mut flat_rng, mut mle_rng) = (seeded_rng(0xF1), seeded_rng(0xF1));
    for b in 0..E1_INPUT / n {
        let w = SpaceTimeWindow::new(region(), b as f64 * d, (b + 1) as f64 * d);
        let points = sample_exact(&truth, &w, n, &mut points_rng);
        let scaled = points.iter().map(|p| SpaceTimePoint::new((p.t - w.t0) / d, p.x, p.y));
        pooled.input.extend(scaled);
        flatten_reference(&points, &w, false, &mut flat_rng, &mut pooled.flat);
        flatten_reference(&points, &w, true, &mut mle_rng, &mut pooled.mle);
        pooled.target += LAMBDA_BAR * w.volume();
    }
    pooled
}

fn homogeneity(points: &[SpaceTimePoint]) -> HomogeneityReport {
    homogeneity_report(points, &SpaceTimeWindow::new(region(), 0.0, 1.0), 4, 2)
}

/// The pooled skew `(χ² − df) / n`: zero for a homogeneous output.
fn skew(r: &HomogeneityReport) -> f64 {
    (r.chi_square.statistic - r.chi_square.df).max(0.0) / r.n as f64
}

/// E1 at the product's batch sizes sets F's threshold: `MIN_FIT_POINTS`
/// is the smallest tested n at which `n / V` on every batch pools to more
/// than twice the skew of the MLE on every batch. Tolerances: each pooled
/// output's count within 4 % of `λ̄ × V` (about 3 binomial standard
/// deviations of ≈ 5 500 kept points); `n / V` keeps the input's skew (it
/// thins uniformly) to within 15 %; at n = 2 the MLE's skew is within
/// 15 % of `n / V`'s, so a fit on two points buys no homogeneity.
#[test]
fn e1_sets_the_fit_threshold_where_the_mle_halves_the_pooled_skew() {
    let mut threshold = None;
    for n in SMALL_N {
        let pooled = e1_at(n);
        let (input, flat, mle) =
            (homogeneity(&pooled.input), homogeneity(&pooled.flat), homogeneity(&pooled.mle));
        eprintln!(
            "E1 n={n}: skew input {:.4}  n/V {:.4}  MLE {:.4} ({:.2}×)  kept n/V {} MLE {} of {:.0}",
            skew(&input),
            skew(&flat),
            skew(&mle),
            skew(&flat) / skew(&mle),
            flat.n,
            mle.n,
            pooled.target
        );
        for (name, out) in [("n/V", &flat), ("MLE", &mle)] {
            let rel = (out.n as f64 - pooled.target).abs() / pooled.target;
            assert!(rel < 0.04, "n = {n}: {name} kept {} of {:.0}", out.n, pooled.target);
        }
        assert!(skew(&flat) < 1.15 * skew(&input), "n = {n}: n/V added skew");
        if n == 2 {
            assert!(
                skew(&flat) < 1.15 * skew(&mle),
                "n/V skew {} vs MLE {}",
                skew(&flat),
                skew(&mle)
            );
        }
        if threshold.is_none() && skew(&flat) > 2.0 * skew(&mle) {
            threshold = Some(n);
        }
    }
    assert_eq!(threshold, Some(FlattenOp::MIN_FIT_POINTS), "F's threshold is E1's");
}

fn tuples(points: &[SpaceTimePoint]) -> Vec<CrowdTuple> {
    let tuple = |(i, p): (usize, &SpaceTimePoint)| CrowdTuple {
        id: i as u64,
        attr: AttributeId(0),
        point: *p,
        value: AttrValue::Bool(true),
        sensor: SensorId(0),
    };
    points.iter().enumerate().map(tuple).collect()
}

/// E1 at n ≈ 2 000, through the product's F: the pooled output over 12
/// batches passes χ² homogeneity at α = 0.001 and its rate is within 3 %
/// of λ̄ (about 2 binomial standard deviations of ≈ 5 500 kept points).
#[test]
fn e1_the_product_f_homogenizes_large_batches() {
    let truth = truth();
    let d = duration_for(&truth, LARGE_N);
    let (mut f, _report) = FlattenOp::new(FlattenConfig {
        cell: region(),
        batch_duration: d,
        target_rate: LAMBDA_BAR,
        seed: 0xE1,
    });
    let mut rng = seeded_rng(0xE1);
    let (mut pooled, mut out) = (Vec::new(), Vec::new());
    let batches = E1_INPUT / LARGE_N;
    for b in 0..batches {
        let w = SpaceTimeWindow::new(region(), b as f64 * d, (b + 1) as f64 * d);
        out.clear();
        f.process(&tuples(&sample_exact(&truth, &w, LARGE_N, &mut rng)), &mut out);
        let scaled = out.iter().map(|t| (t.point.t - w.t0) / d);
        pooled.extend(
            out.iter().zip(scaled).map(|(t, s)| SpaceTimePoint::new(s, t.point.x, t.point.y)),
        );
    }
    let report = homogeneity(&pooled);
    let rate = pooled.len() as f64 / (region().area() * d * batches as f64);
    eprintln!("E1 n={LARGE_N}: χ² p {:.3}  rate {rate:.4}", report.chi_square.p_value);
    assert!(report.chi_square.p_value >= 0.001, "χ² p = {}", report.chi_square.p_value);
    assert!((rate - LAMBDA_BAR).abs() < 0.03 * LAMBDA_BAR, "rate {rate} vs λ̄ {LAMBDA_BAR}");
}

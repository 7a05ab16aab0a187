//! The `F` (flatten) operator — Section IV-B.1.

use crate::ops::report::{FitOutcome, FlattenReport};
use crate::tuple::CrowdTuple;
use craqr_geom::{Grid, Rect, SpaceTimePoint, SpaceTimeWindow};
use craqr_mdpp::fit::{fit_mle_with, FitConfig, FitScratch, SgdConfig, SgdEstimator};
use craqr_mdpp::intensity::{IntensityModel, LinearIntensity, PiecewiseConstantIntensity};
use craqr_stats::sub_rng;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// How the flatten operator estimates the conditional intensity `λ̃(·; θ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorMode {
    /// Fit θ by maximum likelihood (ref. \[12\]), the paper's default batch
    /// behaviour, on every batch of at least [`FlattenOp::MIN_FIT_POINTS`]
    /// tuples. On a smaller batch the fit recovers the intensity surface
    /// worse than `n / V` (E3: the MLE wins 32 % of 2-point batches, 39 %
    /// at 4) and removes less than half of `n / V`'s skew from F's pooled
    /// output (E1), so it uses the homogeneous MLE `n / V`, and each tuple
    /// is kept with probability `λ̄ V / n` (clamped at 1).
    BatchMle,
    /// Maintain θ across batches with online stochastic gradient descent
    /// (ref. \[13\]); the paper's sliding-window variant.
    Sgd(SgdConfig),
    /// Nonparametric per-batch estimate: bin the cell into `bins × bins`
    /// sub-cells and use the empirical rate of each bin as `λ̃` — the
    /// classic histogram intensity estimator. Makes no linearity
    /// assumption, so it also flattens multi-modal (hotspot) skew that
    /// Eq. (1) cannot represent; the price is coarse resolution on sparse
    /// batches.
    Histogram {
        /// Sub-cells per side (≥ 1).
        bins: u32,
    },
}

/// The per-batch fitted intensity, whichever family produced it.
enum FittedModel {
    Linear(LinearIntensity),
    Piecewise(PiecewiseConstantIntensity),
}

impl FittedModel {
    fn rate_at(&self, p: &SpaceTimePoint) -> f64 {
        match self {
            FittedModel::Linear(m) => m.rate_at(p),
            FittedModel::Piecewise(m) => m.rate_at(p),
        }
    }
}

/// Configuration of a [`FlattenOp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlattenConfig {
    /// The operator's spatial extent `R*` (a grid cell in CrAQR).
    pub cell: Rect,
    /// Duration of one batch (minutes). Batches are aligned to multiples of
    /// this duration on the stream clock.
    pub batch_duration: f64,
    /// The desired homogeneous output rate `λ̄` (tuples / km² / min).
    pub target_rate: f64,
    /// Intensity estimation mode.
    pub mode: EstimatorMode,
    /// RNG seed for the Bernoulli retention draws.
    pub seed: u64,
}

/// The flatten operator `F`: converts an inhomogeneous MDPP `P̃⟨j⟩(λ̃, R*)`
/// into an approximately homogeneous `P⟨j⟩(λ̄, R*)`.
///
/// Per batch of `n` tuples it:
///
/// 1. estimates θ of Eq. (1) (batch MLE or online SGD). The batch MLE
///    fits only a batch of at least [`FlattenOp::MIN_FIT_POINTS`] (8)
///    tuples and estimates a smaller one as the homogeneous `n / V`, so
///    that step 2 keeps every tuple with probability `λ̄ V / n`. The
///    threshold is where E1 (`tests/paper_claims.rs`) finds the MLE at
///    least halving the pooled skew of F's output against `n / V`: 1.06×
///    at 2, 1.35× at 4, 2.6× at 8. E3 finds the two estimates tied at 8
///    on the intensity surface: the MLE has the lower relative RMSE on
///    32 % of 2-point batches, 39 % at 4, 50 % at 8, 57 % at 12, 69 % at
///    16 and 88 % at 32 (400 batches each), with mean RMSE 0.52, 0.46,
///    0.38, 0.33, 0.29 and 0.22 against `n / V`'s 0.33,
/// 2. computes each tuple's *retaining probability* — Eq. (3):
///    `pᵢ = λ̄ / (λ̃(pᵢ; θ) · λ_c)` with `λ_c = Σᵢ λ̃(pᵢ; θ)⁻¹`,
///    where `λ̄` is expressed as the target *count* for the batch
///    (`target_rate × batch volume`), so that `Σᵢ pᵢ = λ̄` exactly when no
///    violation occurs,
/// 3. labels tuples with `pᵢ > 1` as *rate violations*, clamps them to 1,
///    and reports the percent rate violation `N_v` on its
///    [`FlattenReport`],
/// 4. forwards each tuple iff an independent Bernoulli(`pᵢ`) draw succeeds.
///
/// Retention is inversely proportional to the local intensity — "more
/// tuples are retained in areas of low rate and less tuples are retained in
/// areas of high rate" — which is what homogenizes the output.
pub struct FlattenOp {
    cell: Rect,
    batch_duration: f64,
    target_rate: f64,
    mode: EstimatorMode,
    sgd: Option<SgdEstimator>,
    rng: StdRng,
    report: Arc<FlattenReport>,
    /// Per-batch scratch, kept across batches so that once warm the batch
    /// MLE path allocates nothing: the batch in batch-local time, each
    /// tuple's fitted intensity, and the MLE's buffers. A batch below
    /// [`Self::MIN_FIT_POINTS`] touches none of them.
    points: Vec<SpaceTimePoint>,
    rates: Vec<f64>,
    fit_scratch: FitScratch,
}

impl FlattenOp {
    /// The smallest batch the batch MLE fits Eq. (1) to; a smaller one is
    /// estimated as the homogeneous `n / V`. E1 sets it: the smallest
    /// tested batch size at which the MLE pools to less than half of
    /// `n / V`'s skew (see the type's doc).
    pub const MIN_FIT_POINTS: usize = 8;

    /// Creates a flatten operator and its telemetry handle.
    ///
    /// # Panics
    /// Panics on non-positive `target_rate` or `batch_duration`.
    #[track_caller]
    pub fn new(config: FlattenConfig) -> (Self, Arc<FlattenReport>) {
        assert!(config.target_rate > 0.0, "target rate must be > 0");
        assert!(config.batch_duration > 0.0, "batch duration must be > 0");
        let report = FlattenReport::new(0.3);
        let sgd = match config.mode {
            EstimatorMode::BatchMle => None,
            EstimatorMode::Histogram { bins } => {
                assert!(bins > 0, "histogram estimator needs at least one bin");
                None
            }
            EstimatorMode::Sgd(cfg) => {
                let reference = SpaceTimeWindow::new(config.cell, 0.0, config.batch_duration);
                Some(SgdEstimator::new(&reference, cfg))
            }
        };
        (
            Self {
                cell: config.cell,
                batch_duration: config.batch_duration,
                target_rate: config.target_rate,
                mode: config.mode,
                sgd,
                rng: sub_rng(config.seed, 0xF1A7),
                report: Arc::clone(&report),
                points: Vec::new(),
                rates: Vec::new(),
                fit_scratch: FitScratch::default(),
            },
            report,
        )
    }

    /// The current target rate λ̄.
    #[inline]
    pub fn target_rate(&self) -> f64 {
        self.target_rate
    }

    /// Retargets the operator — used by the planner when a new query raises
    /// the cell's maximum requested rate ("if needed, the output rate of
    /// the F-operator is changed", Section V).
    ///
    /// # Panics
    /// Panics on a non-positive rate.
    #[track_caller]
    pub fn set_target_rate(&mut self, rate: f64) {
        assert!(rate > 0.0, "target rate must be > 0");
        self.target_rate = rate;
    }

    /// The operator's spatial extent `R*`.
    #[inline]
    pub fn cell(&self) -> Rect {
        self.cell
    }

    /// The batch window implied by a batch's earliest timestamp: aligned to
    /// multiples of `batch_duration`, widened if the batch spills over.
    fn batch_window(&self, batch: &[CrowdTuple]) -> SpaceTimeWindow {
        let min_t = batch.iter().map(|t| t.point.t).fold(f64::INFINITY, f64::min);
        let max_t = batch.iter().map(|t| t.point.t).fold(f64::NEG_INFINITY, f64::max);
        let t0 = (min_t / self.batch_duration).floor() * self.batch_duration;
        let mut t1 = t0 + self.batch_duration;
        if max_t >= t1 {
            t1 = max_t + 1e-9;
        }
        SpaceTimeWindow::new(self.cell, t0, t1)
    }

    /// Estimates the intensity for this batch according to the mode,
    /// leaving the batch in batch-local time in `self.points`, and says
    /// how the batch MLE's fit ended (`None` in the other modes).
    ///
    /// Estimation happens in *batch-local time* (`t − window.t0`): the SGD
    /// estimator is anchored to a reference window starting at 0, and
    /// shifting keeps its scaled time feature in `[−1, 1]` no matter how
    /// long the stream has been running. The returned model must therefore
    /// be evaluated at batch-local coordinates too.
    fn estimate(
        &mut self,
        batch: &[CrowdTuple],
        window: &SpaceTimeWindow,
    ) -> (FittedModel, Option<FitOutcome>) {
        let local_window = SpaceTimeWindow::new(self.cell, 0.0, window.duration());
        self.points.clear();
        self.points.extend(batch.iter().map(|t| {
            let mut p = t.point;
            p.t -= window.t0;
            p
        }));
        let points = &self.points;
        match (&self.mode, self.sgd.as_mut()) {
            (EstimatorMode::BatchMle, _) => {
                let fit = fit_mle_with(
                    points,
                    &local_window,
                    FitConfig::default(),
                    &mut self.fit_scratch,
                );
                let outcome = FitOutcome::Fitted {
                    points: points.len(),
                    iterations: fit.iterations,
                    converged: fit.converged,
                    on_boundary: fit.on_boundary,
                };
                (FittedModel::Linear(fit.intensity), Some(outcome))
            }
            (EstimatorMode::Histogram { bins }, _) => {
                (FittedModel::Piecewise(histogram_intensity(points, &local_window, *bins)), None)
            }
            (EstimatorMode::Sgd(_), Some(sgd)) => {
                sgd.observe_batch(points, &local_window);
                (FittedModel::Linear(sgd.estimate()), None)
            }
            (EstimatorMode::Sgd(_), None) => unreachable!("sgd mode always has an estimator"),
        }
    }

    /// Flattens one batch, appending the retained tuples to `out` in input
    /// order, and reports the batch's `N_v`.
    pub fn process(&mut self, batch: &[CrowdTuple], out: &mut Vec<CrowdTuple>) {
        if batch.is_empty() {
            // An empty batch with a positive target is a total violation:
            // there is nothing to fabricate the requested rate from.
            self.report.record_batch(100.0, 0, 0, None);
            return;
        }
        let window = self.batch_window(batch);
        let target_count = self.target_rate * window.volume();

        let ((violations, kept), fit) =
            if matches!(self.mode, EstimatorMode::BatchMle) && batch.len() < Self::MIN_FIT_POINTS {
                // `λ̃ = n / V` at every tuple, so `λ_c = V` and Eq. (3) is
                // `λ̄ V / n` for each: no batch-local copy, rates or fit.
                let p = target_count / batch.len() as f64;
                (
                    retain(batch.iter().map(|t| (t, p)), &mut self.rng, out),
                    Some(FitOutcome::Homogeneous),
                )
            } else {
                let (model, fit) = self.estimate(batch, &window);
                // Eq. (3), evaluated in batch-local time to match the estimate.
                // Intensities are floored to avoid division blow-ups where the
                // fitted plane grazes zero inside the window.
                self.rates.clear();
                self.rates.extend(self.points.iter().map(|p| model.rate_at(p).max(1e-9)));
                let lambda_c: f64 = self.rates.iter().map(|r| 1.0 / r).sum();
                let p = self.rates.iter().map(|&rate| target_count / (rate * lambda_c));
                (retain(batch.iter().zip(p), &mut self.rng, out), fit)
            };
        let nv = 100.0 * violations as f64 / batch.len() as f64;
        self.report.record_batch(nv, batch.len(), kept, fit);
    }
}

/// Forwards each tuple iff a Bernoulli(`p`) draw succeeds, one draw per
/// tuple, `p` clamped at 1; returns `(violations, kept)`, a violation
/// being a `p` above 1.
fn retain<'a>(
    tuples: impl Iterator<Item = (&'a CrowdTuple, f64)>,
    rng: &mut StdRng,
    out: &mut Vec<CrowdTuple>,
) -> (usize, usize) {
    let (mut violations, mut kept) = (0, 0);
    for (tuple, mut p) in tuples {
        if p > 1.0 {
            violations += 1;
            p = 1.0;
        }
        if rng.gen::<f64>() < p {
            kept += 1;
            out.push(*tuple);
        }
    }
    (violations, kept)
}

/// The histogram intensity estimate: empirical rate per `bins × bins`
/// sub-cell, with add-half smoothing so empty bins keep a small positive
/// rate (a zero-rate bin would make Eq. (3)'s retaining probability blow
/// up for any stray point that lands there next).
fn histogram_intensity(
    points: &[SpaceTimePoint],
    window: &SpaceTimeWindow,
    bins: u32,
) -> PiecewiseConstantIntensity {
    let grid = Grid::new(window.rect, bins);
    let mut counts = vec![0.5f64; (bins * bins) as usize];
    for p in points {
        if let Some(cell) = grid.cell_of(p.x, p.y) {
            counts[(cell.r * bins + cell.q) as usize] += 1.0;
        }
    }
    let bin_volume = grid.cell_area() * window.duration();
    let rates: Vec<f64> = counts.into_iter().map(|c| c / bin_volume).collect();
    PiecewiseConstantIntensity::new(grid, rates)
}

// The stochastic assertions below (χ² homogeneity at α = 0.001, CV-ratio
// margins) are tuned to the workspace's vendored xoshiro-backed `rand`
// stand-in. Swapping in crates.io `rand` (ChaCha `StdRng`) changes every
// sample stream; a spurious margin failure after that swap means re-picking
// the sampler seeds here, not an estimator regression.
#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::SpaceTimePoint;
    use craqr_mdpp::diagnostics::homogeneity_report;
    use craqr_mdpp::process::{HomogeneousMdpp, InhomogeneousMdpp};
    use craqr_sensing::{AttrValue, AttributeId, SensorId};
    use craqr_stats::seeded_rng;

    fn cell() -> Rect {
        Rect::with_size(10.0, 10.0)
    }

    fn tuples_from_points(points: &[SpaceTimePoint]) -> Vec<CrowdTuple> {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| CrowdTuple {
                id: i as u64,
                attr: AttributeId(0),
                point: *p,
                value: AttrValue::Bool(true),
                sensor: SensorId(0),
            })
            .collect()
    }

    fn config(target_rate: f64) -> FlattenConfig {
        FlattenConfig {
            cell: cell(),
            batch_duration: 10.0,
            target_rate,
            mode: EstimatorMode::BatchMle,
            seed: 99,
        }
    }

    fn run_batch(op: &mut FlattenOp, batch: &[CrowdTuple]) -> Vec<CrowdTuple> {
        let mut out = Vec::new();
        op.process(batch, &mut out);
        out
    }

    #[test]
    fn uniform_input_keeps_expected_fraction() {
        // Homogeneous input at rate 2.0, target 0.5: keep ~25%.
        let (mut op, report) = FlattenOp::new(config(0.5));
        let w = SpaceTimeWindow::new(cell(), 0.0, 10.0);
        let pts = HomogeneousMdpp::new(2.0, cell()).sample(&w, &mut seeded_rng(1));
        let batch = tuples_from_points(&pts);
        let out = run_batch(&mut op, &batch);
        let target = 0.5 * w.volume();
        let got = out.len() as f64;
        assert!((got - target).abs() < 0.15 * target, "kept {got}, want ~{target}");
        assert!(report.last_nv() < 5.0, "N_v {}", report.last_nv());
    }

    #[test]
    fn flatten_homogenizes_skewed_input() {
        let (mut op, _report) = FlattenOp::new(config(0.6));
        let w = SpaceTimeWindow::new(cell(), 0.0, 10.0);
        // Strong x-gradient input.
        let truth = LinearIntensity::new([0.3, 0.0, 0.7, 0.0]);
        let pts = InhomogeneousMdpp::new(truth, cell()).sample(&w, &mut seeded_rng(23));
        let input = tuples_from_points(&pts);
        let in_report = homogeneity_report(&pts, &w, 4, 2);
        assert!(!in_report.is_homogeneous(0.001), "input must be skewed");

        let out = run_batch(&mut op, &input);
        let out_points: Vec<_> = out.iter().map(|t| t.point).collect();
        let out_report = homogeneity_report(&out_points, &w, 4, 2);
        assert!(
            out_report.is_homogeneous(0.001),
            "output should be approximately homogeneous: chi p={} dispersion={}",
            out_report.chi_square.p_value,
            out_report.dispersion.index,
        );
        // CV drops substantially.
        assert!(out_report.count_cv < in_report.count_cv * 0.7);
    }

    #[test]
    fn starved_batch_reports_violations() {
        // Target 1.0/km²·min over 10 min × 100 km² = 1000 tuples wanted;
        // provide only a trickle.
        let (mut op, report) = FlattenOp::new(config(1.0));
        let w = SpaceTimeWindow::new(cell(), 0.0, 10.0);
        let pts = HomogeneousMdpp::new(0.05, cell()).sample(&w, &mut seeded_rng(3));
        let batch = tuples_from_points(&pts);
        let out = run_batch(&mut op, &batch);
        // Everything is kept (p clamps to 1), and N_v is near total.
        assert_eq!(out.len(), batch.len());
        assert!(report.last_nv() > 90.0, "N_v {}", report.last_nv());
    }

    #[test]
    fn empty_batch_is_total_violation() {
        let (mut op, report) = FlattenOp::new(config(1.0));
        let out = run_batch(&mut op, &[]);
        assert!(out.is_empty());
        assert_eq!(report.last_nv(), 100.0);
        assert_eq!(report.batches(), 1);
    }

    #[test]
    fn retarget_changes_kept_volume() {
        let w = SpaceTimeWindow::new(cell(), 0.0, 10.0);
        let pts = HomogeneousMdpp::new(2.0, cell()).sample(&w, &mut seeded_rng(4));
        let batch = tuples_from_points(&pts);

        let (mut op, _) = FlattenOp::new(config(0.2));
        let low = run_batch(&mut op, &batch).len();
        op.set_target_rate(1.0);
        assert_eq!(op.target_rate(), 1.0);
        let high = run_batch(&mut op, &batch).len();
        assert!(high > low * 3, "low {low} high {high}");
    }

    /// Eq. (3) as the batch MLE ran it on every batch: fit, then keep
    /// each tuple iff a draw of `rng` falls below its clamped `pᵢ`.
    fn fitted_reference(op: &FlattenOp, batch: &[CrowdTuple], rng: &mut StdRng) -> Vec<u64> {
        let w = op.batch_window(batch);
        let local: Vec<_> = batch
            .iter()
            .map(|t| SpaceTimePoint::new(t.point.t - w.t0, t.point.x, t.point.y))
            .collect();
        let local_window = SpaceTimeWindow::new(w.rect, 0.0, w.duration());
        let model =
            fit_mle_with(&local, &local_window, FitConfig::default(), &mut FitScratch::default())
                .intensity;
        let rates: Vec<f64> = local.iter().map(|p| model.rate_at(p).max(1e-9)).collect();
        let lambda_c: f64 = rates.iter().map(|r| 1.0 / r).sum();
        let target_count = op.target_rate() * w.volume();
        let kept = batch
            .iter()
            .zip(&rates)
            .filter(|(_, &rate)| rng.gen::<f64>() < (target_count / (rate * lambda_c)).min(1.0));
        kept.map(|(t, _)| t.id).collect()
    }

    /// Below `MIN_FIT_POINTS` each tuple is kept with probability
    /// `λ̄ V / n`, one draw each; from it on the fit runs as before, bit
    /// for bit. Each batch's outcome is counted.
    #[test]
    fn the_batch_mle_fits_only_from_min_fit_points() {
        // λ̄ V = 0.002 × 100 km² × 10 min = 2 tuples a batch.
        let (mut op, report) = FlattenOp::new(config(0.002));
        let mut rng = seeded_rng(8);
        let truth = LinearIntensity::new([0.3, 0.0, 0.7, 0.0]);
        for n in 1..=2 * FlattenOp::MIN_FIT_POINTS {
            let t0 = 10.0 * n as f64;
            let w = SpaceTimeWindow::new(cell(), t0, t0 + 10.0);
            let mut points = InhomogeneousMdpp::new(truth, cell()).sample(&w, &mut rng);
            points.truncate(n);
            let batch = tuples_from_points(&points);
            let mut draws = op.rng.clone();
            let want: Vec<u64> = if n < FlattenOp::MIN_FIT_POINTS {
                let p = (2.0 / n as f64).min(1.0);
                batch.iter().filter(|_| draws.gen::<f64>() < p).map(|t| t.id).collect()
            } else {
                fitted_reference(&op, &batch, &mut draws)
            };
            let got: Vec<u64> = run_batch(&mut op, &batch).iter().map(|t| t.id).collect();
            assert_eq!(got, want, "n = {n}");
            assert_eq!(op.rng, draws, "n = {n}: one draw a tuple");
            if n < FlattenOp::MIN_FIT_POINTS {
                // A violation is all or nothing: `λ̄ V / n` is above 1 or not.
                assert_eq!(report.last_nv(), if n < 2 { 100.0 } else { 0.0 }, "n = {n}");
            }
        }
        let fits = report.fit_counts();
        let below = FlattenOp::MIN_FIT_POINTS as u64 - 1;
        assert_eq!(fits.homogeneous, below);
        assert_eq!(fits.fitted + fits.capped, below + 2);
        assert!(fits.iterations > 0);
    }

    #[test]
    fn sgd_mode_learns_across_batches() {
        let cfg = FlattenConfig { mode: EstimatorMode::Sgd(SgdConfig::default()), ..config(0.5) };
        let (mut op, report) = FlattenOp::new(cfg);
        let truth = LinearIntensity::new([0.5, 0.0, 0.5, 0.0]);
        let process = InhomogeneousMdpp::new(truth, cell());
        let mut rng = seeded_rng(5);
        let mut last_out = Vec::new();
        for b in 0..80 {
            let w = SpaceTimeWindow::new(cell(), b as f64 * 10.0, (b + 1) as f64 * 10.0);
            let pts = process.sample(&w, &mut rng);
            last_out = run_batch(&mut op, &tuples_from_points(&pts));
        }
        assert_eq!(report.batches(), 80);
        // After convergence, the last batch's output should be near target
        // count and roughly balanced across the x gradient.
        let target = 0.5 * 10.0 * 100.0;
        let got = last_out.len() as f64;
        assert!((got - target).abs() < 0.3 * target, "kept {got} want ~{target}");
        let low_half = last_out.iter().filter(|t| t.point.x < 5.0).count() as f64;
        let ratio = low_half / last_out.len() as f64;
        assert!((ratio - 0.5).abs() < 0.12, "balance {ratio}");
    }

    #[test]
    fn histogram_mode_flattens_linear_skew() {
        let cfg = FlattenConfig { mode: EstimatorMode::Histogram { bins: 4 }, ..config(0.6) };
        let (mut op, _) = FlattenOp::new(cfg);
        let w = SpaceTimeWindow::new(cell(), 0.0, 10.0);
        let truth = LinearIntensity::new([0.3, 0.0, 0.7, 0.0]);
        let pts = InhomogeneousMdpp::new(truth, cell()).sample(&w, &mut seeded_rng(23));
        let out = run_batch(&mut op, &tuples_from_points(&pts));
        let out_points: Vec<_> = out.iter().map(|t| t.point).collect();
        let rep = homogeneity_report(&out_points, &w, 4, 2);
        assert!(rep.is_homogeneous(0.001), "chi p={}", rep.chi_square.p_value);
        assert!((rep.empirical_rate - 0.6).abs() < 0.12, "rate {}", rep.empirical_rate);
    }

    #[test]
    fn histogram_mode_flattens_hotspot_skew_where_linear_cannot() {
        use craqr_mdpp::intensity::{Bump, GaussianBumpIntensity};
        // A central hotspot: not representable by Eq. (1)'s plane.
        let truth = GaussianBumpIntensity::new(
            0.3,
            vec![Bump { cx: 5.0, cy: 5.0, amplitude: 8.0, sigma: 1.2 }],
        );
        let w = SpaceTimeWindow::new(cell(), 0.0, 10.0);
        let pts = InhomogeneousMdpp::new(truth, cell()).sample(&w, &mut seeded_rng(23));
        let batch = tuples_from_points(&pts);

        let run_mode = |mode: EstimatorMode, seed: u64| {
            let (mut op, _) = FlattenOp::new(FlattenConfig { mode, seed, ..config(0.4) });
            let out = run_batch(&mut op, &batch);
            let out_points: Vec<_> = out.iter().map(|t| t.point).collect();
            homogeneity_report(&out_points, &w, 4, 2)
        };
        let hist = run_mode(EstimatorMode::Histogram { bins: 5 }, 1);
        let mle = run_mode(EstimatorMode::BatchMle, 1);
        // The histogram estimator must flatten the bump; the plane fit is
        // structurally blind to it (a symmetric bump has no gradient).
        assert!(
            hist.count_cv < mle.count_cv * 0.75,
            "hist CV {} vs mle CV {}",
            hist.count_cv,
            mle.count_cv
        );
        assert!(hist.is_homogeneous(0.001), "hist chi p={}", hist.chi_square.p_value);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_mode_rejects_zero_bins() {
        let cfg = FlattenConfig { mode: EstimatorMode::Histogram { bins: 0 }, ..config(0.5) };
        let _ = FlattenOp::new(cfg);
    }

    #[test]
    fn batch_window_alignment() {
        let (op, _) = FlattenOp::new(config(1.0));
        let batch = tuples_from_points(&[
            SpaceTimePoint::new(23.0, 1.0, 1.0),
            SpaceTimePoint::new(27.5, 2.0, 2.0),
        ]);
        let w = op.batch_window(&batch);
        assert_eq!(w.t0, 20.0);
        assert_eq!(w.t1, 30.0);
    }

    #[test]
    fn spilled_batch_window_widens() {
        let (op, _) = FlattenOp::new(config(1.0));
        let batch = tuples_from_points(&[
            SpaceTimePoint::new(21.0, 1.0, 1.0),
            SpaceTimePoint::new(34.0, 2.0, 2.0),
        ]);
        let w = op.batch_window(&batch);
        assert_eq!(w.t0, 20.0);
        assert!(w.t1 > 34.0);
    }
}

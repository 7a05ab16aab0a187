//! The `F` (flatten) operator — Section IV-B.1.

use crate::ops::report::FlattenReport;
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
    /// Fit θ by maximum likelihood on every batch (ref. \[12\]); the paper's
    /// default batch behaviour.
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
/// 1. estimates θ of Eq. (1) (batch MLE or online SGD),
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
    /// tuple's fitted intensity, and the MLE's buffers.
    points: Vec<SpaceTimePoint>,
    rates: Vec<f64>,
    fit_scratch: FitScratch,
}

impl FlattenOp {
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
    /// leaving the batch in batch-local time in `self.points`.
    ///
    /// Estimation happens in *batch-local time* (`t − window.t0`): the SGD
    /// estimator is anchored to a reference window starting at 0, and
    /// shifting keeps its scaled time feature in `[−1, 1]` no matter how
    /// long the stream has been running. The returned model must therefore
    /// be evaluated at batch-local coordinates too.
    fn estimate(&mut self, batch: &[CrowdTuple], window: &SpaceTimeWindow) -> FittedModel {
        let local_window = SpaceTimeWindow::new(self.cell, 0.0, window.duration());
        self.points.clear();
        self.points.extend(batch.iter().map(|t| {
            let mut p = t.point;
            p.t -= window.t0;
            p
        }));
        let points = &self.points;
        match (&self.mode, self.sgd.as_mut()) {
            (EstimatorMode::BatchMle, _) => FittedModel::Linear(
                fit_mle_with(points, &local_window, FitConfig::default(), &mut self.fit_scratch)
                    .intensity,
            ),
            (EstimatorMode::Histogram { bins }, _) => {
                FittedModel::Piecewise(histogram_intensity(points, &local_window, *bins))
            }
            (EstimatorMode::Sgd(_), Some(sgd)) => {
                sgd.observe_batch(points, &local_window);
                FittedModel::Linear(sgd.estimate())
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
            self.report.record_batch(100.0, 0, 0);
            return;
        }
        let window = self.batch_window(batch);
        let model = self.estimate(batch, &window);

        // Eq. (3), evaluated in batch-local time to match the estimate.
        // Intensities are floored to avoid division blow-ups where the
        // fitted plane grazes zero inside the window.
        self.rates.clear();
        self.rates.extend(self.points.iter().map(|p| model.rate_at(p).max(1e-9)));
        let lambda_c: f64 = self.rates.iter().map(|r| 1.0 / r).sum();
        let target_count = self.target_rate * window.volume();

        let mut violations = 0usize;
        let mut kept = 0usize;
        for (tuple, &rate) in batch.iter().zip(&self.rates) {
            let mut p = target_count / (rate * lambda_c);
            if p > 1.0 {
                violations += 1;
                p = 1.0;
            }
            if self.rng.gen::<f64>() < p {
                kept += 1;
                out.push(*tuple);
            }
        }
        let nv = 100.0 * violations as f64 / batch.len() as f64;
        self.report.record_batch(nv, batch.len(), kept);
    }
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

//! Shared flatten telemetry.

use craqr_stats::Ewma;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Telemetry a [`super::FlattenOp`] publishes after every batch; the budget
/// tuner (Section V "Budget Tuning") subscribes to it.
///
/// `N_v` is the paper's *percent rate violation*: the percentage of tuples
/// in a batch whose retaining probability exceeded 1 — evidence the batch
/// did not contain enough raw tuples to fabricate the requested rate.
#[derive(Debug)]
pub struct FlattenReport {
    inner: Mutex<ReportInner>,
}

#[derive(Debug)]
struct ReportInner {
    last_nv: f64,
    smoothed_nv: Ewma,
    batches: u64,
    tuples_seen: u64,
    tuples_kept: u64,
    fits: FitCounts,
}

/// How the batch MLE estimated one batch's intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FitOutcome {
    /// Eq. (1) fitted to `points` tuples in `iterations`: `converged`
    /// false when the fit stopped at its iteration cap, `on_boundary` when
    /// it ended with a corner of the window at the positivity floor.
    Fitted { points: usize, iterations: usize, converged: bool, on_boundary: bool },
    /// Too few points to identify Eq. (1): the homogeneous `n / V`.
    Homogeneous,
}

/// The batch MLE's outcomes, counted per batch, over one `F` or summed
/// over many. Counts are deterministic, but they sit in the metrics'
/// timing tier, so no report or checksum carries them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitCounts {
    /// Batches fitted to Eq. (1) whose fit converged.
    pub fitted: u64,
    /// Batches below [`super::FlattenOp::MIN_FIT_POINTS`], estimated as
    /// the homogeneous `n / V`.
    pub homogeneous: u64,
    /// Batches fitted to Eq. (1) whose fit stopped at the iteration cap
    /// (`FitResult::converged` false).
    pub capped: u64,
    /// Fitted and capped batches whose fit ended with at least one corner
    /// of the window at the positivity floor (`FitResult::on_boundary`).
    pub on_boundary: u64,
    /// Solver iterations summed over fitted and capped batches.
    pub iterations: u64,
    /// Tuples summed over fitted and capped batches.
    pub points: u64,
}

impl FitCounts {
    /// Adds another count into this one.
    pub(crate) fn absorb(&mut self, other: &FitCounts) {
        self.fitted += other.fitted;
        self.homogeneous += other.homogeneous;
        self.capped += other.capped;
        self.on_boundary += other.on_boundary;
        self.iterations += other.iterations;
        self.points += other.points;
    }

    /// `(outcome, batches)` for the three outcomes, in that order.
    pub fn by_outcome(&self) -> [(&'static str, u64); 3] {
        [("fitted", self.fitted), ("homogeneous", self.homogeneous), ("capped", self.capped)]
    }

    fn count(&mut self, outcome: FitOutcome) {
        match outcome {
            FitOutcome::Fitted { points, iterations, converged, on_boundary } => {
                if converged {
                    self.fitted += 1;
                } else {
                    self.capped += 1;
                }
                self.on_boundary += u64::from(on_boundary);
                self.iterations += iterations as u64;
                self.points += points as u64;
            }
            FitOutcome::Homogeneous => self.homogeneous += 1,
        }
    }
}

impl FlattenReport {
    /// A fresh report handle with EWMA smoothing factor `alpha`.
    pub fn new(alpha: f64) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(ReportInner {
                last_nv: 0.0,
                smoothed_nv: Ewma::new(alpha),
                batches: 0,
                tuples_seen: 0,
                tuples_kept: 0,
                fits: FitCounts::default(),
            }),
        })
    }

    /// Locks the counters. A poisoned lock means a holder panicked between
    /// plain field writes, which leave the counters usable, so it is
    /// recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, ReportInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records an epoch with no input at all — a total (100%) violation.
    pub(crate) fn record_starved_batch(&self) {
        self.record_batch(100.0, 0, 0, None);
    }

    /// Records one batch: its `N_v`, its tuples seen and kept, and how
    /// the batch MLE estimated it (`None` for a batch no fit ran on).
    pub(crate) fn record_batch(
        &self,
        nv_percent: f64,
        seen: usize,
        kept: usize,
        fit: Option<FitOutcome>,
    ) {
        let mut inner = self.lock();
        if let Some(outcome) = fit {
            inner.fits.count(outcome);
        }
        inner.last_nv = nv_percent;
        inner.smoothed_nv.push(nv_percent);
        inner.batches += 1;
        inner.tuples_seen += seen as u64;
        inner.tuples_kept += kept as u64;
    }

    /// `N_v` of the most recent batch (percent, 0–100).
    pub fn last_nv(&self) -> f64 {
        self.lock().last_nv
    }

    /// EWMA-smoothed `N_v` (percent), `None` before the first batch.
    pub fn smoothed_nv(&self) -> Option<f64> {
        self.lock().smoothed_nv.value()
    }

    /// `(batches observed, EWMA-smoothed N_v)` under one lock — what
    /// budget tuning reads.
    pub fn tuning_view(&self) -> (u64, Option<f64>) {
        let inner = self.lock();
        (inner.batches, inner.smoothed_nv.value())
    }

    /// Batches observed.
    pub fn batches(&self) -> u64 {
        self.lock().batches
    }

    /// `(tuples seen, tuples kept)` since creation.
    pub fn totals(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.tuples_seen, inner.tuples_kept)
    }

    /// The batch MLE's outcomes since creation.
    pub fn fit_counts(&self) -> FitCounts {
        self.lock().fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_batches() {
        let r = FlattenReport::new(0.5);
        assert_eq!(r.batches(), 0);
        assert_eq!(r.smoothed_nv(), None);
        r.record_batch(10.0, 100, 60, None);
        r.record_batch(20.0, 50, 30, None);
        assert_eq!(r.batches(), 2);
        assert_eq!(r.last_nv(), 20.0);
        assert_eq!(r.smoothed_nv(), Some(15.0));
        assert_eq!(r.totals(), (150, 90));
    }

    #[test]
    fn report_counts_fit_outcomes() {
        let r = FlattenReport::new(0.5);
        let fit = |points, iterations, converged, on_boundary| {
            Some(FitOutcome::Fitted { points, iterations, converged, on_boundary })
        };
        r.record_batch(10.0, 100, 60, fit(100, 7, true, true));
        r.record_batch(20.0, 50, 30, fit(50, 100, false, false));
        r.record_batch(5.0, 9, 4, fit(9, 6, true, false));
        r.record_batch(0.0, 3, 1, Some(FitOutcome::Homogeneous));
        r.record_starved_batch();
        assert_eq!(r.batches(), 5);
        let fits = r.fit_counts();
        assert_eq!(fits.by_outcome(), [("fitted", 2), ("homogeneous", 1), ("capped", 1)]);
        assert_eq!(fits.iterations, 113, "a starved batch counts no fit");
        assert_eq!((fits.on_boundary, fits.points), (1, 159), "homogeneous batches fit nothing");
        let mut sum = fits;
        sum.absorb(&fits);
        assert_eq!(
            sum,
            FitCounts {
                fitted: 4,
                homogeneous: 2,
                capped: 2,
                on_boundary: 2,
                iterations: 226,
                points: 318
            }
        );
    }
}

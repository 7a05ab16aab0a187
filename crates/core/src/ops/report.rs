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
        self.record_batch(100.0, 0, 0);
    }

    pub(crate) fn record_batch(&self, nv_percent: f64, seen: usize, kept: usize) {
        let mut inner = self.lock();
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

    /// Batches observed.
    pub fn batches(&self) -> u64 {
        self.lock().batches
    }

    /// `(tuples seen, tuples kept)` since creation.
    pub fn totals(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.tuples_seen, inner.tuples_kept)
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
        r.record_batch(10.0, 100, 60);
        r.record_batch(20.0, 50, 30);
        assert_eq!(r.batches(), 2);
        assert_eq!(r.last_nv(), 20.0);
        assert_eq!(r.smoothed_nv(), Some(15.0));
        assert_eq!(r.totals(), (150, 90));
    }
}

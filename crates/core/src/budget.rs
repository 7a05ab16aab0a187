//! Budgets and the `N_v`-driven budget tuner — Sections IV-A and V.

use craqr_stats::Interval;

/// The acquisition budget `β⟨j⟩(q,r)` for one (attribute, grid cell) pair:
/// "the number of acquisitional requests per attribute and per grid cell
/// that can be sent in a given duration of time".
///
/// The budget is a float so ±Δβ tuning is smooth; the handler converts it
/// to an integer request count per epoch with credit-carrying rounding, so
/// the *long-run* request rate equals the budget exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Requests per epoch.
    pub requests_per_epoch: f64,
    /// Carried fractional credit for rounding.
    credit: f64,
}

impl Budget {
    /// Range of [`Budget::requests_per_epoch`].
    pub const REQUESTS_PER_EPOCH: Interval = Interval::NonNeg;

    /// Creates a budget of `requests_per_epoch`.
    ///
    /// # Panics
    /// Panics outside [`Budget::REQUESTS_PER_EPOCH`].
    #[track_caller]
    pub fn new(requests_per_epoch: f64) -> Self {
        Self::REQUESTS_PER_EPOCH.assert("budget", requests_per_epoch);
        Self { requests_per_epoch, credit: 0.0 }
    }

    /// The integer number of requests to send this epoch; fractional parts
    /// accumulate as credit so the long-run average equals the budget.
    pub fn draw_requests(&mut self) -> usize {
        self.credit += self.requests_per_epoch;
        let n = self.credit.floor();
        self.credit -= n;
        n as usize
    }
}

/// Outcome of one tuning step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneOutcome {
    /// `N_v` under threshold: budget decreased (or already at the floor).
    Decreased,
    /// `N_v` over threshold: budget increased.
    Increased,
    /// `N_v` over threshold but the budget is capped — "the user is
    /// requested to either accept the feasible rate or pay more to obtain
    /// the required rate". The incentive extension reacts to this.
    Exhausted,
}

/// The Section V budget tuner: "if `N_v` exceeds the threshold, then the
/// budget `β⟨j⟩(q,r)` is increased by Δβ, otherwise it is decreased by the
/// same amount. If the budget cannot be increased beyond a limit, then the
/// user is requested to either accept the feasible rate or pay more."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetTuner {
    /// The `N_v` threshold (percent, 0–100).
    pub nv_threshold: f64,
    /// The step Δβ (requests per epoch).
    pub delta: f64,
    /// Budget floor (requests per epoch; keeps cells minimally probed so
    /// recovery can be detected).
    pub min_budget: f64,
    /// Budget cap (requests per epoch; the "limit" of the paper).
    pub max_budget: f64,
}

impl Default for BudgetTuner {
    fn default() -> Self {
        Self { nv_threshold: 10.0, delta: 2.0, min_budget: 1.0, max_budget: 200.0 }
    }
}

impl BudgetTuner {
    /// Range of [`BudgetTuner::nv_threshold`].
    pub const NV_THRESHOLD: Interval = Interval::Percent;
    /// Range of [`BudgetTuner::delta`].
    pub const DELTA: Interval = Interval::NonNeg;
    /// Range of [`BudgetTuner::min_budget`]; the cap has to be at least
    /// the floor.
    pub const MIN_BUDGET: Interval = Interval::NonNeg;

    /// Applies one tuning step given the latest (smoothed) `N_v` percent.
    ///
    /// # Panics
    /// Panics when `nv_percent` is outside `[0, 100]`.
    #[track_caller]
    pub fn tune(&self, budget: &mut Budget, nv_percent: f64) -> TuneOutcome {
        assert!((0.0..=100.0).contains(&nv_percent), "N_v must be a percentage, got {nv_percent}");
        if nv_percent > self.nv_threshold {
            if budget.requests_per_epoch >= self.max_budget {
                budget.requests_per_epoch = self.max_budget;
                return TuneOutcome::Exhausted;
            }
            budget.requests_per_epoch =
                (budget.requests_per_epoch + self.delta).min(self.max_budget);
            TuneOutcome::Increased
        } else {
            budget.requests_per_epoch =
                (budget.requests_per_epoch - self.delta).max(self.min_budget);
            TuneOutcome::Decreased
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_rounding_preserves_mean() {
        let mut b = Budget::new(2.5);
        let total: usize = (0..1000).map(|_| b.draw_requests()).sum();
        assert_eq!(total, 2500);
    }

    #[test]
    fn integer_budget_is_exact() {
        let mut b = Budget::new(3.0);
        for _ in 0..10 {
            assert_eq!(b.draw_requests(), 3);
        }
    }

    #[test]
    fn zero_budget_sends_nothing() {
        let mut b = Budget::new(0.0);
        assert_eq!(b.draw_requests(), 0);
    }

    #[test]
    fn tuner_increases_on_violation() {
        let tuner = BudgetTuner::default();
        let mut b = Budget::new(10.0);
        let out = tuner.tune(&mut b, 50.0);
        assert_eq!(out, TuneOutcome::Increased);
        assert_eq!(b.requests_per_epoch, 12.0);
    }

    #[test]
    fn tuner_decreases_when_satisfied() {
        let tuner = BudgetTuner::default();
        let mut b = Budget::new(10.0);
        let out = tuner.tune(&mut b, 0.0);
        assert_eq!(out, TuneOutcome::Decreased);
        assert_eq!(b.requests_per_epoch, 8.0);
    }

    #[test]
    fn tuner_respects_floor_and_cap() {
        let tuner =
            BudgetTuner { min_budget: 1.0, max_budget: 12.0, delta: 5.0, nv_threshold: 10.0 };
        let mut b = Budget::new(2.0);
        tuner.tune(&mut b, 0.0);
        assert_eq!(b.requests_per_epoch, 1.0, "floor respected");
        let mut b = Budget::new(11.0);
        assert_eq!(tuner.tune(&mut b, 90.0), TuneOutcome::Increased);
        assert_eq!(b.requests_per_epoch, 12.0, "clamped to cap");
        assert_eq!(tuner.tune(&mut b, 90.0), TuneOutcome::Exhausted);
        assert_eq!(b.requests_per_epoch, 12.0);
    }

    #[test]
    fn tuner_converges_to_need() {
        // A fake environment: violations occur iff the budget is below 20.
        let tuner = BudgetTuner { delta: 1.0, ..Default::default() };
        let mut b = Budget::new(1.0);
        for _ in 0..100 {
            let nv = if b.requests_per_epoch < 20.0 { 50.0 } else { 0.0 };
            tuner.tune(&mut b, nv);
        }
        assert!((b.requests_per_epoch - 20.0).abs() <= 1.0, "β = {}", b.requests_per_epoch);
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn tuner_rejects_bad_nv() {
        let tuner = BudgetTuner::default();
        let mut b = Budget::new(1.0);
        tuner.tune(&mut b, 250.0);
    }
}

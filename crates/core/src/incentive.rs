//! Incentive escalation — the first Section VI extension.
//!
//! "Currently, if there are significant rate violations then the
//! request/response handler … increases its rate of sending acquisition
//! requests. Another alternative is to offer more incentive to the mobile
//! sensors to respond."

use crate::budget::TuneOutcome;

/// A per-(attribute, cell) incentive escalation policy.
///
/// The incentive starts at `base`; every epoch whose budget tuning ends in
/// [`TuneOutcome::Exhausted`] (budget capped yet violations persist) raises
/// it by `step` up to `max`; every satisfied epoch decays it towards `base`
/// by the same step. This spends incentive *only when requests alone cannot
/// buy the rate* — the paper's intended division of labour between the two
/// knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncentivePolicy {
    /// Baseline incentive attached to every request.
    pub base: f64,
    /// Escalation step per exhausted epoch.
    pub step: f64,
    /// Hard cap ("pay more" has a limit too).
    pub max: f64,
}

impl Default for IncentivePolicy {
    fn default() -> Self {
        Self { base: 0.0, step: 0.5, max: 5.0 }
    }
}

/// Mutable escalation state for one (attribute, cell).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IncentiveState {
    current: f64,
    initialized: bool,
}

impl IncentiveState {
    /// The incentive to attach to the next batch of requests.
    pub fn current(&self, policy: &IncentivePolicy) -> f64 {
        if self.initialized {
            self.current
        } else {
            policy.base
        }
    }

    /// Updates the incentive from this epoch's budget-tuning outcome.
    pub fn update(&mut self, policy: &IncentivePolicy, outcome: TuneOutcome) {
        let cur = self.current(policy);
        self.current = match outcome {
            TuneOutcome::Exhausted => (cur + policy.step).min(policy.max),
            TuneOutcome::Decreased => (cur - policy.step).max(policy.base),
            TuneOutcome::Increased => cur,
        };
        self.initialized = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_base() {
        let p = IncentivePolicy { base: 0.25, ..Default::default() };
        let s = IncentiveState::default();
        assert_eq!(s.current(&p), 0.25);
    }

    #[test]
    fn escalates_only_when_exhausted() {
        let p = IncentivePolicy::default();
        let mut s = IncentiveState::default();
        s.update(&p, TuneOutcome::Increased);
        assert_eq!(s.current(&p), 0.0, "budget still has headroom: no incentive");
        s.update(&p, TuneOutcome::Exhausted);
        assert_eq!(s.current(&p), 0.5);
        s.update(&p, TuneOutcome::Exhausted);
        assert_eq!(s.current(&p), 1.0);
    }

    #[test]
    fn caps_at_max() {
        let p = IncentivePolicy { step: 3.0, max: 5.0, ..Default::default() };
        let mut s = IncentiveState::default();
        s.update(&p, TuneOutcome::Exhausted);
        s.update(&p, TuneOutcome::Exhausted);
        assert_eq!(s.current(&p), 5.0);
    }

    #[test]
    fn decays_towards_base_when_satisfied() {
        let p = IncentivePolicy::default();
        let mut s = IncentiveState::default();
        s.update(&p, TuneOutcome::Exhausted);
        s.update(&p, TuneOutcome::Exhausted);
        assert_eq!(s.current(&p), 1.0);
        s.update(&p, TuneOutcome::Decreased);
        assert_eq!(s.current(&p), 0.5);
        s.update(&p, TuneOutcome::Decreased);
        s.update(&p, TuneOutcome::Decreased);
        assert_eq!(s.current(&p), 0.0, "never below base");
    }
}

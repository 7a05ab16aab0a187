//! Controller policy knobs.

use craqr_mdpp::SgdConfig;
use craqr_stats::{drift, Interval};
use serde::{Deserialize, Serialize};

/// Which sequential change-point test watches the innovation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Page–Hinkley: self-centering, robust to an unknown stationary
    /// baseline level.
    PageHinkley,
    /// Two-sided CUSUM around zero — the natural choice for standardized
    /// innovations, with the shortest detection delay.
    Cusum,
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorKind::PageHinkley => write!(f, "page_hinkley"),
            DetectorKind::Cusum => write!(f, "cusum"),
        }
    }
}

/// Drift-detector configuration (one detector instance per query).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// The test to run.
    pub kind: DetectorKind,
    /// Per-step slack/tolerance (`k` for CUSUM, `δ` for Page–Hinkley):
    /// innovation magnitudes below this never accumulate evidence.
    pub slack: f64,
    /// Decision threshold (`h` for CUSUM, `λ` for Page–Hinkley): evidence
    /// above it fires a drift.
    pub threshold: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        // Standardized innovations are ≈ unit-variance when stationary: a
        // slack of 0.5σ with a threshold of 8 accumulated σ is quiet on
        // noise and fires within a handful of epochs on a real shift.
        Self { kind: DetectorKind::Cusum, slack: 0.5, threshold: 8.0 }
    }
}

/// The full adaptive-controller policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// `true`: replans are applied to the server. `false`: observe-only —
    /// estimation, detection, and the trace still run, but no
    /// [`craqr_core::ControlAction`] is ever emitted (the static-baseline
    /// mode drift scenarios are golden-tested against).
    pub enabled: bool,
    /// Online estimator knobs (one [`craqr_mdpp::SgdEstimator`] per query).
    pub estimator: SgdConfig,
    /// Drift detector knobs (one detector per query).
    pub detector: DetectorConfig,
    /// Epochs before detectors start consuming innovations — the SGD
    /// estimate needs a few batches to calibrate, and its early residuals
    /// would otherwise read as drift.
    pub warmup_epochs: u32,
    /// Minimum epochs between replans; drifts confirmed during the
    /// cooldown are recorded but do not re-trigger.
    pub cooldown_epochs: u32,
    /// Total acquisition budget (requests/epoch) the water-filling
    /// allocator distributes on a replan. `None`: the pool is the sum of
    /// the live per-chain budgets at replan time (re-allocate, don't
    /// grow). Ignored on multi-tenant servers — their replans allocate
    /// from the registered per-tenant pools (the scenario schema rejects
    /// the combination outright).
    pub budget_pool: Option<f64>,
    /// Also rebuild the fired queries' chains on a replan, restarting
    /// their flatten estimators and `N_v` telemetry (the post-shift world
    /// deserves fresh statistics).
    pub rebuild_chains: bool,
    /// Safety factor on the requests-per-delivered-tuple demand estimate
    /// fed to the allocator.
    pub demand_headroom: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            estimator: SgdConfig::default(),
            detector: DetectorConfig::default(),
            warmup_epochs: 3,
            cooldown_epochs: 4,
            budget_pool: None,
            rebuild_chains: true,
            demand_headroom: 1.5,
        }
    }
}

impl AdaptiveConfig {
    /// Range of [`AdaptiveConfig::budget_pool`], when set.
    pub const BUDGET_POOL: Interval = Interval::Positive;
    /// Range of [`AdaptiveConfig::demand_headroom`].
    pub const DEMAND_HEADROOM: Interval = Interval::AtLeastOne;

    /// Checks every knob, returning the first violated constraint as
    /// `(field, requirement)` — same contract as
    /// [`craqr_core::ServerConfig::validate`], so declarative specs reject
    /// bad adaptive blocks with a path-precise error.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        let e = &self.estimator;
        SgdConfig::GAMMA0.check("adaptive.gamma0", e.gamma0)?;
        SgdConfig::DECAY_BATCHES.check("adaptive.decay_batches", e.decay_batches)?;
        SgdConfig::INITIAL_RATE.check("adaptive.initial_rate", e.initial_rate)?;
        drift::SLACK.check("adaptive.slack", self.detector.slack)?;
        drift::THRESHOLD.check("adaptive.threshold", self.detector.threshold)?;
        if let Some(pool) = self.budget_pool {
            Self::BUDGET_POOL.check("adaptive.budget_pool", pool)?;
        }
        Self::DEMAND_HEADROOM.check("adaptive.demand_headroom", self.demand_headroom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(AdaptiveConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validation_names_the_offending_field() {
        let c = AdaptiveConfig {
            detector: DetectorConfig { threshold: 0.0, ..DetectorConfig::default() },
            ..AdaptiveConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().0, "adaptive.threshold");
        let c = AdaptiveConfig {
            estimator: craqr_mdpp::SgdConfig { gamma0: -1.0, ..Default::default() },
            ..AdaptiveConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().0, "adaptive.gamma0");
        let c = AdaptiveConfig { budget_pool: Some(0.0), ..AdaptiveConfig::default() };
        assert_eq!(c.validate().unwrap_err().0, "adaptive.budget_pool");
        let c = AdaptiveConfig { demand_headroom: 0.5, ..AdaptiveConfig::default() };
        assert_eq!(c.validate().unwrap_err().0, "adaptive.demand_headroom");
    }
}

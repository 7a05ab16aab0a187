//! Query planning and stream fabrication — Section V.

mod chain;
mod fabricator;

pub use chain::{AttrChain, TopologyShape};
pub use fabricator::{Fabricator, PlanError, QueryPlan};

use crate::ops::EstimatorMode;
use craqr_stats::Interval;

/// Planner/fabricator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Cells per grid side (the paper's `√h`).
    pub grid_side: u32,
    /// Batch epoch duration (minutes); the `F` operators and the server
    /// share this clock.
    pub batch_duration: f64,
    /// `F` target = `f_headroom × max tap rate` (rule 4 of Section V says
    /// "greater than"; 1.0 means "equal", larger values give the flatten
    /// stage slack at the cost of more raw tuples).
    pub f_headroom: f64,
    /// Per-cell topology shape (Section VI "alternative topologies").
    pub shape: TopologyShape,
    /// Intensity-estimation mode for the `F` operators.
    pub estimator: EstimatorMode,
    /// Master seed for all operator randomness.
    pub seed: u64,
    /// Enforce the Section IV minimum-query-area rule ("a single-attribute
    /// query should be on a region with area at least `area(R(q,r))`").
    /// The paper's own Fig. 2 example bends the rule (its `R3` sits inside
    /// a single cell behind a `P`-operator), so it is a knob.
    pub enforce_min_area: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            grid_side: 4,
            batch_duration: 5.0,
            f_headroom: 1.0,
            shape: TopologyShape::Chain,
            estimator: EstimatorMode::BatchMle,
            seed: 0xC7A9,
            enforce_min_area: true,
        }
    }
}

impl PlannerConfig {
    /// Range of [`PlannerConfig::batch_duration`].
    pub const BATCH_DURATION: Interval = Interval::Positive;
    /// Range of [`PlannerConfig::f_headroom`].
    pub const F_HEADROOM: Interval = Interval::AtLeastOne;

    /// Checks the knobs a declarative spec can set, returning the first
    /// violated constraint as `(field, requirement)`. Construction-time
    /// panics guard programmatic misuse; this is the *data-driven* path
    /// (scenario specs, config files) where a parse error beats a panic.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        if self.grid_side == 0 {
            return Err((
                "grid.side",
                "must be >= 1 (a zero-cell grid has nowhere to plan)".into(),
            ));
        }
        Self::BATCH_DURATION.check("planner.batch_minutes", self.batch_duration)?;
        Self::F_HEADROOM.check("planner.f_headroom", self.f_headroom)
    }
}

//! Skewed sensor populations.
//!
//! "The number of mobile sensors in a particular region and time is
//! unpredictable and is spatio-temporally skewed" (Section I). A
//! [`PopulationConfig`] turns that sentence into data: how many sensors,
//! how they are placed (uniform or hotspot-clustered), how they move, and
//! what fraction are humans versus automatic sensors.

use crate::mobility::Mobility;
use crate::response::ResponseModel;
use crate::sensor::MobileSensor;
use crate::types::SensorId;
use craqr_geom::Rect;
use craqr_stats::Interval;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Spatial placement of the initial sensor positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Uniform over the region (the WSN-like baseline).
    Uniform,
    /// Mixture of Gaussian hotspots over a uniform floor. Each hotspot is
    /// `(cx, cy, weight, sigma)`; `floor` is the relative weight of the
    /// uniform component.
    Hotspots {
        /// The hotspots `(cx, cy, weight, sigma)`.
        spots: Vec<(f64, f64, f64, f64)>,
        /// Relative weight of the uniform floor component (≥ 0).
        floor: f64,
    },
}

impl Placement {
    /// Range of a [`Placement::Hotspots`] floor.
    pub const FLOOR: Interval = Interval::NonNeg;

    /// Builds a hotspot placement from spec data, validating instead of
    /// panicking: every `(cx, cy, weight, sigma)` needs `weight >= 0` and
    /// `sigma > 0`, `floor` has to lie in [`Placement::FLOOR`], and the
    /// total weight must be positive. The data-driven entry point for
    /// declarative scenario specs.
    pub fn hotspots(spots: Vec<(f64, f64, f64, f64)>, floor: f64) -> Result<Self, String> {
        if let Some(message) = Self::FLOOR.violation(floor) {
            return Err(format!("hotspot floor {message}"));
        }
        for (i, &(cx, cy, weight, sigma)) in spots.iter().enumerate() {
            if !(cx.is_finite() && cy.is_finite()) {
                return Err(format!("hotspot {i} centre must be finite"));
            }
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(format!("hotspot {i} weight must be >= 0, got {weight}"));
            }
            if !(sigma.is_finite() && sigma > 0.0) {
                return Err(format!("hotspot {i} sigma must be > 0, got {sigma}"));
            }
        }
        let total: f64 = floor + spots.iter().map(|s| s.2).sum::<f64>();
        if total <= 0.0 {
            return Err("hotspot placement needs positive total weight".into());
        }
        Ok(Placement::Hotspots { spots, floor })
    }

    /// A typical two-hotspot city: dense downtown, smaller secondary centre.
    pub fn city(region: &Rect) -> Self {
        let (cx, cy) = region.center();
        Placement::Hotspots {
            spots: vec![
                (cx, cy, 6.0, region.width() * 0.08),
                (
                    region.x0 + region.width() * 0.8,
                    region.y0 + region.height() * 0.25,
                    3.0,
                    region.width() * 0.05,
                ),
            ],
            floor: 1.0,
        }
    }

    /// Samples one position in `region` according to the placement law.
    pub fn sample<R: Rng + ?Sized>(&self, region: &Rect, rng: &mut R) -> (f64, f64) {
        match self {
            Placement::Uniform => {
                (rng.gen_range(region.x0..region.x1), rng.gen_range(region.y0..region.y1))
            }
            Placement::Hotspots { spots, floor } => {
                let total: f64 = floor + spots.iter().map(|s| s.2).sum::<f64>();
                assert!(total > 0.0, "placement weights must be positive");
                let mut pick = rng.gen::<f64>() * total;
                if pick < *floor {
                    return (
                        rng.gen_range(region.x0..region.x1),
                        rng.gen_range(region.y0..region.y1),
                    );
                }
                pick -= floor;
                for &(cx, cy, weight, sigma) in spots {
                    if pick < weight {
                        // Gaussian around the hotspot, resampled into the region.
                        let normal = craqr_stats::dist::Normal::new(0.0, sigma);
                        for _ in 0..64 {
                            use rand::distributions::Distribution;
                            let x = cx + normal.sample(rng);
                            let y = cy + normal.sample(rng);
                            if region.contains(x, y) {
                                return (x, y);
                            }
                        }
                        // Hotspot mostly outside the region: fall back to
                        // clamped placement at the nearest in-region point.
                        return (
                            cx.clamp(region.x0, region.x1 - 1e-9),
                            cy.clamp(region.y0, region.y1 - 1e-9),
                        );
                    }
                    pick -= weight;
                }
                unreachable!("weights exhausted before total")
            }
        }
    }
}

/// Configuration of a sensor population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of sensors `m`.
    pub size: usize,
    /// Initial placement law.
    pub placement: Placement,
    /// Mobility template cloned into each sensor.
    pub mobility: Mobility,
    /// Fraction of sensors that are humans (response behaviour
    /// [`ResponseModel::human`]); the rest are automatic.
    pub human_fraction: f64,
}

impl PopulationConfig {
    /// A convenient default crowd: 500 walkers, city placement, 40% humans.
    pub fn city_default(region: &Rect) -> Self {
        Self {
            size: 500,
            placement: Placement::city(region),
            mobility: Mobility::random_waypoint(0.08, 5.0),
            human_fraction: 0.4,
        }
    }

    /// Range of [`PopulationConfig::human_fraction`].
    pub const HUMAN_FRACTION: Interval = Interval::Unit;

    /// Checks the knobs a declarative spec can set, returning the first
    /// violated constraint as `(field, requirement)` — the non-panicking
    /// twin of [`PopulationConfig::build`]'s and [`Mobility`]'s assertions.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        if self.size == 0 {
            return Err(("population.size", "must be >= 1 (an empty crowd senses nothing)".into()));
        }
        Self::HUMAN_FRACTION.check("population.human_fraction", self.human_fraction)?;
        if let Placement::Hotspots { spots, floor } = &self.placement {
            Placement::FLOOR.check("population.placement.floor", *floor)?;
            Placement::hotspots(spots.clone(), *floor).map_err(|e| ("population.placement", e))?;
        }
        match self.mobility {
            Mobility::Stationary => Ok(()),
            Mobility::RandomWalk { sigma } => {
                Mobility::WALK_SIGMA.check("population.mobility.sigma", sigma)
            }
            Mobility::RandomWaypoint { speed, pause, .. } => {
                Mobility::WAYPOINT_SPEED.check("population.mobility.speed", speed)?;
                Mobility::WAYPOINT_PAUSE.check("population.mobility.pause", pause)
            }
            Mobility::GaussMarkov { alpha, mean_speed, sigma, .. } => {
                Mobility::GM_ALPHA.check("population.mobility.alpha", alpha)?;
                Mobility::GM_MEAN_SPEED.check("population.mobility.mean_speed", mean_speed)?;
                Mobility::GM_SIGMA.check("population.mobility.sigma", sigma)
            }
        }
    }

    /// Materializes the population.
    ///
    /// # Panics
    /// Panics when `human_fraction` is outside
    /// [`PopulationConfig::HUMAN_FRACTION`].
    pub fn build<R: Rng + ?Sized>(&self, region: &Rect, rng: &mut R) -> Vec<MobileSensor> {
        Self::HUMAN_FRACTION.assert("human fraction", self.human_fraction);
        (0..self.size)
            .map(|i| {
                let pos = self.placement.sample(region, rng);
                let response = if rng.gen::<f64>() < self.human_fraction {
                    ResponseModel::human()
                } else {
                    ResponseModel::automatic()
                };
                MobileSensor::new(SensorId(i as u64), pos, self.mobility.clone(), response)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_stats::seeded_rng;

    fn region() -> Rect {
        Rect::with_size(10.0, 10.0)
    }

    #[test]
    fn uniform_placement_fills_region_evenly() {
        let mut rng = seeded_rng(1);
        let p = Placement::Uniform;
        let n = 20_000;
        let left = (0..n).map(|_| p.sample(&region(), &mut rng)).filter(|(x, _)| *x < 5.0).count();
        let frac = left as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "left fraction {frac}");
    }

    #[test]
    fn hotspot_placement_is_skewed() {
        let mut rng = seeded_rng(2);
        let p = Placement::Hotspots { spots: vec![(2.0, 2.0, 9.0, 0.5)], floor: 1.0 };
        let n = 20_000;
        let near = (0..n)
            .map(|_| p.sample(&region(), &mut rng))
            .filter(|(x, y)| ((x - 2.0).powi(2) + (y - 2.0).powi(2)).sqrt() < 1.5)
            .count();
        let frac = near as f64 / n as f64;
        // ~90% of mass sits in the hotspot; nearly all of it within 3σ.
        assert!(frac > 0.7, "hotspot fraction {frac}");
    }

    #[test]
    fn placement_never_escapes_region() {
        let mut rng = seeded_rng(3);
        // Hotspot centred outside the region: worst case for resampling.
        let p = Placement::Hotspots { spots: vec![(-5.0, -5.0, 1.0, 0.1)], floor: 0.0 };
        for _ in 0..500 {
            let (x, y) = p.sample(&region(), &mut rng);
            assert!(region().contains(x, y), "escaped to ({x}, {y})");
        }
    }

    #[test]
    fn build_population_has_requested_size_and_mix() {
        let cfg = PopulationConfig {
            size: 1_000,
            placement: Placement::Uniform,
            mobility: Mobility::Stationary,
            human_fraction: 0.25,
        };
        let mut rng = seeded_rng(4);
        let sensors = cfg.build(&region(), &mut rng);
        assert_eq!(sensors.len(), 1_000);
        let humans = sensors
            .iter()
            .filter(|s| s.response_model().mean_latency == ResponseModel::human().mean_latency)
            .count();
        let frac = humans as f64 / 1_000.0;
        assert!((frac - 0.25).abs() < 0.05, "human fraction {frac}");
        // Distinct ids.
        let mut ids: Vec<u64> = sensors.iter().map(|s| s.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1_000);
    }

    #[test]
    fn hotspots_constructor_validates() {
        assert!(Placement::hotspots(vec![(1.0, 1.0, 2.0, 0.5)], 0.0).is_ok());
        assert!(Placement::hotspots(vec![(1.0, 1.0, 2.0, 0.0)], 0.0).is_err(), "zero sigma");
        assert!(Placement::hotspots(vec![(1.0, 1.0, -1.0, 0.5)], 0.0).is_err(), "negative weight");
        assert!(Placement::hotspots(vec![], 0.0).is_err(), "zero total weight");
        assert!(Placement::hotspots(vec![], 1.0).is_ok(), "pure uniform floor");
    }

    #[test]
    fn population_validate_catches_spec_errors() {
        let ok = PopulationConfig {
            size: 10,
            placement: Placement::Uniform,
            mobility: Mobility::Stationary,
            human_fraction: 0.5,
        };
        assert!(ok.validate().is_ok());
        assert_eq!(
            PopulationConfig { size: 0, ..ok.clone() }.validate().unwrap_err().0,
            "population.size"
        );
        assert_eq!(
            PopulationConfig { human_fraction: 1.5, ..ok.clone() }.validate().unwrap_err().0,
            "population.human_fraction"
        );
        let bad_spots = PopulationConfig {
            placement: Placement::Hotspots { spots: vec![(0.0, 0.0, 1.0, -1.0)], floor: 0.0 },
            ..ok
        };
        assert_eq!(bad_spots.validate().unwrap_err().0, "population.placement");
    }

    #[test]
    fn city_default_builds() {
        let cfg = PopulationConfig::city_default(&region());
        let sensors = cfg.build(&region(), &mut seeded_rng(5));
        assert_eq!(sensors.len(), 500);
        for s in &sensors {
            let (x, y) = s.position();
            assert!(region().contains(x, y));
        }
    }
}

//! Ground-truth phenomena the crowd observes.
//!
//! The paper's two running examples are `rain` (human-sensed boolean) and
//! `temp` (sensor-sensed real). A [`Field`] gives every space-time point a
//! true value; sensors sample it — possibly with error (Section VI) — when
//! they answer an acquisition request. Having ground truth lets the
//! experiment harness score the *content* of fabricated streams, not just
//! their rates.

use crate::types::AttrValue;
use craqr_geom::SpaceTimePoint;

/// A spatio-temporal ground-truth field.
pub trait Field: Send + Sync {
    /// The true value at a space-time point.
    fn value_at(&self, p: &SpaceTimePoint) -> AttrValue;
}

/// A rain band sweeping across the region at constant velocity — the ground
/// truth behind the human-sensed `rain` attribute.
///
/// At time `t` it rains where `x ∈ [front(t) − width, front(t))` with
/// `front(t) = x_start + speed·t`. A negative speed sweeps leftwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RainFront {
    /// Front position at `t = 0` (km).
    pub x_start: f64,
    /// Front speed (km/min; may be negative).
    pub speed: f64,
    /// Band width (km).
    pub width: f64,
}

impl RainFront {
    /// Creates a rain front.
    ///
    /// # Panics
    /// Panics when `width <= 0`.
    #[track_caller]
    pub fn new(x_start: f64, speed: f64, width: f64) -> Self {
        assert!(width > 0.0, "band width must be > 0");
        Self { x_start, speed, width }
    }

    /// `true` when it rains at `p`.
    pub fn is_raining(&self, p: &SpaceTimePoint) -> bool {
        let front = self.x_start + self.speed * p.t;
        p.x >= front - self.width && p.x < front
    }
}

impl Field for RainFront {
    fn value_at(&self, p: &SpaceTimePoint) -> AttrValue {
        AttrValue::Bool(self.is_raining(p))
    }
}

/// A smooth temperature surface: base level, urban-heat-island Gaussian
/// bumps, a linear north-south gradient, and a diurnal sinusoid — the
/// ground truth behind the sensor-sensed `temp` attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureField {
    /// Baseline temperature (°C).
    pub base: f64,
    /// North–south gradient (°C per km of y).
    pub y_gradient: f64,
    /// Heat islands `(cx, cy, amplitude °C, sigma km)`.
    pub islands: Vec<(f64, f64, f64, f64)>,
    /// Diurnal amplitude (°C).
    pub diurnal_amplitude: f64,
    /// Diurnal period (minutes; 1440 = a day).
    pub diurnal_period: f64,
}

impl TemperatureField {
    /// A mild default field: 20 °C base, one heat island, 24 h cycle.
    pub fn city_default() -> Self {
        Self {
            base: 20.0,
            y_gradient: -0.1,
            islands: vec![(5.0, 5.0, 4.0, 2.0)],
            diurnal_amplitude: 5.0,
            diurnal_period: 1440.0,
        }
    }

    /// The true temperature at `p` (°C).
    pub fn temperature_at(&self, p: &SpaceTimePoint) -> f64 {
        let mut v = self.base + self.y_gradient * p.y;
        for &(cx, cy, amp, sigma) in &self.islands {
            let d2 = (p.x - cx).powi(2) + (p.y - cy).powi(2);
            v += amp * (-d2 / (2.0 * sigma * sigma)).exp();
        }
        v + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * p.t / self.diurnal_period).sin()
    }
}

impl Field for TemperatureField {
    fn value_at(&self, p: &SpaceTimePoint) -> AttrValue {
        AttrValue::Float(self.temperature_at(p))
    }
}

/// A constant field, useful in tests where content does not matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantField(pub AttrValue);

impl Field for ConstantField {
    fn value_at(&self, _p: &SpaceTimePoint) -> AttrValue {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rain_front_moves_with_time() {
        let f = RainFront::new(0.0, 1.0, 2.0);
        // At t=5 the front is at x=5; raining for x in [3, 5).
        assert!(f.is_raining(&SpaceTimePoint::new(5.0, 4.0, 0.0)));
        assert!(f.is_raining(&SpaceTimePoint::new(5.0, 3.0, 0.0)));
        assert!(!f.is_raining(&SpaceTimePoint::new(5.0, 5.0, 0.0)));
        assert!(!f.is_raining(&SpaceTimePoint::new(5.0, 2.9, 0.0)));
        // Later, the band has moved on.
        assert!(!f.is_raining(&SpaceTimePoint::new(20.0, 4.0, 0.0)));
    }

    #[test]
    fn rain_front_field_value() {
        let f = RainFront::new(5.0, 0.0, 10.0);
        assert_eq!(f.value_at(&SpaceTimePoint::new(0.0, 1.0, 0.0)), AttrValue::Bool(true));
        assert_eq!(f.value_at(&SpaceTimePoint::new(0.0, 7.0, 0.0)), AttrValue::Bool(false));
    }

    #[test]
    fn temperature_has_heat_island() {
        let f = TemperatureField::city_default();
        let center = f.temperature_at(&SpaceTimePoint::new(0.0, 5.0, 5.0));
        let outskirts = f.temperature_at(&SpaceTimePoint::new(0.0, 0.0, 0.0));
        assert!(center > outskirts + 2.0, "center {center} vs outskirts {outskirts}");
    }

    #[test]
    fn temperature_diurnal_cycle() {
        let f = TemperatureField::city_default();
        let p_morning = SpaceTimePoint::new(360.0, 0.0, 0.0); // quarter period
        let p_evening = SpaceTimePoint::new(1080.0, 0.0, 0.0); // three quarters
        let diff = f.temperature_at(&p_morning) - f.temperature_at(&p_evening);
        assert!((diff - 2.0 * f.diurnal_amplitude).abs() < 1e-9);
    }

    #[test]
    fn temperature_y_gradient() {
        let f = TemperatureField {
            islands: vec![],
            diurnal_amplitude: 0.0,
            ..TemperatureField::city_default()
        };
        let north = f.temperature_at(&SpaceTimePoint::new(0.0, 0.0, 10.0));
        let south = f.temperature_at(&SpaceTimePoint::new(0.0, 0.0, 0.0));
        assert!((south - north - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_field_is_constant() {
        let f = ConstantField(AttrValue::Float(1.5));
        assert_eq!(f.value_at(&SpaceTimePoint::new(9.0, 9.0, 9.0)), AttrValue::Float(1.5));
    }
}

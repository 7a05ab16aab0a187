//! Shared identifier and message types.

use craqr_geom::SpaceTimePoint;
use std::fmt;

/// Identifier of an attribute of interest `A⟨j⟩` (Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttributeId(pub u16);

impl fmt::Display for AttributeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A<{}>", self.0)
    }
}

/// Identifier of a mobile sensor `sᵢ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SensorId(pub u64);

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The value `a⟨j⟩ᵢ` of an attribute observation.
///
/// The paper's two running examples fix the two variants: `rain` is a
/// human-sensed boolean, `temp` a sensor-sensed real.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// A human-sensed boolean observation (e.g. "is it raining?").
    Bool(bool),
    /// A sensor-sensed real observation (e.g. ambient temperature in °C).
    Float(f64),
}

impl AttrValue {
    /// The float payload, if this is a real-valued observation.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttrValue::Float(v) => Some(*v),
            AttrValue::Bool(_) => None,
        }
    }
}

/// One observation made by a sensor: where/when plus the sensed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The observed attribute.
    pub attr: AttributeId,
    /// Space-time coordinates of the observation.
    pub point: SpaceTimePoint,
    /// Observed value.
    pub value: AttrValue,
}

/// A sensor's (possibly much later) answer to a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorResponse {
    /// Which sensor answered.
    pub sensor: SensorId,
    /// The observation; `point.t` is the time the sensor *measured* (it may
    /// reach the server later still).
    pub measurement: Measurement,
    /// The request that elicited the response.
    pub issued_at: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_value_accessors() {
        assert_eq!(AttrValue::Bool(true).as_float(), None);
        assert_eq!(AttrValue::Float(2.5).as_float(), Some(2.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(AttributeId(1).to_string(), "A<1>");
        assert_eq!(SensorId(42).to_string(), "s42");
    }
}

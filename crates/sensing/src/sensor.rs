//! One mobile sensor.

use crate::fields::Field;
use crate::mobility::Mobility;
use crate::response::ResponseModel;
use crate::types::{AttributeId, Measurement, SensorId};
use craqr_geom::{Rect, SpaceTimePoint};
use rand::Rng;

/// A mobile sensor `sᵢ`: position, movement model and participation
/// behaviour. The paper also grants every sensor local memory ("each
/// mobile sensor is assumed to have local memory to store sensed
/// information"); that memory is not simulated, because no request reuses
/// a stored observation — a delayed answer re-measures at its new
/// delivery time.
#[derive(Debug, Clone)]
pub struct MobileSensor {
    id: SensorId,
    position: (f64, f64),
    mobility: Mobility,
    response: ResponseModel,
}

impl MobileSensor {
    /// Creates a sensor at `position`.
    pub fn new(
        id: SensorId,
        position: (f64, f64),
        mobility: Mobility,
        response: ResponseModel,
    ) -> Self {
        Self { id, position, mobility, response }
    }

    /// The sensor id.
    #[inline]
    pub fn id(&self) -> SensorId {
        self.id
    }

    /// Current position (km).
    #[inline]
    pub fn position(&self) -> (f64, f64) {
        self.position
    }

    /// The participation model.
    #[inline]
    pub fn response_model(&self) -> &ResponseModel {
        &self.response
    }

    /// Replaces the participation model — availability changes (opt-outs,
    /// incentive fatigue, app updates) happen to real crowds mid-stream,
    /// and experiments inject them through this.
    pub fn set_response_model(&mut self, model: ResponseModel) {
        self.response = model;
    }

    /// Teleports the sensor — the crowd-level migration lever
    /// ([`crate::Crowd::migrate`]) relocating participants mid-run.
    pub fn set_position(&mut self, position: (f64, f64)) {
        self.position = position;
    }

    /// Advances the sensor by `dt` minutes inside `region`.
    pub fn advance<R: Rng + ?Sized>(&mut self, dt: f64, region: &Rect, rng: &mut R) {
        self.position = self.mobility.step(self.position, dt, region, rng);
    }

    /// Samples `field` at the sensor's position at time `now`.
    pub fn observe(&self, attr: AttributeId, field: &dyn Field, now: f64) -> Measurement {
        let point = SpaceTimePoint::new(now, self.position.0, self.position.1);
        Measurement { attr, point, value: field.value_at(&point) }
    }

    /// Decides whether (and with what latency, in minutes) the sensor will
    /// answer a request carrying `incentive`.
    pub fn decide_response<R: Rng + ?Sized>(&self, incentive: f64, rng: &mut R) -> Option<f64> {
        self.response.draw_response(incentive, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::ConstantField;
    use crate::types::AttrValue;
    use craqr_stats::seeded_rng;

    fn sensor() -> MobileSensor {
        MobileSensor::new(SensorId(1), (2.0, 3.0), Mobility::Stationary, ResponseModel::automatic())
    }

    #[test]
    fn observe_samples_field_at_position() {
        let s = sensor();
        let field = ConstantField(AttrValue::Float(7.0));
        let m = s.observe(AttributeId(0), &field, 5.0);
        assert_eq!(m.point, SpaceTimePoint::new(5.0, 2.0, 3.0));
        assert_eq!(m.value, AttrValue::Float(7.0));
    }

    #[test]
    fn advance_moves_walker() {
        let mut s = MobileSensor::new(
            SensorId(2),
            (5.0, 5.0),
            Mobility::RandomWalk { sigma: 1.0 },
            ResponseModel::automatic(),
        );
        let before = s.position();
        s.advance(1.0, &Rect::with_size(10.0, 10.0), &mut seeded_rng(1));
        assert_ne!(s.position(), before);
    }
}

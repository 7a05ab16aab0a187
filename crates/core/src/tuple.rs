//! The crowdsensed tuple.

use craqr_geom::SpaceTimePoint;
use craqr_sensing::{AttrValue, AttributeId, SensorId, SensorResponse};

/// A tuple of attribute `A⟨j⟩`: `(t⟨j⟩ᵢ, x⟨j⟩ᵢ, y⟨j⟩ᵢ, a⟨j⟩ᵢ)` plus the
/// unique identifier `i` ("unique across sensors", Section II) and the
/// originating sensor.
///
/// Identifiers are assigned by the server at ingestion, which is the only
/// place with a global view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrowdTuple {
    /// The unique tuple identifier `i`.
    pub id: u64,
    /// The attribute `A⟨j⟩` this tuple observes.
    pub attr: AttributeId,
    /// Space-time coordinates of the observation.
    pub point: SpaceTimePoint,
    /// The observed value `a⟨j⟩ᵢ`.
    pub value: AttrValue,
    /// The sensor that produced the observation.
    pub sensor: SensorId,
}

impl CrowdTuple {
    /// Builds a tuple from a sensor response, assigning it identifier `id`.
    pub fn from_response(id: u64, response: &SensorResponse) -> Self {
        Self {
            id,
            attr: response.measurement.attr,
            point: response.measurement.point,
            value: response.measurement.value,
            sensor: response.sensor,
        }
    }

    /// `true` when the coordinates are finite (malformed tuples are dropped
    /// at ingestion; see the Section VI error discussion).
    pub fn is_well_formed(&self) -> bool {
        self.point.is_finite()
    }
}

/// Assigns dense unique identifiers to incoming responses — the server-side
/// ingestion counter.
#[derive(Debug, Default, Clone)]
pub struct TupleIdGen {
    next: u64,
}

impl TupleIdGen {
    /// A generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next unique id.
    #[inline]
    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Converts a batch of responses into tuples with fresh ids, dropping
    /// malformed ones.
    pub fn ingest(&mut self, responses: &[SensorResponse]) -> Vec<CrowdTuple> {
        responses
            .iter()
            .map(|r| CrowdTuple::from_response(self.next_id(), r))
            .filter(CrowdTuple::is_well_formed)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_sensing::Measurement;

    fn response(t: f64, x: f64) -> SensorResponse {
        SensorResponse {
            sensor: SensorId(5),
            measurement: Measurement {
                attr: AttributeId(1),
                point: SpaceTimePoint::new(t, x, 0.5),
                value: AttrValue::Bool(true),
            },
            issued_at: 0.0,
        }
    }

    #[test]
    fn from_response_copies_fields() {
        let r = response(3.0, 1.0);
        let t = CrowdTuple::from_response(7, &r);
        assert_eq!(t.id, 7);
        assert_eq!(t.attr, AttributeId(1));
        assert_eq!(t.point.t, 3.0);
        assert_eq!(t.sensor, SensorId(5));
        assert!(t.is_well_formed());
    }

    #[test]
    fn idgen_assigns_dense_unique_ids() {
        let mut g = TupleIdGen::new();
        let tuples = g.ingest(&[response(1.0, 1.0), response(2.0, 2.0), response(3.0, 3.0)]);
        let ids: Vec<u64> = tuples.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let more = g.ingest(&[response(4.0, 4.0)]);
        assert_eq!(more[0].id, 3);
    }

    #[test]
    fn malformed_tuples_are_dropped_at_ingestion() {
        let mut g = TupleIdGen::new();
        let bad = response(f64::NAN, 1.0);
        let tuples = g.ingest(&[response(1.0, 1.0), bad]);
        assert_eq!(tuples.len(), 1);
    }
}

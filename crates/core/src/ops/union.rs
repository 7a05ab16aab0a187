//! The `U` (union) operator — Section IV-B.1.

use crate::tuple::CrowdTuple;
use craqr_geom::{Rect, Region};

/// The union operator `U`: merges `P⟨j⟩(λ, R*₁)` and `P⟨j⟩(λ, R*₂)` into
/// `P⟨j⟩(λ, R*₃)` with `R*₃ = R*₁ ∪ R*₂`.
///
/// The paper requires the binary operands to be "adjacent and with a common
/// side of equal length" so that the output region is again a rectangle;
/// [`UnionOp::binary`] enforces exactly that. The paper also notes the
/// operator "can be easily extended to union multiple MDPPs at once":
/// [`UnionOp::nary`] accepts any set of pairwise-disjoint rectangles (the
/// per-cell pieces of a query footprint, which may form an L-shape) and
/// exposes whether the strict rectangular precondition happened to hold.
///
/// Execution is trivial — tuples from every input port are appended to the
/// one output; because the inputs live on disjoint regions, the
/// merged stream has the same rate λ on the union region (superposition of
/// independent Poisson processes).
pub struct UnionOp {
    inputs: Vec<Rect>,
    output: Region,
}

impl UnionOp {
    /// The paper's binary form.
    ///
    /// # Panics
    /// Panics unless the two rectangles share a full common side.
    #[track_caller]
    pub fn binary(r1: Rect, r2: Rect) -> Self {
        let merged = r1.union_adjacent(&r2).unwrap_or_else(|| {
            panic!("U requires adjacent rectangles with a common side: {r1} and {r2}")
        });
        Self { inputs: vec![r1, r2], output: Region::from_rect(merged) }
    }

    /// The k-ary extension over pairwise-disjoint rectangles.
    ///
    /// # Panics
    /// Panics when `inputs` is empty or the rectangles overlap.
    #[track_caller]
    pub fn nary(inputs: Vec<Rect>) -> Self {
        assert!(!inputs.is_empty(), "union needs at least one input");
        let output = Region::from_disjoint(inputs.clone());
        Self { inputs, output }
    }

    /// The input regions, in input-port order.
    #[inline]
    pub fn inputs(&self) -> &[Rect] {
        &self.inputs
    }

    /// The merged output region.
    #[inline]
    pub fn output_region(&self) -> &Region {
        &self.output
    }

    /// `true` when the merged region is a single rectangle — the paper's
    /// strict precondition held across all inputs.
    pub fn is_rectangular(&self) -> bool {
        self.output.part_count() == 1
    }

    /// Number of input ports.
    pub fn input_ports(&self) -> usize {
        self.inputs.len()
    }

    /// Appends `batch`, arriving on input `port`, to `out`.
    pub fn process(&self, port: usize, batch: &[CrowdTuple], out: &mut Vec<CrowdTuple>) {
        debug_assert!(port < self.inputs.len(), "tuple arrived on undeclared port {port}");
        // In debug builds, verify the routing contract: tuples on port i
        // belong to input region i.
        #[cfg(debug_assertions)]
        if let Some(region) = self.inputs.get(port) {
            for t in batch {
                debug_assert!(
                    region.contains(t.point.x, t.point.y),
                    "tuple at ({}, {}) outside port-{port} region {region}",
                    t.point.x,
                    t.point.y,
                );
            }
        }
        out.extend_from_slice(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::SpaceTimePoint;
    use craqr_sensing::{AttrValue, AttributeId, SensorId};

    fn tuple_at(x: f64, y: f64) -> CrowdTuple {
        CrowdTuple {
            id: 0,
            attr: AttributeId(0),
            point: SpaceTimePoint::new(0.0, x, y),
            value: AttrValue::Bool(true),
            sensor: SensorId(0),
        }
    }

    #[test]
    fn binary_union_merges_adjacent_rects() {
        let op = UnionOp::binary(Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(1.0, 0.0, 2.0, 1.0));
        assert!(op.is_rectangular());
        assert!(op.output_region().parts()[0].approx_eq(&Rect::new(0.0, 0.0, 2.0, 1.0)));
        assert_eq!(op.input_ports(), 2);
    }

    #[test]
    #[should_panic(expected = "adjacent rectangles")]
    fn binary_union_rejects_non_adjacent() {
        let _ = UnionOp::binary(Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(5.0, 0.0, 6.0, 1.0));
    }

    #[test]
    fn nary_union_accepts_l_shape() {
        let op = UnionOp::nary(vec![Rect::new(0.0, 0.0, 2.0, 1.0), Rect::new(0.0, 1.0, 1.0, 2.0)]);
        assert!(!op.is_rectangular());
        assert!((op.output_region().area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn forwards_tuples_from_all_ports() {
        let op = UnionOp::binary(Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(1.0, 0.0, 2.0, 1.0));
        let mut out = Vec::new();
        op.process(0, &[tuple_at(0.5, 0.5)], &mut out);
        op.process(1, &[tuple_at(1.5, 0.5), tuple_at(1.9, 0.9)], &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside port")]
    #[cfg(debug_assertions)]
    fn misrouted_tuple_caught_in_debug() {
        let op = UnionOp::binary(Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(1.0, 0.0, 2.0, 1.0));
        // Tuple from region 1 arriving on port 0.
        op.process(0, &[tuple_at(1.5, 0.5)], &mut Vec::new());
    }
}

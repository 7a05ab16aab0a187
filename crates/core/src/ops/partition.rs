//! The `P` (partition) operator — Section IV-B.1.

use crate::tuple::CrowdTuple;
use craqr_geom::Rect;

/// The partition operator `P`: splits `P⟨j⟩(λ, R*)` into processes of the
/// *same* rate on disjoint sub-regions `R*₁, …, R*ₖ` by routing each tuple
/// to the output of the region containing it.
///
/// The paper defines the binary form and notes it "can be easily extended
/// to partition processes into multiple regions"; this is the k-ary
/// extension (output `i` carries region `i`). Tuples falling in none of the
/// sub-regions are dropped — the planner uses a single-region partition to
/// carve a query's partial overlap out of a grid cell (the `Q⟨2⟩₃` case of
/// Fig. 2), where dropping the remainder is the intent. The chain's
/// [`crate::plan::OpCounters`] count them: `tuples_in − tuples_out`.
pub struct PartitionOp {
    regions: Vec<Rect>,
}

impl PartitionOp {
    /// Creates a partition over pairwise-disjoint sub-regions.
    ///
    /// # Panics
    /// Panics when `regions` is empty or any two regions overlap
    /// (`R*₁ ∩ R*₂ = ∅` is the paper's stated precondition).
    #[track_caller]
    pub fn new(regions: Vec<Rect>) -> Self {
        assert!(!regions.is_empty(), "partition needs at least one region");
        for (i, a) in regions.iter().enumerate() {
            for b in &regions[i + 1..] {
                assert!(!a.intersects(b), "partition regions overlap: {a} and {b}");
            }
        }
        Self { regions }
    }

    /// The paper's binary form.
    #[track_caller]
    pub fn binary(r1: Rect, r2: Rect) -> Self {
        Self::new(vec![r1, r2])
    }

    /// The sub-regions, in output order.
    #[inline]
    pub fn regions(&self) -> &[Rect] {
        &self.regions
    }

    /// Routes `batch`, appending each tuple to `out[i]` for the region `i`
    /// containing it, in input order.
    ///
    /// # Panics
    /// Panics unless `out` holds one buffer per region.
    #[track_caller]
    pub fn process(&mut self, batch: &[CrowdTuple], out: &mut [Vec<CrowdTuple>]) {
        assert_eq!(out.len(), self.regions.len(), "one output buffer per region");
        'tuples: for tuple in batch {
            for (region, out) in self.regions.iter().zip(out.iter_mut()) {
                if region.contains(tuple.point.x, tuple.point.y) {
                    out.push(*tuple);
                    continue 'tuples;
                }
            }
        }
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

    fn run(op: &mut PartitionOp, batch: &[CrowdTuple]) -> Vec<Vec<CrowdTuple>> {
        let mut out = vec![Vec::new(); op.regions().len()];
        op.process(batch, &mut out);
        out
    }

    #[test]
    fn routes_tuples_to_owning_region() {
        let mut op =
            PartitionOp::binary(Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(1.0, 0.0, 2.0, 1.0));
        let batch = vec![tuple_at(0.5, 0.5), tuple_at(1.5, 0.5), tuple_at(0.2, 0.9)];
        let out = run(&mut op, &batch);
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[1].len(), 1);
        assert_eq!(out[0][1].point.y, 0.9, "input order within a region");
    }

    #[test]
    fn drops_tuples_outside_all_regions() {
        let mut op = PartitionOp::new(vec![Rect::new(0.0, 0.0, 1.0, 1.0)]);
        let out = run(&mut op, &[tuple_at(0.5, 0.5), tuple_at(5.0, 5.0)]);
        assert_eq!(out[0].len(), 1, "the outside tuple is dropped");
        assert_eq!(out[0][0].point.x, 0.5);
    }

    #[test]
    fn kary_partition_covers_all_ports() {
        let regions: Vec<Rect> =
            (0..4).map(|i| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0)).collect();
        let mut op = PartitionOp::new(regions);
        assert_eq!(op.regions().len(), 4);
        let batch: Vec<CrowdTuple> = (0..4).map(|i| tuple_at(i as f64 + 0.5, 0.5)).collect();
        let out = run(&mut op, &batch);
        for (i, port) in out.iter().enumerate() {
            assert_eq!(port.len(), 1, "port {i}");
        }
    }

    #[test]
    fn rate_preservation_within_region() {
        // Partitioning must not drop or duplicate tuples inside the regions.
        let (west, east) = (Rect::new(0.0, 0.0, 1.0, 2.0), Rect::new(1.0, 0.0, 2.0, 2.0));
        let mut op = PartitionOp::binary(west, east);
        let batch: Vec<CrowdTuple> =
            (0..1000).map(|i| tuple_at((i % 20) as f64 * 0.1, (i % 7) as f64 * 0.25)).collect();
        let out = run(&mut op, &batch);
        for (region, port) in [west, east].iter().zip(&out) {
            let inside = batch.iter().filter(|t| region.contains(t.point.x, t.point.y)).count();
            assert_eq!(port.len(), inside, "every tuple in {region}, once");
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_rejected() {
        let _ = PartitionOp::binary(Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(1.0, 1.0, 3.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_partition_rejected() {
        let _ = PartitionOp::new(vec![]);
    }
}

//! Stream-level algebraic laws of the PMAT operators — the "elegant
//! properties … exploited for managing crowdsensed data streams" the paper
//! leans on (Section III-A, ref. [11] Daley & Vere-Jones).
//!
//! Each law is checked statistically on seeded streams:
//!
//! - thinning composes multiplicatively: `T_p ∘ T_q = T_{p·q}`,
//! - thinning and partition commute,
//! - flatten is (approximately) idempotent: flattening an already
//!   homogeneous stream at its own rate changes little,
//! - partition then union is the identity.

use craqr::core::ops::{FlattenConfig, FlattenOp};
use craqr::prelude::*;
use craqr::sensing::{AttrValue, AttributeId, SensorId};

fn tuples_from(points: &[SpaceTimePoint]) -> Vec<CrowdTuple> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| CrowdTuple {
            id: i as u64,
            attr: AttributeId(0),
            point: *p,
            value: AttrValue::Bool(true),
            sensor: SensorId(0),
        })
        .collect()
}

fn thin(op: &mut ThinOp, batch: &[CrowdTuple]) -> Vec<CrowdTuple> {
    let mut out = Vec::new();
    op.process(batch, &mut out);
    out
}

fn partition(op: &mut PartitionOp, batch: &[CrowdTuple]) -> Vec<Vec<CrowdTuple>> {
    let mut out = vec![Vec::new(); op.regions().len()];
    op.process(batch, &mut out);
    out
}

fn cell() -> Rect {
    Rect::with_size(10.0, 10.0)
}

fn homogeneous_stream(rate: f64, minutes: f64, seed: u64) -> Vec<CrowdTuple> {
    let w = SpaceTimeWindow::new(cell(), 0.0, minutes);
    tuples_from(&HomogeneousMdpp::new(rate, cell()).sample(&w, &mut seeded_rng(seed)))
}

#[test]
fn thinning_composes_multiplicatively() {
    let input = homogeneous_stream(8.0, 30.0, 1);
    // T(8→4) then T(4→2) …
    let mut t1 = ThinOp::new(8.0, 4.0, 10);
    let mut t2 = ThinOp::new(4.0, 2.0, 11);
    let mid = thin(&mut t1, &input);
    let composed = thin(&mut t2, &mid);
    // … must match T(8→2) in expectation.
    let mut direct_op = ThinOp::new(8.0, 2.0, 12);
    let direct = thin(&mut direct_op, &input);
    let n = input.len() as f64;
    let expect = n * 0.25;
    let sd = (n * 0.25 * 0.75).sqrt();
    assert!(
        (composed.len() as f64 - expect).abs() < 5.0 * sd,
        "composed {} vs expected {expect}",
        composed.len()
    );
    assert!(
        (direct.len() as f64 - expect).abs() < 5.0 * sd,
        "direct {} vs expected {expect}",
        direct.len()
    );
}

#[test]
fn thinning_commutes_with_partition() {
    let input = homogeneous_stream(6.0, 20.0, 2);
    let (west, east) = cell().split_at_x(4.0).unwrap();

    // Path A: thin then partition.
    let mut thin_a = ThinOp::new(6.0, 2.0, 20);
    let thinned = thin(&mut thin_a, &input);
    let mut part_a = PartitionOp::binary(west, east);
    let a = partition(&mut part_a, &thinned);

    // Path B: partition then thin each branch.
    let mut part_b = PartitionOp::binary(west, east);
    let halves = partition(&mut part_b, &input);
    let mut thin_w = ThinOp::new(6.0, 2.0, 21);
    let mut thin_e = ThinOp::new(6.0, 2.0, 22);
    let b_west = thin(&mut thin_w, &halves[0]);
    let b_east = thin(&mut thin_e, &halves[1]);

    // Same expected counts per branch (west is 40% of the area).
    let minutes = 20.0;
    for (got, area, label) in [
        (a[0].len(), west.area(), "A west"),
        (a[1].len(), east.area(), "A east"),
        (b_west.len(), west.area(), "B west"),
        (b_east.len(), east.area(), "B east"),
    ] {
        let expect = 2.0 * area * minutes;
        let sd = expect.sqrt();
        assert!((got as f64 - expect).abs() < 5.0 * sd, "{label}: {got} vs expected {expect:.0}");
    }
}

#[test]
fn flatten_is_approximately_idempotent_on_homogeneous_input() {
    let input = homogeneous_stream(1.0, 10.0, 7);
    let mut op = FlattenOp::new(FlattenConfig {
        cell: cell(),
        batch_duration: 10.0,
        target_rate: 1.0,
        seed: 40,
    });
    let mut out = Vec::new();
    op.process(&input, &mut out);
    // Flattening an already-homogeneous stream at its own rate keeps
    // (nearly) everything: the retaining probabilities sit at ≈ 1.
    let kept_frac = out.len() as f64 / input.len() as f64;
    assert!(kept_frac > 0.9, "kept only {kept_frac:.2} of a homogeneous stream");
    // Any clamping shows up as violations, which is fine — they mean p ≥ 1,
    // i.e. the operator recognises there is nothing to remove.
    assert!(op.report().last_nv() >= 0.0);
    let points: Vec<_> = out.iter().map(|t| t.point).collect();
    let w = SpaceTimeWindow::new(cell(), 0.0, 10.0);
    let rep = homogeneity_report(&points, &w, 4, 2);
    assert!(rep.is_homogeneous(0.001));
}

#[test]
fn partition_union_identity_over_grid_cells() {
    // Partition a stream over a 3×3 grid of sub-cells, then U-merge all
    // nine pieces: identity on the tuple multiset.
    let input = homogeneous_stream(2.0, 10.0, 8);
    let grid = Grid::new(cell(), 3);
    let rects: Vec<Rect> = grid.all_cells().map(|c| grid.cell_rect(c)).collect();
    let mut p = PartitionOp::new(rects.clone());
    let pieces = partition(&mut p, &input);
    assert_eq!(pieces.iter().map(Vec::len).sum::<usize>(), input.len(), "grid covers the region");

    let u = UnionOp::nary(rects);
    assert!(u.is_rectangular(), "3×3 block merges to one rect");
    let mut merged = Vec::new();
    for (i, piece) in pieces.iter().enumerate() {
        u.process(i, piece, &mut merged);
    }
    assert_eq!(merged.len(), input.len());
    let mut ids: Vec<u64> = merged.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    let want: Vec<u64> = (0..input.len() as u64).collect();
    assert_eq!(ids, want);
}

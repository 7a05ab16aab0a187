//! Operator playground: the PMAT algebra without the server.
//!
//! ```text
//! cargo run --release --example operator_playground
//! ```
//!
//! Drives the four published PMAT operators (`F`, `T`, `P`, `U`) directly
//! on synthetic point processes and prints the before/after statistics that
//! make their "provable expected behaviour" visible:
//!
//! - `F` turns a spatially skewed stream into an approximately homogeneous
//!   one (χ² p-value jumps, count CV collapses);
//! - `T` scales the rate by exactly `λ2/λ1`;
//! - `P` splits a stream by region without changing local rates;
//! - `U` reassembles adjacent pieces.

use craqr::core::ops::FlattenConfig;
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

fn main() {
    let mut rng = seeded_rng(7);
    let cell = Rect::with_size(10.0, 10.0);
    let window = SpaceTimeWindow::new(cell, 0.0, 10.0);

    // ---- F: flatten a skewed stream -------------------------------------
    println!("== F (flatten) ==");
    let skewed = InhomogeneousMdpp::new(LinearIntensity::new([0.3, 0.0, 0.7, 0.0]), cell);
    let raw = skewed.sample(&window, &mut rng);
    let in_rep = homogeneity_report(&raw, &window, 4, 2);
    let mut flatten =
        FlattenOp::new(FlattenConfig { cell, batch_duration: 10.0, target_rate: 0.6, seed: 1 });
    let mut flat = Vec::new();
    flatten.process(&tuples_from(&raw), &mut flat);
    let flat_points: Vec<SpaceTimePoint> = flat.iter().map(|t| t.point).collect();
    let out_rep = homogeneity_report(&flat_points, &window, 4, 2);
    println!(
        "input : n={:<6} χ² p={:<10.3e} count CV={:.3}",
        in_rep.n, in_rep.chi_square.p_value, in_rep.count_cv
    );
    println!(
        "output: n={:<6} χ² p={:<10.3e} count CV={:.3}",
        out_rep.n, out_rep.chi_square.p_value, out_rep.count_cv
    );
    println!("rate violations N_v = {:.1}%\n", flatten.report().last_nv());

    // ---- T: thin a homogeneous stream -----------------------------------
    println!("== T (thin) ==");
    let homog = HomogeneousMdpp::new(2.0, cell);
    let stream = tuples_from(&homog.sample(&window, &mut rng));
    let mut thin = ThinOp::new(2.0, 0.5, 11);
    let mut thinned = Vec::new();
    thin.process(&stream, &mut thinned);
    println!(
        "{} tuples at λ=2.0 → {} tuples (expected ≈ {:.0} at λ=0.5, p={})",
        stream.len(),
        thinned.len(),
        0.5 * window.volume(),
        thin.probability()
    );
    println!();

    // ---- P: partition by region ------------------------------------------
    println!("== P (partition) ==");
    let west = Rect::new(0.0, 0.0, 5.0, 10.0);
    let east = Rect::new(5.0, 0.0, 10.0, 10.0);
    let mut partition = PartitionOp::binary(west, east);
    let mut halves = vec![Vec::new(); 2];
    partition.process(&thinned, &mut halves);
    println!(
        "west: {} tuples ({:.2} /km²/min), east: {} tuples ({:.2} /km²/min)",
        halves[0].len(),
        halves[0].len() as f64 / (west.area() * 10.0),
        halves[1].len(),
        halves[1].len() as f64 / (east.area() * 10.0),
    );
    println!();

    // ---- U: union adjacent pieces ----------------------------------------
    println!("== U (union) ==");
    let union = UnionOp::binary(west, east);
    let mut rejoined = Vec::new();
    union.process(0, &halves[0], &mut rejoined);
    union.process(1, &halves[1], &mut rejoined);
    println!(
        "rejoined {} tuples on {} (rectangular: {})",
        rejoined.len(),
        union.output_region(),
        union.is_rectangular()
    );
    assert_eq!(rejoined.len(), thinned.len(), "U must lose nothing");
}

//! Cross-crate property tests: PMAT operator contracts and planner
//! invariants under randomized inputs.

use craqr::core::ops::{FlattenConfig, FlattenOp};
use craqr::core::plan::PlannerConfig;
use craqr::core::{AcquisitionQuery, Fabricator, PartitionOp, ThinOp, UnionOp};
use craqr::prelude::*;
use craqr::sensing::{AttrValue, AttributeId, SensorId};
use proptest::prelude::*;

fn tuple_at(id: u64, t: f64, x: f64, y: f64) -> CrowdTuple {
    CrowdTuple {
        id,
        attr: AttributeId(0),
        point: SpaceTimePoint::new(t, x, y),
        value: AttrValue::Bool(true),
        sensor: SensorId(0),
    }
}

fn thin(op: &mut ThinOp, batch: &[CrowdTuple]) -> Vec<CrowdTuple> {
    let mut out = Vec::new();
    op.process(batch, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Thinning keeps each tuple independently with probability λ2/λ1; the
    /// kept fraction concentrates around it (Chernoff-ish 5σ slack).
    #[test]
    fn thin_keeps_expected_fraction(
        lambda1 in 1.0f64..20.0,
        ratio in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let lambda2 = lambda1 * ratio;
        let mut op = ThinOp::new(lambda1, lambda2, seed);
        let n = 8_000usize;
        let batch: Vec<CrowdTuple> =
            (0..n).map(|i| tuple_at(i as u64, i as f64, 0.5, 0.5)).collect();
        let kept = thin(&mut op, &batch).len() as f64;
        let expect = ratio * n as f64;
        let sd = (n as f64 * ratio * (1.0 - ratio)).sqrt().max(1.0);
        prop_assert!(
            (kept - expect).abs() < 5.0 * sd + 1.0,
            "kept {kept}, expected {expect} ± {sd}"
        );
    }

    /// Thinning never invents, duplicates, or reorders tuples.
    #[test]
    fn thin_output_is_an_ordered_subset(
        seed in any::<u64>(),
        n in 1usize..500,
    ) {
        let mut op = ThinOp::new(2.0, 1.0, seed);
        let batch: Vec<CrowdTuple> =
            (0..n).map(|i| tuple_at(i as u64, i as f64, 0.1, 0.1)).collect();
        let out = thin(&mut op, &batch);
        let ids: Vec<u64> = out.iter().map(|t| t.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&ids, &sorted, "subset must stay ordered and unique");
        prop_assert!(out.len() <= n);
    }

    /// Partition + union over a random split is lossless for in-region
    /// tuples.
    #[test]
    fn partition_union_round_trip(
        split in 0.1f64..0.9,
        n in 1usize..400,
        seed in any::<u64>(),
    ) {
        let cell = Rect::with_size(1.0, 1.0);
        let (west, east) = cell.split_at_x(split).expect("interior split");
        let mut rng = seeded_rng(seed);
        let batch: Vec<CrowdTuple> = (0..n)
            .map(|i| {
                use rand::Rng;
                tuple_at(i as u64, i as f64, rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))
            })
            .collect();

        let mut p = PartitionOp::binary(west, east);
        let mut halves = vec![Vec::new(); 2];
        p.process(&batch, &mut halves);
        prop_assert_eq!(halves[0].len() + halves[1].len(), n, "partition is exhaustive");

        let u = UnionOp::binary(west, east);
        let mut rejoined = Vec::new();
        u.process(0, &halves[0], &mut rejoined);
        u.process(1, &halves[1], &mut rejoined);
        prop_assert_eq!(rejoined.len(), n, "union is lossless");
        let mut ids: Vec<u64> = rejoined.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        let want: Vec<u64> = (0..n as u64).collect();
        prop_assert_eq!(ids, want);
    }

    /// Flatten's retained count never exceeds the batch and stays near the
    /// target when the batch is abundant.
    #[test]
    fn flatten_respects_target_count(
        target_rate in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let cell = Rect::with_size(4.0, 4.0);
        let mut op = FlattenOp::new(FlattenConfig {
            cell,
            batch_duration: 10.0,
            target_rate,
            seed,
        });
        let window = SpaceTimeWindow::new(cell, 0.0, 10.0);
        let pts = HomogeneousMdpp::new(2.0, cell).sample(&window, &mut seeded_rng(seed));
        let batch: Vec<CrowdTuple> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| tuple_at(i as u64, p.t, p.x, p.y))
            .collect();
        let mut out = Vec::new();
        op.process(&batch, &mut out);
        prop_assert!(out.len() <= batch.len());
        let target = target_rate * window.volume();
        let sd = target.sqrt().max(1.0);
        prop_assert!(
            (out.len() as f64 - target).abs() < 6.0 * sd,
            "kept {} vs target {target}",
            out.len()
        );
        prop_assert!(op.report().last_nv() < 20.0, "abundant batch should rarely violate");
    }

    /// Random insert/delete sequences preserve every chain invariant and
    /// end empty.
    #[test]
    fn planner_survives_random_query_churn(
        ops in prop::collection::vec((0.2f64..8.0, 0u8..4, 0u8..4), 1..24),
        seed in any::<u64>(),
    ) {
        let mut fab = Fabricator::new(
            Rect::with_size(4.0, 4.0),
            PlannerConfig { grid_side: 4, seed, ..Default::default() },
        );
        let mut live: Vec<QueryId> = Vec::new();
        for (rate, qx, qy) in ops {
            // Insert a 1–2 cell query at a random grid-aligned spot.
            let x0 = qx as f64;
            let y0 = qy as f64;
            let x1 = (x0 + 1.0 + (qx % 2) as f64).min(4.0);
            let query = AcquisitionQuery::new(AttributeId(0), Rect::new(x0, y0, x1, y0 + 1.0), rate);
            let qid = fab.insert_query(query).expect("grid-aligned query plans");
            live.push(qid);
            // Every third insert, delete the oldest standing query.
            if live.len().is_multiple_of(3) {
                let victim = live.remove(0);
                fab.delete_query(victim).expect("victim standing");
            }
            // Invariants are asserted inside the chain on every mutation;
            // additionally check global consistency here.
            for qid in &live {
                prop_assert!(fab.query_plan(*qid).is_some());
            }
        }
        for qid in live {
            fab.delete_query(qid).expect("standing");
        }
        prop_assert_eq!(fab.materialized_cells(), 0);
        prop_assert_eq!(fab.materialized_chains(), 0);
    }

    /// The declarative parser and the typed constructor agree.
    #[test]
    fn parser_round_trips_typed_queries(
        x0 in 0.0f64..3.0,
        y0 in 0.0f64..3.0,
        w in 0.5f64..2.0,
        h in 0.5f64..2.0,
        rate in 0.01f64..100.0,
    ) {
        use craqr::core::query::parse_query;
        let mut catalog = AttributeCatalog::new();
        let attr = catalog.register("temp", false);
        let text = format!(
            "ACQUIRE temp FROM RECT({x0}, {y0}, {}, {}) RATE {rate}",
            x0 + w,
            y0 + h
        );
        let parsed = parse_query(&text, &catalog).expect("valid text");
        prop_assert_eq!(parsed.attr, attr);
        prop_assert!((parsed.rate - rate).abs() < 1e-12);
        prop_assert!(parsed.region.approx_eq(&Rect::new(x0, y0, x0 + w, y0 + h)));
    }
}

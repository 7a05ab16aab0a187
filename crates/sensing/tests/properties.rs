//! Property tests for the crowd simulator: containment, determinism, and
//! response-behaviour laws under randomized parameters.

use craqr_geom::Rect;
use craqr_sensing::fields::ConstantField;
use craqr_sensing::{
    AttrValue, AttributeId, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
    ResponseModel,
};
use craqr_stats::seeded_rng;
use proptest::prelude::*;

fn mobility_strategy() -> impl Strategy<Value = Mobility> {
    prop_oneof![
        Just(Mobility::Stationary),
        (0.01f64..2.0).prop_map(|sigma| Mobility::RandomWalk { sigma }),
        (0.01f64..1.0, 0.0f64..10.0).prop_map(|(s, p)| Mobility::random_waypoint(s, p)),
        (0.0f64..0.95, 0.0f64..1.0, 0.0f64..0.5)
            .prop_map(|(a, m, s)| Mobility::gauss_markov(a, m, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_mobility_model_stays_inside_every_region(
        mut mobility in mobility_strategy(),
        w in 1.0f64..30.0,
        h in 1.0f64..30.0,
        dt in 0.1f64..5.0,
        seed in any::<u64>(),
    ) {
        let region = Rect::with_size(w, h);
        let mut rng = seeded_rng(seed);
        let mut pos = (w * 0.5, h * 0.5);
        for _ in 0..200 {
            pos = mobility.step(pos, dt, &region, &mut rng);
            prop_assert!(region.contains(pos.0, pos.1), "escaped to {pos:?}");
        }
    }

    #[test]
    fn response_probability_is_monotone_in_incentive(
        base in 0.0f64..1.0,
        sensitivity in 0.0f64..5.0,
        i1 in 0.0f64..10.0,
        di in 0.0f64..10.0,
    ) {
        let m = ResponseModel::new(base, sensitivity, 1.0);
        let p1 = m.response_probability(i1);
        let p2 = m.response_probability(i1 + di);
        prop_assert!(p2 >= p1 - 1e-12);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!((0.0..=1.0).contains(&p2));
    }

    #[test]
    fn crowd_worlds_are_deterministic(
        size in 1usize..150,
        seed in any::<u64>(),
        requests in 1usize..50,
    ) {
        let run = || {
            let region = Rect::with_size(5.0, 5.0);
            let mut c = Crowd::new(CrowdConfig {
                region,
                population: PopulationConfig {
                    size,
                    placement: Placement::Uniform,
                    mobility: Mobility::RandomWalk { sigma: 0.2 },
                    human_fraction: 0.5,
                },
                seed,
            });
            c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Bool(true))));
            c.dispatch_requests(AttributeId(0), &region, requests, 0.5);
            c.step(1.0);
            c.step(1.0);
            let responses = c.drain_responses();
            (responses.len(), responses.first().map(|r| (r.sensor, r.measurement.point.t)))
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn responses_never_outnumber_requests_without_replacement(
        size in 50usize..200,
        requests in 1usize..50,
        seed in any::<u64>(),
    ) {
        let region = Rect::with_size(5.0, 5.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility: Mobility::Stationary,
                human_fraction: 0.0,
            },
            seed,
        });
        c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Bool(true))));
        let sent = c.dispatch_requests(AttributeId(0), &region, requests, 0.0);
        prop_assert!(sent <= requests);
        for _ in 0..20 {
            c.step(1.0);
        }
        let responses = c.drain_responses();
        prop_assert!(responses.len() <= sent, "{} responses from {sent} requests", responses.len());
    }

    #[test]
    fn placement_always_lands_inside_region(
        w in 1.0f64..20.0,
        h in 1.0f64..20.0,
        cx in -30.0f64..30.0,
        cy in -30.0f64..30.0,
        sigma in 0.05f64..5.0,
        floor in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let region = Rect::with_size(w, h);
        let placement = Placement::Hotspots { spots: vec![(cx, cy, 1.0, sigma)], floor };
        let mut rng = seeded_rng(seed);
        for _ in 0..100 {
            let (x, y) = placement.sample(&region, &mut rng);
            prop_assert!(region.contains(x, y), "({x}, {y}) outside {region}");
        }
    }
}

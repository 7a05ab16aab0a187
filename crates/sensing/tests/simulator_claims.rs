//! What the simulated crowd promises, as seeded claims: the random walk's
//! step law, reflection at the walls, the response-latency law and the
//! participation probability. Each claim names its seed and tolerance,
//! and a mutation of the simulator that fails it.
//!
//! Run with `cargo test --release -p craqr-sensing --test simulator_claims`.

use craqr_geom::Rect;
use craqr_sensing::fields::ConstantField;
use craqr_sensing::{
    AttrValue, AttributeId, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
    ResponseModel,
};
use craqr_stats::special::std_normal_cdf;
use craqr_stats::{ks_exponential, seeded_rng, OnlineMoments};

/// A walk's step noise, σ (km per √minute), and the step length (minutes).
const SIGMA: f64 = 0.3;
const DT: f64 = 0.25;
/// Steps sampled by the walk claims.
const STEPS: usize = 20_000;

/// `STEPS` single steps of a random walk from the centre of a region far
/// larger than a step (1 000 km against σ√dt = 0.15 km), so no wall is in
/// reach: the `(dx, dy)` displacement of each step. Seed 11.
fn walk_steps() -> Vec<(f64, f64)> {
    let region = Rect::with_size(1_000.0, 1_000.0);
    let centre = (500.0, 500.0);
    let mut walk = Mobility::RandomWalk { sigma: SIGMA };
    let mut rng = seeded_rng(11);
    (0..STEPS)
        .map(|_| {
            let (x, y) = walk.step(centre, DT, &region, &mut rng);
            (x - centre.0, y - centre.1)
        })
        .collect()
}

/// **The walk's per-axis displacement is N(0, σ²·dt)**, away from the
/// walls (seed 11, 20 000 steps, σ = 0.3, dt = 0.25). On each axis:
/// - the mean is within 4 standard errors of 0;
/// - the variance is within 5 % of σ²·dt (its standard error is ≈ 1 %);
/// - a Kolmogorov–Smirnov test against N(0, σ²·dt) keeps p ≥ 0.001.
///
/// Mutation that fails it: drawing the step with `sigma * dt` in place of
/// `sigma * dt.sqrt()` (the variance reads 0.25 of the claim's).
#[test]
fn the_walk_steps_each_axis_by_a_centred_normal_of_variance_sigma_squared_dt() {
    let steps = walk_steps();
    let sd = SIGMA * DT.sqrt();
    for (axis, pick) in [("x", 0), ("y", 1)] {
        let values: Vec<f64> =
            steps.iter().map(|&(dx, dy)| if pick == 0 { dx } else { dy }).collect();
        let mut m = OnlineMoments::new();
        values.iter().for_each(|&v| m.push(v));
        let se = sd / (STEPS as f64).sqrt();
        assert!(m.mean().abs() < 4.0 * se, "{axis}: mean {} (se {se})", m.mean());
        let ratio = m.variance() / (sd * sd);
        assert!((ratio - 1.0).abs() < 0.05, "{axis}: variance ratio {ratio}");
        // Φ maps N(0, sd²) onto U(0, 1), and −ln(1 − U) onto Exp(1); a KS
        // test is invariant under that monotone map.
        let exp: Vec<f64> = values.iter().map(|&v| -(1.0 - std_normal_cdf(v / sd)).ln()).collect();
        let ks = ks_exponential(&exp, 1.0);
        assert!(ks.accepts(0.001), "{axis}: KS D = {} p = {}", ks.statistic, ks.p_value);
    }
}

/// **A step's x and y displacements are uncorrelated** (seed 11, 20 000
/// steps): their sample correlation is within 4/√n ≈ 0.028 of 0.
///
/// Mutation that fails it: drawing both axes from the cosine of one
/// Box–Muller pair (the correlation reads 1).
#[test]
fn a_steps_two_axes_are_uncorrelated() {
    let steps = walk_steps();
    let n = steps.len() as f64;
    let mean = |f: &dyn Fn(&(f64, f64)) -> f64| steps.iter().map(f).sum::<f64>() / n;
    let (mx, my) = (mean(&|s| s.0), mean(&|s| s.1));
    let cov = mean(&|s| (s.0 - mx) * (s.1 - my));
    let (vx, vy) = (mean(&|s| (s.0 - mx).powi(2)), mean(&|s| (s.1 - my).powi(2)));
    let r = cov / (vx * vy).sqrt();
    assert!(r.abs() < 4.0 / n.sqrt(), "corr(dx, dy) = {r}");
}

/// A crowd of `size` sensors on a 5 × 5 km region with one constant
/// attribute.
fn crowd(size: usize, mobility: Mobility, placement: Placement, seed: u64) -> Crowd {
    let mut c = Crowd::new(CrowdConfig {
        region: Rect::with_size(5.0, 5.0),
        population: PopulationConfig { size, placement, mobility, human_fraction: 0.0 },
        seed,
    });
    c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Bool(true))));
    c
}

/// **Reflection keeps every sensor in the region**: 2 000 sensors whose
/// step noise is large against the 5 × 5 km region (a walk with σ = 1.5,
/// Gauss–Markov with σ = 2 km/min), placed at the walls' hotspots, each
/// advanced 50 epochs of four 1-minute sub-steps (seeds 21, 22). After
/// every epoch, every sensor is inside. No tolerance.
///
/// Mutation that fails it: returning the raw position from
/// `Mobility::step` without `reflect` (walkers leave at the first epoch).
#[test]
fn reflection_keeps_every_sensor_in_the_region() {
    let corner = Placement::Hotspots { spots: vec![(0.1, 4.9, 1.0, 0.2)], floor: 0.0 };
    let models =
        [(Mobility::RandomWalk { sigma: 1.5 }, 21), (Mobility::gauss_markov(0.5, 1.0, 2.0), 22)];
    for (mobility, seed) in models {
        let mut c = crowd(2_000, mobility.clone(), corner.clone(), seed);
        let region = c.region();
        for epoch in 0..50 {
            c.advance(1.0, 4);
            for s in c.sensors() {
                let (x, y) = s.position();
                assert!(region.contains(x, y), "{mobility:?} epoch {epoch}: ({x}, {y}) escaped");
            }
        }
    }
}

/// **Response latencies follow their configured exponential law**: 4 000
/// requests, issued at once to 5 000 stationary sensors that always answer
/// after an Exp(mean 2 min) delay, drained after 200 minutes of 0.5-minute
/// steps (seed 31). The latencies (`point.t − issued_at`) keep a KS
/// p-value ≥ 0.001 against Exp(rate 0.5), and their mean is within 4
/// standard errors (≈ 0.13 min) of 2.
///
/// Mutation that fails it: `Exponential::new(self.mean_latency)` in
/// `ResponseModel::draw_response` (the rate in place of its inverse; the
/// mean reads 0.5).
#[test]
fn response_latencies_follow_their_exponential_law() {
    let mean_latency = 2.0;
    let mut c = crowd(5_000, Mobility::Stationary, Placement::Uniform, 31);
    c.set_all_response_models(ResponseModel::new(1.0, 0.0, mean_latency));
    let region = c.region();
    let sent = c.dispatch_requests(AttributeId(0), &region, 4_000, 0.0);
    assert_eq!(sent, 4_000);
    for _ in 0..400 {
        c.step(0.5);
    }
    let latencies: Vec<f64> =
        c.drain_responses().iter().map(|r| r.measurement.point.t - r.issued_at).collect();
    assert_eq!(latencies.len(), sent, "a sure responder answered every request");
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let se = mean_latency / (latencies.len() as f64).sqrt();
    assert!((mean - mean_latency).abs() < 4.0 * se, "mean latency {mean} (se {se})");
    let ks = ks_exponential(&latencies, 1.0 / mean_latency);
    assert!(ks.accepts(0.001), "KS D = {} p = {}", ks.statistic, ks.p_value);
}

/// **Participation meets its p**: 4 000 requests with incentive 0.5 to
/// 5 000 stationary sensors of base probability 0.3 and incentive
/// sensitivity 1, so `p = 0.3 + 0.7·(1 − e^−0.5) ≈ 0.575` (seed 41). The
/// answered share is within 4 binomial standard errors (≈ 0.031) of p.
///
/// Mutation that fails it: ignoring the incentive in
/// `ResponseModel::response_probability` (the share reads 0.3).
#[test]
fn participation_meets_its_probability() {
    let model = ResponseModel::new(0.3, 1.0, 0.5);
    let incentive = 0.5;
    let p = model.response_probability(incentive);
    assert!((p - (0.3 + 0.7 * (1.0 - (-0.5f64).exp()))).abs() < 1e-12, "p = {p}");
    let mut c = crowd(5_000, Mobility::Stationary, Placement::Uniform, 41);
    c.set_all_response_models(model);
    let region = c.region();
    let sent = c.dispatch_requests(AttributeId(0), &region, 4_000, incentive);
    for _ in 0..40 {
        c.step(1.0);
    }
    let answered = c.drain_responses().len();
    let share = answered as f64 / sent as f64;
    let se = (p * (1.0 - p) / sent as f64).sqrt();
    assert!((share - p).abs() < 4.0 * se, "answered {answered} of {sent}: {share} vs p {p}");
}

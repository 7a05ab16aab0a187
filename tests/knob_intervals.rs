//! Every layer reads the same interval: for each float knob a runtime type
//! owns, a spec document, the owner's validator (or, for a knob with no
//! validator, its constructor) reject the same just-outside value with the
//! same path and message, and accept each closed edge of the range.

use craqr::adaptive::{AdaptiveConfig, DetectorConfig};
use craqr::core::{BudgetPool, BudgetTuner, ErrorModel, PlannerConfig, RetryPolicy, ServerConfig};
use craqr::mdpp::SgdConfig;
use craqr::scenario::{MobilitySpec, PlacementSpec, ScenarioSpec};
use craqr::sensing::{Mobility, Placement, PopulationConfig};

const BASE: &str = r#"
name = "knobs"
seed = 3
epochs = 2

[grid]
size_km = 4.0
side = 4

[population]
size = 50
human_fraction = 0.5
placement = { kind = "uniform" }
mobility = { kind = "stationary" }

[errors]
gps_sigma = 0.05
bool_flip_prob = 0.1
value_sigma = 0.5

[[attributes]]
name = "temp"
field = { kind = "constant", value = 21.0 }

[[tenants]]
name = "alice"
pool = 200.0

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"
tenant = "alice"

[adaptive]

[faults.retry]
"#;

/// The owner's verdict on a value, as `(path, message)`.
type Verdict = Result<(), (&'static str, String)>;

struct Knob {
    path: &'static str,
    /// The range in words, as every layer prints it.
    rule: &'static str,
    outside: f64,
    edges: &'static [f64],
    /// Puts the value into a parsed spec.
    set: fn(&mut ScenarioSpec, f64),
    /// The owning type's check of the same value, built in code.
    owner: fn(f64) -> Verdict,
}

fn server(config: ServerConfig) -> Verdict {
    config.validate()
}

fn tuner(tuner: BudgetTuner) -> Verdict {
    server(ServerConfig { tuner, ..ServerConfig::default() })
}

fn errors(error_model: ErrorModel) -> Verdict {
    server(ServerConfig { error_model, ..ServerConfig::default() })
}

fn population(edit: impl FnOnce(&mut PopulationConfig)) -> Verdict {
    let mut config = PopulationConfig {
        size: 10,
        placement: Placement::Uniform,
        mobility: Mobility::Stationary,
        human_fraction: 0.5,
    };
    edit(&mut config);
    config.validate()
}

fn waypoint(speed: f64, pause: f64) -> Mobility {
    Mobility::RandomWaypoint { speed, pause, target: None, pause_left: 0.0 }
}

fn gauss_markov(alpha: f64, mean_speed: f64, sigma: f64) -> Mobility {
    Mobility::GaussMarkov { alpha, mean_speed, sigma, velocity: (0.0, 0.0) }
}

fn sgd(estimator: SgdConfig) -> Verdict {
    AdaptiveConfig { estimator, ..AdaptiveConfig::default() }.validate()
}

fn detector(detector: DetectorConfig) -> Verdict {
    AdaptiveConfig { detector, ..AdaptiveConfig::default() }.validate()
}

/// `BudgetPool` has no validator: its constructor's assert speaks for it.
fn pool(capacity: f64) -> Verdict {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(|| BudgetPool::new(capacity));
    std::panic::set_hook(hook);
    outcome.map(|_| ()).map_err(|payload| {
        let text = payload.downcast_ref::<String>().expect("a formatted panic");
        ("tenants[0].pool", text.strip_prefix("pool capacity ").expect("names the knob").into())
    })
}

fn adaptive(s: &mut ScenarioSpec) -> &mut craqr::scenario::AdaptiveSpec {
    s.adaptive.as_mut().expect("the base declares [adaptive]")
}

fn retry(s: &mut ScenarioSpec) -> &mut craqr::scenario::RetrySpec {
    s.faults.as_mut().and_then(|f| f.retry.as_mut()).expect("the base declares [faults.retry]")
}

fn knobs() -> Vec<Knob> {
    vec![
        Knob {
            path: "planner.batch_minutes",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| s.planner.batch_minutes = v,
            owner: |v| PlannerConfig { batch_duration: v, ..PlannerConfig::default() }.validate(),
        },
        Knob {
            path: "planner.f_headroom",
            rule: ">= 1",
            outside: 0.5,
            edges: &[1.0],
            set: |s, v| s.planner.f_headroom = v,
            owner: |v| PlannerConfig { f_headroom: v, ..PlannerConfig::default() }.validate(),
        },
        Knob {
            path: "budget.initial",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| s.budget.initial = v,
            owner: |v| server(ServerConfig { initial_budget: v, ..ServerConfig::default() }),
        },
        Knob {
            path: "budget.nv_threshold",
            rule: "in [0,100]",
            outside: 100.5,
            edges: &[0.0, 100.0],
            set: |s, v| s.budget.nv_threshold = v,
            owner: |v| tuner(BudgetTuner { nv_threshold: v, ..BudgetTuner::default() }),
        },
        Knob {
            path: "budget.delta",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| s.budget.delta = v,
            owner: |v| tuner(BudgetTuner { delta: v, ..BudgetTuner::default() }),
        },
        Knob {
            path: "budget.min",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| s.budget.min = v,
            owner: |v| tuner(BudgetTuner { min_budget: v, ..BudgetTuner::default() }),
        },
        Knob {
            path: "errors.gps_sigma",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| s.errors.as_mut().unwrap().gps_sigma = v,
            owner: |v| errors(ErrorModel { gps_sigma: v, ..ErrorModel::none() }),
        },
        Knob {
            path: "errors.bool_flip_prob",
            rule: "in [0,1]",
            outside: 1.5,
            edges: &[0.0, 1.0],
            set: |s, v| s.errors.as_mut().unwrap().bool_flip_prob = v,
            owner: |v| errors(ErrorModel { bool_flip_prob: v, ..ErrorModel::none() }),
        },
        Knob {
            path: "errors.value_sigma",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| s.errors.as_mut().unwrap().value_sigma = v,
            owner: |v| errors(ErrorModel { value_sigma: v, ..ErrorModel::none() }),
        },
        Knob {
            path: "faults.retry.threshold",
            rule: "in [0,1]",
            outside: 1.5,
            edges: &[0.0, 1.0],
            set: |s, v| retry(s).threshold = v,
            owner: |v| RetryPolicy { shortfall_threshold: v, ..RetryPolicy::default() }.validate(),
        },
        Knob {
            path: "faults.retry.backoff",
            rule: "in (0,1]",
            outside: 0.0,
            edges: &[1.0],
            set: |s, v| retry(s).backoff = v,
            owner: |v| RetryPolicy { backoff: v, ..RetryPolicy::default() }.validate(),
        },
        Knob {
            path: "tenants[0].pool",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| s.tenants[0].pool = v,
            owner: pool,
        },
        Knob {
            path: "population.human_fraction",
            rule: "in [0,1]",
            outside: 1.5,
            edges: &[0.0, 1.0],
            set: |s, v| s.population.human_fraction = v,
            owner: |v| population(|p| p.human_fraction = v),
        },
        Knob {
            path: "population.placement.floor",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| {
                s.population.placement =
                    PlacementSpec::Hotspots { floor: v, spots: vec![(1.0, 1.0, 2.0, 0.5)] }
            },
            owner: |v| {
                population(|p| {
                    p.placement =
                        Placement::Hotspots { spots: vec![(1.0, 1.0, 2.0, 0.5)], floor: v }
                })
            },
        },
        Knob {
            path: "population.mobility.sigma",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| s.population.mobility = MobilitySpec::Walk { sigma: v },
            owner: |v| population(|p| p.mobility = Mobility::RandomWalk { sigma: v }),
        },
        Knob {
            path: "population.mobility.speed",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| s.population.mobility = MobilitySpec::Waypoint { speed: v, pause: 4.0 },
            owner: |v| population(|p| p.mobility = waypoint(v, 4.0)),
        },
        Knob {
            path: "population.mobility.pause",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| s.population.mobility = MobilitySpec::Waypoint { speed: 0.1, pause: v },
            owner: |v| population(|p| p.mobility = waypoint(0.1, v)),
        },
        Knob {
            path: "population.mobility.alpha",
            rule: "in [0,1)",
            outside: 1.0,
            edges: &[0.0],
            set: |s, v| {
                s.population.mobility =
                    MobilitySpec::GaussMarkov { alpha: v, mean_speed: 0.1, sigma: 0.05 }
            },
            owner: |v| population(|p| p.mobility = gauss_markov(v, 0.1, 0.05)),
        },
        Knob {
            path: "population.mobility.mean_speed",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| {
                s.population.mobility =
                    MobilitySpec::GaussMarkov { alpha: 0.5, mean_speed: v, sigma: 0.05 }
            },
            owner: |v| population(|p| p.mobility = gauss_markov(0.5, v, 0.05)),
        },
        Knob {
            path: "population.mobility.sigma",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| {
                s.population.mobility =
                    MobilitySpec::GaussMarkov { alpha: 0.5, mean_speed: 0.1, sigma: v }
            },
            owner: |v| population(|p| p.mobility = gauss_markov(0.5, 0.1, v)),
        },
        Knob {
            path: "adaptive.slack",
            rule: ">= 0",
            outside: -1.0,
            edges: &[0.0],
            set: |s, v| adaptive(s).slack = v,
            owner: |v| detector(DetectorConfig { slack: v, ..DetectorConfig::default() }),
        },
        Knob {
            path: "adaptive.threshold",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| adaptive(s).threshold = v,
            owner: |v| detector(DetectorConfig { threshold: v, ..DetectorConfig::default() }),
        },
        Knob {
            path: "adaptive.gamma0",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| adaptive(s).gamma0 = v,
            owner: |v| sgd(SgdConfig { gamma0: v, ..SgdConfig::default() }),
        },
        Knob {
            path: "adaptive.decay_batches",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| adaptive(s).decay_batches = v,
            owner: |v| sgd(SgdConfig { decay_batches: v, ..SgdConfig::default() }),
        },
        Knob {
            path: "adaptive.initial_rate",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| adaptive(s).initial_rate = v,
            owner: |v| sgd(SgdConfig { initial_rate: v, ..SgdConfig::default() }),
        },
        Knob {
            path: "adaptive.budget_pool",
            rule: "> 0",
            outside: 0.0,
            edges: &[],
            set: |s, v| adaptive(s).budget_pool = Some(v),
            owner: |v| {
                AdaptiveConfig { budget_pool: Some(v), ..AdaptiveConfig::default() }.validate()
            },
        },
        Knob {
            path: "adaptive.demand_headroom",
            rule: ">= 1",
            outside: 0.5,
            edges: &[1.0],
            set: |s, v| adaptive(s).demand_headroom = v,
            owner: |v| {
                AdaptiveConfig { demand_headroom: v, ..AdaptiveConfig::default() }.validate()
            },
        },
    ]
}

/// The spec with `knob` set to `v`, written out and parsed back: what a
/// document holding that value is told.
fn parsed(knob: &Knob, v: f64) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::from_toml(BASE).expect("the base spec is valid");
    (knob.set)(&mut spec, v);
    ScenarioSpec::from_toml(&spec.to_toml()).map_err(|e| e.to_string())
}

#[test]
fn every_owned_knob_is_judged_alike_by_the_spec_and_its_owner() {
    let knobs = knobs();
    assert_eq!(knobs.len(), 27, "one row per owned float knob");
    for knob in &knobs {
        let message = format!("must be {}, got {}", knob.rule, knob.outside);
        assert_eq!(
            parsed(knob, knob.outside).err(),
            Some(format!("field '{}': {message}", knob.path)),
            "{}: the spec document",
            knob.path
        );
        assert_eq!(
            (knob.owner)(knob.outside),
            Err((knob.path, message)),
            "{}: the owner in code",
            knob.path
        );
        for &edge in knob.edges {
            assert_eq!(parsed(knob, edge).err(), None, "{} = {edge}: the spec document", knob.path);
            assert_eq!((knob.owner)(edge), Ok(()), "{} = {edge}: the owner in code", knob.path);
        }
    }
}

//! # CrAQR — reproduction of *"On Crowdsensed Data Acquisition using
//! Multi-Dimensional Point Processes"* (ICDE Workshops 2015)
//!
//! This meta-crate re-exports the whole workspace behind one dependency:
//!
//! - [`geom`] — points, rectangles, the `√h × √h` grid, region algebra.
//! - [`stats`] — distributions, hypothesis tests, online estimators.
//! - [`mdpp`] — multi-dimensional point processes: models, samplers,
//!   MLE/SGD inference, homogeneity diagnostics.
//! - [`sensing`] — the simulated mobile crowd: mobility, ground-truth
//!   fields, response behaviour, delivery faults.
//! - [`core`] — CrAQR itself: PMAT operators, acquisitional queries, the
//!   Section V planner, budget tuning, and the server.
//! - [`adaptive`] — the closed-loop acquisition controller: per-query
//!   online SGD estimation, drift detection on the innovation stream, and
//!   water-filled budget replanning through the epoch loop's
//!   [`ControlHook`](craqr_core::ControlHook) seam, all recorded in a
//!   canonical checksummed trace.
//! - [`scenario`] — the declarative scenario harness: TOML/JSON workload
//!   specs (including `[[shifts]]` regime changes and the `[adaptive]`
//!   block), a deterministic runner, and canonical golden reports
//!   (`scenarios/` + `tests/goldens/` + the `craqr-scenario` CLI).
//! - [`telemetry`] — the two-tier metrics registry: deterministic
//!   event-derived counters (checksummed into scenario reports) and
//!   clock-derived timings (Prometheus export only), with an exposition
//!   linter.
//!
//! ## Quickstart
//!
//! ```
//! use craqr::prelude::*;
//!
//! // A 4×4 km city with 500 wandering sensors.
//! let region = Rect::with_size(4.0, 4.0);
//! let crowd = Crowd::new(CrowdConfig {
//!     region,
//!     population: PopulationConfig::city_default(&region),
//!     seed: 7,
//! });
//! let mut server = CraqrServer::new(crowd, ServerConfig::default());
//! server.register_attribute("temp", false, Box::new(TemperatureField::city_default()));
//!
//! // The paper's declarative query shape.
//! let q = server.submit("ACQUIRE temp FROM RECT(0, 0, 2, 2) RATE 0.5 PER KM2 PER MIN").unwrap();
//! for _ in 0..6 {
//!     server.run_epoch();
//! }
//! let stream = server.take_output(q);
//! // The fabricated stream is time-ordered and confined to the query region.
//! assert!(stream.windows(2).all(|w| w[0].point.t <= w[1].point.t));
//! assert!(stream.iter().all(|t| t.point.x < 2.0 && t.point.y < 2.0));
//! ```
//!
//! ## Execution model: serial vs. sharded epochs
//!
//! The per-cell operator topologies share nothing — each `(cell,
//! attribute)` chain owns its operators, sinks, and RNG streams, all
//! derived from the planner's root seed. [`ServerConfig`](craqr_core::ServerConfig)'s
//! [`ExecMode`](craqr_core::ExecMode) knob chooses how the epoch's process phase runs:
//!
//! - [`ExecMode::Serial`](craqr_core::ExecMode::Serial) (default): the width follows the plan —
//!   one shard per [`CHAINS_PER_WORKER`](craqr_core::exec::CHAINS_PER_WORKER) (256) materialized
//!   chains, at least one and at most the host's cores. Up to 511 chains
//!   that is every chain on the calling thread in sorted key order — the
//!   reference schedule, easiest to step through and profile.
//! - [`ExecMode::Sharded`](craqr_core::ExecMode::Sharded)`(n)`: at most `n` shards, one per
//!   chain, whatever the host.
//!
//! Chains are partitioned round-robin over sorted keys and the shards run
//! through [`fan_out`](craqr_stats::fan_out), whose contract says which
//! thread runs what; per-shard results merge in ascending shard order.
//! Each tuple finds its chain in a dense (attribute, cell) → chain table
//! first, on the calling thread. Once every shard is done, the per-query
//! `U` merges run through the same fan-out at the same width (runs of
//! consecutive queries, at most one per query), each appending to its
//! query's output buffer.
//!
//! **Determinism contract:** for a fixed root seed, every width produces
//! bit-identical fabricated streams, dispatch statistics, and budget
//! decisions (enforced by `tests/sharded_exec.rs`). Fanning out pays only
//! with many chains per shard, which is why the default waits for 256 a
//! worker: on a 2-core host, two shards run `grid_replay` (2 304 chains)
//! about a third more epochs per second than one, and buy nothing or
//! lose on the 256-chain workloads.
//!
//! The crowd simulator fans out by the same kind of rule. Each epoch's
//! mobility sub-steps are one [`Crowd::advance`](craqr_sensing::Crowd::advance),
//! and every advance does the same two things: it matures the due
//! responses on the calling thread, then runs one pass that moves the
//! sensors and measures those responses. The pass splits the sensors into
//! one contiguous range per
//! [`SENSOR_STEPS_PER_WORKER`](craqr_sensing::crowd::SENSOR_STEPS_PER_WORKER)
//! (16 384) sensor-steps, at most the host's cores, when the population's
//! mobility draws a fixed number of RNG words a step (walk, Gauss–Markov,
//! stationary); the random waypoint runs as one range. Each range skips
//! the words the other ranges draw, so the same contract holds: every
//! width gives the same positions, responses and RNG states, bit for bit. Both fan-outs size
//! themselves with [`width`](craqr_stats::width) from one read of the core
//! count ([`host_cores`](craqr_stats::host_cores)) and run through the
//! same [`fan_out`](craqr_stats::fan_out).
//!
//! ```
//! use craqr::prelude::*;
//!
//! let config = ServerConfig { exec: ExecMode::Sharded(4), ..ServerConfig::default() };
//! # let _ = config;
//! ```

pub use craqr_adaptive as adaptive;
pub use craqr_core as core;
pub use craqr_geom as geom;
pub use craqr_mdpp as mdpp;
pub use craqr_runlog as runlog;
pub use craqr_scenario as scenario;
pub use craqr_sensing as sensing;
pub use craqr_stats as stats;
pub use craqr_telemetry as telemetry;

/// The names almost every CrAQR program needs.
pub mod prelude {
    pub use craqr_adaptive::{AdaptiveConfig, AdaptiveController, AdaptiveTrace};
    pub use craqr_core::{
        AcquisitionQuery, AttributeCatalog, Budget, BudgetTuner, ControlAction, ControlHook,
        CraqrServer, CrowdTuple, EpochObservation, EpochReport, ErrorModel, ExecMode, Fabricator,
        FlattenOp, IncentivePolicy, IngestReport, Mitigation, PartitionOp, PlannerConfig, QueryId,
        ServerConfig, ShardIngest, ThinOp, TopologyShape, UnionOp,
    };
    pub use craqr_geom::{CellId, Grid, Rect, Region, SpaceTimePoint, SpaceTimeWindow};
    pub use craqr_mdpp::{
        fit_mle, homogeneity_report, HomogeneousMdpp, InhomogeneousMdpp, IntensityModel,
        LinearIntensity,
    };
    pub use craqr_sensing::{
        AttrValue, AttributeId, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
        RainFront, ResponseModel, SensorId, TemperatureField,
    };
    pub use craqr_stats::seeded_rng;
}

//! # craqr-scenario — the declarative scenario harness.
//!
//! The paper's evaluation sweeps many workload regimes — thinning rates,
//! budget levels, churn, spatial granularity. This crate turns those
//! regimes into *checked-in artifacts*: a [`ScenarioSpec`] describes one
//! complete workload declaratively (`.toml`/`.json` files under
//! `scenarios/`), a [`ScenarioRunner`] executes it as a [`RunPlan`] says
//! — [`Execution`] (serial or sharded, serial or pipelined executor,
//! timed or not), seed, and what run log to [`Record`] — and the
//! resulting [`ScenarioReport`] renders to a canonical, byte-stable golden
//! text (committed under `tests/goldens/`, asserted by
//! `tests/scenario_goldens.rs`).
//!
//! Three properties make the harness a durable regression surface:
//!
//! 1. **Determinism** — a report depends only on `(spec, seed)`; every
//!    [`Execution`] produces byte-identical canonical reports.
//! 2. **Typo rejection** — specs refuse unknown fields and out-of-range
//!    values with precise dotted-path errors, so a misspelled knob can
//!    never silently run the wrong workload.
//! 3. **Lossless round-trips** — `parse(spec.to_toml()) == spec` and
//!    `parse(spec.to_json()) == spec` for every valid spec (proptested),
//!    so tooling can rewrite specs mechanically.
//!
//! ```
//! use craqr_scenario::{replay, Execution, Record, RunPlan, ScenarioRunner, ScenarioSpec};
//! use craqr_core::ExecMode;
//!
//! let spec = ScenarioSpec::from_toml(r#"
//! name = "doc"
//! seed = 7
//! epochs = 2
//!
//! [grid]
//! size_km = 4.0
//! side = 4
//!
//! [population]
//! size = 200
//! placement = { kind = "uniform" }
//! mobility = { kind = "walk", sigma = 0.2 }
//!
//! [[attributes]]
//! name = "temp"
//! field = { kind = "constant", value = 21.0 }
//!
//! [[queries]]
//! text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"
//! "#).unwrap();
//!
//! let runner = ScenarioRunner::new(spec).unwrap();
//! let serial = runner.run(&RunPlan::new(ExecMode::Serial)).unwrap();
//! let staged = Execution::from(ExecMode::Sharded(4)).pipelined(true);
//! let recorded = runner.run(&RunPlan::new(staged).record(Record::Memory)).unwrap();
//! assert_eq!(serial.report.canonical(), recorded.report.canonical());
//!
//! // The log is a complete event source: replay it with the crowd detached.
//! // The replay checks every epoch against the log and records none.
//! let replayed = replay(recorded.log.as_ref().unwrap(), ExecMode::Serial).unwrap();
//! assert_eq!(replayed.report.checksum(), serial.report.checksum());
//! assert!(replayed.log.is_none());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod replay;
pub mod report;
pub mod spec;
pub mod telemetry;
pub mod value;

mod runner;

pub use craqr_adaptive::AdaptiveTrace;
pub use craqr_runlog::RunLog;
pub use replay::{kill_salvage_resume, replay, resume, ReplayError};
pub use report::{
    fnv1a64, AdaptiveSection, AdmissionRow, EpochRow, FaultSection, OperatorRow, QueryRow,
    RunTotals, ScenarioReport, TelemetrySection, TenantRow, TenantSection,
};
pub use runner::{
    scenario_files, BatchError, Execution, Record, RunError, RunOutput, RunPlan, ScenarioRunner,
};
pub use spec::{
    AdaptiveSpec, AttributeSpec, BudgetSpec, ChurnSpec, CrashSpec, CrowdFaultSpec, ErrorSpec,
    FaultsSpec, FieldSpec, GridSpec, MobilitySpec, PlacementSpec, PlannerSpec, PopulationSpec,
    QuerySpec, RetrySpec, RunlogSpec, ScenarioSpec, ShiftSpec, SpecError, TelemetrySpec,
    TenantSpec,
};
pub use telemetry::RunTelemetry;

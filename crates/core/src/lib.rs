//! # CrAQR — Crowdsensed data AcQuisition using multi-dimensional point pRocesses
//!
//! This crate is the paper's primary contribution: a system that accepts
//! *acquisitional queries* — "acquire attribute `A⟨j⟩` from region `R'` at
//! rate λ /km²/min" — over an uncontrollable mobile crowd, and fabricates
//! crowdsensed data streams that satisfy those rates in expectation.
//!
//! The architecture follows Fig. 1 of the paper:
//!
//! ```text
//!  queries ──▶ planner ──▶ per-cell execution topologies (PMAT operators)
//!                               ▲                │
//!  request/response handler ────┘ (tuples)       ▼ (per-cell streams)
//!         │    ▲                          merge (U-operators)
//!         ▼    │ responses                       │
//!        mobile crowd                            ▼  per-query MCDS
//! ```
//!
//! Modules, in paper order:
//!
//! - [`mod tuple`](crate::tuple): the crowdsensed tuple `(t⟨j⟩ᵢ, x⟨j⟩ᵢ, y⟨j⟩ᵢ, a⟨j⟩ᵢ)`.
//! - [`ops`]: the PMAT operator family — [`ops::FlattenOp`] (`F`),
//!   [`ops::ThinOp`] (`T`), [`ops::PartitionOp`] (`P`) and [`ops::UnionOp`]
//!   (`U`).
//! - [`query`]: typed acquisitional queries, the attribute catalog, and a
//!   small declarative parser (`ACQUIRE rain FROM RECT(..) RATE 10`).
//! - [`plan`]: the Section V machinery — the cell hashmap, per-cell
//!   `F → T…T` chains with rate-sorted taps, query insertion/deletion with
//!   the consecutive-`T` merge rule, and the map/process/merge fabricator.
//! - [`budget`] and [`handler`]: the request/response handler with
//!   per-(attribute, cell) budgets tuned by the flatten operators' percent
//!   rate violation `N_v`.
//! - [`incentive`], [`optimizer`], [`error_model`]: the Section VI
//!   extensions (incentive escalation, the chain-vs-star `T`-work model
//!   that the E10 claim checks, error injection and mitigation).
//! - [`tenant`]: multi-tenant budget pools — per-owner admission control
//!   at submit time and conservation-enforced per-epoch charging at
//!   dispatch time.
//! - [`server`]: [`server::CraqrServer`] gluing all of the above to a
//!   simulated [`craqr_sensing::Crowd`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod driver;
pub mod error_model;
pub mod exec;
pub mod handler;
pub mod incentive;
pub mod ops;
pub mod optimizer;
pub mod phase;
pub mod pipeline;
pub mod plan;
pub mod query;
pub mod server;
pub mod tenant;
pub mod tuple;

pub use budget::{Budget, BudgetTuner};
pub use driver::{EpochDriver, PoolStats, RunOutcome};
pub use error_model::{ErrorModel, Mitigation};
pub use exec::{ExecMode, IngestReport, ShardIngest};
pub use handler::{RequestResponseHandler, RetryPolicy};
pub use incentive::IncentivePolicy;
pub use ops::{FlattenOp, PartitionOp, ThinOp, UnionOp};
pub use phase::{EpochPhase, PhaseTimer, PipelineStage};
pub use plan::{Fabricator, OpCounters, OperatorMetrics, PlannerConfig, TopologyShape};
pub use query::{AcquisitionQuery, AttributeCatalog, ParseError, QueryId};
pub use server::{
    BudgetView, ControlAction, ControlHook, CraqrServer, CrashPoint, EpochInputsRecord,
    EpochObservation, EpochReport, EpochTap, FaultDeltas, PlanView, QueryPlanView, ReplayInputs,
    ReplaySource, ServerConfig,
};
pub use tenant::{AdmissionDecision, BudgetPool, TenantId, TenantRegistry, TenantSummary};
pub use tuple::CrowdTuple;

//! A small push-based streaming dataflow engine.
//!
//! The paper assumes an execution substrate "similar to existing stream
//! processing operators \[5\]–\[7\]" into which PMAT operators are plugged and
//! "connected to form an execution topology" (Sections I, IV). This crate is
//! that substrate, deliberately minimal and fully generic over the tuple
//! type:
//!
//! - [`Operator`]: a named processing step consuming input batches on
//!   numbered input ports and emitting batches on numbered output ports
//!   (the `P`artition operator is the reason ports exist).
//! - [`Topology`]: a DAG of operators plus *sinks* (named collection
//!   points); supports dynamic insertion **and removal** of operators and
//!   edges, because CrAQR inserts and deletes standing queries at runtime
//!   (Section V "Query Insertions" / "Query Deletions").
//! - The executor ([`Topology::push`]): breadth-first batch propagation
//!   with per-node [`NodeMetrics`] — the tuple counts behind the
//!   multi-query-sharing experiments.
//!
//! # Execution model
//!
//! The engine is intentionally synchronous: CrAQR's topologies are small
//! per-cell chains, and the simulation clock (not wall time) drives
//! everything. Parallelism, when wanted, happens *across* per-cell
//! topologies, which share nothing — the sharded epoch executor in
//! `craqr-core` (`ExecMode::Sharded`) runs whole topologies on worker
//! threads and merges their results deterministically.
//!
//! ## What the hot path allocates
//!
//! [`Topology::push`] copies the caller's batch into a buffer drawn from
//! a per-topology [`BatchPool`] and moves every in-flight batch through
//! pooled buffers:
//!
//! - the BFS queue, the [`Emitter`] and its per-port buffers persist
//!   across pushes ([`Emitter::reset_with`] re-activates them without
//!   reallocating);
//! - a batch delivered along an edge *moves* (the `Vec` itself travels,
//!   no copy); fan-out clones go into pooled buffers; sink deliveries
//!   `append` and recycle;
//! - [`Topology::drain_sink_into`] appends a sink onto the caller's
//!   buffer, so the sink keeps its capacity for the next epoch;
//! - [`BatchPool`] retention caps the buffers held.
//!
//! Once every buffer has carried its largest batch, pushes and drains
//! allocate nothing in the executor. That is a steady state, not a
//! guarantee: a buffer grows the first time a batch outgrows it (random
//! thinning can hand a topology a new largest batch long after warm-up),
//! the pool drops buffers past its caps, and operators that
//! build per-batch state (the histogram estimator, a merge's output)
//! allocate. Measured by the repository's benchmark on a 2-core host as
//! `process.allocs_per_epoch` — every allocation the whole process makes
//! in a steady-state epoch, crowd, planner and logging included —
//! `grid_replay` (2 304 topologies) makes 165, `city_live` 788,
//! `durable_serial` 689 and `durable_pipelined` 673.
//! [`Topology::pooled_buffers`] exposes the pool level for observability.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod graph;
mod metrics;
mod operator;

pub use graph::{NodeId, SinkId, Target, Topology};
pub use metrics::{NodeMetrics, TopologyMetrics};
pub use operator::{BatchPool, Emitter, FnOperator, InputPort, Operator, OutputPort};

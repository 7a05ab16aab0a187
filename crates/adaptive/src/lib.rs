//! # craqr-adaptive — the closed-loop acquisition controller.
//!
//! The paper's premise is that acquisition plans should follow the
//! *estimated* multi-dimensional intensity (Section IV-B points at online
//! SGD estimation precisely because batch MLE per window is unaffordable).
//! Until this crate, estimation and budget tuning were leaf utilities: every
//! scenario ran a static plan even when the underlying process shifted.
//! This crate closes the sense → estimate → re-plan loop:
//!
//! 1. **Sense**: each epoch's delivered tuples per standing query feed a
//!    per-query [`craqr_mdpp::SgdEstimator`] (plus an empirical
//!    [`craqr_mdpp::IntensitySummary`] track).
//! 2. **Estimate / detect**: the estimator's standardized *innovations*
//!    (observed-vs-expected batch counts) stream into a sequential drift
//!    detector ([`craqr_stats::drift`] — Page–Hinkley or two-sided CUSUM).
//! 3. **Re-plan**: a confirmed drift triggers a [`ReplanRecord`]: the
//!    acquisition budget pool is re-allocated across the active queries by
//!    a deterministic [water-filling allocator](allocator::water_fill) and
//!    pushed back into the epoch loop as
//!    [`craqr_core::ControlAction`]s (budget overwrites + chain rebuilds).
//!
//! The controller implements [`craqr_core::ControlHook`], so it *observes*
//! the epoch loop without owning it; `EpochDriver::hook` is the
//! only integration point. Every decision — every innovation, detector
//! score, drift event, and replan — is recorded in an [`AdaptiveTrace`]
//! whose canonical rendering is byte-identical across
//! [`craqr_core::ExecMode`]s and reruns at a fixed seed, and ends in the
//! workspace FNV-1a checksum, exactly like scenario golden reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocator;
pub mod config;
pub mod controller;
pub mod trace;

pub use config::{AdaptiveConfig, DetectorConfig, DetectorKind};
pub use controller::AdaptiveController;
pub use trace::{AdaptiveTrace, ObservationRow, ReplanRecord, TraceSummary};

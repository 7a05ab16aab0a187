//! Mobile-crowd simulator for CrAQR.
//!
//! The paper's system talks to a crowd of `m` mobile sensors
//! (`s₁ … s_m`) — smartphones, vehicle-mounted sensors, humans — through a
//! single narrow interface: the request/response handler sends *acquisition
//! requests* to randomly selected sensors and later receives *responses*
//! `(t, x, y, a)` with unpredictable delay and unpredictable participation
//! (Section II–III). The crowd's mobility makes the resulting stream
//! spatio-temporally skewed, which is the entire motivation for flattening.
//!
//! This crate simulates that crowd faithfully:
//!
//! - [`mobility`] — per-sensor movement: stationary, random walk, random
//!   waypoint, and Gauss–Markov models with boundary reflection.
//! - [`fields`] — ground-truth phenomena to sense: a moving [`fields::RainFront`]
//!   (the paper's human-sensed `rain` attribute) and a
//!   [`fields::TemperatureField`] with hotspots and a diurnal cycle (the
//!   sensor-sensed `temp` attribute).
//! - [`response`] — human/sensor participation behaviour: response
//!   probability as a function of the offered incentive (the Section VI
//!   extension) and exponentially distributed response latency.
//! - [`population`] — spatially *skewed* sensor placement (hotspot
//!   mixtures), producing exactly the non-uniform density the paper says
//!   crowdsensed data exhibits.
//! - [`crowd`] — the world object: advances sensor positions, accepts
//!   request batches, matures delayed responses, and injects delivery
//!   faults (drop, delay, duplicate).
//!
//! # Determinism
//!
//! A crowd is a pure function of its seed and the calls made on it, on any
//! host. [`Crowd::advance`] may move the sensors in a
//! [`craqr_stats::fan_out`] (one part per
//! [`crowd::SENSOR_STEPS_PER_WORKER`] sensor-steps, at most the host's
//! cores, and only when [`Mobility::draws_per_step`] is fixed), but every
//! width gives the same positions, the same responses, the same counters
//! and the same RNG states as one thread, bit for bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crowd;
pub mod fields;
pub mod mobility;
pub mod population;
pub mod response;
pub mod sensor;
mod types;

pub use crowd::{Crowd, CrowdConfig, CrowdFaults};
pub use fields::{Field, RainFront, TemperatureField};
pub use mobility::Mobility;
pub use population::{Placement, PopulationConfig};
pub use response::ResponseModel;
pub use sensor::MobileSensor;
pub use types::{AttrValue, AttributeId, Measurement, SensorId, SensorResponse};

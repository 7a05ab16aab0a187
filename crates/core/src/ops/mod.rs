//! The PMAT (point-process transformation) operators — Section IV-B.
//!
//! "PMAT are algebraic operators that are used for manipulating point
//! processes … All PMAT operators are probabilistic and approximate with
//! provable expected behaviour; thus dramatically simplifying their
//! implementation."
//!
//! Each operator here is a plain struct whose `process` method reads a
//! batch of [`crate::CrowdTuple`]s and appends what it emits to the
//! caller's buffer (one buffer per region for a multi-region `P`). Each
//! carries its own provable-expectation contract, verified by unit tests
//! (exact counting identities) and statistical tests (seeded, generous
//! significance levels):
//!
//! | Op | Published? | Contract |
//! |----|-----------|----------|
//! | [`FlattenOp`] (`F`)   | yes | inhomogeneous `P̃(λ̃, R*)` → approximately homogeneous `P(λ̄, R*)`; reports percent rate violation `N_v` |
//! | [`ThinOp`] (`T`)      | yes | `P(λ1, R*)` → `P(λ2, R*)`, `λ2 ≤ λ1`, by Bernoulli(λ2/λ1) |
//! | [`PartitionOp`] (`P`) | yes | routes `P(λ, R*)` into `P(λ, R*ₖ)` on disjoint sub-regions |
//! | [`UnionOp`] (`U`)     | yes | merges `P(λ, R*₁), P(λ, R*₂)` into `P(λ, R*₁ ∪ R*₂)`; binary form requires a full common side |

mod flatten;
mod partition;
mod report;
mod thin;
mod union;

pub use flatten::{EstimatorMode, FlattenConfig, FlattenOp};
pub use partition::PartitionOp;
pub use report::{FitCounts, FlattenReport};
pub use thin::ThinOp;
pub use union::UnionOp;

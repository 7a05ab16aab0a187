//! Statistical substrate for CrAQR.
//!
//! The point-process machinery of the paper needs, beyond a uniform RNG:
//!
//! - **Samplers** for Poisson counts (how many points fall in a window),
//!   exponential inter-arrivals, and Gaussian noise (mobility and sensor
//!   error models). The offline crate set contains `rand` but not
//!   `rand_distr`, so [`dist`] implements these from first principles
//!   (Box–Muller, inversion, Knuth/PTRS Poisson).
//! - **Special functions** ([`special`]): `ln Γ`, `erf`, regularized
//!   incomplete gamma — enough to compute Poisson/χ²/normal CDFs exactly.
//! - **Hypothesis tests** ([`hypothesis`]): χ² homogeneity over binned
//!   counts, Kolmogorov–Smirnov on exponential inter-arrivals, and the
//!   variance-to-mean dispersion index. These are how the test-suite and the
//!   experiment harness *verify* the paper's claims that `flatten` output is
//!   "approximately homogeneous" and `thin` hits its target rate.
//! - **Online estimators** ([`online`]): Welford moments and EWMA.
//! - **Drift detectors** ([`drift`]): sequential change-point tests
//!   (two-sided CUSUM, Page–Hinkley) the adaptive acquisition loop runs
//!   over estimator innovation streams.
//! - **Knob ranges** ([`interval`]): the [`Interval`] every float knob's
//!   owner declares once and every validator and assert reads.
//! - **Seed derivation** ([`rng`]): stable per-component sub-seeds so a
//!   whole simulation is reproducible from one master seed.
//! - **Checksums** ([`fnv`]): the FNV-1a hash every canonical golden
//!   artifact ends in.
//! - **Host** ([`host`]): the core count, read once per process, the
//!   width rule and the one fan-out every parallel pass runs through.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod drift;
pub mod fnv;
pub mod host;
pub mod hypothesis;
pub mod interval;
pub mod online;
pub mod rng;
pub mod special;
pub mod text;

pub use dist::{Exponential, Normal, Poisson};
pub use drift::{Cusum, DriftDirection, PageHinkley};
pub use fnv::{fnv1a64, fnv1a64_extend, fnv1a64_extend2};
pub use host::{fan_out, host_cores, join, width};
pub use hypothesis::{chi_square_uniform, dispersion_index, ks_exponential, ChiSquare, KsTest};
pub use interval::Interval;
pub use online::{Ewma, OnlineMoments};
pub use rng::{seeded_rng, sub_rng};
pub use text::{format_float, write_float};

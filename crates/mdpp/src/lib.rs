//! Multi-dimensional point processes (MDPPs).
//!
//! The paper models the spatio-temporal arrival of crowdsensed tuples for
//! each attribute as a 3-D point process over (time, x, y) — Section III-A.
//! This crate is the mathematical substrate behind that model:
//!
//! - [`intensity`]: conditional-intensity functions `λ̃(t, x, y; θ)`,
//!   including the paper's linear parametrization (Eq. (1)) with a
//!   closed-form window integral, plus separable Gaussian-bump and
//!   piecewise-constant models used by the crowd simulator.
//! - [`process`]: the process types `P(λ, R)` (homogeneous) and
//!   `P̃(λ̃, R)` (inhomogeneous) with exact samplers — direct
//!   Poisson-count/uniform placement for the homogeneous case and
//!   Lewis–Shedler thinning for the inhomogeneous case.
//! - [`fit`]: parameter estimation for Eq. (1) — batch maximum-likelihood
//!   (an active-set Newton method on the concave Poisson log-likelihood,
//!   ref. \[12\] of the paper) and online stochastic gradient descent
//!   (ref. \[13\], used by sliding-window flattening).
//! - [`diagnostics`]: empirical homogeneity checks (binned χ², dispersion,
//!   count CV, temporal KS) used to verify operator behaviour.
//! - [`excite`]: self-exciting (Hawkes-style) conditional intensities with
//!   a deterministic cluster-cascade generator — burst workloads for the
//!   scenario harness.
//! - [`summary`]: deterministic empirical intensity summaries of realized
//!   point sets (rate, per-cell extremes, count CV) for golden reports.
//!
//! # Example
//!
//! ```
//! use craqr_geom::{Rect, SpaceTimeWindow};
//! use craqr_mdpp::intensity::LinearIntensity;
//! use craqr_mdpp::process::InhomogeneousMdpp;
//! use craqr_mdpp::fit::fit_mle;
//! use craqr_stats::seeded_rng;
//!
//! let region = Rect::with_size(10.0, 10.0);
//! let window = SpaceTimeWindow::new(region, 0.0, 30.0);
//! let truth = LinearIntensity::new([2.0, 0.0, 0.4, 0.1]);
//! let process = InhomogeneousMdpp::new(truth.clone(), region);
//! let points = process.sample(&window, &mut seeded_rng(7));
//!
//! let fit = fit_mle(&points, &window, Default::default());
//! assert!(fit.converged);
//! // The recovered intercept is close to the true θ0 = 2.0.
//! assert!((fit.intensity.theta()[0] - 2.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diagnostics;
pub mod excite;
pub mod fit;
pub mod intensity;
pub mod process;
pub mod summary;

pub use diagnostics::{homogeneity_report, HomogeneityReport};
pub use excite::SelfExcitingIntensity;
pub use fit::{fit_mle, FitConfig, FitResult, Innovation, SgdConfig, SgdEstimator};
pub use intensity::{
    ConstantIntensity, GaussianBumpIntensity, IntegralCache, IntensityModel, LinearIntensity,
    PiecewiseConstantIntensity,
};
pub use process::{HomogeneousMdpp, InhomogeneousMdpp};
pub use summary::IntensitySummary;

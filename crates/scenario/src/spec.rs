//! The declarative scenario schema.
//!
//! A [`ScenarioSpec`] is the checked-in, reviewable description of one
//! evaluation workload: world geometry, crowd composition, error regime,
//! budget policy, the attributes with their ground-truth fields, and the
//! standing queries. Specs parse from TOML or JSON (see [`crate::value`]),
//! reject unknown fields (typos must not silently become defaults), and
//! serialize back losslessly — `parse(spec.to_toml()) == spec` holds for
//! every valid spec and is proptested.
//!
//! The schema is documented field-by-field in `scenarios/README.md`.

use crate::value::{
    parse_json, parse_toml, render_json, render_toml, ConfigValue, SyntaxError, Table,
};
use std::fmt;

/// Why a spec was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid TOML/JSON.
    Syntax(SyntaxError),
    /// A field the schema does not know (typo protection).
    UnknownField {
        /// Dotted path of the offending key.
        path: String,
    },
    /// A required field is absent.
    MissingField {
        /// Dotted path of the absent key.
        path: String,
    },
    /// A field holds the wrong type.
    TypeMismatch {
        /// Dotted path of the offending key.
        path: String,
        /// What the schema wanted.
        expected: &'static str,
        /// What the document provided.
        found: &'static str,
    },
    /// A field value violates its numeric/semantic constraint.
    OutOfRange {
        /// Dotted path of the offending key.
        path: String,
        /// The violated constraint.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax(e) => write!(f, "syntax error: {e}"),
            SpecError::UnknownField { path } => write!(f, "unknown field '{path}'"),
            SpecError::MissingField { path } => write!(f, "missing required field '{path}'"),
            SpecError::TypeMismatch { path, expected, found } => {
                write!(f, "field '{path}': expected {expected}, found {found}")
            }
            SpecError::OutOfRange { path, message } => write!(f, "field '{path}': {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SyntaxError> for SpecError {
    fn from(e: SyntaxError) -> Self {
        SpecError::Syntax(e)
    }
}

/// World geometry: the square region `R` and the logical grid over it.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Region side length (km); the region is `[0, size_km)²`.
    pub size_km: f64,
    /// Cells per grid side (the paper's `√h`).
    pub side: u32,
}

/// Initial sensor placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementSpec {
    /// Uniform over the region.
    Uniform,
    /// The built-in two-hotspot city mixture.
    City,
    /// Explicit Gaussian hotspots `(cx, cy, weight, sigma)` over a uniform
    /// floor.
    Hotspots {
        /// Relative weight of the uniform floor.
        floor: f64,
        /// The hotspots.
        spots: Vec<(f64, f64, f64, f64)>,
    },
}

/// Sensor mobility model.
#[derive(Debug, Clone, PartialEq)]
pub enum MobilitySpec {
    /// Fixed installations.
    Stationary,
    /// Gaussian random walk.
    Walk {
        /// Per-√minute step σ (km).
        sigma: f64,
    },
    /// Random waypoint.
    Waypoint {
        /// Travel speed (km/min).
        speed: f64,
        /// Pause at each waypoint (minutes).
        pause: f64,
    },
    /// Gauss–Markov vehicular motion.
    GaussMarkov {
        /// Velocity memory in `[0, 1)`.
        alpha: f64,
        /// Mean speed (km/min).
        mean_speed: f64,
        /// Velocity noise σ (km/min).
        sigma: f64,
    },
}

/// Crowd composition.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Number of sensors `m`.
    pub size: u32,
    /// Fraction of sensors that are humans.
    pub human_fraction: f64,
    /// Initial placement.
    pub placement: PlacementSpec,
    /// Mobility model.
    pub mobility: MobilitySpec,
}

/// Planner/fabricator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerSpec {
    /// Batch epoch duration (minutes).
    pub batch_minutes: f64,
    /// Flatten headroom (≥ 1).
    pub f_headroom: f64,
    /// Mobility sub-steps per epoch.
    pub mobility_substeps: u32,
    /// Enforce the Section IV minimum-query-area rule.
    pub enforce_min_area: bool,
    /// Per-cell topology shape: `"chain"` or `"star"`.
    pub shape: String,
}

impl Default for PlannerSpec {
    fn default() -> Self {
        Self {
            batch_minutes: 5.0,
            f_headroom: 1.0,
            mobility_substeps: 4,
            enforce_min_area: true,
            shape: "chain".into(),
        }
    }
}

/// Budget policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSpec {
    /// Initial budget for a fresh (attribute, cell) pair (requests/epoch).
    pub initial: f64,
    /// `N_v` threshold (percent).
    pub nv_threshold: f64,
    /// Tuning step Δβ.
    pub delta: f64,
    /// Budget floor.
    pub min: f64,
    /// Budget cap.
    pub max: f64,
}

impl Default for BudgetSpec {
    fn default() -> Self {
        Self { initial: 20.0, nv_threshold: 10.0, delta: 2.0, min: 1.0, max: 200.0 }
    }
}

/// Error injection + mitigation regime.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSpec {
    /// GPS noise σ (km).
    pub gps_sigma: f64,
    /// Human-judgment boolean flip probability.
    pub bool_flip_prob: f64,
    /// Sensor value noise σ.
    pub value_sigma: f64,
    /// Mitigation pipeline: `"standard"` or `"off"`.
    pub mitigation: String,
}

/// Per-epoch crowd churn.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Per-sensor dropout/replacement probability applied before every
    /// epoch.
    pub probability: f64,
}

/// Ground-truth field behind an attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldSpec {
    /// Smooth temperature surface (base, gradient, heat islands, diurnal
    /// cycle).
    Temperature {
        /// Baseline (°C).
        base: f64,
        /// North–south gradient (°C/km).
        y_gradient: f64,
        /// Heat islands `(cx, cy, amplitude, sigma)`.
        islands: Vec<(f64, f64, f64, f64)>,
        /// Diurnal amplitude (°C).
        diurnal_amplitude: f64,
        /// Diurnal period (minutes).
        diurnal_period: f64,
    },
    /// A rain band sweeping the region.
    Rain {
        /// Front position at `t = 0` (km).
        x_start: f64,
        /// Front speed (km/min).
        speed: f64,
        /// Band width (km).
        width: f64,
    },
    /// A constant float value.
    ConstantFloat {
        /// The value every observation reports.
        value: f64,
    },
    /// A constant boolean value.
    ConstantBool {
        /// The value every observation reports.
        value: bool,
    },
    /// A self-exciting burst intensity observed as a float field
    /// (`value = scale × λ(t, x, y)`); the cascade is generated
    /// deterministically from the scenario seed via [`craqr_mdpp::excite`].
    Burst {
        /// Background rate μ.
        mu: f64,
        /// Kernel jump α.
        alpha: f64,
        /// Temporal decay β (1/min).
        beta: f64,
        /// Spatial kernel width σ (km).
        sigma: f64,
        /// Cascade horizon (minutes).
        horizon: f64,
        /// Immigrant (seed) events.
        immigrants: u32,
        /// Offspring mean per event, in `[0, 1)`.
        branching_ratio: f64,
        /// Observation scale factor.
        scale: f64,
    },
}

/// One sensed attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSpec {
    /// Catalog name (what queries reference).
    pub name: String,
    /// Human-sensed (reluctant, slow) vs automatic.
    pub human: bool,
    /// Ground truth.
    pub field: FieldSpec,
}

/// One tenant sharing the crowd: a named owner with its own acquisition
/// budget pool. Declared as `[[tenants]]` blocks; queries reference
/// tenants by name (`tenant = "alice"`).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (what queries reference): `[a-z0-9_-]+`.
    pub name: String,
    /// Budget pool capacity (requests/epoch).
    pub pool: f64,
}

/// One standing acquisitional query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Declarative text, e.g. `ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5`.
    pub text: String,
    /// The owning tenant's name. Required when the spec declares
    /// `[[tenants]]`; forbidden otherwise (the back-compat single
    /// implicit tenant owns everything and is never named).
    pub tenant: Option<String>,
}

/// A scripted mid-run regime shift, applied to the crowd just before the
/// named epoch runs. These are the workloads the adaptive controller
/// exists for: the world changes, the innovation stream drifts, the plan
/// must follow.
#[derive(Debug, Clone, PartialEq)]
pub enum ShiftSpec {
    /// Scale every sensor's base response probability (clamped to
    /// `[0, 1]`): `factor > 1` is a participation surge (rate jump),
    /// `factor < 1` a collapse.
    Participation {
        /// Epoch before which the shift applies (0-based).
        epoch: u32,
        /// The scale factor.
        factor: f64,
    },
    /// Correlated dropout: sensors inside `rect` go permanently silent
    /// with probability `probability`.
    Dropout {
        /// Epoch before which the shift applies (0-based).
        epoch: u32,
        /// Per-sensor dropout probability.
        probability: f64,
        /// The affected region `(x0, y0, x1, y1)` (km).
        rect: (f64, f64, f64, f64),
    },
    /// Hotspot migration: each sensor relocates into `rect` with
    /// probability `probability`.
    Migrate {
        /// Epoch before which the shift applies (0-based).
        epoch: u32,
        /// Per-sensor migration probability.
        probability: f64,
        /// The destination region `(x0, y0, x1, y1)` (km).
        rect: (f64, f64, f64, f64),
    },
}

impl ShiftSpec {
    /// The epoch before which this shift applies.
    pub fn epoch(&self) -> u32 {
        match self {
            ShiftSpec::Participation { epoch, .. }
            | ShiftSpec::Dropout { epoch, .. }
            | ShiftSpec::Migrate { epoch, .. } => *epoch,
        }
    }
}

/// The `[adaptive]` block: the closed-loop controller's policy knobs
/// (mirrors [`craqr_adaptive::AdaptiveConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSpec {
    /// `true`: replans are applied. `false`: observe-only — estimation,
    /// detection, and the trace still run, but the plan stays static (the
    /// golden-tested baseline mode).
    pub enabled: bool,
    /// Detector kind: `"cusum"` or `"page_hinkley"`.
    pub detector: String,
    /// Detector per-step slack/tolerance.
    pub slack: f64,
    /// Detector decision threshold.
    pub threshold: f64,
    /// Epochs before detection starts.
    pub warmup_epochs: u32,
    /// Minimum epochs between replans.
    pub cooldown_epochs: u32,
    /// SGD initial learning rate γ₀.
    pub gamma0: f64,
    /// SGD learning-rate decay horizon (batches).
    pub decay_batches: f64,
    /// SGD initial rate guess (/km²/min).
    pub initial_rate: f64,
    /// Budget pool (requests/epoch) water-filled on a replan; absent =
    /// re-distribute the live budgets.
    pub budget_pool: Option<f64>,
    /// Rebuild fired queries' chains on a replan.
    pub rebuild_chains: bool,
    /// Safety factor on the demand estimate.
    pub demand_headroom: f64,
}

impl Default for AdaptiveSpec {
    fn default() -> Self {
        let c = craqr_adaptive::AdaptiveConfig::default();
        Self {
            enabled: c.enabled,
            detector: c.detector.kind.to_string(),
            slack: c.detector.slack,
            threshold: c.detector.threshold,
            warmup_epochs: c.warmup_epochs,
            cooldown_epochs: c.cooldown_epochs,
            gamma0: c.estimator.gamma0,
            decay_batches: c.estimator.decay_batches,
            initial_rate: c.estimator.initial_rate,
            budget_pool: c.budget_pool,
            rebuild_chains: c.rebuild_chains,
            demand_headroom: c.demand_headroom,
        }
    }
}

impl AdaptiveSpec {
    /// The [`craqr_adaptive::AdaptiveConfig`] this spec describes.
    pub fn to_config(&self) -> Result<craqr_adaptive::AdaptiveConfig, SpecError> {
        let kind = match self.detector.as_str() {
            "cusum" => craqr_adaptive::DetectorKind::Cusum,
            "page_hinkley" => craqr_adaptive::DetectorKind::PageHinkley,
            other => {
                return Err(out_of_range(
                    "adaptive.detector",
                    format!("must be 'cusum' or 'page_hinkley', got '{other}'"),
                ))
            }
        };
        let config = craqr_adaptive::AdaptiveConfig {
            enabled: self.enabled,
            estimator: craqr_mdpp::SgdConfig {
                gamma0: self.gamma0,
                decay_batches: self.decay_batches,
                initial_rate: self.initial_rate,
            },
            detector: craqr_adaptive::DetectorConfig {
                kind,
                slack: self.slack,
                threshold: self.threshold,
            },
            warmup_epochs: self.warmup_epochs,
            cooldown_epochs: self.cooldown_epochs,
            budget_pool: self.budget_pool,
            rebuild_chains: self.rebuild_chains,
            demand_headroom: self.demand_headroom,
        };
        config.validate().map_err(|(field, message)| out_of_range(field, message))?;
        Ok(config)
    }
}

/// The `[runlog]` block: event-sourced recording of the run's epoch
/// inputs (see `craqr-runlog`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunlogSpec {
    /// `true`: a run whose plan records as the spec says
    /// ([`crate::Record::AsSpec`]) records every epoch's inputs and returns
    /// the [`craqr_runlog::RunLog`] alongside the report; the CLI
    /// blesses/checks a `<name>.runlog.txt` golden for the scenario.
    /// `false`: the block is declared but recording is switched off (a
    /// cheap toggle for experiments).
    pub record: bool,
}

impl Default for RunlogSpec {
    fn default() -> Self {
        Self { record: true }
    }
}

/// The `[telemetry]` block: event-derived metrics collection
/// (see `craqr-telemetry`).
///
/// Declaring the block makes the run collect deterministic event
/// counters into a metrics registry; with `report = true` (the default)
/// their canonical rendering joins the scenario report as a
/// checksummed `[telemetry]` section. Only **event-derived** metrics
/// ever reach the report — timing metrics (phase latencies, shard busy
/// time) live in the same registry but are excluded from every
/// canonical/checksummed surface, exactly like shard `busy_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// `true`: render the registry's event metrics as a `[telemetry]`
    /// report section (checksummed, golden-tested). `false`: collect
    /// (for `--metrics` export) but keep the report unchanged.
    pub report: bool,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self { report: true }
    }
}

/// One crowd-side delivery fault window: a fault kind active over an
/// inclusive epoch range (`[[faults.crowd]]`).
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdFaultSpec {
    /// Fault kind: `drop`, `delay`, or `duplicate`.
    pub kind: String,
    /// First epoch (inclusive) the fault is active.
    pub from_epoch: u32,
    /// Last epoch (inclusive) the fault is active.
    pub to_epoch: u32,
    /// Per-response fault probability.
    pub probability: f64,
    /// Deferral in minutes — `delay` only; must stay 0 for other kinds.
    pub minutes: f64,
}

/// Dispatch-side retry policy (`[faults.retry]`): per-(cell, attribute)
/// bounded re-request of response shortfalls, mirrored onto
/// [`craqr_core::RetryPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetrySpec {
    /// Shortfall threshold: retry when `responses < threshold × allowed`.
    pub threshold: f64,
    /// Multiplicative backoff per attempt, in `(0, 1]`.
    pub backoff: f64,
    /// Maximum retry attempts per chain before giving up.
    pub max_attempts: u32,
}

impl Default for RetrySpec {
    fn default() -> Self {
        let d = craqr_core::RetryPolicy::default();
        Self { threshold: d.shortfall_threshold, backoff: d.backoff, max_attempts: d.max_attempts }
    }
}

/// A declared process crash site (`[[faults.crash]]`): a named
/// [`craqr_core::CrashPoint`] at a specific epoch. Normal runs ignore
/// these; the chaos harness (`craqr-scenario chaos`) kills the run there
/// and then proves salvage + resume reproduce the uninterrupted result.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// Crash point name (see [`craqr_core::CrashPoint::from_name`]).
    pub point: String,
    /// Epoch at which to crash.
    pub epoch: u32,
}

/// The `[faults]` block: crowd delivery faults, the dispatch retry
/// policy, and declared crash sites.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultsSpec {
    /// Crowd-side delivery fault windows.
    pub crowd: Vec<CrowdFaultSpec>,
    /// Dispatch-side retry policy (absent = no retries).
    pub retry: Option<RetrySpec>,
    /// Declared crash sites for the chaos harness.
    pub crash: Vec<CrashSpec>,
}

impl FaultsSpec {
    /// The [`craqr_sensing::CrowdFaults`] active at `epoch`: all windows
    /// covering the epoch merged into one setting (at most one window per
    /// kind can cover an epoch — validation rejects same-kind overlap).
    pub fn crowd_faults_at(&self, epoch: u32) -> craqr_sensing::CrowdFaults {
        let mut f = craqr_sensing::CrowdFaults::default();
        for w in &self.crowd {
            if epoch < w.from_epoch || epoch > w.to_epoch {
                continue;
            }
            match w.kind.as_str() {
                "drop" => f.drop_probability = w.probability,
                "delay" => {
                    f.delay_probability = w.probability;
                    f.delay_minutes = w.minutes;
                }
                "duplicate" => f.duplicate_probability = w.probability,
                other => unreachable!("validated fault kind '{other}'"),
            }
        }
        f
    }
}

/// A full declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also the golden file stem): `[a-z0-9_-]+`.
    pub name: String,
    /// Human-readable intent.
    pub description: String,
    /// Master seed (crowd, planner, error injection, bursts).
    pub seed: u64,
    /// Epochs to run.
    pub epochs: u32,
    /// World geometry.
    pub grid: GridSpec,
    /// Crowd composition.
    pub population: PopulationSpec,
    /// Planner knobs.
    pub planner: PlannerSpec,
    /// Budget policy.
    pub budget: BudgetSpec,
    /// Error regime (absent = clean world).
    pub errors: Option<ErrorSpec>,
    /// Per-epoch churn (absent = stable crowd).
    pub churn: Option<ChurnSpec>,
    /// Sensed attributes (≥ 1).
    pub attributes: Vec<AttributeSpec>,
    /// Tenants sharing the crowd (empty = the back-compat single-owner
    /// world: no admission control, no per-tenant charging, reports and
    /// logs byte-identical to the pre-tenant harness).
    pub tenants: Vec<TenantSpec>,
    /// Standing queries (≥ 1).
    pub queries: Vec<QuerySpec>,
    /// Scripted mid-run regime shifts (absent = stationary world).
    pub shifts: Vec<ShiftSpec>,
    /// Closed-loop adaptive acquisition (absent = static plan, no
    /// controller, no trace).
    pub adaptive: Option<AdaptiveSpec>,
    /// Event-sourced run logging (absent = nothing recorded).
    pub runlog: Option<RunlogSpec>,
    /// Fault injection: crowd delivery faults, dispatch retries, and
    /// declared crash sites (absent = fault-free run).
    pub faults: Option<FaultsSpec>,
    /// Event-derived metrics collection (absent = no registry, report
    /// unchanged).
    pub telemetry: Option<TelemetrySpec>,
}

// ---------------------------------------------------------------------------
// Reading: a table reader that tracks consumed keys (typo protection)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    table: &'a Table,
    path: String,
    seen: Vec<String>,
}

impl<'a> Reader<'a> {
    fn new(table: &'a Table, path: impl Into<String>) -> Self {
        Self { table, path: path.into(), seen: Vec::new() }
    }

    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a ConfigValue> {
        self.seen.push(key.to_string());
        self.table.get(key)
    }

    fn req(&mut self, key: &str) -> Result<&'a ConfigValue, SpecError> {
        self.take(key).ok_or_else(|| SpecError::MissingField { path: self.at(key) })
    }

    fn req_str(&mut self, key: &str) -> Result<String, SpecError> {
        let path = self.at(key);
        match self.req(key)? {
            ConfigValue::Str(s) => Ok(s.clone()),
            other => Err(mismatch(&path, "string", other)),
        }
    }

    fn opt_str(&mut self, key: &str, default: &str) -> Result<String, SpecError> {
        let path = self.at(key);
        match self.take(key) {
            None => Ok(default.to_string()),
            Some(ConfigValue::Str(s)) => Ok(s.clone()),
            Some(other) => Err(mismatch(&path, "string", other)),
        }
    }

    fn req_f64(&mut self, key: &str) -> Result<f64, SpecError> {
        let path = self.at(key);
        as_f64(self.req(key)?, &path)
    }

    fn opt_f64(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        let path = self.at(key);
        match self.take(key) {
            None => Ok(default),
            Some(v) => as_f64(v, &path),
        }
    }

    fn req_u32(&mut self, key: &str) -> Result<u32, SpecError> {
        let path = self.at(key);
        as_u32(self.req(key)?, &path)
    }

    fn opt_u32(&mut self, key: &str, default: u32) -> Result<u32, SpecError> {
        let path = self.at(key);
        match self.take(key) {
            None => Ok(default),
            Some(v) => as_u32(v, &path),
        }
    }

    fn opt_bool(&mut self, key: &str, default: bool) -> Result<bool, SpecError> {
        let path = self.at(key);
        match self.take(key) {
            None => Ok(default),
            Some(ConfigValue::Bool(b)) => Ok(*b),
            Some(other) => Err(mismatch(&path, "boolean", other)),
        }
    }

    fn req_table(&mut self, key: &str) -> Result<Reader<'a>, SpecError> {
        let path = self.at(key);
        match self.req(key)? {
            ConfigValue::Table(t) => Ok(Reader::new(t, path)),
            other => Err(mismatch(&path, "table", other)),
        }
    }

    fn opt_table(&mut self, key: &str) -> Result<Option<Reader<'a>>, SpecError> {
        let path = self.at(key);
        match self.take(key) {
            None => Ok(None),
            Some(ConfigValue::Table(t)) => Ok(Some(Reader::new(t, path))),
            Some(other) => Err(mismatch(&path, "table", other)),
        }
    }

    fn req_table_array(&mut self, key: &str) -> Result<Vec<Reader<'a>>, SpecError> {
        let path = self.at(key);
        match self.req(key)? {
            ConfigValue::Array(items) => table_array(items, &path),
            other => Err(mismatch(&path, "array of tables", other)),
        }
    }

    /// An optional array of tables: absent parses as empty.
    fn opt_table_array(&mut self, key: &str) -> Result<Vec<Reader<'a>>, SpecError> {
        let path = self.at(key);
        match self.take(key) {
            None => Ok(Vec::new()),
            Some(ConfigValue::Array(items)) => table_array(items, &path),
            Some(other) => Err(mismatch(&path, "array of tables", other)),
        }
    }

    /// Reads an optional array of `[a, b, c, d]` float quadruples.
    fn opt_quads(
        &mut self,
        key: &str,
        default: Vec<(f64, f64, f64, f64)>,
    ) -> Result<Vec<(f64, f64, f64, f64)>, SpecError> {
        let path = self.at(key);
        let Some(v) = self.take(key) else { return Ok(default) };
        let ConfigValue::Array(items) = v else {
            return Err(mismatch(&path, "array", v));
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let ipath = format!("{path}[{i}]");
                let ConfigValue::Array(quad) = item else {
                    return Err(mismatch(&ipath, "array of 4 numbers", item));
                };
                if quad.len() != 4 {
                    return Err(SpecError::OutOfRange {
                        path: ipath,
                        message: format!("needs exactly 4 numbers, got {}", quad.len()),
                    });
                }
                Ok((
                    as_f64(&quad[0], &ipath)?,
                    as_f64(&quad[1], &ipath)?,
                    as_f64(&quad[2], &ipath)?,
                    as_f64(&quad[3], &ipath)?,
                ))
            })
            .collect()
    }

    /// Errors on any key the schema did not consume.
    fn finish(self) -> Result<(), SpecError> {
        for key in self.table.keys() {
            if !self.seen.iter().any(|s| s == key) {
                return Err(SpecError::UnknownField { path: self.at(key) });
            }
        }
        Ok(())
    }
}

fn table_array<'a>(items: &'a [ConfigValue], path: &str) -> Result<Vec<Reader<'a>>, SpecError> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| match item {
            ConfigValue::Table(t) => Ok(Reader::new(t, format!("{path}[{i}]"))),
            other => Err(mismatch(&format!("{path}[{i}]"), "table", other)),
        })
        .collect()
}

fn mismatch(path: &str, expected: &'static str, found: &ConfigValue) -> SpecError {
    SpecError::TypeMismatch { path: path.to_string(), expected, found: found.type_name() }
}

fn as_f64(v: &ConfigValue, path: &str) -> Result<f64, SpecError> {
    match v {
        ConfigValue::Float(f) => Ok(*f),
        ConfigValue::Int(i) => Ok(*i as f64),
        other => Err(mismatch(path, "number", other)),
    }
}

fn as_u32(v: &ConfigValue, path: &str) -> Result<u32, SpecError> {
    match v {
        ConfigValue::Int(i) if *i >= 0 && *i <= u32::MAX as i64 => Ok(*i as u32),
        ConfigValue::Int(i) => Err(SpecError::OutOfRange {
            path: path.to_string(),
            message: format!("must fit in an unsigned 32-bit integer, got {i}"),
        }),
        other => Err(mismatch(path, "integer", other)),
    }
}

fn out_of_range(path: impl Into<String>, message: impl Into<String>) -> SpecError {
    SpecError::OutOfRange { path: path.into(), message: message.into() }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Parses a TOML document.
    pub fn from_toml(src: &str) -> Result<Self, SpecError> {
        Self::from_table(&parse_toml(src)?)
    }

    /// Parses a JSON document.
    pub fn from_json(src: &str) -> Result<Self, SpecError> {
        Self::from_table(&parse_json(src)?)
    }

    /// Parses either syntax, keyed on the (lowercased) file extension:
    /// `.json` → JSON, anything else → TOML.
    pub fn from_source(file_name: &str, src: &str) -> Result<Self, SpecError> {
        if file_name.to_ascii_lowercase().ends_with(".json") {
            Self::from_json(src)
        } else {
            Self::from_toml(src)
        }
    }

    /// Builds a spec from a parsed value tree, rejecting unknown fields and
    /// out-of-range values.
    pub fn from_table(table: &Table) -> Result<Self, SpecError> {
        let mut r = Reader::new(table, "");
        let name = r.req_str("name")?;
        let description = r.opt_str("description", "")?;
        let seed = match r.req("seed")? {
            ConfigValue::Int(i) if *i >= 0 => *i as u64,
            ConfigValue::Int(i) => {
                return Err(out_of_range("seed", format!("must be >= 0, got {i}")))
            }
            other => return Err(mismatch("seed", "integer", other)),
        };
        let epochs = r.req_u32("epochs")?;

        let mut grid_r = r.req_table("grid")?;
        let grid = GridSpec { size_km: grid_r.req_f64("size_km")?, side: grid_r.req_u32("side")? };
        grid_r.finish()?;

        let mut pop_r = r.req_table("population")?;
        let population = PopulationSpec {
            size: pop_r.req_u32("size")?,
            human_fraction: pop_r.opt_f64("human_fraction", 0.0)?,
            placement: {
                let mut p = pop_r.req_table("placement")?;
                let placement = parse_placement(&mut p)?;
                p.finish()?;
                placement
            },
            mobility: {
                let mut m = pop_r.req_table("mobility")?;
                let mobility = parse_mobility(&mut m)?;
                m.finish()?;
                mobility
            },
        };
        pop_r.finish()?;

        let planner = match r.opt_table("planner")? {
            None => PlannerSpec::default(),
            Some(mut p) => {
                let d = PlannerSpec::default();
                let planner = PlannerSpec {
                    batch_minutes: p.opt_f64("batch_minutes", d.batch_minutes)?,
                    f_headroom: p.opt_f64("f_headroom", d.f_headroom)?,
                    mobility_substeps: p.opt_u32("mobility_substeps", d.mobility_substeps)?,
                    enforce_min_area: p.opt_bool("enforce_min_area", d.enforce_min_area)?,
                    shape: p.opt_str("shape", &d.shape)?,
                };
                p.finish()?;
                planner
            }
        };

        let budget = match r.opt_table("budget")? {
            None => BudgetSpec::default(),
            Some(mut b) => {
                let d = BudgetSpec::default();
                let budget = BudgetSpec {
                    initial: b.opt_f64("initial", d.initial)?,
                    nv_threshold: b.opt_f64("nv_threshold", d.nv_threshold)?,
                    delta: b.opt_f64("delta", d.delta)?,
                    min: b.opt_f64("min", d.min)?,
                    max: b.opt_f64("max", d.max)?,
                };
                b.finish()?;
                budget
            }
        };

        let errors = match r.opt_table("errors")? {
            None => None,
            Some(mut e) => {
                let errors = ErrorSpec {
                    gps_sigma: e.opt_f64("gps_sigma", 0.0)?,
                    bool_flip_prob: e.opt_f64("bool_flip_prob", 0.0)?,
                    value_sigma: e.opt_f64("value_sigma", 0.0)?,
                    mitigation: e.opt_str("mitigation", "standard")?,
                };
                e.finish()?;
                Some(errors)
            }
        };

        let churn = match r.opt_table("churn")? {
            None => None,
            Some(mut c) => {
                let churn = ChurnSpec { probability: c.req_f64("probability")? };
                c.finish()?;
                Some(churn)
            }
        };

        let mut attributes = Vec::new();
        for mut a in r.req_table_array("attributes")? {
            let attr = AttributeSpec {
                name: a.req_str("name")?,
                human: a.opt_bool("human", false)?,
                field: {
                    let mut f = a.req_table("field")?;
                    let field = parse_field(&mut f)?;
                    f.finish()?;
                    field
                },
            };
            a.finish()?;
            attributes.push(attr);
        }

        let mut tenants = Vec::new();
        for mut t in r.opt_table_array("tenants")? {
            let tenant = TenantSpec { name: t.req_str("name")?, pool: t.req_f64("pool")? };
            t.finish()?;
            tenants.push(tenant);
        }

        let mut queries = Vec::new();
        for mut q in r.req_table_array("queries")? {
            let query = QuerySpec {
                text: q.req_str("text")?,
                tenant: match q.take("tenant") {
                    None => None,
                    Some(ConfigValue::Str(s)) => Some(s.clone()),
                    Some(other) => return Err(mismatch(&q.at("tenant"), "string", other)),
                },
            };
            q.finish()?;
            queries.push(query);
        }

        let mut shifts = Vec::new();
        for mut s in r.opt_table_array("shifts")? {
            let shift = parse_shift(&mut s)?;
            s.finish()?;
            shifts.push(shift);
        }

        let adaptive = match r.opt_table("adaptive")? {
            None => None,
            Some(mut a) => {
                let d = AdaptiveSpec::default();
                let adaptive = AdaptiveSpec {
                    enabled: a.opt_bool("enabled", d.enabled)?,
                    detector: a.opt_str("detector", &d.detector)?,
                    slack: a.opt_f64("slack", d.slack)?,
                    threshold: a.opt_f64("threshold", d.threshold)?,
                    warmup_epochs: a.opt_u32("warmup_epochs", d.warmup_epochs)?,
                    cooldown_epochs: a.opt_u32("cooldown_epochs", d.cooldown_epochs)?,
                    gamma0: a.opt_f64("gamma0", d.gamma0)?,
                    decay_batches: a.opt_f64("decay_batches", d.decay_batches)?,
                    initial_rate: a.opt_f64("initial_rate", d.initial_rate)?,
                    budget_pool: {
                        let path = a.at("budget_pool");
                        match a.take("budget_pool") {
                            None => None,
                            Some(v) => Some(as_f64(v, &path)?),
                        }
                    },
                    rebuild_chains: a.opt_bool("rebuild_chains", d.rebuild_chains)?,
                    demand_headroom: a.opt_f64("demand_headroom", d.demand_headroom)?,
                };
                a.finish()?;
                Some(adaptive)
            }
        };

        let runlog = match r.opt_table("runlog")? {
            None => None,
            Some(mut t) => {
                let d = RunlogSpec::default();
                let runlog = RunlogSpec { record: t.opt_bool("record", d.record)? };
                t.finish()?;
                Some(runlog)
            }
        };

        let telemetry = match r.opt_table("telemetry")? {
            None => None,
            Some(mut t) => {
                let d = TelemetrySpec::default();
                let telemetry = TelemetrySpec { report: t.opt_bool("report", d.report)? };
                t.finish()?;
                Some(telemetry)
            }
        };

        let faults = match r.opt_table("faults")? {
            None => None,
            Some(mut f) => {
                let mut crowd = Vec::new();
                for mut c in f.opt_table_array("crowd")? {
                    let fault = CrowdFaultSpec {
                        kind: c.req_str("kind")?,
                        from_epoch: c.opt_u32("from_epoch", 0)?,
                        to_epoch: c.opt_u32("to_epoch", epochs.saturating_sub(1))?,
                        probability: c.req_f64("probability")?,
                        minutes: c.opt_f64("minutes", 0.0)?,
                    };
                    c.finish()?;
                    crowd.push(fault);
                }
                let retry = match f.opt_table("retry")? {
                    None => None,
                    Some(mut rt) => {
                        let d = RetrySpec::default();
                        let retry = RetrySpec {
                            threshold: rt.opt_f64("threshold", d.threshold)?,
                            backoff: rt.opt_f64("backoff", d.backoff)?,
                            max_attempts: rt.opt_u32("max_attempts", d.max_attempts)?,
                        };
                        rt.finish()?;
                        Some(retry)
                    }
                };
                let mut crash = Vec::new();
                for mut cr in f.opt_table_array("crash")? {
                    let site =
                        CrashSpec { point: cr.req_str("point")?, epoch: cr.req_u32("epoch")? };
                    cr.finish()?;
                    crash.push(site);
                }
                f.finish()?;
                Some(FaultsSpec { crowd, retry, crash })
            }
        };

        r.finish()?;
        let spec = Self {
            name,
            description,
            seed,
            epochs,
            grid,
            population,
            planner,
            budget,
            errors,
            churn,
            attributes,
            tenants,
            queries,
            shifts,
            adaptive,
            runlog,
            faults,
            telemetry,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Semantic validation beyond types: ranges, uniqueness, and the
    /// constraints the runtime constructors would otherwise panic on.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
        {
            return Err(out_of_range(
                "name",
                format!("must match [a-z0-9_-]+ (it names the golden file), got '{}'", self.name),
            ));
        }
        if self.epochs == 0 {
            return Err(out_of_range("epochs", "must be >= 1"));
        }
        if self.seed > i64::MAX as u64 {
            return Err(out_of_range(
                "seed",
                format!(
                    "must fit in a signed 64-bit integer (TOML/JSON integer), got {}",
                    self.seed
                ),
            ));
        }
        if !(self.grid.size_km.is_finite() && self.grid.size_km > 0.0) {
            return Err(out_of_range(
                "grid.size_km",
                format!("must be > 0, got {}", self.grid.size_km),
            ));
        }
        if self.grid.side == 0 {
            return Err(out_of_range(
                "grid.side",
                "must be >= 1 (a zero-cell grid has nowhere to plan)",
            ));
        }

        let region = craqr_geom::Rect::with_size(self.grid.size_km, self.grid.size_km);
        let pop = self.population.to_config(&region)?;
        pop.validate().map_err(|(field, message)| out_of_range(field, message))?;
        match &self.population.mobility {
            MobilitySpec::Stationary => {}
            MobilitySpec::Walk { sigma } => {
                if !(sigma.is_finite() && *sigma >= 0.0) {
                    return Err(out_of_range(
                        "population.mobility.sigma",
                        format!("must be >= 0, got {sigma}"),
                    ));
                }
            }
            MobilitySpec::Waypoint { speed, pause } => {
                if !(speed.is_finite() && *speed > 0.0) {
                    return Err(out_of_range(
                        "population.mobility.speed",
                        format!("must be > 0, got {speed}"),
                    ));
                }
                if !(pause.is_finite() && *pause >= 0.0) {
                    return Err(out_of_range(
                        "population.mobility.pause",
                        format!("must be >= 0, got {pause}"),
                    ));
                }
            }
            MobilitySpec::GaussMarkov { alpha, mean_speed, sigma } => {
                if !(0.0..1.0).contains(alpha) {
                    return Err(out_of_range(
                        "population.mobility.alpha",
                        format!("must be in [0,1), got {alpha}"),
                    ));
                }
                if !(mean_speed.is_finite()
                    && *mean_speed >= 0.0
                    && sigma.is_finite()
                    && *sigma >= 0.0)
                {
                    return Err(out_of_range(
                        "population.mobility",
                        "speeds must be finite and >= 0",
                    ));
                }
            }
        }

        if !matches!(self.planner.shape.as_str(), "chain" | "star") {
            return Err(out_of_range(
                "planner.shape",
                format!("must be 'chain' or 'star', got '{}'", self.planner.shape),
            ));
        }
        if let Some(e) = &self.errors {
            if !matches!(e.mitigation.as_str(), "standard" | "off") {
                return Err(out_of_range(
                    "errors.mitigation",
                    format!("must be 'standard' or 'off', got '{}'", e.mitigation),
                ));
            }
        }
        // Planner/budget/error numerics: delegate to the core validators so
        // the spec and the server can never drift apart on what "valid"
        // means.
        let server_config = self.to_server_config(craqr_core::ExecMode::Serial)?;
        server_config.validate().map_err(|(field, message)| out_of_range(field, message))?;

        if let Some(c) = &self.churn {
            if !(0.0..=1.0).contains(&c.probability) {
                return Err(out_of_range(
                    "churn.probability",
                    format!("must be in [0,1], got {}", c.probability),
                ));
            }
        }

        if self.attributes.is_empty() {
            return Err(out_of_range("attributes", "at least one attribute is required"));
        }
        for (i, a) in self.attributes.iter().enumerate() {
            if a.name.is_empty() {
                return Err(out_of_range(format!("attributes[{i}].name"), "must be non-empty"));
            }
            if self.attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(out_of_range(
                    format!("attributes[{i}].name"),
                    format!("duplicate attribute '{}'", a.name),
                ));
            }
            validate_field(&a.field, &format!("attributes[{i}].field"))?;
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty()
                || !t
                    .name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
            {
                return Err(out_of_range(
                    format!("tenants[{i}].name"),
                    format!("must match [a-z0-9_-]+, got '{}'", t.name),
                ));
            }
            if self.tenants[..i].iter().any(|other| other.name == t.name) {
                return Err(out_of_range(
                    format!("tenants[{i}].name"),
                    format!("duplicate tenant '{}'", t.name),
                ));
            }
            if !(t.pool.is_finite() && t.pool > 0.0) {
                return Err(out_of_range(
                    format!("tenants[{i}].pool"),
                    format!("must be finite and > 0 (requests/epoch), got {}", t.pool),
                ));
            }
        }

        if self.queries.is_empty() {
            return Err(out_of_range("queries", "at least one query is required"));
        }
        for (i, q) in self.queries.iter().enumerate() {
            if q.text.trim().is_empty() {
                return Err(out_of_range(format!("queries[{i}].text"), "must be non-empty"));
            }
            match (&q.tenant, self.tenants.is_empty()) {
                (None, true) => {}
                (Some(name), false) => {
                    if !self.tenants.iter().any(|t| &t.name == name) {
                        return Err(out_of_range(
                            format!("queries[{i}].tenant"),
                            format!("references undeclared tenant '{name}'"),
                        ));
                    }
                }
                (None, false) => {
                    return Err(out_of_range(
                        format!("queries[{i}].tenant"),
                        "required: this spec declares [[tenants]], so every query must name \
                         its owner",
                    ));
                }
                (Some(name), true) => {
                    return Err(out_of_range(
                        format!("queries[{i}].tenant"),
                        format!("references tenant '{name}' but the spec declares no [[tenants]]"),
                    ));
                }
            }
        }

        for (i, s) in self.shifts.iter().enumerate() {
            if s.epoch() >= self.epochs {
                return Err(out_of_range(
                    format!("shifts[{i}].epoch"),
                    format!(
                        "must be < epochs ({}), got {} (the shift would never apply)",
                        self.epochs,
                        s.epoch()
                    ),
                ));
            }
            let check_prob = |p: f64, path: String| {
                if (0.0..=1.0).contains(&p) {
                    Ok(())
                } else {
                    Err(out_of_range(path, format!("must be in [0,1], got {p}")))
                }
            };
            let check_rect = |rect: &(f64, f64, f64, f64), path: String| {
                let (x0, y0, x1, y1) = *rect;
                let finite = x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite();
                if finite && x0 < x1 && y0 < y1 {
                    Ok(())
                } else {
                    Err(out_of_range(
                        path,
                        format!(
                            "must be a finite rectangle with x0 < x1 and y0 < y1, got {rect:?}"
                        ),
                    ))
                }
            };
            match s {
                ShiftSpec::Participation { factor, .. } => {
                    if !(factor.is_finite() && *factor >= 0.0) {
                        return Err(out_of_range(
                            format!("shifts[{i}].factor"),
                            format!("must be >= 0, got {factor}"),
                        ));
                    }
                }
                ShiftSpec::Dropout { probability, rect, .. } => {
                    check_prob(*probability, format!("shifts[{i}].probability"))?;
                    check_rect(rect, format!("shifts[{i}].rect"))?;
                    // A dropout region that misses the world entirely is a
                    // silent no-op shift — the golden would record a drift
                    // that never happened.
                    let size = self.grid.size_km;
                    if rect.2 <= 0.0 || rect.0 >= size || rect.3 <= 0.0 || rect.1 >= size {
                        return Err(out_of_range(
                            format!("shifts[{i}].rect"),
                            format!(
                                "must intersect the region [0,{size})² or the shift can never \
                                 silence a sensor, got {rect:?}"
                            ),
                        ));
                    }
                }
                ShiftSpec::Migrate { probability, rect, .. } => {
                    check_prob(*probability, format!("shifts[{i}].probability"))?;
                    check_rect(rect, format!("shifts[{i}].rect"))?;
                    // Migrants are placed uniformly in the target and never
                    // forced back: a target outside the region would
                    // teleport the crowd somewhere no request can reach.
                    let size = self.grid.size_km;
                    if rect.0 < 0.0 || rect.1 < 0.0 || rect.2 > size || rect.3 > size {
                        return Err(out_of_range(
                            format!("shifts[{i}].rect"),
                            format!(
                                "must lie inside the region [0,{size})² (migrants are placed \
                                 uniformly in the target), got {rect:?}"
                            ),
                        ));
                    }
                }
            }
        }
        if let Some(f) = &self.faults {
            for (i, w) in f.crowd.iter().enumerate() {
                if !matches!(w.kind.as_str(), "drop" | "delay" | "duplicate") {
                    return Err(out_of_range(
                        format!("faults.crowd[{i}].kind"),
                        format!("must be 'drop', 'delay', or 'duplicate', got '{}'", w.kind),
                    ));
                }
                if !(0.0..=1.0).contains(&w.probability) {
                    return Err(out_of_range(
                        format!("faults.crowd[{i}].probability"),
                        format!("must be in [0,1], got {}", w.probability),
                    ));
                }
                if w.from_epoch > w.to_epoch {
                    return Err(out_of_range(
                        format!("faults.crowd[{i}].from_epoch"),
                        format!(
                            "window is empty: from_epoch {} > to_epoch {}",
                            w.from_epoch, w.to_epoch
                        ),
                    ));
                }
                if w.to_epoch >= self.epochs {
                    return Err(out_of_range(
                        format!("faults.crowd[{i}].to_epoch"),
                        format!("must be < epochs ({}), got {}", self.epochs, w.to_epoch),
                    ));
                }
                if w.kind == "delay" {
                    if !(w.minutes.is_finite() && w.minutes > 0.0) {
                        return Err(out_of_range(
                            format!("faults.crowd[{i}].minutes"),
                            format!("must be finite and > 0 for a delay fault, got {}", w.minutes),
                        ));
                    }
                } else if w.minutes != 0.0 {
                    return Err(out_of_range(
                        format!("faults.crowd[{i}].minutes"),
                        format!("only meaningful for 'delay' faults, got {}", w.minutes),
                    ));
                }
                // Two same-kind windows covering one epoch would silently
                // shadow each other in crowd_faults_at — reject the overlap.
                for (j, other) in f.crowd[..i].iter().enumerate() {
                    if other.kind == w.kind
                        && w.from_epoch <= other.to_epoch
                        && other.from_epoch <= w.to_epoch
                    {
                        return Err(out_of_range(
                            format!("faults.crowd[{i}]"),
                            format!(
                                "'{}' window [{}, {}] overlaps faults.crowd[{j}]'s [{}, {}]",
                                w.kind, w.from_epoch, w.to_epoch, other.from_epoch, other.to_epoch
                            ),
                        ));
                    }
                }
            }
            // Retry numerics are validated by the ServerConfig delegation
            // above (the core RetryPolicy validator).
            for (i, c) in f.crash.iter().enumerate() {
                if craqr_core::CrashPoint::from_name(&c.point).is_none() {
                    return Err(out_of_range(
                        format!("faults.crash[{i}].point"),
                        format!(
                            "unknown crash point '{}'; valid: {}",
                            c.point,
                            craqr_core::CrashPoint::ALL
                                .iter()
                                .map(|p| p.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    ));
                }
                if c.epoch >= self.epochs {
                    return Err(out_of_range(
                        format!("faults.crash[{i}].epoch"),
                        format!("must be < epochs ({}), got {}", self.epochs, c.epoch),
                    ));
                }
            }
        }
        if let Some(a) = &self.adaptive {
            // Delegates range checks to the controller's own validator so
            // spec and runtime can never disagree on what "valid" means.
            a.to_config()?;
            // On a multi-tenant server replans water-fill the declared
            // tenant pools; a flat budget_pool would be silently ignored,
            // so declaring both is a contradiction worth rejecting.
            if a.budget_pool.is_some() && !self.tenants.is_empty() {
                return Err(out_of_range(
                    "adaptive.budget_pool",
                    "incompatible with [[tenants]]: multi-tenant replans allocate from the \
                     declared per-tenant pools, so a flat pool would never be used",
                ));
            }
        }
        Ok(())
    }

    /// The [`craqr_core::ServerConfig`] this spec describes.
    pub fn to_server_config(
        &self,
        exec: craqr_core::ExecMode,
    ) -> Result<craqr_core::ServerConfig, SpecError> {
        use craqr_core::plan::TopologyShape;
        // The exec mode is caller-supplied rather than spec-declared, but
        // it rides through the same boundary: reject the degenerate shard
        // count here, with a proper error, instead of letting
        // `ExecMode::shards()` panic mid-epoch.
        if matches!(exec, craqr_core::ExecMode::Sharded(0)) {
            return Err(out_of_range("exec.shards", "Sharded(0) has no workers to run on"));
        }
        let shape = match self.planner.shape.as_str() {
            "star" => TopologyShape::Star,
            _ => TopologyShape::Chain,
        };
        let (error_model, mitigation) = match &self.errors {
            None => (craqr_core::ErrorModel::none(), craqr_core::Mitigation::standard()),
            Some(e) => {
                for (path, v) in
                    [("errors.gps_sigma", e.gps_sigma), ("errors.value_sigma", e.value_sigma)]
                {
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(out_of_range(path, format!("must be >= 0, got {v}")));
                    }
                }
                if !(0.0..=1.0).contains(&e.bool_flip_prob) {
                    return Err(out_of_range(
                        "errors.bool_flip_prob",
                        format!("must be in [0,1], got {}", e.bool_flip_prob),
                    ));
                }
                let mitigation = match e.mitigation.as_str() {
                    "off" => craqr_core::Mitigation::off(),
                    _ => craqr_core::Mitigation::standard(),
                };
                (
                    craqr_core::ErrorModel::new(e.gps_sigma, e.bool_flip_prob, e.value_sigma),
                    mitigation,
                )
            }
        };
        Ok(craqr_core::ServerConfig {
            planner: craqr_core::PlannerConfig {
                grid_side: self.grid.side,
                batch_duration: self.planner.batch_minutes,
                f_headroom: self.planner.f_headroom,
                shape,
                seed: self.seed,
                enforce_min_area: self.planner.enforce_min_area,
                ..craqr_core::PlannerConfig::default()
            },
            tuner: craqr_core::BudgetTuner {
                nv_threshold: self.budget.nv_threshold,
                delta: self.budget.delta,
                min_budget: self.budget.min,
                max_budget: self.budget.max,
            },
            incentive: craqr_core::IncentivePolicy::default(),
            error_model,
            mitigation,
            initial_budget: self.budget.initial,
            mobility_substeps: self.planner.mobility_substeps,
            exec,
            retry: self.faults.as_ref().and_then(|f| f.retry.as_ref()).map(|r| {
                craqr_core::RetryPolicy {
                    shortfall_threshold: r.threshold,
                    backoff: r.backoff,
                    max_attempts: r.max_attempts,
                }
            }),
        })
    }
}

impl PopulationSpec {
    /// The [`craqr_sensing::PopulationConfig`] this spec describes, with
    /// `city` placement expanded over the concrete region.
    pub fn to_config(
        &self,
        region: &craqr_geom::Rect,
    ) -> Result<craqr_sensing::PopulationConfig, SpecError> {
        use craqr_sensing::{Mobility, Placement};
        let placement = match &self.placement {
            PlacementSpec::Uniform => Placement::Uniform,
            PlacementSpec::City => Placement::city(region),
            PlacementSpec::Hotspots { floor, spots } => {
                Placement::Hotspots { spots: spots.clone(), floor: *floor }
            }
        };
        let mobility = match &self.mobility {
            MobilitySpec::Stationary => Mobility::Stationary,
            MobilitySpec::Walk { sigma } => Mobility::RandomWalk { sigma: *sigma },
            MobilitySpec::Waypoint { speed, pause } => {
                if !(speed.is_finite() && *speed > 0.0) {
                    return Err(out_of_range(
                        "population.mobility.speed",
                        format!("must be > 0, got {speed}"),
                    ));
                }
                Mobility::RandomWaypoint {
                    speed: *speed,
                    pause: *pause,
                    target: None,
                    pause_left: 0.0,
                }
            }
            MobilitySpec::GaussMarkov { alpha, mean_speed, sigma } => {
                if !(0.0..1.0).contains(alpha) {
                    return Err(out_of_range(
                        "population.mobility.alpha",
                        format!("must be in [0,1), got {alpha}"),
                    ));
                }
                Mobility::GaussMarkov {
                    alpha: *alpha,
                    mean_speed: *mean_speed,
                    sigma: *sigma,
                    velocity: (0.0, 0.0),
                }
            }
        };
        Ok(craqr_sensing::PopulationConfig {
            size: self.size as usize,
            placement,
            mobility,
            human_fraction: self.human_fraction,
        })
    }
}

fn parse_placement(r: &mut Reader<'_>) -> Result<PlacementSpec, SpecError> {
    let kind = r.req_str("kind")?;
    match kind.as_str() {
        "uniform" => Ok(PlacementSpec::Uniform),
        "city" => Ok(PlacementSpec::City),
        "hotspots" => Ok(PlacementSpec::Hotspots {
            floor: r.opt_f64("floor", 1.0)?,
            spots: r.opt_quads("spots", Vec::new())?,
        }),
        other => Err(out_of_range(
            r.at("kind"),
            format!("must be 'uniform', 'city', or 'hotspots', got '{other}'"),
        )),
    }
}

fn parse_mobility(r: &mut Reader<'_>) -> Result<MobilitySpec, SpecError> {
    let kind = r.req_str("kind")?;
    match kind.as_str() {
        "stationary" => Ok(MobilitySpec::Stationary),
        "walk" => Ok(MobilitySpec::Walk { sigma: r.req_f64("sigma")? }),
        "waypoint" => Ok(MobilitySpec::Waypoint {
            speed: r.req_f64("speed")?,
            pause: r.opt_f64("pause", 0.0)?,
        }),
        "gauss_markov" => Ok(MobilitySpec::GaussMarkov {
            alpha: r.req_f64("alpha")?,
            mean_speed: r.req_f64("mean_speed")?,
            sigma: r.req_f64("sigma")?,
        }),
        other => Err(out_of_range(
            r.at("kind"),
            format!("must be 'stationary', 'walk', 'waypoint', or 'gauss_markov', got '{other}'"),
        )),
    }
}

/// Reads a required `[x0, y0, x1, y1]` rectangle.
fn req_rect(r: &mut Reader<'_>) -> Result<(f64, f64, f64, f64), SpecError> {
    let path = r.at("rect");
    let v = r.req("rect")?;
    let ConfigValue::Array(quad) = v else {
        return Err(mismatch(&path, "array of 4 numbers", v));
    };
    if quad.len() != 4 {
        return Err(SpecError::OutOfRange {
            path,
            message: format!("needs exactly 4 numbers (x0, y0, x1, y1), got {}", quad.len()),
        });
    }
    Ok((
        as_f64(&quad[0], &path)?,
        as_f64(&quad[1], &path)?,
        as_f64(&quad[2], &path)?,
        as_f64(&quad[3], &path)?,
    ))
}

fn parse_shift(r: &mut Reader<'_>) -> Result<ShiftSpec, SpecError> {
    let kind = r.req_str("kind")?;
    let epoch = r.req_u32("epoch")?;
    match kind.as_str() {
        "participation" => Ok(ShiftSpec::Participation { epoch, factor: r.req_f64("factor")? }),
        "dropout" => Ok(ShiftSpec::Dropout {
            epoch,
            probability: r.req_f64("probability")?,
            rect: req_rect(r)?,
        }),
        "migrate" => Ok(ShiftSpec::Migrate {
            epoch,
            probability: r.req_f64("probability")?,
            rect: req_rect(r)?,
        }),
        other => Err(out_of_range(
            r.at("kind"),
            format!("must be 'participation', 'dropout', or 'migrate', got '{other}'"),
        )),
    }
}

fn parse_field(r: &mut Reader<'_>) -> Result<FieldSpec, SpecError> {
    let kind = r.req_str("kind")?;
    match kind.as_str() {
        "temperature" => Ok(FieldSpec::Temperature {
            base: r.opt_f64("base", 20.0)?,
            y_gradient: r.opt_f64("y_gradient", 0.0)?,
            islands: r.opt_quads("islands", Vec::new())?,
            diurnal_amplitude: r.opt_f64("diurnal_amplitude", 0.0)?,
            diurnal_period: r.opt_f64("diurnal_period", 1440.0)?,
        }),
        "rain" => Ok(FieldSpec::Rain {
            x_start: r.req_f64("x_start")?,
            speed: r.opt_f64("speed", 0.0)?,
            width: r.req_f64("width")?,
        }),
        "constant" => match r.take("value") {
            Some(ConfigValue::Bool(b)) => Ok(FieldSpec::ConstantBool { value: *b }),
            Some(v) => Ok(FieldSpec::ConstantFloat { value: as_f64(v, &r.at("value"))? }),
            None => Err(SpecError::MissingField { path: r.at("value") }),
        },
        "burst" => Ok(FieldSpec::Burst {
            mu: r.opt_f64("mu", 0.0)?,
            alpha: r.req_f64("alpha")?,
            beta: r.req_f64("beta")?,
            sigma: r.req_f64("sigma")?,
            horizon: r.req_f64("horizon")?,
            immigrants: r.req_u32("immigrants")?,
            branching_ratio: r.opt_f64("branching_ratio", 0.0)?,
            scale: r.opt_f64("scale", 1.0)?,
        }),
        other => Err(out_of_range(
            r.at("kind"),
            format!("must be 'temperature', 'rain', 'constant', or 'burst', got '{other}'"),
        )),
    }
}

fn validate_field(field: &FieldSpec, path: &str) -> Result<(), SpecError> {
    match field {
        FieldSpec::Temperature { base, y_gradient, islands, diurnal_amplitude, diurnal_period } => {
            if !(base.is_finite() && y_gradient.is_finite() && diurnal_amplitude.is_finite()) {
                return Err(out_of_range(
                    format!("{path}.base"),
                    "base/y_gradient/diurnal_amplitude must be finite",
                ));
            }
            if !(diurnal_period.is_finite() && *diurnal_period > 0.0) {
                return Err(out_of_range(
                    format!("{path}.diurnal_period"),
                    format!("must be > 0, got {diurnal_period}"),
                ));
            }
            for (i, &(cx, cy, amplitude, sigma)) in islands.iter().enumerate() {
                if !(cx.is_finite() && cy.is_finite() && amplitude.is_finite()) {
                    return Err(out_of_range(
                        format!("{path}.islands[{i}]"),
                        "island centre/amplitude must be finite",
                    ));
                }
                if !(sigma.is_finite() && sigma > 0.0) {
                    return Err(out_of_range(
                        format!("{path}.islands[{i}]"),
                        format!("island sigma must be > 0, got {sigma}"),
                    ));
                }
            }
        }
        FieldSpec::Rain { x_start, speed, width } => {
            if !(x_start.is_finite() && speed.is_finite()) {
                return Err(out_of_range(
                    format!("{path}.x_start"),
                    "x_start/speed must be finite",
                ));
            }
            if !(width.is_finite() && *width > 0.0) {
                return Err(out_of_range(
                    format!("{path}.width"),
                    format!("must be > 0, got {width}"),
                ));
            }
        }
        FieldSpec::ConstantFloat { value } => {
            if !value.is_finite() {
                return Err(out_of_range(format!("{path}.value"), "must be finite"));
            }
        }
        FieldSpec::ConstantBool { .. } => {}
        FieldSpec::Burst { mu, alpha, beta, sigma, horizon, branching_ratio, scale, .. } => {
            if !(mu.is_finite() && *mu >= 0.0 && alpha.is_finite() && *alpha >= 0.0) {
                return Err(out_of_range(format!("{path}.mu"), "mu/alpha must be >= 0"));
            }
            if !(beta.is_finite() && *beta > 0.0) {
                return Err(out_of_range(
                    format!("{path}.beta"),
                    format!("must be > 0, got {beta}"),
                ));
            }
            if !(sigma.is_finite() && *sigma > 0.0) {
                return Err(out_of_range(
                    format!("{path}.sigma"),
                    format!("must be > 0, got {sigma}"),
                ));
            }
            if !(horizon.is_finite() && *horizon > 0.0) {
                return Err(out_of_range(
                    format!("{path}.horizon"),
                    format!("must be > 0, got {horizon}"),
                ));
            }
            if !(0.0..1.0).contains(branching_ratio) {
                return Err(out_of_range(
                    format!("{path}.branching_ratio"),
                    format!("must be in [0,1) (>= 1 is supercritical), got {branching_ratio}"),
                ));
            }
            if !scale.is_finite() {
                return Err(out_of_range(format!("{path}.scale"), "must be finite"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Serializes to the value tree [`ScenarioSpec::from_table`] accepts.
    /// All defaults are materialized, so `from_table(to_table(s)) == s`.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new();
        t.insert("name", ConfigValue::Str(self.name.clone()));
        t.insert("description", ConfigValue::Str(self.description.clone()));
        t.insert("seed", ConfigValue::Int(self.seed as i64));
        t.insert("epochs", ConfigValue::Int(self.epochs as i64));

        let mut grid = Table::new();
        grid.insert("size_km", ConfigValue::Float(self.grid.size_km));
        grid.insert("side", ConfigValue::Int(self.grid.side as i64));
        t.insert("grid", ConfigValue::Table(grid));

        let mut pop = Table::new();
        pop.insert("size", ConfigValue::Int(self.population.size as i64));
        pop.insert("human_fraction", ConfigValue::Float(self.population.human_fraction));
        pop.insert("placement", ConfigValue::Table(placement_table(&self.population.placement)));
        pop.insert("mobility", ConfigValue::Table(mobility_table(&self.population.mobility)));
        t.insert("population", ConfigValue::Table(pop));

        let mut planner = Table::new();
        planner.insert("batch_minutes", ConfigValue::Float(self.planner.batch_minutes));
        planner.insert("f_headroom", ConfigValue::Float(self.planner.f_headroom));
        planner
            .insert("mobility_substeps", ConfigValue::Int(self.planner.mobility_substeps as i64));
        planner.insert("enforce_min_area", ConfigValue::Bool(self.planner.enforce_min_area));
        planner.insert("shape", ConfigValue::Str(self.planner.shape.clone()));
        t.insert("planner", ConfigValue::Table(planner));

        let mut budget = Table::new();
        budget.insert("initial", ConfigValue::Float(self.budget.initial));
        budget.insert("nv_threshold", ConfigValue::Float(self.budget.nv_threshold));
        budget.insert("delta", ConfigValue::Float(self.budget.delta));
        budget.insert("min", ConfigValue::Float(self.budget.min));
        budget.insert("max", ConfigValue::Float(self.budget.max));
        t.insert("budget", ConfigValue::Table(budget));

        if let Some(e) = &self.errors {
            let mut errors = Table::new();
            errors.insert("gps_sigma", ConfigValue::Float(e.gps_sigma));
            errors.insert("bool_flip_prob", ConfigValue::Float(e.bool_flip_prob));
            errors.insert("value_sigma", ConfigValue::Float(e.value_sigma));
            errors.insert("mitigation", ConfigValue::Str(e.mitigation.clone()));
            t.insert("errors", ConfigValue::Table(errors));
        }
        if let Some(c) = &self.churn {
            let mut churn = Table::new();
            churn.insert("probability", ConfigValue::Float(c.probability));
            t.insert("churn", ConfigValue::Table(churn));
        }

        let attrs: Vec<ConfigValue> = self
            .attributes
            .iter()
            .map(|a| {
                let mut at = Table::new();
                at.insert("name", ConfigValue::Str(a.name.clone()));
                at.insert("human", ConfigValue::Bool(a.human));
                at.insert("field", ConfigValue::Table(field_table(&a.field)));
                ConfigValue::Table(at)
            })
            .collect();
        t.insert("attributes", ConfigValue::Array(attrs));

        if !self.tenants.is_empty() {
            let tenants: Vec<ConfigValue> = self
                .tenants
                .iter()
                .map(|tenant| {
                    let mut tt = Table::new();
                    tt.insert("name", ConfigValue::Str(tenant.name.clone()));
                    tt.insert("pool", ConfigValue::Float(tenant.pool));
                    ConfigValue::Table(tt)
                })
                .collect();
            t.insert("tenants", ConfigValue::Array(tenants));
        }

        let queries: Vec<ConfigValue> = self
            .queries
            .iter()
            .map(|q| {
                let mut qt = Table::new();
                qt.insert("text", ConfigValue::Str(q.text.clone()));
                if let Some(tenant) = &q.tenant {
                    qt.insert("tenant", ConfigValue::Str(tenant.clone()));
                }
                ConfigValue::Table(qt)
            })
            .collect();
        t.insert("queries", ConfigValue::Array(queries));

        if !self.shifts.is_empty() {
            let shifts: Vec<ConfigValue> =
                self.shifts.iter().map(|s| ConfigValue::Table(shift_table(s))).collect();
            t.insert("shifts", ConfigValue::Array(shifts));
        }
        if let Some(a) = &self.adaptive {
            let mut at = Table::new();
            at.insert("enabled", ConfigValue::Bool(a.enabled));
            at.insert("detector", ConfigValue::Str(a.detector.clone()));
            at.insert("slack", ConfigValue::Float(a.slack));
            at.insert("threshold", ConfigValue::Float(a.threshold));
            at.insert("warmup_epochs", ConfigValue::Int(a.warmup_epochs as i64));
            at.insert("cooldown_epochs", ConfigValue::Int(a.cooldown_epochs as i64));
            at.insert("gamma0", ConfigValue::Float(a.gamma0));
            at.insert("decay_batches", ConfigValue::Float(a.decay_batches));
            at.insert("initial_rate", ConfigValue::Float(a.initial_rate));
            if let Some(pool) = a.budget_pool {
                at.insert("budget_pool", ConfigValue::Float(pool));
            }
            at.insert("rebuild_chains", ConfigValue::Bool(a.rebuild_chains));
            at.insert("demand_headroom", ConfigValue::Float(a.demand_headroom));
            t.insert("adaptive", ConfigValue::Table(at));
        }
        if let Some(rl) = &self.runlog {
            let mut rt = Table::new();
            rt.insert("record", ConfigValue::Bool(rl.record));
            t.insert("runlog", ConfigValue::Table(rt));
        }
        if let Some(tm) = &self.telemetry {
            let mut tt = Table::new();
            tt.insert("report", ConfigValue::Bool(tm.report));
            t.insert("telemetry", ConfigValue::Table(tt));
        }
        if let Some(f) = &self.faults {
            let mut ft = Table::new();
            if !f.crowd.is_empty() {
                let crowd: Vec<ConfigValue> = f
                    .crowd
                    .iter()
                    .map(|w| {
                        let mut wt = Table::new();
                        wt.insert("kind", ConfigValue::Str(w.kind.clone()));
                        wt.insert("from_epoch", ConfigValue::Int(w.from_epoch as i64));
                        wt.insert("to_epoch", ConfigValue::Int(w.to_epoch as i64));
                        wt.insert("probability", ConfigValue::Float(w.probability));
                        if w.kind == "delay" {
                            wt.insert("minutes", ConfigValue::Float(w.minutes));
                        }
                        ConfigValue::Table(wt)
                    })
                    .collect();
                ft.insert("crowd", ConfigValue::Array(crowd));
            }
            if let Some(rt) = &f.retry {
                let mut rtt = Table::new();
                rtt.insert("threshold", ConfigValue::Float(rt.threshold));
                rtt.insert("backoff", ConfigValue::Float(rt.backoff));
                rtt.insert("max_attempts", ConfigValue::Int(rt.max_attempts as i64));
                ft.insert("retry", ConfigValue::Table(rtt));
            }
            if !f.crash.is_empty() {
                let crash: Vec<ConfigValue> = f
                    .crash
                    .iter()
                    .map(|c| {
                        let mut ct = Table::new();
                        ct.insert("point", ConfigValue::Str(c.point.clone()));
                        ct.insert("epoch", ConfigValue::Int(c.epoch as i64));
                        ConfigValue::Table(ct)
                    })
                    .collect();
                ft.insert("crash", ConfigValue::Array(crash));
            }
            t.insert("faults", ConfigValue::Table(ft));
        }
        t
    }

    /// Serializes to TOML; [`ScenarioSpec::from_toml`] inverts it exactly.
    pub fn to_toml(&self) -> String {
        render_toml(&self.to_table())
    }

    /// Serializes to JSON; [`ScenarioSpec::from_json`] inverts it exactly.
    pub fn to_json(&self) -> String {
        render_json(&self.to_table())
    }
}

fn quads_value(quads: &[(f64, f64, f64, f64)]) -> ConfigValue {
    ConfigValue::Array(
        quads
            .iter()
            .map(|&(a, b, c, d)| {
                ConfigValue::Array(vec![
                    ConfigValue::Float(a),
                    ConfigValue::Float(b),
                    ConfigValue::Float(c),
                    ConfigValue::Float(d),
                ])
            })
            .collect(),
    )
}

fn placement_table(p: &PlacementSpec) -> Table {
    let mut t = Table::new();
    match p {
        PlacementSpec::Uniform => t.insert("kind", ConfigValue::Str("uniform".into())),
        PlacementSpec::City => t.insert("kind", ConfigValue::Str("city".into())),
        PlacementSpec::Hotspots { floor, spots } => {
            t.insert("kind", ConfigValue::Str("hotspots".into()));
            t.insert("floor", ConfigValue::Float(*floor));
            t.insert("spots", quads_value(spots));
        }
    }
    t
}

fn mobility_table(m: &MobilitySpec) -> Table {
    let mut t = Table::new();
    match m {
        MobilitySpec::Stationary => t.insert("kind", ConfigValue::Str("stationary".into())),
        MobilitySpec::Walk { sigma } => {
            t.insert("kind", ConfigValue::Str("walk".into()));
            t.insert("sigma", ConfigValue::Float(*sigma));
        }
        MobilitySpec::Waypoint { speed, pause } => {
            t.insert("kind", ConfigValue::Str("waypoint".into()));
            t.insert("speed", ConfigValue::Float(*speed));
            t.insert("pause", ConfigValue::Float(*pause));
        }
        MobilitySpec::GaussMarkov { alpha, mean_speed, sigma } => {
            t.insert("kind", ConfigValue::Str("gauss_markov".into()));
            t.insert("alpha", ConfigValue::Float(*alpha));
            t.insert("mean_speed", ConfigValue::Float(*mean_speed));
            t.insert("sigma", ConfigValue::Float(*sigma));
        }
    }
    t
}

fn rect_value(rect: &(f64, f64, f64, f64)) -> ConfigValue {
    ConfigValue::Array(vec![
        ConfigValue::Float(rect.0),
        ConfigValue::Float(rect.1),
        ConfigValue::Float(rect.2),
        ConfigValue::Float(rect.3),
    ])
}

fn shift_table(s: &ShiftSpec) -> Table {
    let mut t = Table::new();
    match s {
        ShiftSpec::Participation { epoch, factor } => {
            t.insert("kind", ConfigValue::Str("participation".into()));
            t.insert("epoch", ConfigValue::Int(*epoch as i64));
            t.insert("factor", ConfigValue::Float(*factor));
        }
        ShiftSpec::Dropout { epoch, probability, rect } => {
            t.insert("kind", ConfigValue::Str("dropout".into()));
            t.insert("epoch", ConfigValue::Int(*epoch as i64));
            t.insert("probability", ConfigValue::Float(*probability));
            t.insert("rect", rect_value(rect));
        }
        ShiftSpec::Migrate { epoch, probability, rect } => {
            t.insert("kind", ConfigValue::Str("migrate".into()));
            t.insert("epoch", ConfigValue::Int(*epoch as i64));
            t.insert("probability", ConfigValue::Float(*probability));
            t.insert("rect", rect_value(rect));
        }
    }
    t
}

fn field_table(f: &FieldSpec) -> Table {
    let mut t = Table::new();
    match f {
        FieldSpec::Temperature { base, y_gradient, islands, diurnal_amplitude, diurnal_period } => {
            t.insert("kind", ConfigValue::Str("temperature".into()));
            t.insert("base", ConfigValue::Float(*base));
            t.insert("y_gradient", ConfigValue::Float(*y_gradient));
            t.insert("islands", quads_value(islands));
            t.insert("diurnal_amplitude", ConfigValue::Float(*diurnal_amplitude));
            t.insert("diurnal_period", ConfigValue::Float(*diurnal_period));
        }
        FieldSpec::Rain { x_start, speed, width } => {
            t.insert("kind", ConfigValue::Str("rain".into()));
            t.insert("x_start", ConfigValue::Float(*x_start));
            t.insert("speed", ConfigValue::Float(*speed));
            t.insert("width", ConfigValue::Float(*width));
        }
        FieldSpec::ConstantFloat { value } => {
            t.insert("kind", ConfigValue::Str("constant".into()));
            t.insert("value", ConfigValue::Float(*value));
        }
        FieldSpec::ConstantBool { value } => {
            t.insert("kind", ConfigValue::Str("constant".into()));
            t.insert("value", ConfigValue::Bool(*value));
        }
        FieldSpec::Burst {
            mu,
            alpha,
            beta,
            sigma,
            horizon,
            immigrants,
            branching_ratio,
            scale,
        } => {
            t.insert("kind", ConfigValue::Str("burst".into()));
            t.insert("mu", ConfigValue::Float(*mu));
            t.insert("alpha", ConfigValue::Float(*alpha));
            t.insert("beta", ConfigValue::Float(*beta));
            t.insert("sigma", ConfigValue::Float(*sigma));
            t.insert("horizon", ConfigValue::Float(*horizon));
            t.insert("immigrants", ConfigValue::Int(*immigrants as i64));
            t.insert("branching_ratio", ConfigValue::Float(*branching_ratio));
            t.insert("scale", ConfigValue::Float(*scale));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn minimal_toml() -> &'static str {
        r#"
name = "mini"
seed = 7
epochs = 3

[grid]
size_km = 4.0
side = 4

[population]
size = 200
human_fraction = 0.25
placement = { kind = "uniform" }
mobility = { kind = "walk", sigma = 0.2 }

[[attributes]]
name = "temp"
field = { kind = "constant", value = 21.0 }

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"
"#
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let s = ScenarioSpec::from_toml(minimal_toml()).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.epochs, 3);
        assert_eq!(s.planner, PlannerSpec::default());
        assert_eq!(s.budget, BudgetSpec::default());
        assert!(s.errors.is_none() && s.churn.is_none());
        assert_eq!(s.attributes.len(), 1);
        assert!(!s.attributes[0].human);
        assert_eq!(s.attributes[0].field, FieldSpec::ConstantFloat { value: 21.0 });
    }

    #[test]
    fn unknown_fields_rejected_at_every_level() {
        let with_typo = minimal_toml().replace("human_fraction = 0.25", "human_fractoin = 0.25");
        let err = ScenarioSpec::from_toml(&with_typo).unwrap_err();
        assert_eq!(err, SpecError::UnknownField { path: "population.human_fractoin".into() });

        // A stray top-level key (prepended — appending would land inside the
        // trailing [[queries]] table).
        let extra_top = format!("bogus = 1\n{}", minimal_toml());
        assert!(matches!(
            ScenarioSpec::from_toml(&extra_top).unwrap_err(),
            SpecError::UnknownField { path } if path == "bogus"
        ));
        // And a stray key inside a [[queries]] element.
        let extra_query = format!("{}\nretries = 3\n", minimal_toml());
        assert!(matches!(
            ScenarioSpec::from_toml(&extra_query).unwrap_err(),
            SpecError::UnknownField { path } if path == "queries[0].retries"
        ));
    }

    #[test]
    fn zero_cell_grid_rejected() {
        let zero = minimal_toml().replace("side = 4", "side = 0");
        let err = ScenarioSpec::from_toml(&zero).unwrap_err();
        assert!(matches!(&err, SpecError::OutOfRange { path, .. } if path == "grid.side"), "{err}");
    }

    #[test]
    fn out_of_range_budget_rejected() {
        let bad = format!("{}\n[budget]\ninitial = -3.0\n", minimal_toml());
        let err = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert!(
            matches!(&err, SpecError::OutOfRange { path, .. } if path == "budget.initial"),
            "{err}"
        );
        let inverted = format!("{}\n[budget]\nmin = 10.0\nmax = 5.0\n", minimal_toml());
        let err = ScenarioSpec::from_toml(&inverted).unwrap_err();
        assert!(
            matches!(&err, SpecError::OutOfRange { path, .. } if path == "budget.max"),
            "{err}"
        );
    }

    #[test]
    fn non_finite_field_knobs_rejected() {
        let mut s = ScenarioSpec::from_toml(minimal_toml()).unwrap();
        s.attributes[0].field = FieldSpec::Temperature {
            base: f64::NAN,
            y_gradient: 0.0,
            islands: vec![],
            diurnal_amplitude: 0.0,
            diurnal_period: 1440.0,
        };
        assert!(matches!(s.validate(), Err(SpecError::OutOfRange { .. })));
        s.attributes[0].field = FieldSpec::Rain { x_start: f64::INFINITY, speed: 0.0, width: 1.0 };
        assert!(matches!(s.validate(), Err(SpecError::OutOfRange { .. })));
        s.attributes[0].field = FieldSpec::Temperature {
            base: 20.0,
            y_gradient: 0.0,
            islands: vec![(f64::NAN, 0.0, 1.0, 1.0)],
            diurnal_amplitude: 0.0,
            diurnal_period: 1440.0,
        };
        assert!(matches!(s.validate(), Err(SpecError::OutOfRange { .. })));
    }

    #[test]
    fn runlog_block_is_strictly_parsed() {
        let s = ScenarioSpec::from_toml(minimal_toml()).unwrap();
        assert!(s.runlog.is_none(), "no [runlog] block, no recording");

        let with = format!("{}\n[runlog]\n", minimal_toml());
        let s = ScenarioSpec::from_toml(&with).unwrap();
        assert_eq!(s.runlog, Some(RunlogSpec { record: true }), "record defaults to true");

        let off = format!("{}\n[runlog]\nrecord = false\n", minimal_toml());
        assert_eq!(
            ScenarioSpec::from_toml(&off).unwrap().runlog,
            Some(RunlogSpec { record: false })
        );

        let typo = format!("{}\n[runlog]\nrecrod = true\n", minimal_toml());
        assert!(matches!(
            ScenarioSpec::from_toml(&typo).unwrap_err(),
            SpecError::UnknownField { path } if path == "runlog.recrod"
        ));
    }

    #[test]
    fn telemetry_block_is_strictly_parsed_and_round_trips() {
        let s = ScenarioSpec::from_toml(minimal_toml()).unwrap();
        assert!(s.telemetry.is_none(), "no [telemetry] block, no registry");

        let with = format!("{}\n[telemetry]\n", minimal_toml());
        let s = ScenarioSpec::from_toml(&with).unwrap();
        assert_eq!(s.telemetry, Some(TelemetrySpec { report: true }), "report defaults to true");

        let off = format!("{}\n[telemetry]\nreport = false\n", minimal_toml());
        let s = ScenarioSpec::from_toml(&off).unwrap();
        assert_eq!(s.telemetry, Some(TelemetrySpec { report: false }));

        // to_toml → from_toml keeps the block (embedded-spec replay
        // depends on this: a detached replay must see [telemetry] to
        // rebuild the registry and re-converge the report checksum).
        let back = ScenarioSpec::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back.telemetry, s.telemetry);

        let typo = format!("{}\n[telemetry]\nreprot = true\n", minimal_toml());
        assert!(matches!(
            ScenarioSpec::from_toml(&typo).unwrap_err(),
            SpecError::UnknownField { path } if path == "telemetry.reprot"
        ));
    }

    #[test]
    fn zero_shard_exec_rejected_at_the_spec_boundary() {
        let s = ScenarioSpec::from_toml(minimal_toml()).unwrap();
        let err = s.to_server_config(craqr_core::ExecMode::Sharded(0)).unwrap_err();
        assert!(
            matches!(&err, SpecError::OutOfRange { path, .. } if path == "exec.shards"),
            "{err}"
        );
        assert!(s.to_server_config(craqr_core::ExecMode::Sharded(1)).is_ok());
    }

    fn faulty_toml() -> String {
        format!(
            "{}\n{}",
            minimal_toml(),
            r#"
[faults]

[[faults.crowd]]
kind = "drop"
from_epoch = 0
to_epoch = 1
probability = 0.25

[[faults.crowd]]
kind = "delay"
probability = 0.5
minutes = 3.0

[faults.retry]
threshold = 0.6
backoff = 0.5
max_attempts = 2

[[faults.crash]]
point = "post-drain"
epoch = 1
"#
        )
    }

    #[test]
    fn faults_block_parses_and_round_trips() {
        let s = ScenarioSpec::from_toml(&faulty_toml()).unwrap();
        let f = s.faults.as_ref().unwrap();
        assert_eq!(f.crowd.len(), 2);
        assert_eq!(f.crowd[0].kind, "drop");
        // Window defaults: the delay fault covers the whole run.
        assert_eq!((f.crowd[1].from_epoch, f.crowd[1].to_epoch), (0, 2));
        assert_eq!(f.retry, Some(RetrySpec { threshold: 0.6, backoff: 0.5, max_attempts: 2 }));
        assert_eq!(f.crash, vec![CrashSpec { point: "post-drain".into(), epoch: 1 }]);

        // The retry policy rides into the server config.
        let cfg = s.to_server_config(craqr_core::ExecMode::Serial).unwrap();
        assert_eq!(cfg.retry.map(|r| r.shortfall_threshold), Some(0.6));

        // Per-epoch merge: both faults at epoch 1, only the delay at 2.
        let at1 = f.crowd_faults_at(1);
        assert_eq!(
            (at1.drop_probability, at1.delay_probability, at1.delay_minutes),
            (0.25, 0.5, 3.0)
        );
        let at2 = f.crowd_faults_at(2);
        assert_eq!((at2.drop_probability, at2.delay_probability), (0.0, 0.5));

        // Lossless round-trip through both syntaxes.
        assert_eq!(ScenarioSpec::from_toml(&s.to_toml()).unwrap(), s);
        assert_eq!(ScenarioSpec::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn faults_block_is_strictly_validated() {
        let reject = |mutation: &str, expected_path: &str| {
            let src = faulty_toml().replace("probability = 0.25", mutation);
            let err = ScenarioSpec::from_toml(&src).unwrap_err();
            assert!(
                matches!(&err, SpecError::OutOfRange { path, .. } if path == expected_path),
                "mutation '{mutation}': {err}"
            );
        };
        reject("probability = 1.5", "faults.crowd[0].probability");

        let bad_kind = faulty_toml().replace("kind = \"drop\"", "kind = \"mangle\"");
        assert!(matches!(
            ScenarioSpec::from_toml(&bad_kind).unwrap_err(),
            SpecError::OutOfRange { path, .. } if path == "faults.crowd[0].kind"
        ));
        // minutes on a non-delay fault is a contradiction, not an extra.
        let stray_minutes =
            faulty_toml().replace("probability = 0.25", "probability = 0.25\nminutes = 1.0");
        assert!(matches!(
            ScenarioSpec::from_toml(&stray_minutes).unwrap_err(),
            SpecError::OutOfRange { path, .. } if path == "faults.crowd[0].minutes"
        ));
        // A delay fault needs a positive deferral.
        let no_minutes = faulty_toml().replace("minutes = 3.0", "minutes = 0.0");
        assert!(matches!(
            ScenarioSpec::from_toml(&no_minutes).unwrap_err(),
            SpecError::OutOfRange { path, .. } if path == "faults.crowd[1].minutes"
        ));
        // Same-kind overlapping windows shadow each other — rejected.
        let overlap = faulty_toml().replace("kind = \"drop\"", "kind = \"delay\"\nminutes = 1.0");
        assert!(matches!(
            ScenarioSpec::from_toml(&overlap).unwrap_err(),
            SpecError::OutOfRange { path, .. } if path == "faults.crowd[1]"
        ));
        // Windows must land inside the run.
        let late = faulty_toml().replace("to_epoch = 1", "to_epoch = 7");
        assert!(matches!(
            ScenarioSpec::from_toml(&late).unwrap_err(),
            SpecError::OutOfRange { path, .. } if path == "faults.crowd[0].to_epoch"
        ));
        // Crash points are validated against the core's named seams.
        let bad_point = faulty_toml().replace("point = \"post-drain\"", "point = \"pre-coffee\"");
        let err = ScenarioSpec::from_toml(&bad_point).unwrap_err();
        assert!(
            matches!(&err, SpecError::OutOfRange { path, message }
                if path == "faults.crash[0].point" && message.contains("mid-log-append")),
            "{err}"
        );
        // Retry numerics delegate to the core validator.
        let bad_retry = faulty_toml().replace("backoff = 0.5", "backoff = 0.0");
        assert!(matches!(
            ScenarioSpec::from_toml(&bad_retry).unwrap_err(),
            SpecError::OutOfRange { path, .. } if path == "faults.retry.backoff"
        ));
        // Typos inside the block are caught at every level.
        let typo = faulty_toml().replace("threshold = 0.6", "treshold = 0.6");
        assert!(matches!(
            ScenarioSpec::from_toml(&typo).unwrap_err(),
            SpecError::UnknownField { path } if path == "faults.retry.treshold"
        ));
    }

    #[test]
    fn json_and_toml_agree() {
        let s = ScenarioSpec::from_toml(minimal_toml()).unwrap();
        let via_json = ScenarioSpec::from_json(&s.to_json()).unwrap();
        let via_toml = ScenarioSpec::from_toml(&s.to_toml()).unwrap();
        assert_eq!(s, via_json);
        assert_eq!(s, via_toml);
    }

    #[test]
    fn from_source_keys_on_extension() {
        let s = ScenarioSpec::from_toml(minimal_toml()).unwrap();
        assert!(ScenarioSpec::from_source("x.json", &s.to_json()).is_ok());
        assert!(ScenarioSpec::from_source("x.toml", &s.to_toml()).is_ok());
        assert!(ScenarioSpec::from_source("x.json", &s.to_toml()).is_err());
    }
}

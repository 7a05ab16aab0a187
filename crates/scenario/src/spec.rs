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
//! **The schema is the set of `Block::fields` functions below**, one per
//! block. Each of their lines names a key, its slot in the public type,
//! whether a document must carry it, and its range, and the private `Io`
//! runs that one function in three modes: a *read* walk fills the slots
//! from a value tree and rejects the keys nobody asked for, a *write* walk
//! emits them in the same order with defaults materialized, a *check* walk
//! enforces the ranges. `from_table` is blank → read walk → `validate`;
//! `to_table` is a write walk; `validate` is a check walk followed by the
//! rules no single key can state (uniqueness, tenant references, windows
//! against `epochs` and the region, `budget.max >= budget.min`) and by the
//! runtime configs' own validators. A key therefore cannot be parsed under
//! one name and written under another, and a range message always names
//! the key at fault.
//!
//! Every float key's range is a [`craqr_stats::Interval`]. A knob the
//! runtime enforces reads the constant its owner declares beside the field
//! (`PlannerConfig::BATCH_DURATION`, `ErrorModel::GPS_SIGMA`,
//! `Mobility::WAYPOINT_SPEED`, …), the same one the owner's `validate` and
//! constructor asserts read; the schema states a range itself only for the
//! keys no runtime type owns (field kinds, crowd levers, `grid.size_km`).
//!
//! Adding a key is three edits: the field with its rustdoc on the public
//! type (and its default in `Block::blank`, when that is not `Default`),
//! one line in that block's `fields`, one line in `scenarios/README.md`,
//! which documents the schema field-by-field.
//!
//! A walk needs `&mut` slots because reading fills them, so `to_table`
//! and `validate`, which take `&self`, walk a clone: a few µs once per
//! run, against writing every block's keys down a second time for `&self`.

use crate::value::{
    parse_json, parse_toml, render_json, render_toml, ConfigValue, SyntaxError, Table,
};
use craqr_adaptive::AdaptiveConfig;
use craqr_core::{Budget, BudgetPool, BudgetTuner, ErrorModel, PlannerConfig, RetryPolicy};
use craqr_mdpp::SgdConfig;
use craqr_sensing::{Mobility, Placement, PopulationConfig};
use craqr_stats::{drift, Interval};
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
        let c = AdaptiveConfig::default();
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
    /// The [`AdaptiveConfig`] this spec describes.
    pub fn to_config(&self) -> Result<AdaptiveConfig, SpecError> {
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
        let config = AdaptiveConfig {
            enabled: self.enabled,
            estimator: SgdConfig {
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
        config.validate().map_err(rejected)?;
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
        let d = RetryPolicy::default();
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
// The walk: one `fields` function per block, run in three modes
// ---------------------------------------------------------------------------

/// One table of the schema. `fields` names every key of the block once —
/// its slot, whether a document must carry it, its [`Interval`] — and [`Io`]
/// decides what naming it does: fill the slot, emit it, or check it.
trait Block: Sized {
    /// The value a read walk starts from: optional keys at their defaults,
    /// required keys at placeholders the walk overwrites.
    fn blank() -> Self;
    /// The block's keys, in the order they are read and written.
    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError>;
}

/// Whether a document must carry a key.
#[derive(Clone, Copy, PartialEq)]
enum Need {
    /// Absent is a [`SpecError::MissingField`].
    Req,
    /// Absent keeps the slot's [`Block::blank`] value — the default.
    Opt,
}
use Need::{Opt, Req};

/// What a walk does at each key.
enum Mode<'a> {
    /// Fill the slots from `table`; `seen` collects the keys the schema
    /// asked for, so the rest can be rejected as unknown.
    Read { table: &'a Table, seen: Vec<&'static str> },
    /// Emit every slot in walk order, defaults materialized.
    Write(Table),
    /// Enforce the declared ranges.
    Check,
}

/// One walk over one block.
struct Io<'a> {
    mode: Mode<'a>,
    /// Dotted path of the block (`""` at the root), for error messages.
    path: String,
    /// The spec's `epochs`, carried down to `faults.crowd[].to_epoch`,
    /// whose default is the last epoch.
    epochs: u32,
}

type Quad = (f64, f64, f64, f64);

fn quad_value(&(a, b, c, d): &Quad) -> ConfigValue {
    ConfigValue::Array([a, b, c, d].map(ConfigValue::Float).to_vec())
}

fn out_of_range(path: impl Into<String>, message: impl Into<String>) -> SpecError {
    SpecError::OutOfRange { path: path.into(), message: message.into() }
}

/// A runtime validator's `(field, requirement)` verdict as a spec error.
fn rejected((field, message): (&'static str, String)) -> SpecError {
    out_of_range(field, message)
}

/// Runs one walk over `slot`. A read walk ends by rejecting the keys
/// `fields` never asked for; a write walk hands back the block's table.
fn walk<B: Block>(slot: &mut B, mut io: Io<'_>) -> Result<Option<Table>, SpecError> {
    slot.fields(&mut io)?;
    match io.mode {
        Mode::Read { table, ref seen } => match table.keys().find(|k| !seen.contains(k)) {
            Some(key) => Err(SpecError::UnknownField { path: io.at(key) }),
            None => Ok(None),
        },
        Mode::Write(table) => Ok(Some(table)),
        Mode::Check => Ok(None),
    }
}

impl<'a> Io<'a> {
    fn root(mode: Mode<'a>) -> Self {
        Self { mode, path: String::new(), epochs: 0 }
    }

    fn reading(&self) -> bool {
        matches!(self.mode, Mode::Read { .. })
    }

    fn checking(&self) -> bool {
        matches!(self.mode, Mode::Check)
    }

    /// The table a write walk emits into.
    fn out(&mut self) -> Option<&mut Table> {
        match &mut self.mode {
            Mode::Write(table) => Some(table),
            _ => None,
        }
    }

    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn mismatch(&self, key: &str, expected: &'static str, found: &ConfigValue) -> SpecError {
        SpecError::TypeMismatch { path: self.at(key), expected, found: found.type_name() }
    }

    fn out_of_range(&self, key: &str, message: impl Into<String>) -> SpecError {
        out_of_range(self.at(key), message)
    }

    /// On a read walk, the document's value under `key` (now a known key);
    /// `None` on the other walks and for an absent optional key.
    fn get(&mut self, key: &'static str, need: Need) -> Result<Option<&'a ConfigValue>, SpecError> {
        let Mode::Read { table, seen } = &mut self.mode else { return Ok(None) };
        seen.push(key);
        match table.get(key) {
            None if need == Req => Err(SpecError::MissingField { path: self.at(key) }),
            found => Ok(found),
        }
    }

    /// Whether an `Option` slot is there to walk: the document decides on a
    /// read walk, the value on the others.
    fn has(&self, key: &str, in_value: bool) -> bool {
        match &self.mode {
            Mode::Read { table, .. } => table.get(key).is_some(),
            _ => in_value,
        }
    }

    fn number(&self, key: &str, v: &ConfigValue) -> Result<f64, SpecError> {
        match v {
            ConfigValue::Float(f) => Ok(*f),
            ConfigValue::Int(i) => Ok(*i as f64),
            other => Err(self.mismatch(key, "number", other)),
        }
    }

    fn f64(
        &mut self,
        key: &'static str,
        slot: &mut f64,
        need: Need,
        range: Interval,
    ) -> Result<(), SpecError> {
        if let Some(v) = self.get(key, need)? {
            *slot = self.number(key, v)?;
        }
        if let Some(out) = self.out() {
            out.insert(key, ConfigValue::Float(*slot));
        }
        if self.checking() {
            if let Some(message) = range.violation(*slot) {
                return Err(self.out_of_range(key, message));
            }
        }
        Ok(())
    }

    fn opt_f64(
        &mut self,
        key: &'static str,
        slot: &mut Option<f64>,
        range: Interval,
    ) -> Result<(), SpecError> {
        if self.has(key, slot.is_some()) {
            self.f64(key, slot.get_or_insert(0.0), Req, range)?;
        }
        Ok(())
    }

    fn u32(&mut self, key: &'static str, slot: &mut u32, need: Need) -> Result<(), SpecError> {
        match self.get(key, need)? {
            None => {}
            Some(ConfigValue::Int(i)) => {
                *slot = u32::try_from(*i).map_err(|_| {
                    let message = format!("must fit in an unsigned 32-bit integer, got {i}");
                    self.out_of_range(key, message)
                })?
            }
            Some(other) => return Err(self.mismatch(key, "integer", other)),
        }
        if let Some(out) = self.out() {
            out.insert(key, ConfigValue::Int(*slot as i64));
        }
        Ok(())
    }

    /// A `u64` that has to survive a TOML/JSON integer, which is signed.
    fn u64(&mut self, key: &'static str, slot: &mut u64, need: Need) -> Result<(), SpecError> {
        match self.get(key, need)? {
            None => {}
            Some(ConfigValue::Int(i)) => {
                *slot = u64::try_from(*i)
                    .map_err(|_| self.out_of_range(key, format!("must be >= 0, got {i}")))?
            }
            Some(other) => return Err(self.mismatch(key, "integer", other)),
        }
        if let Some(out) = self.out() {
            out.insert(key, ConfigValue::Int(*slot as i64));
        }
        if self.checking() && *slot > i64::MAX as u64 {
            let message =
                format!("must fit in a signed 64-bit integer (TOML/JSON integer), got {slot}");
            return Err(self.out_of_range(key, message));
        }
        Ok(())
    }

    fn bool(&mut self, key: &'static str, slot: &mut bool, need: Need) -> Result<(), SpecError> {
        match self.get(key, need)? {
            None => {}
            Some(ConfigValue::Bool(b)) => *slot = *b,
            Some(other) => return Err(self.mismatch(key, "boolean", other)),
        }
        if let Some(out) = self.out() {
            out.insert(key, ConfigValue::Bool(*slot));
        }
        Ok(())
    }

    fn str(&mut self, key: &'static str, slot: &mut String, need: Need) -> Result<(), SpecError> {
        match self.get(key, need)? {
            None => {}
            Some(ConfigValue::Str(s)) => slot.clone_from(s),
            Some(other) => return Err(self.mismatch(key, "string", other)),
        }
        if let Some(out) = self.out() {
            out.insert(key, ConfigValue::Str(slot.clone()));
        }
        Ok(())
    }

    fn opt_str(&mut self, key: &'static str, slot: &mut Option<String>) -> Result<(), SpecError> {
        if self.has(key, slot.is_some()) {
            self.str(key, slot.get_or_insert_with(String::new), Req)?;
        }
        Ok(())
    }

    /// A required `[a-z0-9_-]+` string; `note` says what the name is for.
    fn slug(&mut self, key: &'static str, slot: &mut String, note: &str) -> Result<(), SpecError> {
        self.str(key, slot, Req)?;
        let ok = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-';
        if self.checking() && (slot.is_empty() || !slot.bytes().all(ok)) {
            let message = format!("must match [a-z0-9_-]+{note}, got '{slot}'");
            return Err(self.out_of_range(key, message));
        }
        Ok(())
    }

    /// A string that has to be one of `all`.
    fn choice(
        &mut self,
        key: &'static str,
        slot: &mut String,
        need: Need,
        all: &[&str],
    ) -> Result<(), SpecError> {
        self.str(key, slot, need)?;
        if self.checking() && !all.contains(&slot.as_str()) {
            return Err(self.not_among(key, all, slot));
        }
        Ok(())
    }

    /// `must be 'a', 'b', or 'c', got 'x'`.
    fn not_among(&self, key: &str, all: &[&str], got: &str) -> SpecError {
        let quoted: Vec<String> = all.iter().map(|a| format!("'{a}'")).collect();
        let (last, rest) = quoted.split_last().expect("a choice has alternatives");
        let comma = if rest.len() > 1 { "," } else { "" };
        let message = format!("must be {}{comma} or {last}, got '{got}'", rest.join(", "));
        self.out_of_range(key, message)
    }

    /// The `kind` key of a tagged enum: the document's on a read walk (the
    /// caller then switches the slot to that variant's blank), `current`
    /// on the others.
    fn tag(&mut self, current: &str) -> Result<String, SpecError> {
        let mut kind = current.to_string();
        self.str("kind", &mut kind, Req)?;
        Ok(kind)
    }

    fn bad_tag(&self, all: &[&str], got: &str) -> SpecError {
        self.not_among("kind", all, got)
    }

    fn quad(&self, key: &str, v: &ConfigValue, names: &str) -> Result<Quad, SpecError> {
        let ConfigValue::Array(q) = v else {
            return Err(self.mismatch(key, "array of 4 numbers", v));
        };
        if q.len() != 4 {
            let message = format!("needs exactly 4 numbers{names}, got {}", q.len());
            return Err(self.out_of_range(key, message));
        }
        Ok((
            self.number(key, &q[0])?,
            self.number(key, &q[1])?,
            self.number(key, &q[2])?,
            self.number(key, &q[3])?,
        ))
    }

    /// An optional array of `[a, b, c, d]` float quadruples.
    fn quads(&mut self, key: &'static str, slot: &mut Vec<Quad>) -> Result<(), SpecError> {
        match self.get(key, Opt)? {
            None => {}
            Some(ConfigValue::Array(items)) => {
                *slot = items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| self.quad(&format!("{key}[{i}]"), item, ""))
                    .collect::<Result<_, _>>()?
            }
            Some(other) => return Err(self.mismatch(key, "array", other)),
        }
        if let Some(out) = self.out() {
            out.insert(key, ConfigValue::Array(slot.iter().map(quad_value).collect()));
        }
        Ok(())
    }

    /// A required `[x0, y0, x1, y1]` rectangle with positive area.
    fn rect(&mut self, key: &'static str, slot: &mut Quad) -> Result<(), SpecError> {
        if let Some(v) = self.get(key, Req)? {
            *slot = self.quad(key, v, " (x0, y0, x1, y1)")?;
        }
        if let Some(out) = self.out() {
            out.insert(key, quad_value(slot));
        }
        let (x0, y0, x1, y1) = *slot;
        let finite = x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite();
        if self.checking() && !(finite && x0 < x1 && y0 < y1) {
            let message =
                format!("must be a finite rectangle with x0 < x1 and y0 < y1, got {slot:?}");
            return Err(self.out_of_range(key, message));
        }
        Ok(())
    }

    /// Walks `slot` as the block at `path` in this walk's mode, reading
    /// from `source`.
    fn child<B: Block>(
        &self,
        slot: &mut B,
        path: String,
        source: Option<&'a Table>,
    ) -> Result<Option<Table>, SpecError> {
        let mode = match (&self.mode, source) {
            (Mode::Read { .. }, Some(table)) => Mode::Read { table, seen: Vec::new() },
            (Mode::Write(_), _) => Mode::Write(Table::new()),
            _ => Mode::Check,
        };
        walk(slot, Io { mode, path, epochs: self.epochs })
    }

    /// A nested table.
    fn block<B: Block>(
        &mut self,
        key: &'static str,
        slot: &mut B,
        need: Need,
    ) -> Result<(), SpecError> {
        let source = match self.get(key, need)? {
            Some(ConfigValue::Table(table)) => Some(table),
            Some(other) => return Err(self.mismatch(key, "table", other)),
            None if self.reading() => return Ok(()),
            None => None,
        };
        let written = self.child(slot, self.at(key), source)?;
        if let (Some(out), Some(table)) = (self.out(), written) {
            out.insert(key, ConfigValue::Table(table));
        }
        Ok(())
    }

    /// A nested table whose absence means something (`None`).
    fn opt_block<B: Block>(
        &mut self,
        key: &'static str,
        slot: &mut Option<B>,
    ) -> Result<(), SpecError> {
        if self.has(key, slot.is_some()) {
            self.block(key, slot.get_or_insert_with(B::blank), Req)?;
        }
        Ok(())
    }

    /// An array of tables; an optional one is written only when non-empty.
    fn blocks<B: Block>(
        &mut self,
        key: &'static str,
        slot: &mut Vec<B>,
        need: Need,
    ) -> Result<(), SpecError> {
        let at = self.at(key);
        match self.get(key, need)? {
            Some(ConfigValue::Array(items)) => {
                for (i, item) in items.iter().enumerate() {
                    let ConfigValue::Table(table) = item else {
                        return Err(self.mismatch(&format!("{key}[{i}]"), "table", item));
                    };
                    let mut block = B::blank();
                    self.child(&mut block, format!("{at}[{i}]"), Some(table))?;
                    slot.push(block);
                }
            }
            Some(other) => return Err(self.mismatch(key, "array of tables", other)),
            None => {
                let mut tables = Vec::new();
                for (i, block) in slot.iter_mut().enumerate() {
                    let written = self.child(block, format!("{at}[{i}]"), None)?;
                    tables.extend(written.map(ConfigValue::Table));
                }
                if need == Req || !tables.is_empty() {
                    if let Some(out) = self.out() {
                        out.insert(key, ConfigValue::Array(tables));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The schema: every key of every block, once
// ---------------------------------------------------------------------------

impl Block for ScenarioSpec {
    fn blank() -> Self {
        Self {
            name: String::new(),
            description: String::new(),
            seed: 0,
            epochs: 0,
            grid: GridSpec::blank(),
            population: PopulationSpec::blank(),
            planner: PlannerSpec::blank(),
            budget: BudgetSpec::blank(),
            errors: None,
            churn: None,
            attributes: Vec::new(),
            tenants: Vec::new(),
            queries: Vec::new(),
            shifts: Vec::new(),
            adaptive: None,
            runlog: None,
            faults: None,
            telemetry: None,
        }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.slug("name", &mut self.name, " (it names the golden file)")?;
        io.str("description", &mut self.description, Opt)?;
        io.u64("seed", &mut self.seed, Req)?;
        io.u32("epochs", &mut self.epochs, Req)?;
        if io.checking() && self.epochs == 0 {
            return Err(io.out_of_range("epochs", "must be >= 1"));
        }
        io.epochs = self.epochs;
        io.block("grid", &mut self.grid, Req)?;
        io.block("population", &mut self.population, Req)?;
        io.block("planner", &mut self.planner, Opt)?;
        io.block("budget", &mut self.budget, Opt)?;
        io.opt_block("errors", &mut self.errors)?;
        io.opt_block("churn", &mut self.churn)?;
        io.blocks("attributes", &mut self.attributes, Req)?;
        io.blocks("tenants", &mut self.tenants, Opt)?;
        io.blocks("queries", &mut self.queries, Req)?;
        io.blocks("shifts", &mut self.shifts, Opt)?;
        io.opt_block("adaptive", &mut self.adaptive)?;
        io.opt_block("runlog", &mut self.runlog)?;
        io.opt_block("telemetry", &mut self.telemetry)?;
        io.opt_block("faults", &mut self.faults)
    }
}

impl Block for GridSpec {
    fn blank() -> Self {
        Self { size_km: 0.0, side: 0 }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.f64("size_km", &mut self.size_km, Req, Interval::Positive)?;
        io.u32("side", &mut self.side, Req)
    }
}

impl Block for PopulationSpec {
    fn blank() -> Self {
        Self {
            size: 0,
            human_fraction: 0.0,
            placement: PlacementSpec::blank(),
            mobility: MobilitySpec::blank(),
        }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.u32("size", &mut self.size, Req)?;
        io.f64("human_fraction", &mut self.human_fraction, Opt, PopulationConfig::HUMAN_FRACTION)?;
        io.block("placement", &mut self.placement, Req)?;
        io.block("mobility", &mut self.mobility, Req)
    }
}

impl Block for PlacementSpec {
    fn blank() -> Self {
        Self::Uniform
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        let kind = io.tag(match self {
            Self::Uniform => "uniform",
            Self::City => "city",
            Self::Hotspots { .. } => "hotspots",
        })?;
        if io.reading() {
            *self = match kind.as_str() {
                "uniform" => Self::Uniform,
                "city" => Self::City,
                "hotspots" => Self::Hotspots { floor: 1.0, spots: Vec::new() },
                other => return Err(io.bad_tag(&["uniform", "city", "hotspots"], other)),
            };
        }
        match self {
            Self::Uniform | Self::City => Ok(()),
            Self::Hotspots { floor, spots } => {
                io.f64("floor", floor, Opt, Placement::FLOOR)?;
                io.quads("spots", spots)
            }
        }
    }
}

impl Block for MobilitySpec {
    fn blank() -> Self {
        Self::Stationary
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        let kind = io.tag(match self {
            Self::Stationary => "stationary",
            Self::Walk { .. } => "walk",
            Self::Waypoint { .. } => "waypoint",
            Self::GaussMarkov { .. } => "gauss_markov",
        })?;
        if io.reading() {
            *self = match kind.as_str() {
                "stationary" => Self::Stationary,
                "walk" => Self::Walk { sigma: 0.0 },
                "waypoint" => Self::Waypoint { speed: 0.0, pause: 0.0 },
                "gauss_markov" => Self::GaussMarkov { alpha: 0.0, mean_speed: 0.0, sigma: 0.0 },
                other => {
                    let all = ["stationary", "walk", "waypoint", "gauss_markov"];
                    return Err(io.bad_tag(&all, other));
                }
            };
        }
        match self {
            Self::Stationary => Ok(()),
            Self::Walk { sigma } => io.f64("sigma", sigma, Req, Mobility::WALK_SIGMA),
            Self::Waypoint { speed, pause } => {
                io.f64("speed", speed, Req, Mobility::WAYPOINT_SPEED)?;
                io.f64("pause", pause, Opt, Mobility::WAYPOINT_PAUSE)
            }
            Self::GaussMarkov { alpha, mean_speed, sigma } => {
                io.f64("alpha", alpha, Req, Mobility::GM_ALPHA)?;
                io.f64("mean_speed", mean_speed, Req, Mobility::GM_MEAN_SPEED)?;
                io.f64("sigma", sigma, Req, Mobility::GM_SIGMA)
            }
        }
    }
}

impl Block for PlannerSpec {
    fn blank() -> Self {
        Self::default()
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.f64("batch_minutes", &mut self.batch_minutes, Opt, PlannerConfig::BATCH_DURATION)?;
        io.f64("f_headroom", &mut self.f_headroom, Opt, PlannerConfig::F_HEADROOM)?;
        io.u32("mobility_substeps", &mut self.mobility_substeps, Opt)?;
        io.bool("enforce_min_area", &mut self.enforce_min_area, Opt)?;
        io.choice("shape", &mut self.shape, Opt, &["chain", "star"])
    }
}

impl Block for BudgetSpec {
    fn blank() -> Self {
        Self::default()
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.f64("initial", &mut self.initial, Opt, Budget::REQUESTS_PER_EPOCH)?;
        io.f64("nv_threshold", &mut self.nv_threshold, Opt, BudgetTuner::NV_THRESHOLD)?;
        io.f64("delta", &mut self.delta, Opt, BudgetTuner::DELTA)?;
        io.f64("min", &mut self.min, Opt, BudgetTuner::MIN_BUDGET)?;
        // `>= min`: `ServerConfig::validate` holds the rule.
        io.f64("max", &mut self.max, Opt, Interval::Finite)
    }
}

impl Block for ErrorSpec {
    fn blank() -> Self {
        Self {
            gps_sigma: 0.0,
            bool_flip_prob: 0.0,
            value_sigma: 0.0,
            mitigation: "standard".into(),
        }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.f64("gps_sigma", &mut self.gps_sigma, Opt, ErrorModel::GPS_SIGMA)?;
        io.f64("bool_flip_prob", &mut self.bool_flip_prob, Opt, ErrorModel::BOOL_FLIP_PROB)?;
        io.f64("value_sigma", &mut self.value_sigma, Opt, ErrorModel::VALUE_SIGMA)?;
        io.choice("mitigation", &mut self.mitigation, Opt, &["standard", "off"])
    }
}

impl Block for ChurnSpec {
    fn blank() -> Self {
        Self { probability: 0.0 }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.f64("probability", &mut self.probability, Req, Interval::Unit)
    }
}

impl Block for AttributeSpec {
    fn blank() -> Self {
        Self { name: String::new(), human: false, field: FieldSpec::blank() }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.str("name", &mut self.name, Req)?;
        io.bool("human", &mut self.human, Opt)?;
        io.block("field", &mut self.field, Req)
    }
}

impl Block for FieldSpec {
    fn blank() -> Self {
        Self::ConstantFloat { value: 0.0 }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        let kind = io.tag(match self {
            Self::Temperature { .. } => "temperature",
            Self::Rain { .. } => "rain",
            Self::ConstantFloat { .. } | Self::ConstantBool { .. } => "constant",
            Self::Burst { .. } => "burst",
        })?;
        if io.reading() {
            *self = match kind.as_str() {
                "temperature" => Self::Temperature {
                    base: 20.0,
                    y_gradient: 0.0,
                    islands: Vec::new(),
                    diurnal_amplitude: 0.0,
                    diurnal_period: 1440.0,
                },
                "rain" => Self::Rain { x_start: 0.0, speed: 0.0, width: 0.0 },
                // One tag, two variants: the value's own type picks.
                "constant" if matches!(io.get("value", Opt)?, Some(ConfigValue::Bool(_))) => {
                    Self::ConstantBool { value: false }
                }
                "constant" => Self::ConstantFloat { value: 0.0 },
                "burst" => Self::Burst {
                    mu: 0.0,
                    alpha: 0.0,
                    beta: 0.0,
                    sigma: 0.0,
                    horizon: 0.0,
                    immigrants: 0,
                    branching_ratio: 0.0,
                    scale: 1.0,
                },
                other => {
                    return Err(io.bad_tag(&["temperature", "rain", "constant", "burst"], other))
                }
            };
        }
        match self {
            Self::Temperature { base, y_gradient, islands, diurnal_amplitude, diurnal_period } => {
                io.f64("base", base, Opt, Interval::Finite)?;
                io.f64("y_gradient", y_gradient, Opt, Interval::Finite)?;
                io.quads("islands", islands)?;
                io.f64("diurnal_amplitude", diurnal_amplitude, Opt, Interval::Finite)?;
                io.f64("diurnal_period", diurnal_period, Opt, Interval::Positive)?;
                let checked = if io.checking() { islands.as_slice() } else { &[] };
                for (i, &(cx, cy, amplitude, sigma)) in checked.iter().enumerate() {
                    let island = format!("islands[{i}]");
                    if !(cx.is_finite() && cy.is_finite() && amplitude.is_finite()) {
                        return Err(
                            io.out_of_range(&island, "island centre/amplitude must be finite")
                        );
                    }
                    if !(sigma.is_finite() && sigma > 0.0) {
                        let message = format!("island sigma must be > 0, got {sigma}");
                        return Err(io.out_of_range(&island, message));
                    }
                }
                Ok(())
            }
            Self::Rain { x_start, speed, width } => {
                io.f64("x_start", x_start, Req, Interval::Finite)?;
                io.f64("speed", speed, Opt, Interval::Finite)?;
                io.f64("width", width, Req, Interval::Positive)
            }
            Self::ConstantFloat { value } => io.f64("value", value, Req, Interval::Finite),
            Self::ConstantBool { value } => io.bool("value", value, Req),
            Self::Burst { mu, alpha, beta, sigma, horizon, immigrants, branching_ratio, scale } => {
                io.f64("mu", mu, Opt, Interval::NonNeg)?;
                io.f64("alpha", alpha, Req, Interval::NonNeg)?;
                io.f64("beta", beta, Req, Interval::Positive)?;
                io.f64("sigma", sigma, Req, Interval::Positive)?;
                io.f64("horizon", horizon, Req, Interval::Positive)?;
                io.u32("immigrants", immigrants, Req)?;
                io.f64("branching_ratio", branching_ratio, Opt, Interval::HalfUnit)?;
                io.f64("scale", scale, Opt, Interval::Finite)
            }
        }
    }
}

impl Block for TenantSpec {
    fn blank() -> Self {
        Self { name: String::new(), pool: 0.0 }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.slug("name", &mut self.name, "")?;
        io.f64("pool", &mut self.pool, Req, BudgetPool::CAPACITY)
    }
}

impl Block for QuerySpec {
    fn blank() -> Self {
        Self { text: String::new(), tenant: None }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.str("text", &mut self.text, Req)?;
        io.opt_str("tenant", &mut self.tenant)
    }
}

impl Block for ShiftSpec {
    fn blank() -> Self {
        Self::Participation { epoch: 0, factor: 0.0 }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        let kind = io.tag(match self {
            Self::Participation { .. } => "participation",
            Self::Dropout { .. } => "dropout",
            Self::Migrate { .. } => "migrate",
        })?;
        if io.reading() {
            let (epoch, probability, rect) = (0, 0.0, (0.0, 0.0, 0.0, 0.0));
            *self = match kind.as_str() {
                "participation" => Self::blank(),
                "dropout" => Self::Dropout { epoch, probability, rect },
                "migrate" => Self::Migrate { epoch, probability, rect },
                other => return Err(io.bad_tag(&["participation", "dropout", "migrate"], other)),
            };
        }
        match self {
            Self::Participation { epoch, factor } => {
                io.u32("epoch", epoch, Req)?;
                io.f64("factor", factor, Req, Interval::NonNeg)
            }
            Self::Dropout { epoch, probability, rect }
            | Self::Migrate { epoch, probability, rect } => {
                io.u32("epoch", epoch, Req)?;
                io.f64("probability", probability, Req, Interval::Unit)?;
                io.rect("rect", rect)
            }
        }
    }
}

impl Block for AdaptiveSpec {
    fn blank() -> Self {
        Self::default()
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.bool("enabled", &mut self.enabled, Opt)?;
        io.str("detector", &mut self.detector, Opt)?;
        io.f64("slack", &mut self.slack, Opt, drift::SLACK)?;
        io.f64("threshold", &mut self.threshold, Opt, drift::THRESHOLD)?;
        io.u32("warmup_epochs", &mut self.warmup_epochs, Opt)?;
        io.u32("cooldown_epochs", &mut self.cooldown_epochs, Opt)?;
        io.f64("gamma0", &mut self.gamma0, Opt, SgdConfig::GAMMA0)?;
        io.f64("decay_batches", &mut self.decay_batches, Opt, SgdConfig::DECAY_BATCHES)?;
        io.f64("initial_rate", &mut self.initial_rate, Opt, SgdConfig::INITIAL_RATE)?;
        io.opt_f64("budget_pool", &mut self.budget_pool, AdaptiveConfig::BUDGET_POOL)?;
        io.bool("rebuild_chains", &mut self.rebuild_chains, Opt)?;
        io.f64("demand_headroom", &mut self.demand_headroom, Opt, AdaptiveConfig::DEMAND_HEADROOM)
    }
}

impl Block for RunlogSpec {
    fn blank() -> Self {
        Self::default()
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.bool("record", &mut self.record, Opt)
    }
}

impl Block for TelemetrySpec {
    fn blank() -> Self {
        Self::default()
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.bool("report", &mut self.report, Opt)
    }
}

impl Block for FaultsSpec {
    fn blank() -> Self {
        Self::default()
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.blocks("crowd", &mut self.crowd, Opt)?;
        io.opt_block("retry", &mut self.retry)?;
        io.blocks("crash", &mut self.crash, Opt)
    }
}

impl Block for CrowdFaultSpec {
    fn blank() -> Self {
        Self { kind: String::new(), from_epoch: 0, to_epoch: 0, probability: 0.0, minutes: 0.0 }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.choice("kind", &mut self.kind, Req, &["drop", "delay", "duplicate"])?;
        io.u32("from_epoch", &mut self.from_epoch, Opt)?;
        if io.reading() {
            self.to_epoch = io.epochs.saturating_sub(1);
        }
        io.u32("to_epoch", &mut self.to_epoch, Opt)?;
        io.f64("probability", &mut self.probability, Req, Interval::Unit)?;
        // Written for `delay` only: anywhere else it has to be 0, which is
        // what an absent key reads as. Its range depends on `kind`, so
        // `validate` holds it.
        if io.reading() || io.checking() || self.kind == "delay" {
            io.f64("minutes", &mut self.minutes, Opt, Interval::Finite)?;
        }
        Ok(())
    }
}

impl Block for RetrySpec {
    fn blank() -> Self {
        Self::default()
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.f64("threshold", &mut self.threshold, Opt, RetryPolicy::SHORTFALL_THRESHOLD)?;
        io.f64("backoff", &mut self.backoff, Opt, RetryPolicy::BACKOFF)?;
        io.u32("max_attempts", &mut self.max_attempts, Opt)
    }
}

impl Block for CrashSpec {
    fn blank() -> Self {
        Self { point: String::new(), epoch: 0 }
    }

    fn fields(&mut self, io: &mut Io<'_>) -> Result<(), SpecError> {
        io.str("point", &mut self.point, Req)?;
        io.u32("epoch", &mut self.epoch, Req)
    }
}

// ---------------------------------------------------------------------------
// Parsing, serialization, validation: the three walks
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
        let mut spec = Self::blank();
        walk(&mut spec, Io::root(Mode::Read { table, seen: Vec::new() }))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes to the value tree [`ScenarioSpec::from_table`] accepts.
    /// All defaults are materialized, so `from_table(to_table(s)) == s`.
    pub fn to_table(&self) -> Table {
        let written = walk(&mut self.clone(), Io::root(Mode::Write(Table::new())));
        written.expect("a write walk has no failing step").expect("and hands back its table")
    }

    /// Serializes to TOML; [`ScenarioSpec::from_toml`] inverts it exactly.
    pub fn to_toml(&self) -> String {
        render_toml(&self.to_table())
    }

    /// Serializes to JSON; [`ScenarioSpec::from_json`] inverts it exactly.
    pub fn to_json(&self) -> String {
        render_json(&self.to_table())
    }

    /// Semantic validation beyond types: ranges, uniqueness, and the
    /// constraints the runtime constructors would otherwise panic on.
    pub fn validate(&self) -> Result<(), SpecError> {
        // Every range a key declares for itself.
        walk(&mut self.clone(), Io::root(Mode::Check))?;

        // The rules the runtime configs hold beyond single-key ranges
        // (`grid.side`, `population.size`, hotspot spots, `budget.max`, …):
        // the conversions return their validators' verdicts.
        let region = craqr_geom::Rect::with_size(self.grid.size_km, self.grid.size_km);
        self.population.to_config(&region)?;
        self.to_server_config(craqr_core::ExecMode::Serial)?;

        // What is left is cross-field.
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
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|other| other.name == t.name) {
                return Err(out_of_range(
                    format!("tenants[{i}].name"),
                    format!("duplicate tenant '{}'", t.name),
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

        let size = self.grid.size_km;
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
            match s {
                ShiftSpec::Participation { .. } => {}
                // A dropout region that misses the world entirely is a
                // silent no-op shift — the golden would record a drift
                // that never happened.
                ShiftSpec::Dropout { rect, .. } => {
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
                // Migrants are placed uniformly in the target and never
                // forced back: a target outside the region would teleport
                // the crowd somewhere no request can reach.
                ShiftSpec::Migrate { rect, .. } => {
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

    /// The [`craqr_core::ServerConfig`] this spec describes, or the first
    /// knob its validator rejects — `exec` included, so `Sharded(0)` is an
    /// error here rather than a panic mid-epoch.
    pub fn to_server_config(
        &self,
        exec: craqr_core::ExecMode,
    ) -> Result<craqr_core::ServerConfig, SpecError> {
        use craqr_core::plan::TopologyShape;
        let shape = match self.planner.shape.as_str() {
            "star" => TopologyShape::Star,
            _ => TopologyShape::Chain,
        };
        let (error_model, mitigation) = match &self.errors {
            None => (ErrorModel::none(), craqr_core::Mitigation::standard()),
            Some(e) => {
                let mitigation = match e.mitigation.as_str() {
                    "off" => craqr_core::Mitigation::off(),
                    _ => craqr_core::Mitigation::standard(),
                };
                let (gps_sigma, bool_flip_prob, value_sigma) =
                    (e.gps_sigma, e.bool_flip_prob, e.value_sigma);
                (ErrorModel { gps_sigma, bool_flip_prob, value_sigma }, mitigation)
            }
        };
        let config = craqr_core::ServerConfig {
            planner: PlannerConfig {
                grid_side: self.grid.side,
                batch_duration: self.planner.batch_minutes,
                f_headroom: self.planner.f_headroom,
                shape,
                seed: self.seed,
                enforce_min_area: self.planner.enforce_min_area,
                ..PlannerConfig::default()
            },
            tuner: BudgetTuner {
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
            retry: self.faults.as_ref().and_then(|f| f.retry.as_ref()).map(|r| RetryPolicy {
                shortfall_threshold: r.threshold,
                backoff: r.backoff,
                max_attempts: r.max_attempts,
            }),
        };
        config.validate().map_err(rejected)?;
        Ok(config)
    }
}

impl PopulationSpec {
    /// The [`PopulationConfig`] this spec describes, with
    /// `city` placement expanded over the concrete region, or the first knob
    /// its validator rejects.
    pub fn to_config(&self, region: &craqr_geom::Rect) -> Result<PopulationConfig, SpecError> {
        let placement = match &self.placement {
            PlacementSpec::Uniform => Placement::Uniform,
            PlacementSpec::City => Placement::city(region),
            PlacementSpec::Hotspots { floor, spots } => {
                Placement::Hotspots { spots: spots.clone(), floor: *floor }
            }
        };
        let mobility = match self.mobility {
            MobilitySpec::Stationary => Mobility::Stationary,
            MobilitySpec::Walk { sigma } => Mobility::RandomWalk { sigma },
            MobilitySpec::Waypoint { speed, pause } => {
                Mobility::RandomWaypoint { speed, pause, target: None, pause_left: 0.0 }
            }
            MobilitySpec::GaussMarkov { alpha, mean_speed, sigma } => {
                Mobility::GaussMarkov { alpha, mean_speed, sigma, velocity: (0.0, 0.0) }
            }
        };
        let config = PopulationConfig {
            size: self.size as usize,
            placement,
            mobility,
            human_fraction: self.human_fraction,
        };
        config.validate().map_err(rejected)?;
        Ok(config)
    }
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

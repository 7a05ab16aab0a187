//! The CrAQR server: the full Fig. 1 loop over a simulated crowd.

use crate::budget::{Budget, BudgetTuner};
use crate::error_model::{ErrorModel, Mitigation};
use crate::exec::{fast_monotonic_ns, ExecMode, IngestReport};
use crate::handler::{DispatchStats, RequestResponseHandler, TuneEvent};
use crate::incentive::IncentivePolicy;
use crate::plan::{Fabricator, PlanError, PlannerConfig};
use crate::query::{parse_query, AcquisitionQuery, AttributeCatalog, ParseError, QueryId};
use crate::tenant::{AdmissionDecision, BudgetPool, TenantId, TenantRegistry};
use crate::tuple::{CrowdTuple, TupleIdGen};
use craqr_sensing::{AttributeId, Crowd, Field, SensorResponse};
use craqr_stats::sub_rng;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::fmt;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Planner/fabricator knobs (grid side, batch duration, shape, …).
    pub planner: PlannerConfig,
    /// Budget tuning policy.
    pub tuner: BudgetTuner,
    /// Incentive escalation policy (Section VI).
    pub incentive: IncentivePolicy,
    /// Error injection applied to responses in flight (Section VI).
    pub error_model: ErrorModel,
    /// Ingestion-side mitigation (Section VI).
    pub mitigation: Mitigation,
    /// Budget for a freshly materialized (attribute, cell) pair
    /// (requests/epoch).
    pub initial_budget: f64,
    /// Crowd mobility sub-steps per epoch (finer = smoother trajectories).
    pub mobility_substeps: u32,
    /// How the per-cell process phase executes. [`ExecMode::Serial`], the
    /// default, picks its width from the materialized chain count (one
    /// worker per [`crate::exec::CHAINS_PER_WORKER`] chains, capped at the
    /// host's cores); [`ExecMode::Sharded`] pins it. Every width gives
    /// **bit-identical** results under the same root seed (see
    /// [`crate::exec`] for the contract).
    pub exec: ExecMode,
    /// Bounded retry/backoff for chains whose dispatch yields too few
    /// responses (crowd drop/delay faults). `None` — the default — is
    /// bit-identical to a retry-free build.
    pub retry: Option<crate::handler::RetryPolicy>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            planner: PlannerConfig::default(),
            tuner: BudgetTuner::default(),
            incentive: IncentivePolicy::default(),
            error_model: ErrorModel::none(),
            mitigation: Mitigation::standard(),
            initial_budget: 20.0,
            mobility_substeps: 4,
            exec: ExecMode::Serial,
            retry: None,
        }
    }
}

impl ServerConfig {
    /// Checks every knob a declarative spec can set, returning the first
    /// violated constraint as `(field, requirement)` — the data-driven
    /// counterpart of the constructors' panics, used by the scenario
    /// harness to reject bad specs with an error instead of aborting.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        self.planner.validate()?;
        Budget::REQUESTS_PER_EPOCH.check("budget.initial", self.initial_budget)?;
        if self.mobility_substeps == 0 {
            return Err(("planner.mobility_substeps", "must be >= 1".into()));
        }
        self.exec.validate()?;
        let t = &self.tuner;
        BudgetTuner::NV_THRESHOLD.check("budget.nv_threshold", t.nv_threshold)?;
        BudgetTuner::DELTA.check("budget.delta", t.delta)?;
        BudgetTuner::MIN_BUDGET.check("budget.min", t.min_budget)?;
        if !(t.max_budget.is_finite() && t.max_budget >= t.min_budget) {
            return Err((
                "budget.max",
                format!("must be >= budget.min ({}), got {}", t.min_budget, t.max_budget),
            ));
        }
        let e = &self.error_model;
        ErrorModel::GPS_SIGMA.check("errors.gps_sigma", e.gps_sigma)?;
        ErrorModel::BOOL_FLIP_PROB.check("errors.bool_flip_prob", e.bool_flip_prob)?;
        ErrorModel::VALUE_SIGMA.check("errors.value_sigma", e.value_sigma)?;
        if let Some(r) = &self.retry {
            r.validate()?;
        }
        Ok(())
    }
}

/// Query submission failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The parsed query could not be planned.
    Plan(PlanError),
    /// The query names a tenant the server never registered.
    UnknownTenant(TenantId),
    /// Admission control rejected the query: its owning tenant's budget
    /// pool cannot cover the estimated demand. The structured decision
    /// carries the full arithmetic for the audit trail.
    Rejected(AdmissionDecision),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Parse(e) => write!(f, "parse error: {e}"),
            SubmitError::Plan(e) => write!(f, "plan error: {e}"),
            SubmitError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            SubmitError::Rejected(d) => write!(f, "admission rejected: {d}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<ParseError> for SubmitError {
    fn from(e: ParseError) -> Self {
        SubmitError::Parse(e)
    }
}

impl From<PlanError> for SubmitError {
    fn from(e: PlanError) -> Self {
        SubmitError::Plan(e)
    }
}

/// Crowd-fault activity during one epoch: how many matured responses the
/// fault layer dropped, delayed, or duplicated while this epoch's crowd
/// steps ran ([`craqr_sensing::CrowdFaults`]).
///
/// Event-derived and deterministic (the fault RNG is seeded), so the
/// counts are safe to checksum, record in run logs, and surface in
/// reports. A detached replay cannot recompute them (there is no crowd),
/// so its [`ReplaySource`] returns the recorded values instead — the same
/// echo pattern run logs use for world shifts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDeltas {
    /// Responses dropped (lost forever).
    pub dropped: u64,
    /// Responses re-queued to mature later.
    pub delayed: u64,
    /// Responses delivered twice.
    pub duplicated: u64,
}

/// What happened during one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Simulation time at the end of the epoch (minutes).
    pub now: f64,
    /// Request dispatch statistics.
    pub dispatch: DispatchStats,
    /// Responses received from the crowd this epoch.
    pub responses: usize,
    /// Responses rejected by mitigation.
    pub mitigation_rejected: usize,
    /// Well-formed tuples ingested into the fabricator.
    pub ingested: usize,
    /// Map + process outcome, with one per-shard entry for each shard of
    /// the width the epoch ran at; no entry when no chain is materialized,
    /// since then nothing runs.
    pub exec: IngestReport,
    /// Per-query tuples delivered this epoch.
    pub delivered: Vec<(QueryId, usize)>,
    /// Budget tuning events.
    pub tuning: Vec<TuneEvent>,
    /// Requests charged per tenant this epoch, ascending by [`TenantId`]
    /// (empty in single-owner servers). Every entry satisfies
    /// `charge ≤ pool capacity` — dispatch throttles rather than
    /// overdraws.
    pub tenant_charges: Vec<(TenantId, f64)>,
    /// Control actions that targeted a retired chain and were dropped as
    /// signalled no-ops (a replan racing a chain retirement).
    pub stale_actions: u64,
    /// Crowd-fault activity observed this epoch (all zero when no
    /// `[faults]` layer is armed).
    pub faults: FaultDeltas,
}

/// One standing query's plan, as a [`ControlHook`] sees it: the
/// replanning-relevant slice of [`crate::plan::QueryPlan`], snapshotted
/// by value so the observation can cross a stage boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlanView {
    /// The standing query's id.
    pub qid: QueryId,
    /// The acquired attribute.
    pub attr: AttributeId,
    /// The owning tenant.
    pub tenant: TenantId,
    /// The requested rate (tuples /km²/min).
    pub rate: f64,
    /// The footprint's bounding box (a degenerate footprint falls back
    /// to its first cell's rect).
    pub bbox: craqr_geom::Rect,
    /// The footprint's area (km²).
    pub area: f64,
    /// The materialized cells, each with the area of its overlap with
    /// the footprint (km²), in plan order.
    pub cells: Vec<(craqr_geom::CellId, f64)>,
}

/// The planner's standing state, snapshotted for a [`ControlHook`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanView {
    /// Epoch length (minutes).
    pub batch_duration: f64,
    /// The acquisition grid.
    pub grid: craqr_geom::Grid,
    /// Every standing query's plan, ascending by [`QueryId`].
    pub queries: Vec<QueryPlanView>,
    /// Per-chain demand (requests/epoch), exactly what dispatch draws
    /// from ([`Fabricator::demands`]).
    pub demands: Vec<(craqr_geom::CellId, AttributeId, f64)>,
}

/// The handler's budget state, snapshotted for a [`ControlHook`].
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetView {
    budgets: HashMap<(craqr_geom::CellId, AttributeId), f64>,
    /// The budget tuning policy in force.
    pub tuner: BudgetTuner,
}

impl BudgetView {
    /// The acquisition budget of one chain (requests/epoch), if its
    /// budget entry is live — the snapshot of
    /// [`RequestResponseHandler::budget_of`].
    pub fn of(&self, cell: craqr_geom::CellId, attr: AttributeId) -> Option<f64> {
        self.budgets.get(&(cell, attr)).copied()
    }
}

/// What a [`ControlHook`] gets to see after each epoch: the epoch's
/// report, the tuples it delivered per query, and value snapshots of the
/// planner/handler state. Everything here is a deterministic function of
/// `(config, seed, epoch)` — identical under [`ExecMode::Serial`], any
/// `Sharded(n)`, and the pipelined executor — so hooks that compute only
/// from this view inherit the executor's determinism contract for free.
///
/// The observation is **owned** (no borrows into the server) because the
/// hook API is public: a hook may keep or send what it is handed. The
/// ingest stage builds it right before calling the hook, identically on
/// every executor, and only when a hook is installed, so hookless runs
/// pay nothing for the snapshotting.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochObservation {
    /// The epoch's loop statistics.
    pub report: EpochReport,
    /// Tuples delivered this epoch per query, ascending by [`QueryId`]:
    /// a copy of what the epoch's merge appended to each query's output
    /// buffer ([`CraqrServer::take_output`]).
    pub delivered: Vec<(QueryId, Vec<CrowdTuple>)>,
    /// The planner: standing query plans, demands, grid.
    pub plan: PlanView,
    /// The handler's budget state and tuning policy.
    pub budgets: BudgetView,
    /// Per-tenant summaries, when this server is multi-tenant —
    /// replanning policies use them to respect per-tenant pool
    /// boundaries.
    pub tenants: Option<Vec<crate::tenant::TenantSummary>>,
    /// Simulation time at the start of the epoch (minutes).
    pub epoch_start: f64,
    /// Simulation time at the end of the epoch (minutes).
    pub epoch_end: f64,
}

impl EpochObservation {
    /// Snapshots the observation a hook sees for one finished epoch,
    /// right after the epoch's report is assembled.
    pub(crate) fn capture(
        report: &EpochReport,
        fabricator: &Fabricator,
        handler: &RequestResponseHandler,
        tenants: Option<&TenantRegistry>,
        epoch_start: f64,
        epoch_end: f64,
    ) -> Self {
        let grid = fabricator.grid();
        let queries = fabricator
            .query_ids()
            .into_iter()
            .map(|qid| {
                let plan = fabricator.query_plan(qid).expect("standing query");
                let bbox = plan
                    .footprint
                    .bounding_box()
                    .unwrap_or_else(|| grid.cell_rect(plan.cells[0].0));
                QueryPlanView {
                    qid,
                    attr: plan.query.attr,
                    tenant: plan.query.tenant,
                    rate: plan.query.rate,
                    bbox,
                    area: plan.footprint.area(),
                    cells: plan.cells.iter().map(|(c, overlap, _)| (*c, overlap.area())).collect(),
                }
            })
            .collect();
        EpochObservation {
            report: report.clone(),
            delivered: fabricator.last_delivery().map(|(q, out)| (q, out.to_vec())).collect(),
            plan: PlanView {
                batch_duration: fabricator.config().batch_duration,
                grid: grid.clone(),
                queries,
                demands: fabricator.demands(),
            },
            budgets: BudgetView { budgets: handler.budget_snapshot(), tuner: *handler.tuner() },
            tenants: tenants.map(|t| t.summaries()),
            epoch_start,
            epoch_end,
        }
    }
}

/// An actuation a [`ControlHook`] injects back into the planner after
/// observing an epoch. Actions are applied on the epoch-loop thread, in
/// the order returned, *after* the epoch's own budget tuning — a replan
/// therefore overrides the `N_v` tuner for that epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// Overwrite one chain's acquisition budget (requests/epoch).
    SetBudget {
        /// Which cell.
        cell: craqr_geom::CellId,
        /// Which attribute.
        attr: AttributeId,
        /// The new budget (requests per epoch).
        requests_per_epoch: f64,
    },
    /// Tear the chain down and rebuild it from its standing consumers,
    /// restarting its RNG streams and telemetry
    /// ([`Fabricator::rebuild_chain`]). Ingest leaves every sink empty,
    /// so no tuple is buffered in the old chain to lose.
    RebuildChain {
        /// Which cell.
        cell: craqr_geom::CellId,
        /// Which attribute.
        attr: AttributeId,
    },
}

/// The observation/actuation seam on the epoch loop.
///
/// The server owns the loop; a hook owns a *policy*. After every epoch the
/// server hands the hook an [`EpochObservation`] and applies whatever
/// [`ControlAction`]s come back. The adaptive acquisition controller
/// (`craqr-adaptive`) is the canonical implementation: online intensity
/// estimation → drift detection → budget replanning — but the seam is
/// policy-agnostic (rate limiters, SLO guards, and chaos injectors fit
/// the same shape).
///
/// Determinism: a hook driven only by its observations is replayed
/// identically across [`ExecMode`]s and reruns; hooks must not consult
/// wall clocks, ambient RNGs, or other out-of-band state if they want
/// their decisions golden-testable.
///
/// `Send` is a supertrait because the pipelined executor runs the hook on
/// the ingest worker thread; every useful hook is plain data, so the
/// bound costs nothing.
pub trait ControlHook: Send {
    /// Observes a finished epoch; returns the actions to apply before the
    /// next one.
    fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction>;
}

/// Everything one epoch consumed from outside the server, plus what the
/// control seam injected back — the unit of record for an event-sourced
/// run log. Handed to an [`EpochTap`] after the epoch completes.
///
/// `responses` are the crowd responses exactly as drained — **before**
/// error injection, mitigation, and id assignment — because that is the
/// seam where the outside world ends: everything downstream (corruption
/// included) is a deterministic function of `(config, seed, responses)`.
pub struct EpochInputsRecord<'a> {
    /// The epoch's loop statistics.
    pub report: &'a EpochReport,
    /// Crowd responses as drained this epoch, pre-error-injection.
    pub responses: &'a [SensorResponse],
    /// [`ControlAction`]s the hook injected this epoch, in application
    /// order (empty when no hook ran or the hook stayed silent).
    pub actions: &'a [ControlAction],
}

/// The recording seam on the epoch loop — the read-only sibling of
/// [`ControlHook`].
///
/// Where a hook closes a *control* loop (observe → actuate), a tap is a
/// pure observer of the epoch's **inputs**: drained responses, dispatch
/// outcome, injected actions. `craqr-runlog`'s recorder is the canonical
/// implementation — it appends each record to an event-sourced log from
/// which the run can later be replayed (crowd detached), resumed, or
/// diffed. Taps run after the hook's actions are applied and must not
/// mutate anything; a silent tap leaves the run bit-identical to an
/// untapped one.
///
/// `Send` is a supertrait because the pipelined executor runs the tap on
/// the trailing render-stage worker thread.
pub trait EpochTap: Send {
    /// Observes one finished epoch's inputs.
    fn on_epoch(&mut self, record: &EpochInputsRecord<'_>);
}

/// A named abandonment point inside the epoch loop — the process-fault
/// half of the fault-injection story (the crowd-fault half lives in
/// [`craqr_sensing::CrowdFaults`]).
///
/// A crash-armed [`crate::EpochDriver`] runs an epoch up to the named
/// point and then abandons it, exactly as a `kill -9` at that instant
/// would: state mutated before the point stays mutated, nothing after it
/// runs, and the recording tap never observes the epoch. Because every
/// durability boundary in the system is the *epoch* (a run log only
/// persists an epoch once its tap fired and the streamed block synced),
/// all four points leave the same recoverable artifact: a log whose last
/// durable epoch is the one before the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After dispatch drew budgets, charged tenants, and sent requests —
    /// the crowd heard the server, but no response was drained.
    PostDispatch,
    /// After the crowd advanced and its matured responses were drained,
    /// before error injection or ingestion touched them.
    PostDrain,
    /// After the control hook observed the epoch, an instant before the
    /// recording tap fires; the actions it returned die with the process.
    PostControl,
    /// Not a point in the server loop at all: the epoch completes (tap
    /// included) and the *log writer* dies midway through appending the
    /// epoch block. A crash-armed driver runs the epoch normally for
    /// this point and stops after it; the tear itself belongs to the log
    /// writer (`craqr_runlog::StreamingRecorder::tear_next_append`).
    MidLogAppend,
}

impl CrashPoint {
    /// All crash points, in loop order — the chaos tier's kill matrix.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::PostDispatch,
        CrashPoint::PostDrain,
        CrashPoint::PostControl,
        CrashPoint::MidLogAppend,
    ];

    /// The spec-facing name (`[[faults.crash]] point = "…"`).
    pub fn name(&self) -> &'static str {
        match self {
            CrashPoint::PostDispatch => "post-dispatch",
            CrashPoint::PostDrain => "post-drain",
            CrashPoint::PostControl => "post-control",
            CrashPoint::MidLogAppend => "mid-log-append",
        }
    }

    /// Parses a spec-facing name back to the point.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The recorded crowd-side inputs of one epoch, held in memory. A slice
/// of them, one per slot, is a [`ReplaySource`].
pub struct ReplayInputs<'a> {
    /// Requests the crowd actually received at dispatch (the crowd-side
    /// outcome the detached server cannot recompute).
    pub sent: u64,
    /// The responses drained this epoch, pre-error-injection, exactly as
    /// a tap recorded them.
    pub responses: &'a [SensorResponse],
    /// The fault activity the live run recorded for this epoch. A
    /// detached server has no crowd to recompute it from, so the replayed
    /// epoch's report echoes these values verbatim (zero for logs
    /// recorded without faults).
    pub faults: FaultDeltas,
}

/// Where a replayed run's crowd-side inputs come from, one epoch at a
/// time: the input seam of [`crate::EpochDriver::replay`], held by the
/// drain stage alone and asked once per slot, in slot order.
///
/// `Send` is a supertrait because the pipelined executor runs the drain
/// stage on its own worker thread.
pub trait ReplaySource: Send {
    /// Writes the next epoch's responses, as a tap recorded them, into
    /// `responses` (handed over empty), and returns the requests the crowd
    /// received and the fault activity it recorded.
    fn next_epoch(&mut self, responses: &mut Vec<SensorResponse>) -> (u64, FaultDeltas);
}

/// The slice yields its elements in order and shrinks as it goes.
impl ReplaySource for &[ReplayInputs<'_>] {
    fn next_epoch(&mut self, responses: &mut Vec<SensorResponse>) -> (u64, FaultDeltas) {
        let (first, rest) = self.split_first().expect("a recorded input for every slot");
        *self = rest;
        responses.extend_from_slice(first.responses);
        (first.sent, first.faults)
    }
}

/// The CrAQR server: accepts declarative acquisitional queries, drives the
/// request/response handler against a (simulated) mobile crowd, fabricates
/// the requested streams through per-cell PMAT topologies, and adapts
/// budgets/incentives from flatten telemetry.
pub struct CraqrServer {
    // Fields are crate-visible so `crate::driver` can borrow-split the
    // server into the crowd half (drain stage) and the planner half
    // (ingest stage) without interior mutability.
    pub(crate) crowd: Crowd,
    pub(crate) fabricator: Fabricator,
    pub(crate) handler: RequestResponseHandler,
    catalog: AttributeCatalog,
    pub(crate) idgen: TupleIdGen,
    pub(crate) error_rng: StdRng,
    pub(crate) config: ServerConfig,
    pub(crate) tenants: Option<TenantRegistry>,
    /// What each admitted query actually committed against its tenant's
    /// pool — recorded at admission so deletion releases exactly that
    /// (never populated for queries submitted before the first tenant
    /// registration: they were never admission-checked, so deleting them
    /// must not refund capacity nobody committed).
    committed_demands: HashMap<QueryId, (TenantId, f64)>,
    pub(crate) epoch: u64,
}

impl CraqrServer {
    /// Creates a server over an existing crowd.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`ServerConfig::validate`])
    /// — a bad knob (`Sharded(0)`, inverted budget bounds, …) is rejected
    /// here, before any epoch runs, instead of deep inside the loop.
    #[track_caller]
    pub fn new(crowd: Crowd, config: ServerConfig) -> Self {
        if let Err((field, message)) = config.validate() {
            panic!("invalid server config: {field}: {message}");
        }
        let region = crowd.region();
        let mut handler =
            RequestResponseHandler::new(config.tuner, config.incentive, config.initial_budget);
        handler.set_retry_policy(config.retry);
        Self {
            fabricator: Fabricator::new(region, config.planner),
            handler,
            catalog: AttributeCatalog::new(),
            idgen: TupleIdGen::new(),
            error_rng: sub_rng(config.planner.seed, 0xE44),
            config,
            tenants: None,
            committed_demands: HashMap::new(),
            epoch: 0,
            crowd,
        }
    }

    /// Registers a tenant with a budget pool of `capacity` requests per
    /// epoch, returning its id (registration order, dense from 0). The
    /// first registration switches the server into multi-tenant mode:
    /// from then on every submission runs admission control and every
    /// dispatch charges the owning tenants, throttling at pool
    /// exhaustion. A server with no registered tenants behaves exactly
    /// like the single-owner original.
    ///
    /// # Panics
    /// Panics on a non-finite or non-positive capacity (see
    /// [`BudgetPool::new`]).
    #[track_caller]
    pub fn register_tenant(&mut self, name: &str, capacity: f64) -> TenantId {
        self.tenants
            .get_or_insert_with(TenantRegistry::new)
            .register(name, BudgetPool::new(capacity))
    }

    /// The tenant registry, when this server is multi-tenant.
    pub fn tenants(&self) -> Option<&TenantRegistry> {
        self.tenants.as_ref()
    }

    /// Every admission decision so far, in submission order (empty in
    /// single-owner servers).
    pub fn admissions(&self) -> &[AdmissionDecision] {
        self.tenants.as_ref().map_or(&[], |t| t.decisions())
    }

    /// Registers an attribute with its ground-truth field.
    pub fn register_attribute(
        &mut self,
        name: &str,
        human_sensed: bool,
        field: Box<dyn Field>,
    ) -> AttributeId {
        let id = self.catalog.register(name, human_sensed);
        self.crowd.register_field(id, field);
        id
    }

    /// Submits a declarative query (`ACQUIRE … FROM RECT(…) RATE …`)
    /// owned by the implicit default tenant. On a multi-tenant server
    /// that is [`TenantId::DEFAULT`] — the first registered tenant — and
    /// the submission runs admission control against its pool.
    pub fn submit(&mut self, text: &str) -> Result<QueryId, SubmitError> {
        let query = parse_query(text, &self.catalog)?;
        self.submit_query(query)
    }

    /// Submits a declarative query on behalf of `tenant`: admission
    /// control first (the tenant's pool must cover the query's estimated
    /// demand), then planning. A rejection is returned as
    /// [`SubmitError::Rejected`] carrying the structured
    /// [`AdmissionDecision`], which is also appended to
    /// [`CraqrServer::admissions`] for the audit trail.
    pub fn submit_for(&mut self, tenant: TenantId, text: &str) -> Result<QueryId, SubmitError> {
        let query = parse_query(text, &self.catalog)?;
        self.submit_query(query.owned_by(tenant))
    }

    /// A query's estimated steady-state demand (requests/epoch): the
    /// tuples per epoch the requested rate implies over the footprint
    /// clipped to the world — `rate × clip(region ∩ R).area × epoch
    /// minutes`. The admission controller checks this against the pool;
    /// deleting the query releases exactly the same amount.
    pub fn estimated_demand(&self, query: &AcquisitionQuery) -> f64 {
        self.config.planner.batch_duration
            * query.rate
            * self
                .fabricator
                .grid()
                .region()
                .intersection(&query.region)
                .map_or(0.0, |clip| clip.area())
    }

    /// Submits a typed query, running admission control when the server
    /// is multi-tenant.
    pub fn submit_query(&mut self, query: AcquisitionQuery) -> Result<QueryId, SubmitError> {
        let demand = self.estimated_demand(&query);
        let admitted = if let Some(registry) = &mut self.tenants {
            if !registry.contains(query.tenant) {
                return Err(SubmitError::UnknownTenant(query.tenant));
            }
            let decision = registry.admit(query.tenant, demand);
            if !decision.admitted {
                return Err(SubmitError::Rejected(decision));
            }
            true
        } else {
            // A single-owner server has exactly one valid owner. Accepting
            // an arbitrary id here would plant it on the plan; if tenants
            // were registered later, charging would silently skip the
            // unknown owner and the adaptive allocator would panic on it.
            if query.tenant != TenantId::DEFAULT {
                return Err(SubmitError::UnknownTenant(query.tenant));
            }
            false
        };
        match self.fabricator.insert_query(query) {
            Ok(qid) => {
                if admitted {
                    self.committed_demands.insert(qid, (query.tenant, demand));
                }
                Ok(qid)
            }
            Err(e) => {
                // Admission committed the demand; planning refused the
                // query, so release the pool again.
                if let Some(registry) = &mut self.tenants {
                    registry.rollback_last_admission();
                }
                Err(SubmitError::Plan(e))
            }
        }
    }

    /// Deletes a standing query, returning what was delivered to it and
    /// not taken, oldest delivery first ([`Fabricator::delete_query`]). A
    /// query that committed demand at admission releases exactly
    /// that amount back to its tenant's pool; queries that never passed
    /// admission (submitted before the first tenant registration)
    /// release nothing — they committed nothing.
    pub fn delete_query(&mut self, qid: QueryId) -> Result<Vec<CrowdTuple>, PlanError> {
        let leftovers = self.fabricator.delete_query(qid)?;
        if let Some((tenant, demand)) = self.committed_demands.remove(&qid) {
            if let Some(registry) = &mut self.tenants {
                registry.release(tenant, demand);
            }
        }
        Ok(leftovers)
    }

    /// Runs one epoch of the Fig. 1 loop:
    /// dispatch → crowd advances → responses → errors/mitigation →
    /// ingestion (map) → per-cell processing → per-query merge → budget
    /// tuning.
    ///
    /// Every seam (a [`ControlHook`] closing the loop, tap, timer, crash
    /// injection, replay, multi-epoch horizons, the pipelined executor)
    /// lives on the builder-style [`crate::EpochDriver`] — see
    /// [`CraqrServer::driver`].
    pub fn run_epoch(&mut self) -> EpochReport {
        self.driver().step()
    }

    /// Starts building an epoch driver over this server — the one entry
    /// point for every seamed or multi-epoch execution (see
    /// [`crate::EpochDriver`]).
    pub fn driver(&mut self) -> crate::driver::EpochDriver<'_> {
        crate::driver::EpochDriver::new(self)
    }

    /// Takes everything fabricated for a query so far
    /// ([`Fabricator::collect_output`]); nothing for a query that does not
    /// stand.
    pub fn take_output(&mut self, qid: QueryId) -> Vec<CrowdTuple> {
        self.fabricator.collect_output(qid).unwrap_or_default()
    }

    /// Peeks at the number of buffered tuples for a query.
    pub fn buffered_len(&self, qid: QueryId) -> usize {
        self.fabricator.buffered_len(qid)
    }

    /// Simulation time (minutes).
    pub fn now(&self) -> f64 {
        self.crowd.now()
    }

    /// The attribute catalog.
    pub fn catalog(&self) -> &AttributeCatalog {
        &self.catalog
    }

    /// The fabricator (plans, chains, telemetry).
    pub fn fabricator(&self) -> &Fabricator {
        &self.fabricator
    }

    /// Switches per-operator processing-time accumulation on or off:
    /// every chain (existing and future) gets a nanosecond clock, and
    /// `OpCounters::busy_ns` starts accruing. The clock is
    /// the cheap vDSO monotonic reader ([`fast_monotonic_ns`]) — it fires
    /// twice per operator batch, where a thread-CPU syscall would cost
    /// more than many operators' processing itself. Timing-only —
    /// `busy_ns` is excluded from metric equality and from every
    /// checksummed artifact, so toggling this never changes reports,
    /// traces, or run logs. Off (the default) performs zero clock reads.
    pub fn set_engine_timing(&mut self, on: bool) {
        // craqr-lint: allow(R1): constructs the injected engine clock seam; busy_ns is excluded from metric equality
        self.fabricator.set_engine_clock(on.then_some(fast_monotonic_ns as fn() -> u64));
    }

    /// The request/response handler (budgets, incentives).
    pub fn handler(&self) -> &RequestResponseHandler {
        &self.handler
    }

    /// The crowd (sensor world).
    pub fn crowd(&self) -> &Crowd {
        &self.crowd
    }

    /// Mutable access to the crowd, for mid-run world changes (churn,
    /// participation collapse) in experiments and failure-injection tests.
    pub fn crowd_mut(&mut self) -> &mut Crowd {
        &mut self.crowd
    }

    /// Epochs run so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::Rect;
    use craqr_sensing::{
        fields::ConstantField, AttrValue, CrowdConfig, Mobility, Placement, PopulationConfig,
        RainFront,
    };

    fn crowd(size: usize) -> Crowd {
        Crowd::new(CrowdConfig {
            region: Rect::with_size(4.0, 4.0),
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.2 },
                human_fraction: 0.0,
            },
            seed: 11,
        })
    }

    fn server(size: usize) -> CraqrServer {
        let mut s = CraqrServer::new(crowd(size), ServerConfig::default());
        s.register_attribute("rain", true, Box::new(RainFront::new(2.0, 0.0, 2.0)));
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(21.0))));
        s
    }

    #[test]
    fn submit_parses_and_plans() {
        let mut s = server(200);
        let qid = s.submit("ACQUIRE rain FROM RECT(0,0,1,1) RATE 2").unwrap();
        assert_eq!(s.fabricator().query_ids(), vec![qid]);
        assert_eq!(s.fabricator().materialized_cells(), 1);
    }

    #[test]
    fn submit_rejects_unknown_attribute() {
        let mut s = server(10);
        let err = s.submit("ACQUIRE fog FROM RECT(0,0,1,1) RATE 2").unwrap_err();
        assert!(matches!(err, SubmitError::Parse(ParseError::UnknownAttribute(_))));
    }

    #[test]
    fn submit_rejects_unplannable_query() {
        let mut s = server(10);
        let err = s.submit("ACQUIRE rain FROM RECT(0,0,0.5,0.5) RATE 2").unwrap_err();
        assert!(matches!(err, SubmitError::Plan(PlanError::TooSmall { .. })));
    }

    #[test]
    fn epochs_deliver_tuples_and_advance_time() {
        let mut s = server(600);
        let qid = s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap();
        let mut total = 0;
        for _ in 0..12 {
            let report = s.run_epoch();
            total += report.delivered.iter().map(|(_, n)| n).sum::<usize>();
            assert!(report.dispatch.requested > 0);
        }
        assert_eq!(s.epochs(), 12);
        assert!((s.now() - 60.0).abs() < 1e-9);
        assert!(total > 0, "no tuples delivered");
        let out = s.take_output(qid);
        assert_eq!(out.len(), total);
        assert_eq!(s.buffered_len(qid), 0);
        // Values come from the registered field.
        assert!(out.iter().all(|t| t.value == AttrValue::Float(21.0)));
    }

    #[test]
    fn budgets_react_to_starvation() {
        // A tiny crowd cannot satisfy an aggressive rate: budgets must rise.
        let mut s = server(30);
        s.submit("ACQUIRE temp FROM RECT(0,0,1,1) RATE 5").unwrap();
        let cell = craqr_geom::CellId::new(0, 0);
        let attr = s.catalog().lookup("temp").unwrap();
        let mut before = None;
        for _ in 0..10 {
            s.run_epoch();
            let b = s.handler().budget_of(cell, attr);
            if before.is_none() {
                before = b;
            }
        }
        let after = s.handler().budget_of(cell, attr).unwrap();
        assert!(
            after > before.unwrap(),
            "budget should grow under violations: {before:?} → {after}"
        );
    }

    #[test]
    fn deleting_query_stops_requests() {
        let mut s = server(300);
        let qid = s.submit("ACQUIRE rain FROM RECT(0,0,1,1) RATE 1").unwrap();
        s.run_epoch();
        s.delete_query(qid).unwrap();
        let report = s.run_epoch();
        assert_eq!(report.dispatch.requested, 0, "no demand should remain");
        assert_eq!(s.fabricator().materialized_cells(), 0);
    }

    #[test]
    fn control_hook_observes_and_actuates() {
        struct Clamp {
            seen: usize,
            delivered: usize,
        }
        impl ControlHook for Clamp {
            fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
                self.seen += 1;
                self.delivered += obs.delivered.iter().map(|(_, t)| t.len()).sum::<usize>();
                assert!(obs.epoch_end > obs.epoch_start);
                // Pin every materialized chain's budget to 3 req/epoch and
                // rebuild it — the strongest possible intervention.
                obs.plan
                    .demands
                    .iter()
                    .flat_map(|&(cell, attr, _)| {
                        [
                            ControlAction::SetBudget { cell, attr, requests_per_epoch: 3.0 },
                            ControlAction::RebuildChain { cell, attr },
                        ]
                    })
                    .collect()
            }
        }
        let mut s = server(400);
        let qid = s.submit("ACQUIRE temp FROM RECT(0,0,1,1) RATE 1").unwrap();
        let mut hook = Clamp { seen: 0, delivered: 0 };
        s.driver().hook(&mut hook).step();
        let cell = craqr_geom::CellId::new(0, 0);
        let attr = s.catalog().lookup("temp").unwrap();
        assert_eq!(s.handler().budget_of(cell, attr), Some(3.0), "hook set the budget");
        assert_eq!(s.fabricator().chain(cell, attr).unwrap().flatten_report().batches(), 0);
        // The pinned budget drives the next epoch's dispatch.
        let r = s.driver().hook(&mut hook).step();
        assert_eq!(r.dispatch.requested, 3);
        assert_eq!(hook.seen, 2);
        // Nothing delivered was lost across rebuilds.
        for _ in 0..6 {
            s.driver().hook(&mut hook).step();
        }
        let buffered = s.take_output(qid).len();
        assert_eq!(hook.delivered, buffered, "hook-observed tuples and buffered output must agree");
    }

    #[test]
    fn hookless_and_noop_hook_runs_are_identical() {
        struct Noop;
        impl ControlHook for Noop {
            fn on_epoch(&mut self, _obs: &EpochObservation) -> Vec<ControlAction> {
                Vec::new()
            }
        }
        let run = |use_hook: bool| {
            let mut s = server(300);
            let qid = s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap();
            let mut hook = Noop;
            for _ in 0..6 {
                if use_hook {
                    s.driver().hook(&mut hook).step();
                } else {
                    s.run_epoch();
                }
            }
            s.take_output(qid).iter().map(|t| t.id).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "a silent hook must not perturb the loop");
    }

    /// A tap that clones everything it sees — the in-memory skeleton of
    /// the `craqr-runlog` recorder.
    #[derive(Default)]
    struct CollectTap {
        epochs: Vec<(u64, Vec<craqr_sensing::SensorResponse>, Vec<ControlAction>)>,
    }
    impl EpochTap for CollectTap {
        fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
            self.epochs.push((
                record.report.dispatch.sent,
                record.responses.to_vec(),
                record.actions.to_vec(),
            ));
        }
    }

    #[test]
    fn tapped_run_is_identical_to_untapped() {
        let run = |tap: Option<&mut CollectTap>| {
            let mut s = server(300);
            let qid = s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap();
            let mut tap = tap;
            for _ in 0..6 {
                match tap.as_deref_mut() {
                    Some(t) => s.driver().tap(t).step(),
                    None => s.run_epoch(),
                };
            }
            s.take_output(qid).iter().map(|t| t.id).collect::<Vec<_>>()
        };
        let mut tap = CollectTap::default();
        assert_eq!(run(None), run(Some(&mut tap)), "a tap must not perturb the loop");
        assert_eq!(tap.epochs.len(), 6);
        assert!(tap.epochs.iter().any(|(_, r, _)| !r.is_empty()), "tap saw no responses");
    }

    #[test]
    fn replayed_epochs_reproduce_the_live_run_without_a_crowd() {
        // Live run, tapped: collect each epoch's crowd-side inputs.
        let mut live = server(400);
        let qid = live.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.8").unwrap();
        let mut tap = CollectTap::default();
        let mut live_reports = Vec::new();
        for _ in 0..8 {
            live_reports.push(live.driver().tap(&mut tap).step());
        }
        let live_out: Vec<u64> = live.take_output(qid).iter().map(|t| t.id).collect();

        // Replay into a server over a *detached* (zero-sensor) crowd.
        let detached = Crowd::new(CrowdConfig {
            region: Rect::with_size(4.0, 4.0),
            population: PopulationConfig {
                size: 0,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.2 },
                human_fraction: 0.0,
            },
            seed: 11,
        });
        let mut replayed = CraqrServer::new(detached, ServerConfig::default());
        replayed.register_attribute("rain", true, Box::new(RainFront::new(2.0, 0.0, 2.0)));
        replayed.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(21.0))));
        let rqid = replayed.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.8").unwrap();
        assert_eq!(qid, rqid, "query planning must not depend on the crowd");

        for (live_report, (sent, responses, _)) in live_reports.iter().zip(&tap.epochs) {
            let input = ReplayInputs { sent: *sent, responses, faults: FaultDeltas::default() };
            let r = replayed.driver().replay(std::slice::from_ref(&input)).step();
            assert_eq!(r.epoch, live_report.epoch);
            assert_eq!(r.dispatch, live_report.dispatch, "epoch {}", r.epoch);
            assert_eq!(r.responses, live_report.responses, "epoch {}", r.epoch);
            assert_eq!(r.ingested, live_report.ingested, "epoch {}", r.epoch);
            assert_eq!(r.delivered, live_report.delivered, "epoch {}", r.epoch);
            assert_eq!(r.tuning, live_report.tuning, "epoch {}", r.epoch);
            assert_eq!(r.exec.routed, live_report.exec.routed, "epoch {}", r.epoch);
            assert!((r.now - live_report.now).abs() == 0.0, "replay clock drifted");
        }
        let replay_out: Vec<u64> = replayed.take_output(qid).iter().map(|t| t.id).collect();
        assert_eq!(live_out, replay_out, "replayed tuple stream differs from live");
        // The handler state converged identically too.
        let cell = craqr_geom::CellId::new(0, 0);
        let attr = live.catalog().lookup("temp").unwrap();
        assert_eq!(
            live.handler().budget_of(cell, attr),
            replayed.handler().budget_of(cell, attr),
            "budget state diverged under replay"
        );
    }

    #[test]
    fn admission_rejects_what_the_pool_cannot_cover() {
        let mut s = server(100);
        let alice = s.register_tenant("alice", 50.0);
        let bob = s.register_tenant("bob", 4.0);
        // 0.5 /km²/min × 4 km² × 5 min = 10 requests/epoch estimated.
        let q = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5";
        let qid = s.submit_for(alice, q).expect("alice's pool covers 10");
        // Bob's 4-request pool cannot: structured rejection, no plan.
        let err = s.submit_for(bob, q).unwrap_err();
        let SubmitError::Rejected(decision) = err else { panic!("want Rejected, got {err}") };
        assert_eq!(decision.tenant, bob);
        assert!(!decision.admitted);
        assert_eq!(decision.capacity, 4.0);
        assert!((decision.estimated_demand - 10.0).abs() < 1e-9);
        assert_eq!(s.fabricator().query_ids(), vec![qid], "rejected query never planned");
        // Both decisions are in the audit log, in submission order.
        let log = s.admissions();
        assert_eq!(log.len(), 2);
        assert!(log[0].admitted && !log[1].admitted);
        // Unknown tenants are rejected before admission arithmetic runs.
        assert!(matches!(
            s.submit_for(TenantId(9), q),
            Err(SubmitError::UnknownTenant(TenantId(9)))
        ));
    }

    #[test]
    fn deleting_a_query_releases_its_committed_demand() {
        let mut s = server(50);
        let t = s.register_tenant("solo", 12.0);
        let q = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"; // 10 req/epoch
        let qid = s.submit_for(t, q).unwrap();
        assert!(matches!(s.submit_for(t, q), Err(SubmitError::Rejected(_))), "pool full");
        s.delete_query(qid).unwrap();
        assert!(s.submit_for(t, q).is_ok(), "deletion released the commitment");
    }

    #[test]
    fn deleting_a_pre_registration_query_refunds_nothing() {
        // Regression: a query submitted before the first register_tenant
        // call never passed admission and committed nothing — deleting it
        // must not release phantom capacity (which would let the pool
        // over-admit past its cap).
        let mut s = server(50);
        let q_early = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"; // est. 10
                                                                  // Before any registration only the implicit default owner exists;
                                                                  // a made-up tenant id is rejected, not silently planted.
        assert!(matches!(
            s.submit_for(TenantId(3), q_early),
            Err(SubmitError::UnknownTenant(TenantId(3)))
        ));
        let early = s.submit(q_early).unwrap();
        let t = s.register_tenant("late", 10.0);
        assert_eq!(t, TenantId::DEFAULT, "the early query aliases tenant 0 by id");
        let admitted = s.submit_for(t, "ACQUIRE temp FROM RECT(2,2,4,4) RATE 0.4").unwrap(); // 8
                                                                                             // Deleting the never-admitted query must not zero the ledger…
        s.delete_query(early).unwrap();
        // …so a demand-10 query still cannot fit next to the committed 8.
        assert!(
            matches!(s.submit_for(t, q_early), Err(SubmitError::Rejected(_))),
            "phantom refund let the pool over-admit"
        );
        // Deleting the genuinely admitted query does release its 8.
        s.delete_query(admitted).unwrap();
        assert!(s.submit_for(t, q_early).is_ok());
    }

    #[test]
    fn tenant_charges_are_conserved_every_epoch() {
        // A deliberately tiny pool against a default 20-request initial
        // budget: dispatch must throttle, and the per-epoch charge can
        // never exceed the pool capacity.
        let mut s = server(400);
        let t = s.register_tenant("capped", 11.0);
        s.submit_for(t, "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap();
        let mut throttled_total = 0u64;
        for _ in 0..10 {
            let r = s.run_epoch();
            assert_eq!(r.tenant_charges.len(), 1);
            let (tenant, charge) = r.tenant_charges[0];
            assert_eq!(tenant, t);
            assert!(charge <= 11.0 + 1e-9, "epoch {} overdrew the pool: {charge} > 11", r.epoch);
            throttled_total += r.dispatch.throttled;
        }
        assert!(throttled_total > 0, "the tiny pool never throttled anything");
        let summary = &s.tenants().unwrap().summaries()[0];
        assert!(summary.peak_epoch_charge <= 11.0 + 1e-9);
        assert!(summary.charged_total > 0.0);
    }

    #[test]
    fn ample_single_tenant_run_matches_the_untenanted_run() {
        // Tenancy with an effectively unconstrained pool is observability
        // only: the delivered stream must be bit-identical to the
        // single-owner server.
        let run = |tenanted: bool| {
            let mut s = server(300);
            let qid = if tenanted {
                let t = s.register_tenant("ample", 1e9);
                s.submit_for(t, "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap()
            } else {
                s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap()
            };
            for _ in 0..6 {
                let r = s.run_epoch();
                assert_eq!(r.dispatch.throttled, 0);
            }
            s.take_output(qid).iter().map(|t| t.id).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "an ample pool must not perturb the loop");
    }

    #[test]
    fn stale_set_budget_after_chain_retirement_is_a_signalled_noop() {
        // Regression: a replan racing a chain retirement. The hook emits
        // SetBudget/RebuildChain for a chain whose last query was deleted
        // this epoch — the actuation must not insert a phantom budget
        // entry, and the epoch report must surface the stale actions.
        struct ReplanRetired {
            target: Option<(craqr_geom::CellId, AttributeId)>,
        }
        impl ControlHook for ReplanRetired {
            fn on_epoch(&mut self, _obs: &EpochObservation) -> Vec<ControlAction> {
                match self.target {
                    Some((cell, attr)) => vec![
                        ControlAction::SetBudget { cell, attr, requests_per_epoch: 50.0 },
                        ControlAction::RebuildChain { cell, attr },
                    ],
                    None => Vec::new(),
                }
            }
        }
        let mut s = server(200);
        let qid = s.submit("ACQUIRE temp FROM RECT(0,0,1,1) RATE 1").unwrap();
        let cell = craqr_geom::CellId::new(0, 0);
        let attr = s.catalog().lookup("temp").unwrap();
        let mut hook = ReplanRetired { target: None };
        s.driver().hook(&mut hook).step();
        assert!(s.handler().budget_of(cell, attr).is_some(), "chain live, budget live");

        // Retire the chain, then let the (now stale) replan fire.
        s.delete_query(qid).unwrap();
        hook.target = Some((cell, attr));
        let report = s.driver().hook(&mut hook).step();
        assert_eq!(report.stale_actions, 2, "both stale actuations surfaced");
        assert_eq!(
            s.handler().budget_of(cell, attr),
            None,
            "stale SetBudget must not materialize a phantom budget entry"
        );
        // A live chain still actuates with nothing reported stale.
        let q2 = s.submit("ACQUIRE temp FROM RECT(0,0,1,1) RATE 1").unwrap();
        let r = s.driver().hook(&mut hook).step();
        assert_eq!(r.stale_actions, 0);
        assert_eq!(s.handler().budget_of(cell, attr), Some(50.0));
        s.delete_query(q2).unwrap();
    }

    #[test]
    #[should_panic(expected = "exec.shards")]
    fn zero_shard_config_is_rejected_at_construction() {
        let config = ServerConfig { exec: ExecMode::Sharded(0), ..ServerConfig::default() };
        let _ = CraqrServer::new(crowd(10), config);
    }

    #[test]
    fn rain_values_match_ground_truth_geometry() {
        let mut s = server(500);
        let qid = s.submit("ACQUIRE rain FROM RECT(0,0,4,4) RATE 0.3").unwrap();
        for _ in 0..8 {
            s.run_epoch();
        }
        let out = s.take_output(qid);
        assert!(!out.is_empty());
        for t in &out {
            // RainFront(2.0, 0, 2.0): raining iff x ∈ [0, 2).
            let expected = t.point.x < 2.0;
            assert_eq!(t.value, AttrValue::Bool(expected), "at x={}", t.point.x);
        }
    }
}

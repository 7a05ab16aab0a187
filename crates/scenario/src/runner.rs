//! Executing a spec: spec → crowd → server → [`ScenarioReport`]
//! (+ [`AdaptiveTrace`] when the spec closes the loop).

use crate::replay::EpochCheck;
use crate::report::{
    AdaptiveSection, AdmissionRow, EpochRow, FaultSection, OperatorRow, QueryRow, RunTotals,
    ScenarioReport, TenantRow, TenantSection,
};
use crate::spec::{FieldSpec, ScenarioSpec, ShiftSpec, SpecError};
use crate::telemetry::RunTelemetry;
use craqr_adaptive::{AdaptiveController, AdaptiveTrace};
use craqr_core::budget::TuneOutcome;
use craqr_core::server::SubmitError;
use craqr_core::{
    AdmissionDecision, CraqrServer, CrashPoint, EpochInputsRecord, EpochReport, EpochTap, ExecMode,
    QueryId,
};
use craqr_geom::{Rect, SpaceTimePoint, SpaceTimeWindow};
use craqr_mdpp::{IntensityModel, IntensitySummary, SelfExcitingIntensity};
use craqr_runlog::{RunLog, RunLogRecorder, ShiftEvent, StreamingRecorder};
use craqr_sensing::{fields::ConstantField, AttrValue, Crowd, CrowdConfig, Field};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a (valid) spec failed to run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The spec itself is invalid.
    Spec(SpecError),
    /// A query failed to parse or plan against this spec's world.
    Query {
        /// Index into [`ScenarioSpec::queries`].
        index: usize,
        /// The offending text.
        text: String,
        /// The parser/planner complaint.
        message: String,
    },
    /// A streamed run log could not be persisted.
    Io {
        /// The log path that failed.
        path: PathBuf,
        /// The io error.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Spec(e) => write!(f, "invalid spec: {e}"),
            RunError::Query { index, text, message } => {
                write!(f, "query {index} ('{text}'): {message}")
            }
            RunError::Io { path, message } => write!(f, "{}: {message}", path.display()),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SpecError> for RunError {
    fn from(e: SpecError) -> Self {
        RunError::Spec(e)
    }
}

/// A ground-truth field backed by a (frozen) intensity model: observations
/// report `scale × λ(t, x, y)` — the scenario harness's burst phenomena.
struct IntensityField<I> {
    model: I,
    scale: f64,
}

impl<I: IntensityModel + Send + Sync> Field for IntensityField<I> {
    fn value_at(&self, p: &SpaceTimePoint) -> AttrValue {
        AttrValue::Float(self.scale * self.model.rate_at(p))
    }
}

/// Everything one scenario run produces: the canonical report, the
/// adaptive decision log (when the spec closes the loop), and the
/// event-sourced run log (when the plan's [`Record`] keeps one).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The canonical, checksummed report.
    pub report: ScenarioReport,
    /// The adaptive controller's decision log (`[adaptive]` specs only).
    pub trace: Option<AdaptiveTrace>,
    /// The event-sourced epoch log, sealed with the report/trace
    /// checksums (absent when the plan recorded nothing, and from every
    /// [`crate::replay()`] and [`crate::resume()`], which check each epoch
    /// against their log instead of recording a copy).
    pub log: Option<RunLog>,
    /// The metrics collector (`[telemetry]` specs and timed plans only) —
    /// render it with [`RunTelemetry::render_prometheus`] or aggregate
    /// across runs with [`RunTelemetry::absorb`].
    pub telemetry: Option<RunTelemetry>,
}

/// How the epoch loop executes — never what it outputs: every checksummed
/// artifact (report, trace, run log) is byte-identical across every
/// combination, and goldens are always blessed from the default.
/// [`ExecMode`] converts into the default (serial executor, untimed)
/// execution under that mode, so `replay(&log, ExecMode::Serial)` reads
/// as it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Execution {
    /// How the process phase is scheduled: serial or `Sharded(n)`.
    pub mode: ExecMode,
    /// Run on the pipelined executor — the staged epoch dataflow spread
    /// across three worker threads
    /// ([`craqr_core::EpochDriver::run_pipelined`]) — instead of serially.
    pub pipelined: bool,
    /// Switch the clock-derived metric tier on: a [`RunTelemetry`]
    /// collector is always attached (even without a `[telemetry]` block),
    /// the epoch loop gets a [`craqr_core::PhaseTimer`] (whose `control`
    /// phase is the control hook's time), and the engine accumulates
    /// per-node processing time. The timing tier is structurally excluded
    /// from canonical renderings.
    pub timing: bool,
}

impl From<ExecMode> for Execution {
    fn from(mode: ExecMode) -> Self {
        Self { mode, pipelined: false, timing: false }
    }
}

impl Execution {
    /// This execution on the pipelined (`true`) or serial executor.
    pub fn pipelined(self, pipelined: bool) -> Self {
        Self { pipelined, ..self }
    }

    /// This execution with the timing tier on or off.
    pub fn timing(self, timing: bool) -> Self {
        Self { timing, ..self }
    }
}

/// What run log a run keeps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Record {
    /// Record in memory iff the spec has a recording `[runlog]` block.
    #[default]
    AsSpec,
    /// Record nothing, even for `[runlog]` specs: a tap is a pure
    /// observer, so this changes nothing but the work done.
    Off,
    /// Record in memory whether or not the spec declares `[runlog]`.
    Memory,
    /// **Crash-safe** recording: every sealed epoch block is appended and
    /// `fsync`ed to this path as it closes ([`StreamingRecorder`]), and
    /// the run is sealed by appending and `fsync`ing the trailer. If the
    /// process dies mid-run (or mid-seal), the file salvages
    /// ([`craqr_runlog::parse_salvage`]) to the last durable epoch
    /// boundary instead of losing the log.
    Stream(PathBuf),
}

/// One way to run a scenario: every choice a run makes, as one value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunPlan {
    /// How the epoch loop executes.
    pub execution: Execution,
    /// Overrides the spec's own seed — the CI determinism check exercises
    /// serial-vs-sharded equality across seeds without per-seed spec files.
    pub seed: Option<u64>,
    /// What run log the run keeps.
    pub record: Record,
}

impl RunPlan {
    /// The plan every golden is defined by, under `execution`: the spec's
    /// own seed, recording as the spec says.
    pub fn new(execution: impl Into<Execution>) -> Self {
        Self { execution: execution.into(), seed: None, record: Record::AsSpec }
    }

    /// This plan with the spec's seed overridden.
    pub fn seed(self, seed: u64) -> Self {
        Self { seed: Some(seed), ..self }
    }

    /// This plan keeping a different run log.
    pub fn record(self, record: Record) -> Self {
        Self { record, ..self }
    }
}

/// Runs [`ScenarioSpec`]s under any [`RunPlan`].
///
/// The runner is stateless between runs: every [`ScenarioRunner::run`]
/// rebuilds the crowd, the server, and the query plan from the spec, so
/// runs under different plans (and repeated runs) are completely
/// independent executions whose reports can be compared byte-for-byte.
pub struct ScenarioRunner {
    spec: ScenarioSpec,
}

impl ScenarioRunner {
    /// Validates the spec and wraps it in a runner.
    pub fn new(spec: ScenarioSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(Self { spec })
    }

    /// Builds a runner from a spec file (`.toml` or `.json`).
    pub fn from_file(path: &Path) -> Result<Self, BatchError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| BatchError::Io { path: path.to_path_buf(), message: e.to_string() })?;
        let spec = ScenarioSpec::from_source(&path.to_string_lossy(), &src)
            .map_err(|e| BatchError::Spec { path: path.to_path_buf(), error: e })?;
        ScenarioRunner::new(spec)
            .map_err(|e| BatchError::Spec { path: path.to_path_buf(), error: e })
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Runs the scenario as `plan` says. The trace's checksum is embedded
    /// in the report (so the report golden pins the trace), and the log
    /// is sealed with both checksums (so a replay is self-verifying); the
    /// trace and log are golden-tested separately
    /// (`tests/goldens/<name>.trace.txt` / `<name>.runlog.txt`).
    pub fn run(&self, plan: &RunPlan) -> Result<RunOutput, RunError> {
        let mut session = self.open(plan)?;
        session.drive(None, None);
        session.close()
    }

    /// Runs the scenario up to `at_epoch` and kills it at the named
    /// [`CrashPoint`], exactly as a process death there would: epochs
    /// before `at_epoch` stream durably to the plan's [`Record::Stream`]
    /// path, the crashed epoch's work is abandoned mid-flight (or, for
    /// `mid-log-append`, its log append is torn halfway through a
    /// `write(2)`), and nothing is sealed. On the pipelined executor the
    /// stage owning the crash point exits after its last permitted
    /// operation and its neighbours drain until their channels disconnect;
    /// the durable prefix is byte-identical to the serial crash's.
    /// Returns the number of epochs durable on disk — the boundary a
    /// salvage-and-resume must recover to.
    ///
    /// # Panics
    /// Panics when `at_epoch` is outside the spec's horizon, or the plan
    /// does not stream its log.
    #[track_caller]
    pub fn run_to_crash(
        &self,
        plan: &RunPlan,
        at_epoch: u32,
        point: CrashPoint,
    ) -> Result<usize, RunError> {
        assert!(
            at_epoch < self.spec.epochs,
            "crash epoch {at_epoch} outside the spec's {} epochs",
            self.spec.epochs
        );
        assert!(matches!(plan.record, Record::Stream(_)), "a crash run streams its log");
        let mut session = self.open(plan)?;
        session.drive(Some((at_epoch, point)), None);
        // The "process" dies here: no seal, no atomic swap. The file keeps
        // exactly the prefix whose `end` lines were synced.
        Ok(session.durable_epochs())
    }

    fn open(&self, plan: &RunPlan) -> Result<Session<'_>, RunError> {
        let spec = &self.spec;
        let seed = plan.seed.unwrap_or(spec.seed);
        let record = match &plan.record {
            Record::AsSpec if spec.runlog.is_some_and(|r| r.record) => &Record::Memory,
            record => record,
        };
        let recorder = Recorder::new(record, &spec.name, seed, &spec.to_toml());
        Session::open(spec, seed, plan.execution, None, recorder)
    }
}

/// Every scenario spec file (`.toml`/`.json`) in `dir`, sorted by name.
pub fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, BatchError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| BatchError::Io { path: dir.to_path_buf(), message: e.to_string() })?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("toml") | Some("json")))
        .collect();
    files.sort();
    Ok(files)
}

/// Why a spec file or corpus directory failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// A file or directory could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The io error.
        message: String,
    },
    /// A spec failed to parse or validate.
    Spec {
        /// The offending file.
        path: PathBuf,
        /// The schema complaint.
        error: SpecError,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io { path, message } => write!(f, "{}: {message}", path.display()),
            BatchError::Spec { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

impl std::error::Error for BatchError {}

/// The deterministic pre-epoch world updates every execution path —
/// live, streamed, crash-injected, and the resume prefix — must apply
/// identically: the epoch's `shifts` from the run's one shift schedule,
/// churn, and the `[faults]` crowd-fault windows active this epoch.
/// Divergence here would break replay/resume byte-equality, so there is
/// exactly one copy. The function touches only the crowd, which is what
/// lets the pipelined executor run it on the drain stage
/// ([`craqr_core::EpochDriver::prologue`]); [`ShiftTap`] echoes the same
/// schedule into run logs and the re-run check on the render side.
fn epoch_prologue(spec: &ScenarioSpec, shifts: &[ShiftEvent], e: u32, crowd: &mut Crowd) {
    for shift in shifts {
        apply_shift(crowd, shift);
    }
    if let Some(churn) = &spec.churn {
        if churn.probability > 0.0 {
            crowd.churn(churn.probability);
        }
    }
    if let Some(f) = &spec.faults {
        // Set every epoch (not just on window edges) so a window's end
        // resets the crowd to fault-free; with no windows at all the
        // crowd is never touched and fault-free goldens stay identical.
        if !f.crowd.is_empty() {
            crowd.set_faults(f.crowd_faults_at(e));
        }
    }
}

/// The run log a session keeps: in memory, or also streamed durably to
/// the path (kept here for error reports).
pub(crate) enum Recorder {
    Memory(RunLogRecorder),
    Stream(StreamingRecorder, PathBuf),
}

impl Recorder {
    /// The recorder `record` asks for (`AsSpec` must be resolved against
    /// the spec first); the name, seed and spec text land in the header.
    fn new(record: &Record, scenario: &str, seed: u64, toml: &str) -> Option<Self> {
        match record {
            Record::AsSpec | Record::Off => None,
            Record::Memory => Some(Self::Memory(RunLogRecorder::new(scenario, seed, toml))),
            Record::Stream(path) => {
                Some(Self::Stream(StreamingRecorder::new(path, scenario, seed, toml), path.clone()))
            }
        }
    }

    /// Files the submit-time admission decisions in the log's checksummed
    /// header. A stream persists the header eagerly: even a crash before
    /// epoch 0 leaves a salvageable file.
    fn begin(&mut self, admissions: &[AdmissionDecision]) -> Result<(), RunError> {
        match self {
            Self::Memory(rec) => rec.record_admissions(admissions),
            Self::Stream(rec, path) => {
                rec.record_admissions(admissions);
                rec.begin().map_err(|e| io_error(path, &e))?;
            }
        }
        Ok(())
    }

    /// Seals the log with the finished run's checksums. Stream appends
    /// happen on the driver's render side, so their failures surface here,
    /// once, at the end of the run.
    fn finish(self, report: u64, trace: Option<u64>) -> Result<RunLog, RunError> {
        match self {
            Self::Memory(rec) => Ok(rec.finish(report, trace)),
            Self::Stream(rec, path) => rec.finish(report, trace).map_err(|e| io_error(&path, &e)),
        }
    }
}

fn io_error(path: &Path, e: &std::io::Error) -> RunError {
    RunError::Io { path: path.to_path_buf(), message: e.to_string() }
}

/// An [`EpochTap`] adapter owning the ordering contract between shift
/// events and epoch appends. The prologue applies a shift on the drain
/// stage, epochs ahead of the log append under the pipelined executor, so
/// the adapter echoes the run's one shift schedule — the one the prologue
/// applies — into the recorder (and the re-run check) immediately before
/// the epoch it precedes is appended. The recorders buffer shifts onto
/// the *next* appended block, so the log bytes do not depend on the
/// executor. It also arms the chaos harness's mid-append tear
/// (meaningful for a stream only) at exactly the right block.
struct ShiftTap<'a, 'log> {
    recorder: Option<&'a mut Recorder>,
    check: Option<&'a mut EpochCheck<'log>>,
    shifts: &'a [Vec<ShiftEvent>],
    tear_at: Option<u64>,
}

impl EpochTap for ShiftTap<'_, '_> {
    fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
        let e = record.report.epoch;
        let shifts = self.shifts.get(e as usize).map_or(&[][..], Vec::as_slice);
        if let Some(check) = &mut self.check {
            check.on_epoch(record, shifts);
        }
        match &mut self.recorder {
            Some(Recorder::Memory(rec)) => {
                shifts.iter().for_each(|ev| rec.record_shift(*ev));
                rec.on_epoch(record);
            }
            Some(Recorder::Stream(rec, _)) => {
                shifts.iter().for_each(|ev| rec.record_shift(*ev));
                if self.tear_at == Some(e) {
                    rec.tear_next_append();
                }
                rec.on_epoch(record);
            }
            None => {}
        }
    }
}

/// The per-epoch shift events a spec scripts, indexed by epoch — the one
/// schedule the prologue applies and [`ShiftTap`] echoes.
fn spec_shift_schedule(spec: &ScenarioSpec) -> Vec<Vec<ShiftEvent>> {
    let mut schedule = vec![Vec::new(); spec.epochs as usize];
    for shift in &spec.shifts {
        if let Some(slot) = schedule.get_mut(shift.epoch() as usize) {
            slot.push(shift_event(shift));
        }
    }
    schedule
}

/// One run from stand-up to sealed output — the only place the
/// server → collector → controller → recorder → hook → tap → driver →
/// rows → report → seal sequence exists. Live, streamed, crash-injected,
/// replayed and resumed runs are all [`Session::open`] →
/// [`Session::drive`] → [`Session::close`]; `replay`/`resume` open with
/// no recorder and drive with their [`EpochCheck`] in the tap.
pub(crate) struct Session<'a> {
    spec: &'a ScenarioSpec,
    seed: u64,
    how: Execution,
    replayed: Option<&'a RunLog>,
    server: CraqrServer,
    qids: Vec<Option<QueryId>>,
    telemetry: Option<RunTelemetry>,
    controller: Option<AdaptiveController>,
    recorder: Option<Recorder>,
    epochs: Vec<EpochRow>,
}

impl<'a> Session<'a> {
    /// Stands the run up. With `replayed` the crowd is detached and the
    /// log's recorded inputs stand in for it.
    pub(crate) fn open(
        spec: &'a ScenarioSpec,
        seed: u64,
        how: Execution,
        replayed: Option<&'a RunLog>,
        mut recorder: Option<Recorder>,
    ) -> Result<Self, RunError> {
        let (mut server, qids) = build_server(spec, seed, how.mode, replayed.is_some())?;
        // A declared `[telemetry]` block collects the event tier — on
        // every path, or a replayed/resumed report's `[telemetry]` section
        // could not re-converge; `timing` additionally (or alone, without
        // the block) collects the clock tier for `--metrics` exports.
        let mut telemetry =
            (spec.telemetry.is_some() || how.timing).then(|| RunTelemetry::new(how.timing));
        if how.timing {
            server.set_engine_timing(true);
        }
        if let Some(t) = &mut telemetry {
            t.observe_admissions(server.admissions());
        }
        let controller = match &spec.adaptive {
            // The spec validated the block, so the config is sound.
            Some(a) => Some(AdaptiveController::new(a.to_config()?)),
            None => None,
        };
        // Admission ran at submit time, inside build_server.
        if let Some(rec) = &mut recorder {
            rec.begin(server.admissions())?;
        }
        let epochs = Vec::new();
        Ok(Self {
            spec,
            seed,
            how,
            replayed,
            server,
            qids,
            telemetry,
            controller,
            recorder,
            epochs,
        })
    }

    /// The admission decisions the rebuilt server made at submit time.
    pub(crate) fn admissions(&self) -> &[AdmissionDecision] {
        self.server.admissions()
    }

    /// Epochs durable on disk (zero unless the session streams its log).
    fn durable_epochs(&self) -> usize {
        match &self.recorder {
            Some(Recorder::Stream(rec, _)) => rec.epochs_streamed(),
            _ => 0,
        }
    }

    /// Drives the [`craqr_core::EpochDriver`]: the log's recorded epochs
    /// when replaying, else the spec's horizon — or, with `crash`, up to
    /// that epoch's crash point. A `check` sees every tapped epoch.
    pub(crate) fn drive(
        &mut self,
        crash: Option<(u32, CrashPoint)>,
        check: Option<&mut EpochCheck<'_>>,
    ) {
        let (spec, how) = (self.spec, self.how);
        // One schedule for every path: the live prologue applies it, and
        // the tap echoes it to the recorder and to a re-run's check, which
        // compares it with the log's recorded shifts.
        let schedule = spec_shift_schedule(spec);
        let tear_at = crash
            .and_then(|(at, point)| (point == CrashPoint::MidLogAppend).then_some(u64::from(at)));
        let tapped = self.recorder.is_some() || check.is_some();
        let recorder = self.recorder.as_mut();
        let mut tap = tapped.then_some(ShiftTap { recorder, check, shifts: &schedule, tear_at });

        let mut d = self.server.driver();
        if let Some(c) = &mut self.controller {
            d = d.hook(c);
        }
        if let Some(t) = &mut tap {
            d = d.tap(t);
        }
        // Only a timing collector listens; event-only collectors leave
        // the loop clock-free.
        if let Some(t) = self.telemetry.as_mut().filter(|_| how.timing) {
            d = d.timer(t);
        }
        let mut epochs = u64::from(spec.epochs);
        if let Some(log) = self.replayed {
            d = d.replay(log.source());
            epochs = log.epochs.len() as u64;
        } else {
            d = d.prologue(|e, crowd| epoch_prologue(spec, &schedule[e as usize], e as u32, crowd));
            if let Some((at, point)) = crash {
                d = d.crash_at(u64::from(at), point);
                epochs = u64::from(at) + 1;
            }
        }
        let outcome = if how.pipelined { d.run_pipelined(epochs) } else { d.run(epochs) };
        for r in &outcome.reports {
            if let Some(t) = &mut self.telemetry {
                t.observe_epoch(r);
            }
            self.epochs.push(epoch_row(r));
        }
    }

    /// Finalizes the report and seals the log with its checksums.
    pub(crate) fn close(mut self) -> Result<RunOutput, RunError> {
        let trace = self.controller.take().map(AdaptiveController::into_trace);
        let report = self.finalize_report(trace.as_ref());
        let log = match self.recorder.take() {
            Some(rec) => {
                Some(rec.finish(report.checksum(), trace.as_ref().map(AdaptiveTrace::checksum))?)
            }
            None => None,
        };
        Ok(RunOutput { report, trace, log, telemetry: self.telemetry })
    }

    /// Builds the canonical report from the finished run.
    fn finalize_report(&mut self, trace: Option<&AdaptiveTrace>) -> ScenarioReport {
        let Self { spec, seed, server, qids, telemetry, epochs, .. } = self;
        let (spec, seed, epochs) = (*spec, *seed, std::mem::take(epochs));
        let region = Rect::with_size(spec.grid.size_km, spec.grid.size_km);
        let minutes = server.now();
        let window = SpaceTimeWindow::new(region, 0.0, minutes.max(f64::MIN_POSITIVE));
        let mut queries = Vec::with_capacity(qids.len());
        // `index` is the spec's query index; admission-rejected queries keep
        // their slot (they appear in the [admissions] audit, not [queries]).
        for (index, qid) in qids.iter().enumerate() {
            let Some(qid) = qid else { continue };
            let plan = server.fabricator().query_plan(*qid).expect("standing query");
            let requested_rate = plan.query.rate;
            let area = plan.footprint.area();
            let stream = server.take_output(*qid);
            let points: Vec<SpaceTimePoint> = stream.iter().map(|t| t.point).collect();
            let intensity = IntensitySummary::from_points(&points, &window, spec.grid.side);
            queries.push(QueryRow {
                index,
                text: spec.queries[index].text.clone(),
                requested_rate,
                area,
                delivered: stream.len(),
                achieved_rate: stream.len() as f64 / (area * minutes),
                intensity,
            });
        }

        let operators = server
            .fabricator()
            .chain_metrics()
            .by_kind()
            .into_iter()
            .map(|(kind, m)| OperatorRow {
                kind: kind.to_string(),
                tuples_in: m.tuples_in,
                tuples_out: m.tuples_out,
                batches: m.batches,
            })
            .collect();

        let final_budget: f64 = server
            .fabricator()
            .demands()
            .iter()
            .filter_map(|(cell, attr, _)| server.fabricator().budget_of(*cell, *attr))
            .sum();
        let (requested, sent) = server.handler().totals();
        let totals = RunTotals {
            requested,
            sent,
            // Every matured response is drained by some epoch, so the
            // rows' sum is the crowd's counter, on a detached replay too.
            responses: epochs.iter().map(|e| e.responses as u64).sum(),
            exhausted_events: server.handler().exhausted_events(),
            final_budget,
            dropped_unmaterialized: server.fabricator().dropped_unmaterialized(),
            chains: server.fabricator().materialized_chains(),
            minutes,
            throttled: epochs.iter().map(|e| e.throttled).sum(),
            stale_actions: epochs.iter().map(|e| e.stale_actions).sum(),
        };

        // Fault/retry accounting renders only for specs that armed the fault
        // layer; every source is replay-stable (epoch fault deltas ride the
        // run log, retry counters are deterministic functions of the
        // response stream), so the section survives detached replay.
        let faults = spec.faults.as_ref().map(|_| FaultSection {
            dropped: epochs.iter().map(|e| e.faults.dropped).sum(),
            delayed: epochs.iter().map(|e| e.faults.delayed).sum(),
            duplicated: epochs.iter().map(|e| e.faults.duplicated).sum(),
            retries_requested: server.handler().retries_requested(),
            retry_attempts: server.handler().retry_attempts(),
        });

        // The collector's whole-run counters land here so every execution
        // path (live, streamed, replayed, resumed) finalizes identically.
        let telemetry = telemetry.as_mut().map(|t| {
            t.finalize(server.handler(), &server.fabricator().chain_metrics(), trace);
            t.section()
        });
        // The section joins the report only when the spec asked for it;
        // `--metrics`-only collectors keep the report untouched.
        let telemetry = if spec.telemetry.is_some_and(|t| t.report) { telemetry } else { None };

        let adaptive = trace.map(AdaptiveSection::from);
        let tenants = server.tenants().map(|registry| TenantSection {
            rows: registry
                .summaries()
                .into_iter()
                .map(|s| TenantRow {
                    tenant: s.tenant.0,
                    name: s.name,
                    capacity: s.capacity,
                    admitted: s.admitted,
                    rejected: s.rejected,
                    committed: s.committed,
                    charged: s.charged_total,
                    peak_epoch_charge: s.peak_epoch_charge,
                })
                .collect(),
            admissions: registry
                .decisions()
                .iter()
                .map(|d| AdmissionRow {
                    submission: d.submission,
                    tenant: d.tenant.0,
                    demand: d.estimated_demand,
                    committed: d.committed_before,
                    capacity: d.capacity,
                    admitted: d.admitted,
                })
                .collect(),
        });
        ScenarioReport {
            name: spec.name.clone(),
            seed,
            epochs,
            queries,
            operators,
            totals,
            adaptive,
            tenants,
            faults,
            telemetry,
        }
    }
}

/// Applies one scripted regime shift to the crowd.
fn apply_shift(crowd: &mut Crowd, shift: &ShiftEvent) {
    match *shift {
        ShiftEvent::Participation { factor } => crowd.scale_participation(factor),
        ShiftEvent::Dropout { probability, rect: (x0, y0, x1, y1) } => {
            crowd.drop_region(&Rect::new(x0, y0, x1, y1), probability);
        }
        ShiftEvent::Migrate { probability, rect: (x0, y0, x1, y1) } => {
            crowd.migrate(probability, &Rect::new(x0, y0, x1, y1));
        }
    }
}

/// The run-log event describing one scripted shift.
fn shift_event(shift: &ShiftSpec) -> ShiftEvent {
    match *shift {
        ShiftSpec::Participation { factor, .. } => ShiftEvent::Participation { factor },
        ShiftSpec::Dropout { probability, rect, .. } => ShiftEvent::Dropout { probability, rect },
        ShiftSpec::Migrate { probability, rect, .. } => ShiftEvent::Migrate { probability, rect },
    }
}

/// Builds the server a spec describes. With `detached` the crowd is
/// constructed empty (zero sensors, same region/planner/seed): queries
/// plan identically — planning depends only on the catalog and grid — but
/// the world costs nothing and produces nothing, which is exactly what a
/// log replay needs.
///
/// Specs with `[[tenants]]` register each tenant's pool and submit every
/// query on its owner's behalf: admission control runs at this boundary,
/// and a rejection is a **recorded outcome**, not an error — the query's
/// slot comes back as `None`, the decision lands in
/// [`CraqrServer::admissions`], and the run proceeds with the admitted
/// queries (both reports and run logs carry the audit trail).
fn build_server(
    spec: &ScenarioSpec,
    seed: u64,
    exec: ExecMode,
    detached: bool,
) -> Result<(CraqrServer, Vec<Option<QueryId>>), RunError> {
    let region = Rect::with_size(spec.grid.size_km, spec.grid.size_km);
    let mut config = spec.to_server_config(exec)?;
    config.planner.seed = seed;

    let mut population = spec.population.to_config(&region)?;
    if detached {
        population.size = 0;
    }
    let crowd = Crowd::new(CrowdConfig { region, population, seed });
    let mut server = CraqrServer::new(crowd, config);

    for (index, attr) in spec.attributes.iter().enumerate() {
        let field = build_field(&attr.field, &region, seed, index as u64);
        server.register_attribute(&attr.name, attr.human, field);
    }

    let mut tenant_ids = std::collections::HashMap::new();
    for t in &spec.tenants {
        tenant_ids.insert(t.name.as_str(), server.register_tenant(&t.name, t.pool));
    }

    let mut qids: Vec<Option<QueryId>> = Vec::with_capacity(spec.queries.len());
    for (index, q) in spec.queries.iter().enumerate() {
        let result = match &q.tenant {
            // The spec validated the reference, so the lookup is sound.
            Some(name) => server.submit_for(tenant_ids[name.as_str()], &q.text),
            None => server.submit(&q.text),
        };
        match result {
            Ok(qid) => qids.push(Some(qid)),
            Err(SubmitError::Rejected(_)) => qids.push(None),
            Err(e) => {
                return Err(RunError::Query {
                    index,
                    text: q.text.clone(),
                    message: match e {
                        SubmitError::Parse(p) => format!("parse error: {p}"),
                        SubmitError::Plan(p) => format!("plan error: {p}"),
                        other => other.to_string(),
                    },
                })
            }
        }
    }
    Ok((server, qids))
}

/// Reduces one epoch report to its deterministic counters.
fn epoch_row(r: &EpochReport) -> EpochRow {
    let (mut incr, mut decr, mut exh) = (0usize, 0usize, 0usize);
    for t in &r.tuning {
        match t.outcome {
            TuneOutcome::Increased => incr += 1,
            TuneOutcome::Decreased => decr += 1,
            TuneOutcome::Exhausted => exh += 1,
        }
    }
    EpochRow {
        epoch: r.epoch,
        requested: r.dispatch.requested,
        sent: r.dispatch.sent,
        responses: r.responses,
        rejected: r.mitigation_rejected,
        ingested: r.ingested,
        routed: r.exec.routed,
        dropped: r.exec.dropped,
        delivered: r.delivered.iter().map(|(_, n)| n).sum(),
        tune_increased: incr,
        tune_decreased: decr,
        tune_exhausted: exh,
        throttled: r.dispatch.throttled,
        stale_actions: r.stale_actions,
        faults: r.faults,
    }
}

/// Materializes a [`FieldSpec`] into a ground-truth field. Burst fields
/// derive their cascade from a sub-stream of the scenario seed keyed by
/// the attribute's position in the spec, so two burst attributes (or two
/// seeds) never share event histories.
fn build_field(spec: &FieldSpec, region: &Rect, seed: u64, attr_index: u64) -> Box<dyn Field> {
    match spec {
        FieldSpec::Temperature { base, y_gradient, islands, diurnal_amplitude, diurnal_period } => {
            Box::new(craqr_sensing::TemperatureField {
                base: *base,
                y_gradient: *y_gradient,
                islands: islands.clone(),
                diurnal_amplitude: *diurnal_amplitude,
                diurnal_period: *diurnal_period,
            })
        }
        FieldSpec::Rain { x_start, speed, width } => {
            Box::new(craqr_sensing::RainFront::new(*x_start, *speed, *width))
        }
        FieldSpec::ConstantFloat { value } => Box::new(ConstantField(AttrValue::Float(*value))),
        FieldSpec::ConstantBool { value } => Box::new(ConstantField(AttrValue::Bool(*value))),
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
            // attr_index 0 keeps the pre-existing stream (0xB5E7), so
            // single-burst goldens are unaffected by the keying.
            let mut rng = craqr_stats::sub_rng(seed, 0xB5E7_u64.wrapping_add(attr_index));
            let model = SelfExcitingIntensity::cascade(
                *mu,
                *alpha,
                *beta,
                *sigma,
                *region,
                *horizon,
                *immigrants as usize,
                *branching_ratio,
                &mut rng,
            );
            Box::new(IntensityField { model, scale: *scale })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::from_toml(&format!(
            r#"
name = "runner-unit"
seed = {seed}
epochs = 4

[grid]
size_km = 4.0
side = 4

[population]
size = 300
human_fraction = 0.2
placement = {{ kind = "city" }}
mobility = {{ kind = "waypoint", speed = 0.08, pause = 5.0 }}

[[attributes]]
name = "temp"
field = {{ kind = "temperature", base = 20.0, y_gradient = -0.1, islands = [[2.0, 2.0, 4.0, 1.0]], diurnal_amplitude = 5.0, diurnal_period = 1440.0 }}

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"
"#
        ))
        .unwrap()
    }

    #[test]
    fn serial_and_sharded_reports_are_identical() {
        let runner = ScenarioRunner::new(spec(11)).unwrap();
        let serial = runner.run(&RunPlan::new(ExecMode::Serial)).unwrap().report;
        let sharded = runner.run(&RunPlan::new(ExecMode::Sharded(3))).unwrap().report;
        assert_eq!(serial, sharded);
        assert_eq!(serial.canonical(), sharded.canonical());
        assert!(serial.epochs.len() == 4);
        assert!(serial.totals.sent > 0, "the loop must do work");
    }

    #[test]
    fn seed_override_changes_the_world() {
        let runner = ScenarioRunner::new(spec(11)).unwrap();
        let a = runner.run(&RunPlan::default().seed(1)).unwrap().report;
        let b = runner.run(&RunPlan::default().seed(2)).unwrap().report;
        assert_ne!(a.checksum(), b.checksum());
        assert_eq!(a.seed, 1);
    }

    #[test]
    fn burst_attributes_get_independent_cascades() {
        let burst = FieldSpec::Burst {
            mu: 0.2,
            alpha: 3.0,
            beta: 0.15,
            sigma: 0.4,
            horizon: 50.0,
            immigrants: 6,
            branching_ratio: 0.6,
            scale: 1.0,
        };
        let region = Rect::with_size(4.0, 4.0);
        let a = build_field(&burst, &region, 7, 0);
        let b = build_field(&burst, &region, 7, 1);
        // Same params, same seed, different attribute slots: the cascades
        // must differ somewhere.
        let differs = (0..64).any(|i| {
            let p = SpaceTimePoint::new(
                (i as f64 * 0.77).rem_euclid(50.0),
                (i as f64 * 0.31).rem_euclid(4.0),
                (i as f64 * 0.53).rem_euclid(4.0),
            );
            a.value_at(&p) != b.value_at(&p)
        });
        assert!(differs, "two burst attributes shared one event history");
    }

    #[test]
    fn bad_query_reports_its_index() {
        let mut s = spec(5);
        s.queries[0].text = "ACQUIRE fog FROM RECT(0,0,1,1) RATE 1".into();
        let runner = ScenarioRunner::new(s).unwrap();
        let err = runner.run(&RunPlan::default()).unwrap_err();
        assert!(matches!(err, RunError::Query { index: 0, .. }), "{err}");
    }

    fn faulty_spec(seed: u64) -> ScenarioSpec {
        let mut s = spec(seed);
        let toml = format!(
            "{}\n[runlog]\n\n[faults]\n\n[[faults.crowd]]\nkind = \"drop\"\nfrom_epoch = 1\n\
             to_epoch = 2\nprobability = 0.4\n\n[[faults.crowd]]\nkind = \"duplicate\"\n\
             probability = 0.3\n\n[faults.retry]\nthreshold = 0.9\nbackoff = 0.5\n\
             max_attempts = 2\n",
            s.to_toml()
        );
        s = ScenarioSpec::from_toml(&toml).unwrap();
        s
    }

    #[test]
    fn crowd_faults_and_retry_are_mode_deterministic() {
        let runner = ScenarioRunner::new(faulty_spec(13)).unwrap();
        let serial = runner.run(&RunPlan::new(ExecMode::Serial)).unwrap();
        let sharded = runner.run(&RunPlan::new(ExecMode::Sharded(3))).unwrap();
        assert_eq!(serial.report.canonical(), sharded.report.canonical());
        assert_eq!(serial.log, sharded.log, "fault-injected logs must be mode-independent");

        // The faults actually bite: a fault-free twin diverges.
        let mut clean = faulty_spec(13);
        clean.faults = None;
        let clean_run = ScenarioRunner::new(clean).unwrap().run(&RunPlan::default()).unwrap();
        assert_ne!(clean_run.report.checksum(), serial.report.checksum());
    }

    #[test]
    fn faulty_logs_replay_and_resume_everywhere() {
        let runner = ScenarioRunner::new(faulty_spec(17)).unwrap();
        let live = runner.run(&RunPlan::default()).unwrap();
        let log = live.log.as_ref().unwrap();
        // Replay drives a detached crowd (faults never fire there — the
        // recorded responses are already post-fault), sharded or not.
        let replayed = crate::replay::replay(log, ExecMode::Sharded(2)).unwrap();
        assert_eq!(replayed.report.checksum(), live.report.checksum());
        // Resume rebuilds the live prefix fault-for-fault.
        for k in [0, 2, log.epochs.len()] {
            let resumed =
                crate::replay::resume(&log.truncated(k).unwrap(), ExecMode::Serial, k).unwrap();
            assert_eq!(resumed.report.checksum(), live.report.checksum(), "resume at {k}");
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("craqr-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn streamed_run_seals_the_same_log_as_the_in_memory_recorder() {
        let dir = tempdir("streamed");
        let path = dir.join("run.runlog.txt");
        let runner = ScenarioRunner::new(spec(23)).unwrap();
        let streamed =
            runner.run(&RunPlan::default().record(Record::Stream(path.clone()))).unwrap();
        let recorded = runner.run(&RunPlan::default().record(Record::Memory)).unwrap();
        assert_eq!(streamed.report, recorded.report);
        assert_eq!(streamed.log, recorded.log, "streaming must not change what is recorded");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, streamed.log.unwrap().canonical(), "sealed file is canonical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_salvage_resume_reproduces_the_uninterrupted_run() {
        let dir = tempdir("crash");
        let runner = ScenarioRunner::new(faulty_spec(29)).unwrap();
        let uninterrupted = runner.run(&RunPlan::default()).unwrap();
        for point in CrashPoint::ALL {
            let path = dir.join(format!("crash-{point}.runlog.txt"));
            let plan = RunPlan::default().record(Record::Stream(path.clone()));
            let durable = runner.run_to_crash(&plan, 2, point).unwrap();
            assert_eq!(durable, 2, "{point}: epochs 0 and 1 must be durable");
            let bytes = std::fs::read_to_string(&path).unwrap();
            let salvage = craqr_runlog::parse_salvage(&bytes).unwrap();
            assert_eq!(salvage.log.epochs.len(), 2, "{point}");
            // mid-log-append leaves real torn bytes; the in-loop points
            // die between appends, so their tail tears cleanly at 0 bytes.
            let torn = salvage.torn.expect("a crashed stream is unsealed");
            if point == CrashPoint::MidLogAppend {
                assert!(torn.discarded_bytes > 0, "half-written block must be discarded");
            } else {
                assert_eq!(torn.discarded_bytes, 0, "{point}");
            }
            let resumed = crate::replay::resume(&salvage.log, ExecMode::Serial, 2).unwrap();
            assert_eq!(
                resumed.report.checksum(),
                uninterrupted.report.checksum(),
                "{point}: resume after salvage must re-converge"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

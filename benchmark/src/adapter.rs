//! Every call into the workspace crates lives in this file, so an API
//! change in the program under test is a change to one file here.
//!
//! Only the surfaces least likely to churn are used: `ScenarioSpec::from_toml`
//! and its public conversions, `Crowd`, `CraqrServer` construction and
//! submission, the `EpochDriver` builder with its four seams, the real
//! `AdaptiveController` and `StreamingRecorder`, `RunLog::{parse,canonical}`,
//! a standalone `Fabricator`, and the `craqr-scenario` CLI by its documented
//! flags. `ScenarioRunner::run_*` is deliberately not used: its private
//! helpers (`build_server`, `epoch_prologue`, `ShiftTap`) are re-stated
//! here in a few lines each from the public pieces they are made of.
//!
//! Measurement happens at the seams the driver exposes: the `prologue` call
//! opens an epoch's slot, the hook wrapper brackets control, and the tap
//! wrapper's return seals the epoch (after the fsync when durable).

use crate::alloc;
use craqr::adaptive::AdaptiveController;
use craqr::core::query::parse_query;
use craqr::core::{
    AttributeCatalog, ControlAction, ControlHook, CraqrServer, EpochInputsRecord, EpochObservation,
    EpochPhase, EpochReport, EpochTap, ExecMode, Fabricator, FaultDeltas, PhaseTimer, QueryId,
    ReplayInputs, ServerConfig,
};
use craqr::geom::Rect;
use craqr::runlog::{RunLog, RunLogRecorder, ShiftEvent, StreamingRecorder};
use craqr::scenario::spec::{FieldSpec, ShiftSpec};
use craqr::scenario::ScenarioSpec;
use craqr::sensing::fields::ConstantField;
use craqr::sensing::{
    AttrValue, AttributeId, Crowd, CrowdConfig, Field, RainFront, SensorResponse, TemperatureField,
};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use craqr::scenario::value::{parse_json, ConfigValue, Table};

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn exec_mode(shards: usize) -> ExecMode {
    if shards <= 1 {
        ExecMode::Serial
    } else {
        ExecMode::Sharded(shards)
    }
}

// ── set-up ─────────────────────────────────────────────────────────────

/// Parses and validates a spec text; `.1` is the time it took (µs).
pub fn parse_spec(toml: &str) -> Result<(ScenarioSpec, f64), String> {
    let t = Instant::now();
    let spec = ScenarioSpec::from_toml(toml).map_err(|e| format!("spec: {e}"))?;
    spec.validate().map_err(|e| format!("spec: {e}"))?;
    Ok((spec, t.elapsed().as_secs_f64() * 1e6))
}

/// A recorded run's crowd-side inputs, decoded for `run_replayed`.
pub struct Recording {
    responses: Vec<Vec<SensorResponse>>,
    sent: Vec<u64>,
    faults: Vec<FaultDeltas>,
    shifts: Vec<Vec<ShiftEvent>>,
}

impl Recording {
    pub fn from_log(log: &RunLog) -> Self {
        Self {
            responses: log
                .epochs
                .iter()
                .map(|e| e.responses.iter().map(|r| r.to_response()).collect())
                .collect(),
            sent: log.epochs.iter().map(|e| e.sent).collect(),
            faults: log.epochs.iter().map(|e| e.faults()).collect(),
            shifts: log.epochs.iter().map(|e| e.shifts.clone()).collect(),
        }
    }

    pub fn epochs(&self) -> usize {
        self.responses.len()
    }

    /// The negative self-test's tampering: the recording minus one response
    /// of epoch `epoch`.
    pub fn drop_one_response(&mut self, epoch: usize) {
        self.responses[epoch].pop();
    }

    fn inputs(&self) -> Vec<ReplayInputs<'_>> {
        (0..self.epochs())
            .map(|t| ReplayInputs {
                sent: self.sent[t],
                responses: &self.responses[t],
                faults: self.faults[t],
            })
            .collect()
    }
}

/// Parses a canonical run-log text (the run-log **read** path).
pub fn parse_log(text: &str) -> Result<RunLog, String> {
    RunLog::parse(text).map_err(|e| format!("run log: {e}"))
}

pub fn log_text(log: &RunLog) -> String {
    log.canonical()
}

/// Where set-up time went, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse_us: f64,
    pub crowd_build_ms: f64,
    pub core_build_ms: f64,
    pub submit_ms_per_query: f64,
}

/// A fresh server with the spec's queries standing, ready for one horizon.
pub struct Prepared {
    spec: ScenarioSpec,
    spec_toml: String,
    server: CraqrServer,
    qids: Vec<QueryId>,
    pub times: SetupTimes,
}

fn build_field(spec: &FieldSpec) -> Result<Box<dyn Field>, String> {
    Ok(match spec {
        FieldSpec::Temperature { base, y_gradient, islands, diurnal_amplitude, diurnal_period } => {
            Box::new(TemperatureField {
                base: *base,
                y_gradient: *y_gradient,
                islands: islands.clone(),
                diurnal_amplitude: *diurnal_amplitude,
                diurnal_period: *diurnal_period,
            })
        }
        FieldSpec::Rain { x_start, speed, width } => {
            Box::new(RainFront::new(*x_start, *speed, *width))
        }
        FieldSpec::ConstantFloat { value } => Box::new(ConstantField(AttrValue::Float(*value))),
        FieldSpec::ConstantBool { value } => Box::new(ConstantField(AttrValue::Bool(*value))),
        FieldSpec::Burst { .. } => {
            return Err("burst fields are built by scenario-private code; \
                        benchmark workloads do not use them"
                .into())
        }
    })
}

fn region_of(spec: &ScenarioSpec) -> Rect {
    Rect::with_size(spec.grid.size_km, spec.grid.size_km)
}

fn server_config(spec: &ScenarioSpec, shards: usize) -> Result<ServerConfig, String> {
    spec.to_server_config(exec_mode(shards)).map_err(|e| format!("spec: {e}"))
}

fn build_crowd(spec: &ScenarioSpec, detached: bool) -> Result<Crowd, String> {
    let region = region_of(spec);
    let mut population = spec.population.to_config(&region).map_err(|e| format!("spec: {e}"))?;
    if detached {
        population.size = 0;
    }
    Ok(Crowd::new(CrowdConfig { region, population, seed: spec.seed }))
}

/// Spec text → standing server: parse + validate, crowd build, server build
/// with attributes and tenants, query submission. `detached` builds the
/// zero-sensor crowd a replay drives.
pub fn prepare(spec_toml: &str, detached: bool, shards: usize) -> Result<Prepared, String> {
    let (spec, parse_us) = parse_spec(spec_toml)?;
    let config = server_config(&spec, shards)?;

    let t = Instant::now();
    let crowd = build_crowd(&spec, detached)?;
    let crowd_build_ms = ms_since(t);

    let t = Instant::now();
    let mut server = CraqrServer::new(crowd, config);
    for attr in &spec.attributes {
        server.register_attribute(&attr.name, attr.human, build_field(&attr.field)?);
    }
    let tenants: Vec<_> =
        spec.tenants.iter().map(|t| (&t.name, server.register_tenant(&t.name, t.pool))).collect();
    let core_build_ms = ms_since(t);

    let t = Instant::now();
    let mut qids = Vec::with_capacity(spec.queries.len());
    for q in &spec.queries {
        let submitted = match &q.tenant {
            Some(name) => {
                let id = tenants.iter().find(|(n, _)| *n == name).expect("validated tenant").1;
                server.submit_for(id, &q.text)
            }
            None => server.submit(&q.text),
        };
        // Workloads are generated so that every query is admitted; a
        // rejection here is a generator bug, not a measurement.
        qids.push(submitted.map_err(|e| format!("query '{}': {e}", q.text))?);
    }
    let submit_ms_per_query = ms_since(t) / spec.queries.len().max(1) as f64;

    Ok(Prepared {
        spec,
        spec_toml: spec_toml.to_string(),
        server,
        qids,
        times: SetupTimes { parse_us, crowd_build_ms, core_build_ms, submit_ms_per_query },
    })
}

impl Prepared {
    pub fn epochs(&self) -> usize {
        self.spec.epochs as usize
    }

    pub fn chains(&self) -> usize {
        self.server.fabricator().materialized_chains()
    }
}

// ── the seams ──────────────────────────────────────────────────────────

/// One column of the per-epoch stamp table.
#[derive(Clone, Copy)]
enum Col {
    Open,
    HookStart,
    HookEnd,
    TapStart,
    Sealed,
    Allocs,
    AllocBytes,
    RssKb,
}

/// Per-epoch stamps written from whichever thread owns the seam (the
/// pipelined executor runs prologue, hook and tap on three workers). Times
/// are nanoseconds since the run's base instant, plus one so zero means
/// unset. Relaxed: each cell is written once and read after the workers
/// joined.
struct Stamps {
    base: Instant,
    rows: Vec<[AtomicU64; 8]>,
}

impl Stamps {
    fn new(epochs: usize) -> Self {
        Self {
            base: Instant::now(),
            rows: (0..epochs).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect(),
        }
    }

    fn set(&self, epoch: u64, col: Col, value: u64) {
        if let Some(row) = self.rows.get(epoch as usize) {
            row[col as usize].store(value, Ordering::Relaxed);
        }
    }

    fn stamp(&self, epoch: u64, col: Col) {
        self.set(epoch, col, self.base.elapsed().as_nanos() as u64 + 1);
    }

    fn unload(&self) -> Vec<EpochStamps> {
        self.rows
            .iter()
            .map(|row| {
                let at = |col: Col| row[col as usize].load(Ordering::Relaxed);
                EpochStamps {
                    open: at(Col::Open),
                    hook_start: at(Col::HookStart),
                    hook_end: at(Col::HookEnd),
                    tap_start: at(Col::TapStart),
                    sealed: at(Col::Sealed),
                    allocs: at(Col::Allocs),
                    alloc_bytes: at(Col::AllocBytes),
                    rss_kb: at(Col::RssKb),
                }
            })
            .collect()
    }
}

/// Resident set size in KiB, read without allocating (the read sits inside
/// the span the allocation counters cover).
fn rss_kb(statm: &std::fs::File) -> u64 {
    let mut buf = [0u8; 128];
    let n = statm.read_at(&mut buf, 0).unwrap_or(0);
    let text = std::str::from_utf8(&buf[..n]).unwrap_or("");
    let pages: u64 = text.split_whitespace().nth(1).and_then(|p| p.parse().ok()).unwrap_or(0);
    pages * 4
}

/// Process CPU time so far (ms), from the scheduler's tick counters.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of those, in USER_HZ (100/s on Linux) ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 * 10.0
}

/// The spec's scripted pre-epoch world updates (shifts, churn, fault
/// windows), applied to the crowd exactly as the scenario layer does.
fn apply_prologue(spec: &ScenarioSpec, e: u32, crowd: &mut Crowd) {
    for shift in spec.shifts.iter().filter(|s| s.epoch() == e) {
        match shift {
            ShiftSpec::Participation { factor, .. } => crowd.scale_participation(*factor),
            ShiftSpec::Dropout { probability, rect, .. } => {
                crowd.drop_region(&Rect::new(rect.0, rect.1, rect.2, rect.3), *probability)
            }
            ShiftSpec::Migrate { probability, rect, .. } => {
                crowd.migrate(*probability, &Rect::new(rect.0, rect.1, rect.2, rect.3))
            }
        }
    }
    if let Some(churn) = spec.churn.as_ref().filter(|c| c.probability > 0.0) {
        crowd.churn(churn.probability);
    }
    if let Some(f) = spec.faults.as_ref().filter(|f| !f.crowd.is_empty()) {
        crowd.set_faults(f.crowd_faults_at(e));
    }
}

fn shift_schedule(spec: &ScenarioSpec) -> Vec<Vec<ShiftEvent>> {
    let mut schedule = vec![Vec::new(); spec.epochs as usize];
    for shift in &spec.shifts {
        let event = match *shift {
            ShiftSpec::Participation { factor, .. } => ShiftEvent::Participation { factor },
            ShiftSpec::Dropout { probability, rect, .. } => {
                ShiftEvent::Dropout { probability, rect }
            }
            ShiftSpec::Migrate { probability, rect, .. } => {
                ShiftEvent::Migrate { probability, rect }
            }
        };
        if let Some(slot) = schedule.get_mut(shift.epoch() as usize) {
            slot.push(event);
        }
    }
    schedule
}

/// Where the tap's records go.
enum Sink {
    /// Stamp only.
    None,
    Memory(RunLogRecorder),
    Stream(StreamingRecorder),
}

/// The render-side seam: echoes scripted shifts into the recorder ahead of
/// the epoch they precede, appends, and stamps the epoch sealed on return.
struct SeamTap<'a> {
    sink: Sink,
    shifts: Vec<Vec<ShiftEvent>>,
    stamps: &'a Stamps,
    traced: bool,
}

impl EpochTap for SeamTap<'_> {
    fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
        let e = record.report.epoch;
        if self.traced {
            self.stamps.stamp(e, Col::TapStart);
        }
        let shifts = self.shifts.get(e as usize).map_or(&[][..], Vec::as_slice);
        match &mut self.sink {
            Sink::None => {}
            Sink::Memory(rec) => {
                shifts.iter().for_each(|s| rec.record_shift(*s));
                rec.on_epoch(record);
            }
            Sink::Stream(rec) => {
                shifts.iter().for_each(|s| rec.record_shift(*s));
                rec.on_epoch(record);
            }
        }
        self.stamps.stamp(e, Col::Sealed);
    }
}

/// The control-side seam around the real controller.
struct SeamHook<'a> {
    inner: AdaptiveController,
    stamps: &'a Stamps,
    traced: bool,
    actions: u64,
}

impl ControlHook for SeamHook<'_> {
    fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
        let e = obs.report.epoch;
        if self.traced {
            self.stamps.stamp(e, Col::HookStart);
        }
        let actions = self.inner.on_epoch(obs);
        self.actions += actions.len() as u64;
        if self.traced {
            self.stamps.stamp(e, Col::HookEnd);
        }
        actions
    }
}

/// A timer that keeps nothing: installing it switches on the loop's own
/// clock reads, which is the cost `telemetry.timer_overhead_pct` measures.
struct NoopTimer;

impl PhaseTimer for NoopTimer {
    fn observe(&mut self, _phase: EpochPhase, _nanos: u64) {}
}

// ── running a horizon ──────────────────────────────────────────────────

/// How the tap persists what it sees.
#[derive(Clone, Copy)]
pub enum Record<'a> {
    /// Stamp-only tap.
    Off,
    /// In-memory recorder (verification and workload generation).
    Memory,
    /// The real `StreamingRecorder`: append + fsync every epoch, sealed at
    /// the end.
    Stream(&'a Path),
}

#[derive(Clone, Copy)]
pub struct RunPlan<'a> {
    pub pipelined: bool,
    pub replay: Option<&'a Recording>,
    pub record: Record<'a>,
    pub timer: bool,
    /// Record the inner seams, allocation counters and RSS per epoch.
    pub traced: bool,
}

/// One epoch as the seams saw it (ns since the run's base instant; zero
/// where a seam was not installed or not traced).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStamps {
    pub open: u64,
    pub hook_start: u64,
    pub hook_end: u64,
    pub tap_start: u64,
    pub sealed: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub rss_kb: u64,
}

pub struct RunResult {
    /// Wall time of the horizon run alone (no set-up, no seal).
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub reports: Vec<EpochReport>,
    pub stamps: Vec<EpochStamps>,
    pub pool_fresh_allocations: u64,
    /// The recorded (and, when streamed, sealed) log.
    pub log: Option<RunLog>,
    pub seal_ms: f64,
    pub stream_error: Option<String>,
    /// `(requested rate, achieved rate)` per query.
    pub rates: Vec<(f64, f64)>,
    /// Tenant pool capacities, by tenant id.
    pub pools: Vec<f64>,
    pub retries: u64,
    pub replans: u64,
    pub actions: u64,
}

/// Zeroes what may legitimately differ between executors (`busy_ns`, the
/// shard split) so reports compare with `==`.
pub fn normalized(report: &EpochReport) -> EpochReport {
    let mut r = report.clone();
    let (chains, tuples) = (r.exec.chains(), r.exec.shards.iter().map(|s| s.tuples).sum());
    r.exec.shards = vec![craqr::core::ShardIngest { shard: 0, chains, tuples, busy_ns: 0 }];
    r
}

/// `(engine work ns, engine critical-path ns, shards)` as the program
/// reported them for one epoch.
pub fn exec_ns(report: &EpochReport) -> (u64, u64, usize) {
    (report.exec.work_ns(), report.exec.critical_path_ns(), report.exec.shards.len())
}

/// Work counts summed over a run's epochs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub requested: u64,
    pub responses: u64,
    pub delivered: u64,
    pub throttled: u64,
    pub stale_actions: u64,
}

pub fn totals(reports: &[EpochReport]) -> Counts {
    let mut c = Counts::default();
    for r in reports {
        c.requested += r.dispatch.requested;
        c.responses += r.responses as u64;
        c.delivered += r.delivered.iter().map(|(_, n)| *n as u64).sum::<u64>();
        c.throttled += r.dispatch.throttled;
        c.stale_actions += r.stale_actions;
    }
    c
}

/// The largest tenant charge of the epoch as a share of that tenant's pool.
pub fn worst_pool_share(report: &EpochReport, pools: &[f64]) -> f64 {
    report
        .tenant_charges
        .iter()
        .map(|(id, charge)| charge / pools.get(id.0 as usize).copied().unwrap_or(f64::NAN))
        .fold(0.0, f64::max)
}

/// Drives one horizon over a prepared server.
pub fn run(prepared: Prepared, plan: RunPlan<'_>) -> Result<RunResult, String> {
    let Prepared { spec, spec_toml, mut server, qids, .. } = prepared;
    let n = plan.replay.map_or(spec.epochs as usize, Recording::epochs);
    let stamps = Stamps::new(n);
    let statm = std::fs::File::open("/proc/self/statm").map_err(|e| format!("statm: {e}"))?;

    let mut hook = match &spec.adaptive {
        Some(a) => Some(SeamHook {
            inner: AdaptiveController::new(a.to_config().map_err(|e| format!("spec: {e}"))?),
            stamps: &stamps,
            traced: plan.traced,
            actions: 0,
        }),
        None => None,
    };
    let sink = match plan.record {
        Record::Off => Sink::None,
        Record::Memory => {
            let mut rec = RunLogRecorder::new(&spec.name, spec.seed, &spec_toml);
            rec.record_admissions(server.admissions());
            Sink::Memory(rec)
        }
        Record::Stream(path) => {
            let mut rec = StreamingRecorder::new(path, &spec.name, spec.seed, &spec_toml);
            rec.record_admissions(server.admissions());
            rec.begin().map_err(|e| format!("{}: {e}", path.display()))?;
            Sink::Stream(rec)
        }
    };
    let shifts = match plan.replay {
        Some(recording) => recording.shifts.clone(),
        None => shift_schedule(&spec),
    };
    let mut tap = SeamTap { sink, shifts, stamps: &stamps, traced: plan.traced };
    let mut timer = NoopTimer;
    let inputs = plan.replay.map(Recording::inputs);

    let (spec_ref, stamps_ref, traced) = (&spec, &stamps, plan.traced);
    let mut driver = server.driver().tap(&mut tap).prologue(move |e, crowd| {
        stamps_ref.stamp(e, Col::Open);
        if traced {
            let (allocs, bytes) = alloc::snapshot();
            stamps_ref.set(e, Col::Allocs, allocs);
            stamps_ref.set(e, Col::AllocBytes, bytes);
            stamps_ref.set(e, Col::RssKb, rss_kb(&statm));
        }
        apply_prologue(spec_ref, e as u32, crowd);
    });
    if let Some(h) = hook.as_mut() {
        driver = driver.hook(h);
    }
    if plan.timer {
        driver = driver.timer(&mut timer);
    }

    let cpu_before = process_cpu_ms();
    let started = Instant::now();
    let outcome = match (&inputs, plan.pipelined) {
        (Some(inputs), false) => driver.run_replayed(inputs),
        (Some(inputs), true) => driver.run_replayed_pipelined(inputs),
        (None, false) => driver.run(n as u64),
        (None, true) => driver.run_pipelined(n as u64),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu_before;

    // Seal: the report checksum the log carries is the benchmark's own
    // (FNV over the normalised reports' debug rendering) — the scenario
    // layer's canonical report is private to `ScenarioRunner`.
    let seal = craqr::stats::fnv1a64(
        format!("{:?}", outcome.reports.iter().map(normalized).collect::<Vec<_>>()).as_bytes(),
    );
    let (replans, actions, trace_seal) = match hook {
        Some(h) => {
            let trace = h.inner.into_trace();
            (trace.replans.len() as u64, h.actions, Some(trace.checksum()))
        }
        None => (0, 0, None),
    };
    let t = Instant::now();
    let (log, stream_error) = match tap.sink {
        Sink::None => (None, None),
        Sink::Memory(rec) => (Some(rec.finish(seal, trace_seal)), None),
        Sink::Stream(rec) => match rec.finish(seal, trace_seal) {
            Ok(log) => (Some(log), None),
            Err(e) => (None, Some(e.to_string())),
        },
    };
    let seal_ms = ms_since(t);

    let minutes = server.now().max(f64::MIN_POSITIVE);
    let rates = qids
        .iter()
        .map(|qid| {
            let plan = server.fabricator().query_plan(*qid).expect("standing query");
            let delivered: usize = outcome
                .reports
                .iter()
                .flat_map(|r| r.delivered.iter())
                .filter(|(q, _)| q == qid)
                .map(|(_, n)| n)
                .sum();
            (plan.query.rate, delivered as f64 / (plan.footprint.area() * minutes))
        })
        .collect();

    Ok(RunResult {
        wall_s,
        cpu_ms,
        pool_fresh_allocations: outcome.pool.fresh_allocations,
        reports: outcome.reports,
        stamps: stamps.unload(),
        log,
        seal_ms,
        stream_error,
        rates,
        pools: spec.tenants.iter().map(|t| t.pool).collect(),
        retries: server.handler().retries_requested(),
        replans,
        actions,
    })
}

// ── layer probes ───────────────────────────────────────────────────────

/// `Crowd` alone on the spec's population.
#[derive(Debug, Clone, Copy, Default)]
pub struct SensingProbe {
    pub dispatch_us_per_order: f64,
    pub step_ns_per_sensor_step: f64,
    pub drain_ns_per_response: f64,
    /// Responses drained ÷ requests sent.
    pub response_ratio: f64,
    pub orders_per_epoch: f64,
}

/// Drives a bare crowd the way the drain stage does: one
/// `dispatch_requests` per (cell, attribute) with `per_order` requests, the
/// spec's mobility sub-steps, one recycled drain — for `epochs` epochs.
pub fn sensing_probe(
    spec_toml: &str,
    per_order: usize,
    epochs: usize,
) -> Result<SensingProbe, String> {
    let (spec, _) = parse_spec(spec_toml)?;
    let config = server_config(&spec, 1)?;
    let mut crowd = build_crowd(&spec, false)?;
    let mut catalog = AttributeCatalog::new();
    let mut attrs: Vec<AttributeId> = Vec::new();
    for attr in &spec.attributes {
        let id = catalog.register(&attr.name, attr.human);
        crowd.register_field(id, build_field(&attr.field)?);
        attrs.push(id);
    }
    let grid = craqr::geom::Grid::new(region_of(&spec), spec.grid.side);
    let cells: Vec<Rect> = grid.all_cells().map(|c| grid.cell_rect(c)).collect();
    let substeps = config.mobility_substeps;
    let dt = config.planner.batch_duration / substeps as f64;
    let sensors = crowd.sensor_count().max(1);

    let (mut dispatch_s, mut step_s, mut drain_s) = (0.0, 0.0, 0.0);
    let (mut orders, mut sent, mut drained) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    for e in 0..epochs {
        apply_prologue(&spec, e as u32, &mut crowd);
        let t = Instant::now();
        for rect in &cells {
            for attr in &attrs {
                sent +=
                    crowd.dispatch_requests(*attr, rect, per_order, config.incentive.base) as u64;
                orders += 1;
            }
        }
        dispatch_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..substeps {
            crowd.step(dt);
        }
        step_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        buf = crowd.drain_responses_reusing(buf);
        drain_s += t.elapsed().as_secs_f64();
        drained += std::hint::black_box(&buf).len() as u64;
    }
    Ok(SensingProbe {
        dispatch_us_per_order: dispatch_s * 1e6 / orders.max(1) as f64,
        step_ns_per_sensor_step: step_s * 1e9
            / (sensors as f64 * substeps as f64 * epochs.max(1) as f64),
        drain_ns_per_response: drain_s * 1e9 / drained.max(1) as f64,
        response_ratio: drained as f64 / sent.max(1) as f64,
        orders_per_epoch: orders as f64 / epochs.max(1) as f64,
    })
}

/// A standalone `Fabricator` with the spec's queries, fed the recorded
/// tuples through `ingest_batch_mode` + `collect_output`; ns per tuple.
pub fn engine_probe(spec_toml: &str, recording: &Recording, shards: usize) -> Result<f64, String> {
    let (spec, _) = parse_spec(spec_toml)?;
    let config = server_config(&spec, shards)?;
    let mut catalog = AttributeCatalog::new();
    for attr in &spec.attributes {
        catalog.register(&attr.name, attr.human);
    }
    let mut fabricator = Fabricator::new(region_of(&spec), config.planner);
    let mut qids = Vec::new();
    for q in &spec.queries {
        let query = parse_query(&q.text, &catalog).map_err(|e| format!("query: {e}"))?;
        qids.push(fabricator.insert_query(query).map_err(|e| format!("plan: {e}"))?);
    }
    let mut idgen = craqr::core::tuple::TupleIdGen::new();
    let (mut busy_s, mut tuples_in) = (0.0, 0u64);
    for responses in &recording.responses {
        let tuples = idgen.ingest(responses);
        tuples_in += tuples.len() as u64;
        let t = Instant::now();
        std::hint::black_box(fabricator.ingest_batch_mode(&tuples, config.exec));
        for qid in &qids {
            std::hint::black_box(fabricator.collect_output(*qid).map_err(|e| e.to_string())?);
        }
        busy_s += t.elapsed().as_secs_f64();
    }
    Ok(busy_s * 1e9 / tuples_in.max(1) as f64)
}

/// Encode and parse throughput of the run-log codec on `log` (MB/s each).
pub fn codec_probe(log: &RunLog) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let text = std::hint::black_box(log.canonical());
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(parse_log(&text)?);
    let parse_s = t.elapsed().as_secs_f64();
    let mb = text.len() as f64 / 1e6;
    Ok((mb / encode_s.max(1e-9), mb / parse_s.max(1e-9)))
}

// ── the CLI, as a user types it ────────────────────────────────────────

/// The release `craqr-scenario` binary: next to this executable (the two
/// are built into one target directory) unless `CRAQR_SCENARIO_BIN` says
/// otherwise.
pub fn cli_path() -> Option<PathBuf> {
    let path = match std::env::var_os("CRAQR_SCENARIO_BIN") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe().ok()?.parent()?.join("craqr-scenario"),
    };
    path.is_file().then_some(path)
}

fn cli(bin: &Path, args: &[&str]) -> Result<(String, f64), String> {
    let t = Instant::now();
    let out = std::process::Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let secs = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "craqr-scenario {} exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), secs))
}

/// `record --out` then `replay` on `spec_path`, plus `--checksum` under
/// plain, `--shards 2` and `--pipeline`, which must print the same line.
/// Returns `(record seconds, replay seconds)`.
pub fn cli_probe(bin: &Path, spec_path: &Path, out_dir: &Path) -> Result<(f64, f64), String> {
    let (spec, out) = (spec_path.to_string_lossy(), out_dir.to_string_lossy());
    let (recorded, record_s) = cli(bin, &["record", &spec, "--out", &out])?;
    let log = recorded
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| format!("unexpected record output: {recorded}"))?
        .to_string();
    let (_, replay_s) = cli(bin, &["replay", &log])?;
    let plain = cli(bin, &[&spec, "--checksum"])?.0;
    for extra in [&["--shards", "2"][..], &["--pipeline"][..]] {
        let mut args = vec![spec.as_ref(), "--checksum"];
        args.extend_from_slice(extra);
        let other = cli(bin, &args)?.0;
        if other != plain {
            return Err(format!(
                "craqr-scenario --checksum differs under {}: '{}' vs '{}'",
                extra.join(" "),
                other.trim(),
                plain.trim()
            ));
        }
    }
    Ok((record_s, replay_s))
}

//! The epoch driver: one builder-style entry point, one schedule, one
//! slot body.
//!
//! [`EpochDriver`] holds the optional seams ([`ControlHook`],
//! [`EpochTap`], [`PhaseTimer`], a pre-epoch prologue, a [`CrashPoint`],
//! a [`ReplaySource`]) and offers three execution shapes. All of them run
//! the **staged schedule** below, and its slot body exists once — the
//! three stage structs of this module, each owning its state and exposing
//! its slot operation; an executor is only the loop that calls them:
//!
//! - [`EpochDriver::run`]: a horizon of slots, the stages called back to
//!   back on the calling thread.
//! - [`EpochDriver::run_pipelined`]: the same calls with each stage on
//!   its own worker thread, so the drain of epoch `t+1` overlaps the
//!   ingest of epoch `t` and the log append of epoch `t-1`
//!   ([`crate::pipeline`] owns the channels and computes nothing).
//! - [`EpochDriver::step`]: a horizon of one slot, for callers that do
//!   their own work between epochs.
//!
//! Only the drain stage knows where an epoch's responses come from: the
//! live crowd, or the [`ReplaySource`] of [`EpochDriver::replay`]. The
//! ingest stage learns one fact from it — no orders to collect — and
//! every stage after the drain runs exactly as live.
//!
//! # The staged schedule, precisely
//!
//! With `n` slots and a fresh driver, slot `t` performs, in order:
//!
//! 1. *(drain stage, owns the crowd)* prologue(`t`) → execute the orders
//!    issued for `t` → mobility sub-steps → fault deltas → drain
//!    responses.
//! 2. *(ingest stage, owns the planner half and the hook)* fold the
//!    executed `sent` into the dispatch stats → apply the hook's actions
//!    from epoch `t-1` (the report's `stale_actions`) → retry shortfall
//!    feedback from `t`'s responses → **issue** the orders for `t+1` ‖
//!    snapshot the raw responses → error injection/mitigation/ingestion/
//!    merge → budget tuning → assemble the epoch report → snapshot the
//!    hook's [`EpochObservation`] → the hook observes epoch `t` and emits
//!    actions. (‖ is where the orders leave for the drain stage.)
//! 3. *(render stage, owns the tap)* the tap records epoch `t` (report +
//!    raw responses + the actions the hook just emitted).
//!
//! Orders for slot 0 are issued once before the loop. The actions the
//! hook emits for the final slot are applied when that slot completes (so
//! a resumed run and its uninterrupted twin leave the server in the same
//! final state); their stale-action count lands in no horizon report,
//! because no later epoch exists to carry it.
//!
//! This pins the control lag deterministically: a `SetBudget` emitted for
//! epoch `t` is applied during slot `t+1` — after slot `t+2`'s orders
//! were already issued — so it first affects the dispatch of epoch `t+2`,
//! "the first epoch not yet ingested". A `RebuildChain` emitted for epoch
//! `t` takes effect before epoch `t+1`'s ingestion. The lag is part of
//! the blessed byte contract on every executor.
//!
//! A `step` is the `n = 1` case: its only slot is also the final one, so
//! the epoch's orders are issued and executed inside the call and the
//! hook's actions are applied before it returns — a caller looping over
//! `step` sees each epoch's actions govern the next epoch's dispatch.
//!
//! # Crash semantics
//!
//! [`EpochDriver::crash_at`] arms a [`CrashPoint`] at one slot of a
//! horizon run, reproducing a process kill: the three in-loop points
//! abandon the run at their boundary (everything already recorded stays
//! recorded, the crashed epoch's tap never fires, its actions are never
//! applied), while [`CrashPoint::MidLogAppend`] completes the slot
//! normally — that tear lives in the log writer, not the loop. Because
//! every record of epoch `e` depends only on work performed through slot
//! `e`, a crashed run's durable prefix is byte-identical to the same
//! prefix of the uninterrupted run — the property salvage + resume is
//! built on.

use crate::exec::IngestReport;
use crate::handler::{execute_orders, DispatchStats, RequestResponseHandler, SendOrder};
use crate::phase::{EpochPhase, PhaseTimer, PipelineStage};
use crate::pipeline::StageClock;
use crate::plan::Fabricator;
use crate::query::QueryId;
use crate::server::{
    ControlAction, ControlHook, CraqrServer, CrashPoint, EpochInputsRecord, EpochObservation,
    EpochReport, EpochTap, FaultDeltas, ReplayInputs, ReplaySource, ServerConfig,
};
use crate::tenant::{TenantId, TenantRegistry};
use crate::tuple::TupleIdGen;
use craqr_sensing::{Crowd, SensorResponse};
use rand::rngs::StdRng;

/// The planner-side half of a borrow-split server: every field the
/// ingest stage owns while the drain stage owns the [`Crowd`].
struct EpochCore<'s> {
    fabricator: &'s mut Fabricator,
    handler: &'s mut RequestResponseHandler,
    idgen: &'s mut TupleIdGen,
    error_rng: &'s mut StdRng,
    tenants: &'s mut Option<TenantRegistry>,
    config: ServerConfig,
}

/// The report fields a slot knows before its ingestion: the dispatch as
/// issued (`dispatch.sent` folded in once the orders executed), the
/// per-epoch tenant charges, and the stale count of the actions applied
/// at the slot's top.
pub(crate) struct SlotHead {
    dispatch: DispatchStats,
    charges: Vec<(TenantId, f64)>,
    stale_actions: u64,
}

/// The merge of one epoch's ingestion, pre-report.
struct Ingested {
    delivered: Vec<(QueryId, usize)>,
    exec: IngestReport,
    ingested: usize,
    rejected: usize,
    /// Thread-CPU nanoseconds the fan-outs' workers spent on this epoch
    /// (timing tier only): every shard past the first, merge runs
    /// included, which the calling thread's own clock does not see.
    workers_ns: u64,
}

impl EpochCore<'_> {
    /// The issuing half of a dispatch (see
    /// [`RequestResponseHandler::issue_epoch_orders`]): demands, tenant
    /// share refresh, epoch meters, budget draws, clamping/charging, and
    /// the per-epoch tenant charges — everything but the crowd sends.
    /// `detached` skips order collection: a replay has no crowd to send to.
    fn issue(&mut self, detached: bool) -> (Vec<SendOrder>, SlotHead) {
        let demands = self.fabricator.demands();
        let shares = if self.tenants.is_some() {
            self.fabricator.refresh_tenant_shares();
            Some(self.fabricator.tenant_shares())
        } else {
            None
        };
        if let Some(registry) = self.tenants.as_mut() {
            registry.begin_epoch();
        }
        let tenancy = match (self.tenants.as_mut(), shares) {
            (Some(registry), Some(shares)) => Some((registry, shares)),
            _ => None,
        };
        let grid = if detached { None } else { Some(self.fabricator.grid()) };
        let (orders, dispatch) = self.handler.issue_epoch_orders(grid, &demands, tenancy);
        let charges = self.tenants.as_ref().map_or_else(Vec::new, |t| t.epoch_charges());
        (orders, SlotHead { dispatch, charges, stale_actions: 0 })
    }

    /// Shortfall feedback for bounded retry (when configured): counts the
    /// drained responses per chain *before* error injection mutates them.
    fn observe_drained(&mut self, responses: &[SensorResponse]) {
        if self.handler.retry_enabled() {
            self.handler.observe_responses(self.fabricator.responses_per_chain(responses));
        }
    }

    /// Applies a hook's actions, returning how many were stale (targeted
    /// a chain retired since the observation).
    fn apply_actions(&mut self, actions: &[ControlAction]) -> u64 {
        let mut stale = 0u64;
        for action in actions {
            match *action {
                ControlAction::SetBudget { cell, attr, requests_per_epoch } => {
                    if !self.handler.set_budget(cell, attr, requests_per_epoch) {
                        stale += 1;
                    }
                }
                ControlAction::RebuildChain { cell, attr } => {
                    if !self.fabricator.rebuild_chain(cell, attr) {
                        stale += 1;
                    }
                }
            }
        }
        stale
    }

    /// Error injection → mitigation → id assignment → map/process →
    /// per-query merge into the output banks, consuming one epoch's
    /// drained responses. Returns the merge outcome and the spent response
    /// buffer (retained in place through mitigation) for recycling. The
    /// mitigation region comes from the grid, which stores the crowd's
    /// region verbatim — the ingest stage never needs the crowd.
    fn absorb(&mut self, mut responses: Vec<SensorResponse>) -> (Ingested, Vec<SensorResponse>) {
        self.config.error_model.corrupt_batch(&mut responses, self.error_rng);
        let region = self.fabricator.grid().region();
        let (responses, rejected) = self.config.mitigation.apply(responses, &region);
        let tuples = self.idgen.ingest(&responses);
        let ingested = tuples.len();
        let exec = self.fabricator.ingest_batch_mode(&tuples, self.config.exec);
        let delivered = self.fabricator.last_delivery().map(|(q, out)| (q, out.len())).collect();
        let workers_ns = exec.shards.iter().skip(1).map(|s| s.busy_ns).sum();
        (Ingested { delivered, exec, ingested, rejected, workers_ns }, responses)
    }
}

/// A free list of response buffers that counts what it hands out.
/// Pooling only reuses capacity — contents are cleared on every cycle — so
/// it is byte-inert; the counts are the observable half of it
/// ([`PoolStats`]).
#[derive(Default)]
pub(crate) struct CountedPool {
    free: Vec<Vec<SensorResponse>>,
    fresh_allocations: u64,
    recycled: u64,
}

impl CountedPool {
    /// Free buffers held at most; a buffer returned past this is dropped.
    const MAX_RETAINED: usize = 16;
    /// Capacity, in responses, above which a returned buffer is dropped, so
    /// one burst does not pin its memory for the rest of the run.
    const MAX_CAPACITY: usize = 1 << 16;

    fn take(&mut self) -> Vec<SensorResponse> {
        match self.free.pop() {
            Some(buf) => {
                self.recycled += 1;
                buf
            }
            None => {
                self.fresh_allocations += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer, clearing it but keeping its capacity.
    pub(crate) fn put(&mut self, mut spent: Vec<SensorResponse>) {
        spent.clear();
        if self.free.len() < Self::MAX_RETAINED && spent.capacity() <= Self::MAX_CAPACITY {
            self.free.push(spent);
        }
    }
}

/// Buffer-recycling counters for a horizon run — the observable half of
/// the driver's pooled response/raw buffer recycling. Timing- and
/// allocation-free runs are not part of the byte contract; these counters
/// exist so tests can pin the *steady state*: after warm-up, every epoch
/// reuses pooled buffers and `fresh_allocations` stops growing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers newly allocated because the pool was empty.
    pub fresh_allocations: u64,
    /// Buffers served from the pool (allocation-free epochs).
    pub recycled: u64,
    /// Buffers parked in the pools when the run ended.
    pub pooled: usize,
}

impl PoolStats {
    /// A finished run's two pools — the drain stage's response buffers
    /// and the ingest stage's raw snapshots — counted at rest.
    pub(crate) fn at_rest(pools: [&CountedPool; 2]) -> Self {
        pools.iter().fold(Self::default(), |sum, p| Self {
            fresh_allocations: sum.fresh_allocations + p.fresh_allocations,
            recycled: sum.recycled + p.recycled,
            pooled: sum.pooled + p.free.len(),
        })
    }
}

/// What a horizon run ([`EpochDriver::run`] and friends) produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutcome {
    /// One report per completed epoch, in epoch order. A crashed run
    /// holds exactly the epochs whose render stage fired — the same set a
    /// salvaged run log records as durable.
    pub reports: Vec<EpochReport>,
    /// `false` when an armed in-loop [`CrashPoint`] abandoned the run.
    pub completed: bool,
    /// Buffer-recycling counters (see [`PoolStats`]).
    pub pool: PoolStats,
}

/// One slot's crowd-side outcome: what the drain stage hands the ingest
/// stage.
pub(crate) struct DrainedBatch {
    pub(crate) slot: u64,
    sent: u64,
    faults: FaultDeltas,
    responses: Vec<SensorResponse>,
    epoch_start: f64,
    epoch_end: f64,
}

/// One finished epoch: what the ingest stage hands the render stage.
pub(crate) struct SlotRecord {
    slot: u64,
    report: EpochReport,
    /// Raw (pre-corruption) responses for the tap; `None` when no tap
    /// listens.
    raw: Option<Vec<SensorResponse>>,
    actions: Vec<ControlAction>,
}

/// The drain stage: the crowd, the replay source, and everything a slot
/// does to them.
pub(crate) struct DrainStage<'d> {
    crowd: &'d mut Crowd,
    prologue: Option<&'d mut PrologueFn<'d>>,
    source: Option<&'d mut (dyn ReplaySource + 'd)>,
    crash: Option<(u64, CrashPoint)>,
    substeps: u32,
    dt: f64,
    /// Response buffers; the ingest stage's spent ones come back here.
    pub(crate) pool: CountedPool,
}

impl DrainStage<'_> {
    /// Slot `t`: prologue → execute `orders` → sub-steps → fault deltas →
    /// drain. The sub-steps are one [`Crowd::advance`], which may move the
    /// crowd on several threads and is bit-identical at every width. Under
    /// replay there are no orders and the crowd is only advanced; the
    /// source's next epoch stands in for its outcome. `None` when the
    /// armed crash point fired here.
    pub(crate) fn slot(
        &mut self,
        t: u64,
        orders: &[SendOrder],
        clock: &mut StageClock,
    ) -> Option<DrainedBatch> {
        let (crowd, dt) = (&mut *self.crowd, self.dt);
        if let Some(p) = &mut self.prologue {
            p(t, crowd);
        }
        let epoch_start = crowd.now();
        let sent = execute_orders(crowd, orders);
        clock.lap(PipelineStage::Drain, t, EpochPhase::Dispatch);
        if self.crash == Some((t, CrashPoint::PostDispatch)) {
            return None;
        }
        let counters = |c: &Crowd| FaultDeltas {
            dropped: c.responses_dropped(),
            delayed: c.responses_delayed(),
            duplicated: c.responses_duplicated(),
        };
        let before = counters(crowd);
        crowd.advance(dt, self.substeps);
        let mut buf = self.pool.take();
        let (sent, faults, responses) = match self.source.as_deref_mut() {
            None => {
                let after = counters(crowd);
                let faults = FaultDeltas {
                    dropped: after.dropped - before.dropped,
                    delayed: after.delayed - before.delayed,
                    duplicated: after.duplicated - before.duplicated,
                };
                (sent, faults, crowd.drain_responses_reusing(buf))
            }
            Some(source) => {
                let (sent, faults) = source.next_epoch(&mut buf);
                (sent, faults, buf)
            }
        };
        let epoch_end = crowd.now();
        clock.lap(PipelineStage::Drain, t, EpochPhase::Drain);
        if self.crash == Some((t, CrashPoint::PostDrain)) {
            return None;
        }
        Some(DrainedBatch { slot: t, sent, faults, responses, epoch_start, epoch_end })
    }
}

/// The ingest stage: the planner half, the hook, and what they carry from
/// one slot into the next.
pub(crate) struct IngestStage<'d> {
    core: EpochCore<'d>,
    hook: Option<&'d mut (dyn ControlHook + 'd)>,
    /// The server's epoch counter when the run began: slot `t` is epoch
    /// `base + t`.
    base: u64,
    slots: u64,
    /// No orders to collect: the drain stage replays a source.
    detached: bool,
    snapshot_raw: bool,
    crash: Option<(u64, CrashPoint)>,
    /// The head of the slot whose orders are out with the drain stage.
    pending: Option<SlotHead>,
    /// The hook's actions from the previous slot, applied at this one's
    /// top — after this slot's orders already executed, before the next
    /// slot's are issued.
    pending_actions: Vec<ControlAction>,
    /// Raw-snapshot buffers; the render stage's come back here.
    pub(crate) raw_pool: CountedPool,
    /// Stale count of the final slot's actions (see [`IngestStage::finish`]).
    pub(crate) trailing_stale: u64,
}

impl IngestStage<'_> {
    /// Issues slot 0's orders, once, before the first slot.
    pub(crate) fn open(&mut self, clock: &mut StageClock) -> Vec<SendOrder> {
        self.issue(0, clock)
    }

    fn issue(&mut self, during: u64, clock: &mut StageClock) -> Vec<SendOrder> {
        let (orders, head) = self.core.issue(self.detached);
        clock.lap(PipelineStage::Ingest, during, EpochPhase::Dispatch);
        self.pending = Some(head);
        orders
    }

    /// First half of a slot, up to where the next slot's orders leave:
    /// fold `sent` → apply the previous slot's actions → retry feedback →
    /// issue. Returns the orders for slot `t+1` (`None` on the final slot)
    /// and the head [`IngestStage::finish`] completes.
    pub(crate) fn begin(
        &mut self,
        batch: &DrainedBatch,
        clock: &mut StageClock,
    ) -> (SlotHead, Option<Vec<SendOrder>>) {
        let t = batch.slot;
        let mut head = self.pending.take().expect("orders issued by the previous slot");
        head.dispatch.sent = batch.sent;
        self.core.handler.record_sent(batch.sent);
        head.stale_actions = self.core.apply_actions(&self.pending_actions);
        self.core.observe_drained(&batch.responses);
        clock.lap(PipelineStage::Ingest, t, EpochPhase::Ingest);
        (head, (t + 1 < self.slots).then(|| self.issue(t, clock)))
    }

    /// Second half: snapshot raw → absorb → tune → report → observe →
    /// hook. Returns the spent response buffer and the epoch's record —
    /// `None` when [`CrashPoint::PostControl`] fired: the hook ran, its
    /// actions are abandoned, nothing downstream sees the epoch. On the
    /// final slot the actions are applied here, there being no later slot
    /// to do it; their stale count is kept in `trailing_stale`.
    pub(crate) fn finish(
        &mut self,
        head: SlotHead,
        batch: DrainedBatch,
        clock: &mut StageClock,
    ) -> (Vec<SensorResponse>, Option<SlotRecord>) {
        let DrainedBatch { slot: t, faults, responses, epoch_start, epoch_end, .. } = batch;
        let core = &mut self.core;
        // The tap sees responses exactly as drained, before error
        // injection mutates the buffer in place.
        let raw = self.snapshot_raw.then(|| {
            let mut buf = self.raw_pool.take();
            buf.extend_from_slice(&responses);
            buf
        });
        let n_responses = responses.len();
        let (ing, spent) = core.absorb(responses);
        let tuning = core.handler.tune(core.fabricator.flatten_telemetry());
        let report = EpochReport {
            epoch: self.base + t,
            now: epoch_end,
            dispatch: head.dispatch,
            responses: n_responses,
            mitigation_rejected: ing.rejected,
            ingested: ing.ingested,
            exec: ing.exec,
            delivered: ing.delivered,
            tuning,
            tenant_charges: head.charges,
            stale_actions: head.stale_actions,
            faults,
        };
        // The hook sees the tuples this epoch delivered: each query's last
        // delivery, already in its output bank.
        let obs = self.hook.is_some().then(|| {
            EpochObservation::capture(
                &report,
                core.fabricator,
                core.handler,
                core.tenants.as_ref(),
                epoch_start,
                epoch_end,
            )
        });
        clock.credit(ing.workers_ns);
        clock.lap(PipelineStage::Ingest, t, EpochPhase::Ingest);
        let actions = match (&mut self.hook, &obs) {
            (Some(hook), Some(obs)) => hook.on_epoch(obs),
            _ => Vec::new(),
        };
        clock.lap(PipelineStage::Ingest, t, EpochPhase::Control);
        if self.crash == Some((t, CrashPoint::PostControl)) {
            return (spent, None);
        }
        if t + 1 < self.slots {
            self.pending_actions.clone_from(&actions);
        } else {
            self.trailing_stale = core.apply_actions(&actions);
        }
        (spent, Some(SlotRecord { slot: t, report, raw, actions }))
    }
}

/// The render stage: the tap, and the reports of the epochs it saw.
pub(crate) struct RenderStage<'d> {
    tap: Option<&'d mut (dyn EpochTap + 'd)>,
    pub(crate) reports: Vec<EpochReport>,
}

impl RenderStage<'_> {
    /// The tap records the epoch; hands back the raw buffer, if one
    /// travelled with the record, for recycling.
    pub(crate) fn slot(
        &mut self,
        record: SlotRecord,
        clock: &mut StageClock,
    ) -> Option<Vec<SensorResponse>> {
        if let Some(tap) = self.tap.as_deref_mut() {
            tap.on_epoch(&EpochInputsRecord {
                report: &record.report,
                responses: record.raw.as_deref().unwrap_or_default(),
                actions: &record.actions,
            });
        }
        clock.lap(PipelineStage::Render, record.slot, EpochPhase::LogAppend);
        self.reports.push(record.report);
        record.raw
    }
}

/// A per-epoch crowd mutation applied before dispatch (regime shifts,
/// churn, fault-window updates) — see [`EpochDriver::prologue`].
type PrologueFn<'a> = dyn FnMut(u64, &mut Crowd) + Send + 'a;

/// The builder-style epoch executor over one [`CraqrServer`] — see the
/// [module docs](crate::driver) for the schedule and its semantics. Build
/// one with [`CraqrServer::driver`], chain the optional seams, then call
/// one of the three execution shapes:
///
/// ```text
/// server.driver().step();                        // one epoch
/// server.driver().hook(&mut h).run(16);          // a 16-epoch horizon
/// server.driver().tap(&mut t).run_pipelined(16); // same bytes, 3 threads
/// detached.driver().replay(log.source()).run(n); // a recording's n epochs
/// ```
pub struct EpochDriver<'a> {
    server: &'a mut CraqrServer,
    hook: Option<&'a mut dyn ControlHook>,
    tap: Option<&'a mut dyn EpochTap>,
    timer: Option<&'a mut dyn PhaseTimer>,
    prologue: Option<Box<PrologueFn<'a>>>,
    source: Option<Box<dyn ReplaySource + 'a>>,
    crash: Option<(u64, CrashPoint)>,
}

impl<'a> EpochDriver<'a> {
    /// A bare driver: no seams, no crash.
    pub fn new(server: &'a mut CraqrServer) -> Self {
        Self {
            server,
            hook: None,
            tap: None,
            timer: None,
            prologue: None,
            source: None,
            crash: None,
        }
    }

    /// Installs the control seam: the hook observes every epoch and its
    /// actions are applied per the schedule.
    pub fn hook(mut self, hook: &'a mut dyn ControlHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Installs the recording seam: the tap observes every completed
    /// epoch's inputs, in strict epoch order.
    pub fn tap(mut self, tap: &'a mut dyn EpochTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Installs the timing seam. Without one, the loop reads no clock at
    /// all; with one, only the timer sees the readings — every
    /// checksummed artifact is bit-identical either way.
    pub fn timer(mut self, timer: &'a mut dyn PhaseTimer) -> Self {
        self.timer = Some(timer);
        self
    }

    /// Installs a pre-epoch prologue: called with the slot index (always
    /// 0 on a `step`) and the crowd at the top of each slot's drain stage
    /// (scripted world shifts, churn, fault windows). Crowd-only by
    /// construction — the planner half is mid-flight on another epoch
    /// when the pipelined executor runs this.
    pub fn prologue(mut self, f: impl FnMut(u64, &mut Crowd) + Send + 'a) -> Self {
        self.prologue = Some(Box::new(f));
        self
    }

    /// Installs the input seam: each slot takes its responses from the
    /// next epoch of `source`, not from the crowd. Dispatch draws the
    /// budgets but sends nothing; the prologue still runs and the crowd
    /// (detached: zero sensors) still advances the simulation clock.
    pub fn replay(mut self, source: impl ReplaySource + 'a) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// Arms a crash: the horizon run dies at `point` of slot `slot`,
    /// exactly as a process kill there would (see the module docs).
    pub fn crash_at(mut self, slot: u64, point: CrashPoint) -> Self {
        self.crash = Some((slot, point));
        self
    }

    /// Runs one epoch: a one-slot horizon of the staged schedule, with
    /// the stale count of the hook's actions — applied before this
    /// returns — added to the report's `stale_actions`. A tap installed
    /// *together with* a hook sees the report before that addition; no
    /// caller combines the two on a `step`.
    pub fn step(&mut self) -> EpochReport {
        let (outcome, trailing_stale) = self.run_horizon(1);
        let mut report = outcome.reports.into_iter().next().expect("no crash point armed");
        report.stale_actions += trailing_stale;
        report
    }

    /// Runs `epochs` slots of the staged schedule on the calling thread.
    pub fn run(mut self, epochs: u64) -> RunOutcome {
        self.run_horizon(epochs).0
    }

    /// Runs the staged schedule across three worker threads (drain,
    /// ingest, render) connected by bounded channels — see
    /// [`crate::pipeline`]. Byte-identical to [`EpochDriver::run`].
    pub fn run_pipelined(self, epochs: u64) -> RunOutcome {
        crate::pipeline::run(self, epochs)
    }

    /// [`EpochDriver::run`] over one [`ReplayInputs`] per slot, kept for the
    /// benchmark's adapter until ROADMAP item 4(h) deletes it.
    pub fn run_replayed(self, inputs: &'a [ReplayInputs<'_>]) -> RunOutcome {
        self.replay(inputs).run(inputs.len() as u64)
    }

    /// [`EpochDriver::run_pipelined`] over one [`ReplayInputs`] per slot,
    /// kept for the benchmark's adapter until ROADMAP item 4(h) deletes it.
    pub fn run_replayed_pipelined(self, inputs: &'a [ReplayInputs<'_>]) -> RunOutcome {
        self.replay(inputs).run_pipelined(inputs.len() as u64)
    }

    /// Borrow-splits the driver into the three stages of an `n`-slot run
    /// and the timer. No state is shared between the stages, so calling
    /// them from one thread or from three computes the same bytes.
    pub(crate) fn stages(
        &mut self,
        n: u64,
    ) -> (DrainStage<'_>, IngestStage<'_>, RenderStage<'_>, Option<&mut (dyn PhaseTimer + '_)>)
    {
        let server = &mut *self.server;
        let config = server.config;
        let detached = self.source.is_some();
        let drain = DrainStage {
            crowd: &mut server.crowd,
            prologue: self.prologue.as_deref_mut().map(|p| p as _),
            source: self.source.as_deref_mut().map(|s| s as _),
            crash: self.crash,
            substeps: config.mobility_substeps,
            dt: config.planner.batch_duration / config.mobility_substeps as f64,
            pool: CountedPool::default(),
        };
        let ingest = IngestStage {
            core: EpochCore {
                fabricator: &mut server.fabricator,
                handler: &mut server.handler,
                idgen: &mut server.idgen,
                error_rng: &mut server.error_rng,
                tenants: &mut server.tenants,
                config,
            },
            hook: self.hook.as_deref_mut().map(|h| h as _),
            base: server.epoch,
            slots: n,
            detached,
            snapshot_raw: self.tap.is_some(),
            crash: self.crash,
            pending: None,
            pending_actions: Vec::new(),
            raw_pool: CountedPool::default(),
            trailing_stale: 0,
        };
        let render = RenderStage {
            tap: self.tap.as_deref_mut().map(|t| t as _),
            reports: Vec::with_capacity(n as usize),
        };
        (drain, ingest, render, self.timer.as_deref_mut().map(|t| t as _))
    }

    /// Ends an `n`-slot run: advances the epoch counter — a restarted
    /// process observes it advanced as soon as a slot began, crashed or
    /// not — and says whether the run completed.
    pub(crate) fn close(&mut self, n: u64) -> bool {
        let abandoned =
            self.crash.filter(|(slot, point)| *slot < n && *point != CrashPoint::MidLogAppend);
        self.server.epoch += abandoned.map_or(n, |(slot, _)| slot + 1);
        abandoned.is_none()
    }

    /// The staged schedule on the calling thread. Also returns the stale
    /// count of the final slot's actions, which no horizon report carries.
    fn run_horizon(&mut self, n: u64) -> (RunOutcome, u64) {
        if n == 0 {
            return (RunOutcome { completed: true, ..Default::default() }, 0);
        }
        let (mut drain, mut ingest, mut render, mut timer) = self.stages(n);
        let mut clock = StageClock::new(timer.is_some());
        let mut orders = ingest.open(&mut clock);
        for t in 0..n {
            let Some(batch) = drain.slot(t, &orders, &mut clock) else { break };
            let (head, next) = ingest.begin(&batch, &mut clock);
            orders = next.unwrap_or_default();
            let (spent, record) = ingest.finish(head, batch, &mut clock);
            drain.pool.put(spent);
            let Some(record) = record else { break };
            if let Some(raw) = render.slot(record, &mut clock) {
                ingest.raw_pool.put(raw);
            }
            // Once per slot, so the span list never grows with the horizon.
            clock.flush(&mut timer);
        }
        clock.flush(&mut timer); // an abandoned slot's spans
        let pool = PoolStats::at_rest([&drain.pool, &ingest.raw_pool]);
        let (reports, trailing_stale) = (render.reports, ingest.trailing_stale);
        (RunOutcome { reports, completed: self.close(n), pool }, trailing_stale)
    }
}

#[cfg(test)]
mod tests {
    use crate::error_model::Mitigation;
    use crate::exec::ExecMode;
    use crate::phase::{EpochPhase, PhaseTimer, PipelineStage};
    use crate::pipeline::tests::{server_with, untimed};
    use crate::plan::PlannerConfig;
    use crate::server::{
        CraqrServer, EpochInputsRecord, EpochTap, FaultDeltas, ReplayInputs, ServerConfig,
    };
    use craqr_geom::{Rect, SpaceTimePoint};
    use craqr_sensing::fields::ConstantField;
    use craqr_sensing::{
        AttrValue, Crowd, CrowdConfig, Measurement, Mobility, Placement, PopulationConfig,
        SensorId, SensorResponse,
    };
    use craqr_stats::fnv1a64;
    use std::fmt::Write;

    #[derive(Default)]
    struct ResponseTap(String);

    impl EpochTap for ResponseTap {
        fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
            let _ = write!(self.0, "{:?}", record.responses);
        }
    }

    /// The fingerprints were taken on the last commit whose `step` ran a
    /// single-epoch loop of its own (issue and execute at the top of the
    /// epoch, actions applied in-epoch), before `step` became a one-slot
    /// horizon of the staged schedule. They were re-taken, with `step`
    /// unchanged, when `F` began estimating batches below
    /// `FlattenOp::MIN_FIT_POINTS` as `n / V`, which moves every epoch's
    /// retained tuples and so the dispatch that tuning feeds, and again
    /// when the batch MLE became an exact active-set Newton solve, which
    /// moves the fitted batches' retained tuples the same way. The
    /// responses the tap sees did not move then. All three moved once, with
    /// `step` unchanged, when a walk step began drawing both axes from one
    /// Box–Muller pair: the crowd's 400 walkers stand elsewhere, so the
    /// responses carry other places and the cells' delivered counts differ.
    #[test]
    fn step_is_byte_identical_to_the_single_epoch_loop_it_replaced() {
        let pinned = [
            (ExecMode::Serial, 0xb799_82da_488c_8d1b),
            (ExecMode::Sharded(3), 0xd94f_be54_f199_6031),
        ];
        for (exec, want) in pinned {
            let mut s = server_with(400, exec);
            let reports = untimed((0..8).map(|_| s.run_epoch()).collect());
            assert_eq!(fnv1a64(format!("{reports:?}").as_bytes()), want, "{exec:?}");
        }
        let mut s = server_with(400, ExecMode::Serial);
        let mut tap = ResponseTap::default();
        for _ in 0..8 {
            s.driver().tap(&mut tap).step();
        }
        assert_eq!(fnv1a64(tap.0.as_bytes()), 0x3f3c_8be1_f231_6f5d, "the responses a tap saw");
    }

    /// Sums the `Ingest` spans of each slot.
    #[derive(Default)]
    struct IngestSpans(Vec<u64>);

    impl PhaseTimer for IngestSpans {
        fn observe(&mut self, _: EpochPhase, _: u64) {}

        fn observe_stage(&mut self, _: PipelineStage, slot: u64, phase: EpochPhase, ns: u64) {
            let slot = slot as usize;
            if self.0.len() <= slot {
                self.0.resize(slot + 1, 0);
            }
            if phase == EpochPhase::Ingest {
                self.0[slot] += ns;
            }
        }
    }

    #[test]
    fn the_ingest_span_counts_the_fan_out_workers() {
        // A 16 × 16 grid whose chains split round-robin over two shards by
        // ordinal, q · 16 + r: every response lands in an odd row, whose
        // chains all run on the worker, so nearly all of an epoch's chain
        // work is CPU the calling thread's clock never sees.
        let epochs: Vec<Vec<SensorResponse>> = (0..4)
            .map(|e| {
                (0..8_192)
                    .map(|i| {
                        let (q, r, f) = (i % 16, 2 * (i / 16 % 8) + 1, i as f64 / 8_192.0);
                        SensorResponse {
                            sensor: SensorId(i),
                            measurement: Measurement {
                                attr: craqr_sensing::AttributeId(0),
                                point: SpaceTimePoint::new(
                                    5.0 * (e as f64 + f),
                                    0.25 * (q as f64 + f),
                                    0.25 * (r as f64 + f),
                                ),
                                value: AttrValue::Float(21.0),
                            },
                            issued_at: 5.0 * e as f64,
                        }
                    })
                    .collect()
            })
            .collect();
        let inputs: Vec<ReplayInputs<'_>> = epochs
            .iter()
            .map(|responses| ReplayInputs { sent: 0, responses, faults: FaultDeltas::default() })
            .collect();
        for pipelined in [false, true] {
            let crowd = Crowd::new(CrowdConfig {
                region: Rect::with_size(4.0, 4.0),
                population: PopulationConfig {
                    size: 0,
                    placement: Placement::Uniform,
                    mobility: Mobility::Stationary,
                    human_fraction: 0.0,
                },
                seed: 1,
            });
            let config = ServerConfig {
                exec: ExecMode::Sharded(2),
                mitigation: Mitigation::off(),
                planner: PlannerConfig { grid_side: 16, ..PlannerConfig::default() },
                ..ServerConfig::default()
            };
            let mut s = CraqrServer::new(crowd, config);
            s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(21.0))));
            // Two queries, so the merges split too.
            s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 40").unwrap();
            s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 20").unwrap();
            let mut timer = IngestSpans::default();
            let driver = s.driver().timer(&mut timer).replay(&inputs[..]);
            let outcome = if pipelined { driver.run_pipelined(4) } else { driver.run(4) };
            for (slot, report) in outcome.reports.iter().enumerate() {
                let worker = report.exec.shards[1];
                assert_eq!(worker.tuples, 8_192, "every tuple ran on the worker");
                assert!(
                    timer.0[slot] >= worker.busy_ns,
                    "pipelined {pipelined}, slot {slot}: ingest span {} ns, worker {} ns",
                    timer.0[slot],
                    worker.busy_ns
                );
            }
        }
    }
}

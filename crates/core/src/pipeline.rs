//! The pipelined dataflow executor: the staged epoch schedule of
//! [`crate::driver`] spread across four long-lived worker threads
//! connected by bounded channels, so consecutive epochs overlap while
//! per-epoch ordering — and therefore every checksummed byte — is
//! preserved.
//!
//! # Stage / channel architecture
//!
//! ```text
//!             orders(t+1)                 pooled buffers
//!        ┌─────────────────── S2 ◀──────────────────────┐
//!        ▼                     ▲ │ actions(t-1)          │
//!   S1 drain ── batch(t) ──────┘ │    ▲                  │
//!   (crowd: prologue,            │    │                  │
//!    execute, steps, drain)      ▼    │                  │
//!                        S2 ingest (handler/fabricator:  │
//!                         apply, retry, issue, absorb,   │
//!                         tune, report, observation) ────┘
//!                                │
//!                          obs(t) ▼
//!                        S3 control (hook) ── actions(t) ──▶ back to S2
//!                                │
//!                          tap(t) ▼
//!                        S4 render (tap / log append) ── raw buffers ──▶ S2
//!                                └── seal credit(t) ──▶ S1 (may open t+2)
//! ```
//!
//! Every message is tagged with its epoch id, and buffer-return channels
//! flow upstream so the hot path recycles allocations
//! ([`crate::driver::PoolStats`]).
//!
//! # The open-epoch window
//!
//! An epoch is *open* from S1's `prologue(t)` call until S4's tap returns
//! for `t`. At most **two** epochs are open at once: the one being
//! produced and the one being made durable, which is the overlap this
//! executor exists for. The bound is a credit loop, not a channel depth:
//! an unbounded `()` channel S4 → S1 primed with two tokens; S1 takes one
//! immediately before `prologue(t)`, S4 returns one after each tap
//! return. A failed `recv` on it is a wind-down like on every other
//! channel. The window moves *when* S1 runs, never what it computes.
//!
//! Bounded channels alone do not bound the pipeline: three
//! `sync_channel(2)`s in series between S1 and S4, plus the message each
//! stage holds, admit six open epochs. That is invisible while S1 is the
//! slowest stage and a latency trap the moment it is not — every epoch
//! S1 finishes early only queues in front of the log append. Measured on
//! `durable_pipelined` (benchmark seed 1, 15 s runs, median of 3, 2-core
//! host, ext4; epochs/s · open-to-sealed p50; the second row adds a 1 ms
//! sleep to every append on all sides, standing in for a slower disk):
//!
//! | append | scan crowd | indexed crowd, no window | window 1 | **window 2** | window 3 |
//! |---|---|---|---|---|---|
//! | as is | 235 · 6.8 ms | 384 · 6.0 ms | 170 · 5.3 ms | **325 · 5.5 ms** | 369 · 6.1 ms |
//! | +1 ms | 200 · 11.3 ms | 333 · 16.4 ms (5.5 open) | 145 · 6.4 ms | **291 · 6.4 ms** | 317 · 8.6 ms |
//!
//! One is the serial schedule on four threads; without a window the
//! faster crowd buys throughput with latency once the append is the
//! slow stage; three pays a third more latency there for a tenth more
//! throughput. Two beats the unindexed executor on both metrics in both
//! regimes, so it is a constant (`OPEN_EPOCHS`), not an option.
//!
//! # Why the bytes cannot change
//!
//! Each stage *owns* its state: S1 the crowd, S2 the planner half
//! ([`crate::driver`]'s `EpochCore`), S3 the hook, S4 the tap. No state
//! is shared, so every mutation happens in the same order as the serial
//! staged schedule — the channels only move owned values forward. The
//! hook observes epochs in strict order on S3 (obs(t) cannot overtake
//! obs(t-1) in a FIFO channel), the tap appends in strict order on S4,
//! and the ingest stage blocks on actions(t-1) before issuing orders for
//! t+1, which pins the control lag to exactly the serial schedule's.
//! Thread scheduling can change only *when* a stage runs, never *what*
//! it computes. The golden corpus identity test and the pipelined chaos
//! matrix enforce this end to end.
//!
//! # Crash wind-down
//!
//! A crash is known when the run starts ([`crate::EpochDriver::crash_at`]),
//! so no runtime stop signal exists: the stage owning the crash point
//! simply exits after its last permitted operation, its channels
//! disconnect, and the neighbours drain in-flight earlier epochs until
//! their `recv` fails. The render stage therefore always records exactly
//! the epochs before the crash — the same durable prefix the serial
//! executor leaves.
//!
//! This module belongs to the **timing** determinism tier: stage workers
//! read the thread-CPU clock for per-stage spans when (and only when) a
//! timer is installed; nothing clock-derived reaches a checksummed
//! artifact.

use crate::driver::{EpochDriver, PoolStats, RunOutcome};
use crate::exec::thread_busy_ns;
use crate::handler::{execute_orders, SendOrder};
use crate::phase::{EpochPhase, PipelineStage};
use crate::server::{
    ControlAction, CrashPoint, EpochInputsRecord, EpochObservation, EpochReport, FaultDeltas,
    ReplayInputs,
};
use craqr_engine::BatchPool;
use craqr_sensing::SensorResponse;
use std::sync::mpsc::{channel, sync_channel};

/// Dispatch orders for one epoch, issued on S2, executed on S1.
struct OrderMsg {
    epoch: u64,
    orders: Vec<SendOrder>,
}

/// One epoch's crowd-side outcome, drained on S1, ingested on S2.
struct DrainedBatch {
    epoch: u64,
    sent: u64,
    faults: FaultDeltas,
    responses: Vec<SensorResponse>,
    epoch_start: f64,
    epoch_end: f64,
}

/// One finished epoch's report + observation, S2 → S3.
struct ObsMsg {
    epoch: u64,
    report: EpochReport,
    /// Raw (pre-corruption) responses for the tap; `None` when no tap
    /// listens or a replay borrows them from the recorded inputs.
    raw: Option<Vec<SensorResponse>>,
    /// Built only when a hook is installed.
    obs: Option<EpochObservation>,
}

/// The hook's actions for one epoch, S3 → S2 (applied next slot).
struct ActMsg {
    epoch: u64,
    actions: Vec<ControlAction>,
}

/// One epoch's record for the tap, S3 → S4.
struct TapMsg {
    epoch: u64,
    report: EpochReport,
    raw: Option<Vec<SensorResponse>>,
    actions: Vec<ControlAction>,
}

/// Per-stage span recorder: thread-CPU laps tagged with (slot, phase),
/// replayed through [`crate::PhaseTimer::observe_stage`] on the driver
/// thread after the workers join. Inert (zero clock reads) untimed.
struct StageClock {
    last: Option<u64>,
    spans: SpanList,
}

/// One stage's recorded spans: `(slot, phase, busy ns)` in lap order.
type SpanList = Vec<(u64, EpochPhase, u64)>;

impl StageClock {
    fn new(timed: bool) -> Self {
        Self { last: timed.then(thread_busy_ns), spans: Vec::new() }
    }

    /// Re-anchors after a blocking receive so queue-wait cost is not
    /// attributed to the next span.
    fn reset(&mut self) {
        if self.last.is_some() {
            self.last = Some(thread_busy_ns());
        }
    }

    fn lap(&mut self, slot: u64, phase: EpochPhase) {
        if let Some(last) = self.last {
            let now = thread_busy_ns();
            self.spans.push((slot, phase, now.saturating_sub(last)));
            self.last = Some(now);
        }
    }
}

/// Epochs that may be open — `prologue` called, tap not yet returned — at
/// once (the module docs say why two). Also the depth of every epoch-data
/// channel: with the window in force no stage can be further ahead of its
/// consumer than that anyway.
const OPEN_EPOCHS: usize = 2;

/// Runs the staged schedule across four worker threads. Byte-identical
/// to [`EpochDriver::run`] — see the module docs for the argument.
pub(crate) fn run_pipelined(driver: EpochDriver<'_>, epochs: u64) -> RunOutcome {
    run_pipelined_inner(driver, epochs, None)
}

/// The replayed sibling: recorded inputs stand in for the crowd.
pub(crate) fn run_replayed_pipelined(
    driver: EpochDriver<'_>,
    inputs: &[ReplayInputs<'_>],
) -> RunOutcome {
    run_pipelined_inner(driver, inputs.len() as u64, Some(inputs))
}

fn run_pipelined_inner(
    driver: EpochDriver<'_>,
    n: u64,
    replay: Option<&[ReplayInputs<'_>]>,
) -> RunOutcome {
    let EpochDriver { server, hook, tap, timer, prologue, crash } = driver;
    let in_loop = crash.filter(|(_, p)| *p != CrashPoint::MidLogAppend);
    let crashes = in_loop.filter(|(slot, _)| *slot < n);
    let detached = replay.is_some();
    let has_hook = hook.is_some();
    let has_tap = tap.is_some();
    let timed = timer.is_some();
    let (crowd, epoch_counter, core) = crate::driver::split(server);
    let base = *epoch_counter;
    let dt = core.config.planner.batch_duration / core.config.mobility_substeps as f64;
    let steps = core.config.mobility_substeps;
    if n == 0 {
        return RunOutcome { completed: true, ..Default::default() };
    }
    let mut prologue = prologue;

    let (order_tx, order_rx) = sync_channel::<OrderMsg>(OPEN_EPOCHS);
    let (batch_tx, batch_rx) = sync_channel::<DrainedBatch>(OPEN_EPOCHS);
    let (obs_tx, obs_rx) = sync_channel::<ObsMsg>(OPEN_EPOCHS);
    let (act_tx, act_rx) = sync_channel::<ActMsg>(OPEN_EPOCHS);
    let (tap_tx, tap_rx) = sync_channel::<TapMsg>(OPEN_EPOCHS);
    // Seal credits, S4 → S1: S1 spends one to open an epoch, S4 returns
    // it when the epoch's tap has returned. S4 holds the only sender, so
    // its exit fails S1's `recv` like any other wind-down.
    let (seal_tx, seal_rx) = channel::<()>();
    for _ in 0..OPEN_EPOCHS {
        let _ = seal_tx.send(());
    }
    // Buffer-return channels flow upstream, unbounded (returns never
    // block; depth is naturally capped by the data channels).
    let (pool_tx, pool_rx) = channel::<Vec<SensorResponse>>();
    let (raw_tx, raw_rx) = channel::<Vec<SensorResponse>>();

    let (s1, s2, s3, s4) = std::thread::scope(|s| {
        // ── S1: drain — owns the crowd ────────────────────────────────
        let drain = s.spawn(move || {
            let crowd = crowd;
            let mut pool: BatchPool<SensorResponse> = BatchPool::default();
            let mut stats = PoolStats::default();
            let mut clock = StageClock::new(timed);
            for t in 0..n {
                let Ok(order) = order_rx.recv() else { break };
                if seal_rx.recv().is_err() {
                    break;
                }
                clock.reset();
                debug_assert_eq!(order.epoch, t, "orders arrive in slot order");
                if let Some(p) = &mut prologue {
                    p(t, crowd);
                }
                let epoch_start = crowd.now();
                let sent = match replay {
                    None => execute_orders(crowd, &order.orders),
                    Some(inputs) => inputs[t as usize].sent,
                };
                clock.lap(t, EpochPhase::Dispatch);
                if in_loop == Some((t, CrashPoint::PostDispatch)) {
                    break;
                }
                let faults_before = FaultDeltas {
                    dropped: crowd.responses_dropped(),
                    delayed: crowd.responses_delayed(),
                    duplicated: crowd.responses_duplicated(),
                };
                for _ in 0..steps {
                    crowd.step(dt);
                }
                let faults = match replay {
                    None => FaultDeltas {
                        dropped: crowd.responses_dropped() - faults_before.dropped,
                        delayed: crowd.responses_delayed() - faults_before.delayed,
                        duplicated: crowd.responses_duplicated() - faults_before.duplicated,
                    },
                    Some(inputs) => inputs[t as usize].faults,
                };
                while let Ok(buf) = pool_rx.try_recv() {
                    pool.put(buf);
                }
                if pool.retained() > 0 {
                    stats.recycled += 1;
                } else {
                    stats.fresh_allocations += 1;
                }
                let mut buf = pool.take();
                let responses = match replay {
                    None => crowd.drain_responses_reusing(buf),
                    Some(inputs) => {
                        buf.clear();
                        buf.extend_from_slice(inputs[t as usize].responses);
                        buf
                    }
                };
                let epoch_end = crowd.now();
                clock.lap(t, EpochPhase::Drain);
                if in_loop == Some((t, CrashPoint::PostDrain)) {
                    break;
                }
                let msg =
                    DrainedBatch { epoch: t, sent, faults, responses, epoch_start, epoch_end };
                if batch_tx.send(msg).is_err() {
                    break;
                }
            }
            // Wind-down: S2 returns one spent buffer per absorbed batch
            // and drops its sender on exit, so a *blocking* drain parks
            // every in-flight buffer back in the pool before counting
            // what rests. Dropping our batch sender first lets S2 see
            // the disconnect and exit (no recv cycle: S2's own exit
            // never waits on this stage).
            drop(batch_tx);
            while let Ok(buf) = pool_rx.recv() {
                pool.put(buf);
            }
            (stats, pool.retained(), clock.spans)
        });

        // ── S2: ingest — owns the planner half ────────────────────────
        let ingest = s.spawn(move || {
            let mut core = core;
            let mut raw_pool: BatchPool<SensorResponse> = BatchPool::default();
            let mut stats = PoolStats::default();
            let mut clock = StageClock::new(timed);
            let mut issued0 = core.issue(detached);
            clock.lap(0, EpochPhase::Dispatch);
            let _ =
                order_tx.send(OrderMsg { epoch: 0, orders: std::mem::take(&mut issued0.orders) });
            let mut pending = Some(issued0);
            let mut clean_exit = true;
            for t in 0..n {
                let Ok(batch) = batch_rx.recv() else {
                    clean_exit = false;
                    break;
                };
                clock.reset();
                debug_assert_eq!(batch.epoch, t, "batches arrive in slot order");
                let issued = pending.take().expect("orders issued by the previous slot");
                let mut dispatch = issued.stats;
                dispatch.sent = batch.sent;
                core.handler.record_sent(batch.sent);
                // Epoch t-1's actions land here — after epoch t's orders
                // already executed, before epoch t+1's are issued.
                let stale_actions = if t >= 1 {
                    let Ok(act) = act_rx.recv() else {
                        clean_exit = false;
                        break;
                    };
                    debug_assert_eq!(act.epoch, t - 1, "actions arrive one slot behind");
                    core.apply_actions(&act.actions)
                } else {
                    0
                };
                core.observe_drained(&batch.responses);
                clock.lap(t, EpochPhase::Ingest);
                if t + 1 < n {
                    let mut next = core.issue(detached);
                    clock.lap(t, EpochPhase::Dispatch);
                    let _ = order_tx
                        .send(OrderMsg { epoch: t + 1, orders: std::mem::take(&mut next.orders) });
                    pending = Some(next);
                }
                // Snapshot raw responses for the tap before corruption;
                // replays borrow from the recorded inputs on S4 instead.
                let raw = if has_tap && replay.is_none() {
                    while let Ok(buf) = raw_rx.try_recv() {
                        raw_pool.put(buf);
                    }
                    if raw_pool.retained() > 0 {
                        stats.recycled += 1;
                    } else {
                        stats.fresh_allocations += 1;
                    }
                    let mut buf = raw_pool.take();
                    buf.extend_from_slice(&batch.responses);
                    Some(buf)
                } else {
                    None
                };
                let n_responses = batch.responses.len();
                let (ing, spent) = core.absorb(batch.responses);
                let _ = pool_tx.send(spent);
                let meta = crate::driver::SlotMeta {
                    epoch: base + t,
                    now: batch.epoch_end,
                    dispatch,
                    responses: n_responses,
                    faults: batch.faults,
                    charges: issued.charges,
                    stale_actions,
                };
                let (report, fresh) = core.finish_report(meta, ing);
                let obs = core.observe_and_bank(
                    &report,
                    fresh,
                    has_hook,
                    batch.epoch_start,
                    batch.epoch_end,
                );
                clock.lap(t, EpochPhase::Ingest);
                if obs_tx.send(ObsMsg { epoch: t, report, raw, obs }).is_err() {
                    clean_exit = false;
                    break;
                }
            }
            // The final epoch's actions apply only on normal completion —
            // a crashed run abandons them exactly like the serial
            // executor.
            if clean_exit {
                if let Ok(act) = act_rx.recv() {
                    debug_assert_eq!(act.epoch, n - 1);
                    core.apply_actions(&act.actions);
                }
            }
            // Wind-down mirror of S1: drop the observation sender so the
            // control and render stages drain out and disconnect the raw
            // return channel, then park every raw buffer still in flight.
            drop(obs_tx);
            while let Ok(buf) = raw_rx.recv() {
                raw_pool.put(buf);
            }
            (stats, raw_pool.retained(), clock.spans)
        });

        // ── S3: control — owns the hook ───────────────────────────────
        let control = s.spawn(move || {
            let mut hook = hook;
            let mut clock = StageClock::new(timed);
            while let Ok(msg) = obs_rx.recv() {
                clock.reset();
                let t = msg.epoch;
                let actions = match (&mut hook, &msg.obs) {
                    (Some(h), Some(obs)) => h.on_epoch(obs),
                    _ => Vec::new(),
                };
                clock.lap(t, EpochPhase::Control);
                if in_loop == Some((t, CrashPoint::PostControl)) {
                    // Die before anything downstream observes epoch t:
                    // no actions back, no record forward.
                    break;
                }
                let _ = act_tx.send(ActMsg { epoch: t, actions: actions.clone() });
                let msg = TapMsg { epoch: t, report: msg.report, raw: msg.raw, actions };
                if tap_tx.send(msg).is_err() {
                    break;
                }
            }
            clock.spans
        });

        // ── S4: render — owns the tap ─────────────────────────────────
        let render = s.spawn(move || {
            let mut tap = tap;
            let mut reports = Vec::with_capacity(n as usize);
            let mut clock = StageClock::new(timed);
            while let Ok(msg) = tap_rx.recv() {
                clock.reset();
                if let Some(t) = tap.as_deref_mut() {
                    let raw: &[SensorResponse] = match (replay, &msg.raw) {
                        (Some(inputs), _) => inputs[msg.epoch as usize].responses,
                        (None, Some(buf)) => buf,
                        (None, None) => &[],
                    };
                    t.on_epoch(&EpochInputsRecord {
                        report: &msg.report,
                        responses: raw,
                        actions: &msg.actions,
                    });
                }
                let _ = seal_tx.send(());
                if let Some(buf) = msg.raw {
                    let _ = raw_tx.send(buf);
                }
                clock.lap(msg.epoch, EpochPhase::LogAppend);
                reports.push(msg.report);
            }
            (reports, clock.spans)
        });

        (
            drain.join().expect("drain stage"),
            ingest.join().expect("ingest stage"),
            control.join().expect("control stage"),
            render.join().expect("render stage"),
        )
    });

    let (drain_stats, drain_pooled, drain_spans) = s1;
    let (ingest_stats, ingest_pooled, ingest_spans) = s2;
    let control_spans = s3;
    let (reports, render_spans) = s4;

    // A restarted process observes the crashed slot's counter advance,
    // exactly like the serial executor.
    *epoch_counter = base + crashes.map_or(n, |(slot, _)| slot + 1);

    if let Some(timer) = timer {
        // Replay the stage-local spans in (slot, stage) order on the
        // driver thread — stage-aware timers see the same stream the
        // serial staged run produces.
        let lists: [(PipelineStage, &SpanList); 4] = [
            (PipelineStage::Drain, &drain_spans),
            (PipelineStage::Ingest, &ingest_spans),
            (PipelineStage::Control, &control_spans),
            (PipelineStage::Render, &render_spans),
        ];
        let mut idx = [0usize; 4];
        for t in 0..n {
            for (i, (stage, spans)) in lists.iter().enumerate() {
                while idx[i] < spans.len() && spans[idx[i]].0 == t {
                    let (slot, phase, ns) = spans[idx[i]];
                    timer.observe_stage(*stage, slot, phase, ns);
                    idx[i] += 1;
                }
            }
        }
    }

    RunOutcome {
        reports,
        completed: crashes.is_none(),
        pool: PoolStats {
            fresh_allocations: drain_stats.fresh_allocations + ingest_stats.fresh_allocations,
            recycled: drain_stats.recycled + ingest_stats.recycled,
            pooled: drain_pooled + ingest_pooled,
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::server::{CraqrServer, CrashPoint, EpochInputsRecord, EpochTap, ServerConfig};
    use craqr_geom::Rect;
    use craqr_sensing::{
        fields::ConstantField, AttrValue, Crowd, CrowdConfig, Mobility, Placement,
        PopulationConfig, RainFront,
    };
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    fn server(size: usize) -> CraqrServer {
        let crowd = Crowd::new(CrowdConfig {
            region: Rect::with_size(4.0, 4.0),
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.2 },
                human_fraction: 0.0,
            },
            seed: 11,
        });
        let mut s = CraqrServer::new(crowd, ServerConfig::default());
        s.register_attribute("rain", true, Box::new(RainFront::new(2.0, 0.0, 2.0)));
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(21.0))));
        s.submit("ACQUIRE rain FROM RECT(0,0,2,2) RATE 1").unwrap();
        s.submit("ACQUIRE temp FROM RECT(1,1,3,3) RATE 0.5").unwrap();
        s
    }

    /// Zeroes the timing-tier `busy_ns` fields — they are thread-CPU
    /// measurements, excluded from every checksummed artifact, and the
    /// only report bytes allowed to differ across executors.
    fn untimed(mut reports: Vec<crate::server::EpochReport>) -> Vec<crate::server::EpochReport> {
        for r in &mut reports {
            for s in &mut r.exec.shards {
                s.busy_ns = 0;
            }
        }
        reports
    }

    #[test]
    fn pipelined_reports_equal_serial_reports() {
        let mut serial = server(400);
        let mut piped = server(400);
        let want = untimed(serial.driver().run(12).reports);
        let got = untimed(piped.driver().run_pipelined(12).reports);
        assert_eq!(want, got, "pipelined run diverged from the serial staged schedule");
        assert_eq!(serial.epochs(), piped.epochs());
        assert!((serial.now() - piped.now()).abs() < 1e-12);
    }

    #[test]
    fn pipelined_pool_reaches_allocation_steady_state() {
        // Once the bounded channels are primed, every response batch the
        // drain stage fills must come back through the return channel:
        // fresh allocations are a function of the channel depth, not of
        // the horizon.
        // A buffer not in the pool is in the batch channel (≤ depth) or
        // in the ingest stage's hands (1), so fresh allocations can never
        // exceed depth + 2 — no matter how long the horizon runs.
        let cap = super::OPEN_EPOCHS as u64 + 2;
        let long = server(400).driver().run_pipelined(48);
        assert!(long.pool.fresh_allocations > 0, "the first epochs must allocate");
        assert!(
            long.pool.fresh_allocations <= cap,
            "allocations must not scale with the horizon: {:?} (cap {cap})",
            long.pool
        );
        assert!(
            long.pool.recycled >= 48 - cap,
            "every steady-state epoch recycles: {:?}",
            long.pool
        );
        // The blocking wind-down drain parks every buffer ever allocated
        // back in a pool — none leak into the closed channels.
        assert_eq!(
            long.pooled_buffers() as u64,
            long.pool.fresh_allocations,
            "all allocated buffers come to rest: {:?}",
            long.pool
        );
    }

    /// A tap two orders of magnitude slower than this crowd's drain stage,
    /// so nothing but the window keeps S1 from running away from it.
    struct SlowTap<'a> {
        sealed: &'a AtomicU64,
        epochs: Vec<u64>,
    }

    impl EpochTap for SlowTap<'_> {
        fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.epochs.push(record.report.epoch);
            self.sealed.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn at_most_two_epochs_are_open_at_once() {
        let want = untimed(server(400).driver().run(32).reports);
        let sealed = AtomicU64::new(0);
        let mut tap = SlowTap { sealed: &sealed, epochs: Vec::new() };
        let mut piped = server(400);
        // Slot t's prologue is the (t + 1)-th epoch opened.
        let mut widest = 0;
        let got = piped
            .driver()
            .tap(&mut tap)
            .prologue(|t, _| widest = widest.max(t + 1 - sealed.load(SeqCst)))
            .run_pipelined(32);
        assert!(widest <= super::OPEN_EPOCHS as u64, "{widest} epochs open at a prologue call");
        assert_eq!(tap.epochs, (0..32).collect::<Vec<u64>>());
        assert_eq!(got.pooled_buffers() as u64, got.pool.fresh_allocations, "{:?}", got.pool);
        assert_eq!(untimed(got.reports), want, "the window moved a byte");
    }

    #[test]
    fn crashes_behind_a_slow_tap_wind_down_to_the_serial_prefix() {
        for point in [CrashPoint::PostDispatch, CrashPoint::PostDrain, CrashPoint::PostControl] {
            let want = server(400).driver().crash_at(5, point).run(12);
            let sealed = AtomicU64::new(0);
            let mut tap = SlowTap { sealed: &sealed, epochs: Vec::new() };
            let got = server(400).driver().tap(&mut tap).crash_at(5, point).run_pipelined(12);
            assert!(!got.completed && !want.completed, "{point:?}");
            assert_eq!(tap.epochs, (0..5).collect::<Vec<u64>>(), "{point:?}");
            assert_eq!(untimed(got.reports), untimed(want.reports), "{point:?}");
        }
    }
}

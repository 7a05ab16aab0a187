//! The pipelined dataflow executor: the staged epoch schedule of
//! [`crate::driver`] with each of its three stages on a long-lived worker
//! thread, connected by bounded channels, so consecutive epochs overlap
//! while per-epoch ordering — and therefore every checksummed byte — is
//! preserved.
//!
//! This module is only about threads: channels, the open-epoch credit
//! loop, buffer return, wind-down and the span clock. What a slot
//! computes is [`crate::driver`]'s stage structs; the workers below make
//! the same calls on them, in the same order, as the serial loop.
//!
//! # Stage / channel architecture
//!
//! ```text
//!             orders(t+1)                 spent buffers
//!        ┌─────────────────── S2 ───────────────────────┐
//!        ▼                                               ▼
//!   S1 drain ── batch(t) ──▶ S2 ingest ── tap(t) ──▶ S4 render
//!   (crowd: prologue,        (planner half + hook:      (tap / log append)
//!    execute, steps,          apply actions(t-1), retry,       │
//!    drain)                   issue ‖ absorb, tune, report,    │
//!        ▲                    observation, hook)               │
//!        │                        ▲                            │
//!        │                        └──────── raw buffers ───────┤
//!        └──────────── seal credit(t): S1 may open t+2 ────────┘
//! ```
//!
//! Every message is tagged with its slot, and buffer-return channels flow
//! upstream so the hot path recycles allocations
//! ([`crate::driver::PoolStats`]). The stages keep the names S1, S2 and
//! S4 of the four-stage design this grew from.
//!
//! # Three stages, not four
//!
//! Control is not a stage. The hook runs on the ingest worker, right
//! after the observation it reads is built: measured on the
//! `durable_*` benchmark workloads it is 9.7 µs p50, 0.0024 of an epoch,
//! against 0.26–0.36 for the log append — and S2 had to block on epoch
//! `t-1`'s actions before issuing `t+1`'s orders anyway, so a control
//! worker bought no overlap, only two channels and a hop. Folding it in
//! moved no end-to-end number this host resolves (README §Execution has
//! the pairs).
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
//! Bounded channels alone do not bound the pipeline that tightly: S1 can
//! be one slot ahead of S2 (it waits for S2's orders, not for S4), S2
//! holds a finished record while the `tap` channel's two slots are taken,
//! and S4 holds the one it is appending — five open epochs. That is
//! invisible while S1 is the slowest stage and a latency trap the moment
//! it is not — every epoch S1 finishes early only queues in front of the
//! log append. Measured on `durable_pipelined` at PR 17, when a control
//! worker sat between S2 and S4 and the count was six (benchmark seed 1,
//! 15 s runs, median of 3, 2-core host, ext4; epochs/s · open-to-sealed
//! p50; the second row adds a 1 ms sleep to every append on all sides,
//! standing in for a slower disk):
//!
//! | append | scan crowd | indexed crowd, no window | window 1 | **window 2** | window 3 |
//! |---|---|---|---|---|---|
//! | as is | 235 · 6.8 ms | 384 · 6.0 ms | 170 · 5.3 ms | **325 · 5.5 ms** | 369 · 6.1 ms |
//! | +1 ms | 200 · 11.3 ms | 333 · 16.4 ms (5.5 open) | 145 · 6.4 ms | **291 · 6.4 ms** | 317 · 8.6 ms |
//!
//! One is the serial schedule on several threads; without a window the
//! faster crowd buys throughput with latency once the append is the
//! slow stage; three pays a third more latency there for a tenth more
//! throughput. Two beats the unindexed executor on both metrics in both
//! regimes, so it is a constant (`OPEN_EPOCHS`), not an option.
//!
//! # Why the bytes cannot change
//!
//! Each stage *owns* its state — S1 the crowd, S2 the planner half and
//! the hook, S4 the tap — and its slot operation is the function the
//! serial loop calls. No state is shared, so every mutation happens in
//! the same order as there; the channels only move owned values forward.
//! The hook observes epochs in strict order on S2 and its actions never
//! leave that thread, the tap appends in strict order on S4 (record(t)
//! cannot overtake record(t-1) in a FIFO channel). Thread scheduling can
//! change only *when* a stage runs, never *what* it computes. The golden
//! corpus identity test and the pipelined chaos matrix enforce this end
//! to end.
//!
//! # Wind-down
//!
//! A crash is known when the run starts ([`crate::EpochDriver::crash_at`]),
//! so no runtime stop signal exists: the stage owning the crash point
//! simply exits after its last permitted operation, its channels
//! disconnect, and the neighbours drain in-flight earlier epochs until
//! their `recv` fails. The render stage therefore always records exactly
//! the epochs before the crash — the same durable prefix the serial
//! executor leaves. A worker that panics unwinds through the same
//! disconnects; the caller re-raises its payload once the scope has
//! joined the others.
//!
//! This module belongs to the **timing** determinism tier: `StageClock`
//! is where both executors read the thread-CPU clock for per-stage spans,
//! when (and only when) a timer is installed; nothing clock-derived
//! reaches a checksummed artifact.

use crate::driver::{DrainedBatch, EpochDriver, PoolStats, RunOutcome, SlotRecord};
use crate::exec::thread_busy_ns;
use crate::handler::SendOrder;
use crate::phase::{EpochPhase, PhaseTimer, PipelineStage};
use crate::server::ReplayInputs;
use craqr_sensing::SensorResponse;
use craqr_stats::join;
use std::sync::mpsc::{channel, sync_channel};
use std::thread::{Builder, Scope, ScopedJoinHandle};

/// Per-stage span recorder: thread-CPU laps tagged with (stage, slot,
/// phase), handed to [`PhaseTimer::observe_stage`] by
/// [`StageClock::flush`] — once per slot by the serial loop, after the
/// workers join by the pipelined one. Inert (zero clock reads) untimed.
pub(crate) struct StageClock {
    last: Option<u64>,
    /// Worker CPU the next span adds to its own thread's ([`StageClock::credit`]).
    credited: u64,
    spans: Vec<(PipelineStage, u64, EpochPhase, u64)>,
}

impl StageClock {
    pub(crate) fn new(timed: bool) -> Self {
        Self { last: timed.then(thread_busy_ns), credited: 0, spans: Vec::new() }
    }

    /// Adds `ns` of CPU that fan-out workers spent for this thread to the
    /// next span, which its own thread-CPU clock cannot see.
    pub(crate) fn credit(&mut self, ns: u64) {
        if self.last.is_some() {
            self.credited += ns;
        }
    }

    /// Re-anchors after a blocking receive so queue-wait cost is not
    /// attributed to the next span.
    fn reset(&mut self) {
        if self.last.is_some() {
            self.last = Some(thread_busy_ns());
        }
    }

    pub(crate) fn lap(&mut self, stage: PipelineStage, slot: u64, phase: EpochPhase) {
        if let Some(last) = self.last {
            let now = thread_busy_ns();
            let ns = now.saturating_sub(last) + std::mem::take(&mut self.credited);
            self.spans.push((stage, slot, phase, ns));
            self.last = Some(now);
        }
    }

    /// Hands the recorded spans to the timer, oldest first, and forgets
    /// them.
    pub(crate) fn flush(&mut self, timer: &mut Option<&mut dyn PhaseTimer>) {
        if let Some(timer) = timer {
            for (stage, slot, phase, ns) in self.spans.drain(..) {
                timer.observe_stage(stage, slot, phase, ns);
            }
        }
    }
}

/// Epochs that may be open — `prologue` called, tap not yet returned — at
/// once (the module docs say why two). Also the depth of every epoch-data
/// channel: with the window in force no stage can be further ahead of its
/// consumer than that anyway.
const OPEN_EPOCHS: usize = 2;

/// Spawns a stage worker under its own name, so the panic hook's line,
/// `top -H` and `perf` say which stage they are looking at.
fn spawn<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    name: &str,
    work: impl FnOnce() -> T + Send + 'scope,
) -> ScopedJoinHandle<'scope, T> {
    Builder::new().name(name.into()).spawn_scoped(scope, work).expect("spawn a stage worker")
}

/// Runs the staged schedule with each stage on its own worker thread.
/// Byte-identical to [`EpochDriver::run`]: the workers call the stage
/// operations the serial loop calls.
pub(crate) fn run(
    mut driver: EpochDriver<'_>,
    n: u64,
    replay: Option<&[ReplayInputs<'_>]>,
) -> RunOutcome {
    if n == 0 {
        return RunOutcome { completed: true, ..Default::default() };
    }
    let (mut drain, mut ingest, mut render, mut timer) = driver.stages(n, replay);
    let timed = timer.is_some();

    let (order_tx, order_rx) = sync_channel::<(u64, Vec<SendOrder>)>(OPEN_EPOCHS);
    let (batch_tx, batch_rx) = sync_channel::<DrainedBatch>(OPEN_EPOCHS);
    let (tap_tx, tap_rx) = sync_channel::<SlotRecord>(OPEN_EPOCHS);
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

    let (s1, s2, s4) = std::thread::scope(|s| {
        // ── S1: drain — owns the crowd ────────────────────────────────
        let s1 = spawn(s, "craqr-drain", move || {
            let mut clock = StageClock::new(timed);
            for t in 0..n {
                let Ok((slot, orders)) = order_rx.recv() else { break };
                if seal_rx.recv().is_err() {
                    break;
                }
                debug_assert_eq!(slot, t, "orders arrive in slot order");
                while let Ok(spent) = pool_rx.try_recv() {
                    drain.pool.put(spent);
                }
                clock.reset();
                let Some(batch) = drain.slot(t, &orders, &mut clock) else { break };
                if batch_tx.send(batch).is_err() {
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
            while let Ok(spent) = pool_rx.recv() {
                drain.pool.put(spent);
            }
            (drain.pool, clock)
        });

        // ── S2: ingest — owns the planner half and the hook ───────────
        let s2 = spawn(s, "craqr-ingest", move || {
            let mut clock = StageClock::new(timed);
            let _ = order_tx.send((0, ingest.open(&mut clock)));
            while let Ok(batch) = batch_rx.recv() {
                while let Ok(raw) = raw_rx.try_recv() {
                    ingest.raw_pool.put(raw);
                }
                clock.reset();
                let (head, next) = ingest.begin(&batch, &mut clock);
                if let Some(orders) = next {
                    let _ = order_tx.send((batch.slot + 1, orders));
                }
                let (spent, record) = ingest.finish(head, batch, &mut clock);
                let _ = pool_tx.send(spent);
                // `None` is the post-control crash: die before anything
                // downstream observes the epoch.
                let Some(record) = record else { break };
                if tap_tx.send(record).is_err() {
                    break;
                }
            }
            // Wind-down mirror of S1: drop the record sender so the
            // render stage drains out and disconnects the raw return
            // channel, then park every raw buffer still in flight.
            drop(tap_tx);
            while let Ok(raw) = raw_rx.recv() {
                ingest.raw_pool.put(raw);
            }
            (ingest.raw_pool, clock)
        });

        // ── S4: render — owns the tap ─────────────────────────────────
        let s4 = spawn(s, "craqr-render", move || {
            let mut clock = StageClock::new(timed);
            while let Ok(record) = tap_rx.recv() {
                clock.reset();
                if let Some(raw) = render.slot(record, &mut clock) {
                    let _ = raw_tx.send(raw);
                }
                let _ = seal_tx.send(());
            }
            (render.reports, clock)
        });

        (join(s1), join(s2), join(s4))
    });

    let ((drain_pool, mut clock), (raw_pool, ingest_clock), (reports, render_clock)) = (s1, s2, s4);
    // Replay the stage-local spans on the driver thread in slot order,
    // each stage's in lap order (the sort is stable) — what the serial
    // loop's per-slot flush guarantees too.
    clock.spans.extend(ingest_clock.spans);
    clock.spans.extend(render_clock.spans);
    clock.spans.sort_by_key(|&(_, slot, ..)| slot);
    clock.flush(&mut timer);

    let pool = PoolStats::at_rest([&drain_pool, &raw_pool]);
    RunOutcome { reports, completed: driver.close(n), pool }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::exec::ExecMode;
    use crate::server::{
        ControlAction, ControlHook, CraqrServer, CrashPoint, EpochInputsRecord, EpochObservation,
        EpochTap, ServerConfig,
    };
    use craqr_geom::{CellId, Rect};
    use craqr_sensing::{
        fields::ConstantField, AttrValue, AttributeId, Crowd, CrowdConfig, Mobility, Placement,
        PopulationConfig, RainFront,
    };
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    fn server(size: usize) -> CraqrServer {
        server_with(size, ExecMode::Serial)
    }

    pub(crate) fn server_with(size: usize, exec: ExecMode) -> CraqrServer {
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
        let mut s = CraqrServer::new(crowd, ServerConfig { exec, ..ServerConfig::default() });
        s.register_attribute("rain", true, Box::new(RainFront::new(2.0, 0.0, 2.0)));
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(21.0))));
        s.submit("ACQUIRE rain FROM RECT(0,0,2,2) RATE 1").unwrap();
        s.submit("ACQUIRE temp FROM RECT(1,1,3,3) RATE 0.5").unwrap();
        s
    }

    /// Zeroes the timing-tier `busy_ns` fields — they are thread-CPU
    /// measurements, excluded from every checksummed artifact, and the
    /// only report bytes allowed to differ across executors.
    pub(crate) fn untimed(
        mut reports: Vec<crate::server::EpochReport>,
    ) -> Vec<crate::server::EpochReport> {
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

    /// Sets every chain's budget each epoch (to a value that names the
    /// epoch) and every third epoch rebuilds a chain that does not exist,
    /// so `stale_actions` is non-zero mid-run.
    #[derive(Default)]
    struct Actuator {
        seen: Vec<u64>,
    }

    impl Actuator {
        fn budget_after(epoch: u64) -> f64 {
            5.0 + (epoch % 4) as f64
        }
    }

    impl ControlHook for Actuator {
        fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
            let epoch = obs.report.epoch;
            self.seen.push(epoch);
            let requests_per_epoch = Self::budget_after(epoch);
            let mut actions: Vec<ControlAction> = obs
                .plan
                .demands
                .iter()
                .map(|&(cell, attr, _)| ControlAction::SetBudget { cell, attr, requests_per_epoch })
                .collect();
            if epoch.is_multiple_of(3) {
                let (cell, attr) = (CellId::new(0, 0), AttributeId(99));
                actions.push(ControlAction::RebuildChain { cell, attr });
            }
            actions
        }
    }

    #[derive(Default)]
    struct EpochsTap(Vec<u64>);

    impl EpochTap for EpochsTap {
        fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
            self.0.push(record.report.epoch);
        }
    }

    #[test]
    fn an_actuating_hook_is_executor_invariant() {
        let (mut serial, mut piped) = (server(400), server(400));
        let (mut hook_s, mut hook_p) = (Actuator::default(), Actuator::default());
        let want = untimed(serial.driver().hook(&mut hook_s).run(12).reports);
        let got = untimed(piped.driver().hook(&mut hook_p).run_pipelined(12).reports);
        assert_eq!(want, got);
        assert!(want[1..].iter().any(|r| r.stale_actions > 0), "no stale action mid-run");
        assert_eq!(hook_s.seen, (0..12).collect::<Vec<u64>>());
        assert_eq!(hook_p.seen, hook_s.seen, "the hook saw every epoch once, in order");
        // The final slot's actions are applied on clean completion.
        let budgets = serial.handler().budget_snapshot();
        assert!(budgets.values().all(|b| *b == Actuator::budget_after(11)), "{budgets:?}");
        assert_eq!(piped.handler().budget_snapshot(), budgets);
    }

    #[test]
    fn an_actuating_hook_is_executor_invariant_across_crash_points() {
        for point in [CrashPoint::PostDispatch, CrashPoint::PostDrain, CrashPoint::PostControl] {
            let (mut serial, mut piped) = (server(400), server(400));
            let (mut hook_s, mut hook_p) = (Actuator::default(), Actuator::default());
            let mut tap = EpochsTap::default();
            let want = serial.driver().hook(&mut hook_s).crash_at(5, point).run(12);
            let got =
                piped.driver().hook(&mut hook_p).tap(&mut tap).crash_at(5, point).run_pipelined(12);
            assert!(!got.completed && !want.completed, "{point:?}");
            assert_eq!(untimed(got.reports), untimed(want.reports), "{point:?}");
            assert_eq!(tap.0, (0..5).collect::<Vec<u64>>(), "{point:?}");
            // The crashed slot's actions are abandoned on both executors.
            assert_eq!(
                piped.handler().budget_snapshot(),
                serial.handler().budget_snapshot(),
                "{point:?}"
            );
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_message() {
        struct GivesUp;
        impl ControlHook for GivesUp {
            fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
                assert!(obs.report.epoch != 3, "hook gave up at epoch 3");
                Vec::new()
            }
        }
        let mut s = server(400);
        let mut hook = GivesUp;
        // Returning at all is half the test: the neighbours wound down.
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.driver().hook(&mut hook).run_pipelined(8)
        }))
        .expect_err("the hook's panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("hook gave up at epoch 3"));
    }
}

//! The epoch-phase timing seam — the *timing* sibling of the control
//! ([`crate::ControlHook`]) and recording ([`crate::EpochTap`]) seams.
//!
//! # Why a seam, and why it is safe
//!
//! CrAQR's determinism contract forbids clocks from influencing anything
//! checksummed: a run must produce bit-identical reports, traces, and run
//! logs on every host. But an operable service still needs latency
//! telemetry — *where does an epoch spend its time?* The [`PhaseTimer`]
//! seam reconciles the two:
//!
//! - **Byte-inert when absent.** With no timer installed the epoch loop
//!   takes zero clock readings and executes the exact instruction stream
//!   of an uninstrumented build. Nothing is allocated, branched on a
//!   clock, or fed to an RNG.
//! - **Read-only when present.** An installed timer only *reads* the
//!   thread-CPU clock at phase boundaries ([`crate::exec::thread_busy_ns`])
//!   and hands the elapsed nanoseconds to the timer. No simulation state,
//!   RNG stream, or report field depends on the measured values, so every
//!   checksummed artifact is bit-identical with and without a timer — the
//!   same rule that keeps `busy_ns` out of report bodies.
//!
//! Measured durations are **thread-CPU time**, not wall time, so an epoch
//! descheduled on an oversubscribed host does not inflate its phases.
//!
//! The canonical implementation lives in `craqr-scenario`, which feeds a
//! `craqr-telemetry` histogram per phase; anything implementing the
//! one-method trait fits (a logger, a flamegraph feeder, a test probe).

/// One of the epoch loop's instrumented sections, in loop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpochPhase {
    /// Budget draws, tenant clamping/charging, request dispatch.
    Dispatch,
    /// Crowd mobility sub-steps, response drain, retry shortfall
    /// feedback.
    Drain,
    /// Error injection, mitigation, id assignment, the map + per-cell
    /// process phases, and the per-query merge into the output buffers.
    /// Its spans include the thread-CPU time the ingest and merge
    /// fan-outs' workers spent on the epoch (every shard's
    /// [`crate::exec::ShardIngest::busy_ns`] past the first, which runs on
    /// the stage's own thread), so a span is the phase's CPU cost at every
    /// width, not only the calling thread's share.
    Ingest,
    /// The control hook's observation of the finished epoch. (Budget
    /// tuning and the application of the hook's actions — at the top of
    /// the next slot — are part of [`EpochPhase::Ingest`].)
    Control,
    /// The recording tap (run-log append happens inside it).
    LogAppend,
}

impl EpochPhase {
    /// The metric-facing label (`phase="…"`).
    pub fn name(&self) -> &'static str {
        match self {
            EpochPhase::Dispatch => "dispatch",
            EpochPhase::Drain => "drain",
            EpochPhase::Ingest => "ingest",
            EpochPhase::Control => "control",
            EpochPhase::LogAppend => "log-append",
        }
    }
}

/// One of the staged schedule's three stages, in dataflow order — a
/// long-lived worker thread each under the pipelined executor, called
/// back to back by the serial one. Each [`EpochPhase`] is recorded by the
/// stage that owns the state it touches:
///
/// - `Drain` owns the crowd: it executes dispatch orders
///   ([`EpochPhase::Dispatch`], the send half) and advances/drains the
///   world ([`EpochPhase::Drain`]).
/// - `Ingest` owns the handler/fabricator and the hook: it issues
///   dispatch orders ([`EpochPhase::Dispatch`], the budget-draw half),
///   runs action application and error injection through merge and
///   tuning ([`EpochPhase::Ingest`]), and calls the hook
///   ([`EpochPhase::Control`]).
/// - `Render` owns the tap ([`EpochPhase::LogAppend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Stage 1: crowd owner — order execution, mobility steps, drain.
    Drain,
    /// Stage 2: handler/fabricator and hook owner — order issue,
    /// ingestion, tuning, control.
    Ingest,
    /// Stage 3: tap/render owner (run-log append).
    Render,
}

/// Observes per-phase thread-CPU durations for one epoch at a time.
///
/// Installed via [`crate::EpochDriver::timer`]. The driver reports every
/// span of a slot with its elapsed thread-CPU nanoseconds; a phase can
/// have more than one ([`EpochPhase::Dispatch`] has a budget-draw half
/// and a send half, [`EpochPhase::Ingest`] one on each side of the order
/// hand-off), so sum per phase for a per-epoch figure. Implementations
/// must not feed the values back into anything checksummed (see the
/// module docs for the contract).
/// `Send` is a supertrait because the pipelined executor runs the timer's
/// replay on the driver thread after stage workers join — every
/// implementor is plain data, so the bound costs nothing.
pub trait PhaseTimer: Send {
    /// Records that `phase` took `nanos` thread-CPU nanoseconds this
    /// epoch.
    fn observe(&mut self, phase: EpochPhase, nanos: u64);

    /// Stage-aware variant of [`PhaseTimer::observe`], and the method the
    /// driver actually calls: the same span, attributed to the stage that
    /// ran it, tagged with the epoch slot it belonged to. The serial
    /// executor hands its spans over once per slot; the pipelined one
    /// records them thread-locally and replays them after the workers
    /// join — both in slot order, each stage's spans in the order it
    /// recorded them. The default forwards to `observe`, dropping the
    /// stage and the slot; a timer that wants them overrides it.
    fn observe_stage(&mut self, _stage: PipelineStage, _slot: u64, phase: EpochPhase, nanos: u64) {
        self.observe(phase, nanos);
    }
}

//! A timing decorator for [`ControlHook`]s.
//!
//! The observability layer wants to know how long the control phase
//! spends *inside the hook* (estimation + drift detection + replanning),
//! separate from the rest of the epoch. Wrapping the controller in a
//! [`TimedHook`] measures each `on_epoch` call with the thread-CPU clock
//! ([`craqr_core::exec::thread_busy_ns`]) without the epoch loop knowing
//! anything about timing.
//!
//! Timing is host- and schedule-dependent, so the accumulated totals are
//! **never checksummed** — they feed only the timing-tier of the metrics
//! registry. When constructed with `timed = false` the wrapper performs
//! zero clock reads and is behaviourally identical to the bare hook, so
//! instrumented and uninstrumented runs make bit-identical decisions.

use craqr_core::exec::thread_busy_ns;
use craqr_core::{ControlAction, ControlHook, EpochObservation};

/// Wraps any [`ControlHook`], accumulating per-call thread-CPU time.
///
/// The wrapper is transparent to determinism: it forwards the observation
/// verbatim and returns the inner hook's actions unchanged. Clock reads
/// happen only when `timed` is true.
pub struct TimedHook<'a> {
    inner: &'a mut dyn ControlHook,
    timed: bool,
    calls: u64,
    total_ns: u64,
}

impl<'a> TimedHook<'a> {
    /// Wraps `inner`. With `timed = false` the wrapper never reads the
    /// clock (pure pass-through).
    pub fn new(inner: &'a mut dyn ControlHook, timed: bool) -> Self {
        Self { inner, timed, calls: 0, total_ns: 0 }
    }

    /// Number of `on_epoch` calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Cumulative thread-CPU nanoseconds spent inside the wrapped hook
    /// (zero when constructed untimed).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }
}

impl ControlHook for TimedHook<'_> {
    fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
        self.calls += 1;
        if self.timed {
            let started = thread_busy_ns();
            let actions = self.inner.on_epoch(obs);
            self.total_ns += thread_busy_ns().saturating_sub(started);
            actions
        } else {
            self.inner.on_epoch(obs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_core::{CraqrServer, ServerConfig};
    use craqr_geom::Rect;
    use craqr_sensing::{
        fields::ConstantField, AttrValue, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
    };

    struct Counting(u64);
    impl ControlHook for Counting {
        fn on_epoch(&mut self, _obs: &EpochObservation) -> Vec<ControlAction> {
            self.0 += 1;
            vec![]
        }
    }

    fn server(seed: u64) -> CraqrServer {
        let region = Rect::with_size(4.0, 4.0);
        let crowd = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size: 100,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.1 },
                human_fraction: 0.0,
            },
            seed,
        });
        let mut s = CraqrServer::new(crowd, ServerConfig::default());
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(20.0))));
        s
    }

    #[test]
    fn untimed_wrapper_forwards_without_clock_reads() {
        let mut s = server(3);
        s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap();
        let mut inner = Counting(0);
        let mut hook = TimedHook::new(&mut inner, false);
        for _ in 0..3 {
            s.driver().hook(&mut hook).step();
        }
        assert_eq!(hook.calls(), 3);
        assert_eq!(hook.total_ns(), 0, "untimed wrapper must not accumulate time");
        assert_eq!(inner.0, 3, "inner hook saw every epoch");
    }

    #[test]
    fn timed_wrapper_counts_calls_and_stays_transparent() {
        let run = |timed: bool| {
            let mut s = server(7);
            s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap();
            let mut inner = Counting(0);
            let mut hook = TimedHook::new(&mut inner, timed);
            let mut reports = Vec::new();
            for _ in 0..5 {
                let mut report = s.driver().hook(&mut hook).step();
                // Shard busy time is host-dependent and irrelevant here:
                // only the event-derived outcome must be unperturbed.
                for shard in &mut report.exec.shards {
                    shard.busy_ns = 0;
                }
                reports.push(report);
            }
            assert_eq!(hook.calls(), 5);
            assert_eq!(inner.0, 5);
            reports
        };
        // Timing instrumentation must not change any epoch outcome.
        assert_eq!(run(true), run(false), "timed wrapper perturbed the run");
    }
}

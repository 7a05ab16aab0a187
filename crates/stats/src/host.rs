//! What the process may run on, and the one way it fans work out: the
//! server's ingest shards, its per-query merge runs and the crowd's
//! sensor ranges all size the split with [`width`] from one
//! [`host_cores`] read and run it through [`fan_out`].

use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

/// The cores this process may run on, read once: `available_parallelism`
/// reads cgroup files and follows the affinity mask, which no epoch
/// should pay for. `1` when it cannot tell.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The parts `work` units split into on a host with `cores` cores: one
/// per `per_worker` units, at least one and at most `cores`.
pub fn width(work: usize, per_worker: usize, cores: usize) -> usize {
    (work / per_worker).clamp(1, cores.max(1))
}

/// Runs `run` on every part and returns the results in part order.
///
/// The contract every fan-out in the workspace shares:
/// - part 0 runs on the calling thread and each other part on a scoped
///   worker, spawned and joined within the call. One part runs inline,
///   without a thread scope; zero parts never call `run`;
/// - results come back in part order, whichever part finishes first;
/// - a part's panic reaches the caller with its own payload, re-raised
///   after the join: only once every other part has finished ([`join`]).
///
/// How the work splits into parts is the caller's rule.
pub fn fan_out<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P, IntoIter: ExactSizeIterator>,
    run: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let mut parts = parts.into_iter();
    let Some(own) = parts.next() else { return Vec::new() };
    if parts.len() == 0 {
        return vec![run(own)];
    }
    let run = &run;
    std::thread::scope(|scope| {
        let workers: Vec<_> = parts.map(|part| scope.spawn(move || run(part))).collect();
        let mut results = Vec::with_capacity(workers.len() + 1);
        results.push(run(own));
        results.extend(workers.into_iter().map(join));
        results
    })
}

/// Joins a scoped worker. Its panic, if any, continues on the calling
/// thread with the payload it was raised with; the enclosing
/// [`std::thread::scope`] lets it out only after every other worker has
/// finished.
pub fn join<T>(worker: ScopedJoinHandle<'_, T>) -> T {
    worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{current, sleep};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_part_order_when_later_parts_finish_first() {
        let out = fan_out(0..4usize, |part| {
            sleep(Duration::from_millis(40 - 10 * part as u64));
            part * part
        });
        assert_eq!(out, [0, 1, 4, 9]);
    }

    #[test]
    fn one_part_runs_on_the_calling_thread() {
        let caller = current().id();
        assert_eq!(fan_out([()], |()| current().id()), [caller]);
        let ids = fan_out([(), ()], |()| current().id());
        assert_eq!(ids[0], caller, "part 0 runs on the caller at every width");
        assert_ne!(ids[1], caller);
    }

    #[test]
    fn zero_parts_never_run() {
        let out: Vec<()> = fan_out(Vec::<()>::new(), |()| panic!("ran a part that is not there"));
        assert!(out.is_empty());
    }

    #[test]
    fn a_worker_panic_keeps_its_message_and_waits_for_the_other_parts() {
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(0..4, |part| {
                if part == 1 {
                    panic!("part 1 failed");
                }
                sleep(Duration::from_millis(30));
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("part 1 panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"part 1 failed"));
        assert_eq!(finished.load(Ordering::SeqCst), 3, "the other parts finished first");
    }

    #[test]
    fn width_is_one_part_per_share_capped_at_the_cores() {
        // (per_worker, work, widths at 0, 1, 2 and 8 cores): chains per
        // ingest worker, then sensor-steps per crowd worker.
        let table = [
            (256, 0, [1, 1, 1, 1]),
            (256, 255, [1, 1, 1, 1]),
            (256, 256, [1, 1, 1, 1]),
            (256, 511, [1, 1, 1, 1]),
            (256, 512, [1, 1, 2, 2]),
            (256, 2_304, [1, 1, 2, 8]),
            (16_384, 0, [1, 1, 1, 1]),
            (16_384, 32_767, [1, 1, 1, 1]),
            (16_384, 80_000, [1, 1, 2, 4]),
            (16_384, 1 << 20, [1, 1, 2, 8]),
        ];
        for (per_worker, work, widths) in table {
            for (cores, want) in [0, 1, 2, 8].into_iter().zip(widths) {
                assert_eq!(width(work, per_worker, cores), want, "{work}/{per_worker} on {cores}");
            }
        }
    }
}

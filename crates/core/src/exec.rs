//! The sharded epoch executor.
//!
//! CrAQR's per-cell topologies share nothing: each `(cell, attribute)`
//! chain owns its operators, its sinks, and its RNG streams (derived from
//! the planner's root seed, never from a shared mutable RNG). The *process*
//! phase of an epoch is therefore embarrassingly parallel, and this module
//! supplies the machinery to exploit that:
//!
//! - [`ExecMode`]: the execution knob on
//!   [`crate::server::ServerConfig`] — [`ExecMode::Serial`] is the
//!   reference implementation, [`ExecMode::Sharded`] fans the chains out
//!   over a scoped worker pool.
//! - [`shard_of`]: the deterministic chain→shard assignment (sorted
//!   keys, round-robin) the executor applies.
//! - [`ShardIngest`] / [`IngestReport`]: per-shard statistics merged
//!   deterministically (ascending shard index) after every epoch.
//!
//! # Determinism contract
//!
//! For any fixed root seed, `Serial` and `Sharded(n)` produce **bit
//! identical** outputs for every query, every epoch, and every budget
//! decision, for every `n ≥ 1`:
//!
//! - chains only touch chain-local state, so scheduling cannot reorder
//!   any chain's RNG draws;
//! - the map phase (tuple → chain routing) happens before workers start;
//! - per-shard results merge in shard order, and downstream consumers
//!   (per-query `U`-merges, budget tuning) iterate chains in sorted key
//!   order exactly as the serial path does.

/// How the server executes the per-cell process phase of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run every chain on the calling thread, in sorted key order — the
    /// reference implementation.
    #[default]
    Serial,
    /// Partition chains into `n` shards (deterministic round-robin over
    /// sorted keys) and run each shard on its own scoped worker thread.
    ///
    /// `Sharded(1)` is the serial schedule on a worker thread — useful for
    /// isolating thread-spawn overhead in benchmarks.
    Sharded(usize),
}

impl ExecMode {
    /// Number of shards this mode runs (`1` for serial).
    ///
    /// # Panics
    /// Panics on `Sharded(0)`, which is meaningless.
    #[track_caller]
    pub fn shards(&self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Sharded(n) => {
                assert!(*n > 0, "Sharded(0) has no workers to run on");
                *n
            }
        }
    }
}

/// Nanoseconds of CPU time consumed by the *calling thread* so far.
///
/// Shard busy-times are measured with this clock rather than wall time so
/// they stay meaningful on oversubscribed hosts: a worker descheduled
/// while a sibling shard runs accrues no busy time. On Linux this reads
/// `CLOCK_THREAD_CPUTIME_ID`; elsewhere it falls back to a process-wide
/// monotonic clock (still usable, but contention-sensitive).
pub fn thread_busy_ns() -> u64 {
    clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Nanoseconds on a cheap monotonic clock, for high-frequency callers.
///
/// The engine's per-node busy clock fires twice per operator batch, and
/// `CLOCK_THREAD_CPUTIME_ID` is a real syscall (hundreds of ns) while
/// `CLOCK_MONOTONIC` goes through the vDSO (tens of ns). Inside one
/// shard's batch loop the thread never blocks, so wall time per batch is
/// the same signal as CPU time at a fraction of the measurement cost —
/// that is what keeps full instrumentation under the E16 overhead gate.
/// Use [`thread_busy_ns`] instead for coarse spans that can straddle a
/// descheduling (whole-shard busy, epoch phases).
pub fn fast_monotonic_ns() -> u64 {
    clock_ns(1) // CLOCK_MONOTONIC
}

/// `clock_gettime(clock_id)` in nanoseconds, falling back to a monotonic
/// clock anchored at first use where the call is unavailable or fails.
#[inline]
#[cfg_attr(not(all(target_os = "linux", target_pointer_width = "64")), allow(unused_variables))]
fn clock_ns(clock_id: i32) -> u64 {
    // 64-bit Linux only: the hand-rolled timespec layout below matches
    // glibc/musl's {i64, i64} there; 32-bit targets have 32-bit
    // `time_t`/`long` and take the fallback instead.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: clock_gettime writes a timespec through a valid pointer;
        // both callers' clocks (CLOCK_MONOTONIC, CLOCK_THREAD_CPUTIME_ID)
        // are supported on every Linux ≥ 2.6.12.
        if unsafe { clock_gettime(clock_id, &mut ts) } == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    use std::time::Instant;
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The shard an item at sorted position `index` belongs to.
///
/// Round-robin keeps neighbouring (spatially correlated, similarly loaded)
/// cells on *different* shards, which balances far better than contiguous
/// chunking when load is spatially skewed.
#[inline]
pub fn shard_of(index: usize, shards: usize) -> usize {
    index % shards.max(1)
}

/// What one shard processed during an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardIngest {
    /// Shard index.
    pub shard: usize,
    /// Chains this shard ran (including starved ones).
    pub chains: usize,
    /// Tuples routed into this shard's chains.
    pub tuples: usize,
    /// Thread-CPU nanoseconds this shard's worker spent processing its
    /// chains ([`thread_busy_ns`]) — the scheduling-quality signal: an
    /// epoch's critical path is `max` over shards, its total work is
    /// `sum` over shards. CPU time (not wall) so oversubscribed hosts
    /// don't inflate idle shards.
    pub busy_ns: u64,
}

/// The merged outcome of one epoch's map + process phases.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Tuples routed to a materialized chain (sum over shards).
    pub routed: usize,
    /// Tuples dropped at the map phase (unmaterialized cell or attribute).
    pub dropped: usize,
    /// Per-shard breakdown, ascending by shard index; one entry under
    /// [`ExecMode::Serial`].
    pub shards: Vec<ShardIngest>,
}

impl IngestReport {
    /// Merges per-shard statistics into an epoch report; shards arrive in
    /// ascending index order (the executor guarantees it).
    pub fn merge(dropped: usize, shards: Vec<ShardIngest>) -> Self {
        debug_assert!(
            shards.windows(2).all(|w| w[0].shard < w[1].shard),
            "shard stats must merge in ascending order"
        );
        let routed = shards.iter().map(|s| s.tuples).sum();
        Self { routed, dropped, shards }
    }

    /// Total chains executed across shards.
    pub fn chains(&self) -> usize {
        self.shards.iter().map(|s| s.chains).sum()
    }

    /// Total processing work across shards (nanoseconds of busy time).
    pub fn work_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.busy_ns).sum()
    }

    /// The epoch's processing critical path: the busiest shard's time.
    /// With perfect balance this approaches `work_ns / shards` — the
    /// epoch time a sufficiently parallel host would observe.
    pub fn critical_path_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.busy_ns).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_everything_disjointly() {
        // Assignments over 10 sorted positions and 4 shards: each shard
        // gets every 4th position, sizes differ by at most one.
        let mut sizes = [0usize; 4];
        for i in 0..10 {
            let s = shard_of(i, 4);
            assert_eq!(s, i % 4);
            sizes[s] += 1;
        }
        assert_eq!(sizes, [3, 3, 2, 2]);
        // A degenerate shard count clamps to one shard.
        assert!((0..5).all(|i| shard_of(i, 0) == 0));
    }

    #[test]
    fn serial_is_one_shard() {
        assert_eq!(ExecMode::Serial.shards(), 1);
        assert_eq!(ExecMode::Sharded(4).shards(), 4);
        assert!((0..5).all(|i| shard_of(i, 1) == 0));
    }

    #[test]
    #[should_panic(expected = "no workers")]
    fn zero_shards_rejected() {
        let _ = ExecMode::Sharded(0).shards();
    }

    #[test]
    fn merge_sums_tuples_and_chains() {
        let r = IngestReport::merge(
            3,
            vec![
                ShardIngest { shard: 0, chains: 2, tuples: 10, busy_ns: 40 },
                ShardIngest { shard: 1, chains: 1, tuples: 5, busy_ns: 60 },
            ],
        );
        assert_eq!(r.routed, 15);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.chains(), 3);
        assert_eq!(r.work_ns(), 100);
        assert_eq!(r.critical_path_ns(), 60);
    }
}

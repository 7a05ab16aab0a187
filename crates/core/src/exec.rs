//! The sharded epoch executor.
//!
//! CrAQR's per-cell topologies share nothing: each `(cell, attribute)`
//! chain owns its operators, its sinks, and its RNG streams (derived from
//! the planner's root seed, never from a shared mutable RNG). The *process*
//! phase of an epoch is therefore embarrassingly parallel, and this module
//! supplies the machinery to exploit that:
//!
//! - [`ExecMode`]: the execution knob on
//!   [`crate::server::ServerConfig`] — [`ExecMode::Serial`] (the default)
//!   picks its own width from the chain count,
//!   [`ExecMode::Sharded`] pins it.
//! - [`shard_of`]: the deterministic chain→shard assignment (sorted
//!   keys, round-robin) the executor applies.
//! - [`ShardIngest`] / [`IngestReport`]: per-shard statistics merged
//!   deterministically (ascending shard index) after every epoch.
//!
//! The shards run through [`craqr_stats::fan_out`], whose contract says
//! which thread runs what and where a panic lands.
//!
//! # Determinism contract
//!
//! For any fixed root seed, every width produces **bit identical**
//! outputs for every query, every epoch, and every budget decision —
//! `Serial` at whatever width it picks and `Sharded(n)` for every
//! `n ≥ 1`:
//!
//! - chains only touch chain-local state, so scheduling cannot reorder
//!   any chain's RNG draws;
//! - the map phase (tuple → chain routing) happens before workers start;
//! - per-shard results merge in shard order; each shard stages its
//!   chains' output in its own buffer, and a query's `U`-merge reads its
//!   staged pieces in port order, so which shard ran a chain never shows;
//!   budget tuning iterates chains in sorted key order exactly as the
//!   one-shard path does.

/// How the server executes the per-cell process phase of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Pick the width from the materialized chain count and the host: one
    /// shard per [`CHAINS_PER_WORKER`] chains, at most the host's cores
    /// ([`craqr_stats::width`] over [`craqr_stats::host_cores`], kept by
    /// the fabricator when it is built). Below 2 × [`CHAINS_PER_WORKER`]
    /// chains that is width 1, every chain on the calling thread in sorted
    /// key order — the reference schedule. The chain count changes only
    /// with the query set, so the width cannot flap between epochs or seeds.
    #[default]
    Serial,
    /// Partition chains into at most `n` shards, one per chain
    /// (deterministic round-robin over sorted keys).
    ///
    /// `Sharded(1)` is the one-shard schedule on the calling thread.
    Sharded(usize),
}

impl ExecMode {
    /// `Err((field, requirement))` for `Sharded(0)`, the one mode that
    /// cannot run — the one check the server's validator, the CLI's
    /// `--shards` and [`ExecMode::width`] all ask.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        match self {
            ExecMode::Sharded(0) => {
                Err(("exec.shards", "Sharded(0) has no workers to run on".into()))
            }
            _ => Ok(()),
        }
    }

    /// Number of shards this mode runs `chains` materialized chains on,
    /// on a host with `cores` cores: one per [`CHAINS_PER_WORKER`] chains,
    /// capped at the cores, for `Serial`; for `Sharded(n)`, `n` capped at
    /// one per chain.
    ///
    /// # Panics
    /// Panics on a mode [`ExecMode::validate`] rejects.
    #[track_caller]
    pub fn width(&self, chains: usize, cores: usize) -> usize {
        if let Err((field, message)) = self.validate() {
            panic!("{field}: {message}");
        }
        match self {
            ExecMode::Serial => craqr_stats::width(chains, CHAINS_PER_WORKER, cores),
            ExecMode::Sharded(n) => (*n).min(chains.max(1)),
        }
    }
}

/// Chains each worker of the default executor gets at least.
///
/// Measured end to end with two workers on a 2-core host: +34 % epochs/s
/// at 2 304 chains (`grid_replay`), nothing at 256 — `city_live` +4 %,
/// `durable_serial` ±0 with peak RSS +15–18 %, `durable_pipelined` −8 to
/// −20 %. So 256 chains stay on one worker, and a worker is added per
/// further 256.
pub const CHAINS_PER_WORKER: usize = 256;

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
    /// Per-shard breakdown, ascending by shard index; one entry per
    /// shard of the width the epoch ran at.
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
    fn sharded_pins_the_width_and_serial_follows_the_rule() {
        // (chains, cores, Sharded(4)'s width): at most one shard per chain.
        for (chains, cores, four) in
            [(0, 1, 1), (3, 1, 3), (16, 8, 4), (2_304, 2, 4), (100_000, 64, 4)]
        {
            assert_eq!(ExecMode::Sharded(4).width(chains, cores), four);
            assert_eq!(ExecMode::Sharded(1).width(chains, cores), 1);
            let rule = craqr_stats::width(chains, CHAINS_PER_WORKER, cores);
            assert_eq!(ExecMode::Serial.width(chains, cores), rule);
        }
        assert!((0..5).all(|i| shard_of(i, 1) == 0));
    }

    #[test]
    #[should_panic(expected = "no workers")]
    fn zero_shards_rejected() {
        let _ = ExecMode::Sharded(0).width(16, 2);
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

//! A warm fabricator's map/process/merge allocates per query, never per
//! chain: one epoch's ingest plus every query's merge on a 48×48 grid
//! (2 304 chains, about three tuples each) makes no more allocations than
//! the same epoch on a 4×4 grid (16 chains) under the same queries, at
//! one shard and at two. Spawning a worker allocates, so each comparison
//! holds the width fixed; the default executor, which picks its width
//! from the chain count, must allocate exactly what that width pinned
//! does.
//!
//! Its own test binary because the counting allocator is process-wide;
//! the single test keeps other threads from adding to the count.

use craqr_core::{AcquisitionQuery, CrowdTuple, ExecMode, Fabricator, PlannerConfig, QueryId};
use craqr_geom::{Rect, SpaceTimePoint};
use craqr_sensing::{AttrValue, AttributeId, SensorId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

// Relaxed: the counter is a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same pass-through as `alloc`/`dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SIDE_KM: f64 = 48.0;
const EPOCH_MIN: f64 = 5.0;

/// Six overlapping queries, each at least one 12 km cell of the coarse
/// grid, several cutting cells so partition operators appear.
///
/// Every query asks for more than the crowd delivers, so the flatten and
/// thin operators keep every tuple: each epoch replays the same traffic
/// through every chain, and after one epoch every buffer has carried its
/// largest batch. Random thinning would add a decaying tail of first-time
/// buffer growth, which says nothing about the steady state.
fn fabricator(grid_side: u32) -> (Fabricator, Vec<QueryId>) {
    let config = PlannerConfig { grid_side, batch_duration: EPOCH_MIN, ..Default::default() };
    let mut f = Fabricator::new(Rect::with_size(SIDE_KM, SIDE_KM), config);
    let footprints = [
        Rect::new(0.0, 0.0, 48.0, 48.0),
        Rect::new(0.0, 0.0, 24.0, 24.0),
        Rect::new(12.0, 6.0, 42.0, 30.0),
        Rect::new(5.0, 20.0, 29.0, 44.0),
        Rect::new(24.0, 24.0, 48.0, 48.0),
        Rect::new(3.0, 3.0, 45.0, 15.0),
    ];
    let qids = footprints
        .iter()
        .map(|&rect| f.insert_query(AcquisitionQuery::new(AttributeId(0), rect, 10.0)))
        .collect::<Result<_, _>>()
        .expect("queries fit the grid");
    (f, qids)
}

/// 7 000 tuples spread over the region during epoch `epoch`; every epoch
/// has the same positions, so each chain sees the same batch.
fn epoch_batch(epoch: u64) -> Vec<CrowdTuple> {
    (0..7_000u64)
        .map(|i| {
            let f = i as f64;
            CrowdTuple {
                id: epoch * 7_000 + i,
                attr: AttributeId(0),
                point: SpaceTimePoint::new(
                    epoch as f64 * EPOCH_MIN + (f * 0.381_966).fract() * EPOCH_MIN,
                    (f * 0.618_034).fract() * SIDE_KM,
                    (f * 0.754_878).fract() * SIDE_KM,
                ),
                value: AttrValue::Float(20.0 + (f * 0.1).sin()),
                sensor: SensorId(i),
            }
        })
        .collect()
}

/// Runs `epochs` warm-up epochs under `mode`, then returns the allocations,
/// the delivered tuples and the width of one more epoch's ingest and
/// merges.
fn warm_epoch_allocs(grid_side: u32, epochs: u64, mode: ExecMode) -> (u64, usize, usize) {
    let (mut f, qids) = fabricator(grid_side);
    let mut epoch = |e: u64| {
        let batch = epoch_batch(e);
        let before = ALLOCS.load(Ordering::Relaxed);
        let width = f.ingest_batch_mode(&batch, mode).shards.len();
        let delivered: usize = qids.iter().map(|&q| f.collect_output(q).unwrap().len()).sum();
        (ALLOCS.load(Ordering::Relaxed) - before, delivered, width)
    };
    for e in 0..epochs {
        epoch(e);
    }
    let measured = epoch(epochs);
    assert_eq!(f.materialized_chains(), (grid_side * grid_side) as usize);
    measured
}

#[test]
fn warm_epoch_allocations_do_not_grow_with_the_chain_count() {
    for mode in [ExecMode::Sharded(1), ExecMode::Sharded(2)] {
        let (fine, fine_delivered, _) = warm_epoch_allocs(48, 2, mode);
        let (coarse, coarse_delivered, _) = warm_epoch_allocs(4, 2, mode);
        assert!(fine_delivered > 0, "the queries must deliver");
        assert_eq!(fine_delivered, coarse_delivered, "both grids keep every tuple");
        assert!(
            fine <= coarse,
            "{mode:?}: 2 304 chains made {fine} allocations in a warm epoch, 16 chains {coarse}"
        );
    }
    for side in [48, 4] {
        let (default, _, width) = warm_epoch_allocs(side, 2, ExecMode::Serial);
        let (pinned, _, _) = warm_epoch_allocs(side, 2, ExecMode::Sharded(width));
        assert_eq!(
            default, pinned,
            "{side}×{side}: the default ran at width {width} and made {default} allocations \
             in a warm epoch, Sharded({width}) {pinned}"
        );
    }
}

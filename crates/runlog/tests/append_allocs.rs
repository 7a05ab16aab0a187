//! The streamed append renders each epoch into one buffer the recorder
//! reuses: once that buffer is warm, appending an epoch with 1 000
//! responses makes no more allocations than appending one with 10 —
//! nothing is allocated per record line.
//!
//! Its own test binary because the counting allocator is process-wide;
//! the single test keeps other threads from adding to the count.

use craqr_core::{EpochInputsRecord, EpochReport, EpochTap};
use craqr_geom::SpaceTimePoint;
use craqr_runlog::StreamingRecorder;
use craqr_sensing::{AttrValue, AttributeId, Measurement, SensorId, SensorResponse};
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

fn report(epoch: u64) -> EpochReport {
    EpochReport {
        epoch,
        now: 0.0,
        dispatch: Default::default(),
        responses: 0,
        mitigation_rejected: 0,
        ingested: 0,
        exec: Default::default(),
        delivered: Vec::new(),
        tuning: Vec::new(),
        tenant_charges: Vec::new(),
        stale_actions: 0,
        faults: Default::default(),
    }
}

/// `n` responses with full-precision coordinates and values, like a
/// live crowd's.
fn responses(n: u64) -> Vec<SensorResponse> {
    (0..n)
        .map(|i| {
            let f = i as f64;
            SensorResponse {
                sensor: SensorId(i * 7919),
                measurement: Measurement {
                    attr: AttributeId((i % 2) as u16),
                    point: SpaceTimePoint::new(
                        f * 0.013_7,
                        (f * 0.618_034).fract() * 16.0,
                        f / 3.0,
                    ),
                    value: if i % 3 == 0 {
                        AttrValue::Bool(i % 2 == 0)
                    } else {
                        AttrValue::Float(20.0 + f.sqrt())
                    },
                },
                issued_at: f * 0.01,
            }
        })
        .collect()
}

#[test]
fn a_warm_append_allocates_nothing_per_response() {
    let dir = std::env::temp_dir().join(format!("craqr-append-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rec =
        StreamingRecorder::new(&dir.join("allocs.runlog.txt"), "allocs", 1, "name = \"a\"\n");
    rec.begin().unwrap();
    let (small, big) = (responses(10), responses(1000));
    let mut epoch = 0;
    let mut append = |rs: &[SensorResponse]| {
        let report = report(epoch);
        epoch += 1;
        let record = EpochInputsRecord { report: &report, responses: rs, actions: &[] };
        let before = ALLOCS.load(Ordering::Relaxed);
        rec.on_epoch(&record);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    // Warm-up: the reused buffer grows to a 1 000-response block once.
    append(&big);
    let small_allocs = append(&small);
    let big_allocs = append(&big);
    assert!(rec.last_error().is_none(), "{:?}", rec.last_error());
    assert_eq!(rec.epochs_streamed(), 3);
    assert!(
        big_allocs <= small_allocs,
        "a 1 000-response append made {big_allocs} allocations, a 10-response one {small_allocs}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

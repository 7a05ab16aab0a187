//! The parser reads record fields in place: parsing a log whose epoch
//! holds 1 000 responses makes only a handful more allocations than
//! parsing the same log with 10 — the growth of the epoch's response
//! `Vec` — and nothing per record line.
//!
//! Its own test binary because the counting allocator is process-wide;
//! the single test keeps other threads from adding to the count.

use craqr_runlog::{
    parse_salvage, AdmissionRecord, EpochRecord, ResponseRecord, RunLog, ValueRecord,
};
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

/// A sealed two-epoch log whose first epoch holds `n` responses with
/// full-precision coordinates and values, like a live crowd's.
fn log(n: u64) -> String {
    let responses = (0..n)
        .map(|i| {
            let f = i as f64;
            ResponseRecord {
                sensor: i * 7919,
                attr: (i % 2) as u16,
                t: f / 3.0,
                x: f * 0.013_7,
                y: (f * 0.618_034).fract() * 16.0,
                value: if i % 3 == 0 {
                    ValueRecord::Bool(i % 2 == 0)
                } else {
                    ValueRecord::Float(20.0 + f.sqrt())
                },
                issued_at: f * 0.01,
            }
        })
        .collect();
    RunLog {
        scenario: "allocs".into(),
        seed: 1,
        spec_toml: "name = \"allocs\"\nseed = 1\n".into(),
        admissions: vec![AdmissionRecord {
            tenant: 0,
            submission: 0,
            demand: 12.5,
            committed: 0.0,
            capacity: 40.0,
            admitted: true,
        }],
        epochs: vec![
            EpochRecord { epoch: 0, requested: n, sent: n, responses, ..Default::default() },
            EpochRecord { epoch: 1, requested: 3, sent: 3, ..Default::default() },
        ],
        report_checksum: Some(0xABCD),
        trace_checksum: Some(0x1234),
    }
    .canonical()
}

fn allocations(parse: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    parse();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn parsing_allocates_nothing_per_record_line() {
    let (small, big) = (log(10), log(1000));
    for (what, parse) in [
        ("parse", (|src: &str| drop(RunLog::parse(src).unwrap())) as fn(&str)),
        ("parse_salvage", |src: &str| assert!(parse_salvage(src).unwrap().torn.is_none())),
    ] {
        let small_allocs = allocations(|| parse(&small));
        let big_allocs = allocations(|| parse(&big));
        // Doubling growth takes a response `Vec` from 10 to 1 000 entries
        // in about 7 reallocations; 32 leaves room for nothing per line.
        assert!(
            big_allocs <= small_allocs + 32,
            "{what}: 1 000 responses took {big_allocs} allocations, 10 took {small_allocs}"
        );
    }
}

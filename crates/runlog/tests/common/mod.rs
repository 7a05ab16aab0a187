//! Generators shared by the codec's property and differential tests:
//! whole run logs with adversarial embedded specs and bit-pattern floats,
//! and the single-digit mutations the property tests make of a render.

use craqr_runlog::{
    ActionRecord, AdmissionRecord, ChargeRecord, EpochRecord, ResponseRecord, RunLog, ShiftEvent,
    ValueRecord,
};
use rand::rngs::StdRng;
use rand::Rng;

/// A finite f64 drawn from raw bit patterns — exercises subnormals,
/// huge/tiny magnitudes, and negative zero, not just "nice" decimals.
fn arb_f64(rng: &mut StdRng) -> f64 {
    loop {
        let f = f64::from_bits(rng.gen());
        if f.is_finite() {
            return f;
        }
    }
}

fn arb_rect(rng: &mut StdRng) -> (f64, f64, f64, f64) {
    (arb_f64(rng), arb_f64(rng), arb_f64(rng), arb_f64(rng))
}

fn arb_shift(rng: &mut StdRng) -> ShiftEvent {
    match rng.gen_range(0u8..3) {
        0 => ShiftEvent::Participation { factor: arb_f64(rng) },
        1 => ShiftEvent::Dropout { probability: arb_f64(rng), rect: arb_rect(rng) },
        _ => ShiftEvent::Migrate { probability: arb_f64(rng), rect: arb_rect(rng) },
    }
}

fn arb_response(rng: &mut StdRng) -> ResponseRecord {
    ResponseRecord {
        sensor: rng.gen(),
        attr: rng.gen(),
        t: arb_f64(rng),
        x: arb_f64(rng),
        y: arb_f64(rng),
        value: if rng.gen() {
            ValueRecord::Bool(rng.gen())
        } else {
            ValueRecord::Float(arb_f64(rng))
        },
        issued_at: arb_f64(rng),
    }
}

fn arb_action(rng: &mut StdRng) -> ActionRecord {
    let cell = (rng.gen_range(0u32..64), rng.gen_range(0u32..64));
    let attr = rng.gen::<u16>();
    if rng.gen() {
        ActionRecord::SetBudget { cell, attr, budget: arb_f64(rng) }
    } else {
        ActionRecord::RebuildChain { cell, attr }
    }
}

/// An embedded spec with adversarial content: lines that *look* like
/// runlog records must pass through untouched (the parser counts lines,
/// it never interprets them).
fn arb_spec_toml(rng: &mut StdRng) -> String {
    let tricky = [
        "name = \"prop\"",
        "[epoch 0]",
        "end epoch=0 crc=0xdeadbeefdeadbeef",
        "checksum: 0x0000000000000000",
        "[final]",
        "r s=1 a=2 t=3 x=4 y=5 v=f6 issued=7",
        "",
        "   indented = true   ",
        "# craqr runlog v1",
        "unicode = \"λ✓π\"",
    ];
    let n = rng.gen_range(0usize..12);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(tricky[rng.gen_range(0..tricky.len())]);
        s.push('\n');
    }
    s
}

fn arb_admission(rng: &mut StdRng, submission: u32) -> AdmissionRecord {
    AdmissionRecord {
        tenant: rng.gen_range(0u32..8),
        submission,
        demand: arb_f64(rng),
        committed: arb_f64(rng),
        capacity: arb_f64(rng),
        admitted: rng.gen(),
    }
}

fn arb_charge(rng: &mut StdRng) -> ChargeRecord {
    ChargeRecord { tenant: rng.gen_range(0u32..8), spent: arb_f64(rng) }
}

pub fn arb_log(rng: &mut StdRng) -> RunLog {
    let epochs = (0..rng.gen_range(0usize..6))
        .map(|epoch| EpochRecord {
            epoch: epoch as u64,
            shifts: (0..rng.gen_range(0usize..3)).map(|_| arb_shift(rng)).collect(),
            requested: rng.gen(),
            sent: rng.gen(),
            dropped: 0,
            delayed: 0,
            duplicated: 0,
            responses: (0..rng.gen_range(0usize..8)).map(|_| arb_response(rng)).collect(),
            actions: (0..rng.gen_range(0usize..4)).map(|_| arb_action(rng)).collect(),
            charges: (0..rng.gen_range(0usize..4)).map(|_| arb_charge(rng)).collect(),
        })
        .collect();
    RunLog {
        scenario: format!("prop_{}", rng.gen_range(0u32..1000)),
        seed: rng.gen(),
        spec_toml: arb_spec_toml(rng),
        admissions: (0..rng.gen_range(0usize..5)).map(|i| arb_admission(rng, i as u32)).collect(),
        epochs,
        report_checksum: if rng.gen() { Some(rng.gen()) } else { None },
        trace_checksum: if rng.gen() { Some(rng.gen()) } else { None },
    }
}

/// Byte offsets of every ASCII digit in `text`: where a single-line
/// mutation can land.
pub fn digit_positions(text: &str) -> Vec<usize> {
    text.char_indices().filter(|(_, c)| c.is_ascii_digit()).map(|(i, _)| i).collect()
}

/// `text` with the digit at byte `at` bumped by one (9 wraps to 0).
pub fn bump_digit(text: &str, at: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    bytes[at] = if bytes[at] == b'9' { b'0' } else { bytes[at] + 1 };
    String::from_utf8(bytes).expect("a digit swapped for a digit keeps the text UTF-8")
}

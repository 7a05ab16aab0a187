//! Property tests for the salvage parser: truncate a valid rendered log
//! at *every byte offset* — not just record boundaries — and check that
//! the salvaged prefix always re-parses clean and never claims more
//! epochs than the truncated bytes durably contain.

use craqr_runlog::{
    parse_salvage, ActionRecord, AdmissionRecord, ChargeRecord, EpochRecord, ResponseRecord,
    RunLog, ShiftEvent, ValueRecord,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_f64(rng: &mut StdRng) -> f64 {
    loop {
        let f = f64::from_bits(rng.gen());
        if f.is_finite() {
            return f;
        }
    }
}

fn arb_log(rng: &mut StdRng) -> RunLog {
    let epochs = (0..rng.gen_range(0usize..5))
        .map(|epoch| EpochRecord {
            epoch: epoch as u64,
            shifts: if rng.gen() {
                vec![ShiftEvent::Participation { factor: arb_f64(rng) }]
            } else {
                vec![]
            },
            requested: rng.gen(),
            sent: rng.gen(),
            dropped: 0,
            delayed: 0,
            duplicated: 0,
            responses: (0..rng.gen_range(0usize..5))
                .map(|_| ResponseRecord {
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
                })
                .collect(),
            actions: if rng.gen() {
                vec![ActionRecord::RebuildChain {
                    cell: (rng.gen_range(0u32..9), rng.gen_range(0u32..9)),
                    attr: rng.gen(),
                }]
            } else {
                vec![]
            },
            charges: if rng.gen() {
                vec![ChargeRecord { tenant: rng.gen_range(0u32..4), spent: arb_f64(rng) }]
            } else {
                vec![]
            },
        })
        .collect();
    RunLog {
        scenario: format!("salvage_{}", rng.gen_range(0u32..1000)),
        seed: rng.gen(),
        // Adversarial embedded spec: record-lookalike lines must neither
        // parse as records nor confuse the tear accounting.
        spec_toml: "name = \"salvage\"\n[epoch 0]\nend epoch=0 crc=0xdeadbeefdeadbeef\n".into(),
        admissions: (0..rng.gen_range(0usize..3))
            .map(|i| AdmissionRecord {
                tenant: rng.gen_range(0u32..4),
                submission: i as u32,
                demand: arb_f64(rng),
                committed: arb_f64(rng),
                capacity: arb_f64(rng),
                admitted: rng.gen(),
            })
            .collect(),
        epochs,
        report_checksum: if rng.gen() { Some(rng.gen()) } else { None },
        trace_checksum: if rng.gen() { Some(rng.gen()) } else { None },
    }
}

/// Byte offset of the first line that leaves the header (the first
/// `[epoch …]` / `[final]` line). Any cut at or past this point has a
/// complete header and therefore must salvage.
fn header_len(text: &str) -> usize {
    let mut offset = 0;
    let mut spec_left = 0usize;
    for line in text.split_inclusive('\n') {
        if spec_left > 0 {
            // Embedded spec lines are opaque — `[epoch …]` lookalikes in
            // the spec must not end the header scan.
            spec_left -= 1;
        } else if let Some(n) = line.strip_prefix("spec-lines: ") {
            spec_left = n.trim().parse().unwrap();
        } else if line.starts_with("[epoch ") || line.starts_with("[final]") {
            return offset;
        }
        offset += line.len();
    }
    offset
}

/// Upper bound on the durable epochs in `prefix`: complete,
/// newline-terminated `end epoch=` lines (lines inside the embedded spec
/// can only inflate the bound, never shrink it).
fn durable_bound(prefix: &str) -> usize {
    prefix
        .split_inclusive('\n')
        .filter(|l| {
            // Newline-terminated end lines are complete; an unterminated
            // final end line still counts if all 16 CRC hex digits made
            // it (the fixed-width render means a shorter tail is a cut).
            l.starts_with("end epoch=")
                && (l.ends_with('\n')
                    || l.rsplit_once("crc=0x").is_some_and(|(_, hex)| hex.trim().len() == 16))
        })
        .count()
}

fn check_every_offset(log: &RunLog) {
    let text = log.canonical();
    let header = header_len(&text);
    // The salvaged log only changes at epoch boundaries, so the re-parse
    // below runs once per distinct log rather than once per byte.
    let mut reparsed: Option<RunLog> = None;
    for cut in 0..=text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let prefix = &text[..cut];
        let salvage = match parse_salvage(prefix) {
            Ok(s) => s,
            Err(e) => {
                assert!(
                    cut < header,
                    "cut at byte {cut} (header ends at {header}) failed to salvage: {e}"
                );
                continue;
            }
        };
        // The salvaged prefix always re-parses clean…
        if reparsed.as_ref() != Some(&salvage.log) {
            let canon = salvage.log.canonical();
            if let Err(e) = RunLog::parse(&canon) {
                panic!("salvage of cut {cut} does not re-parse: {e}\n{canon}");
            }
            reparsed = Some(salvage.log.clone());
        }
        // …and never exceeds the last durable epoch boundary.
        assert!(
            salvage.log.epochs.len() <= durable_bound(prefix),
            "cut at byte {cut}: salvaged {} epochs from {} durable end lines",
            salvage.log.epochs.len(),
            durable_bound(prefix)
        );
        assert!(salvage.log.epochs.len() <= log.epochs.len());
        match salvage.torn {
            // Only a (semantically) complete document salvages tear-free:
            // the full text, or the full text minus its final newline.
            None => {
                assert!(cut >= text.len() - 1, "cut at byte {cut} salvaged with no tear");
                assert_eq!(&salvage.log, log, "a complete document salvages to itself");
            }
            Some(torn) => {
                assert!(cut < text.len(), "the complete document reported a tear");
                assert_eq!(
                    torn.valid_bytes + torn.discarded_bytes,
                    cut,
                    "tear bytes must tile the cut"
                );
                assert!(torn.line >= 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn truncation_at_every_byte_offset_salvages_cleanly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = arb_log(&mut rng);
        check_every_offset(&log);
    }
}

#[test]
fn empty_and_sealed_edge_logs_survive_every_offset() {
    let empty = RunLog {
        scenario: "edge".into(),
        seed: 0,
        spec_toml: String::new(),
        admissions: vec![],
        epochs: vec![],
        report_checksum: None,
        trace_checksum: None,
    };
    check_every_offset(&empty);
    let sealed = RunLog {
        epochs: vec![EpochRecord { epoch: 0, requested: 3, sent: 3, ..Default::default() }],
        report_checksum: Some(0xABCD),
        trace_checksum: Some(0x1234),
        ..empty
    };
    check_every_offset(&sealed);
}

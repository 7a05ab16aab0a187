//! Property tests for the run-log codec: `parse(render(log)) == log`
//! over generated logs — including adversarial embedded specs and
//! bit-pattern floats — plus integrity-failure detection on mutation.

mod common;

use common::{arb_log, bump_digit, digit_positions};
use craqr_runlog::RunLog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_is_the_identity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = arb_log(&mut rng);
        let text = log.canonical();
        prop_assert_eq!(&text, &log.canonical(), "rendering is not deterministic");
        let parsed = RunLog::parse(&text);
        prop_assert!(parsed.is_ok(), "re-parse failed: {:?}\n{}", parsed.err(), text);
        prop_assert_eq!(&parsed.unwrap(), &log, "round trip changed the log:\n{}", text);
    }

    #[test]
    fn single_line_mutations_never_parse_cleanly_as_the_same_log(seed in any::<u64>()) {
        // Flip one digit somewhere in a rendered log: either the parse
        // fails (structure/checksum) or — if the mutation landed in the
        // opaque spec block — the parsed log differs from the original.
        // A mutation that parses back *equal* would mean the codec
        // ignores content, which is exactly what the checksums forbid.
        let mut rng = StdRng::seed_from_u64(seed);
        let log = arb_log(&mut rng);
        let text = log.canonical();
        let digits = digit_positions(&text);
        prop_assume!(!digits.is_empty());
        let at = digits[rng.gen_range(0..digits.len())];
        match RunLog::parse(&bump_digit(&text, at)) {
            Err(_) => {}
            Ok(reparsed) => prop_assert!(
                reparsed != log,
                "a content mutation at byte {at} parsed back as the identical log"
            ),
        }
    }
}

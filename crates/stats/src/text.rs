//! The workspace's one shortest-roundtrip float formatter.
//!
//! Canonical text artifacts (scenario reports, adaptive traces, run
//! logs) must render floats so they parse back **bit-identically** while
//! still reading as floats in a diff. Like [`crate::fnv`], this used to
//! be re-implemented per consumer; one copy means the scenario codec and
//! the run-log codec can never drift on how the same value prints.

use std::fmt::Write;

/// Appends a float to `out` so it parses back bit-identically *and*
/// still reads as a float (`1` becomes `1.0`) — Rust's shortest-roundtrip
/// `{}` plus a `.0` guarantee. Writers that render many floats into one
/// buffer call this; [`format_float`] is the same text in a fresh
/// `String`.
pub fn write_float(out: &mut String, f: f64) {
    let start = out.len();
    let _ = write!(out, "{f}");
    // `{}` never writes an exponent; what it writes for a non-finite
    // value ("inf", "-inf", "NaN") already reads as a float.
    if !out[start..].bytes().any(|b| matches!(b, b'.' | b'e' | b'E' | b'i' | b'N')) {
        out.push_str(".0");
    }
}

/// Formats a float so it parses back bit-identically *and* still reads
/// as a float (see [`write_float`]).
pub fn format_float(f: f64) -> String {
    let mut s = String::new();
    write_float(&mut s, f);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Appends `f` after a prefix that already holds every marker the
    /// `.0` rule looks for, and checks the appended part alone.
    fn check_appended(f: f64) -> Result<(), TestCaseError> {
        const PREFIX: &str = "x=1.5 e=inf v=NaN t=";
        let mut out = PREFIX.to_string();
        write_float(&mut out, f);
        prop_assert!(out.starts_with(PREFIX), "prefix clobbered: '{out}'");
        let appended = &out[PREFIX.len()..];
        prop_assert_eq!(appended, format_float(f));
        prop_assert!(
            appended.contains('.') || appended.contains("inf") || appended == "NaN",
            "{f:?} → '{appended}' does not read as a float"
        );
        let back: f64 = appended.parse().unwrap();
        if f.is_nan() {
            prop_assert!(back.is_nan(), "{f:?} → '{appended}' → {back}");
        } else {
            prop_assert_eq!(back.to_bits(), f.to_bits(), "{f:?} → '{appended}' → {back}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn write_float_appends_and_round_trips(bits in any::<u64>()) {
            check_appended(f64::from_bits(bits))?;
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let edges = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            1.0,
            -42.0,
            2f64.powi(53),
            1e300,
            -1e-300,
            f64::MAX,
            0.1,
            123_456_789.123_456_78,
        ];
        for f in edges {
            check_appended(f).unwrap_or_else(|e| panic!("{f:?}: {}", e.message));
        }
    }

    #[test]
    fn integers_still_read_as_floats() {
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(-42.0), "-42.0");
        assert_eq!(format_float(-0.0), "-0.0");
        assert_eq!(format_float(f64::INFINITY), "inf");
        assert_eq!(format_float(f64::NAN), "NaN");
    }
}

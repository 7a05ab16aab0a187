//! The admissible range of a float knob, stated once.
//!
//! Each acquisition knob admits one range: a batch duration is `> 0`, an
//! `F` headroom `>= 1`, a flip probability in `[0,1]`. The type that
//! enforces a knob declares its range as an [`Interval`] constant beside
//! the field (`PlannerConfig::BATCH_DURATION`, `RetryPolicy::BACKOFF`, …),
//! and every layer that checks the knob reads that constant: the scenario
//! schema's range walk, the runtime configs' `validate` functions, the
//! constructors' asserts and the CLI. They therefore agree on what is
//! valid and print the same message for what is not.

/// A set of admissible `f64` values. Every interval rejects NaN and ±∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interval {
    /// Any finite value.
    Finite,
    /// `> 0`, finite.
    Positive,
    /// `>= 0`, finite.
    NonNeg,
    /// `>= 1`, finite.
    AtLeastOne,
    /// `[0, 1]`.
    Unit,
    /// `[0, 1)`.
    HalfUnit,
    /// `(0, 1]`.
    UnitPositive,
    /// `[0, 100]`.
    Percent,
}

impl Interval {
    /// The message for a `v` outside the interval — `must be > 0, got -1`,
    /// `must be in (0,1], got 1.5` — or `None` when `v` is inside.
    pub fn violation(self, v: f64) -> Option<String> {
        let finite = v.is_finite();
        let (ok, rule) = match self {
            Interval::Finite => (finite, "finite"),
            Interval::Positive => (finite && v > 0.0, "> 0"),
            Interval::NonNeg => (finite && v >= 0.0, ">= 0"),
            Interval::AtLeastOne => (finite && v >= 1.0, ">= 1"),
            Interval::Unit => ((0.0..=1.0).contains(&v), "in [0,1]"),
            Interval::HalfUnit => ((0.0..1.0).contains(&v), "in [0,1)"),
            Interval::UnitPositive => (v > 0.0 && v <= 1.0, "in (0,1]"),
            Interval::Percent => ((0.0..=100.0).contains(&v), "in [0,100]"),
        };
        match self {
            _ if ok => None,
            // No document can spell a non-finite float: there is no "got".
            Interval::Finite => Some("must be finite".into()),
            _ => Some(format!("must be {rule}, got {v}")),
        }
    }

    /// A validator's check: `Err((path, message))` when `v` is outside.
    pub fn check(self, path: &'static str, v: f64) -> Result<(), (&'static str, String)> {
        self.violation(v).map_or(Ok(()), |message| Err((path, message)))
    }

    /// A constructor's check: panics with `<name> <message>` when `v` is
    /// outside.
    #[track_caller]
    pub fn assert(self, name: &str, v: f64) {
        if let Some(message) = self.violation(v) {
            panic!("{name} {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_and_messages() {
        let cases = [
            (Interval::Positive, 1e-300, 0.0, "must be > 0, got 0"),
            (Interval::NonNeg, 0.0, -1.0, "must be >= 0, got -1"),
            (Interval::AtLeastOne, 1.0, 0.5, "must be >= 1, got 0.5"),
            (Interval::Unit, 1.0, 1.5, "must be in [0,1], got 1.5"),
            (Interval::HalfUnit, 0.0, 1.0, "must be in [0,1), got 1"),
            (Interval::UnitPositive, 1.0, 0.0, "must be in (0,1], got 0"),
            (Interval::Percent, 100.0, 100.5, "must be in [0,100], got 100.5"),
        ];
        for (interval, inside, outside, message) in cases {
            assert_eq!(interval.check("k", inside), Ok(()), "{interval:?}");
            assert_eq!(interval.check("k", outside), Err(("k", message.to_string())));
            assert!(interval.violation(f64::NAN).is_some(), "{interval:?} admits NaN");
            assert!(interval.violation(f64::INFINITY).is_some(), "{interval:?} admits inf");
        }
        assert_eq!(Interval::Finite.violation(f64::NAN).as_deref(), Some("must be finite"));
        assert_eq!(Interval::Finite.violation(-1e300), None);
    }

    #[test]
    #[should_panic(expected = "speed must be > 0, got NaN")]
    fn assert_names_the_knob() {
        Interval::Positive.assert("speed", f64::NAN);
    }
}

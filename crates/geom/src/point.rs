//! Space-time coordinates of crowdsensed tuples.

/// The space-time coordinates `(t, x, y)` of a crowdsensed tuple.
///
/// The paper models each attribute's arrivals as a 3-D point process over the
/// dimensions time × x × y (Section III-A); a tuple of attribute `A⟨j⟩` is
/// `(t⟨j⟩ᵢ, x⟨j⟩ᵢ, y⟨j⟩ᵢ, a⟨j⟩ᵢ)` and this struct carries its first three
/// entries. Units are minutes for `t` and kilometres for `x`/`y` throughout
/// the workspace, matching the paper's example rate of `10 /km²/min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceTimePoint {
    /// Time coordinate (minutes since the start of the stream).
    pub t: f64,
    /// Easting (kilometres).
    pub x: f64,
    /// Northing (kilometres).
    pub y: f64,
}

impl SpaceTimePoint {
    /// Creates a point at `(t, x, y)`.
    #[inline]
    pub fn new(t: f64, x: f64, y: f64) -> Self {
        Self { t, x, y }
    }

    /// Returns the point translated by `(dt, dx, dy)`.
    #[inline]
    pub fn translated(&self, dt: f64, dx: f64, dy: f64) -> Self {
        Self::new(self.t + dt, self.x + dx, self.y + dy)
    }

    /// `true` when all three coordinates are finite.
    ///
    /// Malformed GPS fixes (the error sources of Section VI) can produce
    /// NaN/∞ after arithmetic; the fabricator rejects such tuples up front.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.t.is_finite() && self.x.is_finite() && self.y.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_moves_all_axes() {
        let p = SpaceTimePoint::new(1.0, 2.0, 3.0).translated(0.5, -1.0, 2.0);
        assert_eq!(p, SpaceTimePoint::new(1.5, 1.0, 5.0));
    }

    #[test]
    fn finiteness_check_rejects_nan_and_inf() {
        assert!(SpaceTimePoint::new(0.0, 0.0, 0.0).is_finite());
        assert!(!SpaceTimePoint::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!SpaceTimePoint::new(0.0, f64::INFINITY, 0.0).is_finite());
        assert!(!SpaceTimePoint::new(0.0, 0.0, f64::NEG_INFINITY).is_finite());
    }
}

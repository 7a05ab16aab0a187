//! Space-time observation windows.

use crate::{Rect, SpaceTimePoint};

/// A rectangle extruded over a half-open time interval `[t0, t1)`.
///
/// A 3-D MDPP with rate `λ` observed in a window `W` yields
/// `Poisson(λ · volume(W))` points, where `volume = area(rect) · (t1 − t0)`
/// in km²·min. Windows therefore appear wherever the paper speaks of a rate
/// "per unit area and time": process sampling, rate estimation, the
/// flatten/thin correctness checks, and the fabricator's batch boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceTimeWindow {
    /// Spatial footprint.
    pub rect: Rect,
    /// Start time (inclusive, minutes).
    pub t0: f64,
    /// End time (exclusive, minutes).
    pub t1: f64,
}

impl SpaceTimeWindow {
    /// Creates a window over `rect` during `[t0, t1)`.
    ///
    /// # Panics
    /// Panics when the time interval is empty or non-finite.
    #[track_caller]
    pub fn new(rect: Rect, t0: f64, t1: f64) -> Self {
        assert!(t0.is_finite() && t1.is_finite(), "window times must be finite");
        assert!(t1 > t0, "window must have positive duration: [{t0},{t1})");
        Self { rect, t0, t1 }
    }

    /// Duration in minutes.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Volume in km²·min — the normalizer of every spatio-temporal rate.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.rect.area() * self.duration()
    }

    /// Half-open containment of a space-time point.
    #[inline]
    pub fn contains(&self, p: &SpaceTimePoint) -> bool {
        p.t >= self.t0 && p.t < self.t1 && self.rect.contains(p.x, p.y)
    }

    /// The empirical rate (points / km² / min) of `n` points in this window.
    #[inline]
    pub fn empirical_rate(&self, n: usize) -> f64 {
        n as f64 / self.volume()
    }

    /// Restricts the window to a smaller spatial footprint.
    ///
    /// Returns `None` when `rect` does not overlap the window's footprint.
    pub fn restricted_to(&self, rect: &Rect) -> Option<SpaceTimeWindow> {
        self.rect.intersection(rect).map(|r| SpaceTimeWindow::new(r, self.t0, self.t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> SpaceTimeWindow {
        SpaceTimeWindow::new(Rect::new(0.0, 0.0, 2.0, 3.0), 10.0, 20.0)
    }

    #[test]
    fn volume_is_area_times_duration() {
        assert!((w().volume() - 60.0).abs() < 1e-12);
        assert_eq!(w().duration(), 10.0);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_interval_rejected() {
        let _ = SpaceTimeWindow::new(Rect::with_size(1.0, 1.0), 5.0, 5.0);
    }

    #[test]
    fn containment_checks_space_and_time() {
        let win = w();
        assert!(win.contains(&SpaceTimePoint::new(10.0, 0.0, 0.0)));
        assert!(win.contains(&SpaceTimePoint::new(19.999, 1.9, 2.9)));
        assert!(!win.contains(&SpaceTimePoint::new(20.0, 1.0, 1.0)), "t1 exclusive");
        assert!(!win.contains(&SpaceTimePoint::new(9.999, 1.0, 1.0)));
        assert!(!win.contains(&SpaceTimePoint::new(15.0, 2.0, 1.0)), "x1 exclusive");
    }

    #[test]
    fn empirical_rate_normalizes_by_volume() {
        assert!((w().empirical_rate(120) - 2.0).abs() < 1e-12);
        assert_eq!(w().empirical_rate(0), 0.0);
    }

    #[test]
    fn restriction_intersects_footprint() {
        let win = w();
        let r = win.restricted_to(&Rect::new(1.0, 1.0, 5.0, 5.0)).unwrap();
        assert!(r.rect.approx_eq(&Rect::new(1.0, 1.0, 2.0, 3.0)));
        assert_eq!(r.t0, win.t0);
        assert!(win.restricted_to(&Rect::new(10.0, 10.0, 11.0, 11.0)).is_none());
    }
}

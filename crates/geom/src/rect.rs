//! Axis-aligned half-open rectangles.

use crate::{feq, GEOM_EPS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An axis-aligned rectangle `[x0, x1) × [y0, y1)` in kilometres.
///
/// Rectangles are the only region primitive the paper needs: query regions,
/// grid cells, and the operands of the `P`/`U` operators are all rectangles.
/// Half-open extents make a [`crate::Grid`] tile its region exactly: a point
/// on a shared cell edge belongs to exactly one cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum x (inclusive).
    pub x0: f64,
    /// Minimum y (inclusive).
    pub y0: f64,
    /// Maximum x (exclusive).
    pub x1: f64,
    /// Maximum y (exclusive).
    pub y1: f64,
}

impl Rect {
    /// Creates `[x0, x1) × [y0, y1)`.
    ///
    /// # Panics
    /// Panics if the extents are inverted, non-finite, or degenerate
    /// (zero-area rectangles cannot carry a rate and are rejected early).
    #[track_caller]
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        assert!(
            x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite(),
            "rect extents must be finite"
        );
        assert!(x1 > x0 && y1 > y0, "rect must have positive area: [{x0},{x1})x[{y0},{y1})");
        Self { x0, y0, x1, y1 }
    }

    /// A rectangle anchored at the origin with the given width and height.
    pub fn with_size(width: f64, height: f64) -> Self {
        Self::new(0.0, 0.0, width, height)
    }

    /// Width along x (km).
    #[inline]
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height along y (km).
    #[inline]
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area in km² — `area(·)` of the paper's Eq. (2).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre of the rectangle.
    #[inline]
    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) * 0.5, (self.y0 + self.y1) * 0.5)
    }

    /// Half-open containment test.
    #[inline]
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// `true` if `other` lies entirely inside `self` (closure inclusive on
    /// the max edge: a rect *is* contained in itself).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0 - GEOM_EPS
            && other.y0 >= self.y0 - GEOM_EPS
            && other.x1 <= self.x1 + GEOM_EPS
            && other.y1 <= self.y1 + GEOM_EPS
    }

    /// `true` when the interiors overlap (touching edges do not count).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 - GEOM_EPS
            && other.x0 < self.x1 - GEOM_EPS
            && self.y0 < other.y1 - GEOM_EPS
            && other.y0 < self.y1 - GEOM_EPS
    }

    /// Intersection rectangle, or `None` when interiors are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            self.x0.max(other.x0),
            self.y0.max(other.y0),
            self.x1.min(other.x1),
            self.y1.min(other.y1),
        ))
    }

    /// Fraction of `self`'s area covered by `other` (0 when disjoint).
    pub fn overlap_fraction(&self, other: &Rect) -> f64 {
        self.intersection(other).map_or(0.0, |i| i.area() / self.area())
    }

    /// The union precondition of the paper's `U` operator: "the rectangles
    /// should be adjacent and with a common side of equal length".
    ///
    /// Returns `true` when `self` and `other` share a *full* common side —
    /// i.e. they abut along x or y and both the offset and length of the
    /// shared side match within [`GEOM_EPS`].
    pub fn shares_full_side(&self, other: &Rect) -> bool {
        let same_y_span = feq(self.y0, other.y0) && feq(self.y1, other.y1);
        let same_x_span = feq(self.x0, other.x0) && feq(self.x1, other.x1);
        let abut_x = feq(self.x1, other.x0) || feq(other.x1, self.x0);
        let abut_y = feq(self.y1, other.y0) || feq(other.y1, self.y0);
        (same_y_span && abut_x) || (same_x_span && abut_y)
    }

    /// Merges two rectangles that satisfy [`Rect::shares_full_side`]; the
    /// result is the exact rectangular union `R*₃ = R*₁ ∪ R*₂`.
    ///
    /// Returns `None` when the precondition fails (the planner treats this as
    /// a planning bug, the operator as a configuration error).
    pub fn union_adjacent(&self, other: &Rect) -> Option<Rect> {
        if !self.shares_full_side(other) {
            return None;
        }
        Some(Rect::new(
            self.x0.min(other.x0),
            self.y0.min(other.y0),
            self.x1.max(other.x1),
            self.y1.max(other.y1),
        ))
    }

    /// Splits this rectangle at `x` into `(left, right)` halves.
    ///
    /// Used by the planner to carve a query's footprint out of a grid cell.
    /// Returns `None` when `x` is not strictly inside the x-extent.
    pub fn split_at_x(&self, x: f64) -> Option<(Rect, Rect)> {
        if x <= self.x0 + GEOM_EPS || x >= self.x1 - GEOM_EPS {
            return None;
        }
        Some((Rect::new(self.x0, self.y0, x, self.y1), Rect::new(x, self.y0, self.x1, self.y1)))
    }

    /// Splits this rectangle at `y` into `(bottom, top)` halves.
    pub fn split_at_y(&self, y: f64) -> Option<(Rect, Rect)> {
        if y <= self.y0 + GEOM_EPS || y >= self.y1 - GEOM_EPS {
            return None;
        }
        Some((Rect::new(self.x0, self.y0, self.x1, y), Rect::new(self.x0, y, self.x1, self.y1)))
    }

    /// Subtracts `other` from `self`, returning the remainder as at most four
    /// disjoint rectangles (a "guillotine" decomposition: bottom, top, left,
    /// right bands). The pieces tile `self \ other` exactly.
    pub fn subtract(&self, other: &Rect) -> Vec<Rect> {
        let Some(hole) = self.intersection(other) else {
            return vec![*self];
        };
        let mut out = Vec::with_capacity(4);
        // Bottom band (full width).
        if hole.y0 > self.y0 + GEOM_EPS {
            out.push(Rect::new(self.x0, self.y0, self.x1, hole.y0));
        }
        // Top band (full width).
        if hole.y1 < self.y1 - GEOM_EPS {
            out.push(Rect::new(self.x0, hole.y1, self.x1, self.y1));
        }
        // Left band (restricted to the hole's y-span).
        if hole.x0 > self.x0 + GEOM_EPS {
            out.push(Rect::new(self.x0, hole.y0, hole.x0, hole.y1));
        }
        // Right band.
        if hole.x1 < self.x1 - GEOM_EPS {
            out.push(Rect::new(hole.x1, hole.y0, self.x1, hole.y1));
        }
        out
    }

    /// Approximate equality within [`GEOM_EPS`] on every edge.
    pub fn approx_eq(&self, other: &Rect) -> bool {
        feq(self.x0, other.x0)
            && feq(self.y0, other.y0)
            && feq(self.x1, other.x1)
            && feq(self.y1, other.y1)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3},{:.3})x[{:.3},{:.3})", self.x0, self.x1, self.y0, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn area_and_size() {
        let r = Rect::new(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), (2.5, 4.0));
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn degenerate_rect_rejected() {
        let _ = Rect::new(0.0, 0.0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rect_rejected() {
        let _ = Rect::new(0.0, 0.0, f64::NAN, 1.0);
    }

    #[test]
    fn containment_is_half_open() {
        let r = unit();
        assert!(r.contains(0.0, 0.0));
        assert!(r.contains(0.999_999, 0.999_999));
        assert!(!r.contains(1.0, 0.5));
        assert!(!r.contains(0.5, 1.0));
    }

    #[test]
    fn intersection_of_overlapping_rects() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        let i = a.intersection(&b).unwrap();
        assert!(i.approx_eq(&Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert!((a.overlap_fraction(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn touching_edges_do_not_intersect() {
        let a = unit();
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.overlap_fraction(&b), 0.0);
    }

    #[test]
    fn full_side_adjacency_horizontal() {
        let a = unit();
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.shares_full_side(&b));
        assert!(b.shares_full_side(&a));
        let u = a.union_adjacent(&b).unwrap();
        assert!(u.approx_eq(&Rect::new(0.0, 0.0, 2.0, 1.0)));
    }

    #[test]
    fn full_side_adjacency_vertical() {
        let a = unit();
        let b = Rect::new(0.0, 1.0, 1.0, 2.0);
        let u = a.union_adjacent(&b).unwrap();
        assert!(u.approx_eq(&Rect::new(0.0, 0.0, 1.0, 2.0)));
    }

    #[test]
    fn partial_side_adjacency_rejected() {
        // Same abutting edge but different lengths: paper's precondition fails.
        let a = unit();
        let b = Rect::new(1.0, 0.0, 2.0, 0.5);
        assert!(!a.shares_full_side(&b));
        assert!(a.union_adjacent(&b).is_none());
    }

    #[test]
    fn diagonal_neighbours_rejected() {
        let a = unit();
        let b = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!(!a.shares_full_side(&b));
    }

    #[test]
    fn overlapping_rects_are_not_adjacent() {
        let a = unit();
        let b = Rect::new(0.5, 0.0, 1.5, 1.0);
        assert!(!a.shares_full_side(&b));
    }

    #[test]
    fn split_at_x_partitions_area() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        let (l, rr) = r.split_at_x(1.0).unwrap();
        assert!((l.area() + rr.area() - r.area()).abs() < 1e-12);
        assert!(l.shares_full_side(&rr));
        assert!(r.split_at_x(0.0).is_none());
        assert!(r.split_at_x(4.0).is_none());
    }

    #[test]
    fn split_at_y_partitions_area() {
        let r = Rect::new(0.0, 0.0, 2.0, 4.0);
        let (b, t) = r.split_at_y(3.0).unwrap();
        assert!((b.area() + t.area() - r.area()).abs() < 1e-12);
        assert!(b.shares_full_side(&t));
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = unit();
        let b = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_contained_hole_yields_four_bands() {
        let outer = Rect::new(0.0, 0.0, 3.0, 3.0);
        let hole = Rect::new(1.0, 1.0, 2.0, 2.0);
        let parts = outer.subtract(&hole);
        assert_eq!(parts.len(), 4);
        let total: f64 = parts.iter().map(Rect::area).sum();
        assert!((total - (outer.area() - hole.area())).abs() < 1e-9);
        // Pieces must be pairwise disjoint and not cover the hole.
        for (i, p) in parts.iter().enumerate() {
            assert!(!p.intersects(&hole));
            for q in &parts[i + 1..] {
                assert!(!p.intersects(q), "{p} intersects {q}");
            }
        }
    }

    #[test]
    fn subtract_corner_overlap() {
        let outer = unit();
        let bite = Rect::new(0.5, 0.5, 2.0, 2.0);
        let parts = outer.subtract(&bite);
        let total: f64 = parts.iter().map(Rect::area).sum();
        assert!((total - 0.75).abs() < 1e-9);
    }

    #[test]
    fn subtract_covering_rect_yields_empty() {
        let inner = unit();
        let cover = Rect::new(-1.0, -1.0, 2.0, 2.0);
        assert!(inner.subtract(&cover).is_empty());
    }
}

//! The `√h × √h` logical grid of Section IV.

use crate::{Rect, GEOM_EPS};
use std::fmt;

/// Identifier of the grid cell `R(q,r)`.
///
/// `q` indexes columns (x axis) and `r` rows (y axis), both 0-based; the
/// paper's Fig. 2 uses 1-based `(q, r)` labels, a pure display convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index along x.
    pub q: u32,
    /// Row index along y.
    pub r: u32,
}

impl CellId {
    /// Creates a cell id `(q, r)`.
    #[inline]
    pub fn new(q: u32, r: u32) -> Self {
        Self { q, r }
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.q, self.r)
    }
}

/// A cell intersected by a query region: the overlap geometry the planner
/// uses to decide whether a `P`-operator is needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOverlap {
    /// Which cell.
    pub cell: CellId,
    /// The intersection of the query region with the cell.
    pub overlap: Rect,
    /// `overlap.area() / cell.area()` in `(0, 1]`.
    pub fraction: f64,
    /// `true` when the query covers the whole cell (no `P`-operator needed,
    /// as for Q⟨1⟩₁ and Q⟨2⟩₂ in the paper's example).
    pub full: bool,
}

/// The logical partitioning of the region `R` into a `√h × √h` grid of
/// equal-size cells (Section IV).
///
/// The grid is *logical*: it stores no per-cell state. "Only the grid cells
/// that are useful for query processing are materialized" — materialization
/// is the planner's hashmap (`craqr-core`), keyed by [`CellId`]; this type
/// merely answers geometric questions:
///
/// - which cell a tuple falls in ([`Grid::cell_of`], the *map* phase of
///   Fig. 2a), and
/// - which cells a query region overlaps and by how much
///   ([`Grid::cells_overlapping`], used at query insertion).
///
/// Eq. (2) — `area(R) = Σ area(R(q,r))` — holds by construction and is
/// enforced by tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    region: Rect,
    side: u32,
    cell_w: f64,
    cell_h: f64,
}

impl Grid {
    /// Creates a grid with `side × side` cells over `region`.
    ///
    /// `side` is the paper's `√h`; the user-chosen `h = side²` controls "the
    /// granularity at which queries can be processed".
    ///
    /// # Panics
    /// Panics when `side == 0`.
    #[track_caller]
    pub fn new(region: Rect, side: u32) -> Self {
        assert!(side > 0, "grid needs at least one cell per side");
        Self {
            region,
            side,
            cell_w: region.width() / side as f64,
            cell_h: region.height() / side as f64,
        }
    }

    /// The full region `R`.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Cells per side (`√h`).
    #[inline]
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Total number of cells (`h`).
    #[inline]
    pub fn cell_count(&self) -> u32 {
        self.side * self.side
    }

    /// Area of one cell; all cells are equal size, which is why the paper's
    /// budget "does not need a spatial component".
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.cell_w * self.cell_h
    }

    /// The rectangle of cell `R(q,r)`.
    ///
    /// # Panics
    /// Panics when the id is out of range.
    #[track_caller]
    pub fn cell_rect(&self, id: CellId) -> Rect {
        assert!(
            id.q < self.side && id.r < self.side,
            "cell {id} out of range for side {}",
            self.side
        );
        let x0 = self.region.x0 + self.cell_w * id.q as f64;
        let y0 = self.region.y0 + self.cell_h * id.r as f64;
        // Anchor the max edge of the last row/column to the region edge so
        // the cells tile R exactly despite floating-point division.
        let x1 = if id.q + 1 == self.side { self.region.x1 } else { x0 + self.cell_w };
        let y1 = if id.r + 1 == self.side { self.region.y1 } else { y0 + self.cell_h };
        Rect::new(x0, y0, x1, y1)
    }

    /// The cell containing `(x, y)`, or `None` when the point is outside `R`.
    ///
    /// This is the *map* step of Fig. 2(a): every arriving tuple is assigned
    /// to its hashmap key.
    pub fn cell_of(&self, x: f64, y: f64) -> Option<CellId> {
        if !self.region.contains(x, y) {
            return None;
        }
        let q = (((x - self.region.x0) / self.cell_w) as u32).min(self.side - 1);
        let r = (((y - self.region.y0) / self.cell_h) as u32).min(self.side - 1);
        Some(CellId::new(q, r))
    }

    /// Iterates over all cell ids in row-major order.
    pub fn all_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        let side = self.side;
        (0..side).flat_map(move |r| (0..side).map(move |q| CellId::new(q, r)))
    }

    /// Every cell whose interior overlaps `query`, with the overlap geometry.
    ///
    /// This is the first step of query insertion (Section V): "for a given
    /// query region, we compute the amount of overlap that it has with each
    /// grid cell". The scan is restricted to the cell-index bounding box of
    /// the query, so cost is proportional to the number of touched cells,
    /// not `h`.
    pub fn cells_overlapping(&self, query: &Rect) -> Vec<CellOverlap> {
        let Some(clipped) = self.region.intersection(query) else {
            return Vec::new();
        };
        let q0 = (((clipped.x0 - self.region.x0) / self.cell_w) as u32).min(self.side - 1);
        let r0 = (((clipped.y0 - self.region.y0) / self.cell_h) as u32).min(self.side - 1);
        let q1 =
            (((clipped.x1 - self.region.x0 - GEOM_EPS) / self.cell_w) as u32).min(self.side - 1);
        let r1 =
            (((clipped.y1 - self.region.y0 - GEOM_EPS) / self.cell_h) as u32).min(self.side - 1);
        // A query thinner than GEOM_EPS that starts on a cell edge ends
        // before it starts once the tolerance is taken off its far edge.
        if q1 < q0 || r1 < r0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(((q1 - q0 + 1) * (r1 - r0 + 1)) as usize);
        for r in r0..=r1 {
            for q in q0..=q1 {
                let cell = CellId::new(q, r);
                let rect = self.cell_rect(cell);
                if let Some(overlap) = rect.intersection(query) {
                    let fraction = overlap.area() / rect.area();
                    out.push(CellOverlap {
                        cell,
                        overlap,
                        fraction,
                        full: overlap.approx_eq(&rect) || fraction >= 1.0 - 1e-12,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3() -> Grid {
        Grid::new(Rect::new(0.0, 0.0, 3.0, 3.0), 3)
    }

    #[test]
    fn eq2_cell_areas_sum_to_region_area() {
        let g = Grid::new(Rect::new(-1.0, 2.0, 5.0, 9.0), 7);
        let total: f64 = g.all_cells().map(|c| g.cell_rect(c).area()).sum();
        assert!((total - g.region().area()).abs() < 1e-9, "Eq. (2) violated");
    }

    #[test]
    fn cell_rects_tile_without_overlap() {
        let g = grid3();
        let cells: Vec<Rect> = g.all_cells().map(|c| g.cell_rect(c)).collect();
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert!(!a.intersects(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn cell_of_maps_points_to_owning_cell() {
        let g = grid3();
        assert_eq!(g.cell_of(0.5, 0.5), Some(CellId::new(0, 0)));
        assert_eq!(g.cell_of(2.5, 0.5), Some(CellId::new(2, 0)));
        assert_eq!(g.cell_of(0.5, 2.5), Some(CellId::new(0, 2)));
        // Boundary points belong to the cell on the high side (half-open).
        assert_eq!(g.cell_of(1.0, 1.0), Some(CellId::new(1, 1)));
        // Outside the region.
        assert_eq!(g.cell_of(3.0, 1.0), None);
        assert_eq!(g.cell_of(-0.001, 1.0), None);
    }

    #[test]
    fn cell_of_agrees_with_cell_rect() {
        let g = Grid::new(Rect::new(-2.0, 1.0, 7.0, 4.0), 5);
        for c in g.all_cells() {
            let rect = g.cell_rect(c);
            let (cx, cy) = rect.center();
            assert_eq!(g.cell_of(cx, cy), Some(c));
            assert_eq!(g.cell_of(rect.x0, rect.y0), Some(c), "min corner owns its cell");
        }
    }

    #[test]
    fn overlap_with_fully_contained_query() {
        let g = grid3();
        // Query exactly covering cell (1,1).
        let o = g.cells_overlapping(&Rect::new(1.0, 1.0, 2.0, 2.0));
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].cell, CellId::new(1, 1));
        assert!(o[0].full);
        assert!((o[0].fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_with_partial_query() {
        let g = grid3();
        // Query covering the left half of cells (0,0) and (0,1).
        let o = g.cells_overlapping(&Rect::new(0.0, 0.0, 0.5, 2.0));
        assert_eq!(o.len(), 2);
        for co in &o {
            assert!(!co.full);
            assert!((co.fraction - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn overlap_spanning_multiple_cells_mixes_full_and_partial() {
        let g = grid3();
        // 1.5 x 1 query: covers cell (0,0) fully? No: x in [0,1.5) covers
        // (0,0) fully in x? cell (0,0) is [0,1)x[0,1): yes full; (1,0) half.
        let o = g.cells_overlapping(&Rect::new(0.0, 0.0, 1.5, 1.0));
        assert_eq!(o.len(), 2);
        let full: Vec<_> = o.iter().filter(|c| c.full).collect();
        let partial: Vec<_> = o.iter().filter(|c| !c.full).collect();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].cell, CellId::new(0, 0));
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].cell, CellId::new(1, 0));
        assert!((partial[0].fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_areas_sum_to_clipped_query_area() {
        let g = grid3();
        let query = Rect::new(0.3, 0.7, 2.6, 2.9);
        let total: f64 = g.cells_overlapping(&query).iter().map(|c| c.overlap.area()).sum();
        assert!((total - query.area()).abs() < 1e-9);
    }

    #[test]
    fn query_outside_region_touches_nothing() {
        let g = grid3();
        assert!(g.cells_overlapping(&Rect::new(10.0, 10.0, 11.0, 11.0)).is_empty());
    }

    #[test]
    fn sliver_query_on_a_cell_edge_touches_nothing() {
        let g = Grid::new(Rect::with_size(8.0, 8.0), 16);
        assert!(g.cells_overlapping(&Rect::new(2.0, 1.0, 2.0 + 1e-12, 3.0)).is_empty());
        assert!(g.cells_overlapping(&Rect::new(1.0, 2.0, 3.0, 2.0 + 1e-12)).is_empty());
    }

    #[test]
    fn query_partially_outside_is_clipped() {
        let g = grid3();
        let total: f64 = g
            .cells_overlapping(&Rect::new(2.5, 2.5, 9.0, 9.0))
            .iter()
            .map(|c| c.overlap.area())
            .sum();
        assert!((total - 0.25).abs() < 1e-9);
    }

    #[test]
    fn single_cell_grid() {
        let g = Grid::new(Rect::with_size(4.0, 4.0), 1);
        assert_eq!(g.cell_count(), 1);
        assert_eq!(g.cell_of(3.9, 3.9), Some(CellId::new(0, 0)));
        let o = g.cells_overlapping(&Rect::new(1.0, 1.0, 2.0, 2.0));
        assert_eq!(o.len(), 1);
        assert!(!o[0].full);
    }
}

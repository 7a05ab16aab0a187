//! Unions of disjoint rectangles.

use crate::{Rect, GEOM_EPS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A region made of pairwise-disjoint axis-aligned rectangles.
///
/// Query footprints become regions the moment they are intersected with the
/// grid: a query rectangle splits into one overlap piece per touched cell,
/// and the fabricator's final `U`-operator chain reassembles the per-cell
/// streams over exactly this set of pieces (Fig. 2c). `Region` keeps the
/// pieces canonicalized — adjacent pieces that share a full common side are
/// greedily merged, mirroring the `U` operator's precondition.
///
/// The canonical form is the fixpoint of a lexicographic greedy: while some
/// pair of parts shares a full side, merge the first such pair `(i, j)`,
/// `i < j`, in part order into slot `i` and move the last part into slot
/// `j`; then sort. It is computed incrementally: after a merge at `(a, b)`
/// no part below `a` can pair with anything but the new slot `a`, so only
/// that one slot is tested against them before the scan resumes at `a`. On
/// an `n`-piece grid footprint that costs about `n·√n` side tests (≈ 48·n
/// for a 48×48 query, where restarting from part 0 after every merge took
/// ≈ 0.94·n²), and the overlap check is a sweep along x of the same order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Region {
    rects: Vec<Rect>,
}

impl Region {
    /// The empty region.
    pub fn empty() -> Self {
        Self { rects: Vec::new() }
    }

    /// A region made of a single rectangle.
    pub fn from_rect(rect: Rect) -> Self {
        Self { rects: vec![rect] }
    }

    /// Builds a region from parts, verifying pairwise disjointness and
    /// canonicalizing (merging side-adjacent parts).
    ///
    /// # Panics
    /// Panics when two parts overlap: the planner must never produce
    /// double-covered area, otherwise a tuple would be delivered twice.
    #[track_caller]
    pub fn from_disjoint(rects: Vec<Rect>) -> Self {
        if let Some((i, j)) = first_overlap(&rects) {
            let (a, b) = (rects[i], rects[j]);
            panic!("region parts overlap: {a} and {b}");
        }
        let mut region = Self { rects };
        region.canonicalize();
        region
    }

    /// The rectangles making up the region (pairwise disjoint, canonical).
    #[inline]
    pub fn parts(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of rectangle parts after canonicalization.
    #[inline]
    pub fn part_count(&self) -> usize {
        self.rects.len()
    }

    /// `true` when the region covers nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Total area (km²). Parts are disjoint so the sum is exact.
    pub fn area(&self) -> f64 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// Point containment (half-open per part).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        self.rects.iter().any(|r| r.contains(x, y))
    }

    /// Axis-aligned bounding box, or `None` for the empty region.
    pub fn bounding_box(&self) -> Option<Rect> {
        let first = self.rects.first()?;
        let mut bb = *first;
        for r in &self.rects[1..] {
            bb = Rect::new(bb.x0.min(r.x0), bb.y0.min(r.y0), bb.x1.max(r.x1), bb.y1.max(r.y1));
        }
        Some(bb)
    }

    /// `true` when both regions cover the same point set (compared on
    /// canonical parts, order-independently, within [`GEOM_EPS`]).
    pub fn covers_same_area(&self, other: &Region) -> bool {
        if self.rects.len() != other.rects.len() {
            // Canonical forms of the same point set can still differ in how
            // bands were cut; fall back to an area + mutual-containment check.
            return self.approx_same_pointset(other);
        }
        let mut used = vec![false; other.rects.len()];
        'outer: for a in &self.rects {
            for (i, b) in other.rects.iter().enumerate() {
                if !used[i] && a.approx_eq(b) {
                    used[i] = true;
                    continue 'outer;
                }
            }
            return self.approx_same_pointset(other);
        }
        true
    }

    fn approx_same_pointset(&self, other: &Region) -> bool {
        if (self.area() - other.area()).abs() > GEOM_EPS * (1.0 + self.area()) {
            return false;
        }
        // Every part of self must be fully covered by other's parts by area.
        let covered = |parts: &[Rect], of: &[Rect]| -> bool {
            of.iter().all(|r| {
                let inter: f64 =
                    parts.iter().filter_map(|p| p.intersection(r)).map(|i| i.area()).sum();
                (inter - r.area()).abs() <= 1e-9 * (1.0 + r.area())
            })
        };
        covered(&self.rects, &other.rects) && covered(&other.rects, &self.rects)
    }

    /// Greedily merges parts that share a full common side until fixpoint.
    ///
    /// This is the planner-side analogue of chaining `U` operators: the
    /// number of parts after canonicalization equals the number of `U`
    /// inputs needed to reassemble the stream.
    fn canonicalize(&mut self) {
        let rects = &mut self.rects;
        let mut next = first_adjacent(rects, 0);
        while let Some((a, b, merged)) = next {
            rects[a] = merged;
            rects.swap_remove(b);
            // Every part below `a` was shown to have no later partner. Of
            // the slots above them only `a` changed: slot `b` now holds the
            // former last part, already tested against each of them.
            next = (0..a)
                .find_map(|i| adjacent(&rects[i], &rects[a]).map(|u| (i, a, u)))
                .or_else(|| first_adjacent(rects, a));
        }
        // Deterministic order regardless of insertion order.
        rects.sort_by(|a, b| {
            (a.y0, a.x0, a.y1, a.x1)
                .partial_cmp(&(b.y0, b.x0, b.y1, b.x1))
                .expect("rect coords are finite")
        });
    }
}

/// The first pair `(i, j)`, `from <= i < j`, in lexicographic order whose
/// parts share a full side, with their union.
fn first_adjacent(rects: &[Rect], from: usize) -> Option<(usize, usize, Rect)> {
    (from..rects.len()).find_map(|i| {
        (i + 1..rects.len()).find_map(|j| adjacent(&rects[i], &rects[j]).map(|u| (i, j, u)))
    })
}

/// [`Rect::union_adjacent`], counted in test builds.
#[inline]
fn adjacent(a: &Rect, b: &Rect) -> Option<Rect> {
    #[cfg(test)]
    tests::ADJACENCY_TESTS.with(|n| n.set(n.get() + 1));
    a.union_adjacent(b)
}

/// The lexicographically first pair `(i, j)`, `i < j`, of parts whose
/// interiors overlap — the pair an all-pairs scan meets first.
///
/// A sweep along x: with the parts ordered by `x0`, a part can only
/// overlap one that starts before its own `x1 - GEOM_EPS`, which is
/// exactly one of [`Rect::intersects`]' conjuncts, so scanning forward
/// while that holds meets every overlapping pair.
fn first_overlap(rects: &[Rect]) -> Option<(usize, usize)> {
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_unstable_by(|&i, &j| rects[i].x0.total_cmp(&rects[j].x0));
    let mut first: Option<(usize, usize)> = None;
    for (k, &i) in order.iter().enumerate() {
        let p = &rects[i];
        for &j in order[k + 1..].iter().take_while(|&&j| rects[j].x0 < p.x1 - GEOM_EPS) {
            if p.intersects(&rects[j]) {
                let pair = (i.min(j), i.max(j));
                first = Some(first.map_or(pair, |f| f.min(pair)));
            }
        }
    }
    first
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.rects.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

impl From<Rect> for Region {
    fn from(rect: Rect) -> Self {
        Region::from_rect(rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grid;
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};

    thread_local! {
        /// Side tests ([`adjacent`] calls) made on this thread.
        pub(super) static ADJACENCY_TESTS: Cell<u64> = const { Cell::new(0) };
    }

    /// The overlap check and the merge as they were before the sweep and
    /// the incremental greedy replaced them: the reference both are held to,
    /// part for part and panic for panic.
    mod oracle {
        use super::*;

        #[track_caller]
        pub fn from_disjoint(rects: Vec<Rect>) -> Vec<Rect> {
            for (i, a) in rects.iter().enumerate() {
                for b in &rects[i + 1..] {
                    assert!(!a.intersects(b), "region parts overlap: {a} and {b}");
                }
            }
            let mut rects = rects;
            canonicalize(&mut rects);
            rects
        }

        fn canonicalize(rects: &mut Vec<Rect>) {
            loop {
                let mut merged = false;
                'search: for i in 0..rects.len() {
                    for j in i + 1..rects.len() {
                        if let Some(u) = adjacent(&rects[i], &rects[j]) {
                            rects[i] = u;
                            rects.swap_remove(j);
                            merged = true;
                            break 'search;
                        }
                    }
                }
                if !merged {
                    break;
                }
            }
            // Deterministic order regardless of insertion order.
            rects.sort_by(|a, b| {
                (a.y0, a.x0, a.y1, a.x1)
                    .partial_cmp(&(b.y0, b.x0, b.y1, b.x1))
                    .expect("rect coords are finite")
            });
        }
    }

    /// The parts' bit patterns, or the panic message.
    fn outcome(build: impl FnOnce() -> Vec<Rect>) -> Result<Vec<[u64; 4]>, String> {
        match panic::catch_unwind(AssertUnwindSafe(build)) {
            Ok(parts) => {
                Ok(parts.iter().map(|r| [r.x0, r.y0, r.x1, r.y1].map(f64::to_bits)).collect())
            }
            Err(payload) => Err(payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()),
        }
    }

    fn assert_matches_oracle(parts: Vec<Rect>) {
        let fast = outcome(|| Region::from_disjoint(parts.clone()).rects);
        let reference = outcome(|| oracle::from_disjoint(parts.clone()));
        assert_eq!(fast, reference, "input: {parts:?}");
    }

    /// SplitMix64: the seeded draws the input families are built from.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn between(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.unit() * (hi - lo)
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }

        /// A grid of 1–10 cells a side over an off-origin, non-square region.
        fn grid(&mut self) -> Grid {
            let (x0, y0) = (self.between(-5.0, 5.0), self.between(-5.0, 5.0));
            let (w, h) = (self.between(1.0, 20.0), self.between(1.0, 20.0));
            Grid::new(Rect::new(x0, y0, x0 + w, y0 + h), 1 + self.below(10) as u32)
        }

        /// A point of `[lo, hi]` on one axis, sometimes on (or a rounding
        /// error away from) a cell edge.
        fn coord(&mut self, lo: f64, hi: f64, cells: u32) -> f64 {
            if self.below(3) == 0 {
                lo + (hi - lo) * self.below(cells as usize + 1) as f64 / cells as f64
            } else {
                self.between(lo, hi)
            }
        }

        /// A query rectangle over the grid's region, sometimes reaching
        /// past it.
        fn query(&mut self, g: &Grid) -> Option<Rect> {
            let r = g.region();
            let mut xs = [0.0; 2].map(|_| self.coord(r.x0, r.x1, g.side()));
            let mut ys = [0.0; 2].map(|_| self.coord(r.y0, r.y1, g.side()));
            xs.sort_by(f64::total_cmp);
            ys.sort_by(f64::total_cmp);
            if self.below(4) == 0 {
                xs[1] += r.width() * 0.2;
                ys[0] -= r.height() * 0.2;
            }
            (xs[0] < xs[1] && ys[0] < ys[1]).then(|| Rect::new(xs[0], ys[0], xs[1], ys[1]))
        }
    }

    fn pieces(g: &Grid, query: &Rect) -> impl Iterator<Item = Rect> {
        g.cells_overlapping(query).into_iter().map(|o| o.overlap)
    }

    /// A subset of a grid's cells, in row-major or shuffled order.
    fn grid_cells(mix: &mut Mix) -> Vec<Rect> {
        let g = mix.grid();
        let keep = mix.unit();
        let mut parts: Vec<Rect> =
            g.all_cells().filter(|_| mix.unit() < keep).map(|c| g.cell_rect(c)).collect();
        if mix.below(2) == 0 {
            mix.shuffle(&mut parts);
        }
        parts
    }

    /// A query rectangle clipped to the cells it touches, as the planner
    /// cuts it.
    fn clipped_query(mix: &mut Mix) -> Vec<Rect> {
        let g = mix.grid();
        mix.query(&g).map_or_else(Vec::new, |q| pieces(&g, &q).collect())
    }

    /// An L of two rectangles, each clipped to the grid.
    fn l_shape(mix: &mut Mix) -> Vec<Rect> {
        let g = mix.grid();
        let r = g.region();
        let mut xs = [0.0; 3].map(|_| mix.coord(r.x0, r.x1, g.side()));
        let mut ys = [0.0; 3].map(|_| mix.coord(r.y0, r.y1, g.side()));
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        if xs[0] >= xs[1] || xs[1] >= xs[2] || ys[0] >= ys[1] || ys[1] >= ys[2] {
            return Vec::new();
        }
        let foot = Rect::new(xs[0], ys[0], xs[2], ys[1]);
        let stem = Rect::new(xs[0], ys[1], xs[1], ys[2]);
        pieces(&g, &foot).chain(pieces(&g, &stem)).collect()
    }

    /// A rectangle cut by repeated guillotine splits, with pieces dropped
    /// and the rest shuffled.
    fn guillotine(mix: &mut Mix) -> Vec<Rect> {
        let (x0, y0) = (mix.between(-5.0, 5.0), mix.between(-5.0, 5.0));
        let mut parts =
            vec![Rect::new(x0, y0, x0 + mix.between(0.5, 10.0), y0 + mix.between(0.5, 10.0))];
        for _ in 0..mix.below(40) {
            let i = mix.below(parts.len());
            let p = parts[i];
            let split = if mix.below(2) == 0 {
                p.split_at_x(mix.between(p.x0, p.x1))
            } else {
                p.split_at_y(mix.between(p.y0, p.y1))
            };
            if let Some((lo, hi)) = split {
                parts[i] = lo;
                parts.push(hi);
            }
        }
        let drop = mix.unit() * 0.5;
        parts.retain(|_| mix.unit() >= drop);
        mix.shuffle(&mut parts);
        parts
    }

    /// Inserts parts thinner than [`GEOM_EPS`]: along an existing part's
    /// edge, inside one, or anywhere.
    fn add_slivers(mix: &mut Mix, parts: &mut Vec<Rect>) {
        for _ in 0..1 + mix.below(4) {
            let thin = mix.between(1e-12, 0.9 * GEOM_EPS);
            let sliver = match parts.get(mix.below(parts.len().max(1))) {
                Some(p) if mix.below(2) == 0 => match mix.below(4) {
                    0 => Rect::new(p.x1, p.y0, p.x1 + thin, p.y1),
                    1 => Rect::new(p.x0 - thin, p.y0, p.x0, p.y1),
                    2 => Rect::new(p.x0, p.y1, p.x1, p.y1 + thin),
                    _ => Rect::new(p.x0, p.y0, p.x0 + thin, p.y1),
                },
                _ => {
                    let (x, y) = (mix.between(-5.0, 15.0), mix.between(-5.0, 15.0));
                    if mix.below(2) == 0 {
                        Rect::new(x, y, x + thin, y + mix.between(0.1, 5.0))
                    } else {
                        Rect::new(x, y, x + mix.between(0.1, 5.0), y + thin)
                    }
                }
            };
            let at = mix.below(parts.len() + 1);
            parts.insert(at, sliver);
        }
    }

    /// Inserts one part that overlaps the input (a neighbour reaching one to
    /// two tolerances back into a part, a copy of a part nudged by less
    /// than a side, or an arbitrary rectangle).
    fn add_overlap(mix: &mut Mix, parts: &mut Vec<Rect>) {
        let extra = match parts.get(mix.below(parts.len().max(1))) {
            Some(p) if mix.below(3) == 0 => {
                let depth = mix.between(1.0, 2.0) * GEOM_EPS;
                if mix.below(2) == 0 {
                    Rect::new(p.x1 - depth, p.y0, p.x1 + 1.0, p.y1)
                } else {
                    Rect::new(p.x0, p.y1 - depth, p.x1, p.y1 + 1.0)
                }
            }
            Some(p) if mix.below(2) == 0 => {
                let (dx, dy) =
                    (mix.between(-0.5, 0.5) * p.width(), mix.between(-0.5, 0.5) * p.height());
                Rect::new(p.x0 + dx, p.y0 + dy, p.x1 + dx, p.y1 + dy)
            }
            _ => {
                let (x, y) = (mix.between(-5.0, 15.0), mix.between(-5.0, 15.0));
                Rect::new(x, y, x + mix.between(0.1, 8.0), y + mix.between(0.1, 8.0))
            }
        };
        let at = mix.below(parts.len() + 1);
        parts.insert(at, extra);
    }

    #[test]
    fn footprints_match_the_greedy_oracle_bit_for_bit() {
        let families: [fn(&mut Mix) -> Vec<Rect>; 4] =
            [grid_cells, clipped_query, l_shape, guillotine];
        let mut mix = Mix(0x5EED_F007);
        let mut merged = 0;
        for case in 0..4_000 {
            let mut parts = families[case % families.len()](&mut mix);
            match mix.below(4) {
                0 => add_slivers(&mut mix, &mut parts),
                1 => add_overlap(&mut mix, &mut parts),
                _ => {}
            }
            merged += usize::from(parts.len() > 1);
            assert_matches_oracle(parts);
        }
        assert!(merged > 2_000, "only {merged} cases had more than one part");
    }

    #[test]
    fn guillotine_partitions_match_the_greedy_oracle() {
        let mut mix = Mix(0x6_0111_071E);
        for _ in 0..20_000 {
            let parts = guillotine(&mut mix);
            assert_matches_oracle(parts);
        }
    }

    #[test]
    fn overlap_panics_name_the_first_pair() {
        // Parts 1 and 3 overlap, and so do 2 and 3; the all-pairs scan meets
        // (1, 3) first, whatever order the sweep visits them in.
        let parts = vec![
            Rect::new(10.0, 0.0, 11.0, 1.0),
            Rect::new(0.5, 0.0, 2.0, 1.0),
            Rect::new(0.0, 0.0, 0.5, 1.0),
            Rect::new(0.25, 0.5, 1.0, 2.0),
        ];
        let fast = outcome(|| Region::from_disjoint(parts.clone()).rects);
        assert_eq!(
            fast,
            Err("region parts overlap: [0.500,2.000)x[0.000,1.000) and \
                 [0.250,1.000)x[0.500,2.000)"
                .to_string())
        );
        assert_matches_oracle(parts);
    }

    #[test]
    fn a_48x48_query_costs_under_64_side_tests_a_piece() {
        let g = Grid::new(Rect::with_size(24.0, 24.0), 48);
        let parts: Vec<Rect> = pieces(&g, &Rect::new(0.137, 0.21, 23.9, 23.77)).collect();
        let n = parts.len() as u64;
        assert_eq!(n, 2_304);
        let count = |build: &dyn Fn() -> Vec<Rect>| {
            ADJACENCY_TESTS.with(|c| c.set(0));
            let out = build();
            (out, ADJACENCY_TESTS.with(Cell::get))
        };
        let (fast, fast_tests) = count(&|| Region::from_disjoint(parts.clone()).rects);
        let (reference, reference_tests) = count(&|| oracle::from_disjoint(parts.clone()));
        assert_eq!(fast, reference);
        assert_eq!(fast.len(), 1, "a rectangle's pieces merge back into one");
        assert!(fast_tests <= 64 * n, "{fast_tests} side tests for {n} pieces");
        assert!(reference_tests > 64 * n, "the oracle restarts from part 0: {reference_tests}");
    }

    #[test]
    fn empty_region() {
        let r = Region::empty();
        assert!(r.is_empty());
        assert_eq!(r.area(), 0.0);
        assert!(r.bounding_box().is_none());
        assert!(!r.contains(0.0, 0.0));
    }

    #[test]
    fn adjacent_parts_merge_into_one() {
        // Two unit squares side by side collapse to one 2x1 rect.
        let r = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(1.0, 0.0, 2.0, 1.0),
        ]);
        assert_eq!(r.part_count(), 1);
        assert!(r.parts()[0].approx_eq(&Rect::new(0.0, 0.0, 2.0, 1.0)));
    }

    #[test]
    fn l_shape_stays_two_parts() {
        let r = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 2.0, 1.0),
            Rect::new(0.0, 1.0, 1.0, 2.0),
        ]);
        assert_eq!(r.part_count(), 2);
        assert!((r.area() - 3.0).abs() < 1e-12);
        assert!(r.contains(1.5, 0.5));
        assert!(r.contains(0.5, 1.5));
        assert!(!r.contains(1.5, 1.5));
    }

    #[test]
    fn three_cells_in_a_row_merge_transitively() {
        let r = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(2.0, 0.0, 3.0, 1.0),
            Rect::new(1.0, 0.0, 2.0, 1.0),
        ]);
        assert_eq!(r.part_count(), 1);
        assert!(r.parts()[0].approx_eq(&Rect::new(0.0, 0.0, 3.0, 1.0)));
    }

    #[test]
    fn square_block_of_cells_merges_fully() {
        // 2x2 block of unit cells -> single 2x2 rect (rows merge, then rows
        // merge vertically).
        let r = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(1.0, 0.0, 2.0, 1.0),
            Rect::new(0.0, 1.0, 1.0, 2.0),
            Rect::new(1.0, 1.0, 2.0, 2.0),
        ]);
        assert_eq!(r.part_count(), 1);
        assert!(r.parts()[0].approx_eq(&Rect::new(0.0, 0.0, 2.0, 2.0)));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_parts_rejected() {
        let _ = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 2.0, 2.0),
            Rect::new(1.0, 1.0, 3.0, 3.0),
        ]);
    }

    #[test]
    fn covers_same_area_is_representation_independent() {
        // Same 2x1 area cut horizontally vs vertically.
        let a = Region::from_disjoint(vec![Rect::new(0.0, 0.0, 1.0, 2.0)]);
        let b = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 0.5, 2.0),
            Rect::new(0.5, 0.0, 1.0, 2.0),
        ]);
        assert!(a.covers_same_area(&b));
        let c = Region::from_rect(Rect::new(0.0, 0.0, 1.0, 1.9));
        assert!(!a.covers_same_area(&c));
    }

    #[test]
    fn bounding_box_spans_all_parts() {
        let r = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(4.0, 5.0, 6.0, 7.0),
        ]);
        assert!(r.bounding_box().unwrap().approx_eq(&Rect::new(0.0, 0.0, 6.0, 7.0)));
    }

    #[test]
    fn display_formats_union() {
        let r = Region::from_disjoint(vec![
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(4.0, 0.0, 5.0, 1.0),
        ]);
        let s = format!("{r}");
        assert!(s.contains('∪'), "{s}");
    }
}

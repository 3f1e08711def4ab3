//! Velocity histograms on a grid.
//!
//! The Bx-tree enlarges query windows by the maximum/minimum object
//! velocities. To avoid a few fast objects inflating *every* query, the
//! paper's implementation keeps "histograms on a grid base … for the
//! maximum/minimum velocity of different portions of the data space"
//! (Section 3.2; 1000×1000 cells in the experiments). This module is
//! that structure: per-cell min/max of each velocity component,
//! aggregated over any query rectangle.
//!
//! On top of the finest grid sits a **bounds pyramid**: each coarser
//! level halves the resolution and stores the min/max over its four
//! children. Query planners descend the pyramid and prune whole
//! regions whose (conservative, superset) bounds cannot reach the
//! query — the enlargement computation then costs O(qualifying
//! region) instead of O(window area). Levels run from 0 (finest,
//! `n × n`) up to [`VelocityGrid::levels`]` - 1` (a single root cell).
//!
//! Maintenance is insert-only (deletions leave bounds conservative —
//! still correct, just looser); [`VelocityGrid::reset`] supports the
//! periodic rebuild strategy.
//!
//! Every level is stored as fixed-size **tiles** behind `Arc`s, so a
//! clone (what a snapshot takes) bumps one refcount per allocated tile
//! and a later `record` copies only the tiles whose bounds it widens.
//! A region nothing was ever recorded in holds no tile at all.

use std::sync::Arc;

use vp_geom::{Point, Rect, Vec2};

/// Cells per tile axis.
const TILE: usize = 16;

/// One cell's bounds, adjacent in memory: `[min_vx, max_vx, min_vy,
/// max_vy]`.
type Cell = [f32; 4];

/// A cell nothing was recorded in.
const EMPTY: Cell = [
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

/// `TILE × TILE` cells, row-major.
#[derive(Debug, Clone)]
struct Tile([Cell; TILE * TILE]);

/// One resolution level of the bounds pyramid.
#[derive(Debug, Clone)]
struct Level {
    /// Cells per axis at this level: `((n - 1) >> level) + 1`.
    n: usize,
    /// Tiles per axis (edge tiles are partly outside the level).
    tiles_per_axis: usize,
    /// Row-major; `None` until something is recorded under the tile.
    tiles: Vec<Option<Arc<Tile>>>,
}

impl Level {
    fn new(n: usize) -> Level {
        let tiles_per_axis = n.div_ceil(TILE);
        Level {
            n,
            tiles_per_axis,
            tiles: vec![None; tiles_per_axis * tiles_per_axis],
        }
    }

    fn reset(&mut self) {
        self.tiles.fill(None);
    }

    /// `(tile index, cell index within the tile)`.
    fn locate(&self, cx: usize, cy: usize) -> (usize, usize) {
        (
            (cy / TILE) * self.tiles_per_axis + cx / TILE,
            (cy % TILE) * TILE + cx % TILE,
        )
    }

    /// Widens the cell's bounds to cover `vel`; `false` when they
    /// already did, in which case nothing is written (a tile shared
    /// with a clone stays shared).
    fn record(&mut self, cx: usize, cy: usize, vel: Vec2) -> bool {
        let (t, c) = self.locate(cx, cy);
        let old = self.tiles[t].as_ref().map_or(EMPTY, |tile| tile.0[c]);
        let (vx, vy) = (vel.x as f32, vel.y as f32);
        let new = [
            old[0].min(vx),
            old[1].max(vx),
            old[2].min(vy),
            old[3].max(vy),
        ];
        if new == old {
            return false;
        }
        let tile = self.tiles[t].get_or_insert_with(|| Arc::new(Tile([EMPTY; TILE * TILE])));
        Arc::make_mut(tile).0[c] = new;
        true
    }

    fn bounds(&self, cx: usize, cy: usize) -> Option<(Vec2, Vec2)> {
        let (t, c) = self.locate(cx, cy);
        let [min_vx, max_vx, min_vy, max_vy] = self.tiles[t].as_ref()?.0[c];
        if max_vx == f32::NEG_INFINITY {
            return None;
        }
        Some((
            Point::new(min_vx as f64, min_vy as f64),
            Point::new(max_vx as f64, max_vy as f64),
        ))
    }
}

/// Per-cell velocity bounds over a gridded domain, with a pruning
/// pyramid on top.
#[derive(Debug, Clone)]
pub struct VelocityGrid {
    domain: Rect,
    n: usize,
    /// `levels[0]` is the finest grid; each subsequent level halves
    /// the resolution (ceiling division) down to a single root cell.
    levels: Vec<Level>,
    /// Global fallback bounds (also insert-only).
    global: Option<(Vec2, Vec2)>,
}

impl VelocityGrid {
    /// Creates an empty grid with `n × n` cells over `domain`.
    pub fn new(domain: Rect, n: usize) -> VelocityGrid {
        assert!(n >= 1, "grid needs at least one cell");
        assert!(!domain.is_empty() && domain.area() > 0.0, "empty domain");
        let mut levels = vec![Level::new(n)];
        while levels.last().expect("non-empty").n > 1 {
            let prev = levels.last().expect("non-empty").n;
            levels.push(Level::new(((prev - 1) >> 1) + 1));
        }
        VelocityGrid {
            domain,
            n,
            levels,
            global: None,
        }
    }

    /// Cells per axis (finest level).
    pub fn cells_per_axis(&self) -> usize {
        self.n
    }

    /// Number of pyramid levels (level 0 = finest, `levels() - 1` =
    /// the single root cell).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Cells per axis at a pyramid level.
    pub fn cells_per_axis_at(&self, level: usize) -> usize {
        self.levels[level].n
    }

    /// The gridded domain.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// Clears all recorded bounds (periodic rebuild entry point).
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            level.reset();
        }
        self.global = None;
    }

    /// Cell coordinates of a position (clamped into the domain).
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let fx = ((p.x - self.domain.lo.x) / self.domain.width()).clamp(0.0, 1.0);
        let fy = ((p.y - self.domain.lo.y) / self.domain.height()).clamp(0.0, 1.0);
        let cx = ((fx * self.n as f64) as usize).min(self.n - 1);
        let cy = ((fy * self.n as f64) as usize).min(self.n - 1);
        (cx, cy)
    }

    /// Records an object's velocity at its (indexed) position.
    pub fn record(&mut self, pos: Point, vel: Vec2) {
        let (cx, cy) = self.cell_of(pos);
        // A coarser cell's bounds cover its children's, so the first
        // level that already covers `vel` ends the ascent.
        for (k, level) in self.levels.iter_mut().enumerate() {
            if !level.record(cx >> k, cy >> k, vel) {
                break;
            }
        }
        self.global = Some(match self.global {
            None => (vel, vel),
            Some((lo, hi)) => (lo.min(vel), hi.max(vel)),
        });
    }

    /// Velocity bounds `(min, max)` per component over all cells
    /// intersecting `window`. `None` when no object was ever recorded
    /// there.
    pub fn bounds_over(&self, window: &Rect) -> Option<(Vec2, Vec2)> {
        if window.is_empty() {
            return None;
        }
        let (cx0, cy0) = self.cell_of(window.lo);
        let (cx1, cy1) = self.cell_of(window.hi);
        let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut any = false;
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let Some((l, h)) = self.levels[0].bounds(cx, cy) else {
                    continue;
                };
                any = true;
                lo = lo.min(l);
                hi = hi.max(h);
            }
        }
        if any {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Global (whole-domain) velocity bounds, if any object was
    /// recorded.
    pub fn global_bounds(&self) -> Option<(Vec2, Vec2)> {
        self.global
    }

    /// Velocity bounds `(min, max)` of one cell at one pyramid level,
    /// `None` when nothing was ever recorded under it. Coarse-level
    /// bounds are supersets of every descendant's bounds — the
    /// pruning invariant.
    pub fn cell_bounds_at(&self, level: usize, cx: usize, cy: usize) -> Option<(Vec2, Vec2)> {
        debug_assert!(cx < self.levels[level].n && cy < self.levels[level].n);
        self.levels[level].bounds(cx, cy)
    }

    /// Velocity bounds of one finest-level cell.
    pub fn cell_bounds(&self, cx: usize, cy: usize) -> Option<(Vec2, Vec2)> {
        self.cell_bounds_at(0, cx, cy)
    }

    /// The domain rectangle of one cell at one pyramid level (the
    /// union of its finest-level descendants; edge cells of uneven
    /// levels are clipped to the domain).
    pub fn cell_rect_at(&self, level: usize, cx: usize, cy: usize) -> Rect {
        let cw = self.domain.width() / self.n as f64;
        let ch = self.domain.height() / self.n as f64;
        let fine_x0 = cx << level;
        let fine_y0 = cy << level;
        let fine_x1 = ((cx + 1) << level).min(self.n);
        let fine_y1 = ((cy + 1) << level).min(self.n);
        Rect {
            lo: Point::new(
                self.domain.lo.x + fine_x0 as f64 * cw,
                self.domain.lo.y + fine_y0 as f64 * ch,
            ),
            hi: Point::new(
                self.domain.lo.x + fine_x1 as f64 * cw,
                self.domain.lo.y + fine_y1 as f64 * ch,
            ),
        }
    }

    /// The domain rectangle of one finest-level cell.
    pub fn cell_rect(&self, cx: usize, cy: usize) -> Rect {
        self.cell_rect_at(0, cx, cy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> VelocityGrid {
        VelocityGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10)
    }

    #[test]
    fn cell_mapping() {
        let g = grid();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.cell_of(Point::new(99.9, 99.9)), (9, 9));
        assert_eq!(g.cell_of(Point::new(100.0, 100.0)), (9, 9)); // clamp
        assert_eq!(g.cell_of(Point::new(-5.0, 50.0)), (0, 5)); // clamp
        assert_eq!(g.cell_of(Point::new(35.0, 72.0)), (3, 7));
    }

    #[test]
    fn bounds_localized() {
        let mut g = grid();
        g.record(Point::new(5.0, 5.0), Point::new(10.0, -3.0));
        g.record(Point::new(95.0, 95.0), Point::new(-50.0, 80.0));
        // Window covering only the first object's cell.
        let b = g
            .bounds_over(&Rect::from_bounds(0.0, 0.0, 9.0, 9.0))
            .unwrap();
        assert_eq!(b.0, Point::new(10.0, -3.0));
        assert_eq!(b.1, Point::new(10.0, -3.0));
        // Window covering both.
        let b = g
            .bounds_over(&Rect::from_bounds(0.0, 0.0, 100.0, 100.0))
            .unwrap();
        assert_eq!(b.0, Point::new(-50.0, -3.0));
        assert_eq!(b.1, Point::new(10.0, 80.0));
        // Empty corner.
        assert!(g
            .bounds_over(&Rect::from_bounds(50.0, 0.0, 60.0, 9.0))
            .is_none());
    }

    #[test]
    fn fast_outlier_contained_to_its_region() {
        // The motivating case: one fast object should not inflate
        // queries elsewhere.
        let mut g = grid();
        for i in 0..9 {
            g.record(Point::new(i as f64 * 10.0 + 5.0, 5.0), Point::new(1.0, 0.0));
        }
        g.record(Point::new(95.0, 5.0), Point::new(200.0, 0.0));
        let slow = g
            .bounds_over(&Rect::from_bounds(0.0, 0.0, 50.0, 9.0))
            .unwrap();
        assert_eq!(slow.1.x, 1.0);
        let fast = g
            .bounds_over(&Rect::from_bounds(90.0, 0.0, 99.0, 9.0))
            .unwrap();
        assert_eq!(fast.1.x, 200.0);
    }

    #[test]
    fn global_bounds_and_reset() {
        let mut g = grid();
        assert!(g.global_bounds().is_none());
        g.record(Point::new(1.0, 1.0), Point::new(3.0, 4.0));
        g.record(Point::new(99.0, 99.0), Point::new(-7.0, 1.0));
        let (lo, hi) = g.global_bounds().unwrap();
        assert_eq!(lo, Point::new(-7.0, 1.0));
        assert_eq!(hi, Point::new(3.0, 4.0));
        g.reset();
        assert!(g.global_bounds().is_none());
        assert!(g
            .bounds_over(&Rect::from_bounds(0.0, 0.0, 100.0, 100.0))
            .is_none());
        for level in 0..g.levels() {
            let n = g.cells_per_axis_at(level);
            for cy in 0..n {
                for cx in 0..n {
                    assert!(g.cell_bounds_at(level, cx, cy).is_none());
                }
            }
        }
    }

    #[test]
    fn positions_outside_domain_clamp() {
        let mut g = grid();
        g.record(Point::new(150.0, -20.0), Point::new(5.0, 5.0));
        let b = g
            .bounds_over(&Rect::from_bounds(90.0, 0.0, 100.0, 10.0))
            .unwrap();
        assert_eq!(b.1, Point::new(5.0, 5.0));
    }

    /// Allocated tiles per level.
    fn tile_counts(g: &VelocityGrid) -> Vec<usize> {
        g.levels
            .iter()
            .map(|l| l.tiles.iter().flatten().count())
            .collect()
    }

    #[test]
    fn never_recorded_grid_allocates_no_tiles() {
        let mut g = VelocityGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 1000);
        assert_eq!(tile_counts(&g), vec![0; g.levels()]);
        // One record allocates one tile per level, and reset frees them.
        g.record(Point::new(50.0, 50.0), Point::new(1.0, 1.0));
        assert_eq!(tile_counts(&g), vec![1; g.levels()]);
        g.reset();
        assert_eq!(tile_counts(&g), vec![0; g.levels()]);
    }

    #[test]
    fn clone_is_unchanged_by_later_writes_and_shares_untouched_tiles() {
        // 40 cells per axis: 3 x 3 tiles at level 0, 2 x 2 at level 1.
        let mut g = VelocityGrid::new(Rect::from_bounds(0.0, 0.0, 40.0, 40.0), 40);
        let slow = Point::new(1.0, -1.0);
        g.record(Point::new(0.5, 0.5), slow); // tile (0, 0)
        g.record(Point::new(39.5, 39.5), slow); // tile (2, 2)
        let before = g.clone();
        for (a, b) in g.levels.iter().zip(&before.levels) {
            for (ta, tb) in a.tiles.iter().zip(&b.tiles) {
                match (ta, tb) {
                    (Some(ta), Some(tb)) => assert!(Arc::ptr_eq(ta, tb), "clone copied a tile"),
                    (None, None) => {}
                    _ => panic!("clone changed which tiles exist"),
                }
            }
        }

        // A record that widens nothing leaves every tile shared.
        g.record(Point::new(0.5, 0.5), slow);
        let shared = |g: &VelocityGrid, level: usize, t: usize| {
            Arc::ptr_eq(
                g.levels[level].tiles[t].as_ref().unwrap(),
                before.levels[level].tiles[t].as_ref().unwrap(),
            )
        };
        assert!(shared(&g, 0, 0) && shared(&g, 0, 8));

        // A faster object in the first cell widens it at every level:
        // those tiles are copied, the far corner's level-0 tile is not.
        g.record(Point::new(0.5, 0.5), Point::new(30.0, 0.0));
        assert!(!shared(&g, 0, 0), "widened tile must be private");
        assert!(shared(&g, 0, 8), "untouched tile stays shared");
        assert_eq!(g.cell_bounds(0, 0).unwrap().1, Point::new(30.0, 0.0));

        // The clone still answers as it did when it was taken.
        for level in 0..before.levels() {
            let n = before.cells_per_axis_at(level);
            for cy in 0..n {
                for cx in 0..n {
                    let want =
                        ((cx, cy) == (0, 0) || (cx, cy) == (n - 1, n - 1)).then_some((slow, slow));
                    assert_eq!(before.cell_bounds_at(level, cx, cy), want);
                }
            }
        }
        assert_eq!(before.global_bounds(), Some((slow, slow)));
    }

    #[test]
    fn pyramid_levels_halve_down_to_a_root() {
        let g = grid(); // n = 10
        let sizes: Vec<usize> = (0..g.levels()).map(|k| g.cells_per_axis_at(k)).collect();
        assert_eq!(sizes, vec![10, 5, 3, 2, 1]);
        // Uneven level: cell rects still tile the domain exactly.
        for level in 0..g.levels() {
            let n = g.cells_per_axis_at(level);
            let mut area = 0.0;
            for cy in 0..n {
                for cx in 0..n {
                    area += g.cell_rect_at(level, cx, cy).area();
                }
            }
            assert!(
                (area - g.domain().area()).abs() < 1e-6,
                "level {level} does not tile the domain"
            );
        }
    }

    #[test]
    fn pyramid_bounds_dominate_children() {
        let mut g = grid();
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000) as f64 / 10.0
        };
        for _ in 0..200 {
            g.record(
                Point::new(next(), next()),
                Point::new(next() - 50.0, next() - 50.0),
            );
        }
        for level in 1..g.levels() {
            let n = g.cells_per_axis_at(level);
            let child_n = g.cells_per_axis_at(level - 1);
            for cy in 0..n {
                for cx in 0..n {
                    let parent = g.cell_bounds_at(level, cx, cy);
                    for dy in 0..2usize {
                        for dx in 0..2usize {
                            let (ccx, ccy) = (cx * 2 + dx, cy * 2 + dy);
                            if ccx >= child_n || ccy >= child_n {
                                continue;
                            }
                            if let Some((clo, chi)) = g.cell_bounds_at(level - 1, ccx, ccy) {
                                let (plo, phi) =
                                    parent.expect("parent of a non-empty child is non-empty");
                                assert!(plo.x <= clo.x && plo.y <= clo.y);
                                assert!(phi.x >= chi.x && phi.y >= chi.y);
                            }
                        }
                    }
                }
            }
        }
        // The root cell matches the global bounds (up to the f32
        // storage of the grid cells vs the f64 global).
        let root = g.levels() - 1;
        let (rlo, rhi) = g.cell_bounds_at(root, 0, 0).unwrap();
        let (glo, ghi) = g.global_bounds().unwrap();
        for (a, b) in [(rlo, glo), (rhi, ghi)] {
            assert!((a.x - b.x).abs() < 1e-3 && (a.y - b.y).abs() < 1e-3);
        }
    }
}

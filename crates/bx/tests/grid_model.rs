//! The tiled [`VelocityGrid`] against a dense reference model.
//!
//! The model is the plain structure the grid replaced: one dense array
//! of bounds per pyramid level, every `record` written at every level.
//! The grid stores tiles, allocates them lazily, skips writes that do
//! not widen a bound and stops ascending the pyramid early — none of
//! which may show through `bounds_over`, `cell_bounds_at` or
//! `global_bounds`, for grid sizes below, at and off the tile size.

use proptest::prelude::*;
use vp_bx::VelocityGrid;
use vp_geom::{Point, Rect, Vec2};

type Bounds = Option<(Vec2, Vec2)>;

/// `[min_vx, max_vx, min_vy, max_vy]`, as the grid stores them (f32).
type Cell = Option<[f32; 4]>;

struct Dense {
    /// Per level: cells per axis, row-major cells.
    levels: Vec<(usize, Vec<Cell>)>,
    global: Bounds,
}

fn to_bounds(c: Cell) -> Bounds {
    c.map(|[x0, x1, y0, y1]| {
        (
            Point::new(x0 as f64, y0 as f64),
            Point::new(x1 as f64, y1 as f64),
        )
    })
}

impl Dense {
    fn new(n: usize) -> Dense {
        let mut levels = vec![(n, vec![None; n * n])];
        let mut m = n;
        while m > 1 {
            m = ((m - 1) >> 1) + 1;
            levels.push((m, vec![None; m * m]));
        }
        Dense {
            levels,
            global: None,
        }
    }

    fn reset(&mut self) {
        for (_, cells) in &mut self.levels {
            cells.fill(None);
        }
        self.global = None;
    }

    fn record(&mut self, (cx, cy): (usize, usize), vel: Vec2) {
        let (vx, vy) = (vel.x as f32, vel.y as f32);
        for (k, (n, cells)) in self.levels.iter_mut().enumerate() {
            let cell = &mut cells[(cy >> k) * *n + (cx >> k)];
            *cell = Some(match *cell {
                None => [vx, vx, vy, vy],
                Some([x0, x1, y0, y1]) => [x0.min(vx), x1.max(vx), y0.min(vy), y1.max(vy)],
            });
        }
        self.global = Some(match self.global {
            None => (vel, vel),
            Some((lo, hi)) => (lo.min(vel), hi.max(vel)),
        });
    }

    fn bounds_over(&self, (cx0, cy0): (usize, usize), (cx1, cy1): (usize, usize)) -> Bounds {
        let (n, cells) = &self.levels[0];
        let mut acc: Bounds = None;
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                if let Some((l, h)) = to_bounds(cells[cy * n + cx]) {
                    acc = Some(match acc {
                        None => (l, h),
                        Some((lo, hi)) => (lo.min(l), hi.max(h)),
                    });
                }
            }
        }
        acc
    }
}

const SIDE: f64 = 1_000.0;

/// `(kind, x, y, vx, vy)`: kind 0 resets, anything else records.
/// Positions overshoot the domain (they clamp); velocities come from a
/// small integer lattice so that many records widen nothing.
type Op = (u32, f64, f64, i32, i32);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec(
        (
            0u32..60,
            -50.0..1_050.0f64,
            -50.0..1_050.0f64,
            -8i32..9,
            -8i32..9,
        ),
        1..200,
    )
}

/// `(x, y, width, height)` of a query window.
fn windows() -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    collection::vec(
        (
            -20.0..1_000.0f64,
            -20.0..1_000.0f64,
            0.0..120.0f64,
            0.0..120.0f64,
        ),
        1..6,
    )
}

fn compare(
    grid: &VelocityGrid,
    dense: &Dense,
    windows: &[(f64, f64, f64, f64)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(grid.global_bounds(), dense.global);
    prop_assert_eq!(grid.levels(), dense.levels.len());
    for (level, (n, cells)) in dense.levels.iter().enumerate() {
        prop_assert_eq!(grid.cells_per_axis_at(level), *n);
        for cy in 0..*n {
            for cx in 0..*n {
                prop_assert_eq!(
                    grid.cell_bounds_at(level, cx, cy),
                    to_bounds(cells[cy * n + cx]),
                    "level {} cell ({}, {})",
                    level,
                    cx,
                    cy
                );
            }
        }
    }
    let whole = Rect::from_bounds(0.0, 0.0, SIDE, SIDE);
    let rects = windows
        .iter()
        .map(|&(x, y, w, h)| Rect::from_bounds(x, y, x + w, y + h))
        .chain((grid.cells_per_axis() <= 10).then_some(whole));
    for r in rects {
        prop_assert_eq!(
            grid.bounds_over(&r),
            dense.bounds_over(grid.cell_of(r.lo), grid.cell_of(r.hi)),
            "window {:?}",
            r
        );
    }
    Ok(())
}

fn check(n: usize, ops: &[Op], windows: &[(f64, f64, f64, f64)]) -> Result<(), TestCaseError> {
    let mut grid = VelocityGrid::new(Rect::from_bounds(0.0, 0.0, SIDE, SIDE), n);
    let mut dense = Dense::new(n);
    for &(kind, x, y, vx, vy) in ops {
        if kind == 0 {
            compare(&grid, &dense, windows)?;
            grid.reset();
            dense.reset();
            continue;
        }
        let (pos, vel) = (Point::new(x, y), Point::new(vx as f64, vy as f64));
        dense.record(grid.cell_of(pos), vel);
        grid.record(pos, vel);
    }
    compare(&grid, &dense, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_cell_grid_matches_dense_model(ops in ops(), windows in windows()) {
        check(1, &ops, &windows)?;
    }

    #[test]
    fn grid_smaller_than_a_tile_matches_dense_model(ops in ops(), windows in windows()) {
        check(10, &ops, &windows)?;
    }
}

proptest! {
    // Every case compares all 1.33 M cells of the eleven levels.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn paper_sized_grid_matches_dense_model(ops in ops(), windows in windows()) {
        // 1000 = 62 whole tiles and a half-filled edge tile per axis.
        check(1_000, &ops, &windows)?;
    }
}

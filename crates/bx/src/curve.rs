//! The Hilbert curve over a `2^order × 2^order` cell grid.
//!
//! The Bx-tree linearizes 2-D cell coordinates into 1-D keys with the
//! Hilbert curve, as the paper does, and queries depend on one more
//! operation: decomposing a rectangular cell window into contiguous
//! curve-value ranges.
//!
//! Any *aligned* `2^k × 2^k` quad maps to one contiguous, `4^k`-aligned
//! block of curve values, so the decomposition is a quadtree descent.
//! The descent visits a quad's four children in curve order, chosen by
//! a 4-state table (Lawder and King, SIGMOD Record 30(1), 2001), so
//! blocks come out ascending and merge as they are emitted, with no
//! per-quad `encode` and no sort. It is exact: the ranges cover the
//! window's cells and nothing else. A query reads all of its ranges in
//! one shared leaf sweep, so each range is one segment of that sweep
//! rather than a descent of its own, and more ranges cost no extra
//! pages.

/// Ascending inclusive ranges in, maximal ones out: a range that
/// overlaps or touches the one before it extends it, and `emit` sees
/// each merged range once it can grow no further.
pub(crate) struct Merge<F: FnMut(u64, u64)> {
    run: Option<(u64, u64)>,
    emit: F,
}

impl<F: FnMut(u64, u64)> Merge<F> {
    pub(crate) fn new(emit: F) -> Self {
        Merge { run: None, emit }
    }

    /// Adds `[a, b]`; `a` must not be below the previous range's start.
    pub(crate) fn push(&mut self, a: u64, b: u64) {
        match &mut self.run {
            Some((_, pb)) if a <= *pb + 1 => *pb = (*pb).max(b),
            run => {
                if let Some((ra, rb)) = run.replace((a, b)) {
                    (self.emit)(ra, rb);
                }
            }
        }
    }

    /// Emits the last merged range.
    pub(crate) fn finish(mut self) {
        if let Some((a, b)) = self.run.take() {
            (self.emit)(a, b);
        }
    }
}

/// One child of a quad in curve order: its half along x and along y
/// (0 or 1), and the state its own children are ordered by.
type Child = (u32, u32, usize);

/// Hilbert order as a 4-state table. A state is how a quad's pattern
/// is mirrored against the curve's base pattern (which visits the
/// halves (0, 0), (0, 1), (1, 1), (1, 0)): bit 0 swaps x and y, bit 1
/// flips both. The first child swaps, the last swaps and flips, and
/// the middle two keep their parent's state — the rotations of
/// [`HilbertCurve::encode`].
const HILBERT_ORDER: [[Child; 4]; 4] = [
    [(0, 0, 1), (0, 1, 0), (1, 1, 0), (1, 0, 3)],
    [(0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 2)],
    [(1, 1, 3), (1, 0, 2), (0, 0, 2), (0, 1, 1)],
    [(1, 1, 2), (0, 1, 3), (0, 0, 3), (1, 0, 0)],
];

/// The inclusive cell window a quadtree walk decomposes.
struct Walk {
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
}

impl Walk {
    /// Visits the aligned `2^k × 2^k` quad at `(qx, qy)`, whose curve
    /// values start at `base`, in curve order: a quad inside the window
    /// is one block of `4^k` values, a quad across its edge recurses.
    fn quad<F: FnMut(u64, u64)>(
        &self,
        qx: u32,
        qy: u32,
        k: u32,
        state: usize,
        base: u64,
        out: &mut Merge<F>,
    ) {
        let last = (1u32 << k) - 1;
        if qx > self.x1 || qy > self.y1 || qx + last < self.x0 || qy + last < self.y0 {
            return;
        }
        // A single cell is always inside once it is not disjoint.
        if qx >= self.x0 && qy >= self.y0 && qx + last <= self.x1 && qy + last <= self.y1 {
            out.push(base, base + ((1u64 << (2 * k)) - 1));
            return;
        }
        let (h, block) = (1u32 << (k - 1), 1u64 << (2 * (k - 1)));
        for (i, &(hx, hy, next)) in HILBERT_ORDER[state].iter().enumerate() {
            let child_base = base + i as u64 * block;
            self.quad(qx + hx * h, qy + hy * h, k - 1, next, child_base, out);
        }
    }
}

/// Hilbert curve via the classic rotate-and-accumulate algorithm.
#[derive(Debug, Clone, Copy)]
pub struct HilbertCurve {
    order: u32,
}

impl HilbertCurve {
    /// Creates a Hilbert curve with `order` bits per axis (max 31).
    pub fn new(order: u32) -> HilbertCurve {
        assert!((1..=31).contains(&order), "order out of range");
        HilbertCurve { order }
    }

    /// Bits per axis.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Cells per axis (`2^order`).
    pub fn side(&self) -> u32 {
        1 << self.order
    }

    /// Maps cell coordinates to a curve value in `[0, 4^order)`.
    pub fn encode(&self, x: u32, y: u32) -> u64 {
        debug_assert!(x < self.side() && y < self.side());
        let n = self.side();
        let (mut x, mut y) = (x, y);
        let mut d: u64 = 0;
        let mut s = n / 2;
        while s > 0 {
            let rx = u32::from((x & s) > 0);
            let ry = u32::from((y & s) > 0);
            d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
            Self::rot(n, &mut x, &mut y, rx, ry);
            s /= 2;
        }
        d
    }

    /// Inverse of [`HilbertCurve::encode`].
    pub fn decode(&self, d: u64) -> (u32, u32) {
        let n = self.side();
        let (mut x, mut y) = (0u32, 0u32);
        let mut t = d;
        let mut s = 1u32;
        while s < n {
            let rx = (1 & (t / 2)) as u32;
            let ry = (1 & (t ^ rx as u64)) as u32;
            Self::rot(s, &mut x, &mut y, rx, ry);
            x += s * rx;
            y += s * ry;
            t /= 4;
            s *= 2;
        }
        (x, y)
    }

    /// Decomposes the inclusive cell window `[x0, x1] × [y0, y1]` into
    /// sorted, disjoint, inclusive curve ranges whose union is exactly
    /// the window's cells. Adjacent ranges are merged, so consecutive
    /// ranges never touch.
    pub fn ranges(&self, x0: u32, y0: u32, x1: u32, y1: u32) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.for_each_range((x0, y0, x1, y1), |a, b| out.push((a, b)));
        out
    }

    /// [`HilbertCurve::ranges`], handed to `emit` range by range: the
    /// window's quadtree is walked in curve order, so the ranges come
    /// out sorted and merged as they are found.
    pub(crate) fn for_each_range(
        &self,
        (x0, y0, x1, y1): (u32, u32, u32, u32),
        emit: impl FnMut(u64, u64),
    ) {
        debug_assert!(x0 <= x1 && y0 <= y1);
        debug_assert!(x1 >> self.order == 0 && y1 >> self.order == 0);
        let mut out = Merge::new(emit);
        Walk { x0, y0, x1, y1 }.quad(0, 0, self.order, 0, 0, &mut out);
        out.finish();
    }

    #[inline]
    fn rot(n: u32, x: &mut u32, y: &mut u32, rx: u32, ry: u32) {
        if ry == 0 {
            if rx == 1 {
                *x = n - 1 - *x;
                *y = n - 1 - *y;
            }
            std::mem::swap(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(c: &HilbertCurve) {
        let side = c.side();
        let mut seen = vec![false; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                let d = c.encode(x, y);
                assert!(d < (side as u64) * (side as u64));
                assert!(!seen[d as usize], "duplicate curve value {d}");
                seen[d as usize] = true;
                assert_eq!(c.decode(d), (x, y));
            }
        }
    }

    #[test]
    fn hilbert_bijective() {
        check_bijection(&HilbertCurve::new(4));
    }

    #[test]
    fn hilbert_is_continuous() {
        // Consecutive curve values are adjacent cells — the defining
        // locality property.
        let c = HilbertCurve::new(5);
        let n = (c.side() as u64) * (c.side() as u64);
        let mut prev = c.decode(0);
        for d in 1..n {
            let cur = c.decode(d);
            let dist = (cur.0 as i64 - prev.0 as i64).abs() + (cur.1 as i64 - prev.1 as i64).abs();
            assert_eq!(dist, 1, "discontinuity at {d}");
            prev = cur;
        }
    }

    /// The decomposition against brute force: the ranges, expanded
    /// value by value, are exactly the sorted curve values of every
    /// window cell, and no two consecutive ranges touch (each is
    /// maximal).
    fn check_ranges_exact(c: &HilbertCurve, x0: u32, y0: u32, x1: u32, y1: u32) {
        let ranges = c.ranges(x0, y0, x1, y1);
        let at = format!("window ({x0},{y0})-({x1},{y1}) at order {}", c.order());
        for w in ranges.windows(2) {
            assert!(w[0].1 + 1 < w[1].0, "{at}: ranges {w:?} touch or overlap");
        }
        let mut cells: Vec<u64> = (x0..=x1)
            .flat_map(|x| (y0..=y1).map(move |y| c.encode(x, y)))
            .collect();
        cells.sort_unstable();
        let covered: Vec<u64> = ranges.iter().flat_map(|&(a, b)| a..=b).collect();
        assert_eq!(covered, cells, "{at}: ranges are not the window's cells");
    }

    #[test]
    fn range_decomposition_exact() {
        let h = HilbertCurve::new(4);
        for (x0, y0, x1, y1) in [
            (0, 0, 15, 15),
            (3, 5, 9, 12),
            (0, 0, 0, 0),
            (7, 7, 8, 8),
            (0, 14, 15, 15),
            (5, 0, 5, 15),
        ] {
            check_ranges_exact(&h, x0, y0, x1, y1);
        }
        // Seeded random windows up to 64 cells a side, on grids from
        // 2 × 2 to 2^20 × 2^20 (the largest `BxConfig::lambda`).
        let mut state = 0x0DEC_0DE5u64;
        let mut below = |n: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as u32
        };
        for order in [1, 4, 7, 10, 16, 20] {
            let h = HilbertCurve::new(order);
            let side = h.side();
            for _ in 0..40 {
                // Window extents minus one, then a corner that fits.
                let (w, ht) = (below(side.min(64)), below(side.min(64)));
                let (x0, y0) = (below(side - w), below(side - ht));
                check_ranges_exact(&h, x0, y0, x0 + w, y0 + ht);
            }
        }
        // The whole order-20 grid is one range.
        let all = (1u64 << 40) - 1;
        let side = (1u32 << 20) - 1;
        assert_eq!(HilbertCurve::new(20).ranges(0, 0, side, side), [(0, all)]);
    }
}

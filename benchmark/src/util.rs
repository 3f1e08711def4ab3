//! Small std-only helpers: seeded RNG, sample statistics, process
//! facts. (The benchmark depends on the product crates only, so it
//! carries its own generator instead of the `rand` stand-in.)

use std::time::Duration;

/// SplitMix64: every generator in the benchmark is one of these,
/// seeded from `--seed` and a per-purpose tag, so the same seed gives
/// the same inputs and different purposes never share a stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, tag: &str) -> Rng {
        // FNV-1a over the tag, folded into the seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and the value is mostly one outlier's luck.
pub const MIN_BEYOND: usize = 10;

/// Latency (or any scalar) samples of one class of operation.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// `n` samples of the same value: a batch's per-query time counts
    /// once for every query in the batch.
    pub fn push_n(&mut self, v: f64, n: usize) {
        self.0.extend(std::iter::repeat_n(v, n));
    }

    pub fn push_dur_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len().max(1) as f64
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::MIN, f64::max)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count).
    /// Panics on an empty set: every caller sizes its phase so that
    /// cannot happen, and a silent 0 would read as a result.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of no samples");
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The `q`-quantile (nearest rank), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return None;
        }
        let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        Some(v[rank - 1])
    }

    /// Consecutive blocks (in arrival order) of at least `min` samples
    /// each; none when there are fewer than `min` samples.
    fn blocks(&self, min: usize) -> Vec<Samples> {
        let n = self.0.len() / min.max(1);
        if n == 0 {
            return Vec::new();
        }
        let size = self.0.len() / n;
        (0..n)
            .map(|b| {
                let end = if b + 1 == n {
                    self.0.len()
                } else {
                    (b + 1) * size
                };
                Samples(self.0[b * size..end].to_vec())
            })
            .collect()
    }

    /// A tail percentile that one bad half-second cannot move: the
    /// samples are cut, in arrival order, into as many blocks as each
    /// can still have [`MIN_BEYOND`] samples beyond the percentile, and
    /// the median of the blocks' percentiles is reported. A hiccup of
    /// the host lands in one or two blocks; a real tail is in all of
    /// them. `None` when even one block cannot be filled.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let per_block = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
        let tails: Vec<f64> = self
            .blocks(per_block)
            .iter()
            .map(|b| b.percentile(q).expect("block sized for the percentile"))
            .collect();
        (!tails.is_empty()).then(|| median_of(&tails))
    }

    /// Operations per unit of busy time, for samples that are each one
    /// operation's time: the median over blocks of `per_block` samples
    /// of count ÷ summed time (robust to a hiccup, like
    /// [`Samples::tail`]). Falls back to the whole set when it is
    /// smaller than one block.
    pub fn rate(&self, per_block: usize) -> f64 {
        let rates: Vec<f64> = self
            .blocks(per_block)
            .iter()
            .map(|b| b.len() as f64 / b.sum())
            .collect();
        if rates.is_empty() {
            self.len() as f64 / self.sum()
        } else {
            median_of(&rates)
        }
    }
}

/// Arithmetic mean of a few per-family statistics. Families with
/// disjoint latency ranges must not be pooled before taking a
/// percentile: the pooled median would sit in the gap between them and
/// jump from run to run.
pub fn mean_of(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a handful of plain values (set-up repeats).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Recursive size of a directory's regular files, in bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_tagged() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed+tag repeats");
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
        let mut r = Rng::new(1, "u");
        for _ in 0..1000 {
            let v = r.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=999 {
            s.push(i as f64);
        }
        // 999 samples: p99 is rank 990, 9 beyond -> refused.
        assert_eq!(s.percentile(0.99), None);
        s.push(1000.0);
        // 1000 samples: rank 990, exactly 10 beyond -> allowed.
        assert_eq!(s.percentile(0.99), Some(990.0));
        // p95 of 200 has exactly 10 beyond; of 199 it has 9.
        let mut t = Samples::new();
        for i in 1..=199 {
            t.push(i as f64);
        }
        assert_eq!(t.percentile(0.95), None);
        t.push(200.0);
        assert_eq!(t.percentile(0.95), Some(190.0));
        assert_eq!(Samples::new().percentile(0.5), None);
    }

    #[test]
    fn tail_is_the_median_of_block_tails() {
        // 3 000 samples of 1.0, with a burst of 60 slow ones in the
        // middle: 2 % of all samples, so the plain p99 is the burst...
        let mut s = Samples::new();
        for i in 0..3_000 {
            s.push(if (1_500..1_560).contains(&i) {
                50.0
            } else {
                1.0
            });
        }
        assert_eq!(s.percentile(0.99), Some(50.0));
        // ...but it sits in one of three blocks, and the median of the
        // blocks' p99s ignores it.
        assert_eq!(s.tail(0.99), Some(1.0));
        // A tail every block has is reported.
        let mut t = Samples::new();
        for i in 0..3_000 {
            t.push(if i % 50 == 0 { 9.0 } else { 1.0 });
        }
        assert_eq!(t.tail(0.99), Some(9.0));
        // Fewer samples than one block: refused, like the percentile.
        let mut u = Samples::new();
        for _ in 0..999 {
            u.push(1.0);
        }
        assert_eq!(u.tail(0.99), None);
        assert_eq!(u.tail(0.95), Some(1.0));
    }

    #[test]
    fn rate_is_the_median_block_rate() {
        let mut s = Samples::new();
        for i in 0..300 {
            s.push(if i < 100 { 4.0 } else { 2.0 });
        }
        // Blocks of 100: rates 0.25, 0.5, 0.5.
        assert_eq!(s.rate(100), 0.5);
        // Smaller than a block: the plain ratio.
        assert_eq!(s.rate(1_000), 300.0 / 800.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

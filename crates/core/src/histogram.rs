//! Equal-width cumulative frequency histograms.
//!
//! Section 5.2 uses "an equal width cumulative frequency histogram, per
//! DVA partition, to capture the data distribution of `v_yd(n_d)`":
//! bucket `i` counts the velocity points whose perpendicular speed does
//! not exceed the bucket's upper edge. The τ-selection algorithm then
//! evaluates the cost expression at each bucket edge. The same
//! structure is refreshed online to track changing speed distributions
//! (Section 5.5).

/// An equal-width cumulative histogram over `[0, max_value]`.
#[derive(Debug, Clone)]
pub struct CumulativeHistogram {
    /// Per-bucket (non-cumulative) counts.
    counts: Vec<u64>,
    max_value: f64,
    total: u64,
}

impl CumulativeHistogram {
    /// Creates a histogram with `buckets` equal-width buckets spanning
    /// `[0, max_value]`. `max_value` must be positive and finite;
    /// values above it are clamped into the last bucket.
    pub fn new(buckets: usize, max_value: f64) -> CumulativeHistogram {
        assert!(buckets >= 1, "need at least one bucket");
        assert!(
            max_value.is_finite() && max_value > 0.0,
            "max_value must be positive and finite"
        );
        CumulativeHistogram {
            counts: vec![0; buckets],
            max_value,
            total: 0,
        }
    }

    /// Builds a histogram from samples, sizing the range to the sample
    /// maximum (falling back to 1.0 for empty/degenerate input).
    pub fn from_samples(buckets: usize, samples: &[f64]) -> CumulativeHistogram {
        let max = samples
            .iter()
            .copied()
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut h = CumulativeHistogram::new(buckets, if max > 0.0 { max } else { 1.0 });
        for &s in samples {
            h.add(s);
        }
        h
    }

    /// Number of buckets.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Upper bound of the histogram range.
    #[inline]
    pub fn max_value(&self) -> f64 {
        self.max_value
    }

    /// Total count.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The raw per-bucket (non-cumulative) counts — checkpoint
    /// serialization of the online Section-5.5 histograms.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from serialized parts (the inverse of
    /// [`CumulativeHistogram::counts`] + [`CumulativeHistogram::max_value`],
    /// used when loading a checkpoint).
    pub fn from_parts(counts: Vec<u64>, max_value: f64) -> CumulativeHistogram {
        assert!(!counts.is_empty(), "need at least one bucket");
        assert!(
            max_value.is_finite() && max_value > 0.0,
            "max_value must be positive and finite"
        );
        let total = counts.iter().sum();
        CumulativeHistogram {
            counts,
            max_value,
            total,
        }
    }

    /// Records a sample (negative samples count as 0; samples above the
    /// range clamp into the last bucket).
    pub fn add(&mut self, value: f64) {
        let idx = self.bucket_of(value);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Clears all counts (keeps the bucket layout).
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// The upper edge value of bucket `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> f64 {
        self.max_value * (i + 1) as f64 / self.counts.len() as f64
    }

    /// Number of samples with value `<= edge(i)` (cumulative count).
    pub fn cumulative(&self, i: usize) -> u64 {
        self.counts[..=i.min(self.counts.len() - 1)].iter().sum()
    }

    /// Number of samples `<= value`, by bucket resolution.
    pub fn count_le(&self, value: f64) -> u64 {
        if value < 0.0 {
            return 0;
        }
        self.cumulative(self.bucket_of(value))
    }

    /// Iterates `(edge, cumulative_count)` pairs — the candidate
    /// `(v_yd, n_d)` pairs scanned by the τ selection algorithm.
    pub fn cumulative_iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut acc = 0u64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            acc += c;
            (self.edge(i), acc)
        })
    }

    fn bucket_of(&self, value: f64) -> usize {
        if value <= 0.0 {
            return 0;
        }
        let f = value / self.max_value * self.counts.len() as f64;
        (f.ceil() as usize)
            .saturating_sub(1)
            .min(self.counts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_and_cumulative() {
        let mut h = CumulativeHistogram::new(4, 8.0); // edges 2,4,6,8
        for v in [1.0, 2.0, 3.0, 5.0, 7.0, 100.0] {
            h.add(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.cumulative(0), 2); // 1.0, 2.0 (edge-inclusive)
        assert_eq!(h.cumulative(1), 3);
        assert_eq!(h.cumulative(2), 4);
        assert_eq!(h.cumulative(3), 6); // clamped 100.0 in last bucket
        assert_eq!(h.count_le(4.0), 3);
        assert_eq!(h.count_le(-1.0), 0);
    }

    #[test]
    fn edges() {
        let h = CumulativeHistogram::new(4, 8.0);
        assert_eq!(h.edge(0), 2.0);
        assert_eq!(h.edge(3), 8.0);
    }

    #[test]
    fn from_samples_sizes_range() {
        let h = CumulativeHistogram::from_samples(10, &[0.5, 2.0, 10.0]);
        assert_eq!(h.max_value(), 10.0);
        assert_eq!(h.total(), 3);
        // Every sample is <= max edge.
        assert_eq!(h.count_le(10.0), 3);
    }

    #[test]
    fn from_empty_samples() {
        let h = CumulativeHistogram::from_samples(5, &[]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.count_le(1.0), 0);
    }

    #[test]
    fn cumulative_iter_matches_manual() {
        let mut h = CumulativeHistogram::new(3, 3.0);
        for v in [0.5, 1.5, 2.5, 2.6] {
            h.add(v);
        }
        let pairs: Vec<(f64, u64)> = h.cumulative_iter().collect();
        assert_eq!(pairs, vec![(1.0, 1), (2.0, 2), (3.0, 4)]);
    }

    #[test]
    fn reset_clears() {
        let mut h = CumulativeHistogram::new(3, 3.0);
        h.add(1.0);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.cumulative(2), 0);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = CumulativeHistogram::new(4, 8.0);
        for v in [1.0, 3.0, 3.5, 7.9] {
            h.add(v);
        }
        let rebuilt = CumulativeHistogram::from_parts(h.counts().to_vec(), h.max_value());
        assert_eq!(rebuilt.total(), h.total());
        assert_eq!(rebuilt.counts(), h.counts());
        assert_eq!(rebuilt.max_value(), h.max_value());
        assert_eq!(rebuilt.count_le(4.0), h.count_le(4.0));
    }

    #[test]
    fn zero_values_land_in_first_bucket() {
        let mut h = CumulativeHistogram::new(3, 3.0);
        h.add(0.0);
        assert_eq!(h.cumulative(0), 1);
    }
}

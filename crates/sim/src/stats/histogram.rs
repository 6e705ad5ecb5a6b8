//! Linear and logarithmic histograms.

/// A histogram with fixed-width linear buckets plus an overflow bucket.
///
/// Used for distributions with a known, modest range, e.g. the VPN distance
/// between consecutive translation requests (Fig 8).
///
/// # Example
///
/// ```
/// let mut h = wsg_sim::stats::Histogram::new(1, 10);
/// h.record(0);
/// h.record(3);
/// h.record(3);
/// h.record(1_000); // overflow
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bucket_count(3), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of width `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `buckets` is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Self {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample. Counters saturate instead of wrapping so a
    /// long-lived accumulator (e.g. a daemon latency histogram) can never
    /// panic or corrupt itself, only pin at `u64::MAX`.
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value as u128);
        self.max = self.max.max(value);
        let idx = (value / self.bucket_width) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b = b.saturating_add(1),
            None => self.overflow = self.overflow.saturating_add(1),
        }
    }

    /// Adds every sample of `other` into `self` (bucket-wise, saturating).
    /// Used to combine per-worker histograms into one view.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ — merging histograms with
    /// different granularity would silently misbucket.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "cannot merge histograms with different bucket widths"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(o);
        }
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Count of samples that fell into the bucket containing `value`.
    pub fn bucket_count(&self, value: u64) -> u64 {
        let idx = (value / self.bucket_width) as usize;
        self.buckets.get(idx).copied().unwrap_or(self.overflow)
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of all recorded samples; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded sample; 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fraction of samples with `value <= threshold` (inclusive CDF point).
    ///
    /// Bucketing granularity applies: the threshold is rounded up to the end
    /// of its bucket.
    pub fn fraction_at_most(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let last = (threshold / self.bucket_width) as usize;
        let in_range: u64 = self.buckets.iter().take(last + 1).sum();
        in_range as f64 / self.count as f64
    }

    /// Iterates over `(bucket_start, count)` pairs for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as u64 * self.bucket_width, c))
    }

    /// Bucket width in value units.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// All bucket counts in order, including empty buckets. Together with
    /// [`Histogram::bucket_width`], [`Histogram::overflow`],
    /// [`Histogram::count`], [`Histogram::raw_sum`] and [`Histogram::max`]
    /// this exposes the complete state for exact serialization.
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Exact sum of all recorded samples (the un-averaged accumulator behind
    /// [`Histogram::mean`]).
    pub fn raw_sum(&self) -> u128 {
        self.sum
    }

    /// Rebuilds a histogram from previously captured state — the exact
    /// inverse of reading the raw accessors above.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `buckets` is empty.
    pub fn from_parts(
        bucket_width: u64,
        buckets: Vec<u64>,
        overflow: u64,
        count: u64,
        sum: u128,
        max: u64,
    ) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(!buckets.is_empty(), "need at least one bucket");
        Self {
            bucket_width,
            buckets,
            overflow,
            count,
            sum,
            max,
        }
    }
}

/// A histogram with power-of-two buckets: bucket `i` covers `[2^i, 2^(i+1))`,
/// with bucket 0 covering `{0, 1}`.
///
/// Used for quantities spanning many orders of magnitude such as
/// reuse distances (Fig 7) and per-VPN translation counts (Fig 6).
///
/// # Example
///
/// ```
/// let mut h = wsg_sim::stats::LogHistogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(5);
/// h.record(100_000);
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bucket_for(5), 2); // [4, 8)
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty log-scale histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index for `value`.
    pub fn bucket_for(&self, value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one sample. Counters saturate instead of wrapping so a
    /// long-lived accumulator (e.g. a daemon latency histogram) can never
    /// panic or corrupt itself, only pin at `u64::MAX`.
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value as u128);
        self.max = self.max.max(value);
        let idx = self.bucket_for(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
    }

    /// Adds every sample of `other` into `self` (bucket-wise, saturating).
    /// Log buckets always align, so histograms over disjoint value ranges
    /// merge exactly: the shorter bucket vector grows to cover the longer.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Bucketed upper bound for the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper edge of the first bucket whose cumulative count
    /// reaches `q * count`, clamped to the recorded maximum. Returns 0 for
    /// an empty histogram. Resolution is one power of two — adequate for
    /// ops dashboards, not for exact percentiles.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[expect(
            clippy::cast_sign_loss,
            reason = "q is clamped to [0, 1], so the product is non-negative"
        )]
        let want = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let want = want.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= want {
                // Bucket i covers [2^i, 2^(i+1)) (bucket 0 covers {0, 1}).
                let edge = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return edge.min(self.max);
            }
        }
        self.max
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Iterates over `(bucket_lower_bound, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }

    /// All bucket counts in index order (bucket `i` covers `[2^i, 2^(i+1))`),
    /// including empty buckets. Together with [`LogHistogram::count`],
    /// [`LogHistogram::raw_sum`] and [`LogHistogram::max`] this exposes the
    /// complete state for exact serialization.
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Exact sum of all recorded samples (the un-averaged accumulator behind
    /// [`LogHistogram::mean`]).
    pub fn raw_sum(&self) -> u128 {
        self.sum
    }

    /// Rebuilds a log histogram from previously captured state — the exact
    /// inverse of reading the raw accessors above.
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u128, max: u64) -> Self {
        Self {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Fraction of samples strictly greater than 1 — i.e. for per-VPN
    /// translation counts, the fraction of pages translated more than once
    /// (the motivation for caching in observation O3).
    pub fn fraction_above_one(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let singles = self.buckets.first().copied().unwrap_or(0);
        (self.count - singles) as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_width_rejected() {
        Histogram::new(0, 4);
    }

    #[test]
    fn linear_bucketing() {
        let mut h = Histogram::new(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(10), 1);
        assert_eq!(h.bucket_count(49), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 50);
    }

    #[test]
    fn linear_cdf() {
        let mut h = Histogram::new(1, 100);
        for v in 0..10 {
            h.record(v);
        }
        assert!((h.fraction_at_most(4) - 0.5).abs() < 1e-12);
        assert!((h.fraction_at_most(9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_iter_skips_empty() {
        let mut h = Histogram::new(2, 4);
        h.record(5);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v, vec![(4, 1)]);
    }

    #[test]
    fn linear_mean() {
        let mut h = Histogram::new(1, 10);
        h.record(2);
        h.record(4);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn log_bucket_boundaries() {
        let h = LogHistogram::new();
        assert_eq!(h.bucket_for(0), 0);
        assert_eq!(h.bucket_for(1), 0);
        assert_eq!(h.bucket_for(2), 1);
        assert_eq!(h.bucket_for(3), 1);
        assert_eq!(h.bucket_for(4), 2);
        assert_eq!(h.bucket_for(1023), 9);
        assert_eq!(h.bucket_for(1024), 10);
    }

    #[test]
    fn log_records_and_iterates() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(1);
        h.record(8);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(0, 2), (8, 1)]);
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn log_fraction_above_one() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(1);
        h.record(7);
        h.record(9);
        assert!((h.fraction_above_one() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn linear_from_parts_round_trips() {
        let mut h = Histogram::new(3, 4);
        for v in [0, 2, 5, 11, 999] {
            h.record(v);
        }
        let rebuilt = Histogram::from_parts(
            h.bucket_width(),
            h.raw_buckets().to_vec(),
            h.overflow(),
            h.count(),
            h.raw_sum(),
            h.max(),
        );
        assert_eq!(rebuilt.raw_buckets(), h.raw_buckets());
        assert_eq!(rebuilt.overflow(), h.overflow());
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.mean().to_bits(), h.mean().to_bits());
        assert_eq!(rebuilt.max(), h.max());
        assert_eq!(
            rebuilt.iter().collect::<Vec<_>>(),
            h.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn log_from_parts_round_trips() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 6, 6, 1 << 40] {
            h.record(v);
        }
        let rebuilt =
            LogHistogram::from_parts(h.raw_buckets().to_vec(), h.count(), h.raw_sum(), h.max());
        assert_eq!(rebuilt.raw_buckets(), h.raw_buckets());
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.mean().to_bits(), h.mean().to_bits());
        assert_eq!(rebuilt.max(), h.max());
        assert_eq!(
            rebuilt.fraction_above_one().to_bits(),
            h.fraction_above_one().to_bits()
        );
    }

    #[test]
    fn log_empty_stats_are_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_above_one(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        assert!(h.raw_buckets().is_empty());
    }

    #[test]
    fn log_single_sample() {
        let mut h = LogHistogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 37);
        assert_eq!(h.mean(), 37.0);
        // One sample: every quantile lands in its bucket, clamped to max.
        assert_eq!(h.quantile_upper_bound(0.0), 37);
        assert_eq!(h.quantile_upper_bound(0.5), 37);
        assert_eq!(h.quantile_upper_bound(1.0), 37);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(32, 1)]);
    }

    #[test]
    fn log_counts_saturate_instead_of_wrapping() {
        let mut h = LogHistogram::from_parts(vec![u64::MAX], u64::MAX, u128::MAX, 1);
        h.record(1); // would wrap count, bucket 0, and sum without saturation
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.raw_buckets()[0], u64::MAX);
        assert_eq!(h.raw_sum(), u128::MAX);
        let other = LogHistogram::from_parts(vec![3], 3, 3, 1);
        h.merge(&other); // merging into a pinned histogram stays pinned
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.raw_buckets()[0], u64::MAX);
    }

    #[test]
    fn linear_counts_saturate_instead_of_wrapping() {
        let mut h = Histogram::from_parts(2, vec![u64::MAX], u64::MAX, u64::MAX, u128::MAX, 9);
        h.record(0); // bucket 0 and count pinned
        h.record(1_000); // overflow pinned
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.raw_buckets()[0], u64::MAX);
        assert_eq!(h.overflow(), u64::MAX);
    }

    #[test]
    fn log_merge_disjoint_ranges() {
        // Low histogram: samples only in tiny buckets; high histogram:
        // samples only far above — no shared bucket between them.
        let mut low = LogHistogram::new();
        low.record(1);
        low.record(3);
        let mut high = LogHistogram::new();
        high.record(1 << 20);
        high.record((1 << 20) + 5);
        let mut merged = low.clone();
        merged.merge(&high);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.max(), (1 << 20) + 5);
        assert_eq!(merged.raw_sum(), low.raw_sum() + high.raw_sum());
        assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            vec![(0, 1), (2, 1), (1 << 20, 2)]
        );
        // Merging the other direction gives the same distribution.
        let mut flipped = high.clone();
        flipped.merge(&low);
        assert_eq!(flipped.raw_buckets(), merged.raw_buckets());
        assert_eq!(flipped.count(), merged.count());
    }

    #[test]
    fn linear_merge_disjoint_ranges_and_width_mismatch_panics() {
        let mut a = Histogram::new(10, 2);
        a.record(5);
        let mut b = Histogram::new(10, 8);
        b.record(75);
        a.merge(&b); // a's bucket vector grows to cover b's range
        assert_eq!(a.count(), 2);
        assert_eq!(a.bucket_count(5), 1);
        assert_eq!(a.bucket_count(75), 1);
        assert_eq!(a.overflow(), 0);
        assert_eq!(a.max(), 75);
        let w = Histogram::new(3, 2);
        let r = std::panic::catch_unwind(move || {
            let mut a = Histogram::new(10, 2);
            a.merge(&w);
        });
        assert!(r.is_err(), "mismatched widths must refuse to merge");
    }

    #[test]
    fn log_quantile_upper_bound_tracks_cdf() {
        let mut h = LogHistogram::new();
        for v in [1, 1, 1, 1, 1, 1, 1, 1, 1, 500] {
            h.record(v);
        }
        // 90% of samples are <= 1 (bucket 0, edge 1).
        assert_eq!(h.quantile_upper_bound(0.9), 1);
        // The tail sample lives in [256, 512); edge 511 clamps to max 500.
        assert_eq!(h.quantile_upper_bound(1.0), 500);
    }
}

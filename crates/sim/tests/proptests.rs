//! Property-based tests for the simulation engine primitives.

use proptest::prelude::*;
use wsg_sim::stats::{geo_mean, Histogram, LogHistogram, Summary, TimeSeries};
use wsg_sim::ServerPool;

proptest! {
    /// A k-server pool never runs more than k jobs concurrently and never
    /// starts a job before its arrival.
    #[test]
    fn server_pool_respects_capacity(
        k in 1usize..8,
        jobs in proptest::collection::vec((0u64..1000, 1u64..100), 1..100)
    ) {
        let mut sorted = jobs.clone();
        sorted.sort();
        let mut pool = ServerPool::new(k);
        let mut intervals = Vec::new();
        for (arrival, service) in sorted {
            let (start, done) = pool.admit(arrival, service);
            prop_assert!(start >= arrival);
            prop_assert_eq!(done, start + service);
            intervals.push((start, done));
        }
        // At any job start, at most k-1 other jobs overlap.
        for &(s, _) in &intervals {
            let overlapping = intervals
                .iter()
                .filter(|&&(a, b)| a <= s && s < b)
                .count();
            prop_assert!(overlapping <= k, "{overlapping} jobs at once with k={k}");
        }
    }

    /// Histogram counts are conserved across buckets + overflow.
    #[test]
    fn histogram_conserves_samples(
        width in 1u64..50,
        buckets in 1usize..20,
        samples in proptest::collection::vec(0u64..2000, 0..200)
    ) {
        let mut h = Histogram::new(width, buckets);
        for &s in &samples {
            h.record(s);
        }
        let bucketed: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(bucketed + h.overflow(), samples.len() as u64);
        prop_assert_eq!(h.count(), samples.len() as u64);
        if let Some(&max) = samples.iter().max() {
            prop_assert_eq!(h.max(), max);
        }
    }

    /// Log-histogram bucket bounds contain their samples.
    #[test]
    fn log_histogram_buckets_contain_samples(samples in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let total: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, samples.len() as u64);
        // Buckets are sorted by lower bound.
        let bounds: Vec<u64> = h.iter().map(|(lo, _)| lo).collect();
        for w in bounds.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Time-series total equals the number of recorded samples and windows
    /// tile time contiguously.
    #[test]
    fn time_series_tiles_time(window in 1u64..1000, samples in proptest::collection::vec(0u64..100_000, 1..100)) {
        let mut ts = TimeSeries::new(window);
        for &t in &samples {
            ts.record(t, 1);
        }
        prop_assert_eq!(ts.total_count(), samples.len() as u64);
        let starts: Vec<u64> = ts.windows().map(|w| w.start).collect();
        for (i, &s) in starts.iter().enumerate() {
            prop_assert_eq!(s, i as u64 * window);
        }
    }

    /// Summary mean lies within [min, max].
    #[test]
    fn summary_mean_is_bounded(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut s = Summary::new();
        for &v in &samples {
            s.record(v);
        }
        let (min, max) = (s.min().unwrap(), s.max().unwrap());
        prop_assert!(min <= s.mean() + 1e-9 && s.mean() <= max + 1e-9);
    }

    /// Geometric mean lies between min and max of positive inputs.
    #[test]
    fn geo_mean_is_bounded(samples in proptest::collection::vec(0.01f64..100.0, 1..50)) {
        let g = geo_mean(&samples).unwrap();
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(g >= min - 1e-9 && g <= max + 1e-9);
    }

    /// Merging summaries equals recording the concatenation.
    #[test]
    fn summary_merge_is_concatenation(
        a in proptest::collection::vec(-100f64..100.0, 0..50),
        b in proptest::collection::vec(-100f64..100.0, 0..50)
    ) {
        let mut sa = Summary::new();
        for &v in &a { sa.record(v); }
        let mut sb = Summary::new();
        for &v in &b { sb.record(v); }
        let mut merged = sa.clone();
        merged.merge(&sb);

        let mut all = Summary::new();
        for &v in a.iter().chain(&b) { all.record(v); }
        prop_assert_eq!(merged.count(), all.count());
        prop_assert!((merged.sum() - all.sum()).abs() < 1e-6);
        prop_assert_eq!(merged.min(), all.min());
        prop_assert_eq!(merged.max(), all.max());
    }
}

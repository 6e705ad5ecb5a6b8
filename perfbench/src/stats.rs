//! Small, dependency-free helpers shared by every workload: order
//! statistics, the open-loop pacer, metric-name validation, the output
//! digest, a seeded shuffle, and the peak-RSS probe.

use std::time::Duration;

/// Median of `samples`; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The samples a reported percentile must leave above it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_TAIL`] samples lie strictly above the selected rank (a p99 needs
/// at least 1000 samples, a p95 at least 200, a p50 at least 20).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Whether `name` is a well-formed metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// 64-bit FNV-1a over a sequence of records. Each record is followed by a
/// 0xff separator byte (never valid UTF-8), so `["ab", "c"]` and
/// `["a", "bc"]` digest differently.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An empty digest.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds one record in.
    pub fn record(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.byte(b);
        }
        self.byte(0xff);
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// Open-loop schedule: request `i` is due `i × interval` after the start,
/// whatever happened to earlier requests. The pacer keeps the lateness of
/// each release (how far behind its due time the generator itself ran), so
/// a stalled generator shows up instead of silently lowering the rate.
#[derive(Debug, Clone)]
pub struct Pacer {
    interval: Duration,
    max_late: Duration,
}

impl Pacer {
    /// A schedule releasing one request every `interval`.
    pub fn new(interval: Duration) -> Self {
        Self {
            interval,
            max_late: Duration::ZERO,
        }
    }

    /// Offset from the start at which request `i` is due.
    pub fn due(&self, i: usize) -> Duration {
        self.interval * u32::try_from(i).expect("request index fits in u32")
    }

    /// Records that request `i` was actually released `at` after the start
    /// and returns its lateness (zero when on time or early).
    pub fn release(&mut self, i: usize, at: Duration) -> Duration {
        let late = at.saturating_sub(self.due(i));
        self.max_late = self.max_late.max(late);
        late
    }

    /// The worst lateness recorded so far.
    pub fn max_late(&self) -> Duration {
        self.max_late
    }
}

/// SplitMix64: the benchmark's own seeded generator for point orders and
/// request mixes, independent of the simulator's RNG.
#[derive(Debug, Clone)]
pub struct Mix64(u64);

impl Mix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_samples_beyond_the_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, ten samples (191..=200) above it.
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        // One sample fewer leaves only nine above the rank.
        assert_eq!(percentile(&v[..199], 0.95), None);
        // p99 needs 1000 samples.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
        assert_eq!(percentile(&w[..999], 0.99), None);
        // p50 of 20 has ten above; of 19, only nine.
        assert_eq!(percentile(&w[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&w[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        Mix64::new(3).shuffle(&mut v);
        assert_eq!(percentile(&v, 0.5), Some(20.0));
        assert_eq!(median(&v), 20.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn pacer_counts_lateness_from_the_due_time() {
        let mut p = Pacer::new(Duration::from_millis(10));
        assert_eq!(p.due(0), Duration::ZERO);
        assert_eq!(p.due(3), Duration::from_millis(30));
        // Early or exactly on time is not late.
        assert_eq!(p.release(0, Duration::ZERO), Duration::ZERO);
        assert_eq!(p.release(1, Duration::from_millis(9)), Duration::ZERO);
        // A stall delays request 2 by 7 ms; request 3 is still judged
        // against its own due time, not against request 2's release.
        assert_eq!(
            p.release(2, Duration::from_millis(27)),
            Duration::from_millis(7)
        );
        assert_eq!(
            p.release(3, Duration::from_millis(32)),
            Duration::from_millis(2)
        );
        assert_eq!(p.max_late(), Duration::from_millis(7));
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for ok in [
            "wall_s",
            "xlat.tlb.hit_ratio",
            "serve.latency.disk_p50_ms",
            "9-a",
        ] {
            assert!(is_valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!is_valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_is_stable_and_record_delimited() {
        // Pinned value: a change here changes every recorded digest.
        let mut d = Digest::new();
        d.record("total_cycles: 1\n");
        assert_eq!(d.hex(), "3aa49ed422ed6c81");
        let two = |a: &str, b: &str| {
            let mut d = Digest::new();
            d.record(a);
            d.record(b);
            d.hex()
        };
        assert_eq!(two("ab", "c"), two("ab", "c"));
        assert_ne!(two("ab", "c"), two("a", "bc"));
        assert_ne!(two("ab", "c"), two("c", "ab"));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..23).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        Mix64::new(7).shuffle(&mut a);
        Mix64::new(7).shuffle(&mut b);
        Mix64::new(8).shuffle(&mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, base);
    }
}

//! Simulation metrics backing every figure of the evaluation.

use std::fmt::{Debug, Write as _};

use wsg_sim::stats::{
    Breakdown, Histogram, LogHistogram, ReuseTracker, Summary, TimeSeries, Window,
};
use wsg_sim::Cycle;

/// Version of the metrics measurement contract: what the fields of
/// [`Metrics`] mean and which of them [`Metrics::to_deterministic_string`]
/// renders. The on-disk run cache stamps every entry with this number and
/// treats a mismatch as a miss, so bumping it invalidates all previously
/// cached runs at once.
///
/// **Bump this whenever the deterministic-string contract changes**: a row
/// of the `Metrics` field table is added, removed or reordered, a field's
/// semantics change (same name, different measurement), or the cache text
/// codec changes shape. A new `host` row stays outside the deterministic
/// string but still requires a bump, because it enters the cache text and
/// older entries would fail to parse — which is safe (a miss) but wasteful,
/// so make it explicit. The unit test
/// `cache_text_and_deterministic_string_are_pinned` pins both texts byte for
/// byte, so a row or codec change fails it until this number has been
/// considered.
pub const METRICS_CONTRACT_VERSION: u32 = 1;

/// How a non-local translation request was ultimately resolved — the four
/// categories of Fig 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Served from a peer GPM's cache (concentric/route/distributed hit on a
    /// demand-installed entry).
    PeerCache,
    /// Redirected by the IOMMU's redirection table to a holder GPM.
    Redirection,
    /// Served from an entry installed by proactive delivery (a prefetched
    /// PTE, wherever it was found).
    Proactive,
    /// Resolved by an IOMMU page-table walk (or coalesced onto one).
    Iommu,
}

impl Resolution {
    /// Stable label used in breakdowns and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::PeerCache => "peer-cache",
            Resolution::Redirection => "redirection",
            Resolution::Proactive => "proactive",
            Resolution::Iommu => "iommu",
        }
    }
}

/// Generates [`Metrics`] from one table of `name: Type = init` rows: the
/// struct, `new`, the deterministic string and both halves of the cache
/// codec. `deterministic` rows enter every output in table order; `host`
/// rows are host-side measurements that enter the cache text but never the
/// deterministic string (rule d10). What a field renders, encodes and
/// decodes is decided by its type's [`Field`] impl. The table names `new`'s
/// parameters itself because macro hygiene would otherwise hide them from
/// the init expressions.
macro_rules! metrics_table {
    (
        fn new($gpm_count:ident, $time_window:ident);
        deterministic { $( $(#[$dmeta:meta])* $d:ident: $dty:ty = $dinit:expr, )* }
        host { $( $(#[$hmeta:meta])* $h:ident: $hty:ty = $hinit:expr, )* }
    ) => {
        /// Everything measured during one simulation run.
        ///
        /// Each field maps to one or more paper figures; see the field docs. The
        /// struct is plain data — the simulator fills it and the bench harness
        /// formats it.
        #[derive(Debug, Clone)]
        pub struct Metrics {
            $( $(#[$dmeta])* pub $d: $dty, )*
            $( $(#[$hmeta])* pub $h: $hty, )*
        }

        impl Metrics {
            /// Creates zeroed metrics with the standard breakdown categories.
            pub fn new($gpm_count: usize, $time_window: Cycle) -> Self {
                Self { $( $d: $dinit, )* $( $h: $hinit, )* }
            }

            /// Serializes every deterministic metric into a stable text form:
            /// two runs of the same `(benchmark, seed)` must produce
            /// byte-identical output (`tests/determinism.rs` enforces this).
            /// Fields appear in declaration order; the reuse tracker is
            /// rendered through its order-independent accessors because its
            /// internal bookkeeping is hash-keyed. Host-side fields are never
            /// rendered.
            pub fn to_deterministic_string(&self) -> String {
                let mut s = String::new();
                $( self.$d.render(&mut s, stringify!($d)); )*
                s
            }

            /// Serializes the full metrics state into the exact, line-oriented
            /// text form stored by the disk run cache. Unlike
            /// [`Metrics::to_deterministic_string`] (a *rendering* for
            /// comparison), this is a *codec*: [`Metrics::from_cache_text`]
            /// reconstructs a `Metrics` whose every accessor — including the
            /// deterministic string — is byte-identical to the original.
            /// Floating-point state is written as IEEE-754 bit patterns, so the
            /// round trip is exact, not shortest-representation approximate.
            ///
            /// The host-side fields are included after the deterministic ones
            /// (a cache hit reports the original run's event count and host
            /// cost).
            ///
            /// The first line pins the codec shape (`metrics-codec v1`) and the
            /// measurement contract ([`METRICS_CONTRACT_VERSION`]); decoding
            /// rejects any mismatch, which the disk cache treats as a miss.
            pub fn to_cache_text(&self) -> String {
                let mut s = String::new();
                let _ = writeln!(s, "metrics-codec v1 contract {METRICS_CONTRACT_VERSION}");
                $( self.$d.encode(&mut s, stringify!($d)); )*
                $( self.$h.encode(&mut s, stringify!($h)); )*
                s.push_str("end\n");
                s
            }

            /// Parses text produced by [`Metrics::to_cache_text`] back into a
            /// `Metrics` value. Strict by design: any missing line, unexpected
            /// key, malformed number, count mismatch, breakdown category other
            /// than the ones [`Metrics::new`] declares, or codec/contract
            /// version mismatch is an error — the disk cache maps every error
            /// to a miss and discards the entry, so corruption can never
            /// surface as wrong results.
            pub fn from_cache_text(text: &str) -> Result<Metrics, String> {
                let mut r = LineReader::new(text);
                let header = r.fields("metrics-codec", 3)?;
                if header[0] != "v1" {
                    return Err(format!("unsupported codec version `{}`", header[0]));
                }
                if header[1] != "contract" || header[2] != METRICS_CONTRACT_VERSION.to_string() {
                    return Err(format!(
                        "contract version mismatch: entry has `{} {}`, this build requires `contract {}`",
                        header[1], header[2], METRICS_CONTRACT_VERSION
                    ));
                }
                let mut m = Metrics::new(0, 1);
                $( m.$d.decode(&mut r, stringify!($d))?; )*
                $( m.$h.decode(&mut r, stringify!($h))?; )*
                r.fields("end", 0)?;
                r.expect_eof()?;
                Ok(m)
            }
        }
    };
}

metrics_table! {
    fn new(gpm_count, time_window);
    deterministic {
        /// Total execution time: the cycle at which the last CU drained.
        total_cycles: Cycle = 0,
        /// Per-GPM finish time (Fig 5's geometric imbalance).
        gpm_finish: Vec<Cycle> = vec![0; gpm_count],
        /// Memory operations completed.
        ops_completed: u64 = 0,

        /// Translations resolved entirely inside the requesting GPM
        /// (L1/L2/last-level TLB hits and local walks).
        local_translations: u64 = 0,
        /// Local page-table walks performed by GMMUs.
        local_walks: u64 = 0,
        /// Cuckoo-filter false positives (wasted local walks before remote
        /// forwarding, §II-B's doubled-latency case).
        cuckoo_false_positives: u64 = 0,
        /// Non-local translation requests issued (after GPM-side coalescing).
        remote_requests: u64 = 0,
        /// Remote requests coalesced into an in-flight identical request at the
        /// requesting GPM (L2 TLB MSHR merge).
        remote_coalesced: u64 = 0,

        /// Resolution-source counts for remote translations (Fig 16).
        resolution: Breakdown =
            Breakdown::new(&["peer-cache", "redirection", "proactive", "iommu"]),
        /// Per-request IOMMU latency components (Fig 3): `pre-queue`,
        /// `ptw-queue`, `walk`.
        iommu_latency: Breakdown = Breakdown::new(&["pre-queue", "ptw-queue", "walk"]),
        /// IOMMU input-buffer occupancy sampled over time (Fig 4).
        iommu_buffer: TimeSeries = TimeSeries::new(time_window),
        /// IOMMU-served translations over time (Fig 13).
        iommu_served: TimeSeries = TimeSeries::new(time_window),
        /// Per-VPN translation request stream at the IOMMU: occurrence counts
        /// (Fig 6) and reuse distances (Fig 7).
        iommu_reuse: ReuseTracker = ReuseTracker::new(),
        /// VPN distance between consecutive IOMMU translation requests (Fig 8).
        vpn_delta: Histogram = Histogram::new(1, 64),
        /// Remote-translation round-trip time, request issue to PFN arrival
        /// (Fig 17).
        remote_rtt: Summary = Summary::new(),
        /// Round-trip time split by resolution source (diagnostics for Fig 17).
        rtt_peer: Summary = Summary::new(),
        /// RTT of redirection-resolved requests.
        rtt_redirection: Summary = Summary::new(),
        /// RTT of proactively-served requests.
        rtt_proactive: Summary = Summary::new(),
        /// RTT of IOMMU-walk-resolved requests.
        rtt_iommu: Summary = Summary::new(),
        /// Remote-path retries due to a full L2-TLB MSHR at the requester.
        remote_retries: u64 = 0,
        /// IOMMU walks performed (including prefetch walks).
        iommu_walks: u64 = 0,
        /// Requests completed by PW-queue revisit coalescing.
        iommu_coalesced: u64 = 0,
        /// Redirection-table hits that failed at the holder (entry evicted).
        redirect_misses: u64 = 0,
        /// Requests stalled because the IOMMU TLB's MSHRs were full (Fig 19
        /// variant only).
        iommu_tlb_stalls: u64 = 0,

        /// PTEs pushed to auxiliary GPMs (demand + prefetch).
        ptes_pushed: u64 = 0,
        /// Prefetched PTEs delivered (`degree − 1` per prefetching walk).
        prefetches_issued: u64 = 0,
        /// Prefetched entries that served a later request (accuracy numerator;
        /// the paper reports 65.55 % average accuracy).
        prefetches_used: u64 = 0,

        /// Total payload bytes injected into the mesh.
        noc_bytes: u64 = 0,
        /// Total bytes × hops moved across mesh links.
        noc_hop_bytes: u64 = 0,
        /// Mesh packets injected.
        noc_packets: u64 = 0,
        /// Pages migrated by the optional migration extension.
        pages_migrated: u64 = 0,
    }
    host {
        /// Discrete events the run's event queue processed (the hot-loop work
        /// unit of DESIGN.md §11). Excluded from
        /// [`Metrics::to_deterministic_string`] so figure outputs stay
        /// byte-comparable across engine revisions that schedule differently.
        sim_events: u64 = 0,
        /// Host wall-clock nanoseconds spent inside `Simulation::run`.
        /// Host-dependent by nature, so deliberately excluded from
        /// [`Metrics::to_deterministic_string`].
        host_wall_nanos: u64 = 0,
    }
}

impl Metrics {
    /// Records a resolved remote translation.
    pub fn record_resolution(&mut self, r: Resolution) {
        self.resolution.add(r.label(), 1);
    }

    /// Fraction of remote translations *not* served by an IOMMU walk — the
    /// paper's "offloads 42.1 % of translations" headline.
    pub fn offload_fraction(&self) -> f64 {
        let total = self.resolution.total();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.resolution.share("iommu")
    }

    /// Prefetch accuracy: used / issued (0 when prefetching is off).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_used as f64 / self.prefetches_issued as f64
        }
    }

    /// Speedup of this run relative to `baseline` (> 1 means faster).
    ///
    /// # Panics
    ///
    /// Panics if this run recorded zero cycles.
    pub fn speedup_vs(&self, baseline: &Metrics) -> f64 {
        assert!(self.total_cycles > 0, "run did not execute");
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Imbalance across GPM finish times: `max / mean` (Fig 5's disparity).
    pub fn gpm_imbalance(&self) -> f64 {
        let n = self.gpm_finish.len();
        if n == 0 {
            return 1.0;
        }
        let max = *self.gpm_finish.iter().max().unwrap() as f64;
        let mean = self.gpm_finish.iter().sum::<Cycle>() as f64 / n as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Per-VPN IOMMU translation count histogram (Fig 6).
    pub fn translation_count_histogram(&self) -> LogHistogram {
        self.iommu_reuse.count_histogram()
    }
}

/// What one kind of [`Metrics`] field renders into the deterministic string,
/// encodes into the cache text, and decodes back. Decoding overwrites the
/// value [`Metrics::new`] built, so shape that `new` fixes (breakdown
/// category names) is checked against the text rather than read from it.
trait Field: Debug {
    /// Appends the field's deterministic-string line(s).
    fn render(&self, s: &mut String, name: &str) {
        let _ = writeln!(s, "{name}: {self:?}");
    }

    /// Appends the field's exact cache-text line(s), keyed by `key`.
    fn encode(&self, s: &mut String, key: &str);

    /// Replaces `self` with the value [`Field::encode`] wrote under `key`.
    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String>;
}

impl Field for u64 {
    fn encode(&self, s: &mut String, key: &str) {
        let _ = writeln!(s, "{key} {self}");
    }

    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String> {
        *self = parse(r.fields(key, 1)?[0], key)?;
        Ok(())
    }
}

impl Field for Vec<u64> {
    fn encode(&self, s: &mut String, key: &str) {
        write_list(s, format_args!("{key}"), self);
    }

    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String> {
        *self = r.list(key, 0)?.1;
        Ok(())
    }
}

impl Field for Breakdown {
    fn encode(&self, s: &mut String, key: &str) {
        let _ = write!(s, "{key} {}", self.samples());
        for (&name, &value) in self.names().iter().zip(self.raw_values()) {
            let _ = write!(s, " {name}={value}");
        }
        s.push('\n');
    }

    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String> {
        let names = self.names();
        let f = r.fields(key, 1 + names.len())?;
        let samples = parse(f[0], "breakdown samples")?;
        let values = names
            .iter()
            .zip(&f[1..])
            .enumerate()
            .map(|(i, (&name, &field))| {
                let value = field
                    .strip_prefix(name)
                    .and_then(|rest| rest.strip_prefix('='))
                    .ok_or_else(|| {
                        format!("`{key}` component {i} is `{field}`, expected `{name}=<n>`")
                    })?;
                parse(value, "breakdown value")
            })
            .collect::<Result<_, _>>()?;
        *self = Breakdown::from_parts(names, values, samples);
        Ok(())
    }
}

impl Field for TimeSeries {
    fn encode(&self, s: &mut String, key: &str) {
        let _ = writeln!(
            s,
            "{key} {} {}",
            self.window_width(),
            self.windows().count()
        );
        for w in self.windows() {
            let _ = writeln!(s, "w {} {} {} {}", w.count, w.sum, w.min, w.max);
        }
    }

    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String> {
        let head = r.fields(key, 2)?;
        let width: Cycle = parse(head[0], "window width")?;
        if width == 0 {
            return Err(format!("`{key}` has zero window width"));
        }
        let n: Cycle = parse(head[1], "window count")?;
        let windows = (0..n)
            .map(|i| {
                let f = r.fields("w", 4)?;
                Ok(Window {
                    start: i
                        .checked_mul(width)
                        .ok_or_else(|| format!("`{key}` window {i} starts past the cycle range"))?,
                    count: parse(f[0], "window count")?,
                    sum: parse(f[1], "window sum")?,
                    min: parse(f[2], "window min")?,
                    max: parse(f[3], "window max")?,
                })
            })
            .collect::<Result<_, String>>()?;
        *self = TimeSeries::from_parts(width, windows);
        Ok(())
    }
}

impl Field for ReuseTracker {
    /// Renders through the tracker's order-independent accessors: its own
    /// bookkeeping is hash-keyed.
    fn render(&self, s: &mut String, name: &str) {
        let _ = writeln!(s, "{name}.counts: {:?}", self.count_histogram());
        let _ = writeln!(s, "{name}.reuse: {:?}", self.reuse_histogram());
        let _ = writeln!(s, "{name}.distinct: {}", self.distinct_keys());
        let _ = writeln!(s, "{name}.touches: {}", self.total_touches());
    }

    fn encode(&self, s: &mut String, key: &str) {
        let _ = writeln!(s, "{key} {} {}", self.total_touches(), self.distinct_keys());
        for (k, c) in self.counts_sorted() {
            let _ = writeln!(s, "c {k} {c}");
        }
        let h = self.reuse_histogram();
        write_list(
            s,
            format_args!("{key}.hist {} {} {}", h.count(), h.raw_sum(), h.max()),
            h.raw_buckets(),
        );
    }

    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String> {
        let head = r.fields(key, 2)?;
        let touches = parse(head[0], "reuse touches")?;
        let distinct: usize = parse(head[1], "reuse distinct")?;
        let counts = (0..distinct)
            .map(|_| {
                let kv = r.fields("c", 2)?;
                Ok((
                    parse(kv[0], "reuse count key")?,
                    parse(kv[1], "reuse count value")?,
                ))
            })
            .collect::<Result<Vec<(u64, u64)>, String>>()?;
        let (f, buckets) = r.list(&format!("{key}.hist"), 3)?;
        let hist = LogHistogram::from_parts(
            buckets,
            parse(f[0], "count")?,
            parse(f[1], "sum")?,
            parse(f[2], "max")?,
        );
        *self = ReuseTracker::from_parts(counts, touches, hist);
        Ok(())
    }
}

impl Field for Histogram {
    fn encode(&self, s: &mut String, key: &str) {
        write_list(
            s,
            format_args!(
                "{key} {} {} {} {} {}",
                self.bucket_width(),
                self.overflow(),
                self.count(),
                self.raw_sum(),
                self.max()
            ),
            self.raw_buckets(),
        );
    }

    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String> {
        let (f, buckets) = r.list(key, 5)?;
        let width = parse(f[0], "bucket width")?;
        if buckets.is_empty() || width == 0 {
            return Err(format!("`{key}` bucket list malformed"));
        }
        *self = Histogram::from_parts(
            width,
            buckets,
            parse(f[1], "overflow")?,
            parse(f[2], "count")?,
            parse(f[3], "sum")?,
            parse(f[4], "max")?,
        );
        Ok(())
    }
}

impl Field for Summary {
    fn encode(&self, s: &mut String, key: &str) {
        // f64 state as IEEE-754 bit patterns for an exact round trip; an
        // empty summary writes zeros (ignored on decode).
        let _ = writeln!(
            s,
            "{key} {} {:016x} {:016x} {:016x}",
            self.count(),
            self.sum().to_bits(),
            self.min().unwrap_or(0.0).to_bits(),
            self.max().unwrap_or(0.0).to_bits()
        );
    }

    fn decode(&mut self, r: &mut LineReader<'_>, key: &str) -> Result<(), String> {
        let f = r.fields(key, 4)?;
        *self = Summary::from_parts(
            parse(f[0], "summary count")?,
            parse_f64_bits(f[1], "summary sum")?,
            parse_f64_bits(f[2], "summary min")?,
            parse_f64_bits(f[3], "summary max")?,
        );
        Ok(())
    }
}

/// Writes `head`, the list's length and its elements as one cache-text line
/// (the shape [`LineReader::list`] reads).
fn write_list(s: &mut String, head: std::fmt::Arguments<'_>, values: &[u64]) {
    let _ = write!(s, "{head} {}", values.len());
    for v in values {
        let _ = write!(s, " {v}");
    }
    s.push('\n');
}

fn parse<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token
        .parse()
        .map_err(|_| format!("malformed {what}: `{token}`"))
}

fn parse_f64_bits(token: &str, what: &str) -> Result<f64, String> {
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("malformed {what} bits: `{token}`"))
}

/// Strict cursor over the lines of a cache-text document. Every accessor
/// checks the line's leading key and exact field count, so a truncated or
/// shuffled document fails loudly at the first bad line.
struct LineReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> LineReader<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines(),
            line_no: 0,
        }
    }

    /// Consumes the next line, asserts its first token is `key`, and returns
    /// the tokens after it.
    fn tokens(&mut self, key: &str) -> Result<std::str::SplitWhitespace<'a>, String> {
        self.line_no += 1;
        let line = self.lines.next().ok_or_else(|| {
            format!(
                "line {}: unexpected end of entry (wanted `{key}`)",
                self.line_no
            )
        })?;
        let mut tokens = line.split_whitespace();
        let head = tokens.next().unwrap_or("");
        if head != key {
            return Err(format!(
                "line {}: expected `{key}`, found `{head}`",
                self.line_no
            ));
        }
        Ok(tokens)
    }

    /// Consumes a `key` line carrying exactly `n` fields and returns them.
    fn fields(&mut self, key: &str, n: usize) -> Result<Vec<&'a str>, String> {
        let fields: Vec<&str> = self.tokens(key)?.collect();
        if fields.len() != n {
            return Err(format!(
                "line {}: `{key}` carries {} field(s), expected {n}",
                self.line_no,
                fields.len()
            ));
        }
        Ok(fields)
    }

    /// Consumes a line written by [`write_list`]: `key`, `fixed` fields, a
    /// length, and exactly that many `u64` elements.
    fn list(&mut self, key: &str, fixed: usize) -> Result<(Vec<&'a str>, Vec<u64>), String> {
        let mut tokens = self.tokens(key)?;
        let head: Vec<&'a str> = tokens.by_ref().take(fixed).collect();
        let len = tokens
            .next()
            .ok_or_else(|| format!("line {}: `{key}` missing length", self.line_no))?;
        let n: usize = parse(len, "list length")?;
        let values: Vec<u64> = tokens
            .map(|t| parse(t, "list element"))
            .collect::<Result<_, _>>()?;
        if values.len() != n {
            return Err(format!(
                "line {}: `{key}` declares {n} element(s) but carries {}",
                self.line_no,
                values.len()
            ));
        }
        Ok((head, values))
    }

    fn expect_eof(&mut self) -> Result<(), String> {
        match self.lines.next() {
            None => Ok(()),
            Some(extra) => Err(format!(
                "line {}: trailing data after `end`: `{extra}`",
                self.line_no + 1
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_metrics_are_zeroed() {
        let m = Metrics::new(48, 10_000);
        assert_eq!(m.total_cycles, 0);
        assert_eq!(m.gpm_finish.len(), 48);
        assert_eq!(m.offload_fraction(), 0.0);
        assert_eq!(m.prefetch_accuracy(), 0.0);
    }

    #[test]
    fn offload_fraction_excludes_iommu() {
        let mut m = Metrics::new(1, 100);
        m.record_resolution(Resolution::PeerCache);
        m.record_resolution(Resolution::Redirection);
        m.record_resolution(Resolution::Proactive);
        m.record_resolution(Resolution::Iommu);
        assert!((m.offload_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_ratio_of_cycles() {
        let mut base = Metrics::new(1, 100);
        base.total_cycles = 1000;
        let mut fast = Metrics::new(1, 100);
        fast.total_cycles = 500;
        assert_eq!(fast.speedup_vs(&base), 2.0);
    }

    #[test]
    #[should_panic(expected = "did not execute")]
    fn speedup_of_empty_run_panics() {
        let base = Metrics::new(1, 100);
        let empty = Metrics::new(1, 100);
        empty.speedup_vs(&base);
    }

    #[test]
    fn imbalance_of_uniform_finish_is_one() {
        let mut m = Metrics::new(4, 100);
        m.gpm_finish = vec![100, 100, 100, 100];
        assert!((m.gpm_imbalance() - 1.0).abs() < 1e-12);
        m.gpm_finish = vec![100, 100, 100, 200];
        assert!(m.gpm_imbalance() > 1.3);
    }

    #[test]
    fn prefetch_accuracy_ratio() {
        let mut m = Metrics::new(1, 100);
        m.prefetches_issued = 100;
        m.prefetches_used = 65;
        assert!((m.prefetch_accuracy() - 0.65).abs() < 1e-12);
    }

    /// Builds a metrics value with every field populated and some
    /// deliberately awkward values (negative RTTs never occur, but NaN-free
    /// odd floats and huge u64s do).
    fn populated_metrics() -> Metrics {
        let mut m = Metrics::new(3, 100);
        m.total_cycles = 123_456;
        m.gpm_finish = vec![100, 123_456, 99_999];
        m.ops_completed = 1 << 40;
        m.local_translations = 7;
        m.local_walks = 5;
        m.cuckoo_false_positives = 2;
        m.remote_requests = 11;
        m.remote_coalesced = 3;
        m.record_resolution(Resolution::PeerCache);
        m.record_resolution(Resolution::Iommu);
        m.record_resolution(Resolution::Iommu);
        m.iommu_latency.add("pre-queue", 4);
        m.iommu_latency.add("walk", 90);
        m.iommu_buffer.record(5, 2);
        m.iommu_buffer.record(250, 9);
        m.iommu_served.record(110, 1);
        for k in [42, 42, 7, 42, 9_000_000_000] {
            m.iommu_reuse.touch(k);
        }
        m.vpn_delta.record(0);
        m.vpn_delta.record(63);
        m.vpn_delta.record(1_000_000); // overflow bucket
        for v in [0.5, 17.25, 3.0] {
            m.remote_rtt.record(v);
        }
        m.rtt_peer.record(1.0 / 3.0);
        m.rtt_iommu.record(f64::MAX / 2.0);
        m.remote_retries = 1;
        m.iommu_walks = 6;
        m.iommu_coalesced = 2;
        m.redirect_misses = 1;
        m.iommu_tlb_stalls = 4;
        m.ptes_pushed = 12;
        m.prefetches_issued = 9;
        m.prefetches_used = 6;
        m.noc_bytes = u64::MAX - 1;
        m.noc_hop_bytes = 1 << 50;
        m.noc_packets = 77;
        m.pages_migrated = 1;
        m.sim_events = 987_654_321;
        m.host_wall_nanos = 1_000_000;
        m
    }

    /// Rule d10 (DESIGN.md §8.1): the host-side fields never reach the
    /// deterministic string, so two runs that differ only in event count
    /// or wall time serialize byte-identically.
    #[test]
    fn deterministic_string_ignores_host_fields() {
        let host = populated_metrics();
        assert!(host.sim_events != 0 && host.host_wall_nanos != 0);
        assert_ne!(host.sim_events, host.host_wall_nanos);
        let mut zeroed = host.clone();
        zeroed.sim_events = 0;
        zeroed.host_wall_nanos = 0;
        assert_eq!(
            host.to_deterministic_string(),
            zeroed.to_deterministic_string()
        );
    }

    /// The measurement contract, byte for byte. Adding, removing,
    /// reordering or renaming a field, or changing how one renders or
    /// encodes, fails this test: decide whether the change needs a
    /// [`METRICS_CONTRACT_VERSION`] bump before updating the literals.
    #[test]
    fn cache_text_and_deterministic_string_are_pinned() {
        let m = populated_metrics();
        assert_eq!(
            m.to_cache_text(),
            "\
            metrics-codec v1 contract 1\n\
            total_cycles 123456\n\
            gpm_finish 3 100 123456 99999\n\
            ops_completed 1099511627776\n\
            local_translations 7\n\
            local_walks 5\n\
            cuckoo_false_positives 2\n\
            remote_requests 11\n\
            remote_coalesced 3\n\
            resolution 3 peer-cache=1 redirection=0 proactive=0 iommu=2\n\
            iommu_latency 2 pre-queue=4 ptw-queue=0 walk=90\n\
            iommu_buffer 100 3\n\
            w 1 2 2 2\n\
            w 0 0 0 0\n\
            w 1 9 9 9\n\
            iommu_served 100 2\n\
            w 0 0 0 0\n\
            w 1 1 1 1\n\
            iommu_reuse 5 3\n\
            c 7 1\n\
            c 42 3\n\
            c 9000000000 1\n\
            iommu_reuse.hist 2 1 1 1 2\n\
            vpn_delta 1 1 3 1000063 1000000 64 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1\n\
            remote_rtt 3 4034c00000000000 3fe0000000000000 4031400000000000\n\
            rtt_peer 1 3fd5555555555555 3fd5555555555555 3fd5555555555555\n\
            rtt_redirection 0 0000000000000000 0000000000000000 0000000000000000\n\
            rtt_proactive 0 0000000000000000 0000000000000000 0000000000000000\n\
            rtt_iommu 1 7fdfffffffffffff 7fdfffffffffffff 7fdfffffffffffff\n\
            remote_retries 1\n\
            iommu_walks 6\n\
            iommu_coalesced 2\n\
            redirect_misses 1\n\
            iommu_tlb_stalls 4\n\
            ptes_pushed 12\n\
            prefetches_issued 9\n\
            prefetches_used 6\n\
            noc_bytes 18446744073709551614\n\
            noc_hop_bytes 1125899906842624\n\
            noc_packets 77\n\
            pages_migrated 1\n\
            sim_events 987654321\n\
            host_wall_nanos 1000000\n\
            end\n"
        );
        assert_eq!(
            m.to_deterministic_string(),
            "\
            total_cycles: 123456\n\
            gpm_finish: [100, 123456, 99999]\n\
            ops_completed: 1099511627776\n\
            local_translations: 7\n\
            local_walks: 5\n\
            cuckoo_false_positives: 2\n\
            remote_requests: 11\n\
            remote_coalesced: 3\n\
            resolution: Breakdown { names: [\"peer-cache\", \"redirection\", \"proactive\", \"iommu\"], values: [1, 0, 0, 2], samples: 3 }\n\
            iommu_latency: Breakdown { names: [\"pre-queue\", \"ptw-queue\", \"walk\"], values: [4, 0, 90], samples: 2 }\n\
            iommu_buffer: TimeSeries { window: 100, windows: [Window { start: 0, count: 1, sum: 2, min: 2, max: 2 }, Window { start: 100, count: 0, sum: 0, min: 0, max: 0 }, Window { start: 200, count: 1, sum: 9, min: 9, max: 9 }] }\n\
            iommu_served: TimeSeries { window: 100, windows: [Window { start: 0, count: 0, sum: 0, min: 0, max: 0 }, Window { start: 100, count: 1, sum: 1, min: 1, max: 1 }] }\n\
            iommu_reuse.counts: LogHistogram { buckets: [2, 1], count: 3, sum: 5, max: 3 }\n\
            iommu_reuse.reuse: LogHistogram { buckets: [2], count: 2, sum: 1, max: 1 }\n\
            iommu_reuse.distinct: 3\n\
            iommu_reuse.touches: 5\n\
            vpn_delta: Histogram { bucket_width: 1, buckets: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], overflow: 1, count: 3, sum: 1000063, max: 1000000 }\n\
            remote_rtt: Summary { count: 3, sum: 20.75, min: 0.5, max: 17.25 }\n\
            rtt_peer: Summary { count: 1, sum: 0.3333333333333333, min: 0.3333333333333333, max: 0.3333333333333333 }\n\
            rtt_redirection: Summary { count: 0, sum: 0.0, min: 0.0, max: 0.0 }\n\
            rtt_proactive: Summary { count: 0, sum: 0.0, min: 0.0, max: 0.0 }\n\
            rtt_iommu: Summary { count: 1, sum: 8.988465674311579e307, min: 8.988465674311579e307, max: 8.988465674311579e307 }\n\
            remote_retries: 1\n\
            iommu_walks: 6\n\
            iommu_coalesced: 2\n\
            redirect_misses: 1\n\
            iommu_tlb_stalls: 4\n\
            ptes_pushed: 12\n\
            prefetches_issued: 9\n\
            prefetches_used: 6\n\
            noc_bytes: 18446744073709551614\n\
            noc_hop_bytes: 1125899906842624\n\
            noc_packets: 77\n\
            pages_migrated: 1\n"
        );
    }

    #[test]
    fn cache_text_round_trips_exactly() {
        let m = populated_metrics();
        let text = m.to_cache_text();
        let back = Metrics::from_cache_text(&text).expect("decode");
        // The deterministic string is the byte-identity contract...
        assert_eq!(back.to_deterministic_string(), m.to_deterministic_string());
        // ...and the re-encoding closes the loop on every field outside it
        // too (sim_events, host_wall_nanos, raw f64 bits, reuse counts).
        assert_eq!(back.to_cache_text(), text);
        assert_eq!(back.sim_events, m.sim_events);
        assert_eq!(back.host_wall_nanos, m.host_wall_nanos);
        assert_eq!(back.iommu_reuse.occurrences(42), 3);
        assert_eq!(
            back.remote_rtt.sum().to_bits(),
            m.remote_rtt.sum().to_bits()
        );
    }

    #[test]
    fn cache_text_of_empty_metrics_round_trips() {
        let m = Metrics::new(4, 10_000);
        let back = Metrics::from_cache_text(&m.to_cache_text()).expect("decode");
        assert_eq!(back.to_cache_text(), m.to_cache_text());
        assert_eq!(back.remote_rtt.min(), None);
    }

    #[test]
    fn truncated_cache_text_is_rejected() {
        let text = populated_metrics().to_cache_text();
        // Chop at every line boundary: each prefix must fail, never panic.
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(
                Metrics::from_cache_text(&partial).is_err(),
                "truncation to {keep} lines must fail"
            );
        }
        assert!(Metrics::from_cache_text(&text).is_ok());
    }

    #[test]
    fn corrupted_cache_text_is_rejected() {
        let text = populated_metrics().to_cache_text();
        // Flip one token on a scalar line.
        let bad = text.replace("ops_completed", "ops_completedX");
        assert!(Metrics::from_cache_text(&bad).is_err());
        // Damage a number.
        let bad = text.replace("total_cycles 123456", "total_cycles 12z456");
        assert!(Metrics::from_cache_text(&bad).is_err());
        // Rename a breakdown category: decoding checks the names `new` gives.
        let bad = text.replace("peer-cache=", "peer-cachX=");
        assert!(Metrics::from_cache_text(&bad).is_err());
        // A window width whose window starts overflow the cycle range.
        let bad = text.replace("iommu_buffer 100 3", "iommu_buffer 9223372036854775808 3");
        assert!(Metrics::from_cache_text(&bad).is_err());
        // Trailing garbage after `end`.
        let bad = format!("{text}garbage\n");
        assert!(Metrics::from_cache_text(&bad).is_err());
    }

    #[test]
    fn contract_version_mismatch_is_rejected() {
        let text = populated_metrics().to_cache_text();
        let bad = text.replace(
            &format!("contract {METRICS_CONTRACT_VERSION}"),
            "contract 999999",
        );
        let err = Metrics::from_cache_text(&bad).unwrap_err();
        assert!(err.contains("contract version mismatch"), "{err}");
        let bad = text.replace("metrics-codec v1", "metrics-codec v9");
        assert!(Metrics::from_cache_text(&bad)
            .unwrap_err()
            .contains("unsupported codec version"));
    }

    #[test]
    fn resolution_labels_match_breakdown() {
        let mut m = Metrics::new(1, 100);
        for r in [
            Resolution::PeerCache,
            Resolution::Redirection,
            Resolution::Proactive,
            Resolution::Iommu,
        ] {
            m.record_resolution(r);
            assert_eq!(m.resolution.value(r.label()), 1);
        }
    }
}

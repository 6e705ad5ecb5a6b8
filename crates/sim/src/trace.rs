//! Structured, deterministic request-lifecycle tracing.
//!
//! A [`TraceSink`] records cycle-stamped span events for each translation
//! request's journey through the simulator: issue, L1/L2 TLB probes, cuckoo
//! filter checks, local walks, per-hop NoC timing, and the remote
//! peer-cache / redirection / IOMMU resolution path. It is an
//! [`Observer`]: a simulation that owns one gets every hook, and a plain
//! run (observer `()`) pays nothing and simulates identically.
//!
//! # Determinism contract (DESIGN.md §10)
//!
//! * Hooks are purely observational: they never influence event ordering,
//!   timing, or any simulated state.
//! * Events are recorded in simulation order (the engine is
//!   single-threaded per run), so two traced runs of the same
//!   `(benchmark, seed)` produce byte-identical [`TraceSink::to_chrome_json`]
//!   and [`TraceSink::stage_csv`] output.
//! * Stage names are static, JSON-safe identifiers; summaries iterate a
//!   `BTreeMap` keyed by stage name (lint rule d1).
//!
//! # Example
//!
//! ```
//! use wsg_sim::trace::TraceSink;
//!
//! let mut sink = TraceSink::new();
//! sink.set_context(100, 7);
//! sink.instant("tlb.miss", 3, 0x42);
//! sink.complete("remote", 100, 250, 3, 0);
//! assert_eq!(sink.len(), 2);
//! assert!(sink.to_chrome_json().contains("\"name\":\"remote\""));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::observe::Observer;
use crate::time::Cycle;

/// Sentinel request id for events not attributable to a single request.
pub const NO_REQ: u64 = u64::MAX;

/// The kind of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A closed interval: start cycle plus duration.
    Complete,
    /// A point event at a single cycle.
    Instant,
}

/// One cycle-stamped trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span or point event.
    pub kind: SpanKind,
    /// Static stage name (e.g. `"tlb.miss"`, `"remote"`); must be JSON-safe.
    pub stage: &'static str,
    /// Event cycle (start cycle for [`SpanKind::Complete`]).
    pub t: Cycle,
    /// Duration in cycles (0 for instants).
    pub dur: Cycle,
    /// Request id, or [`NO_REQ`].
    pub req: u64,
    /// Structure instance id (the engine's site numbering).
    pub site: u64,
    /// Stage-specific payload (VPN, bytes, hop count, …).
    pub arg: u64,
}

/// Latency distribution of one stage, in cycles.
///
/// Percentiles use the nearest-rank method on the recorded durations, so
/// they are exact integers and deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total cycles across spans.
    pub sum: u64,
    /// Shortest span.
    pub min: u64,
    /// Longest span.
    pub max: u64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Nearest-rank percentile of a sorted, non-empty sample: the smallest value
/// with at least `pct`% of the sample at or below it.
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty() && (1..=100).contains(&pct));
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

impl StageStats {
    /// Stats over a set of span durations (sorted internally).
    pub fn from_durations(mut durations: Vec<u64>) -> Self {
        if durations.is_empty() {
            return Self::default();
        }
        durations.sort_unstable();
        let count = durations.len() as u64;
        let sum = durations.iter().sum();
        Self {
            count,
            sum,
            min: durations[0],
            max: durations[durations.len() - 1],
            p50: percentile(&durations, 50),
            p95: percentile(&durations, 95),
            p99: percentile(&durations, 99),
        }
    }

    /// Mean span length in cycles (0 for an empty stage).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Collects trace events for one simulation run.
///
/// The engine stamps a *context* — the current cycle and request id — at
/// each event dispatch; point events ([`TraceSink::instant`]) are recorded
/// against it, and spans with exact interval knowledge use
/// [`TraceSink::complete`].
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    now: Cycle,
    req: u64,
}

impl TraceSink {
    /// An empty sink with context `(cycle 0, NO_REQ)`.
    pub fn new() -> Self {
        Self {
            events: Vec::new(),
            now: 0,
            req: NO_REQ,
        }
    }

    /// Sets the current `(cycle, request)` context used to stamp instants.
    pub fn set_context(&mut self, now: Cycle, req: u64) {
        self.now = now;
        self.req = req;
    }

    /// Records a point event at the current context cycle.
    pub fn instant(&mut self, stage: &'static str, site: u64, arg: u64) {
        self.events.push(TraceEvent {
            kind: SpanKind::Instant,
            stage,
            t: self.now,
            dur: 0,
            req: self.req,
            site,
            arg,
        });
    }

    /// Records a closed `[start, start + dur]` span attributed to the
    /// current context request.
    pub fn complete(&mut self, stage: &'static str, start: Cycle, dur: Cycle, site: u64, arg: u64) {
        self.events.push(TraceEvent {
            kind: SpanKind::Complete,
            stage,
            t: start,
            dur,
            req: self.req,
            site,
            arg,
        });
    }

    /// All recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-stage latency distributions over all [`SpanKind::Complete`]
    /// events, keyed and ordered by stage name.
    pub fn stage_summary(&self) -> BTreeMap<&'static str, StageStats> {
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == SpanKind::Complete {
                durations.entry(ev.stage).or_default().push(ev.dur);
            }
        }
        durations
            .into_iter()
            .map(|(stage, d)| (stage, StageStats::from_durations(d)))
            .collect()
    }

    /// Renders the events as Chrome trace-event JSON (loadable in Perfetto
    /// or `chrome://tracing`).
    ///
    /// Complete spans become `"ph":"X"` events and instants `"ph":"i"`;
    /// `ts`/`dur` are in cycles, one track (`tid`) per request (`-1` for
    /// events without a request), and the structure site and payload ride in
    /// `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid: i64 = if ev.req == NO_REQ { -1 } else { ev.req as i64 };
            let _ = match ev.kind {
                SpanKind::Complete => write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"wsg\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"site\":{},\"arg\":{}}}}}",
                    ev.stage, ev.t, ev.dur, tid, ev.site, ev.arg
                ),
                SpanKind::Instant => write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"wsg\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"site\":{},\"arg\":{}}}}}",
                    ev.stage, ev.t, tid, ev.site, ev.arg
                ),
            };
        }
        out.push_str("]}");
        out
    }

    /// Renders the per-stage latency table as CSV
    /// (`stage,count,sum,mean,p50,p95,p99,min,max`; cycles).
    pub fn stage_csv(&self) -> String {
        let mut out = String::from("stage,count,sum,mean,p50,p95,p99,min,max\n");
        for (stage, s) in self.stage_summary() {
            let _ = writeln!(
                out,
                "{stage},{},{},{:.2},{},{},{},{},{}",
                s.count,
                s.sum,
                s.mean(),
                s.p50,
                s.p95,
                s.p99,
                s.min,
                s.max
            );
        }
        out
    }
}

impl Observer for TraceSink {
    fn context(&mut self, now: Cycle, req: u64) {
        self.set_context(now, req);
    }

    fn instant(&mut self, stage: &'static str, site: u64, arg: u64) {
        TraceSink::instant(self, stage, site, arg);
    }

    fn complete(&mut self, stage: &'static str, start: Cycle, dur: Cycle, site: u64, arg: u64) {
        TraceSink::complete(self, stage, start, dur, site, arg);
    }

    fn hop(&mut self, site: u64, start: Cycle, dur: Cycle, bytes: u64) {
        TraceSink::complete(self, "noc.hop", start, dur, site, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instants_use_the_engine_context() {
        let mut s = TraceSink::new();
        s.set_context(42, 7);
        s.instant("tlb.hit", 3, 0x1000);
        s.set_context(50, NO_REQ);
        s.instant("mshr.full", 9, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].t, 42);
        assert_eq!(s.events()[0].req, 7);
        assert_eq!(s.events()[1].req, NO_REQ);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        let s = StageStats::from_durations(vec![4, 2, 8]);
        assert_eq!((s.count, s.sum, s.min, s.max), (3, 14, 2, 8));
        assert_eq!(s.p50, 4);
        assert_eq!(s.p99, 8);
    }

    #[test]
    fn empty_stage_stats_are_zero() {
        let s = StageStats::from_durations(Vec::new());
        assert_eq!(s, StageStats::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_all_collapse_to_it() {
        let s = StageStats::from_durations(vec![42]);
        assert_eq!((s.count, s.sum, s.min, s.max), (1, 42, 42, 42));
        assert_eq!((s.p50, s.p95, s.p99), (42, 42, 42));
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    fn tie_heavy_distribution_percentiles() {
        // One fast outlier among nine identical values: nearest-rank p50,
        // p95 and p99 must all land on the tie, never interpolate.
        let mut d = vec![5; 9];
        d.push(1);
        let s = StageStats::from_durations(d);
        assert_eq!((s.count, s.min, s.max), (10, 1, 5));
        assert_eq!((s.p50, s.p95, s.p99), (5, 5, 5));
        // All-identical samples: every statistic is that value.
        let s = StageStats::from_durations(vec![7; 100]);
        assert_eq!((s.min, s.p50, s.p95, s.p99, s.max), (7, 7, 7, 7, 7));
    }

    #[test]
    fn low_percentile_rank_clamps_to_first_sample() {
        // rank = ceil(len * pct / 100) clamped to >= 1: with two samples a
        // 1st percentile still selects the smallest.
        assert_eq!(percentile(&[3, 9], 1), 3);
        assert_eq!(percentile(&[3, 9], 50), 3);
        assert_eq!(percentile(&[3, 9], 51), 9);
    }

    #[test]
    fn chrome_json_has_both_phases_and_balanced_structure() {
        let mut s = TraceSink::new();
        s.set_context(10, 1);
        s.instant("cuckoo.miss", 2, 5);
        s.complete("remote", 10, 90, 2, 0);
        let json = s.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":90"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
    }

    #[test]
    fn stage_csv_sums_match_events() {
        let mut s = TraceSink::new();
        s.set_context(0, 1);
        s.complete("remote", 0, 100, 0, 0);
        s.complete("remote", 0, 300, 0, 0);
        s.complete("walk", 0, 10, 0, 0);
        let csv = s.stage_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("stage,count,sum,mean,p50,p95,p99,min,max")
        );
        assert_eq!(
            lines.next(),
            Some("remote,2,400,200.00,100,300,300,100,300")
        );
        assert_eq!(lines.next(), Some("walk,1,10,10.00,10,10,10,10,10"));
    }
}

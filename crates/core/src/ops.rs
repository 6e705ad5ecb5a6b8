//! Operational observability for the serving path and the engine.
//!
//! This module is the ops spine of the daemon: an allocation-light registry
//! of request-lifecycle latency histograms, serving gauges, cache counters,
//! and engine-side phase timings, exposed three ways:
//!
//! * the `metrics` wire op ([`crate::serve::proto`]) returns
//!   [`OpsRegistry::snapshot_json`] as one canonical JSON line;
//! * `hdpat-sim serve --metrics-out FILE [--metrics-interval SECS]`
//!   periodically dumps the same snapshot (JSON, or Prometheus text for
//!   `.prom`/`.txt` files) to disk;
//! * `hdpat-sim serve --ops-log FILE` appends one [`OpsLog`] JSONL event per
//!   request state transition.
//!
//! **Determinism contract.** Everything here is wall-clock flavored and
//! *never* feeds simulation state, [`crate::metrics::Metrics`], or any
//! deterministic artifact: run outputs are byte-identical with the layer on
//! or off (ci.sh ops lane), and no host-side field (`sim_events`,
//! `host_wall_nanos`) appears in
//! `Metrics::to_deterministic_string` (rule d10, pinned by unit tests in
//! `metrics.rs` and by `tests/trace_determinism.rs`).
//!
//! Two accumulation scopes exist on purpose:
//!
//! * **Per-daemon** — each [`crate::serve::Daemon`] owns its own
//!   [`OpsRegistry`], so tests and embedded daemons never share request
//!   counters and the reconciliation invariant (`submitted == sum of tier
//!   counts` at quiescence) holds per instance.
//! * **Process-global** — engine code (the sampled `selfprof` phase timer)
//!   has no daemon handle, so its counters accumulate on [`engine()`] and
//!   every snapshot includes them.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::experiments::DiskCacheStats;
use crate::serve::json::Json;
use wsg_sim::stats::LogHistogram;

/// Terminal outcome of a submitted request, the attribution axis for every
/// latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Served from the in-memory `RunCache`.
    Memory,
    /// Served from the persistent disk cache.
    Disk,
    /// Actually simulated on a pool worker.
    Simulated,
    /// Cancelled by the client while still queued.
    Cancelled,
    /// Dropped from the queue because the client disconnected.
    ClientGone,
    /// The simulation panicked; the client got a `run-failed` error.
    Failed,
}

impl Tier {
    /// Every tier, in canonical exposition order.
    pub const ALL: [Tier; 6] = [
        Tier::Memory,
        Tier::Disk,
        Tier::Simulated,
        Tier::Cancelled,
        Tier::ClientGone,
        Tier::Failed,
    ];

    /// Stable wire token (snapshot keys, ops-log fields, Prometheus labels).
    pub fn token(self) -> &'static str {
        match self {
            Tier::Memory => "memory",
            Tier::Disk => "disk",
            Tier::Simulated => "simulated",
            Tier::Cancelled => "cancelled",
            Tier::ClientGone => "client-gone",
            Tier::Failed => "failed",
        }
    }

    /// Position in [`Tier::ALL`], which lists the tiers in declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Latency accumulators for one outcome tier. All histograms are log-scaled
/// microseconds ([`LogHistogram`]), so one struct spans cache hits (tens of
/// µs) and cold simulations (tens of seconds) without tuning.
#[derive(Debug, Clone, Default)]
pub struct TierStats {
    /// Requests that terminated in this tier.
    pub count: u64,
    /// enqueue → schedule (time waiting in the per-client queue).
    pub queue_wait_us: LogHistogram,
    /// schedule → completion (cache probe or simulation on a worker).
    pub service_us: LogHistogram,
    /// enqueue → completion.
    pub total_us: LogHistogram,
}

/// Sampled engine phase timings, in host nanoseconds. Phases partition the
/// hot loop: *dispatch* (event extraction: the calendar-bucket drain) and
/// *handler* (event handler execution). Every run times one drained batch
/// in 64; `sampled_batches / batches` is the sampled fraction, so the
/// phase totals scale by its inverse.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfProf {
    /// Runs that recorded phase timings.
    pub runs: u64,
    /// Batches drained.
    pub batches: u64,
    /// Batches timed.
    pub sampled_batches: u64,
    /// Nanoseconds extracting runnable events, over the timed batches.
    pub dispatch_nanos: u64,
    /// Nanoseconds executing handlers, over the timed batches.
    pub handler_nanos: u64,
}

impl SelfProf {
    /// `(key, value)` per counter, in exposition order: the snapshot's JSON
    /// member names, and with an `hdpat_selfprof_` prefix its Prometheus
    /// series names.
    fn members(&self) -> [(&'static str, u64); 5] {
        [
            ("runs", self.runs),
            ("batches", self.batches),
            ("sampled_batches", self.sampled_batches),
            ("dispatch_nanos", self.dispatch_nanos),
            ("handler_nanos", self.handler_nanos),
        ]
    }
}

/// Engine-side counters shared process-wide — simulation code has no daemon
/// handle, so these accumulate globally (see the module docs).
#[derive(Debug, Default)]
pub struct EngineCounters {
    selfprof: Mutex<SelfProf>,
}

impl EngineCounters {
    /// Folds one run's phase timings into the cumulative profile.
    pub fn record_selfprof(&self, run: SelfProf) {
        let mut p = self.selfprof.lock().expect("selfprof poisoned");
        p.runs = p.runs.saturating_add(1);
        p.batches = p.batches.saturating_add(run.batches);
        p.sampled_batches = p.sampled_batches.saturating_add(run.sampled_batches);
        p.dispatch_nanos = p.dispatch_nanos.saturating_add(run.dispatch_nanos);
        p.handler_nanos = p.handler_nanos.saturating_add(run.handler_nanos);
    }

    /// Current cumulative phase timings.
    pub fn selfprof(&self) -> SelfProf {
        *self.selfprof.lock().expect("selfprof poisoned")
    }
}

/// The process-global engine counter sink.
pub fn engine() -> &'static EngineCounters {
    static ENGINE: OnceLock<EngineCounters> = OnceLock::new();
    ENGINE.get_or_init(EngineCounters::default)
}

/// Live serving gauges, sampled by the daemon under its scheduler lock at
/// snapshot time (they are views of scheduler state, not accumulators).
#[derive(Debug, Clone, Default)]
pub struct GaugeSample {
    /// Connected clients.
    pub clients: u64,
    /// Jobs waiting in per-client queues (not yet picked).
    pub queued: u64,
    /// `(client id, queued jobs)` per connected client, ascending by id.
    pub queue_depth_per_client: Vec<(u64, u64)>,
    /// Jobs picked and executing on workers.
    pub inflight: u64,
    /// Runs completed since the daemon started.
    pub completed: u64,
    /// Pool worker threads.
    pub workers: u64,
    /// Workers currently executing a job (`workers - busy` are idle).
    pub workers_busy: u64,
    /// Completed results parked in per-client reorder buffers.
    pub reorder_buffered: u64,
    /// Whole seconds since the daemon started.
    pub uptime_seconds: u64,
    /// Entries in the in-memory run cache.
    pub memory_entries: u64,
    /// Disk-cache gauges, when a cache directory is configured.
    pub disk: Option<DiskGauges>,
}

/// Point-in-time view of the persistent disk cache.
#[derive(Debug, Clone)]
pub struct DiskGauges {
    /// Cache directory.
    pub dir: PathBuf,
    /// Entries currently on disk.
    pub entries: u64,
    /// Bytes of entry files currently on disk.
    pub resident_bytes: u64,
    /// Configured `--cache-budget`, if any.
    pub budget: Option<u64>,
    /// Lifetime hit/miss/write/eviction counters.
    pub stats: DiskCacheStats,
}

impl DiskGauges {
    /// `(key, Prometheus type, value)` per member, in exposition order: the
    /// snapshot's JSON member names, and with an `hdpat_disk_cache_` prefix
    /// its Prometheus series names. An unset budget is `None`.
    fn members(&self) -> [(&'static str, &'static str, Option<u64>); 8] {
        [
            ("entries", "gauge", Some(self.entries)),
            ("resident_bytes", "gauge", Some(self.resident_bytes)),
            ("budget_bytes", "gauge", self.budget),
            ("hits", "counter", Some(self.stats.hits)),
            ("misses", "counter", Some(self.stats.misses)),
            ("writes", "counter", Some(self.stats.writes)),
            ("evictions", "counter", Some(self.stats.evictions)),
            ("discarded", "counter", Some(self.stats.discarded)),
        ]
    }
}

/// Per-daemon registry of request-lifecycle metrics.
///
/// Lock discipline: `submitted` is a lone atomic touched on the submit fast
/// path; the histogram block is behind one mutex taken exactly once per
/// request *termination* (milliseconds-to-seconds apart), so the serving
/// path never contends on it.
#[derive(Debug, Default)]
pub struct OpsRegistry {
    submitted: AtomicU64,
    lifecycle: Mutex<[TierStats; 6]>,
}

impl OpsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one accepted submit (rejected requests never enqueue and are
    /// not counted).
    pub fn record_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Accepted submits so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Records a request's terminal transition: each submit terminates in
    /// exactly one tier, so at quiescence `submitted == Σ tier.count` and
    /// every tier's histogram counts equal its `count`.
    pub fn record_outcome(&self, tier: Tier, queue_wait_us: u64, service_us: u64, total_us: u64) {
        let mut tiers = self.lifecycle.lock().expect("lifecycle poisoned");
        let t = &mut tiers[tier.index()];
        t.count = t.count.saturating_add(1);
        t.queue_wait_us.record(queue_wait_us);
        t.service_us.record(service_us);
        t.total_us.record(total_us);
    }

    /// Clones the per-tier accumulators, in [`Tier::ALL`] order.
    pub fn lifecycle(&self) -> [TierStats; 6] {
        self.lifecycle.lock().expect("lifecycle poisoned").clone()
    }

    /// Builds the canonical JSON snapshot served by the `metrics` wire op
    /// and written by `--metrics-out`. Engine counters come from
    /// [`engine()`]; gauges are whatever the caller just sampled.
    pub fn snapshot_json(&self, gauges: &GaugeSample) -> Json {
        let tiers = self.lifecycle();
        let completed: u64 = tiers.iter().map(|t| t.count).sum();
        let mut tier_members = Vec::with_capacity(Tier::ALL.len());
        for tier in Tier::ALL {
            let t = &tiers[tier.index()];
            tier_members.push((
                tier.token().to_string(),
                Json::Obj(vec![
                    ("count".into(), Json::U64(t.count)),
                    ("queue_wait_us".into(), histogram_json(&t.queue_wait_us)),
                    ("service_us".into(), histogram_json(&t.service_us)),
                    ("total_us".into(), histogram_json(&t.total_us)),
                ]),
            ));
        }
        let requests = Json::Obj(vec![
            ("submitted".into(), Json::U64(self.submitted())),
            ("completed".into(), Json::U64(completed)),
            ("tiers".into(), Json::Obj(tier_members)),
        ]);

        let depth = gauges
            .queue_depth_per_client
            .iter()
            .map(|&(client, depth)| {
                Json::Obj(vec![
                    ("client".into(), Json::U64(client)),
                    ("depth".into(), Json::U64(depth)),
                ])
            })
            .collect();
        let gauges_json = Json::Obj(vec![
            ("clients".into(), Json::U64(gauges.clients)),
            ("queued".into(), Json::U64(gauges.queued)),
            ("queue_depth".into(), Json::Arr(depth)),
            ("inflight".into(), Json::U64(gauges.inflight)),
            ("workers".into(), Json::U64(gauges.workers)),
            ("workers_busy".into(), Json::U64(gauges.workers_busy)),
            (
                "workers_idle".into(),
                Json::U64(gauges.workers.saturating_sub(gauges.workers_busy)),
            ),
            (
                "reorder_buffered".into(),
                Json::U64(gauges.reorder_buffered),
            ),
            ("uptime_seconds".into(), Json::U64(gauges.uptime_seconds)),
        ]);

        let disk = match &gauges.disk {
            None => Json::Null,
            Some(d) => Json::Obj(
                d.members()
                    .map(|(key, _, v)| (key.into(), v.map_or(Json::Null, Json::U64)))
                    .into(),
            ),
        };
        let cache = Json::Obj(vec![
            ("memory_entries".into(), Json::U64(gauges.memory_entries)),
            ("disk".into(), disk),
        ]);

        Json::Obj(vec![
            ("type".to_string(), Json::Str("metrics".into())),
            ("schema".to_string(), Json::U64(3)),
            ("requests".to_string(), requests),
            ("gauges".to_string(), gauges_json),
            ("cache".to_string(), cache),
            ("selfprof".to_string(), selfprof_json()),
        ])
    }

    /// Renders the snapshot as Prometheus text exposition (one gauge/counter
    /// sample per line, `# TYPE` headers, stable label order) for
    /// `--metrics-out` files ending in `.prom`/`.txt`.
    pub fn snapshot_prometheus(&self, gauges: &GaugeSample) -> String {
        let mut out = String::new();
        let tiers = self.lifecycle();
        let completed: u64 = tiers.iter().map(|t| t.count).sum();
        out.push_str("# TYPE hdpat_requests_submitted counter\n");
        out.push_str(&format!("hdpat_requests_submitted {}\n", self.submitted()));
        out.push_str("# TYPE hdpat_requests_completed counter\n");
        out.push_str(&format!("hdpat_requests_completed {completed}\n"));
        out.push_str("# TYPE hdpat_requests_total counter\n");
        for tier in Tier::ALL {
            let t = &tiers[tier.index()];
            out.push_str(&format!(
                "hdpat_requests_total{{tier=\"{}\"}} {}\n",
                tier.token(),
                t.count
            ));
        }
        // Bucketed quantile bounds and maxima keyed by a `stat` label: each
        // sample is a point-in-time value, so the family is a gauge (a
        // summary would need `quantile` labels and `_sum`/`_count` series).
        out.push_str("# TYPE hdpat_request_latency_us gauge\n");
        for tier in Tier::ALL {
            let t = &tiers[tier.index()];
            for (phase, h) in [
                ("queue_wait", &t.queue_wait_us),
                ("service", &t.service_us),
                ("total", &t.total_us),
            ] {
                for (stat, v) in latency_stats(h) {
                    out.push_str(&format!(
                        "hdpat_request_latency_us{{tier=\"{}\",phase=\"{phase}\",stat=\"{stat}\"}} {v}\n",
                        tier.token()
                    ));
                }
            }
        }
        for (name, v) in [
            ("hdpat_clients", gauges.clients),
            ("hdpat_jobs_queued", gauges.queued),
            ("hdpat_jobs_inflight", gauges.inflight),
            ("hdpat_pool_workers", gauges.workers),
            ("hdpat_pool_workers_busy", gauges.workers_busy),
            ("hdpat_reorder_buffered", gauges.reorder_buffered),
            ("hdpat_uptime_seconds", gauges.uptime_seconds),
            ("hdpat_cache_memory_entries", gauges.memory_entries),
        ] {
            push_sample(&mut out, name, "gauge", v);
        }
        out.push_str("# TYPE hdpat_queue_depth gauge\n");
        for &(client, depth) in &gauges.queue_depth_per_client {
            out.push_str(&format!(
                "hdpat_queue_depth{{client=\"{client}\"}} {depth}\n"
            ));
        }
        if let Some(d) = &gauges.disk {
            // An unset member (no `--cache-budget`) has no series, as JSON
            // writes `null`: a `0` would read as a zero-byte budget.
            for (key, kind, v) in d.members() {
                if let Some(v) = v {
                    push_sample(&mut out, &format!("hdpat_disk_cache_{key}"), kind, v);
                }
            }
        }
        for (key, v) in engine().selfprof().members() {
            push_sample(&mut out, &format!("hdpat_selfprof_{key}"), "counter", v);
        }
        out
    }
}

/// Appends one Prometheus sample with its `# TYPE` header.
fn push_sample(out: &mut String, name: &str, kind: &str, v: u64) {
    out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
}

/// The bucketed p50/p95/p99 upper bounds and the exact max of one latency
/// histogram, keyed as both the JSON and the Prometheus rendering name them.
fn latency_stats(h: &LogHistogram) -> [(&'static str, u64); 4] {
    [
        ("p50", h.quantile_upper_bound(0.50)),
        ("p95", h.quantile_upper_bound(0.95)),
        ("p99", h.quantile_upper_bound(0.99)),
        ("max", h.max()),
    ]
}

/// JSON rendering of one latency histogram: counts, integer-only summary
/// stats (bucketed p50/p95/p99, exact max, saturating sum), and the
/// non-empty `[lower_bound, count]` buckets.
fn histogram_json(h: &LogHistogram) -> Json {
    let buckets = h
        .iter()
        .map(|(lo, c)| Json::Arr(vec![Json::U64(lo), Json::U64(c)]))
        .collect();
    let mut members = vec![
        ("count".into(), Json::U64(h.count())),
        (
            "sum".into(),
            Json::U64(u64::try_from(h.raw_sum()).unwrap_or(u64::MAX)),
        ),
    ];
    members.extend(latency_stats(h).map(|(key, v)| (key.into(), Json::U64(v))));
    members.push(("buckets".into(), Json::Arr(buckets)));
    Json::Obj(members)
}

fn selfprof_json() -> Json {
    let members = engine().selfprof().members();
    Json::Obj(members.map(|(key, v)| (key.into(), Json::U64(v))).into())
}

/// Append-only JSONL ops log: one object per request state transition
/// (`enqueue`, `schedule`, `complete`, `cancel`, `client-gone`, plus daemon
/// `start`/`shutdown` markers), each stamped with wall-clock milliseconds
/// since the Unix epoch. Lines are flushed per event so `tail -f` and
/// post-mortem reads always see whole records.
#[derive(Debug)]
pub struct OpsLog {
    file: Mutex<io::BufWriter<std::fs::File>>,
}

impl OpsLog {
    /// Creates (truncating) the log file.
    pub fn create(path: &Path) -> io::Result<OpsLog> {
        let file = std::fs::File::create(path)?;
        Ok(OpsLog {
            file: Mutex::new(io::BufWriter::new(file)),
        })
    }

    /// Appends one event. `fields` follow the `ev` and `t_ms` members in
    /// the given order; write errors are swallowed (observability must
    /// never take the serving path down).
    pub fn event(&self, ev: &str, fields: &[(&str, Json)]) {
        #[expect(
            clippy::disallowed_methods,
            reason = "ops-log timestamps annotate the serving timeline; they never reach simulation state or any deterministic artifact"
        )]
        let t_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut members = vec![
            ("ev".to_string(), Json::Str(ev.to_string())),
            ("t_ms".to_string(), Json::U64(t_ms)),
        ];
        members.extend(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        let line = Json::Obj(members).to_line();
        if let Ok(mut f) = self.file.lock() {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_reconcile_with_submits() {
        let reg = OpsRegistry::new();
        for _ in 0..6 {
            reg.record_submit();
        }
        reg.record_outcome(Tier::Memory, 10, 1, 11);
        reg.record_outcome(Tier::Memory, 20, 2, 22);
        reg.record_outcome(Tier::Disk, 30, 3, 33);
        reg.record_outcome(Tier::Simulated, 40, 400_000, 400_040);
        reg.record_outcome(Tier::Cancelled, 50, 0, 50);
        reg.record_outcome(Tier::ClientGone, 60, 0, 60);
        let tiers = reg.lifecycle();
        let completed: u64 = tiers.iter().map(|t| t.count).sum();
        assert_eq!(completed, reg.submitted());
        for t in &tiers {
            assert_eq!(t.queue_wait_us.count(), t.count);
            assert_eq!(t.service_us.count(), t.count);
            assert_eq!(t.total_us.count(), t.count);
        }
    }

    fn populated_registry() -> (OpsRegistry, GaugeSample) {
        let reg = OpsRegistry::new();
        for _ in 0..5 {
            reg.record_submit();
        }
        reg.record_outcome(Tier::Memory, 3, 1, 4);
        reg.record_outcome(Tier::Disk, 12, 40, 52);
        reg.record_outcome(Tier::Disk, 9, 700, 709);
        reg.record_outcome(Tier::Simulated, 250, 1_500_000, 1_500_250);
        reg.record_outcome(Tier::Failed, 8, 20, 28);
        let gauges = GaugeSample {
            clients: 2,
            queued: 3,
            queue_depth_per_client: vec![(1, 2), (4, 1)],
            inflight: 1,
            completed: 5,
            workers: 4,
            workers_busy: 1,
            reorder_buffered: 2,
            uptime_seconds: 17,
            memory_entries: 6,
            disk: Some(DiskGauges {
                dir: PathBuf::from("cache"),
                entries: 70,
                resident_bytes: 123_456,
                budget: Some(1 << 20),
                stats: DiskCacheStats {
                    hits: 9,
                    misses: 2,
                    writes: 3,
                    evictions: 1,
                    discarded: 0,
                },
            }),
        };
        (reg, gauges)
    }

    #[test]
    fn snapshot_json_is_canonical_and_reconciles() {
        let (reg, gauges) = populated_registry();
        let snap = reg.snapshot_json(&gauges);
        let line = snap.to_line();
        let parsed = Json::parse(&line).expect("snapshot parses");
        assert_eq!(parsed.to_line(), line, "snapshot must be canonical");
        assert_eq!(
            parsed.get("type").and_then(Json::as_str),
            Some("metrics"),
            "snapshot type tag"
        );
        let requests = parsed.get("requests").expect("requests section");
        assert_eq!(requests.get("submitted").and_then(Json::as_u64), Some(5));
        assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(5));
        let tiers = requests.get("tiers").expect("tiers section");
        let mut total = 0;
        for tier in Tier::ALL {
            let t = tiers.get(tier.token()).expect("every tier present");
            let count = t.get("count").and_then(Json::as_u64).unwrap();
            let hist_count = t
                .get("total_us")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
                .unwrap();
            assert_eq!(count, hist_count, "histogram count matches tier count");
            total += count;
        }
        assert_eq!(total, 5, "tier counts sum to submitted");
    }

    /// Every series of the Prometheus exposition, in order. The sampled
    /// `selfprof` counters are process-global and other tests move them,
    /// so only their shape is checked.
    #[test]
    fn prometheus_text_is_pinned() {
        let (reg, gauges) = populated_registry();
        let full = reg.snapshot_prometheus(&gauges);
        for line in full.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
        let text: String = full
            .lines()
            .filter(|l| !l.contains("hdpat_selfprof_"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            text,
            "\
            # TYPE hdpat_requests_submitted counter\n\
            hdpat_requests_submitted 5\n\
            # TYPE hdpat_requests_completed counter\n\
            hdpat_requests_completed 5\n\
            # TYPE hdpat_requests_total counter\n\
            hdpat_requests_total{tier=\"memory\"} 1\n\
            hdpat_requests_total{tier=\"disk\"} 2\n\
            hdpat_requests_total{tier=\"simulated\"} 1\n\
            hdpat_requests_total{tier=\"cancelled\"} 0\n\
            hdpat_requests_total{tier=\"client-gone\"} 0\n\
            hdpat_requests_total{tier=\"failed\"} 1\n\
            # TYPE hdpat_request_latency_us gauge\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"queue_wait\",stat=\"p50\"} 3\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"queue_wait\",stat=\"p95\"} 3\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"queue_wait\",stat=\"p99\"} 3\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"queue_wait\",stat=\"max\"} 3\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"service\",stat=\"p50\"} 1\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"service\",stat=\"p95\"} 1\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"service\",stat=\"p99\"} 1\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"service\",stat=\"max\"} 1\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"total\",stat=\"p50\"} 4\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"total\",stat=\"p95\"} 4\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"total\",stat=\"p99\"} 4\n\
            hdpat_request_latency_us{tier=\"memory\",phase=\"total\",stat=\"max\"} 4\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"queue_wait\",stat=\"p50\"} 12\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"queue_wait\",stat=\"p95\"} 12\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"queue_wait\",stat=\"p99\"} 12\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"queue_wait\",stat=\"max\"} 12\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"service\",stat=\"p50\"} 63\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"service\",stat=\"p95\"} 700\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"service\",stat=\"p99\"} 700\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"service\",stat=\"max\"} 700\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"total\",stat=\"p50\"} 63\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"total\",stat=\"p95\"} 709\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"total\",stat=\"p99\"} 709\n\
            hdpat_request_latency_us{tier=\"disk\",phase=\"total\",stat=\"max\"} 709\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"queue_wait\",stat=\"p50\"} 250\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"queue_wait\",stat=\"p95\"} 250\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"queue_wait\",stat=\"p99\"} 250\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"queue_wait\",stat=\"max\"} 250\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"service\",stat=\"p50\"} 1500000\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"service\",stat=\"p95\"} 1500000\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"service\",stat=\"p99\"} 1500000\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"service\",stat=\"max\"} 1500000\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"total\",stat=\"p50\"} 1500250\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"total\",stat=\"p95\"} 1500250\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"total\",stat=\"p99\"} 1500250\n\
            hdpat_request_latency_us{tier=\"simulated\",phase=\"total\",stat=\"max\"} 1500250\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"queue_wait\",stat=\"p50\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"queue_wait\",stat=\"p95\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"queue_wait\",stat=\"p99\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"queue_wait\",stat=\"max\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"service\",stat=\"p50\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"service\",stat=\"p95\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"service\",stat=\"p99\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"service\",stat=\"max\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"total\",stat=\"p50\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"total\",stat=\"p95\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"total\",stat=\"p99\"} 0\n\
            hdpat_request_latency_us{tier=\"cancelled\",phase=\"total\",stat=\"max\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"queue_wait\",stat=\"p50\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"queue_wait\",stat=\"p95\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"queue_wait\",stat=\"p99\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"queue_wait\",stat=\"max\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"service\",stat=\"p50\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"service\",stat=\"p95\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"service\",stat=\"p99\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"service\",stat=\"max\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"total\",stat=\"p50\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"total\",stat=\"p95\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"total\",stat=\"p99\"} 0\n\
            hdpat_request_latency_us{tier=\"client-gone\",phase=\"total\",stat=\"max\"} 0\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"queue_wait\",stat=\"p50\"} 8\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"queue_wait\",stat=\"p95\"} 8\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"queue_wait\",stat=\"p99\"} 8\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"queue_wait\",stat=\"max\"} 8\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"service\",stat=\"p50\"} 20\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"service\",stat=\"p95\"} 20\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"service\",stat=\"p99\"} 20\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"service\",stat=\"max\"} 20\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"total\",stat=\"p50\"} 28\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"total\",stat=\"p95\"} 28\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"total\",stat=\"p99\"} 28\n\
            hdpat_request_latency_us{tier=\"failed\",phase=\"total\",stat=\"max\"} 28\n\
            # TYPE hdpat_clients gauge\n\
            hdpat_clients 2\n\
            # TYPE hdpat_jobs_queued gauge\n\
            hdpat_jobs_queued 3\n\
            # TYPE hdpat_jobs_inflight gauge\n\
            hdpat_jobs_inflight 1\n\
            # TYPE hdpat_pool_workers gauge\n\
            hdpat_pool_workers 4\n\
            # TYPE hdpat_pool_workers_busy gauge\n\
            hdpat_pool_workers_busy 1\n\
            # TYPE hdpat_reorder_buffered gauge\n\
            hdpat_reorder_buffered 2\n\
            # TYPE hdpat_uptime_seconds gauge\n\
            hdpat_uptime_seconds 17\n\
            # TYPE hdpat_cache_memory_entries gauge\n\
            hdpat_cache_memory_entries 6\n\
            # TYPE hdpat_queue_depth gauge\n\
            hdpat_queue_depth{client=\"1\"} 2\n\
            hdpat_queue_depth{client=\"4\"} 1\n\
            # TYPE hdpat_disk_cache_entries gauge\n\
            hdpat_disk_cache_entries 70\n\
            # TYPE hdpat_disk_cache_resident_bytes gauge\n\
            hdpat_disk_cache_resident_bytes 123456\n\
            # TYPE hdpat_disk_cache_budget_bytes gauge\n\
            hdpat_disk_cache_budget_bytes 1048576\n\
            # TYPE hdpat_disk_cache_hits counter\n\
            hdpat_disk_cache_hits 9\n\
            # TYPE hdpat_disk_cache_misses counter\n\
            hdpat_disk_cache_misses 2\n\
            # TYPE hdpat_disk_cache_writes counter\n\
            hdpat_disk_cache_writes 3\n\
            # TYPE hdpat_disk_cache_evictions counter\n\
            hdpat_disk_cache_evictions 1\n\
            # TYPE hdpat_disk_cache_discarded counter\n\
            hdpat_disk_cache_discarded 0\n"
        );
    }

    #[test]
    fn unbudgeted_disk_cache_has_no_budget_series() {
        let (reg, mut gauges) = populated_registry();
        if let Some(d) = gauges.disk.as_mut() {
            d.budget = None;
        }
        let text = reg.snapshot_prometheus(&gauges);
        assert!(
            !text.contains("hdpat_disk_cache_budget_bytes"),
            "no budget must mean no series, not a zero budget:\n{text}"
        );
        assert!(text.contains("\nhdpat_disk_cache_resident_bytes 123456\n"));
        assert!(text.contains("\nhdpat_disk_cache_hits 9\n"));
        let json = reg.snapshot_json(&gauges).to_line();
        assert!(json.contains("\"budget_bytes\":null"), "{json}");
    }

    #[test]
    fn ops_log_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("hdpat-opslog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.jsonl");
        let log = OpsLog::create(&path).unwrap();
        log.event("enqueue", &[("id", Json::Str("q1".into()))]);
        log.event("complete", &[("tier", Json::Str("memory".into()))]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).expect("ops log line parses");
            assert!(v.get("ev").and_then(Json::as_str).is_some());
            assert!(v.get("t_ms").and_then(Json::as_u64).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

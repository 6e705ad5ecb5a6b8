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

    fn index(self) -> usize {
        match self {
            Tier::Memory => 0,
            Tier::Disk => 1,
            Tier::Simulated => 2,
            Tier::Cancelled => 3,
            Tier::ClientGone => 4,
            Tier::Failed => 5,
        }
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
            Some(d) => Json::Obj(vec![
                ("entries".into(), Json::U64(d.entries)),
                ("resident_bytes".into(), Json::U64(d.resident_bytes)),
                (
                    "budget_bytes".into(),
                    d.budget.map_or(Json::Null, Json::U64),
                ),
                ("hits".into(), Json::U64(d.stats.hits)),
                ("misses".into(), Json::U64(d.stats.misses)),
                ("writes".into(), Json::U64(d.stats.writes)),
                ("evictions".into(), Json::U64(d.stats.evictions)),
                ("discarded".into(), Json::U64(d.stats.discarded)),
            ]),
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
        out.push_str("# TYPE hdpat_request_latency_us summary\n");
        for tier in Tier::ALL {
            let t = &tiers[tier.index()];
            for (phase, h) in [
                ("queue_wait", &t.queue_wait_us),
                ("service", &t.service_us),
                ("total", &t.total_us),
            ] {
                for (stat, v) in [
                    ("p50", h.quantile_upper_bound(0.50)),
                    ("p95", h.quantile_upper_bound(0.95)),
                    ("p99", h.quantile_upper_bound(0.99)),
                    ("max", h.max()),
                ] {
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
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        out.push_str("# TYPE hdpat_queue_depth gauge\n");
        for &(client, depth) in &gauges.queue_depth_per_client {
            out.push_str(&format!(
                "hdpat_queue_depth{{client=\"{client}\"}} {depth}\n"
            ));
        }
        if let Some(d) = &gauges.disk {
            for (name, v) in [
                ("hdpat_disk_cache_entries", d.entries),
                ("hdpat_disk_cache_resident_bytes", d.resident_bytes),
                ("hdpat_disk_cache_budget_bytes", d.budget.unwrap_or(0)),
            ] {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            for (name, v) in [
                ("hdpat_disk_cache_hits", d.stats.hits),
                ("hdpat_disk_cache_misses", d.stats.misses),
                ("hdpat_disk_cache_writes", d.stats.writes),
                ("hdpat_disk_cache_evictions", d.stats.evictions),
                ("hdpat_disk_cache_discarded", d.stats.discarded),
            ] {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
        }
        let p = engine().selfprof();
        for (name, v) in [
            ("hdpat_selfprof_runs", p.runs),
            ("hdpat_selfprof_batches", p.batches),
            ("hdpat_selfprof_sampled_batches", p.sampled_batches),
            ("hdpat_selfprof_dispatch_nanos", p.dispatch_nanos),
            ("hdpat_selfprof_handler_nanos", p.handler_nanos),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        out
    }
}

/// JSON rendering of one latency histogram: counts, integer-only summary
/// stats (bucketed p50/p95/p99, exact max, saturating sum), and the
/// non-empty `[lower_bound, count]` buckets.
fn histogram_json(h: &LogHistogram) -> Json {
    let buckets = h
        .iter()
        .map(|(lo, c)| Json::Arr(vec![Json::U64(lo), Json::U64(c)]))
        .collect();
    Json::Obj(vec![
        ("count".into(), Json::U64(h.count())),
        (
            "sum".into(),
            Json::U64(u64::try_from(h.raw_sum()).unwrap_or(u64::MAX)),
        ),
        ("p50".into(), Json::U64(h.quantile_upper_bound(0.50))),
        ("p95".into(), Json::U64(h.quantile_upper_bound(0.95))),
        ("p99".into(), Json::U64(h.quantile_upper_bound(0.99))),
        ("max".into(), Json::U64(h.max())),
        ("buckets".into(), Json::Arr(buckets)),
    ])
}

fn selfprof_json() -> Json {
    let p = engine().selfprof();
    Json::Obj(vec![
        ("runs".into(), Json::U64(p.runs)),
        ("batches".into(), Json::U64(p.batches)),
        ("sampled_batches".into(), Json::U64(p.sampled_batches)),
        ("dispatch_nanos".into(), Json::U64(p.dispatch_nanos)),
        ("handler_nanos".into(), Json::U64(p.handler_nanos)),
    ])
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

    #[test]
    fn snapshot_json_is_canonical_and_reconciles() {
        let reg = OpsRegistry::new();
        reg.record_submit();
        reg.record_submit();
        reg.record_outcome(Tier::Memory, 5, 1, 6);
        reg.record_outcome(Tier::Simulated, 7, 900, 907);
        let gauges = GaugeSample {
            clients: 1,
            queue_depth_per_client: vec![(1, 0)],
            workers: 4,
            memory_entries: 2,
            ..GaugeSample::default()
        };
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
        assert_eq!(requests.get("submitted").and_then(Json::as_u64), Some(2));
        assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(2));
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
        assert_eq!(total, 2, "tier counts sum to submitted");
    }

    #[test]
    fn prometheus_text_has_core_series() {
        let reg = OpsRegistry::new();
        reg.record_submit();
        reg.record_outcome(Tier::Disk, 1, 2, 3);
        let text = reg.snapshot_prometheus(&GaugeSample {
            workers: 2,
            queue_depth_per_client: vec![(3, 1)],
            ..GaugeSample::default()
        });
        assert!(text.contains("hdpat_requests_submitted 1\n"));
        assert!(text.contains("hdpat_requests_total{tier=\"disk\"} 1\n"));
        assert!(text.contains("hdpat_queue_depth{client=\"3\"} 1\n"));
        assert!(text.contains("# TYPE hdpat_pool_workers gauge\nhdpat_pool_workers 2\n"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
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

//! Experiment runners used by the examples, tests, and the figure registry:
//! the one-call [`run`], the deterministic parallel sweep API ([`SweepCtx`])
//! that deduplicates and fans independent points across worker threads
//! without changing a single output byte, and the run store ([`RunCache`])
//! that sweeps and `hdpat-sim serve` share: memory in front of the
//! persistent [`DiskCache`] that carries completed runs across processes.

mod diskcache;
mod fingerprint;

pub use diskcache::{fnv128_hex, DiskCache, DiskCacheStats};
pub use fingerprint::FINGERPRINT_VERSION;

use wsg_gpu::{AddressSpace, SystemConfig};
use wsg_sim::Observer;
use wsg_workloads::{BenchmarkId, Scale};

/// Divides the capacity of every translation/cache structure by the same
/// factor the workload scale divides memory footprints by, so the
/// working-set-to-capacity ratios of the paper's full-size configuration are
/// preserved at reduced scale. Timing parameters (latencies, walker counts,
/// bandwidths) are untouched — only sizes shrink.
pub fn scale_hardware(system: &mut SystemConfig, divisor: usize) {
    if divisor <= 1 {
        return;
    }
    let d = divisor;
    let shrink_sets = |sets: usize, floor: usize| (sets / d).max(floor).next_power_of_two();
    let g = &mut system.gpm;
    g.l1_tlb.ways = (g.l1_tlb.ways / d.min(4)).max(8); // small already; shrink gently
    g.l2_tlb.sets = shrink_sets(g.l2_tlb.sets, 1);
    g.l2_tlb.ways = g.l2_tlb.ways.min(8);
    g.gmmu_cache.sets = shrink_sets(g.gmmu_cache.sets, 4);
    g.gmmu_cache.ways = g.gmmu_cache.ways.min(8);
    g.cuckoo_capacity = (g.cuckoo_capacity / d).max(256);
    g.l1_cache.sets = shrink_sets(g.l1_cache.sets, 4);
    g.l2_cache.sets = shrink_sets(g.l2_cache.sets, 16);
    system.iommu.redirection_entries = (system.iommu.redirection_entries / d).max(16);
    system.iommu.pw_queue = (system.iommu.pw_queue / d).max(8);
}

/// The hardware-capacity divisor matching each workload scale's footprint
/// reduction (Table II is divided by ~64 at `Bench`, ~512 at `Unit`).
pub fn hardware_divisor(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1,
        Scale::Bench => 64,
        Scale::Unit => 256,
    }
}

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::metrics::Metrics;
use crate::migration::MigrationConfig;
use crate::policy::PolicyKind;
use crate::sim::Simulation;

/// A fully specified simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Hardware configuration (wafer, GPM, IOMMU, page size, mesh).
    pub system: SystemConfig,
    /// Translation policy under test.
    pub policy: PolicyKind,
    /// Workload.
    pub benchmark: BenchmarkId,
    /// Workload scale.
    pub scale: Scale,
    /// Workload generator seed (the default 42 is used throughout the
    /// reproduction for determinism).
    pub seed: u64,
    /// The page-migration extension (see [`crate::migration`]); `None`, the
    /// default, runs without it.
    pub migration: Option<MigrationConfig>,
}

impl RunConfig {
    /// A run on the paper-baseline system (7×7 wafer, MI100 GPMs, 4 KB
    /// pages), with structure capacities scaled to match the workload scale
    /// (see [`scale_hardware`]).
    pub fn new(benchmark: BenchmarkId, scale: Scale, policy: PolicyKind) -> Self {
        let mut system = SystemConfig::paper_baseline();
        scale_hardware(&mut system, hardware_divisor(scale));
        Self {
            system,
            policy,
            benchmark,
            scale,
            seed: 42,
            migration: None,
        }
    }

    /// Replaces the system configuration and re-applies capacity scaling
    /// for this run's workload scale.
    pub fn with_system(mut self, mut system: SystemConfig) -> Self {
        scale_hardware(&mut system, hardware_divisor(self.scale));
        self.system = system;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the streak-based page-migration extension, which composes
    /// with any translation policy.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.migration = Some(migration);
        self
    }

    /// Canonical fingerprint of this run: two configs simulate identically
    /// if and only if their fingerprints are equal, no matter how they were
    /// constructed (`new` + `with_system` vs hand-assembled fields).
    ///
    /// The fingerprint is an explicitly versioned, hand-rendered enumeration
    /// of every semantically meaningful field, prefixed with
    /// [`FINGERPRINT_VERSION`] (see DESIGN.md §14 for the full stability
    /// contract and why the old `Debug`-format key was replaced). Every
    /// config struct is fully destructured in the renderer, so adding a
    /// field anywhere is a compile error until its rendering — and a version
    /// bump — are decided. [`RunCache`] uses the fingerprint as the
    /// in-memory key and [`DiskCache`] as the persistent content address, so
    /// identical requests hit across processes, restarts, and machines.
    pub fn fingerprint(&self) -> String {
        fingerprint::fingerprint(self)
    }
}

/// Runs one simulation to completion.
///
/// # Example
///
/// ```
/// use hdpat::experiments::{run, RunConfig};
/// use hdpat::policy::PolicyKind;
/// use wsg_workloads::{BenchmarkId, Scale};
///
/// let m = run(&RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive));
/// assert!(m.total_cycles > 0);
/// assert!(m.ops_completed > 0);
/// ```
pub fn run(cfg: &RunConfig) -> Metrics {
    run_observed(cfg, ()).0
}

/// Runs one experiment point like [`run`], reporting to `obs`; returns the
/// metrics together with the observer.
///
/// `obs` is a [`wsg_sim::trace::TraceSink`] (request-lifecycle spans and
/// per-stage latency statistics), a [`wsg_sim::telemetry::TelemetrySink`]
/// (epoch-sampled counters), or a `(TelemetrySink, TraceSink)` pair that
/// puts both on one simulated clock. Observation is purely passive: the
/// metrics' deterministic serialization is byte-identical to a plain
/// [`run`] of the same point (`tests/trace_determinism.rs`,
/// `tests/telemetry_determinism.rs`).
///
/// # Example
///
/// ```
/// use hdpat::experiments::{run_observed, RunConfig};
/// use hdpat::policy::PolicyKind;
/// use wsg_sim::trace::TraceSink;
/// use wsg_workloads::{BenchmarkId, Scale};
///
/// let cfg = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::hdpat());
/// let (m, sink) = run_observed(&cfg, TraceSink::new());
/// assert!(m.ops_completed > 0);
/// assert!(sink.stage_summary().contains_key("xlat"));
/// ```
pub fn run_observed<O: Observer>(cfg: &RunConfig, obs: O) -> (Metrics, O) {
    let system = cfg.system.clone();
    let mut space = AddressSpace::new(system.page_size, system.gpm_count() as u32);
    let traces = wsg_workloads::generate(cfg.benchmark, cfg.scale, &mut space, cfg.seed);
    let sim = Simulation::observed(system, cfg.policy, space, traces, obs);
    match cfg.migration {
        Some(m) => sim.with_migration(m).run_observed(),
        None => sim.run_observed(),
    }
}

/// Where a resolved run came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated fresh.
    Simulated,
    /// Served from the in-memory tier of the [`RunCache`].
    Memory,
    /// Served from the persistent [`DiskCache`] tier.
    Disk,
}

impl Source {
    /// The stable wire token.
    pub fn token(self) -> &'static str {
        match self {
            Source::Simulated => "simulated",
            Source::Memory => "memory",
            Source::Disk => "disk",
        }
    }
}

/// The run store: an in-memory map of completed runs,
/// [`RunConfig::fingerprint`] → [`Metrics`], in front of an optional
/// persistent [`DiskCache`].
///
/// This is the one place the probe order of DESIGN.md §14.2 lives, for
/// sweeps ([`SweepCtx`]) and the daemon alike: [`RunCache::lookup`] checks
/// memory, then disk (promoting a disk hit into memory); whoever simulates
/// a miss hands the result to [`RunCache::insert`], which writes it to both
/// tiers. Shared across every figure of one invocation, it simulates common
/// points (most prominently the Naive baseline, which a dozen figures
/// normalize against) exactly once. Entries are `Arc`-shared — a hit hands
/// back the same metrics object the miss produced, so cached and uncached
/// paths cannot diverge.
///
/// Thread-safe: [`SweepCtx::sweep`] and the daemon's workers share it.
#[derive(Debug, Default)]
pub struct RunCache {
    /// BTreeMap keeps any future iteration over the cache deterministic
    /// (lint rule d1); lookups are by exact fingerprint.
    entries: Mutex<BTreeMap<String, Arc<Metrics>>>,
    disk: Option<DiskCache>,
}

impl RunCache {
    /// An empty, memory-only store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Puts `disk` behind the memory tier.
    pub fn with_disk(self, disk: DiskCache) -> Self {
        Self {
            disk: Some(disk),
            ..self
        }
    }

    /// The persistent tier, if any.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Metrics>>> {
        match self.entries.lock() {
            Ok(map) => map,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The in-memory entry for `key`, without probing disk.
    fn memory(&self, key: &str) -> Option<Arc<Metrics>> {
        self.map().get(key).cloned()
    }

    /// Resolves `key` from memory, then disk, and says which tier answered.
    /// A disk hit is promoted into memory, so the next lookup of the key is
    /// a [`Source::Memory`] hit. `None` means the run must be simulated.
    pub fn lookup(&self, key: &str) -> Option<(Arc<Metrics>, Source)> {
        if let Some(m) = self.memory(key) {
            return Some((m, Source::Memory));
        }
        let m = Arc::new(self.disk.as_ref()?.get(key)?);
        Some((self.remember(key, m), Source::Disk))
    }

    /// Stores a freshly simulated run in memory and writes it through to
    /// disk. First writer wins in memory: on a duplicate insert the existing
    /// entry is kept, so every reader of a key observes one object identity.
    pub fn insert(&self, key: &str, metrics: Arc<Metrics>) {
        let metrics = self.remember(key, metrics);
        if let Some(disk) = &self.disk {
            disk.insert(key, &metrics);
        }
    }

    /// Files `metrics` in memory (first writer wins) and returns the entry
    /// that now holds the key.
    fn remember(&self, key: &str, metrics: Arc<Metrics>) -> Arc<Metrics> {
        Arc::clone(self.map().entry(key.to_string()).or_insert(metrics))
    }

    /// Number of runs held in memory.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when memory holds no run yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Execution context for simulation sweeps: a worker-thread budget plus a
/// [`RunCache`] threaded across every sweep issued through it.
///
/// # Determinism contract (see DESIGN.md §9)
///
/// * Results are returned in **input order**, never completion order.
/// * Each point is fully specified by its [`RunConfig`] (including the
///   seed), so where and when it executes cannot affect its metrics.
/// * Consequently the output is byte-identical for every `jobs` value and
///   equal to a plain [`run`] of each point, simulated or answered from the
///   cache (`tests/sweep_determinism.rs` enforces this) — `jobs` and the
///   cache only change wall-clock time.
#[derive(Debug)]
pub struct SweepCtx {
    cache: RunCache,
    jobs: usize,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    events: AtomicU64,
    progress: Option<Progress>,
}

/// Live progress state for [`SweepCtx::with_progress`]: completed/total
/// runs plus the context start time for events-per-second and ETA. Written
/// only to stderr — deterministic outputs never see it.
#[derive(Debug)]
struct Progress {
    total: AtomicU64,
    done: AtomicU64,
    // Progress display only; the reading is printed to stderr and never
    // feeds back into the model or any artifact.
    started: std::time::Instant,
}

impl SweepCtx {
    /// A context running up to `jobs` simulations concurrently (clamped to
    /// at least 1) over a fresh in-memory [`RunCache`].
    pub fn new(jobs: usize) -> Self {
        Self {
            cache: RunCache::new(),
            jobs: jobs.max(1),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            events: AtomicU64::new(0),
            progress: None,
        }
    }

    /// Puts a persistent [`DiskCache`] behind the context's [`RunCache`]:
    /// sweep points missing from memory are probed on disk before being
    /// scheduled, and every freshly simulated point is written back. Purely
    /// an optimization — results are byte-identical with and without the
    /// disk cache (`tests/sweep_determinism.rs`), only wall-clock time
    /// changes.
    pub fn with_disk_cache(mut self, disk: DiskCache) -> Self {
        self.cache = self.cache.with_disk(disk);
        self
    }

    /// The attached disk cache, if any — for hit-rate reporting.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.cache.disk()
    }

    /// Enables the live progress reporter: every completed simulation
    /// updates a `completed/total runs, events/sec, ETA` line on stderr.
    /// Reporting is cosmetic — results and every written artifact are
    /// byte-identical with and without it.
    pub fn with_progress(mut self) -> Self {
        self.progress = Some(Progress {
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            #[expect(
                clippy::disallowed_methods,
                reason = "progress display only (see Progress)"
            )]
            started: std::time::Instant::now(),
        });
        self
    }

    /// One completed run: bump the counter and redraw the stderr line.
    fn report_progress(&self) {
        let Some(p) = &self.progress else { return };
        let done = p.done.fetch_add(1, Ordering::Relaxed) + 1;
        let total = p.total.load(Ordering::Relaxed).max(done);
        let events = self.events.load(Ordering::Relaxed);
        let secs = p.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        };
        let eta = if total > done {
            secs / done as f64 * (total - done) as f64
        } else {
            0.0
        };
        eprint!(
            "\r[sweep] {done}/{total} runs  {:.1}M events  {:.2}M ev/s  ETA {eta:.0}s ",
            events as f64 / 1e6,
            rate / 1e6,
        );
        let _ = std::io::Write::flush(&mut std::io::stderr());
    }

    /// Announces `n` upcoming runs to the reporter and returns whether it
    /// is enabled.
    fn announce_runs(&self, n: usize) -> bool {
        match &self.progress {
            Some(p) => {
                p.total.fetch_add(n as u64, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// The worker-thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// `(cache hits, simulations executed)` across the context's lifetime.
    /// Disk-cache hits are counted separately ([`SweepCtx::disk_hits`]) —
    /// they are neither an in-memory hit nor an executed simulation.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Sweep points resolved from the attached disk cache (always 0 when no
    /// disk cache is attached).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Total simulator events delivered by runs this context actually
    /// executed (cache hits contribute nothing — their events were counted
    /// when the miss ran). Feeds the `--perf-out` trajectory artifact; not
    /// part of any deterministic output.
    pub fn events_executed(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Runs a single point through the cache.
    pub fn run(&self, cfg: &RunConfig) -> Arc<Metrics> {
        let mut out = self.sweep(std::slice::from_ref(cfg));
        match out.pop() {
            Some(m) => m,
            // sweep() returns exactly one result per input point.
            None => unreachable!("sweep of one point returned no result"),
        }
    }

    /// Runs every point and returns metrics **in input order**.
    ///
    /// Duplicate and already-cached points are simulated once; the unique
    /// remainder is executed across the worker pool. See the type-level
    /// determinism contract.
    pub fn sweep(&self, cfgs: &[RunConfig]) -> Vec<Arc<Metrics>> {
        let cache = &self.cache;
        let keys: Vec<String> = cfgs.iter().map(RunConfig::fingerprint).collect();
        // Unique unresolved points, in first-occurrence order. Each unique
        // point is looked up once; a disk hit is promoted into memory (so
        // duplicates of it downstream count as ordinary hits) and never
        // simulated.
        let mut seen = BTreeSet::new();
        let mut todo: Vec<usize> = Vec::new();
        let mut from_disk: u64 = 0;
        for (i, key) in keys.iter().enumerate() {
            if !seen.insert(key.as_str()) {
                continue;
            }
            match cache.lookup(key) {
                Some((_, Source::Disk)) => from_disk += 1,
                Some(_) => {}
                None => todo.push(i),
            }
        }
        self.disk_hits.fetch_add(from_disk, Ordering::Relaxed);
        self.hits.fetch_add(
            cfgs.len() as u64 - todo.len() as u64 - from_disk,
            Ordering::Relaxed,
        );
        self.misses.fetch_add(todo.len() as u64, Ordering::Relaxed);
        let reporting = self.announce_runs(todo.len());
        let fresh = wsg_sim::pool::run_indexed_with(
            self.jobs,
            todo.len(),
            |j| {
                let m = Arc::new(run(&cfgs[todo[j]]));
                self.events.fetch_add(m.sim_events, Ordering::Relaxed);
                m
            },
            |_| self.report_progress(),
        );
        if reporting && !todo.is_empty() {
            eprintln!();
        }
        for (&i, m) in todo.iter().zip(fresh) {
            cache.insert(&keys[i], m);
        }
        keys.iter()
            .map(|key| match cache.memory(key) {
                Some(m) => m,
                None => unreachable!("sweep point missing from cache after execution"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_content_based() {
        // `new` scales the baseline for Unit; `with_system` re-applies the
        // same scaling to an identical baseline — same content, same key.
        let a = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
        let b = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive)
            .with_system(SystemConfig::paper_baseline());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), a.clone().with_seed(7).fingerprint());
        assert_ne!(
            a.fingerprint(),
            RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::hdpat()).fingerprint()
        );
    }

    #[test]
    fn sweep_dedups_and_preserves_input_order() {
        let relu = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
        let aes = RunConfig::new(BenchmarkId::Aes, Scale::Unit, PolicyKind::Naive);
        let ctx = SweepCtx::new(1);
        let out = ctx.sweep(&[relu.clone(), aes.clone(), relu.clone()]);
        assert_eq!(out.len(), 3);
        // Duplicate points resolve to the same Arc, simulated once.
        assert!(Arc::ptr_eq(&out[0], &out[2]));
        assert!(!Arc::ptr_eq(&out[0], &out[1]));
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits, misses), (1, 2));
        // A later sweep through the same context hits the cache.
        let again = ctx.run(&aes);
        assert!(Arc::ptr_eq(&again, &out[1]));
        assert_eq!(ctx.cache_stats(), (2, 2));
    }

    #[test]
    fn sweep_keeps_a_migrating_point_apart_from_its_plain_twin() {
        let plain = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
        let migrating = plain.clone().with_migration(MigrationConfig::default());
        let ctx = SweepCtx::new(1);
        let out = ctx.sweep(&[plain, migrating]);
        assert_eq!(ctx.cache_stats(), (0, 2), "both points simulate");
        assert_eq!(out[0].pages_migrated, 0);
        assert!(out[1].pages_migrated > 0);
    }

    #[test]
    fn sweep_matches_serial_run_across_jobs_and_caching() {
        let cfgs: Vec<RunConfig> = [BenchmarkId::Relu, BenchmarkId::Aes]
            .into_iter()
            .map(|b| RunConfig::new(b, Scale::Unit, PolicyKind::Naive))
            .collect();
        let reference: Vec<String> = cfgs
            .iter()
            .map(|c| run(c).to_deterministic_string())
            .collect();
        for ctx in [SweepCtx::new(1), SweepCtx::new(4)] {
            let got: Vec<String> = ctx
                .sweep(&cfgs)
                .iter()
                .map(|m| m.to_deterministic_string())
                .collect();
            assert_eq!(got, reference, "jobs={} diverged", ctx.jobs());
        }
    }

    #[test]
    fn sweep_resolves_from_disk_across_contexts() {
        let dir =
            std::env::temp_dir().join(format!("hdpat-sweep-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);

        // First context: cold disk, the point is simulated and written back.
        let warm = SweepCtx::new(1).with_disk_cache(DiskCache::open(&dir, None).unwrap());
        let first = warm.run(&cfg);
        assert_eq!(warm.cache_stats(), (0, 1));
        assert_eq!(warm.disk_hits(), 0);

        // Second context (fresh memory cache, same directory): served from
        // disk, nothing simulated, bytes identical.
        let cold = SweepCtx::new(1).with_disk_cache(DiskCache::open(&dir, None).unwrap());
        let out = cold.sweep(&[cfg.clone(), cfg.clone()]);
        assert_eq!(cold.cache_stats(), (1, 0), "no simulation on the reload");
        assert_eq!(cold.disk_hits(), 1);
        assert_eq!(
            out[0].to_deterministic_string(),
            first.to_deterministic_string()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_cache_probes_memory_then_disk_and_writes_through() {
        let dir = std::env::temp_dir().join(format!("hdpat-run-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || RunCache::new().with_disk(DiskCache::open(&dir, None).unwrap());
        let m = Arc::new(Metrics::new(2, 100));

        // `insert` writes through: a fresh store over the same directory
        // finds the key on disk.
        let first = open();
        first.insert("fp-a", Arc::clone(&m));
        assert_eq!(first.lookup("fp-a").map(|(_, s)| s), Some(Source::Memory));

        // A key present only on disk answers from disk once, then from
        // memory; an absent key is a miss.
        let store = open();
        let (hit, source) = store.lookup("fp-a").expect("disk hit");
        assert_eq!(source, Source::Disk);
        assert_eq!(hit.to_cache_text(), m.to_cache_text());
        let (again, source) = store.lookup("fp-a").expect("memory hit");
        assert_eq!(source, Source::Memory);
        assert!(Arc::ptr_eq(&hit, &again));
        assert!(store.lookup("fp-absent").is_none());
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn naive_run_completes_all_ops() {
        let m = run(&RunConfig::new(
            BenchmarkId::Relu,
            Scale::Unit,
            PolicyKind::Naive,
        ));
        assert!(m.ops_completed > 1000, "ops: {}", m.ops_completed);
        assert!(m.total_cycles > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::hdpat());
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.ops_completed, b.ops_completed);
        assert_eq!(a.iommu_walks, b.iommu_walks);
    }

    #[test]
    fn hdpat_reduces_iommu_walks_on_spmv() {
        let cfg = RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::hdpat());
        let base = run(&RunConfig {
            policy: PolicyKind::Naive,
            ..cfg.clone()
        });
        let hd = run(&cfg);
        let speedup = hd.speedup_vs(&base);
        assert!(
            hd.iommu_walks < base.iommu_walks,
            "HDPAT walks {} vs baseline {}",
            hd.iommu_walks,
            base.iommu_walks
        );
        assert!(speedup > 0.8, "speedup {speedup}");
    }

    #[test]
    fn baseline_resolves_everything_at_iommu() {
        let m = run(&RunConfig::new(
            BenchmarkId::Spmv,
            Scale::Unit,
            PolicyKind::Naive,
        ));
        assert_eq!(m.resolution.value("peer-cache"), 0);
        assert_eq!(m.resolution.value("redirection"), 0);
        assert!(m.resolution.value("iommu") > 0);
    }

    #[test]
    fn hdpat_offloads_translations() {
        let m = run(&RunConfig::new(
            BenchmarkId::Pr,
            Scale::Unit,
            PolicyKind::hdpat(),
        ));
        assert!(
            m.offload_fraction() > 0.05,
            "offload fraction {}",
            m.offload_fraction()
        );
    }
}

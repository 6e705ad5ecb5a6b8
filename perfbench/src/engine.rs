//! The engine workloads `xlat-remote` and `xlat-local`: bench-scale points
//! (benchmark × the five fig14 policies) simulated one at a time, with
//! `wsg_workloads::generate`, `Simulation::with_traces` and
//! `Simulation::run` each timed from here, followed by the serve phase on
//! the same benchmarks at unit scale.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hdpat::experiments::{RunConfig, SweepCtx};
use hdpat::{Metrics, PolicyKind, Simulation};
use wsg_gpu::AddressSpace;
use wsg_workloads::{BenchmarkId, Scale};

use crate::stats::{median, Mix64};
use crate::{ms, replay, serve, Args, Sink};

/// Set-up-only repetitions before the timed passes; every pass adds one
/// more set-up sample.
const SETUP_REPS: usize = 2;
/// Timed passes per run at least: each point's time is its median over
/// passes, so one pass hit by host interference does not set it.
const MIN_PASSES: usize = 3;

/// The fig14 golden table (bench scale, seed 42).
const GOLDEN_FIG14: &str = include_str!("../../tests/golden/fig14_bench.txt");

/// Which benchmark family an engine workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// Remote translations are 7–39% of ops: IOMMU, redirection, mesh.
    Remote,
    /// Remote translations are 1–3% of ops: CU issue, TLBs, caches, HBM.
    Local,
}

impl Family {
    fn benches(self) -> Vec<BenchmarkId> {
        use BenchmarkId::*;
        match self {
            Family::Remote => vec![Mt, Spmv, Pr, Relu],
            Family::Local => vec![Fir, Fws, Km, Bt, I2c],
        }
    }

    /// The serve phase: this family's benchmarks, one cold submit per gap.
    /// The gap is about five times the mean service time of the family's
    /// unit-scale mix with one worker per CPU on a 2-CPU host, so the load
    /// stays moderate even when host interference halves capacity.
    fn serve_plan(self) -> serve::Plan {
        let cold_ms = match self {
            Family::Remote => 48,
            Family::Local => 22,
        };
        serve::Plan {
            benches: self.benches(),
            cold_interval: Duration::from_millis(cold_ms),
        }
    }
}

/// One simulation point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub bench: BenchmarkId,
    pub token: &'static str,
    pub policy: PolicyKind,
    pub scale: Scale,
    pub seed: u64,
}

impl Point {
    pub fn config(&self) -> RunConfig {
        RunConfig::new(self.bench, self.scale, self.policy).with_seed(self.seed)
    }

    pub fn label(&self) -> String {
        format!("{}/{}", self.bench, self.token)
    }
}

/// `benches` × the fig14 policies, benchmark-major.
pub fn grid(benches: &[BenchmarkId], scale: Scale, seed: u64) -> Vec<Point> {
    benches
        .iter()
        .flat_map(|&bench| {
            wsg_bench::serving::fig14_policies()
                .into_iter()
                .map(move |(token, policy)| Point {
                    bench,
                    token,
                    policy,
                    scale,
                    seed,
                })
        })
        .collect()
}

/// A constructed simulation plus the cost of building it.
struct Built {
    sim: Simulation,
    ops: u64,
    generate: Duration,
    construct: Duration,
}

fn build(p: &Point) -> Built {
    let cfg = p.config();
    let t = Instant::now();
    let mut space = AddressSpace::new(cfg.system.page_size, cfg.system.gpm_count() as u32);
    let traces = wsg_workloads::generate(p.bench, p.scale, &mut space, p.seed);
    let generate = t.elapsed();
    let ops = traces.iter().map(|w| w.len() as u64).sum();
    let t = Instant::now();
    let sim = Simulation::with_traces(cfg.system, p.policy, space, traces);
    Built {
        sim,
        ops,
        generate,
        construct: t.elapsed(),
    }
}

/// One completed point.
pub struct PointRun {
    pub metrics: Metrics,
    pub ops: u64,
    pub generate: Duration,
    pub construct: Duration,
    pub run: Duration,
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Builds and runs `p`, catching a panic so it counts as one failure.
pub fn run_point(sink: &mut Sink, p: &Point) -> Option<PointRun> {
    sink.attempt(1);
    let out = catch_unwind(AssertUnwindSafe(|| {
        let b = build(p);
        let t = Instant::now();
        let metrics = b.sim.run();
        PointRun {
            metrics,
            ops: b.ops,
            generate: b.generate,
            construct: b.construct,
            run: t.elapsed(),
        }
    }));
    match out {
        Ok(r) if r.metrics.ops_completed == r.ops && r.metrics.sim_events > 0 => Some(r),
        Ok(r) => {
            sink.fail(&format!(
                "{} completed {} of {} ops",
                p.label(),
                r.metrics.ops_completed,
                r.ops
            ));
            None
        }
        Err(e) => {
            sink.fail(&format!("{} panicked: {}", p.label(), panic_text(e)));
            None
        }
    }
}

/// Set-up cost of every point (generate + construct), without running.
pub fn setup_once(points: &[Point]) -> Duration {
    points
        .iter()
        .map(|p| {
            catch_unwind(AssertUnwindSafe(|| {
                let b = build(p);
                b.generate + b.construct
            }))
            // A panicking point is counted by the timed pass.
            .unwrap_or_default()
        })
        .sum()
}

/// Host ns per delivered event over a set of runs.
fn ns_per_event<'a>(runs: impl IntoIterator<Item = &'a PointRun>) -> f64 {
    let (mut nanos, mut events) = (0.0, 0u64);
    for r in runs {
        nanos += r.run.as_secs_f64() * 1e9;
        events += r.metrics.sim_events;
    }
    nanos / events.max(1) as f64
}

/// A simulated count: metric name and how to read it from `Metrics`.
type Count = (&'static str, fn(&Metrics) -> u64);

/// The engine-layer and simulated-count metrics of one pass.
pub fn engine_layers(sink: &mut Sink, points: &[Point], runs: &[Option<PointRun>]) {
    let done: Vec<(&Point, &PointRun)> = points
        .iter()
        .zip(runs)
        .filter_map(|(p, r)| r.as_ref().map(|r| (p, r)))
        .collect();
    let n = done.len().max(1) as f64;
    let sum = |f: fn(&Metrics) -> u64| done.iter().map(|(_, r)| f(&r.metrics)).sum::<u64>();
    sink.set(
        "workloads.generate_ms",
        done.iter().map(|(_, r)| ms(r.generate)).sum::<f64>() / n,
    );
    sink.set(
        "sim.construct_ms",
        done.iter().map(|(_, r)| ms(r.construct)).sum::<f64>() / n,
    );
    sink.set(
        "sim.run_s",
        done.iter().map(|(_, r)| r.run.as_secs_f64()).sum(),
    );
    sink.set("sim.events", sum(|m| m.sim_events) as f64);
    sink.set(
        "sim.ns_per_event",
        ns_per_event(done.iter().map(|(_, r)| *r)),
    );
    let mut benches: Vec<BenchmarkId> = done.iter().map(|(p, _)| p.bench).collect();
    benches.dedup();
    for b in benches {
        let v = ns_per_event(done.iter().filter(|(p, _)| p.bench == b).map(|(_, r)| *r));
        sink.info(&format!("sim.ns_per_event.{b} {v:.2}"));
    }
    let counts: [Count; 10] = [
        ("xlat.local_translations", |m| m.local_translations),
        ("xlat.remote_requests", |m| m.remote_requests),
        ("xlat.remote_coalesced", |m| m.remote_coalesced),
        ("iommu.walks", |m| m.iommu_walks),
        ("iommu.coalesced", |m| m.iommu_coalesced),
        ("iommu.redirect_misses", |m| m.redirect_misses),
        ("hdpat.ptes_pushed", |m| m.ptes_pushed),
        ("noc.packets", |m| m.noc_packets),
        ("noc.hop_bytes", |m| m.noc_hop_bytes),
        ("sim.cycles", |m| m.total_cycles),
    ];
    for (name, f) in counts {
        sink.set(name, sum(f) as f64);
    }
    let issued = sum(|m| m.prefetches_issued);
    sink.set(
        "hdpat.prefetch_used_ratio",
        sum(|m| m.prefetches_used) as f64 / issued.max(1) as f64,
    );
}

/// What a `SweepCtx` did over `wall` of host time.
pub struct SweepStats {
    pub simulations: u64,
    pub hits: u64,
    pub events: u64,
    pub wall: Duration,
}

impl SweepStats {
    pub fn of(ctx: &SweepCtx, wall: Duration) -> Self {
        let (hits, simulations) = ctx.cache_stats();
        Self {
            simulations,
            hits,
            events: ctx.events_executed(),
            wall,
        }
    }

    /// Records the sweep-layer metrics.
    pub fn record(&self, sink: &mut Sink) {
        let (hits, sims) = (self.hits as f64, self.simulations as f64);
        sink.set("sweep.simulations", sims);
        sink.set("sweep.cache_hits", hits);
        sink.set("sweep.hit_ratio", hits / (hits + sims).max(1.0));
        sink.set(
            "sweep.events_per_s",
            self.events as f64 / self.wall.as_secs_f64().max(1e-9),
        );
    }
}

/// At seed 42 the fig14 speedups of `benches` must equal their golden rows.
fn check_golden(sink: &mut Sink, points: &[Point], runs: &[Option<PointRun>]) {
    let columns = ["transfw", "valkyrie", "barre", "hdpat"];
    let find = |b: BenchmarkId, token: &str| {
        points
            .iter()
            .zip(runs)
            .find(|(p, _)| p.bench == b && p.token == token)
            .and_then(|(_, r)| r.as_ref())
    };
    let mut benches: Vec<BenchmarkId> = points.iter().map(|p| p.bench).collect();
    benches.dedup();
    for b in benches {
        let abbr = b.to_string();
        let Some(row) = GOLDEN_FIG14
            .lines()
            .map(str::split_whitespace)
            .map(Iterator::collect::<Vec<_>>)
            .find(|cells| cells.first() == Some(&abbr.as_str()))
        else {
            sink.fail(&format!("golden fig14 has no {abbr} row"));
            continue;
        };
        let Some(base) = find(b, "naive") else {
            continue;
        };
        for (i, token) in columns.iter().enumerate() {
            let Some(r) = find(b, token) else { continue };
            let got = wsg_bench::report::ratio(r.metrics.speedup_vs(&base.metrics));
            if row.get(i + 1) != Some(&got.as_str()) {
                sink.fail(&format!(
                    "{abbr}/{token} speedup {got} differs from golden {:?}",
                    row.get(i + 1)
                ));
            }
        }
    }
}

/// Runs `xlat-remote` or `xlat-local`.
pub fn xlat(sink: &mut Sink, args: &Args, family: Family) {
    let benches = family.benches();
    let points = grid(&benches, Scale::Bench, args.seed);
    let mut order: Vec<usize> = (0..points.len()).collect();
    Mix64::new(args.seed).shuffle(&mut order);
    let ordered: Vec<Point> = order.iter().map(|&i| points[i]).collect();

    let mut setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup_once(&ordered).as_secs_f64())
        .collect();
    let started = Instant::now();
    // Per pass and point: (total, run) seconds; `None` for a failed point.
    let mut times: Vec<Vec<Option<(f64, f64)>>> = Vec::new();
    let mut first: Vec<Option<PointRun>> = Vec::new();
    while times.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let mut runs: Vec<Option<PointRun>> = (0..points.len()).map(|_| None).collect();
        for &i in &order {
            runs[i] = run_point(sink, &points[i]);
        }
        let done = runs.iter().flatten();
        setup.push(done.map(|r| (r.generate + r.construct).as_secs_f64()).sum());
        times.push(
            runs.iter()
                .map(|r| {
                    r.as_ref().map(|r| {
                        let run = r.run.as_secs_f64();
                        ((r.generate + r.construct).as_secs_f64() + run, run)
                    })
                })
                .collect(),
        );
        if first.is_empty() {
            first = runs;
        } else {
            for (p, (a, b)) in points.iter().zip(first.iter().zip(&runs)) {
                if let (Some(a), Some(b)) = (a, b) {
                    if a.metrics.to_deterministic_string() != b.metrics.to_deterministic_string() {
                        sink.fail(&format!("{} is not deterministic across passes", p.label()));
                    }
                }
            }
        }
    }
    // A pass assembled from each point's median time over passes.
    let (mut wall, mut run, mut events) = (0.0, 0.0, 0u64);
    for (i, r) in first.iter().enumerate() {
        let Some(r) = r else { continue };
        let point: Vec<(f64, f64)> = times.iter().filter_map(|pass| pass[i]).collect();
        wall += median(&point.iter().map(|t| t.0).collect::<Vec<_>>());
        run += median(&point.iter().map(|t| t.1).collect::<Vec<_>>());
        events += r.metrics.sim_events;
    }
    for r in first.iter().flatten() {
        sink.digest("sim", &r.metrics.to_deterministic_string());
    }
    if args.seed == 42 {
        check_golden(sink, &points, &first);
    }
    sink.info(&format!("passes {}", times.len()));
    sink.set("wall_s", wall);
    sink.set("ns_per_event", run * 1e9 / events.max(1) as f64);

    let daemon_new = serve::serve(sink, &family.serve_plan(), args.seed, args.trace);
    sink.set("setup_s", median(&setup) + daemon_new.as_secs_f64());

    if args.trace {
        engine_layers(sink, &points, &first);
        replay::replay(sink, &benches, Scale::Bench, args.seed);
        let probe = grid(&benches, Scale::Unit, args.seed);
        let cfgs: Vec<RunConfig> = probe.iter().map(Point::config).collect();
        let ctx = SweepCtx::new(wsg_sim::pool::default_jobs());
        let t = Instant::now();
        ctx.sweep(&cfgs);
        ctx.sweep(&cfgs);
        SweepStats::of(&ctx, t.elapsed()).record(sink);
    }
}

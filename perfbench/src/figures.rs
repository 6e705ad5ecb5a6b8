//! The `figure-all-unit` workload: every figure and table at unit scale
//! through one fresh `SweepCtx` per pass (run cache on, one worker per
//! CPU), in an order permuted by the seed, followed by the serve phase over
//! all 14 benchmarks. The figures fix their own seed, so every pass must
//! render byte-identical tables whatever the order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hdpat::experiments::SweepCtx;
use wsg_bench::figures as f;
use wsg_bench::report::Table;
use wsg_workloads::{BenchmarkId, Scale};

use crate::engine::{engine_layers, grid, run_point, setup_once, SweepStats};
use crate::stats::{median, Mix64};
use crate::{replay, serve, Args, Sink};

/// Set-up samples (generate + construct of the probe points).
const SETUP_REPS: usize = 9;
/// Passes per run at least: enough for the median to skip one pass hit by
/// host interference, and to check that tables do not depend on order.
const MIN_PASSES: usize = 3;
/// The seed every figure function uses.
const FIGURE_SEED: u64 = 42;

type FigureFn = fn(&SweepCtx) -> Table;

/// Every figure and table, in `hdpat-sim figure all` order.
fn all() -> [(&'static str, FigureFn); 20] {
    const U: Scale = Scale::Unit;
    [
        ("fig02", |c| f::fig02_headroom(c, U)),
        ("fig03", |c| f::fig03_latency_breakdown(c, U)),
        ("fig04", |c| f::fig04_buffer_pressure(c, U)),
        ("fig05", |c| f::fig05_position_imbalance(c, U)),
        ("fig06", |c| f::fig06_translation_counts(c, U)),
        ("fig07", |c| f::fig07_reuse_distance(c, U)),
        ("fig08", |c| f::fig08_spatial_locality(c, U)),
        ("fig13", f::fig13_size_invariance),
        ("fig14", |c| f::fig14_overall(c, U)),
        ("fig15", |c| f::fig15_ablation(c, U)),
        ("fig16", |c| f::fig16_breakdown(c, U)),
        ("fig17", |c| f::fig17_response_time(c, U)),
        ("fig18", |c| f::fig18_prefetch_granularity(c, U)),
        ("fig19", |c| f::fig19_redir_vs_tlb(c, U)),
        ("fig20", |c| f::fig20_page_size(c, U)),
        ("fig21", |c| f::fig21_gpu_presets(c, U)),
        ("fig22", |c| f::fig22_wafer_7x12(c, U)),
        ("tab1", |_| f::tab1_config()),
        ("tab2", |_| f::tab2_workloads()),
        ("tab3", |_| f::tab3_area_power()),
    ]
}

/// One pass: wall time, per-figure times and tables in canonical order,
/// and the sweep statistics of its context.
struct Pass {
    wall: Duration,
    times: Vec<Duration>,
    tables: Vec<Option<String>>,
    sweep: SweepStats,
}

fn pass(sink: &mut Sink, order: &[usize]) -> Pass {
    let figures = all();
    let ctx = SweepCtx::new(wsg_sim::pool::default_jobs());
    let mut times = vec![Duration::ZERO; figures.len()];
    let mut tables = vec![None; figures.len()];
    let start = Instant::now();
    for &i in order {
        let (name, fig) = figures[i];
        sink.attempt(1);
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| fig(&ctx))) {
            Ok(table) => tables[i] = Some(table.to_text()),
            Err(_) => sink.fail(&format!("{name} panicked")),
        }
        times[i] = t.elapsed();
    }
    let wall = start.elapsed();
    Pass {
        wall,
        times,
        tables,
        sweep: SweepStats::of(&ctx, wall),
    }
}

/// Runs `figure-all-unit`.
pub fn figure_all(sink: &mut Sink, args: &Args) {
    let figures = all();
    let probe = grid(&BenchmarkId::all(), Scale::Unit, FIGURE_SEED);
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup_once(&probe).as_secs_f64())
        .collect();

    let mut rng = Mix64::new(args.seed);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let mut order: Vec<usize> = (0..figures.len()).collect();
        rng.shuffle(&mut order);
        passes.push(pass(sink, &order));
    }
    let first = &passes[0];
    for p in &passes[1..] {
        for (i, (a, b)) in first.tables.iter().zip(&p.tables).enumerate() {
            if a.is_some() && b.is_some() && a != b {
                sink.fail(&format!("{} depends on figure order", figures[i].0));
            }
        }
    }
    for (i, table) in first.tables.iter().enumerate() {
        if let Some(text) = table {
            sink.digest("figures", &format!("{}\n{text}", figures[i].0));
        }
    }
    sink.info(&format!("passes {}", passes.len()));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let per_event: Vec<f64> = passes
        .iter()
        .map(|p| p.wall.as_secs_f64() * 1e9 / p.sweep.events.max(1) as f64)
        .collect();
    sink.set("wall_s", median(&walls));
    sink.set("ns_per_event", median(&per_event));

    let plan = serve::Plan {
        benches: BenchmarkId::all().to_vec(),
        // About a fifth of the daemon's capacity on this mix (see
        // `engine::Family::serve_plan`).
        cold_interval: Duration::from_millis(30),
    };
    let daemon_new = serve::serve(sink, &plan, args.seed, args.trace);
    sink.set("setup_s", median(&setup) + daemon_new.as_secs_f64());

    if args.trace {
        for (i, (name, _)) in figures.iter().enumerate() {
            let times: Vec<f64> = passes.iter().map(|p| p.times[i].as_secs_f64()).collect();
            sink.info(&format!("sweep.figure.{name}_s {:.6}", median(&times)));
        }
        first.sweep.record(sink);
        let runs: Vec<_> = probe.iter().map(|p| run_point(sink, p)).collect();
        engine_layers(sink, &probe, &runs);
        replay::replay(sink, &BenchmarkId::all(), Scale::Unit, FIGURE_SEED);
    }
}

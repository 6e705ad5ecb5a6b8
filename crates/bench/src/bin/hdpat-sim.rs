//! `hdpat-sim` — command-line driver for the wafer-scale GPU simulator.
//!
//! ```text
//! hdpat-sim list                          # benchmarks and policies
//! hdpat-sim run SPMV hdpat                # one simulation, full metrics
//! hdpat-sim run PR naive --scale unit --seed 7
//! hdpat-sim compare KM                    # every policy on one benchmark
//! hdpat-sim figure fig14                  # regenerate one paper figure
//! hdpat-sim figure all --jobs 4           # regenerate everything, 4 workers
//! hdpat-sim trace SPMV                    # workload-trace statistics
//! hdpat-sim trace SPMV --out t.json       # request-lifecycle trace
//! hdpat-sim timeline SPMV --out t.csv     # epoch-sampled counter timeline
//! hdpat-sim heatmap SPMV --out h.csv      # per-tile activity heatmap
//! hdpat-sim regen-experiments             # rewrite every EXPERIMENTS.md table
//! hdpat-sim regen-experiments --check     # CI doc drift gate
//! hdpat-sim serve --socket /tmp/h.sock    # simulation daemon (PROTOCOL.md)
//! hdpat-sim emit-mix fig14 --out mix.ndj  # record the fig14 request mix
//! hdpat-sim replay mix.ndj --out ref.txt  # replay a mix (batch or --socket)
//! hdpat-sim regen-protocol --check        # PROTOCOL.md doc drift gate
//! ```
//!
//! `--jobs N` sets the sweep worker count (default: available parallelism).
//! Simulation points are deduplicated through a per-invocation run cache and
//! executed across the workers. Output is byte-identical for every `--jobs`
//! value, including `--jobs 1` (the serial path), and equal to simulating
//! every point afresh. `--progress` adds a live completed/total +
//! events/sec + ETA line on stderr during sweeps; stdout stays
//! byte-identical.
//!
//! `--cache-dir DIR` attaches the persistent content-addressed run cache
//! (DESIGN.md §14) to sweeps, `serve`, and `replay`, so identical
//! configurations are answered from disk across processes; `--cache-budget
//! N` caps the store at N bytes with LRU eviction. stdout stays
//! byte-identical with or without the disk cache.

use std::path::{Path, PathBuf};

use hdpat::experiments::{run, run_observed, DiskCache, RunConfig, SweepCtx};
use hdpat::policy::PolicyKind;
use hdpat::serve::{Daemon, DaemonConfig};
use wsg_bench::report::{emit, Table};
use wsg_bench::{figures, regen, serving};
use wsg_sim::{telemetry::TelemetrySink, trace::TraceSink};
use wsg_workloads::{BenchmarkId, Scale};

fn parse_policy(s: &str) -> Option<PolicyKind> {
    PolicyKind::from_token(s)
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  hdpat-sim list\n  hdpat-sim run <BENCH> <POLICY> [--scale unit|bench|full] [--seed N]\n  hdpat-sim compare <BENCH> [--scale ...] [--jobs N] [--progress]\n  hdpat-sim figure <NAME|all> [--scale ...] [--jobs N] [--progress] [--perf-out FILE]\n  hdpat-sim trace <BENCH> [--scale ...] [--seed N] [--out FILE] [--policy P]\n  hdpat-sim timeline <BENCH> --out FILE [--interval N] [--format csv|json|perfetto] [--policy P] [--scale ...] [--seed N]\n  hdpat-sim heatmap <BENCH> --out FILE [--interval N] [--policy P] [--scale ...] [--seed N]\n  hdpat-sim regen-experiments [--scale ...] [--jobs N] [--check] [--path FILE]\n  hdpat-sim serve (--socket PATH | --stdio) [--jobs N] [--cache-dir DIR] [--cache-budget BYTES] [--ops-log FILE] [--metrics-out FILE] [--metrics-interval SECS]\n  hdpat-sim replay <MIX> [--socket PATH] [--shutdown] [--out FILE] [--stats-out FILE] [--jobs N] [--cache-dir DIR] [--cache-budget BYTES]\n  hdpat-sim emit-mix fig14 [--scale ...] [--seed N] [--out FILE]\n  hdpat-sim regen-protocol [--check] [--path FILE]\n\nsweep commands also accept --cache-dir DIR [--cache-budget BYTES] for the\npersistent cross-process run cache (DESIGN.md \u{a7}14)."
    );
    std::process::exit(2);
}

/// A flag a command accepts, and whether a value follows it.
type FlagSpec = (&'static str, bool);

/// The flags `main` reads for every command.
const COMMON_FLAGS: &[FlagSpec] = &[
    ("--scale", true),
    ("--seed", true),
    ("--jobs", true),
    ("--progress", false),
    ("--cache-dir", true),
    ("--cache-budget", true),
];

/// The flags of `cmd` beside [`COMMON_FLAGS`]; `None` for an unknown
/// command.
fn command_flags(cmd: &str) -> Option<&'static [FlagSpec]> {
    Some(match cmd {
        "list" | "run" | "compare" => &[],
        "figure" => &[("--perf-out", true)],
        "trace" => &[("--benchmark", true), ("--out", true), ("--policy", true)],
        "timeline" => &[
            ("--benchmark", true),
            ("--policy", true),
            ("--interval", true),
            ("--out", true),
            ("--format", true),
        ],
        "heatmap" => &[
            ("--benchmark", true),
            ("--policy", true),
            ("--interval", true),
            ("--out", true),
        ],
        "regen-experiments" | "regen-protocol" => &[("--check", false), ("--path", true)],
        "serve" => &[
            ("--socket", true),
            ("--stdio", false),
            ("--ops-log", true),
            ("--metrics-out", true),
            ("--metrics-interval", true),
        ],
        "replay" => &[
            ("--socket", true),
            ("--shutdown", false),
            ("--out", true),
            ("--stats-out", true),
        ],
        "emit-mix" => &[("--out", true)],
        _ => return None,
    })
}

/// Exits through [`usage`] unless `cmd` is known, every `--flag` in `args`
/// is one it accepts, and each value-taking flag is followed by a value.
fn check_flags(cmd: &str, args: &[String]) {
    let Some(own) = command_flags(cmd) else {
        usage()
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match COMMON_FLAGS.iter().chain(own).find(|(name, _)| name == arg) {
            Some((_, true)) if rest.next().is_none() => usage(),
            Some(_) => {}
            None => usage(),
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    check_flags(cmd, &args[1..]);
    let scale = flag(&args, "--scale")
        .map(|s| Scale::from_token(&s).unwrap_or_else(|| usage()))
        .unwrap_or(Scale::Bench);
    let seed: u64 = flag(&args, "--seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42);
    let jobs = match flag(&args, "--jobs") {
        Some(j) => j.parse().unwrap_or_else(|_| usage()),
        None => wsg_sim::pool::default_jobs(),
    };
    let ctx = SweepCtx::new(jobs);
    // `--progress` reports live sweep progress on stderr; the deterministic
    // stdout report is unaffected.
    let ctx = if args.iter().any(|a| a == "--progress") {
        ctx.with_progress()
    } else {
        ctx
    };
    // `--cache-dir` attaches the persistent content-addressed run cache so
    // repeated invocations answer from disk; like `--jobs` it never changes
    // a byte of stdout.
    let cache_dir = flag(&args, "--cache-dir").map(PathBuf::from);
    let cache_budget: Option<u64> =
        flag(&args, "--cache-budget").map(|s| s.parse().unwrap_or_else(|_| usage()));
    let ctx = match &cache_dir {
        Some(dir) => match DiskCache::open(dir, cache_budget) {
            Ok(disk) => ctx.with_disk_cache(disk),
            Err(e) => {
                eprintln!("cannot open run cache {}: {e}", dir.display());
                std::process::exit(2);
            }
        },
        None => ctx,
    };

    match cmd.as_str() {
        "list" => cmd_list(),
        "run" => {
            let b = args
                .get(1)
                .and_then(|s| BenchmarkId::from_abbr(s))
                .unwrap_or_else(|| usage());
            let p = args
                .get(2)
                .and_then(|s| parse_policy(s))
                .unwrap_or_else(|| usage());
            cmd_run(b, p, scale, seed);
        }
        "compare" => {
            let b = args
                .get(1)
                .and_then(|s| BenchmarkId::from_abbr(s))
                .unwrap_or_else(|| usage());
            cmd_compare(&ctx, b, scale, seed);
        }
        "figure" => {
            let name = args.get(1).cloned().unwrap_or_else(|| usage());
            let perf_out = flag(&args, "--perf-out");
            cmd_figure(&ctx, &name, scale, perf_out.as_deref());
        }
        "trace" => {
            // The benchmark is positional, but `--benchmark B` is accepted
            // too for symmetry with the flag-style options.
            let b = args
                .get(1)
                .filter(|s| !s.starts_with("--"))
                .cloned()
                .or_else(|| flag(&args, "--benchmark"))
                .as_deref()
                .and_then(BenchmarkId::from_abbr)
                .unwrap_or_else(|| usage());
            match flag(&args, "--out") {
                Some(out) => {
                    let p = flag(&args, "--policy")
                        .map(|s| parse_policy(&s).unwrap_or_else(|| usage()))
                        .unwrap_or_else(PolicyKind::hdpat);
                    cmd_trace_run(b, p, scale, seed, &out);
                }
                None => cmd_trace(b, scale, seed),
            }
        }
        "timeline" | "heatmap" => {
            let b = args
                .get(1)
                .filter(|s| !s.starts_with("--"))
                .cloned()
                .or_else(|| flag(&args, "--benchmark"))
                .as_deref()
                .and_then(BenchmarkId::from_abbr)
                .unwrap_or_else(|| usage());
            let p = flag(&args, "--policy")
                .map(|s| parse_policy(&s).unwrap_or_else(|| usage()))
                .unwrap_or_else(PolicyKind::hdpat);
            // One telemetry epoch per engine utilization window by default,
            // so timelines line up with the sampled-occupancy series.
            let interval: u64 = flag(&args, "--interval")
                .map(|s| s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage()))
                .unwrap_or(10_000);
            let out = flag(&args, "--out").unwrap_or_else(|| usage());
            if cmd == "timeline" {
                let format = flag(&args, "--format").unwrap_or_else(|| "csv".into());
                cmd_timeline(b, p, scale, seed, interval, &out, &format);
            } else {
                cmd_heatmap(b, p, scale, seed, interval, &out);
            }
        }
        "regen-experiments" => {
            let check = args.iter().any(|a| a == "--check");
            let path = flag(&args, "--path").unwrap_or_else(|| {
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md").into()
            });
            cmd_regen_experiments(&ctx, scale, &path, check);
        }
        "serve" => {
            let config = DaemonConfig {
                jobs,
                cache_dir,
                cache_budget,
                ops_log: flag(&args, "--ops-log").map(PathBuf::from),
                metrics_out: flag(&args, "--metrics-out").map(PathBuf::from),
                metrics_interval: flag(&args, "--metrics-interval")
                    .map(|s| s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage())),
            };
            let socket = flag(&args, "--socket");
            let stdio = args.iter().any(|a| a == "--stdio");
            cmd_serve(config, socket, stdio);
        }
        "replay" => {
            let mix_path = args
                .get(1)
                .filter(|s| !s.starts_with("--"))
                .unwrap_or_else(|| usage());
            let config = DaemonConfig {
                jobs,
                cache_dir,
                cache_budget,
                ..DaemonConfig::default()
            };
            cmd_replay(
                mix_path,
                flag(&args, "--socket").as_deref(),
                args.iter().any(|a| a == "--shutdown"),
                flag(&args, "--out").as_deref(),
                flag(&args, "--stats-out").as_deref(),
                config,
            );
        }
        "emit-mix" => {
            let name = args.get(1).cloned().unwrap_or_else(|| usage());
            cmd_emit_mix(&name, scale, seed, flag(&args, "--out").as_deref());
        }
        "regen-protocol" => {
            let check = args.iter().any(|a| a == "--check");
            let path = flag(&args, "--path").unwrap_or_else(|| {
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md").into()
            });
            cmd_regen_protocol(&path, check);
        }
        _ => usage(),
    }
}

fn cmd_list() {
    let mut t = Table::new(vec!["benchmark", "suite", "pattern"]);
    for b in BenchmarkId::all() {
        let i = b.info();
        t.row(vec![
            i.abbr.to_string(),
            i.suite.to_string(),
            i.pattern.to_string(),
        ]);
    }
    emit("Benchmarks", "Table II workloads.", &t);
    let mut t = Table::new(vec!["policy", "description"]);
    for (n, p) in PolicyKind::catalog() {
        t.row(vec![n.to_string(), p.name().to_string()]);
    }
    emit(
        "Policies",
        "Translation policies (paper name in the right column).",
        &t,
    );
}

fn cmd_run(b: BenchmarkId, p: PolicyKind, scale: Scale, seed: u64) {
    let m = run(&RunConfig::new(b, scale, p).with_seed(seed));
    println!("{b} under {p} (seed {seed}):");
    println!("  execution time      : {} cycles", m.total_cycles);
    println!("  memory ops          : {}", m.ops_completed);
    println!(
        "  translations        : {} local, {} remote (+{} coalesced)",
        m.local_translations, m.remote_requests, m.remote_coalesced
    );
    println!("  IOMMU walks         : {}", m.iommu_walks);
    println!("  IOMMU latency       : {}", m.iommu_latency);
    println!("  resolution          : {}", m.resolution);
    println!("  mean remote RTT     : {:.0} cycles", m.remote_rtt.mean());
    println!("  peak IOMMU backlog  : {}", m.iommu_buffer.peak());
    println!(
        "  prefetch accuracy   : {:.1}%",
        m.prefetch_accuracy() * 100.0
    );
    println!(
        "  NoC traffic         : {} bytes, {} packets",
        m.noc_bytes, m.noc_packets
    );
    println!(
        "  GPM imbalance       : {:.2} (max/mean finish)",
        m.gpm_imbalance()
    );
}

fn cmd_compare(ctx: &SweepCtx, b: BenchmarkId, scale: Scale, seed: u64) {
    let points: Vec<RunConfig> = PolicyKind::catalog()
        .into_iter()
        .map(|(_, p)| RunConfig::new(b, scale, p).with_seed(seed))
        .collect();
    let results = ctx.sweep(&points);
    let base = &results[0]; // `naive` is the first catalog entry.
    let mut t = Table::new(vec![
        "policy",
        "cycles",
        "speedup",
        "iommu-walks",
        "offload",
    ]);
    for ((n, _), m) in PolicyKind::catalog().into_iter().zip(&results) {
        t.row(vec![
            n.to_string(),
            m.total_cycles.to_string(),
            format!("{:.2}", m.speedup_vs(base)),
            m.iommu_walks.to_string(),
            format!("{:.1}%", m.offload_fraction() * 100.0),
        ]);
    }
    emit(
        &format!("compare {b}"),
        "All policies on one benchmark, same workload and seed.",
        &t,
    );
}

/// Prints static statistics of a generated workload trace: footprint,
/// operation mix, locality, and remote fraction under block placement with
/// round-robin dispatch.
fn cmd_trace(b: BenchmarkId, scale: Scale, seed: u64) {
    use wsg_gpu::AddressSpace;
    let gpms = 48u32;
    let mut space = AddressSpace::new(wsg_xlat::PageSize::Size4K, gpms);
    let wgs = wsg_workloads::generate(b, scale, &mut space, seed);
    let ps = space.page_size();

    let mut ops = 0u64;
    let mut reads = 0u64;
    let mut remote = 0u64;
    let mut pages = std::collections::BTreeSet::new();
    let mut near = 0u64;
    let mut pairs = 0u64;
    for (i, wg) in wgs.iter().enumerate() {
        let gpm = (i as u32) % gpms;
        let mut last: Option<u64> = None;
        for op in &wg.ops {
            ops += 1;
            if op.is_read {
                reads += 1;
            }
            let vpn = ps.vpn_of(op.vaddr);
            pages.insert(vpn.0);
            if space.home_gpm(vpn) != Some(gpm) {
                remote += 1;
            }
            if let Some(prev) = last {
                pairs += 1;
                if prev.abs_diff(vpn.0) <= 4 {
                    near += 1;
                }
            }
            last = Some(vpn.0);
        }
    }
    let info = b.info();
    println!("{b} — {} ({})", info.name, info.suite);
    println!("  pattern          : {}", info.pattern);
    println!("  workgroups       : {}", wgs.len());
    println!(
        "  memory ops       : {ops} ({:.0}% reads)",
        reads as f64 / ops as f64 * 100.0
    );
    println!("  distinct pages   : {}", pages.len());
    println!(
        "  remote ops       : {:.1}% (block placement, round-robin dispatch)",
        remote as f64 / ops as f64 * 100.0
    );
    println!(
        "  spatial locality : {:.1}% of consecutive ops within 4 pages",
        near as f64 / pairs.max(1) as f64 * 100.0
    );
}

/// Runs one traced simulation, writes the request lifecycle as Chrome
/// trace-event JSON (loadable in Perfetto / `chrome://tracing`), and prints
/// the per-stage latency table as CSV on stdout.
fn cmd_trace_run(b: BenchmarkId, p: PolicyKind, scale: Scale, seed: u64, out: &str) {
    let cfg = RunConfig::new(b, scale, p).with_seed(seed);
    let (m, sink) = run_observed(&cfg, TraceSink::new());
    if let Err(e) = std::fs::write(out, sink.to_chrome_json()) {
        eprintln!("trace: cannot write {out}: {e}");
        std::process::exit(2);
    }
    print!("{}", sink.stage_csv());
    eprintln!(
        "[trace] {b} under {p} (seed {seed}): {} events over {} cycles -> {out}",
        sink.len(),
        m.total_cycles
    );
}

/// Runs one telemetry-instrumented simulation and writes the epoch-sampled
/// counter timeline to `out`. `--format csv` (default) is the long-form
/// `name,site,tile_x,tile_y,t,value` table; `json` is the structured
/// registry dump; `perfetto` is a Chrome trace-event document with one
/// `"ph":"C"` counter track per registered series, with the
/// request-lifecycle spans merged onto the same simulated clock.
fn cmd_timeline(
    b: BenchmarkId,
    p: PolicyKind,
    scale: Scale,
    seed: u64,
    interval: u64,
    out: &str,
    format: &str,
) {
    let cfg = RunConfig::new(b, scale, p).with_seed(seed);
    let (metrics, body) = match format {
        "csv" | "json" => {
            let (m, sink) = run_observed(&cfg, TelemetrySink::new(interval));
            let body = if format == "csv" {
                sink.to_csv()
            } else {
                sink.to_json()
            };
            (m, body)
        }
        "perfetto" => {
            let obs = (TelemetrySink::new(interval), TraceSink::new());
            let (m, (tel, trc)) = run_observed(&cfg, obs);
            (m, tel.merge_chrome_json(&trc.to_chrome_json()))
        }
        _ => {
            eprintln!("timeline: unknown format `{format}`; use csv, json, or perfetto");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::write(out, &body) {
        eprintln!("timeline: cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "[timeline] {b} under {p} (seed {seed}): {} cycles sampled every {interval} -> {out}",
        metrics.total_cycles
    );
}

/// Runs one telemetry-instrumented simulation and writes the per-tile
/// activity heatmap (`metric,x,y,value` CSV, whole-run totals) to `out`.
fn cmd_heatmap(b: BenchmarkId, p: PolicyKind, scale: Scale, seed: u64, interval: u64, out: &str) {
    let cfg = RunConfig::new(b, scale, p).with_seed(seed);
    let (metrics, sink) = run_observed(&cfg, TelemetrySink::new(interval));
    let Some(hm) = sink.heatmap() else {
        eprintln!("heatmap: simulation registered no spatial grid");
        std::process::exit(2);
    };
    if let Err(e) = std::fs::write(out, hm.to_csv()) {
        eprintln!("heatmap: cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "[heatmap] {b} under {p} (seed {seed}): {}x{} tiles over {} cycles -> {out}",
        hm.width, hm.height, metrics.total_cycles
    );
}

/// The end-of-sweep stderr accounting line. The disk-hit clause appears
/// only when `--cache-dir` attached a persistent cache, so the line is
/// unchanged for existing invocations.
fn sweep_summary(ctx: &SweepCtx) -> String {
    let (hits, misses) = ctx.cache_stats();
    let disk = match ctx.disk_cache() {
        Some(_) => format!(", {} disk hit(s)", ctx.disk_hits()),
        None => String::new(),
    };
    format!(
        "[sweep] {misses} simulation(s) executed, {hits} cache hit(s){disk}, {} worker(s)",
        ctx.jobs()
    )
}

fn cmd_figure(ctx: &SweepCtx, name: &str, scale: Scale, perf_out: Option<&str>) {
    #[expect(
        clippy::disallowed_methods,
        reason = "host-side throughput measurement for the `--perf-out` artifact; the deterministic figure text on stdout never depends on it"
    )]
    let wall_start = std::time::Instant::now();
    let all = figures::all(ctx, scale);
    let mut matched = false;
    for (n, f) in &all {
        if name == "all" || name.eq_ignore_ascii_case(n) {
            matched = true;
            emit(n, "", &f());
        }
    }
    if !matched {
        let names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown figure `{name}`; try {} or `all`", names.join(", "));
        std::process::exit(2);
    }
    let (hits, misses) = ctx.cache_stats();
    eprintln!("{}", sweep_summary(ctx));
    if let Some(path) = perf_out {
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        let total_events = ctx.events_executed();
        let events_per_sec = if wall_seconds > 0.0 {
            total_events as f64 / wall_seconds
        } else {
            0.0
        };
        // Perf-artifact schema v2 (DESIGN.md §16): a version stamp first,
        // then the run identity (figure / jobs) always present.
        let json = format!(
            "{{\n  \"schema\": 2,\n  \"figure\": \"{name}\",\n  \"jobs\": {jobs},\n  \
             \"wall_seconds\": {wall_seconds:.3},\n  \
             \"total_events\": {total_events},\n  \"events_per_sec\": {events_per_sec:.0},\n  \
             \"simulations\": {misses},\n  \"cache_hits\": {hits}\n}}\n",
            jobs = ctx.jobs()
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("figure --perf-out: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("[perf] wrote {path}");
    }
}

fn cmd_regen_experiments(ctx: &SweepCtx, scale: Scale, path: &str, check: bool) {
    regen_doc("regen-experiments", "measured tables", path, check, |doc| {
        let fresh = regen::apply(doc, &regen::blocks(ctx, scale))?;
        eprintln!("{}", sweep_summary(ctx));
        Ok(fresh)
    });
}

/// The drift-gate tail of `regen-experiments` and `regen-protocol`: reads
/// the document at `path`, regenerates it with `regenerate`, then either
/// checks it (`check`: exit 1 when stale) or rewrites it. `what` names the
/// generated parts in the messages.
fn regen_doc(
    cmd: &str,
    what: &str,
    path: &str,
    check: bool,
    regenerate: impl FnOnce(&str) -> Result<String, String>,
) {
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{cmd}: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let fresh = match regenerate(&doc) {
        Ok(fresh) => fresh,
        Err(e) => {
            eprintln!("{cmd}: {path}: {e}");
            std::process::exit(2);
        }
    };
    if check {
        if fresh == doc {
            println!("{cmd} --check: {path} is up to date");
        } else {
            eprintln!(
                "{cmd} --check: {what} in {path} are stale; \
                 run `hdpat-sim {cmd}` and commit the result"
            );
            std::process::exit(1);
        }
    } else if fresh == doc {
        println!("{cmd}: {path} already up to date");
    } else if let Err(e) = std::fs::write(path, &fresh) {
        eprintln!("{cmd}: cannot write {path}: {e}");
        std::process::exit(2);
    } else {
        println!("{cmd}: rewrote {what} in {path}");
    }
}

/// Runs the simulation daemon until a client sends `{"op":"shutdown"}`.
/// `--socket PATH` listens on a Unix socket; `--stdio` serves one
/// connection over stdin/stdout (scripting and tests).
fn cmd_serve(config: DaemonConfig, socket: Option<String>, stdio: bool) {
    let daemon = match Daemon::new(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve: cannot start daemon: {e}");
            std::process::exit(2);
        }
    };
    if stdio {
        eprintln!(
            "[serve] reading requests from stdin, {} worker(s)",
            daemon.jobs()
        );
        daemon.serve_connection(std::io::stdin().lock(), std::io::stdout());
    } else {
        let Some(path) = socket else { usage() };
        eprintln!("[serve] listening on {path}, {} worker(s)", daemon.jobs());
        if let Err(e) = daemon.serve_unix(Path::new(&path)) {
            eprintln!("serve: {path}: {e}");
            std::process::exit(2);
        }
    }
    daemon.join();
    eprintln!("[serve] drained, exiting");
}

/// Replays a recorded request mix — in-process by default (boots a daemon,
/// streams the mix through one connection), or against a running daemon
/// with `--socket`. Writes the deterministic response digest to `--out`
/// (stdout otherwise) and hit-rate/latency statistics to `--stats-out`.
fn cmd_replay(
    mix_path: &str,
    socket: Option<&str>,
    shutdown: bool,
    out: Option<&str>,
    stats_out: Option<&str>,
    config: DaemonConfig,
) {
    let mix = match std::fs::read_to_string(mix_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("replay: cannot read {mix_path}: {e}");
            std::process::exit(2);
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "host-side latency measurement for the `--stats-out` artifact; the deterministic digest never depends on it"
    )]
    let wall_start = std::time::Instant::now();
    let timed = match socket {
        Some(path) => replay_over_socket(&mix, path, shutdown),
        None => serving::replay_batch_timed(&mix, config),
    };
    let timed = match timed {
        Ok(timed) => timed,
        Err(e) => {
            eprintln!("replay: {e}");
            std::process::exit(2);
        }
    };
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let lines: Vec<String> = timed.iter().map(|(line, _)| line.clone()).collect();
    let (artifact, stats) = serving::digest(&lines);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &artifact) {
                eprintln!("replay: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
        None => print!("{artifact}"),
    }
    if let Some(path) = stats_out {
        if let Err(e) = std::fs::write(path, stats.to_json(wall_seconds)) {
            eprintln!("replay: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    eprintln!(
        "[replay] {} result(s) in {:.2}s: {} simulated, {} memory, {} disk; {} error(s)",
        stats.results, wall_seconds, stats.simulated, stats.memory, stats.disk, stats.errors
    );
    // Client-observed latency table (diagnostic, stderr only — the digest
    // above is the deterministic artifact). Socket replays stamp each
    // response on arrival; batch replays attribute the total drain time.
    eprint!("{}", serving::latency_report(&timed));
}

#[cfg(unix)]
fn replay_over_socket(
    mix: &str,
    path: &str,
    shutdown: bool,
) -> std::io::Result<Vec<serving::TimedLine>> {
    serving::replay_socket_timed(mix, Path::new(path), shutdown)
}

#[cfg(not(unix))]
fn replay_over_socket(
    _mix: &str,
    _path: &str,
    _shutdown: bool,
) -> std::io::Result<Vec<serving::TimedLine>> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "replay --socket needs Unix domain sockets; use batch mode",
    ))
}

/// Writes a recorded request mix (newline-delimited `submit` requests) for
/// `hdpat-sim replay`. `fig14` is the full overall-speedup sweep: every
/// Table II benchmark under the baseline and the four headline policies.
fn cmd_emit_mix(name: &str, scale: Scale, seed: u64, out: Option<&str>) {
    let mix = match name {
        "fig14" => serving::fig14_mix(scale, seed),
        _ => {
            eprintln!("emit-mix: unknown mix `{name}`; try fig14");
            std::process::exit(2);
        }
    };
    let requests = mix.lines().count();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &mix) {
                eprintln!("emit-mix: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("[emit-mix] {requests} request(s) -> {path}");
        }
        None => print!("{mix}"),
    }
}

/// Regenerates the worked protocol examples in PROTOCOL.md from the actual
/// wire builders (`hdpat::serve::proto::protocol_examples`), so the
/// documented lines can never drift from what the daemon emits. `--check`
/// is the CI drift gate.
fn cmd_regen_protocol(path: &str, check: bool) {
    regen_doc("regen-protocol", "protocol examples", path, check, |doc| {
        regen::splice(
            doc,
            "protocol-examples",
            &hdpat::serve::proto::protocol_examples(),
        )
    });
}

//! One function per paper table/figure and per extension ablation, all
//! registered by name in [`all`]. Each returns a [`Table`] whose rows mirror
//! what the paper plots, so `hdpat-sim figure <name>|all` prints them,
//! `hdpat-sim regen-experiments` writes them into EXPERIMENTS.md, and
//! integration tests assert on their shape.
//!
//! Every figure takes a [`SweepCtx`] and submits its simulation points as
//! one batch through [`SweepCtx::sweep`]: unique points run across the
//! context's worker pool, duplicates (most prominently the Naive baseline,
//! which a dozen figures normalize against) are simulated once per context,
//! and results come back in input order — so a figure's table is
//! byte-identical whatever the `--jobs` value and whatever ran before it on
//! the same context (`tests/sweep_determinism.rs`).

use hdpat::experiments::{RunConfig, SweepCtx};
use hdpat::policy::{HdpatConfig, PolicyKind};
use hdpat::{Metrics, MigrationConfig};
use wsg_gpu::{GpuPreset, IommuConfig, SystemConfig, WaferLayout};
use wsg_workloads::{BenchmarkId, Scale};
use wsg_xlat::PageSize;

use crate::report::{gmean_cell, pct, ratio, Table};

/// Fig 2: performance headroom of idealized IOMMUs (1-cycle / 16-walker and
/// 500-cycle / 4096-walker) over the baseline.
pub fn fig02_headroom(ctx: &SweepCtx, scale: Scale) -> Table {
    let lat_sys = SystemConfig {
        iommu: IommuConfig::ideal_latency(),
        ..SystemConfig::paper_baseline()
    };
    let par_sys = SystemConfig {
        iommu: IommuConfig::ideal_parallelism(),
        ..SystemConfig::paper_baseline()
    };
    let points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .flat_map(|b| {
            [
                RunConfig::new(b, scale, PolicyKind::Naive),
                RunConfig::new(b, scale, PolicyKind::Naive).with_system(lat_sys.clone()),
                RunConfig::new(b, scale, PolicyKind::Naive).with_system(par_sys.clone()),
            ]
        })
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec!["bench", "ideal-latency", "ideal-parallelism"]);
    let mut lats = Vec::new();
    let mut pars = Vec::new();
    for (b, chunk) in BenchmarkId::all().into_iter().zip(results.chunks(3)) {
        let (base, lat, par) = (&chunk[0], &chunk[1], &chunk[2]);
        let sl = lat.speedup_vs(base);
        let sp = par.speedup_vs(base);
        lats.push(sl);
        pars.push(sp);
        t.row(vec![b.to_string(), ratio(sl), ratio(sp)]);
    }
    t.row(vec!["GMEAN".into(), gmean_cell(&lats), gmean_cell(&pars)]);
    t
}

/// Fig 3: average latency breakdown per IOMMU translation request for SPMV
/// (pre-queue wait / PTW-queue wait / walk).
pub fn fig03_latency_breakdown(ctx: &SweepCtx, scale: Scale) -> Table {
    let m = ctx.run(&RunConfig::new(BenchmarkId::Spmv, scale, PolicyKind::Naive));
    let mut t = Table::new(vec!["component", "total-cycles", "share"]);
    for (name, value, share) in m.iommu_latency.iter() {
        t.row(vec![name.to_string(), value.to_string(), pct(share)]);
    }
    t
}

/// Fig 4: IOMMU buffer pressure over time, MCM 4-GPM vs 48-GPM wafer, for
/// SPMV. One row per time window with the max occupancy observed.
pub fn fig04_buffer_pressure(ctx: &SweepCtx, scale: Scale) -> Table {
    let mcm_sys = SystemConfig {
        layout: WaferLayout::mcm_4gpm(),
        ..SystemConfig::paper_baseline()
    };
    let results = ctx.sweep(&[
        RunConfig::new(BenchmarkId::Spmv, scale, PolicyKind::Naive),
        RunConfig::new(BenchmarkId::Spmv, scale, PolicyKind::Naive).with_system(mcm_sys),
    ]);
    let (wafer, mcm) = (&results[0], &results[1]);
    let mut t = Table::new(vec![
        "window-start",
        "mcm-4gpm-occupancy",
        "wafer-48gpm-occupancy",
    ]);
    let mcm_w: Vec<u64> = mcm.iommu_buffer.windows().map(|w| w.max).collect();
    let wafer_w: Vec<u64> = wafer.iommu_buffer.windows().map(|w| w.max).collect();
    let width = wafer.iommu_buffer.window_width();
    for i in 0..wafer_w.len().max(mcm_w.len()) {
        t.row(vec![
            (i as u64 * width).to_string(),
            mcm_w.get(i).copied().unwrap_or(0).to_string(),
            wafer_w.get(i).copied().unwrap_or(0).to_string(),
        ]);
    }
    t
}

/// Fig 5: GPM execution time by concentric ring (distance from the CPU
/// tile) for SPMV and MM — central GPMs finish sooner.
pub fn fig05_position_imbalance(ctx: &SweepCtx, scale: Scale) -> Table {
    let layout = WaferLayout::paper_7x7();
    let results = ctx.sweep(&[
        RunConfig::new(BenchmarkId::Spmv, scale, PolicyKind::Naive),
        RunConfig::new(BenchmarkId::Mm, scale, PolicyKind::Naive),
    ]);
    let (spmv, mm) = (&results[0], &results[1]);
    let ring_mean = |m: &Metrics, ring: u32| -> f64 {
        let ids = layout.ring_gpms(ring);
        let sum: u64 = ids.iter().map(|&id| m.gpm_finish[id as usize]).sum();
        sum as f64 / ids.len() as f64
    };
    let mut t = Table::new(vec!["ring", "spmv-mean-finish", "mm-mean-finish"]);
    for ring in 1..=layout.max_layer() {
        t.row(vec![
            ring.to_string(),
            format!("{:.0}", ring_mean(spmv, ring)),
            format!("{:.0}", ring_mean(mm, ring)),
        ]);
    }
    t
}

/// Fig 6: distribution of per-VPN IOMMU translation counts. For each
/// benchmark: distinct pages seen at the IOMMU and the fraction translated
/// once / 2-4 times / 5+ times.
pub fn fig06_translation_counts(ctx: &SweepCtx, scale: Scale) -> Table {
    let points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .map(|b| RunConfig::new(b, scale, PolicyKind::Naive))
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec!["bench", "pages", "x1", "x2-4", "x5+"]);
    for (b, m) in BenchmarkId::all().into_iter().zip(&results) {
        let h = m.translation_count_histogram();
        let total = h.count().max(1);
        let mut once = 0u64;
        let mut few = 0u64;
        let mut many = 0u64;
        for (lo, c) in h.iter() {
            if lo <= 1 {
                once += c;
            } else if lo <= 4 {
                few += c;
            } else {
                many += c;
            }
        }
        t.row(vec![
            b.to_string(),
            h.count().to_string(),
            pct(once as f64 / total as f64),
            pct(few as f64 / total as f64),
            pct(many as f64 / total as f64),
        ]);
    }
    t
}

/// Fig 7: reuse-distance distribution between repeated IOMMU translations
/// for the benchmarks the paper highlights (BT, FWT, MT, PR).
pub fn fig07_reuse_distance(ctx: &SweepCtx, scale: Scale) -> Table {
    let benches = [
        BenchmarkId::Bt,
        BenchmarkId::Fwt,
        BenchmarkId::Mt,
        BenchmarkId::Pr,
    ];
    let points: Vec<RunConfig> = benches
        .into_iter()
        .map(|b| RunConfig::new(b, scale, PolicyKind::Naive))
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec!["bench", "repeats", "<=64", "65-4096", ">4096", "max"]);
    for (b, m) in benches.into_iter().zip(&results) {
        let h = m.iommu_reuse.reuse_histogram();
        let total = h.count().max(1);
        let (mut small, mut mid, mut large) = (0u64, 0u64, 0u64);
        for (lo, c) in h.iter() {
            if lo <= 64 {
                small += c;
            } else if lo <= 4096 {
                mid += c;
            } else {
                large += c;
            }
        }
        t.row(vec![
            b.to_string(),
            h.count().to_string(),
            pct(small as f64 / total as f64),
            pct(mid as f64 / total as f64),
            pct(large as f64 / total as f64),
            h.max().to_string(),
        ]);
    }
    t
}

/// Fig 8: fraction of consecutive IOMMU translation requests within a given
/// VPN distance of each other (spatial locality, observation O4).
pub fn fig08_spatial_locality(ctx: &SweepCtx, scale: Scale) -> Table {
    let points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .map(|b| RunConfig::new(b, scale, PolicyKind::Naive))
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec!["bench", "<=1", "<=2", "<=4", "<=8"]);
    for (b, m) in BenchmarkId::all().into_iter().zip(&results) {
        let h = &m.vpn_delta;
        t.row(vec![
            b.to_string(),
            pct(h.fraction_at_most(1)),
            pct(h.fraction_at_most(2)),
            pct(h.fraction_at_most(4)),
            pct(h.fraction_at_most(8)),
        ]);
    }
    t
}

/// Fig 13: IOMMU-served request time series for FIR at two problem sizes,
/// normalized per window to show the size-invariant shape.
pub fn fig13_size_invariance(ctx: &SweepCtx) -> Table {
    let results = ctx.sweep(&[
        RunConfig::new(BenchmarkId::Fir, Scale::Unit, PolicyKind::Naive),
        RunConfig::new(BenchmarkId::Fir, Scale::Bench, PolicyKind::Naive),
    ]);
    let (small, large) = (&results[0], &results[1]);
    let series = |m: &Metrics| -> Vec<f64> {
        let counts: Vec<u64> = m.iommu_served.windows().map(|w| w.count).collect();
        let peak = counts.iter().copied().max().unwrap_or(1).max(1) as f64;
        counts.iter().map(|&c| c as f64 / peak).collect()
    };
    let s = series(small);
    let l = series(large);
    // Resample both to 10 normalized-time buckets.
    let resample = |v: &[f64]| -> Vec<f64> {
        (0..10)
            .map(|i| {
                let lo = i * v.len() / 10;
                let hi = ((i + 1) * v.len() / 10).max(lo + 1).min(v.len().max(1));
                if v.is_empty() {
                    0.0
                } else {
                    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
                }
            })
            .collect()
    };
    let (rs, rl) = (resample(&s), resample(&l));
    let mut t = Table::new(vec![
        "phase",
        "small-normalized-rate",
        "large-normalized-rate",
    ]);
    for i in 0..10 {
        t.row(vec![
            format!("{}%", i * 10),
            format!("{:.2}", rs[i]),
            format!("{:.2}", rl[i]),
        ]);
    }
    t
}

/// Fig 14: overall speedup of Trans-FW, Valkyrie, Barre and HDPAT over the
/// baseline, per benchmark plus geometric mean.
pub fn fig14_overall(ctx: &SweepCtx, scale: Scale) -> Table {
    let policies = [
        ("Trans-FW", PolicyKind::TransFw),
        ("Valkyrie", PolicyKind::Valkyrie),
        ("Barre", PolicyKind::Barre),
        ("HDPAT", PolicyKind::hdpat()),
    ];
    policy_matrix(ctx, scale, &policies)
}

/// Fig 15: the ablation over HDPAT's techniques.
pub fn fig15_ablation(ctx: &SweepCtx, scale: Scale) -> Table {
    let policies = [
        ("route", PolicyKind::RouteCache { caching_layers: 2 }),
        ("concentric", PolicyKind::Concentric { caching_layers: 2 }),
        ("distributed", PolicyKind::Distributed),
        (
            "cluster+rot",
            PolicyKind::Hdpat(HdpatConfig::peer_caching_only()),
        ),
        (
            "+redirection",
            PolicyKind::Hdpat(HdpatConfig::with_redirection_only()),
        ),
        (
            "+prefetch",
            PolicyKind::Hdpat(HdpatConfig::with_prefetch_only()),
        ),
        ("HDPAT", PolicyKind::hdpat()),
    ];
    policy_matrix(ctx, scale, &policies)
}

/// Shared speedup matrix: one row per benchmark, one column per policy,
/// every cell normalized to the Naive baseline, plus a GMEAN row. All
/// `(1 + policies) × benchmarks` points go through the sweep as one batch.
fn policy_matrix(ctx: &SweepCtx, scale: Scale, policies: &[(&str, PolicyKind)]) -> Table {
    let points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .flat_map(|b| {
            std::iter::once(RunConfig::new(b, scale, PolicyKind::Naive)).chain(
                policies
                    .iter()
                    .map(move |(_, p)| RunConfig::new(b, scale, *p)),
            )
        })
        .collect();
    let results = ctx.sweep(&points);
    let mut headers = vec!["bench".to_string()];
    headers.extend(policies.iter().map(|(n, _)| n.to_string()));
    let mut t = Table::new(headers);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let stride = policies.len() + 1;
    for (b, chunk) in BenchmarkId::all().into_iter().zip(results.chunks(stride)) {
        let base = &chunk[0];
        let mut row = vec![b.to_string()];
        for (i, m) in chunk[1..].iter().enumerate() {
            let s = m.speedup_vs(base);
            cols[i].push(s);
            row.push(ratio(s));
        }
        t.row(row);
    }
    let mut gm = vec!["GMEAN".to_string()];
    gm.extend(cols.iter().map(|c| gmean_cell(c)));
    t.row(gm);
    t
}

/// Fig 16: how HDPAT resolves remote translations — peer cache /
/// redirection / proactive delivery / IOMMU shares per benchmark, plus the
/// total offload fraction.
pub fn fig16_breakdown(ctx: &SweepCtx, scale: Scale) -> Table {
    let points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .map(|b| RunConfig::new(b, scale, PolicyKind::hdpat()))
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec![
        "bench",
        "peer-cache",
        "redirection",
        "proactive",
        "iommu",
        "offloaded",
    ]);
    let mut offloads = Vec::new();
    for (b, m) in BenchmarkId::all().into_iter().zip(&results) {
        offloads.push(m.offload_fraction());
        t.row(vec![
            b.to_string(),
            pct(m.resolution.share("peer-cache")),
            pct(m.resolution.share("redirection")),
            pct(m.resolution.share("proactive")),
            pct(m.resolution.share("iommu")),
            pct(m.offload_fraction()),
        ]);
    }
    let mean = offloads.iter().sum::<f64>() / offloads.len() as f64;
    t.row(vec![
        "MEAN".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        pct(mean),
    ]);
    t
}

/// Fig 17: remote-translation round-trip time under HDPAT, normalized to
/// the baseline, plus the additional NoC traffic HDPAT injects.
pub fn fig17_response_time(ctx: &SweepCtx, scale: Scale) -> Table {
    let points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .flat_map(|b| {
            [
                RunConfig::new(b, scale, PolicyKind::Naive),
                RunConfig::new(b, scale, PolicyKind::hdpat()),
            ]
        })
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec!["bench", "normalized-rtt", "extra-traffic"]);
    let mut rtts = Vec::new();
    let mut extras = Vec::new();
    for (b, chunk) in BenchmarkId::all().into_iter().zip(results.chunks(2)) {
        let (base, hd) = (&chunk[0], &chunk[1]);
        let norm = if base.remote_rtt.mean() > 0.0 {
            hd.remote_rtt.mean() / base.remote_rtt.mean()
        } else {
            1.0
        };
        let extra = if base.noc_bytes > 0 {
            hd.noc_bytes as f64 / base.noc_bytes as f64 - 1.0
        } else {
            0.0
        };
        rtts.push(norm);
        extras.push(extra);
        t.row(vec![b.to_string(), ratio(norm), pct(extra)]);
    }
    t.row(vec![
        "MEAN".into(),
        ratio(rtts.iter().sum::<f64>() / rtts.len() as f64),
        pct(extras.iter().sum::<f64>() / extras.len() as f64),
    ]);
    t
}

/// Fig 18: proactive-delivery granularity sweep (1 / 4 / 8 PTEs per walk).
pub fn fig18_prefetch_granularity(ctx: &SweepCtx, scale: Scale) -> Table {
    let degree = |d: u32| {
        PolicyKind::Hdpat(HdpatConfig {
            prefetch_degree: d,
            ..HdpatConfig::paper_default()
        })
    };
    let policies = [
        ("1-PTE", degree(1)),
        ("4-PTE", degree(4)),
        ("8-PTE", degree(8)),
    ];
    policy_matrix(ctx, scale, &policies)
}

/// Fig 19: redirection table vs a same-area conventional TLB at the IOMMU.
pub fn fig19_redir_vs_tlb(ctx: &SweepCtx, scale: Scale) -> Table {
    let policies = [
        ("redirection-table", PolicyKind::hdpat()),
        (
            "iommu-tlb",
            PolicyKind::Hdpat(HdpatConfig::with_iommu_tlb()),
        ),
    ];
    policy_matrix(ctx, scale, &policies)
}

/// Fig 20: page-size sweep. Geometric-mean performance of the baseline and
/// HDPAT at each page size, normalized to the 4 KB baseline.
///
/// 2 MB pages are omitted below `Scale::Full`: scaled footprints span fewer
/// 2 MB pages than the wafer has GPMs, which degenerates placement.
pub fn fig20_page_size(ctx: &SweepCtx, scale: Scale) -> Table {
    let sizes: &[PageSize] = if matches!(scale, Scale::Full) {
        &[
            PageSize::Size4K,
            PageSize::Size16K,
            PageSize::Size64K,
            PageSize::Size2M,
        ]
    } else {
        &[PageSize::Size4K, PageSize::Size16K, PageSize::Size64K]
    };
    // Points: the 4 KB reference baseline per benchmark, then per page size
    // a (baseline, HDPAT) pair per benchmark. The sweep's fingerprint cache
    // collapses the 4 KB baseline pair with the reference runs.
    let mut points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .map(|b| RunConfig::new(b, scale, PolicyKind::Naive))
        .collect();
    for &ps in sizes {
        let sys = SystemConfig {
            page_size: ps,
            ..SystemConfig::paper_baseline()
        };
        for b in BenchmarkId::all() {
            points.push(RunConfig::new(b, scale, PolicyKind::Naive).with_system(sys.clone()));
            points.push(RunConfig::new(b, scale, PolicyKind::hdpat()).with_system(sys.clone()));
        }
    }
    let results = ctx.sweep(&points);
    let n = BenchmarkId::all().len();
    let refs = &results[..n];
    let mut t = Table::new(vec!["page-size", "baseline", "HDPAT"]);
    for (si, &ps) in sizes.iter().enumerate() {
        let chunk = &results[n + si * 2 * n..n + (si + 1) * 2 * n];
        let mut base_norm = Vec::new();
        let mut hd_norm = Vec::new();
        for (i, pair) in chunk.chunks(2).enumerate() {
            base_norm.push(refs[i].total_cycles as f64 / pair[0].total_cycles as f64);
            hd_norm.push(refs[i].total_cycles as f64 / pair[1].total_cycles as f64);
        }
        t.row(vec![
            ps.to_string(),
            gmean_cell(&base_norm),
            gmean_cell(&hd_norm),
        ]);
    }
    t
}

/// Fig 21: geometric-mean HDPAT speedup across commercial GPU presets.
pub fn fig21_gpu_presets(ctx: &SweepCtx, scale: Scale) -> Table {
    let mut points = Vec::new();
    for preset in GpuPreset::all() {
        let sys = SystemConfig::with_preset(preset);
        for b in BenchmarkId::all() {
            points.push(RunConfig::new(b, scale, PolicyKind::Naive).with_system(sys.clone()));
            points.push(RunConfig::new(b, scale, PolicyKind::hdpat()).with_system(sys.clone()));
        }
    }
    let results = ctx.sweep(&points);
    let n = BenchmarkId::all().len();
    let mut t = Table::new(vec!["preset", "hdpat-speedup"]);
    for (pi, preset) in GpuPreset::all().into_iter().enumerate() {
        let chunk = &results[pi * 2 * n..(pi + 1) * 2 * n];
        let speeds: Vec<f64> = chunk
            .chunks(2)
            .map(|pair| pair[1].speedup_vs(&pair[0]))
            .collect();
        t.row(vec![preset.name().to_string(), gmean_cell(&speeds)]);
    }
    t
}

/// Fig 22: HDPAT speedup per benchmark on the larger 7×12 wafer.
pub fn fig22_wafer_7x12(ctx: &SweepCtx, scale: Scale) -> Table {
    let sys = SystemConfig {
        layout: WaferLayout::paper_7x12(),
        ..SystemConfig::paper_baseline()
    };
    let points: Vec<RunConfig> = BenchmarkId::all()
        .into_iter()
        .flat_map(|b| {
            [
                RunConfig::new(b, scale, PolicyKind::Naive).with_system(sys.clone()),
                RunConfig::new(b, scale, PolicyKind::hdpat()).with_system(sys.clone()),
            ]
        })
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec!["bench", "hdpat-speedup"]);
    let mut speeds = Vec::new();
    for (b, chunk) in BenchmarkId::all().into_iter().zip(results.chunks(2)) {
        let s = chunk[1].speedup_vs(&chunk[0]);
        speeds.push(s);
        t.row(vec![b.to_string(), ratio(s)]);
    }
    t.row(vec!["GMEAN".into(), gmean_cell(&speeds)]);
    t
}

/// Table I: the wafer-scale GPU configuration.
pub fn tab1_config() -> Table {
    let cfg = SystemConfig::paper_baseline();
    let mut t = Table::new(vec!["module", "configuration"]);
    t.row(vec![
        "CU".into(),
        format!("1.0 GHz, {} per GPM", cfg.gpm.cus),
    ]);
    t.row(vec![
        "L1 Vector Cache".into(),
        format!(
            "{} KB, {}-way",
            cfg.gpm.l1_cache.capacity_bytes() >> 10,
            cfg.gpm.l1_cache.ways
        ),
    ]);
    t.row(vec![
        "L2 Cache".into(),
        format!(
            "{} MB, {}-way",
            cfg.gpm.l2_cache.capacity_bytes() >> 20,
            cfg.gpm.l2_cache.ways
        ),
    ]);
    t.row(vec![
        "L1 TLB".into(),
        format!(
            "{}-set, {}-way, {}-MSHR, {}-cycle",
            cfg.gpm.l1_tlb.sets, cfg.gpm.l1_tlb.ways, cfg.gpm.l1_tlb.mshrs, cfg.gpm.l1_tlb.latency
        ),
    ]);
    t.row(vec![
        "L2 TLB".into(),
        format!(
            "{}-set, {}-way, {}-MSHR, {}-cycle",
            cfg.gpm.l2_tlb.sets, cfg.gpm.l2_tlb.ways, cfg.gpm.l2_tlb.mshrs, cfg.gpm.l2_tlb.latency
        ),
    ]);
    t.row(vec![
        "GMMU Cache".into(),
        format!(
            "{}-set, {}-way",
            cfg.gpm.gmmu_cache.sets, cfg.gpm.gmmu_cache.ways
        ),
    ]);
    t.row(vec![
        "GMMU".into(),
        format!(
            "{} shared walkers, {} cycles/walk",
            cfg.gpm.gmmu_walkers, cfg.gpm.walk_latency
        ),
    ]);
    t.row(vec![
        "IOMMU".into(),
        format!(
            "{} shared walkers, {} cycles/walk",
            cfg.iommu.walkers, cfg.iommu.walk_latency
        ),
    ]);
    t.row(vec![
        "Redirection Table".into(),
        format!("{} entries, LRU", cfg.iommu.redirection_entries),
    ]);
    t.row(vec![
        "HBM".into(),
        format!(
            "{} GB, {:.2} TB/s",
            cfg.gpm.hbm.capacity_bytes >> 30,
            cfg.gpm.hbm.bytes_per_cycle / 1000.0
        ),
    ]);
    #[expect(
        clippy::cast_sign_loss,
        reason = "link bandwidth is a positive config constant"
    )]
    t.row(vec![
        "Mesh Network".into(),
        format!(
            "{} GB/s per link, {}-cycle latency",
            cfg.link.bytes_per_cycle as u64, cfg.link.latency
        ),
    ]);
    t.row(vec![
        "Wafer".into(),
        format!(
            "{}x{} tiles, {} GPMs, CPU at {}",
            cfg.layout.width(),
            cfg.layout.height(),
            cfg.layout.gpm_count(),
            cfg.layout.cpu()
        ),
    ]);
    t
}

/// Table II: the benchmark catalog.
pub fn tab2_workloads() -> Table {
    let mut t = Table::new(vec![
        "abbr",
        "benchmark",
        "suite",
        "workgroups",
        "memory-fp",
    ]);
    for b in BenchmarkId::all() {
        let info = b.info();
        t.row(vec![
            info.abbr.to_string(),
            info.name.to_string(),
            info.suite.to_string(),
            info.paper_workgroups.to_string(),
            format!("{} MB", info.paper_footprint_mb),
        ]);
    }
    t
}

/// §V-F: area and power of the HDPAT hardware additions.
pub fn tab3_area_power() -> Table {
    let mut t = Table::new(vec![
        "structure",
        "bits",
        "area-mm2",
        "power-w",
        "area-overhead",
        "power-overhead",
    ]);
    for (name, est) in [
        ("redirection-table-1024", hdpat::area::redirection_table()),
        ("equivalent-tlb-512", hdpat::area::equivalent_tlb()),
        ("cuckoo-filter-64k", hdpat::area::cuckoo_filter(64 * 1024)),
    ] {
        t.row(vec![
            name.to_string(),
            est.bits.to_string(),
            format!("{:.4}", est.area_mm2),
            format!("{:.3}", est.power_w),
            pct(est.area_overhead()),
            pct(est.power_overhead()),
        ]);
    }
    t
}

/// The benchmarks [`abl_design_choices`] averages over: a subset spanning
/// the suite's pattern classes.
const DESIGN_BENCHES: [BenchmarkId; 6] = [
    BenchmarkId::Spmv,
    BenchmarkId::Pr,
    BenchmarkId::Mm,
    BenchmarkId::Fir,
    BenchmarkId::Bt,
    BenchmarkId::Relu,
];

/// Extension ablation of HDPAT's design knobs beyond Fig 15: rotation
/// (§IV-E), the number of concentric caching layers `C` (§IV-C), the
/// selective-push threshold and PW-queue revisit (§IV-F). Each row is the
/// geometric-mean speedup over the baseline across SPMV, PR, MM, FIR, BT
/// and RELU.
pub fn abl_design_choices(ctx: &SweepCtx, scale: Scale) -> Table {
    let base = HdpatConfig::paper_default();
    let mut variants = vec![
        ("rotation on (default)".to_string(), base),
        (
            "rotation off".to_string(),
            HdpatConfig {
                rotation: false,
                ..base
            },
        ),
    ];
    variants.extend((1..=3).map(|c| {
        let cfg = HdpatConfig {
            caching_layers: c,
            ..base
        };
        (format!("C = {c} caching layers"), cfg)
    }));
    variants.extend([1, 2, 4, 8].map(|thr| {
        let cfg = HdpatConfig {
            push_threshold: thr,
            ..base
        };
        (format!("push threshold = {thr}"), cfg)
    }));
    variants.push(("revisit on (default)".to_string(), base));
    variants.push((
        "revisit off".to_string(),
        HdpatConfig {
            queue_revisit: false,
            ..base
        },
    ));
    // The baselines first, then one run per (variant, benchmark), all in
    // one batch; the run cache folds the variants equal to the default.
    let mut points: Vec<RunConfig> = DESIGN_BENCHES
        .map(|b| RunConfig::new(b, scale, PolicyKind::Naive))
        .to_vec();
    for (_, cfg) in &variants {
        points.extend(DESIGN_BENCHES.map(|b| RunConfig::new(b, scale, PolicyKind::Hdpat(*cfg))));
    }
    let results = ctx.sweep(&points);
    let (bases, runs) = results.split_at(DESIGN_BENCHES.len());
    let mut t = Table::new(vec!["variant", "gmean-speedup"]);
    for ((name, _), chunk) in variants.iter().zip(runs.chunks(DESIGN_BENCHES.len())) {
        let speeds: Vec<f64> = chunk
            .iter()
            .zip(bases)
            .map(|(m, base)| m.speedup_vs(base))
            .collect();
        t.row(vec![name.clone(), gmean_cell(&speeds)]);
    }
    t
}

/// The benchmarks [`abl_migration`] runs.
const MIGRATION_BENCHES: [BenchmarkId; 6] = [
    BenchmarkId::Spmv,
    BenchmarkId::Pr,
    BenchmarkId::Mm,
    BenchmarkId::Fir,
    BenchmarkId::Relu,
    BenchmarkId::Km,
];

/// Extension study: streak-based page migration (the paper's named
/// future-work direction, [`MigrationConfig`]) composed with the baseline
/// and with HDPAT, normalized to the plain baseline, plus the pages HDPAT
/// with migration moved.
pub fn abl_migration(ctx: &SweepCtx, scale: Scale) -> Table {
    let mig = MigrationConfig::default_streak();
    let points: Vec<RunConfig> = MIGRATION_BENCHES
        .into_iter()
        .flat_map(|b| {
            let base = RunConfig::new(b, scale, PolicyKind::Naive);
            let hd = RunConfig::new(b, scale, PolicyKind::hdpat());
            [
                base.clone(),
                base.with_migration(mig),
                hd.clone(),
                hd.with_migration(mig),
            ]
        })
        .collect();
    let results = ctx.sweep(&points);
    let mut t = Table::new(vec![
        "bench",
        "baseline+migration",
        "HDPAT",
        "HDPAT+migration",
        "pages-migrated",
    ]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (b, chunk) in MIGRATION_BENCHES.into_iter().zip(results.chunks(4)) {
        let mut row = vec![b.to_string()];
        for (col, m) in cols.iter_mut().zip(&chunk[1..]) {
            let s = m.speedup_vs(&chunk[0]);
            col.push(s);
            row.push(ratio(s));
        }
        row.push(chunk[3].pages_migrated.to_string());
        t.row(row);
    }
    let mut gm = vec!["GMEAN".to_string()];
    gm.extend(cols.iter().map(|c| gmean_cell(c)));
    gm.push(String::new());
    t.row(gm);
    t
}

/// A figure or table regenerator bound to its sweep context and scale.
pub type Figure<'a> = Box<dyn Fn() -> Table + 'a>;

/// Every paper figure and table, then the two extension ablations, by name
/// in `hdpat-sim figure all` order. This is the one way to produce a figure:
/// the CLI, the EXPERIMENTS.md blocks and the golden table digests all read
/// it. An entry runs its sweep only when called.
pub fn all(ctx: &SweepCtx, scale: Scale) -> Vec<(&'static str, Figure<'_>)> {
    vec![
        ("fig02", Box::new(move || fig02_headroom(ctx, scale))),
        (
            "fig03",
            Box::new(move || fig03_latency_breakdown(ctx, scale)),
        ),
        ("fig04", Box::new(move || fig04_buffer_pressure(ctx, scale))),
        (
            "fig05",
            Box::new(move || fig05_position_imbalance(ctx, scale)),
        ),
        (
            "fig06",
            Box::new(move || fig06_translation_counts(ctx, scale)),
        ),
        ("fig07", Box::new(move || fig07_reuse_distance(ctx, scale))),
        (
            "fig08",
            Box::new(move || fig08_spatial_locality(ctx, scale)),
        ),
        ("fig13", Box::new(move || fig13_size_invariance(ctx))),
        ("fig14", Box::new(move || fig14_overall(ctx, scale))),
        ("fig15", Box::new(move || fig15_ablation(ctx, scale))),
        ("fig16", Box::new(move || fig16_breakdown(ctx, scale))),
        ("fig17", Box::new(move || fig17_response_time(ctx, scale))),
        (
            "fig18",
            Box::new(move || fig18_prefetch_granularity(ctx, scale)),
        ),
        ("fig19", Box::new(move || fig19_redir_vs_tlb(ctx, scale))),
        ("fig20", Box::new(move || fig20_page_size(ctx, scale))),
        ("fig21", Box::new(move || fig21_gpu_presets(ctx, scale))),
        ("fig22", Box::new(move || fig22_wafer_7x12(ctx, scale))),
        ("tab1", Box::new(tab1_config)),
        ("tab2", Box::new(tab2_workloads)),
        ("tab3", Box::new(tab3_area_power)),
        (
            "abl_design_choices",
            Box::new(move || abl_design_choices(ctx, scale)),
        ),
        ("abl_migration", Box::new(move || abl_migration(ctx, scale))),
    ]
}

//! Ablation sweep: run every benchmark under every translation policy and
//! print the speedup matrix (the combined content of Figs 14 and 15).
//!
//! ```text
//! cargo run --release --example ablation_sweep            # Bench scale
//! WSG_SCALE=unit cargo run --release --example ablation_sweep
//! WSG_JOBS=4 cargo run --release --example ablation_sweep # 4 sweep workers
//! ```

use hdpat_wafer::prelude::*;
use hdpat_wafer::sim::stats::geo_mean;
use std::time::Instant;

fn main() {
    let scale = match std::env::var("WSG_SCALE").as_deref() {
        Ok("unit") => Scale::Unit,
        _ => Scale::Bench,
    };
    let ctx = match std::env::var("WSG_JOBS").ok().and_then(|j| j.parse().ok()) {
        Some(jobs) => SweepCtx::new(jobs),
        None => SweepCtx::auto(),
    };
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("route", PolicyKind::RouteCache { caching_layers: 2 }),
        ("conc", PolicyKind::Concentric { caching_layers: 2 }),
        ("dist", PolicyKind::Distributed),
        ("clust", PolicyKind::Hdpat(HdpatConfig::peer_caching_only())),
        (
            "redir",
            PolicyKind::Hdpat(HdpatConfig::with_redirection_only()),
        ),
        ("pref", PolicyKind::Hdpat(HdpatConfig::with_prefetch_only())),
        ("hdpat", PolicyKind::hdpat()),
        ("transfw", PolicyKind::TransFw),
        ("valk", PolicyKind::Valkyrie),
        ("barre", PolicyKind::Barre),
    ];

    #[expect(
        clippy::disallowed_methods,
        reason = "host-side progress timing only; never feeds the model"
    )]
    let t0 = Instant::now();
    // One batched sweep: per benchmark, the Naive baseline followed by every
    // policy variant. Results come back in input order regardless of worker
    // count, so the printed matrix is byte-identical for any WSG_JOBS.
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

    print!("{:6}", "bench");
    for (n, _) in &policies {
        print!(" {n:>8}");
    }
    println!();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let stride = policies.len() + 1;
    for (b, row) in BenchmarkId::all().into_iter().zip(results.chunks(stride)) {
        let base = &row[0];
        print!("{:6}", b.to_string());
        for (i, m) in row[1..].iter().enumerate() {
            let s = m.speedup_vs(base);
            cols[i].push(s);
            print!(" {s:>8.2}");
        }
        println!();
    }
    print!("{:6}", "GMEAN");
    for c in &cols {
        print!(" {:>8.2}", geo_mean(c).expect("speedups are positive"));
    }
    let (hits, misses) = ctx.cache_stats();
    println!(
        "\n\ncompleted in {:.1?} ({misses} simulations, {hits} cache hits, {} workers)",
        t0.elapsed(),
        ctx.jobs()
    );
}

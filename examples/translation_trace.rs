//! Translation-behaviour deep dive for one benchmark: IOMMU latency
//! breakdown (Fig 3), buffer pressure (Fig 4), per-GPM position imbalance
//! (Fig 5), reuse statistics (Figs 6-7), and spatial locality (Fig 8).
//!
//! ```text
//! cargo run --release --example translation_trace [BENCH]
//! ```
//!
//! `BENCH` is a Table II abbreviation (default SPMV).

use hdpat_wafer::prelude::*;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "SPMV".into());
    let benchmark = BenchmarkId::from_abbr(&arg).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{arg}`; expected a Table II abbreviation");
        std::process::exit(2);
    });

    println!("== {benchmark}: baseline translation behaviour ==\n");
    let m = run(&RunConfig::new(benchmark, Scale::Bench, PolicyKind::Naive));

    println!(
        "execution: {} cycles, {} memory ops",
        m.total_cycles, m.ops_completed
    );
    println!(
        "translations: {} local, {} remote primaries (+{} coalesced)",
        m.local_translations, m.remote_requests, m.remote_coalesced
    );
    println!("cuckoo false positives: {}\n", m.cuckoo_false_positives);

    println!("IOMMU latency breakdown (Fig 3): {}", m.iommu_latency);
    println!(
        "IOMMU buffer pressure (Fig 4): peak {} queued requests",
        m.iommu_buffer.peak()
    );

    // Fig 5: execution time by ring.
    let layout = WaferLayout::paper_7x7();
    println!("\nGPM finish time by ring (Fig 5):");
    for ring in 1..=layout.max_layer() {
        let ids = layout.ring_gpms(ring);
        let mean: u64 =
            ids.iter().map(|&id| m.gpm_finish[id as usize]).sum::<u64>() / ids.len() as u64;
        println!(
            "  ring {ring}: mean finish {mean} cycles ({} GPMs)",
            ids.len()
        );
    }

    // Figs 6-7: translation reuse at the IOMMU.
    let counts = m.translation_count_histogram();
    println!("\nper-VPN IOMMU translation counts (Fig 6):");
    println!("  distinct pages: {}", counts.count());
    println!(
        "  translated more than once: {:.1}%",
        counts.fraction_above_one() * 100.0
    );
    let reuse = m.iommu_reuse.reuse_histogram();
    println!(
        "  reuse distances (Fig 7): {} repeats, mean {:.0}, max {}",
        reuse.count(),
        reuse.mean(),
        reuse.max()
    );

    // Fig 8: spatial locality.
    println!("\nconsecutive-request VPN distance (Fig 8):");
    for d in [1u64, 2, 4, 8] {
        println!(
            "  within {d} page(s): {:.1}%",
            m.vpn_delta.fraction_at_most(d) * 100.0
        );
    }

    println!("\n== with HDPAT ==\n");
    let hd = run(&RunConfig::new(
        benchmark,
        Scale::Bench,
        PolicyKind::hdpat(),
    ));
    println!(
        "execution: {} cycles ({:.2}x)",
        hd.total_cycles,
        hd.speedup_vs(&m)
    );
    println!("resolution (Fig 16): {}", hd.resolution);
    println!(
        "round-trip time (Fig 17): {:.0} -> {:.0} cycles ({:.0}% saved)",
        m.remote_rtt.mean(),
        hd.remote_rtt.mean(),
        (1.0 - hd.remote_rtt.mean() / m.remote_rtt.mean().max(1.0)) * 100.0
    );
    println!(
        "extra NoC traffic: {:.2}%",
        (hd.noc_bytes as f64 / m.noc_bytes.max(1) as f64 - 1.0) * 100.0
    );
}

//! Cross-cutting checks that each benchmark generator reproduces the
//! pattern class Table II / §V-A assigns to it. These are the properties
//! the simulator results depend on, tested directly on the traces.

use std::collections::{BTreeMap, BTreeSet};
use wsg_gpu::AddressSpace;
use wsg_workloads::{generate, BenchmarkId, Scale};
use wsg_xlat::PageSize;

struct TraceStats {
    ops: u64,
    distinct_pages: usize,
    /// Fraction of ops whose page differs from the previous op's page.
    page_switch_rate: f64,
    /// Max times any single page is touched across the whole trace.
    hottest_page_touches: u64,
    /// Fraction of ops touching pages outside the workgroup's own
    /// block-partition chunk (remote under aligned dispatch).
    cross_chunk: f64,
}

fn stats(id: BenchmarkId) -> TraceStats {
    let gpms = 48u32;
    let mut space = AddressSpace::new(PageSize::Size4K, gpms);
    let wgs = generate(id, Scale::Unit, &mut space, 42);
    let ps = space.page_size();
    let mut ops = 0u64;
    let mut switches = 0u64;
    let mut pages: BTreeMap<u64, u64> = BTreeMap::new();
    let mut cross = 0u64;
    let n = wgs.len() as u64;
    for (i, wg) in wgs.iter().enumerate() {
        let mut last: Option<u64> = None;
        for op in &wg.ops {
            ops += 1;
            let vpn = ps.vpn_of(op.vaddr);
            *pages.entry(vpn.0).or_insert(0) += 1;
            if last.is_some_and(|l| l != vpn.0) {
                switches += 1;
            }
            last = Some(vpn.0);
            // "Own" region: does the page belong to a buffer chunk this
            // workgroup's index maps to (wg i of n ↔ fraction i/n of the
            // buffer)?
            if let Some(buf) = space.buffer_of(vpn) {
                let offset = vpn.0 - buf.base_vpn.0;
                let own_lo = (i as u64) * buf.pages / n;
                let own_hi = ((i as u64 + 1) * buf.pages / n).max(own_lo + 1) + 1;
                if offset < own_lo.saturating_sub(1) || offset > own_hi {
                    cross += 1;
                }
            }
        }
    }
    TraceStats {
        ops,
        distinct_pages: pages.len(),
        page_switch_rate: switches as f64 / ops.max(1) as f64,
        hottest_page_touches: pages.values().copied().max().unwrap_or(0),
        cross_chunk: cross as f64 / ops.max(1) as f64,
    }
}

#[test]
fn gathers_cross_chunks_more_than_streams() {
    // PR/SPMV/FWS gather from shared structures; AES/RELU stream their own
    // partition. Every gather benchmark must reach across chunks more than
    // every streaming benchmark does.
    let gather_min = [BenchmarkId::Pr, BenchmarkId::Spmv, BenchmarkId::Fws]
        .into_iter()
        .map(|id| stats(id).cross_chunk)
        .fold(f64::MAX, f64::min);
    let stream_max = [BenchmarkId::Aes, BenchmarkId::Relu]
        .into_iter()
        .map(|id| stats(id).cross_chunk)
        .fold(0.0, f64::max);
    assert!(
        gather_min > stream_max,
        "gather min {gather_min:.2} must exceed streaming max {stream_max:.2}"
    );
    assert!(
        gather_min > 0.10,
        "gathers must leave their chunk: {gather_min:.2}"
    );
}

#[test]
fn hot_structures_concentrate_touches() {
    // The hot shared pages (keys, centroids, pivot rows, ranks) must attract
    // orders of magnitude more touches than a streaming page.
    for (id, floor) in [
        (BenchmarkId::Aes, 200),
        (BenchmarkId::Km, 200),
        (BenchmarkId::Fws, 200),
        (BenchmarkId::Pr, 200),
    ] {
        let s = stats(id);
        assert!(
            s.hottest_page_touches > floor,
            "{id}: hottest page only {} touches",
            s.hottest_page_touches
        );
    }
}

#[test]
fn streaming_benchmarks_have_no_hot_data_page() {
    // RELU's hottest page is bounded: pure streaming never concentrates.
    let s = stats(BenchmarkId::Relu);
    let mean = s.ops as f64 / s.distinct_pages.max(1) as f64;
    assert!(
        (s.hottest_page_touches as f64) < 8.0 * mean,
        "RELU hottest {} vs mean {:.0}",
        s.hottest_page_touches,
        mean
    );
}

#[test]
fn butterfly_benchmarks_switch_pages_constantly() {
    // Partner exchanges alternate between distant lines.
    for id in [BenchmarkId::Bt, BenchmarkId::Fwt, BenchmarkId::Fft] {
        let s = stats(id);
        assert!(
            s.page_switch_rate > 0.2,
            "{id}: switch rate {:.2}",
            s.page_switch_rate
        );
    }
}

#[test]
fn footprints_scale_with_config() {
    // Bench-scale traces must touch more distinct pages than Unit-scale.
    for id in [BenchmarkId::Mt, BenchmarkId::Relu, BenchmarkId::Spmv] {
        let mut su = AddressSpace::new(PageSize::Size4K, 48);
        let mut sb = AddressSpace::new(PageSize::Size4K, 48);
        let unit: BTreeSet<u64> = generate(id, Scale::Unit, &mut su, 1)
            .iter()
            .flat_map(|w| w.ops.iter())
            .map(|o| PageSize::Size4K.vpn_of(o.vaddr).0)
            .collect();
        let bench: BTreeSet<u64> = generate(id, Scale::Bench, &mut sb, 1)
            .iter()
            .flat_map(|w| w.ops.iter())
            .map(|o| PageSize::Size4K.vpn_of(o.vaddr).0)
            .collect();
        assert!(
            bench.len() > 2 * unit.len(),
            "{id}: bench pages {} vs unit pages {}",
            bench.len(),
            unit.len()
        );
    }
}

#[test]
fn page_size_changes_vpns_not_bytes() {
    // The same benchmark under 64K pages touches ~16x fewer distinct pages.
    let mut s4 = AddressSpace::new(PageSize::Size4K, 48);
    let mut s64 = AddressSpace::new(PageSize::Size64K, 48);
    let t4 = generate(BenchmarkId::Relu, Scale::Unit, &mut s4, 1);
    let t64 = generate(BenchmarkId::Relu, Scale::Unit, &mut s64, 1);
    let pages = |t: &[wsg_gpu::WorkgroupTrace], ps: PageSize| -> usize {
        t.iter()
            .flat_map(|w| w.ops.iter())
            .map(|o| ps.vpn_of(o.vaddr).0)
            .collect::<BTreeSet<_>>()
            .len()
    };
    let p4 = pages(&t4, PageSize::Size4K);
    let p64 = pages(&t64, PageSize::Size64K);
    assert!(p64 * 4 < p4, "4K pages {p4} vs 64K pages {p64}");
}

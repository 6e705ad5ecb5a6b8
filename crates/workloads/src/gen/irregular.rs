//! Irregular-family generators: KM, PR, SPMV.

use wsg_gpu::{AddressSpace, MemoryOp, WorkgroupTrace};
use wsg_sim::rng::Zipf;
use wsg_sim::SimRng;

use crate::catalog::WorkloadConfig;

use super::{alloc_bytes, at, count_mod, wg_block, LINE};

/// KM (KMeans): every workgroup streams its own points and re-reads the
/// small centroid table on each step, across several iterations. The hot
/// centroid pages plus the small-stride iterative sweep give KM its strong
/// prefetching gain (Fig 18 discussion).
pub fn km(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let centroid_bytes = 64 * 1024;
    let points = alloc_bytes(
        space,
        "km_points",
        cfg.footprint_bytes
            .saturating_sub(2 * centroid_bytes)
            .max(centroid_bytes),
    );
    let centroids = alloc_bytes(space, "km_centroids", centroid_bytes);
    let assign = alloc_bytes(space, "km_assign", cfg.footprint_bytes / 16);
    let per_iter = (cfg.ops_per_wg as u64 / (3 * cfg.iterations.max(1) as u64)).max(1);
    let per_wg =
        cfg.iterations as usize * (2 * per_iter as usize + count_mod(per_iter as usize, 4, 3));
    (0..cfg.workgroups)
        .map(|wg| {
            let (start, _) = wg_block(space, &points, wg, cfg.workgroups);
            let (assign_start, _) = wg_block(space, &assign, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(per_wg);
            for it in 0..cfg.iterations as u64 {
                for i in 0..per_iter {
                    ops.push(MemoryOp::read(at(space, &points, start + i * LINE), 20));
                    // Cycle through the centroid lines: all WGs share them.
                    ops.push(MemoryOp::read(
                        at(space, &centroids, ((it * per_iter + i) % 16) * LINE),
                        20,
                    ));
                    if i % 4 == 3 {
                        ops.push(MemoryOp::write(at(space, &assign, assign_start), 10));
                    }
                }
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// PR (PageRank): streams the edge list while gathering ranks of destination
/// nodes drawn from a power-law (Zipf) distribution — a few rank pages are
/// requested constantly by every GPM. This is the benchmark where peer
/// caching contributes most (65 % of translations, Fig 16) and where HDPAT's
/// speedup peaks (up to 5× in Fig 18).
pub fn pr(cfg: &WorkloadConfig, space: &mut AddressSpace, rng: &mut SimRng) -> Vec<WorkgroupTrace> {
    let ranks = alloc_bytes(space, "pr_ranks", cfg.footprint_bytes / 4);
    let edges = alloc_bytes(space, "pr_edges", cfg.footprint_bytes * 3 / 4);
    let ps = space.page_size();
    let rank_lines = ranks.len_bytes(ps) / LINE;
    let per_iter = (cfg.ops_per_wg as u64 / (2 * cfg.iterations.max(1) as u64)).max(1);
    let per_wg = cfg.iterations as usize * (2 * per_iter as usize + 1);
    let zipf = Zipf::new(rank_lines.max(1), 0.9);
    (0..cfg.workgroups)
        .map(|wg| {
            let (start, _) = wg_block(space, &edges, wg, cfg.workgroups);
            let mut wg_rng = rng.derive(wg);
            let mut ops = Vec::with_capacity(per_wg);
            for it in 0..cfg.iterations as u64 {
                for i in 0..per_iter {
                    // Stream the edge list (own, mostly local partition).
                    ops.push(MemoryOp::read(
                        at(space, &edges, start + (it * per_iter + i) * LINE),
                        10,
                    ));
                    // Gather the destination rank: Zipf over rank lines.
                    let hot = zipf.sample(&mut wg_rng);
                    ops.push(MemoryOp::read(at(space, &ranks, hot * LINE), 15));
                }
                // Write back own rank once per iteration.
                ops.push(MemoryOp::write(
                    at(space, &ranks, (wg * LINE) % ranks.len_bytes(ps)),
                    10,
                ));
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// SPMV: streams matrix values and column indices while gathering the dense
/// x-vector at irregular positions. The massive, hard-to-filter remote
/// gather traffic is what makes SPMV the paper's IOMMU-stress showcase
/// (Figs 3, 4).
pub fn spmv(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let vals = alloc_bytes(space, "spmv_vals", cfg.footprint_bytes / 2);
    let colidx = alloc_bytes(space, "spmv_colidx", cfg.footprint_bytes / 4);
    let x = alloc_bytes(space, "spmv_x", cfg.footprint_bytes / 8);
    let y = alloc_bytes(space, "spmv_y", cfg.footprint_bytes / 8);
    let ps = space.page_size();
    let x_lines = x.len_bytes(ps) / LINE;
    let rows = (cfg.ops_per_wg as u64 / 4).max(1);
    let per_wg = 3 * rows as usize + count_mod(rows as usize, 4, 3);
    (0..cfg.workgroups)
        .map(|wg| {
            let (vstart, _) = wg_block(space, &vals, wg, cfg.workgroups);
            let (cstart, _) = wg_block(space, &colidx, wg, cfg.workgroups);
            let (ystart, _) = wg_block(space, &y, wg, cfg.workgroups);
            let mut wg_rng = rng.derive(wg);
            let mut ops = Vec::with_capacity(per_wg);
            for r in 0..rows {
                ops.push(MemoryOp::read(at(space, &vals, vstart + r * LINE), 10));
                ops.push(MemoryOp::read(at(space, &colidx, cstart + r * LINE), 10));
                // Irregular gather: uniform over the whole x vector.
                let gather = wg_rng.gen_range(0..x_lines.max(1));
                ops.push(MemoryOp::read(at(space, &x, gather * LINE), 10));
                if r % 4 == 3 {
                    ops.push(MemoryOp::write(at(space, &y, ystart + (r / 4) * LINE), 10));
                }
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{BenchmarkId, Scale};
    use std::collections::BTreeMap;
    use wsg_xlat::PageSize;

    fn setup(id: BenchmarkId) -> (WorkloadConfig, AddressSpace, SimRng) {
        (
            id.config(Scale::Unit),
            AddressSpace::new(PageSize::Size4K, 48),
            SimRng::seeded(1),
        )
    }

    #[test]
    fn km_centroid_pages_are_hot() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Km);
        let wgs = km(&cfg, &mut space, &mut rng);
        let cent = space.buffers().find(|b| b.name == "km_centroids").unwrap();
        let ps = space.page_size();
        let cent_reads: usize = wgs
            .iter()
            .flat_map(|w| &w.ops)
            .filter(|o| cent.contains(ps.vpn_of(o.vaddr)))
            .count();
        assert!(cent_reads as u64 >= cfg.workgroups * 2);
    }

    #[test]
    fn pr_gathers_concentrate_on_hot_pages() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Pr);
        let wgs = pr(&cfg, &mut space, &mut rng);
        let ranks = space.buffers().find(|b| b.name == "pr_ranks").unwrap();
        let ps = space.page_size();
        let mut page_counts: BTreeMap<u64, u64> = BTreeMap::new();
        for op in wgs.iter().flat_map(|w| &w.ops) {
            let vpn = ps.vpn_of(op.vaddr);
            if op.is_read && ranks.contains(vpn) {
                *page_counts.entry(vpn.0).or_insert(0) += 1;
            }
        }
        let total: u64 = page_counts.values().sum();
        let max = *page_counts.values().max().unwrap();
        // Zipf concentration: the hottest page gets far more than its
        // uniform share.
        let uniform_share = total / page_counts.len().max(1) as u64;
        assert!(
            max > 3 * uniform_share.max(1),
            "hot page {max} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn spmv_gathers_spread_over_x() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Spmv);
        let wgs = spmv(&cfg, &mut space, &mut rng);
        let x = space.buffers().find(|b| b.name == "spmv_x").unwrap();
        let ps = space.page_size();
        let pages: std::collections::BTreeSet<u64> = wgs
            .iter()
            .flat_map(|w| &w.ops)
            .filter(|o| x.contains(ps.vpn_of(o.vaddr)))
            .map(|o| ps.vpn_of(o.vaddr).0)
            .collect();
        assert!(
            pages.len() as u64 >= x.pages / 2,
            "gathers cover most of x ({} of {})",
            pages.len(),
            x.pages
        );
    }

    #[test]
    fn spmv_streams_values_sequentially() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Spmv);
        let wgs = spmv(&cfg, &mut space, &mut rng);
        let vals = space.buffers().find(|b| b.name == "spmv_vals").unwrap();
        let ps = space.page_size();
        let reads: Vec<u64> = wgs[0]
            .ops
            .iter()
            .filter(|o| vals.contains(ps.vpn_of(o.vaddr)))
            .map(|o| o.vaddr)
            .collect();
        assert!(reads.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn per_wg_rngs_differ() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Spmv);
        let wgs = spmv(&cfg, &mut space, &mut rng);
        assert_ne!(wgs[0], wgs[1], "different WGs gather differently");
    }
}

//! Matrix-family generators: MM, MT, FWS.

use wsg_gpu::{AddressSpace, MemoryOp, WorkgroupTrace};
use wsg_sim::SimRng;

use crate::catalog::WorkloadConfig;

use super::{alloc_bytes, at, count_mod, wg_block, LINE};

/// MM (matrix multiplication): workgroup `(r, c)` of a square grid reads row
/// block `r` of A (shared with every workgroup in row `r`), gathers column
/// `c` of B with a row-pitch stride (touching many pages), and writes its C
/// tile. Row/column sharing produces the strided reuse the paper attributes
/// to MM (observation O4, Fig 18 gains).
pub fn mm(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let third = cfg.footprint_bytes * 3 / 8;
    let a = alloc_bytes(space, "mm_a", third);
    let b = alloc_bytes(space, "mm_b", third);
    let c = alloc_bytes(space, "mm_c", cfg.footprint_bytes / 4);
    #[expect(
        clippy::cast_sign_loss,
        reason = "the square root of a workgroup count is non-negative"
    )]
    let grid = (cfg.workgroups as f64).sqrt().ceil() as u64;
    let ps = space.page_size();
    let row_pitch = (a.len_bytes(ps) / grid.max(1)).max(LINE) & !(LINE - 1);
    let k_steps = (cfg.ops_per_wg as u64 / 3).max(1);
    let per_wg = 2 * k_steps as usize + count_mod(k_steps as usize, 4, 3);
    (0..cfg.workgroups)
        .map(|wg| {
            let (r, col) = (wg / grid, wg % grid);
            let mut ops = Vec::with_capacity(per_wg);
            for k in 0..k_steps {
                // A row r, element k: sequential within the shared row.
                ops.push(MemoryOp::read(at(space, &a, r * row_pitch + k * LINE), 20));
                // B column c, element k: stride = row pitch (page-crossing).
                ops.push(MemoryOp::read(
                    at(space, &b, k * row_pitch + col * LINE),
                    20,
                ));
                if k % 4 == 3 {
                    ops.push(MemoryOp::write(
                        at(space, &c, r * row_pitch / 2 + col * LINE),
                        10,
                    ));
                }
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// MT (matrix transpose): reads its rows sequentially, writes the transpose
/// with a full-row pitch between consecutive elements. Consecutive writes
/// land on different far-apart pages and each output page is revisited only
/// after a whole row sweep — the long-reuse-distance behaviour that defeats
/// caching (the paper's explanation for MT's limited gain).
pub fn mt(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let half = cfg.footprint_bytes / 2;
    let input = alloc_bytes(space, "mt_in", half);
    let output = alloc_bytes(space, "mt_out", half);
    let ps = space.page_size();
    // Output pitch of one matrix row: many pages, so consecutive transposed
    // writes are page-distant.
    let pitch = (output.len_bytes(ps) / 64).max(ps.bytes()) & !(LINE - 1);
    (0..cfg.workgroups)
        .map(|wg| {
            let (start, _) = wg_block(space, &input, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(cfg.ops_per_wg / 2 * 2);
            for i in 0..cfg.ops_per_wg as u64 / 2 {
                ops.push(MemoryOp::read(at(space, &input, start + i * LINE), 15));
                // Transposed write: column-major target.
                ops.push(MemoryOp::write(
                    at(space, &output, i * pitch + start / 64),
                    15,
                ));
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// FWS (Floyd-Warshall): each outer iteration `k` makes every workgroup read
/// the shared pivot row `k` before updating its own row block. The pivot
/// pages are simultaneously hot on all GPMs — the strongest cross-GPM
/// temporal sharing in the suite, which is what concentric caching and the
/// redirection table exploit.
pub fn fws(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let dist = alloc_bytes(space, "fws_dist", cfg.footprint_bytes);
    let ps = space.page_size();
    let n_rows = 64u64;
    let row_pitch = (dist.len_bytes(ps) / n_rows).max(LINE) & !(LINE - 1);
    let per_iter = (cfg.ops_per_wg as u64 / (3 * cfg.iterations.max(1) as u64)).max(1);
    (0..cfg.workgroups)
        .map(|wg| {
            let (own_start, _) = wg_block(space, &dist, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(cfg.iterations as usize * 3 * per_iter as usize);
            for k in 0..cfg.iterations as u64 {
                let pivot_row = (k * 17) % n_rows; // deterministic pivot schedule
                for i in 0..per_iter {
                    // Shared pivot row element (hot page for every WG).
                    ops.push(MemoryOp::read(
                        at(space, &dist, pivot_row * row_pitch + i * LINE),
                        20,
                    ));
                    // Own row element.
                    ops.push(MemoryOp::read(at(space, &dist, own_start + i * LINE), 10));
                    ops.push(MemoryOp::write(at(space, &dist, own_start + i * LINE), 10));
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
    use wsg_xlat::PageSize;

    fn setup(id: BenchmarkId) -> (WorkloadConfig, AddressSpace, SimRng) {
        (
            id.config(Scale::Unit),
            AddressSpace::new(PageSize::Size4K, 48),
            SimRng::seeded(1),
        )
    }

    #[test]
    fn mm_shares_a_rows_within_grid_row() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Mm);
        let wgs = mm(&cfg, &mut space, &mut rng);
        let a = space.buffers().find(|b| b.name == "mm_a").unwrap();
        let ps = space.page_size();
        let a_reads = |wg: &WorkgroupTrace| -> Vec<u64> {
            wg.ops
                .iter()
                .filter(|o| a.contains(ps.vpn_of(o.vaddr)))
                .map(|o| o.vaddr)
                .collect()
        };
        // Workgroups 0 and 1 are in the same grid row: identical A reads.
        assert_eq!(a_reads(&wgs[0]), a_reads(&wgs[1]));
    }

    #[test]
    fn mt_writes_are_page_distant() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Mt);
        let wgs = mt(&cfg, &mut space, &mut rng);
        let ps = space.page_size();
        let writes: Vec<u64> = wgs[0]
            .ops
            .iter()
            .filter(|o| !o.is_read)
            .map(|o| ps.vpn_of(o.vaddr).0)
            .collect();
        let distant = writes
            .windows(2)
            .filter(|w| w[0].abs_diff(w[1]) >= 1)
            .count();
        assert!(
            distant * 2 >= writes.len(),
            "transposed writes mostly change pages"
        );
    }

    #[test]
    fn mt_reads_are_sequential() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Mt);
        let wgs = mt(&cfg, &mut space, &mut rng);
        let reads: Vec<u64> = wgs[0]
            .ops
            .iter()
            .filter(|o| o.is_read)
            .map(|o| o.vaddr)
            .collect();
        assert!(reads.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn fws_pivot_pages_shared_by_all_workgroups() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Fws);
        let wgs = fws(&cfg, &mut space, &mut rng);
        let ps = space.page_size();
        // The first op of every workgroup in iteration 0 hits the same pivot page.
        let first_vpns: Vec<u64> = wgs.iter().map(|w| ps.vpn_of(w.ops[0].vaddr).0).collect();
        let all_same = first_vpns.iter().all(|&v| v == first_vpns[0]);
        assert!(all_same, "pivot row is globally shared");
    }

    #[test]
    fn fws_iterates_over_multiple_pivots() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Fws);
        assert!(cfg.iterations >= 2);
        let wgs = fws(&cfg, &mut space, &mut rng);
        let ps = space.page_size();
        let pivot_vpns: std::collections::BTreeSet<u64> = wgs[0]
            .ops
            .iter()
            .step_by(3) // pivot reads are every third op
            .map(|o| ps.vpn_of(o.vaddr).0)
            .collect();
        assert!(
            pivot_vpns.len() >= 2,
            "different iterations, different pivots"
        );
    }
}

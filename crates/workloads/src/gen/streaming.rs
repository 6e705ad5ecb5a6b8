//! Streaming-family generators: AES, RELU, FIR, SC, I2C.

use wsg_gpu::{AddressSpace, MemoryOp, WorkgroupTrace};
use wsg_sim::SimRng;

use crate::catalog::WorkloadConfig;

use super::{alloc_bytes, at, count_mod, ops_per_iter, wg_block, LINE};

/// AES: each workgroup encrypts its own contiguous block, re-reading the
/// expanded-key page constantly. Compute-bound (long gaps, §V-A calls it
/// "highly iterative … steady memory request issuing rate"); every data page
/// is touched once, so TLBs filter almost all repeats (observation O3's
/// single-translation class).
pub fn aes(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let half = cfg.footprint_bytes / 2;
    let input = alloc_bytes(space, "aes_input", half);
    let output = alloc_bytes(space, "aes_output", half);
    let key = alloc_bytes(space, "aes_key", 4096);
    let per_iter = ops_per_iter(cfg);
    let per_wg = cfg.iterations as usize
        * (per_iter + count_mod(per_iter, 4, 0) + count_mod(per_iter, 2, 1));
    (0..cfg.workgroups)
        .map(|wg| {
            let (start, chunk) = wg_block(space, &input, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(per_wg);
            for it in 0..cfg.iterations as u64 {
                for i in 0..per_iter as u64 {
                    let off = start + (it * per_iter as u64 + i) * LINE % chunk.max(LINE);
                    // Long gaps: AES rounds between memory touches.
                    ops.push(MemoryOp::read(at(space, &input, off), 24));
                    if i % 4 == 0 {
                        ops.push(MemoryOp::read(at(space, &key, (i / 4) * LINE), 4));
                    }
                    if i % 2 == 1 {
                        ops.push(MemoryOp::write(at(space, &output, off), 4));
                    }
                }
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// RELU: pure single-pass streaming over a huge footprint — read an
/// activation line, write it back clamped. Each page is translated exactly
/// once (the other single-translation benchmark of Fig 6).
pub fn relu(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let half = cfg.footprint_bytes / 2;
    let input = alloc_bytes(space, "relu_input", half);
    let output = alloc_bytes(space, "relu_output", half);
    (0..cfg.workgroups)
        .map(|wg| {
            let (start, chunk) = wg_block(space, &input, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(cfg.ops_per_wg / 2 * 2);
            for i in 0..cfg.ops_per_wg as u64 / 2 {
                let off = start + (i * LINE) % chunk.max(LINE);
                ops.push(MemoryOp::read(at(space, &input, off), 10));
                ops.push(MemoryOp::write(at(space, &output, off), 10));
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// FIR: sliding-window filter — each workgroup reads its signal block plus a
/// small overlap into the next block (the filter taps), iterating with a
/// small stride shift. The strongly sequential, small-stride pattern is why
/// FIR benefits most from proactive delivery (Fig 18 discussion).
pub fn fir(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let half = cfg.footprint_bytes / 2;
    let input = alloc_bytes(space, "fir_signal", half);
    let output = alloc_bytes(space, "fir_output", half);
    let coeff = alloc_bytes(space, "fir_coeff", 4096);
    let per_iter = ops_per_iter(cfg);
    let per_wg = cfg.iterations as usize
        * (per_iter + count_mod(per_iter, 8, 0) + count_mod(per_iter, 2, 0));
    (0..cfg.workgroups)
        .map(|wg| {
            let (start, chunk) = wg_block(space, &input, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(per_wg);
            for it in 0..cfg.iterations as u64 {
                // Each iteration shifts the window start by one line.
                let base = start + it * LINE;
                for i in 0..per_iter as u64 {
                    // Sequential march over the block, wrapping one line past
                    // its end (tap overlap with the neighbour's pages).
                    let off = base + (i * LINE) % (chunk + LINE);
                    ops.push(MemoryOp::read(at(space, &input, off), 30));
                    if i % 8 == 0 {
                        ops.push(MemoryOp::read(at(space, &coeff, 0), 10));
                    }
                    if i % 2 == 0 {
                        ops.push(MemoryOp::write(
                            at(space, &output, base + (i / 2) * LINE),
                            10,
                        ));
                    }
                }
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// SC (simple convolution): 2-D sliding window over an image with a hot
/// filter page; adjacent workgroups overlap on the image rows they read.
pub fn sc(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let image_bytes = cfg.footprint_bytes * 3 / 4;
    let image = alloc_bytes(space, "sc_image", image_bytes);
    let output = alloc_bytes(space, "sc_output", cfg.footprint_bytes / 4);
    let filter = alloc_bytes(space, "sc_filter", 4096);
    // Model the image as rows of 64 lines.
    let row_bytes = 64 * LINE;
    let steps = cfg.ops_per_wg * 2 / 3;
    let per_wg = 2 * steps + count_mod(steps, 4, 0) + count_mod(steps, 8, 7);
    (0..cfg.workgroups)
        .map(|wg| {
            let (start, _) = wg_block(space, &image, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(per_wg);
            for i in 0..steps as u64 {
                // Read a 3-row window column by column: same x, rows r-1..r+1.
                let col = (i % 8) * LINE;
                let row = (i / 8) % 4;
                ops.push(MemoryOp::read(
                    at(space, &image, start + row * row_bytes + col),
                    20,
                ));
                ops.push(MemoryOp::read(
                    at(space, &image, start + (row + 1) * row_bytes + col),
                    10,
                ));
                if i % 4 == 0 {
                    ops.push(MemoryOp::read(at(space, &filter, 0), 10));
                }
                if i % 8 == 7 {
                    ops.push(MemoryOp::write(
                        at(space, &output, start / 3 + row * LINE),
                        10,
                    ));
                }
            }
            WorkgroupTrace::new(ops)
        })
        .collect()
}

/// I2C (im2col): gathers overlapping convolution windows from the input
/// tensor and writes them out as sequential columns — overlapping reads,
/// streaming writes, strong spatial locality (one of the high bars of
/// Fig 8).
pub fn i2c(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let input = alloc_bytes(space, "i2c_input", cfg.footprint_bytes / 3);
    let output = alloc_bytes(space, "i2c_output", cfg.footprint_bytes * 2 / 3);
    (0..cfg.workgroups)
        .map(|wg| {
            let (in_start, _) = wg_block(space, &input, wg, cfg.workgroups);
            let (out_start, _) = wg_block(space, &output, wg, cfg.workgroups);
            let mut ops = Vec::with_capacity(cfg.ops_per_wg / 3 * 3);
            let (_, in_chunk) = wg_block(space, &input, wg, cfg.workgroups);
            for i in 0..cfg.ops_per_wg as u64 / 3 {
                // Window advances half a window per step: each line is read
                // by two consecutive window positions (overlap), wrapping
                // within the workgroup's chunk.
                let off = in_start + (i * LINE / 2) % (in_chunk + LINE);
                ops.push(MemoryOp::read(at(space, &input, off), 15));
                ops.push(MemoryOp::read(at(space, &input, off + LINE), 15));
                ops.push(MemoryOp::write(
                    at(space, &output, out_start + i * LINE),
                    10,
                ));
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
    fn aes_rereads_key_page() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Aes);
        let wgs = aes(&cfg, &mut space, &mut rng);
        let key_buf = space.buffers().find(|b| b.name == "aes_key").unwrap();
        let ps = space.page_size();
        let key_reads: usize = wgs
            .iter()
            .flat_map(|w| &w.ops)
            .filter(|op| key_buf.contains(ps.vpn_of(op.vaddr)))
            .count();
        assert!(key_reads as u64 >= cfg.workgroups, "key page is hot");
    }

    #[test]
    fn aes_has_long_gaps() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Aes);
        let wgs = aes(&cfg, &mut space, &mut rng);
        let max_gap = wgs
            .iter()
            .flat_map(|w| &w.ops)
            .map(|o| o.gap)
            .max()
            .unwrap();
        assert!(max_gap >= 20, "AES is compute-bound");
    }

    #[test]
    fn relu_touches_each_line_once() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Relu);
        let wgs = relu(&cfg, &mut space, &mut rng);
        // Within one workgroup, no address repeats (pure streaming).
        let wg = &wgs[0];
        let mut addrs: Vec<u64> = wg.ops.iter().map(|o| o.vaddr).collect();
        let before = addrs.len();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), before, "RELU never revisits a line");
    }

    #[test]
    fn fir_is_sequential_within_iteration() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Fir);
        let wgs = fir(&cfg, &mut space, &mut rng);
        let sig = space.buffers().find(|b| b.name == "fir_signal").unwrap();
        let ps = space.page_size();
        let reads: Vec<u64> = wgs[0]
            .ops
            .iter()
            .filter(|o| o.is_read && sig.contains(ps.vpn_of(o.vaddr)))
            .map(|o| o.vaddr)
            .collect();
        let increasing = reads.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(
            increasing * 10 >= reads.len() * 8,
            "FIR reads mostly ascend: {increasing}/{}",
            reads.len()
        );
    }

    #[test]
    fn sc_reads_filter_repeatedly() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Sc);
        let wgs = sc(&cfg, &mut space, &mut rng);
        let filter = space.buffers().find(|b| b.name == "sc_filter").unwrap();
        let ps = space.page_size();
        let filter_reads: usize = wgs
            .iter()
            .flat_map(|w| &w.ops)
            .filter(|o| filter.contains(ps.vpn_of(o.vaddr)))
            .count();
        assert!(filter_reads > wgs.len(), "filter page reused");
    }

    #[test]
    fn i2c_reads_overlap() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::I2c);
        let wgs = i2c(&cfg, &mut space, &mut rng);
        let input = space.buffers().find(|b| b.name == "i2c_input").unwrap();
        let ps = space.page_size();
        let reads: Vec<u64> = wgs[0]
            .ops
            .iter()
            .filter(|o| o.is_read && input.contains(ps.vpn_of(o.vaddr)))
            .map(|o| o.vaddr)
            .collect();
        let mut sorted = reads.clone();
        sorted.sort();
        sorted.dedup();
        assert!(
            sorted.len() < reads.len(),
            "overlapping windows re-read lines"
        );
    }
}

//! Butterfly-family generators: BT, FWT, FFT.
//!
//! All three kernels sweep one buffer in multiple passes; in pass `p` each
//! element exchanges with a partner `2^p` elements away. Early passes are
//! page-local; later passes reach across the wafer, and every pass touches
//! the same pages again — producing the repeated translations with widely
//! varying reuse distances the paper reports for BT and FWT (Fig 6/7).

use wsg_gpu::{AddressSpace, Buffer, MemoryOp, WorkgroupTrace};
use wsg_sim::SimRng;

use crate::catalog::WorkloadConfig;

use super::{alloc_bytes, at, wg_block, LINE};

/// Emits `passes` butterfly passes over `data` for workgroup `wg`. Each
/// step: read own line, read the XOR-partner line, then (with a `twiddle`
/// table) read the step's twiddle line, then write own line. Step `k`
/// (counted across passes) reads twiddle line `k`. The workgroup's op
/// budget is split evenly over the passes.
fn butterfly_passes(
    space: &AddressSpace,
    cfg: &WorkloadConfig,
    data: &Buffer,
    twiddle: Option<&Buffer>,
    wg: u64,
    passes: u32,
    gap: u64,
) -> WorkgroupTrace {
    let (start, chunk) = wg_block(space, data, wg, cfg.workgroups);
    let len = data.len_bytes(space.page_size()).next_power_of_two() / 2;
    let per_step = 3 + usize::from(twiddle.is_some());
    let ops_per_pass = (cfg.ops_per_wg / (per_step * passes as usize)).max(1);
    let mut ops = Vec::with_capacity(passes as usize * ops_per_pass * per_step);
    let mut step = 0;
    for p in 0..passes {
        let stride = LINE << (p * 2); // strides: 64 B, 256 B, 1 KB, 4 KB, 16 KB, ...
        for i in 0..ops_per_pass as u64 {
            let own = start + (i * LINE) % chunk.max(LINE);
            // XOR partner within the power-of-two span; wraps via `at`.
            let partner = (own ^ stride) % len.max(LINE);
            ops.push(MemoryOp::read(at(space, data, own), gap));
            ops.push(MemoryOp::read(at(space, data, partner), gap));
            if let Some(tw) = twiddle {
                ops.push(MemoryOp::read(at(space, tw, step * LINE), 10));
            }
            ops.push(MemoryOp::write(at(space, data, own), 10));
            step += 1;
        }
    }
    WorkgroupTrace::new(ops)
}

/// BT (bitonic sort): compare-exchange passes with growing power-of-two
/// strides. Its strong intra-GPM spatial locality lets the local GMMU absorb
/// most translations — the paper's explanation for BT's minimal HDPAT gain.
pub fn bt(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let data = alloc_bytes(space, "bt_data", cfg.footprint_bytes);
    (0..cfg.workgroups)
        .map(|wg| butterfly_passes(space, cfg, &data, None, wg, 4, 20))
        .collect()
}

/// FWT (fast Walsh transform): butterfly passes over a larger buffer with
/// more passes, so partners reach further and pages are revisited more often
/// (FWT shows clear repeat translations in Fig 6).
pub fn fwt(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let data = alloc_bytes(space, "fwt_data", cfg.footprint_bytes);
    (0..cfg.workgroups)
        .map(|wg| butterfly_passes(space, cfg, &data, None, wg, 6, 20))
        .collect()
}

/// FFT: butterfly passes plus a shared twiddle-factor table that every
/// workgroup re-reads — structured but dynamic, giving FFT its balanced
/// resolution breakdown in Fig 16.
pub fn fft(
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    _rng: &mut SimRng,
) -> Vec<WorkgroupTrace> {
    let data = alloc_bytes(space, "fft_data", cfg.footprint_bytes * 7 / 8);
    let twiddle = alloc_bytes(space, "fft_twiddle", cfg.footprint_bytes / 8);
    (0..cfg.workgroups)
        .map(|wg| butterfly_passes(space, cfg, &data, Some(&twiddle), wg, 5, 30))
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
    fn bt_revisits_pages_across_passes() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Bt);
        let wgs = bt(&cfg, &mut space, &mut rng);
        let ps = space.page_size();
        // Some VPN within one workgroup must appear in more than one op.
        let wg = &wgs[0];
        let mut vpns: Vec<u64> = wg.ops.iter().map(|o| ps.vpn_of(o.vaddr).0).collect();
        let before = vpns.len();
        vpns.sort();
        vpns.dedup();
        assert!(vpns.len() < before, "butterfly passes revisit pages");
    }

    #[test]
    fn fwt_has_growing_strides() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Fwt);
        let wgs = fwt(&cfg, &mut space, &mut rng);
        let wg = &wgs[0];
        // Distance between own-line read and partner read grows over the trace.
        let reads: Vec<u64> = wg
            .ops
            .iter()
            .filter(|o| o.is_read)
            .map(|o| o.vaddr)
            .collect();
        let early = reads[0].abs_diff(reads[1]);
        let late_pair = &reads[reads.len() - 2..];
        let late = late_pair[0].abs_diff(late_pair[1]);
        assert!(
            late > early,
            "late-pass partners are further: {early} vs {late}"
        );
    }

    #[test]
    fn fft_rereads_twiddle_table() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Fft);
        let wgs = fft(&cfg, &mut space, &mut rng);
        let tw = space.buffers().find(|b| b.name == "fft_twiddle").unwrap();
        let ps = space.page_size();
        let twiddle_reads: usize = wgs
            .iter()
            .flat_map(|w| &w.ops)
            .filter(|o| tw.contains(ps.vpn_of(o.vaddr)))
            .count();
        assert!(
            twiddle_reads >= wgs.len(),
            "twiddle pages shared by all WGs"
        );
    }

    #[test]
    fn butterfly_traces_alternate_read_read_write() {
        let (cfg, mut space, mut rng) = setup(BenchmarkId::Bt);
        let wgs = bt(&cfg, &mut space, &mut rng);
        let ops = &wgs[0].ops;
        assert!(ops[0].is_read);
        assert!(ops[1].is_read);
        assert!(!ops[2].is_read);
    }
}

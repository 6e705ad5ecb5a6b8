//! The 14 access-pattern generators, grouped by pattern family.
//!
//! * [`streaming`] — AES, RELU, FIR, SC, I2C: (mostly) sequential streams
//!   over block-partitioned buffers, with varying compute intensity and
//!   window overlap.
//! * [`butterfly`] — BT, FWT, FFT: multi-pass power-of-two strided partner
//!   exchanges.
//! * [`matrix`] — MM, MT, FWS: dense-matrix kernels with row reuse, pivot
//!   sharing, and long-range transposed writes.
//! * [`irregular`] — KM, PR, SPMV: gather-dominated kernels with hot shared
//!   pages or random-access vectors.

pub mod butterfly;
pub mod irregular;
pub mod matrix;
pub mod streaming;

use wsg_gpu::{AddressSpace, Buffer, WorkgroupTrace};
use wsg_sim::SimRng;

use crate::catalog::{BenchmarkId, WorkloadConfig};

/// Cacheline granularity of generated memory operations.
pub const LINE: u64 = 64;

/// Dispatches to the generator for `id`.
pub fn generate_with_config(
    id: BenchmarkId,
    cfg: &WorkloadConfig,
    space: &mut AddressSpace,
    seed: u64,
) -> Vec<WorkgroupTrace> {
    let mut rng = SimRng::seeded(seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    match id {
        BenchmarkId::Aes => streaming::aes(cfg, space, &mut rng),
        BenchmarkId::Relu => streaming::relu(cfg, space, &mut rng),
        BenchmarkId::Fir => streaming::fir(cfg, space, &mut rng),
        BenchmarkId::Sc => streaming::sc(cfg, space, &mut rng),
        BenchmarkId::I2c => streaming::i2c(cfg, space, &mut rng),
        BenchmarkId::Bt => butterfly::bt(cfg, space, &mut rng),
        BenchmarkId::Fwt => butterfly::fwt(cfg, space, &mut rng),
        BenchmarkId::Fft => butterfly::fft(cfg, space, &mut rng),
        BenchmarkId::Mm => matrix::mm(cfg, space, &mut rng),
        BenchmarkId::Mt => matrix::mt(cfg, space, &mut rng),
        BenchmarkId::Fws => matrix::fws(cfg, space, &mut rng),
        BenchmarkId::Km => irregular::km(cfg, space, &mut rng),
        BenchmarkId::Pr => irregular::pr(cfg, space, &mut rng),
        BenchmarkId::Spmv => irregular::spmv(cfg, space, &mut rng),
    }
}

/// Allocates a buffer of at least one page covering `bytes`.
pub(crate) fn alloc_bytes(space: &mut AddressSpace, name: &str, bytes: u64) -> Buffer {
    let ps = space.page_size();
    space.alloc(name, bytes.div_ceil(ps.bytes()).max(1))
}

/// A line-aligned byte address `off` bytes into `buf`, wrapping at the
/// buffer end so generated offsets always stay in bounds.
pub(crate) fn at(space: &AddressSpace, buf: &Buffer, off: u64) -> u64 {
    let ps = space.page_size();
    let len = buf.len_bytes(ps);
    (buf.base_addr(ps) + off % len) & !(LINE - 1)
}

/// Splits the per-workgroup op budget across kernel iterations, guaranteeing
/// at least two ops per iteration.
pub(crate) fn ops_per_iter(cfg: &WorkloadConfig) -> usize {
    (cfg.ops_per_wg / cfg.iterations.max(1) as usize).max(2)
}

/// How many `i` in `0..n` satisfy `i % m == r` (for `r < m`): the exact
/// number of ops a generator loop emits under an every-`m`th condition, so
/// each workgroup's `Vec` is allocated at its final length.
pub(crate) fn count_mod(n: usize, m: usize, r: usize) -> usize {
    (n + m - 1 - r) / m
}

/// The contiguous byte region of `buf` owned by workgroup `wg` when the
/// buffer is block-partitioned across all workgroups: `(start_offset,
/// region_len)`. The region is line-aligned and non-empty.
pub(crate) fn wg_block(space: &AddressSpace, buf: &Buffer, wg: u64, wg_count: u64) -> (u64, u64) {
    let len = buf.len_bytes(space.page_size());
    let chunk = (len / wg_count.max(1)).max(LINE) & !(LINE - 1);
    let start = ((wg * chunk) % len) & !(LINE - 1);
    (start, chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_xlat::PageSize;

    #[test]
    fn alloc_bytes_rounds_up_to_pages() {
        let mut s = AddressSpace::new(PageSize::Size4K, 4);
        let b = alloc_bytes(&mut s, "x", 1);
        assert_eq!(b.pages, 1);
        let b2 = alloc_bytes(&mut s, "y", 4097);
        assert_eq!(b2.pages, 2);
    }

    #[test]
    fn at_is_line_aligned_and_in_bounds() {
        let mut s = AddressSpace::new(PageSize::Size4K, 4);
        let b = alloc_bytes(&mut s, "x", 8192);
        for off in [0u64, 63, 64, 8191, 8192, 1_000_000] {
            let a = at(&s, &b, off);
            assert_eq!(a % LINE, 0);
            let vpn = s.page_size().vpn_of(a);
            assert!(b.contains(vpn), "offset {off} escaped the buffer");
        }
    }

    #[test]
    fn wg_blocks_tile_the_buffer() {
        let mut s = AddressSpace::new(PageSize::Size4K, 4);
        let b = alloc_bytes(&mut s, "x", 64 * 4096);
        let n = 64;
        let (s0, chunk) = wg_block(&s, &b, 0, n);
        let (s1, _) = wg_block(&s, &b, 1, n);
        assert_eq!(s0, 0);
        assert_eq!(s1, chunk);
        assert_eq!(chunk, 64 * 4096 / 64);
    }

    #[test]
    fn count_mod_matches_a_filtered_count() {
        for n in 0..40 {
            for m in 1..9 {
                for r in 0..m {
                    let want = (0..n).filter(|i| i % m == r).count();
                    assert_eq!(count_mod(n, m, r), want, "n={n} m={m} r={r}");
                }
            }
        }
    }

    #[test]
    fn ops_per_iter_never_zero() {
        let cfg = WorkloadConfig {
            workgroups: 1,
            footprint_bytes: 1,
            ops_per_wg: 1,
            iterations: 10,
        };
        assert!(ops_per_iter(&cfg) >= 2);
    }
}

#![warn(missing_docs)]

//! Synthetic access-pattern generators for the 14 benchmarks of the HDPAT
//! evaluation (Table II).
//!
//! The paper runs real GPU kernels from Hetero-Mark, AMDAPPSDK, SHOC and
//! DNNMark under MGPUSim. What drives every HDPAT result, however, is the
//! *memory-access pattern* those kernels present to the translation
//! hierarchy: stride, sharing, reuse distance, phase structure and
//! footprint. This crate reproduces each benchmark as a deterministic
//! generator of per-workgroup memory-operation traces exhibiting the same
//! pattern class the paper reports for it (random / partitioned / adjacent /
//! scatter-gather, §V-A), at a configurable scale.
//!
//! The scale-reduction is justified by the paper's own size-invariance
//! argument (Fig 13, reproduced by `fig13_size_invariance`): IOMMU pressure
//! is steady regardless of footprint, so a smaller configuration is a valid
//! proxy for a large one.
//!
//! # Example
//!
//! ```
//! use wsg_gpu::AddressSpace;
//! use wsg_workloads::{BenchmarkId, Scale};
//! use wsg_xlat::PageSize;
//!
//! let mut space = AddressSpace::new(PageSize::Size4K, 48);
//! let wgs = wsg_workloads::generate(BenchmarkId::Spmv, Scale::Unit, &mut space, 42);
//! assert!(!wgs.is_empty());
//! assert!(wgs.iter().all(|wg| !wg.is_empty()));
//! ```

pub mod catalog;
pub mod gen;

pub use catalog::{BenchmarkId, BenchmarkInfo, Scale, WorkloadConfig};

use wsg_gpu::{AddressSpace, WorkgroupTrace};

/// Generates the per-workgroup traces of `id` at `scale`, allocating its
/// buffers in `space`. Deterministic for a given `(id, scale, seed,
/// page size, GPM count)`.
pub fn generate(
    id: BenchmarkId,
    scale: Scale,
    space: &mut AddressSpace,
    seed: u64,
) -> Vec<WorkgroupTrace> {
    let cfg = id.config(scale);
    gen::generate_with_config(id, &cfg, space, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_xlat::PageSize;

    #[test]
    fn every_benchmark_generates_nonempty_traces() {
        for id in BenchmarkId::all() {
            let mut space = AddressSpace::new(PageSize::Size4K, 48);
            let wgs = generate(id, Scale::Unit, &mut space, 1);
            assert!(!wgs.is_empty(), "{id:?} generated no workgroups");
            let total_ops: usize = wgs.iter().map(|w| w.len()).sum();
            assert!(total_ops > 0, "{id:?} generated no ops");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for id in [BenchmarkId::Spmv, BenchmarkId::Pr, BenchmarkId::Aes] {
            let mut s1 = AddressSpace::new(PageSize::Size4K, 48);
            let mut s2 = AddressSpace::new(PageSize::Size4K, 48);
            let a = generate(id, Scale::Unit, &mut s1, 7);
            let b = generate(id, Scale::Unit, &mut s2, 7);
            assert_eq!(a, b, "{id:?} not deterministic");
        }
    }

    #[test]
    fn different_seeds_differ_for_irregular_benchmarks() {
        let mut s1 = AddressSpace::new(PageSize::Size4K, 48);
        let mut s2 = AddressSpace::new(PageSize::Size4K, 48);
        let a = generate(BenchmarkId::Spmv, Scale::Unit, &mut s1, 1);
        let b = generate(BenchmarkId::Spmv, Scale::Unit, &mut s2, 2);
        assert_ne!(a, b);
    }

    /// The CUs keep each workgroup's `Vec` until its last op issues, so
    /// spare capacity would stay resident for the whole run.
    #[test]
    fn every_workgroup_is_allocated_at_its_final_length() {
        for scale in [Scale::Unit, Scale::Bench] {
            for id in BenchmarkId::all() {
                let mut space = AddressSpace::new(PageSize::Size4K, 48);
                for (i, wg) in generate(id, scale, &mut space, 42).iter().enumerate() {
                    assert_eq!(
                        wg.ops.capacity(),
                        wg.ops.len(),
                        "{id:?} at {scale:?}: workgroup {i} has spare capacity"
                    );
                }
            }
        }
    }

    #[test]
    fn all_addresses_fall_in_allocated_buffers() {
        for id in BenchmarkId::all() {
            let mut space = AddressSpace::new(PageSize::Size4K, 48);
            let wgs = generate(id, Scale::Unit, &mut space, 3);
            let ps = space.page_size();
            for wg in &wgs {
                for op in &wg.ops {
                    let vpn = ps.vpn_of(op.vaddr);
                    assert!(
                        space.buffer_of(vpn).is_some(),
                        "{id:?}: address {:#x} outside all buffers",
                        op.vaddr
                    );
                }
            }
        }
    }
}

//! The versioned, content-addressed [`RunConfig`] fingerprint.
//!
//! # Why not `Debug`?
//!
//! Until PR 7 the fingerprint was the `Debug` rendering of every `RunConfig`
//! field. That was *content-based* (two equal configs rendered identically)
//! but **fragile as a persistence key**: `derive(Debug)` output changes
//! whenever a field is renamed, added, or reordered — even when the change
//! is semantically irrelevant — and nothing forced a version bump when a
//! change *was* semantically meaningful. Harmless for a cache that died
//! with the process; unacceptable for an on-disk store shared across
//! processes, builds, and machines. See DESIGN.md §14.
//!
//! # The v2 contract
//!
//! [`fingerprint`] renders every semantically meaningful field **by hand**,
//! in a fixed order, under an explicit leading version token
//! (`hdpat-rc-v2`). The stability contract:
//!
//! * Equal configs (field-wise) always produce equal fingerprints, however
//!   they were constructed.
//! * Any config difference that can change simulation output produces a
//!   different fingerprint.
//! * The rendering for a given config never changes silently: every struct
//!   is **fully destructured** (no `..` rest patterns), so adding a field
//!   to any config type is a compile error here — the author must decide
//!   how the new field renders and bump [`FINGERPRINT_VERSION`].
//! * `tests::v2_fingerprint_is_pinned` asserts the exact string for the
//!   paper-baseline config; it failing means the contract changed and the
//!   version must be bumped (which orphans old disk-cache entries — by
//!   design).
//! * An optional extension field renders as a trailing `|name=…` segment
//!   only when it is set. A config that leaves it unset keeps the exact
//!   string it had before the field existed, so adding such a field needs
//!   no version bump and orphans no disk-cache entry. `RunConfig::migration`
//!   is the one such field: a migrating point must not share a key with its
//!   plain twin.
//!
//! `f64` parameters render with Rust's shortest-roundtrip formatting, which
//! is injective (distinct values → distinct text), so equality of rendering
//! equals bit-equality of the parameter.

use std::fmt::Write as _;

use wsg_gpu::{GpmConfig, IommuConfig, SystemConfig};
use wsg_mem::{CacheConfig, HbmConfig};
use wsg_noc::LinkParams;
use wsg_xlat::TlbConfig;

use super::RunConfig;
use crate::migration::MigrationConfig;
use crate::policy::{HdpatConfig, PolicyKind};

/// Version token prefixed to every fingerprint. Bump when the rendering
/// below changes shape or any rendered field changes meaning; old disk-cache
/// entries then simply never match again.
pub const FINGERPRINT_VERSION: &str = "hdpat-rc-v2";

/// Renders the canonical fingerprint of `cfg` (see the module docs for the
/// stability contract). Exposed through [`RunConfig::fingerprint`].
pub fn fingerprint(cfg: &RunConfig) -> String {
    let RunConfig {
        system,
        policy,
        benchmark,
        scale,
        seed,
        migration,
    } = cfg;
    let mut s = String::with_capacity(512);
    s.push_str(FINGERPRINT_VERSION);
    s.push('|');
    push_system(&mut s, system);
    s.push('|');
    push_policy(&mut s, policy);
    let _ = write!(
        s,
        "|bench={}|scale={}|seed={seed}",
        benchmark.info().abbr,
        scale.token()
    );
    if let Some(MigrationConfig {
        streak_threshold,
        install_latency,
    }) = migration
    {
        let _ = write!(
            s,
            "|migration=streak:{streak_threshold},install:{install_latency}"
        );
    }
    s
}

fn push_system(s: &mut String, system: &SystemConfig) {
    let SystemConfig {
        layout,
        gpm,
        iommu,
        page_size,
        link,
        xlat_req_bytes,
        xlat_resp_bytes,
        data_bytes,
    } = system;
    // WaferLayout's tile list is fully derived from (width, height, cpu) by
    // its constructor, so those three values are the complete content.
    let cpu = layout.cpu();
    let _ = write!(
        s,
        "wafer={}x{}cpu{},{}",
        layout.width(),
        layout.height(),
        cpu.x,
        cpu.y
    );
    s.push_str("|gpm=");
    push_gpm(s, gpm);
    s.push_str("|iommu=");
    push_iommu(s, iommu);
    let LinkParams {
        latency,
        bytes_per_cycle,
    } = link;
    let _ = write!(
        s,
        "|page={}|link={latency},{bytes_per_cycle:?}|pkt={xlat_req_bytes},{xlat_resp_bytes},{data_bytes}",
        page_size.bytes()
    );
}

fn push_gpm(s: &mut String, gpm: &GpmConfig) {
    let GpmConfig {
        cus,
        max_outstanding_per_cu,
        l1_tlb,
        l2_tlb,
        gmmu_cache,
        cuckoo_capacity,
        gmmu_walkers,
        gmmu_queue,
        walk_latency,
        l1_cache,
        l2_cache,
        hbm,
    } = gpm;
    let _ = write!(s, "cus:{cus},out:{max_outstanding_per_cu},l1t:");
    push_tlb(s, l1_tlb);
    s.push_str(",l2t:");
    push_tlb(s, l2_tlb);
    s.push_str(",gmmu:");
    push_tlb(s, gmmu_cache);
    let _ = write!(
        s,
        ",cuckoo:{cuckoo_capacity},walkers:{gmmu_walkers},pwq:{gmmu_queue},walklat:{walk_latency},l1c:"
    );
    push_cache(s, l1_cache);
    s.push_str(",l2c:");
    push_cache(s, l2_cache);
    s.push_str(",hbm:");
    let HbmConfig {
        capacity_bytes,
        bytes_per_cycle,
        access_latency,
        channels,
    } = hbm;
    let _ = write!(
        s,
        "{capacity_bytes}/{bytes_per_cycle:?}/{access_latency}/{channels}"
    );
}

fn push_tlb(s: &mut String, tlb: &TlbConfig) {
    let TlbConfig {
        sets,
        ways,
        latency,
        mshrs,
    } = tlb;
    let _ = write!(s, "{sets}/{ways}/{latency}/{mshrs}");
}

fn push_cache(s: &mut String, c: &CacheConfig) {
    let CacheConfig {
        sets,
        ways,
        line_bytes,
        hit_latency,
    } = c;
    let _ = write!(s, "{sets}/{ways}/{line_bytes}/{hit_latency}");
}

fn push_iommu(s: &mut String, iommu: &IommuConfig) {
    let IommuConfig {
        walkers,
        walk_latency,
        pw_queue,
        pre_queue,
        redirection_entries,
    } = iommu;
    let _ = write!(
        s,
        "walkers:{walkers},walklat:{walk_latency},pwq:{pw_queue},preq:{pre_queue},redir:{redirection_entries}"
    );
}

fn push_policy(s: &mut String, policy: &PolicyKind) {
    s.push_str("policy=");
    match policy {
        PolicyKind::Naive => s.push_str("naive"),
        PolicyKind::RouteCache { caching_layers } => {
            let _ = write!(s, "route-cache:layers={caching_layers}");
        }
        PolicyKind::Concentric { caching_layers } => {
            let _ = write!(s, "concentric:layers={caching_layers}");
        }
        PolicyKind::Distributed => s.push_str("distributed"),
        PolicyKind::TransFw => s.push_str("trans-fw"),
        PolicyKind::Valkyrie => s.push_str("valkyrie"),
        PolicyKind::Barre => s.push_str("barre"),
        PolicyKind::Hdpat(cfg) => {
            let HdpatConfig {
                caching_layers,
                rotation,
                redirection,
                prefetch_degree,
                push_threshold,
                queue_revisit,
                iommu_tlb_instead,
            } = cfg;
            let _ = write!(
                s,
                "hdpat:layers={caching_layers},rot={},redir={},pf={prefetch_degree},push={push_threshold},revisit={},tlb={}",
                *rotation as u8, *redirection as u8, *queue_revisit as u8, *iommu_tlb_instead as u8
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use wsg_workloads::{BenchmarkId, Scale};

    use super::*;

    /// The load-bearing pin: the exact fingerprint of the paper-baseline
    /// Unit-scale Naive config. If this test fails, the fingerprint contract
    /// changed — bump [`FINGERPRINT_VERSION`], update this string, and
    /// accept that existing disk-cache entries are orphaned.
    #[test]
    fn v2_fingerprint_is_pinned() {
        let cfg = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
        assert_eq!(
            cfg.fingerprint(),
            "hdpat-rc-v2|wafer=7x7cpu3,3\
             |gpm=cus:32,out:8,l1t:1/8/4/4,l2t:1/8/32/32,gmmu:4/8/8/0,\
             cuckoo:256,walkers:8,pwq:32,walklat:500,l1c:4/4/64/4,l2c:16/16/64/32,\
             hbm:8589934592/1230.0/120/8\
             |iommu=walkers:16,walklat:500,pwq:8,preq:4096,redir:16\
             |page=4096|link=32,768.0|pkt=32,32,64\
             |policy=naive|bench=RELU|scale=unit|seed=42"
        );
    }

    #[test]
    fn hdpat_policy_parameters_are_rendered() {
        let cfg = RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::hdpat());
        let fp = cfg.fingerprint();
        assert!(
            fp.contains("policy=hdpat:layers=2,rot=1,redir=1,pf=4,push=2,revisit=1,tlb=0"),
            "{fp}"
        );
        // Every ablation flag must be visible in the key.
        let ablated = RunConfig::new(
            BenchmarkId::Spmv,
            Scale::Unit,
            PolicyKind::Hdpat(HdpatConfig::peer_caching_only()),
        );
        assert_ne!(fp, ablated.fingerprint());
    }

    #[test]
    fn fingerprint_is_single_line_and_versioned() {
        for policy in [
            PolicyKind::Naive,
            PolicyKind::RouteCache { caching_layers: 2 },
            PolicyKind::Concentric { caching_layers: 3 },
            PolicyKind::Distributed,
            PolicyKind::TransFw,
            PolicyKind::Valkyrie,
            PolicyKind::Barre,
            PolicyKind::hdpat(),
        ] {
            let fp = RunConfig::new(BenchmarkId::Aes, Scale::Unit, policy).fingerprint();
            assert!(fp.starts_with("hdpat-rc-v2|"), "{fp}");
            assert!(!fp.contains('\n'), "{fp}");
        }
    }

    #[test]
    fn distinct_policies_have_distinct_fingerprints() {
        let policies = [
            PolicyKind::Naive,
            PolicyKind::RouteCache { caching_layers: 2 },
            PolicyKind::RouteCache { caching_layers: 3 },
            PolicyKind::Concentric { caching_layers: 2 },
            PolicyKind::Distributed,
            PolicyKind::TransFw,
            PolicyKind::Valkyrie,
            PolicyKind::Barre,
            PolicyKind::hdpat(),
            PolicyKind::Hdpat(HdpatConfig::with_redirection_only()),
            PolicyKind::Hdpat(HdpatConfig::with_prefetch_only()),
            PolicyKind::Hdpat(HdpatConfig::with_iommu_tlb()),
        ];
        let mut fps: Vec<String> = policies
            .iter()
            .map(|&p| RunConfig::new(BenchmarkId::Mm, Scale::Unit, p).fingerprint())
            .collect();
        let before = fps.len();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), before);
    }

    #[test]
    fn migration_is_rendered_only_when_set() {
        let plain = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
        assert!(!plain.fingerprint().contains("migration"));
        let migrating = plain.clone().with_migration(MigrationConfig::default());
        assert_eq!(
            migrating.fingerprint(),
            format!("{}|migration=streak:16,install:200", plain.fingerprint())
        );
        let eager = plain.clone().with_migration(MigrationConfig {
            streak_threshold: 4,
            ..MigrationConfig::default()
        });
        assert_ne!(migrating.fingerprint(), eager.fingerprint());
    }

    #[test]
    fn system_parameters_feed_the_fingerprint() {
        let base = RunConfig::new(BenchmarkId::Fft, Scale::Unit, PolicyKind::Naive);
        let mut bigger_wafer = base.clone();
        bigger_wafer.system.layout = wsg_gpu::WaferLayout::paper_7x12();
        assert_ne!(base.fingerprint(), bigger_wafer.fingerprint());

        let mut other_page = base.clone();
        other_page.system.page_size = wsg_xlat::PageSize::Size64K;
        assert_ne!(base.fingerprint(), other_page.fingerprint());

        let mut other_link = base.clone();
        other_link.system.link.bytes_per_cycle += 0.5;
        assert_ne!(base.fingerprint(), other_link.fingerprint());
    }
}

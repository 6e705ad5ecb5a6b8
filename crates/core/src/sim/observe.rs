//! The engine side of observation: typed structure sites, the counter walk
//! handed to the observer at epoch boundaries, and the hooked forms of the
//! leaf-structure calls.
//!
//! Leaf structures hold no sink handles. The engine calls them through the
//! helpers below, which report each outcome to the simulation's one
//! [`Observer`]. With the plain observer `()` every helper reduces to the
//! bare structure call.

use wsg_gpu::SystemConfig;
use wsg_mem::MshrOutcome;
use wsg_noc::{Coord, SendOutcome};
use wsg_sim::observe::{CounterSource, Observer};
use wsg_sim::telemetry::{CounterDef, CounterKind};
use wsg_sim::Cycle;
use wsg_xlat::{Pfn, SubmitResult, Tlb, Vpn, WalkerPool};

use super::{GpmState, IommuState, ReqId, Simulation};

/// One observed structure instance (or request-span owner).
///
/// [`Site::id`] is the one place the integer numbering of trace `site`
/// args and telemetry `site` columns lives. Structure sites are unique per
/// configuration: GPM-local structures at `gpm*8 + slot`, per-CU L1 TLBs at
/// `G*8 + gpm*S + cu` with stride `S = max(64, CUs per GPM)`, and IOMMU
/// structures from `G*8 + G*S`. Links pack their endpoint coordinates into
/// a space of their own; requester GPMs, tiles and the engine number
/// themselves (their stages and counter names tell them apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// A requesting GPM (the `issue`, `remote` and `xlat` spans).
    Gpm(u32),
    /// A GPM's L2 TLB.
    L2Tlb(u32),
    /// A GPM's GMMU cache (last-level TLB).
    GmmuCache(u32),
    /// A GPM's GMMU walker pool.
    GmmuWalkers(u32),
    /// A GPM's cuckoo filter.
    Cuckoo(u32),
    /// A GPM's HBM stack.
    Hbm(u32),
    /// One CU's L1 TLB.
    L1Tlb {
        /// Owning GPM.
        gpm: u32,
        /// CU index within the GPM.
        cu: u32,
    },
    /// The IOMMU walker pool.
    IommuWalkers,
    /// The IOMMU redirection table.
    Redirection,
    /// The Fig 19 IOMMU TLB.
    IommuTlb,
    /// The Fig 19 IOMMU TLB's MSHR file.
    IommuTlbMshr,
    /// The directional mesh link `from → to`.
    Link(Coord, Coord),
    /// A wafer tile, by row-major index.
    Tile(u32),
    /// Engine-wide counters.
    Engine,
}

impl Site {
    /// The integer id of this site under `sys`.
    pub(crate) fn id(self, sys: &SystemConfig) -> u64 {
        let g = sys.gpm_count() as u64;
        // At least 64 (the historical stride, so existing configurations
        // number identically) and wide enough that a preset with more than
        // 64 CUs per GPM cannot alias a neighbouring GPM's L1 TLBs.
        let stride = u64::from(sys.gpm.cus).max(64);
        let iommu = g * 8 + g * stride;
        let slot = |gpm: u32, slot: u64| u64::from(gpm) * 8 + slot;
        match self {
            Site::Gpm(gpm) | Site::Tile(gpm) => u64::from(gpm),
            Site::L2Tlb(gpm) => slot(gpm, 0),
            Site::GmmuCache(gpm) => slot(gpm, 1),
            Site::GmmuWalkers(gpm) => slot(gpm, 2),
            Site::Cuckoo(gpm) => slot(gpm, 3),
            Site::Hbm(gpm) => slot(gpm, 4),
            Site::L1Tlb { gpm, cu } => g * 8 + u64::from(gpm) * stride + u64::from(cu),
            Site::IommuWalkers => iommu,
            Site::Redirection => iommu + 1,
            Site::IommuTlb => iommu + 2,
            Site::IommuTlbMshr => iommu + 3,
            Site::Link(from, to) => {
                (u64::from(from.x) << 48)
                    | (u64::from(from.y) << 32)
                    | (u64::from(to.x) << 16)
                    | u64::from(to.y)
            }
            Site::Engine => 0,
        }
    }
}

// A simulation moves to a worker thread whole, observer included.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Simulation<()>>();
    send::<Simulation<wsg_sim::trace::TraceSink>>();
};

/// A read-only view of every counted structure, walked in the fixed
/// registration order: mesh tiles, then per GPM its L2 TLB, GMMU cache,
/// walkers, cuckoo filter and HBM, then the IOMMU walkers, redirection
/// table, TLB and MSHR (Fig 19 only), pre-queue and the engine's completed
/// ops. Per-CU L1 TLBs are not sampled: the per-GPM L2s capture the
/// spatial picture at a fraction of the artifact size.
struct Counters<'a> {
    cfg: &'a SystemConfig,
    gpms: &'a [GpmState],
    iommu: &'a IommuState,
    mesh: &'a wsg_noc::Mesh,
    ops_completed: u64,
}

/// Forwards one structure's counters to `f` under `site` and `tile`.
fn emit(
    f: &mut dyn FnMut(CounterDef, u64),
    site: u64,
    tile: Option<(u16, u16)>,
    counters: impl FnOnce(&mut dyn FnMut(&'static str, CounterKind, u64)),
) {
    counters(&mut |name, kind, value| {
        f(
            CounterDef {
                name,
                site,
                tile,
                kind,
            },
            value,
        )
    });
}

impl CounterSource for Counters<'_> {
    fn grid(&self) -> (u16, u16) {
        (self.mesh.width(), self.mesh.height())
    }

    fn visit(&self, f: &mut dyn FnMut(CounterDef, u64)) {
        let cfg = self.cfg;
        let (width, height) = self.grid();
        for y in 0..height {
            for x in 0..width {
                let site = Site::Tile(u32::from(y) * u32::from(width) + u32::from(x)).id(cfg);
                emit(f, site, Some((x, y)), |c| self.mesh.tile_counters(x, y, c));
            }
        }
        for (g, gpm) in (0u32..).zip(self.gpms) {
            let c = cfg.layout.coord_of(g);
            let tile = Some((c.x, c.y));
            emit(f, Site::L2Tlb(g).id(cfg), tile, |c| gpm.l2_tlb.counters(c));
            emit(f, Site::GmmuCache(g).id(cfg), tile, |c| {
                gpm.gmmu_cache.counters(c)
            });
            emit(f, Site::GmmuWalkers(g).id(cfg), tile, |c| {
                gpm.walkers.counters(c)
            });
            emit(f, Site::Cuckoo(g).id(cfg), tile, |c| gpm.cuckoo.counters(c));
            emit(f, Site::Hbm(g).id(cfg), tile, |c| gpm.hbm.counters(c));
        }
        let cpu = cfg.layout.cpu();
        let tile = Some((cpu.x, cpu.y));
        let iommu = &self.iommu;
        let walkers = Site::IommuWalkers.id(cfg);
        emit(f, walkers, tile, |c| iommu.walkers.counters(c));
        emit(f, Site::Redirection.id(cfg), tile, |c| {
            iommu.redirection.counters(c)
        });
        if let Some(tlb) = &iommu.tlb {
            emit(f, Site::IommuTlb.id(cfg), tile, |c| tlb.counters(c));
        }
        if let Some(mshr) = &iommu.tlb_mshr {
            emit(f, Site::IommuTlbMshr.id(cfg), tile, |c| mshr.counters(c));
        }
        emit(f, walkers, tile, |c| {
            c(
                "iommu.pre_queue",
                CounterKind::Gauge,
                iommu.pre_queue.len() as u64,
            )
        });
        emit(f, Site::Engine.id(cfg), None, |c| {
            c(
                "engine.ops_completed",
                CounterKind::Counter,
                self.ops_completed,
            )
        });
    }
}

impl<O: Observer> Simulation<O> {
    /// Records a point event at `site` (a no-op for the plain observer).
    #[inline(always)]
    pub(crate) fn note(&mut self, stage: &'static str, site: Site, arg: u64) {
        if O::ENABLED {
            let id = site.id(&self.cfg);
            self.obs.instant(stage, id, arg);
        }
    }

    /// Records a closed span at `site` (a no-op for the plain observer).
    #[inline(always)]
    pub(crate) fn span(
        &mut self,
        stage: &'static str,
        start: Cycle,
        dur: Cycle,
        site: Site,
        arg: u64,
    ) {
        if O::ENABLED {
            let id = site.id(&self.cfg);
            self.obs.complete(stage, start, dur, id, arg);
        }
    }

    /// Hands the observer the counter walk: an epoch boundary at `now`, or
    /// the end of the run.
    pub(crate) fn observe_counters(&mut self, now: Cycle, end: bool) {
        let counters = Counters {
            cfg: &self.cfg,
            gpms: &self.gpms,
            iommu: &self.iommu,
            mesh: &self.mesh,
            ops_completed: self.metrics.ops_completed,
        };
        if end {
            self.obs.finish(now, &counters);
        } else {
            self.obs.epoch(now, &counters);
        }
    }

    #[inline(always)]
    fn tlb_mut(&mut self, site: Site) -> &mut Tlb {
        match site {
            Site::L1Tlb { gpm, cu } => &mut self.gpms[gpm as usize].cus[cu as usize].l1_tlb,
            Site::L2Tlb(gpm) => &mut self.gpms[gpm as usize].l2_tlb,
            Site::GmmuCache(gpm) => &mut self.gpms[gpm as usize].gmmu_cache,
            Site::IommuTlb => self.iommu.tlb.as_mut().expect("Fig 19 IOMMU TLB"),
            _ => unreachable!("{site:?} is not a TLB"),
        }
    }

    #[inline(always)]
    fn walkers_mut(&mut self, site: Site) -> &mut WalkerPool<ReqId> {
        match site {
            Site::GmmuWalkers(gpm) => &mut self.gpms[gpm as usize].walkers,
            Site::IommuWalkers => &mut self.iommu.walkers,
            _ => unreachable!("{site:?} is not a walker pool"),
        }
    }

    /// [`Tlb::lookup_meta`] on the TLB at `site`, reporting hit or miss.
    #[inline(always)]
    pub(crate) fn tlb_lookup(&mut self, site: Site, vpn: Vpn) -> Option<(Pfn, bool)> {
        let hit = self.tlb_mut(site).lookup_meta(vpn);
        let stage = if hit.is_some() { "tlb.hit" } else { "tlb.miss" };
        self.note(stage, site, vpn.0);
        hit
    }

    /// The cuckoo-filter membership test of `gpm`, reporting the outcome.
    #[inline(always)]
    pub(crate) fn cuckoo_contains(&mut self, gpm: u32, vpn: Vpn) -> bool {
        let hit = self.gpms[gpm as usize].cuckoo.contains(vpn.0);
        let stage = if hit { "cuckoo.hit" } else { "cuckoo.miss" };
        self.note(stage, Site::Cuckoo(gpm), vpn.0);
        hit
    }

    /// Submits `req` to the walker pool at `site`, reporting the outcome
    /// with the pool's busy walkers (started) or queue length (otherwise).
    #[inline(always)]
    pub(crate) fn walker_submit(&mut self, site: Site, req: ReqId) -> SubmitResult {
        let pool = self.walkers_mut(site);
        let out = pool.submit(req);
        let (stage, arg) = match out {
            SubmitResult::Started => ("walk.start", pool.busy()),
            SubmitResult::Queued => ("walk.queue", pool.queue_len()),
            SubmitResult::Rejected => ("walk.reject", pool.queue_len()),
        };
        self.note(stage, site, arg as u64);
        out
    }

    /// Finishes one walk of the pool at `site`, reporting a promoted queue
    /// head with the remaining queue length.
    #[inline(always)]
    pub(crate) fn walker_finish(&mut self, site: Site) -> Option<ReqId> {
        let pool = self.walkers_mut(site);
        let next = pool.finish();
        if next.is_some() {
            let left = pool.queue_len() as u64;
            self.note("walk.promote", site, left);
        }
        next
    }

    /// An HBM access of `bytes` at GPM `gpm` arriving at `now`; returns its
    /// completion cycle and reports the service span.
    #[inline(always)]
    pub(crate) fn hbm_access(&mut self, gpm: u32, now: Cycle, bytes: u64) -> Cycle {
        let done = self.gpms[gpm as usize].hbm.access(now, bytes);
        self.span("hbm.access", now, done - now, Site::Hbm(gpm), bytes);
        done
    }

    /// Looks `vpn` up in the redirection table, reporting hit or miss.
    #[inline(always)]
    pub(crate) fn redirection_lookup(&mut self, vpn: Vpn) -> Option<u32> {
        let holder = self.iommu.redirection.lookup(vpn);
        let stage = if holder.is_some() {
            "redir.hit"
        } else {
            "redir.miss"
        };
        self.note(stage, Site::Redirection, vpn.0);
        holder
    }

    /// Records `holder` for `vpn` in the redirection table.
    #[inline(always)]
    pub(crate) fn redirection_insert(&mut self, vpn: Vpn, holder: u32) {
        self.iommu.redirection.insert(vpn, holder);
        self.note("redir.insert", Site::Redirection, vpn.0);
    }

    /// Registers a miss on `block` with the IOMMU TLB's MSHRs, reporting
    /// the outcome.
    #[inline(always)]
    pub(crate) fn iommu_mshr_register(&mut self, block: u64, req: ReqId) -> MshrOutcome {
        let mshr = self
            .iommu
            .tlb_mshr
            .as_mut()
            .expect("Fig 19 IOMMU TLB MSHRs");
        let out = mshr.register(block, req);
        let stage = match out {
            MshrOutcome::Primary => "mshr.primary",
            MshrOutcome::Secondary => "mshr.secondary",
            MshrOutcome::Full => "mshr.full",
        };
        self.note(stage, Site::IommuTlbMshr, block);
        out
    }

    /// Sends a packet over the mesh, reporting a span per link hop and one
    /// for the whole packet (carrying the hop count in the high word).
    #[inline(always)]
    pub(crate) fn mesh_send(
        &mut self,
        from: Coord,
        to: Coord,
        bytes: u64,
        depart: Cycle,
    ) -> SendOutcome {
        if !O::ENABLED {
            return self.mesh.send(from, to, bytes, depart);
        }
        let (cfg, obs) = (&self.cfg, &mut self.obs);
        let out = self
            .mesh
            .send_with(from, to, bytes, depart, |a, b, start, dur| {
                obs.hop(Site::Link(a, b).id(cfg), start, dur, bytes)
            });
        if from != to {
            let arg = (u64::from(out.hops) << 32) | bytes.min(u64::from(u32::MAX));
            self.span(
                "noc.send",
                depart,
                out.arrival - depart,
                Site::Link(from, to),
                arg,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use wsg_gpu::{GpuPreset, WaferLayout};

    use super::*;

    /// Every system configuration `figure all` simulates, up to the
    /// parameters site numbering depends on (GPM count, CUs per GPM).
    fn figure_systems() -> Vec<SystemConfig> {
        let mut systems = vec![
            SystemConfig::paper_baseline(),
            SystemConfig {
                layout: WaferLayout::mcm_4gpm(),
                ..SystemConfig::paper_baseline()
            },
            SystemConfig {
                layout: WaferLayout::paper_7x12(),
                ..SystemConfig::paper_baseline()
            },
        ];
        systems.extend(GpuPreset::all().map(SystemConfig::with_preset));
        systems
    }

    fn structure_sites(sys: &SystemConfig) -> Vec<Site> {
        let mut sites = vec![
            Site::IommuWalkers,
            Site::Redirection,
            Site::IommuTlb,
            Site::IommuTlbMshr,
        ];
        for gpm in 0..sys.gpm_count() as u32 {
            sites.extend([
                Site::L2Tlb(gpm),
                Site::GmmuCache(gpm),
                Site::GmmuWalkers(gpm),
                Site::Cuckoo(gpm),
                Site::Hbm(gpm),
            ]);
            sites.extend((0..sys.gpm.cus).map(|cu| Site::L1Tlb { gpm, cu }));
        }
        sites
    }

    fn link_sites(sys: &SystemConfig) -> Vec<Site> {
        let (w, h) = (sys.layout.width(), sys.layout.height());
        let mut sites = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let from = Coord::new(x, y);
                let mut link = |to| sites.push(Site::Link(from, to));
                if x + 1 < w {
                    link(Coord::new(x + 1, y));
                }
                if x > 0 {
                    link(Coord::new(x - 1, y));
                }
                if y + 1 < h {
                    link(Coord::new(x, y + 1));
                }
                if y > 0 {
                    link(Coord::new(x, y - 1));
                }
            }
        }
        sites
    }

    fn assert_injective(sys: &SystemConfig, sites: Vec<Site>) {
        let mut seen = BTreeMap::new();
        for site in sites {
            if let Some(other) = seen.insert(site.id(sys), site) {
                panic!(
                    "{site:?} and {other:?} share id {} ({} GPMs, {} CUs each)",
                    site.id(sys),
                    sys.gpm_count(),
                    sys.gpm.cus
                );
            }
        }
    }

    #[test]
    fn site_ids_are_injective_for_every_figure_system() {
        let systems = figure_systems();
        // The preset whose L1 TLB range collided before the stride widened.
        assert!(systems.iter().any(|s| s.gpm.cus > 64));
        for sys in &systems {
            assert_injective(sys, structure_sites(sys));
            assert_injective(sys, link_sites(sys));
        }
    }

    #[test]
    fn site_ids_keep_the_historical_numbering() {
        let sys = SystemConfig::paper_baseline();
        let g = sys.gpm_count() as u64;
        assert_eq!(Site::GmmuWalkers(3).id(&sys), 3 * 8 + 2);
        assert_eq!(Site::L1Tlb { gpm: 2, cu: 5 }.id(&sys), g * 8 + 2 * 64 + 5);
        assert_eq!(Site::IommuTlb.id(&sys), g * 8 + g * 64 + 2);
        let link = Site::Link(Coord::new(1, 2), Coord::new(1, 3));
        assert_eq!(link.id(&sys), (1 << 48) | (2 << 32) | (1 << 16) | 3);
    }
}

//! The post-translation data-access path.
//!
//! The remote-cacheline fetch is split into events (`DataAtHome`,
//! `DataReturn`) so that every mesh-link and HBM reservation is made in
//! event-time order. Reserving the return trip at request time would place
//! far-future reservations on links and starve packets handled later but
//! departing earlier.

use wsg_sim::{Cycle, Observer};
use wsg_xlat::Vpn;

use super::{Event, ReqId, Simulation};

impl<O: Observer> Simulation<O> {
    /// Performs the data access for a translated request: L1 → L2 → local
    /// HBM, or a mesh round trip to the owning GPM's L2/HBM for remote
    /// cachelines (the zero-copy model of §II-A).
    pub(crate) fn start_data(&mut self, t: Cycle, req: ReqId, _pfn: wsg_xlat::Pfn) {
        let (gpm_id, cu, vaddr, vpn) = {
            let r = &self.reqs[req];
            (r.gpm, r.cu, r.vaddr, r.vpn)
        };
        let gc = self.cfg.gpm;
        let line = vaddr & !(self.cfg.data_bytes - 1);

        // L1 (per-CU).
        let t1 = t + gc.l1_cache.hit_latency;
        {
            let slot = &mut self.gpms[gpm_id as usize].cus[cu as usize];
            if slot.l1_cache.lookup(line).is_hit() {
                self.schedule(t1, Event::DataDone { req });
                return;
            }
        }
        // L2 (shared).
        let t2 = t1 + gc.l2_cache.hit_latency;
        {
            let gpm = &mut self.gpms[gpm_id as usize];
            if gpm.l2_cache.lookup(line).is_hit() {
                gpm.cus[cu as usize].l1_cache.fill(line);
                self.schedule(t2, Event::DataDone { req });
                return;
            }
        }
        let home = self.home_of(vpn).unwrap_or(gpm_id);
        if home != gpm_id {
            self.note_remote_access(t2, vpn, gpm_id);
        }
        if home == gpm_id {
            // Local HBM.
            let done = self.hbm_access(gpm_id, t2, self.cfg.data_bytes);
            let gpm = &mut self.gpms[gpm_id as usize];
            gpm.l2_cache.fill(line);
            gpm.cus[cu as usize].l1_cache.fill(line);
            self.schedule(done, Event::DataDone { req });
        } else {
            // Remote cacheline fetch: request header to the home GPM.
            let from = self.gpm_coord(gpm_id);
            let to = self.gpm_coord(home);
            let bytes = self.cfg.xlat_req_bytes;
            self.send(from, to, bytes, t2, Event::DataAtHome { req, home });
        }
    }

    /// A remote data request reached the home GPM: probe its L2, fall back
    /// to its HBM, and schedule the return trip when the line is ready.
    pub(crate) fn on_data_at_home(&mut self, t: Cycle, req: ReqId, home: u32) {
        let line = self.reqs[req].vaddr & !(self.cfg.data_bytes - 1);
        let l2_lat = self.cfg.gpm.l2_cache.hit_latency;
        let data_bytes = self.cfg.data_bytes;
        let served = if self.gpms[home as usize].l2_cache.lookup(line).is_hit() {
            t + l2_lat
        } else {
            let d = self.hbm_access(home, t + l2_lat, data_bytes);
            self.gpms[home as usize].l2_cache.fill(line);
            d
        };
        self.schedule(served, Event::DataReturn { req, home });
    }

    /// Records a remote data access for the migration extension and
    /// triggers a migration when one GPM has been the page's sole consumer
    /// for a full streak.
    fn note_remote_access(&mut self, t: Cycle, vpn: Vpn, consumer: u32) {
        let Some(cfg) = self.migration else {
            return;
        };
        let streak = self
            .access_streak
            .get_or_insert_with(vpn.0, || (consumer, 0));
        if streak.0 == consumer {
            streak.1 += 1;
        } else {
            *streak = (consumer, 1);
        }
        if streak.1 >= cfg.streak_threshold {
            self.access_streak.remove(vpn.0);
            self.migrate_page(t, vpn, consumer, cfg);
        }
    }

    /// Migrates `vpn` to `dest`: moves the PTE between local page tables,
    /// transfers the page data across the mesh, and broadcasts a TLB
    /// shootdown to every GPM (the cost the paper cites for excluding
    /// migration).
    fn migrate_page(
        &mut self,
        t: Cycle,
        vpn: Vpn,
        dest: u32,
        cfg: crate::migration::MigrationConfig,
    ) {
        let Some(old_home) = self.home_of(vpn) else {
            return;
        };
        if old_home == dest {
            return;
        }
        let pfn = match self.iommu.page_table.translate(vpn) {
            Some(pte) => pte.pfn,
            None => return,
        };
        // Move the mapping between the local page tables (and their cuckoo
        // filters), and update the global table's home.
        {
            let old = &mut self.gpms[old_home as usize];
            old.page_table.unmap(vpn);
            old.cuckoo.remove(vpn.0);
            old.gmmu_cache.invalidate(vpn);
        }
        {
            let new = &mut self.gpms[dest as usize];
            // The GMMU cache may hold the VPN as an aux entry, in which case
            // the cuckoo filter already tracks it.
            if new.gmmu_cache.probe(vpn).is_none() {
                new.cuckoo.insert(vpn.0);
            }
            new.page_table.map(vpn, pfn, dest);
        }
        self.iommu.page_table.map(vpn, pfn, dest);
        self.iommu.redirection.remove(vpn);
        self.home_override.insert(vpn.0, dest);

        // Wafer-wide TLB shootdown: every GPM drops its copies; the
        // invalidation packets cross the mesh from the CPU tile.
        let cpu = self.cpu();
        let bytes = self.cfg.xlat_req_bytes;
        for g in 0..self.gpms.len() as u32 {
            let gpm = &mut self.gpms[g as usize];
            gpm.l2_tlb.invalidate(vpn);
            for cu in &mut gpm.cus {
                cu.l1_tlb.invalidate(vpn);
            }
            if g != dest && g != old_home && gpm.gmmu_cache.invalidate(vpn) {
                gpm.cuckoo.remove(vpn.0);
            }
            let to = self.gpm_coord(g);
            // Fire-and-forget invalidation traffic (accounted, no event).
            self.mesh_send(cpu, to, bytes, t);
        }
        // Bulk page transfer old home -> new home.
        let page_bytes = self.cfg.page_size.bytes();
        let from = self.gpm_coord(old_home);
        let to = self.gpm_coord(dest);
        self.mesh_send(from, to, page_bytes, t + cfg.install_latency);
        self.metrics.pages_migrated += 1;
    }

    /// The home GPM sends the cacheline back to the requester.
    pub(crate) fn on_data_return(&mut self, t: Cycle, req: ReqId, home: u32) {
        let gpm_id = self.reqs[req].gpm;
        let line = self.reqs[req].vaddr & !(self.cfg.data_bytes - 1);
        let from = self.gpm_coord(home);
        let to = self.gpm_coord(gpm_id);
        let bytes = self.cfg.data_bytes + 8;
        let out = self.mesh_send(from, to, bytes, t);
        // Cache the remote line locally (caches are flushed at kernel
        // boundaries in the zero-copy model, so this is safe).
        let cu = self.reqs[req].cu;
        let gpm = &mut self.gpms[gpm_id as usize];
        gpm.l2_cache.fill(line);
        gpm.cus[cu as usize].l1_cache.fill(line);
        self.schedule(out.arrival, Event::DataDone { req });
    }
}

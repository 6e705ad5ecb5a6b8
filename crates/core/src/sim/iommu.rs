//! IOMMU-side handling: arrival, redirection, PW-queue, walks, revisit
//! coalescing, proactive delivery, and selective push.

use wsg_mem::MshrOutcome;
use wsg_sim::{Cycle, Observer};
use wsg_xlat::{SubmitResult, Vpn};

use crate::metrics::Resolution;

use super::{Event, ReqId, Simulation, Site, NEVER};

/// IOMMU-TLB lookup latency (Fig 19 variant).
const IOMMU_TLB_LATENCY: Cycle = 8;
/// Redirection-table lookup latency.
const REDIR_LATENCY: Cycle = 4;

impl<O: Observer> Simulation<O> {
    /// A translation request arrives at the IOMMU (step ① of Fig 12).
    pub(crate) fn on_iommu_arrive(&mut self, t: Cycle, req: ReqId) {
        if self.reqs[req].resolved {
            // A concurrent layer probe already answered; drop the forwarded
            // copy instead of walking redundantly. If the request held a
            // place in the TLB stall queue, pass its admission along so the
            // queue keeps draining.
            if let Some(w) = self.iommu.tlb_stalled.pop_front() {
                self.schedule(t, Event::IommuArrive { req: w });
                self.reqs.unpin(w);
            }
            return;
        }
        let vpn = self.reqs[req].vpn;
        if self.reqs[req].iommu_arrived == NEVER {
            self.reqs[req].iommu_arrived = t;
            // Observation traces (Figs 6-8) are collected at the IOMMU.
            self.metrics.iommu_reuse.touch(vpn.0);
            if let Some(prev) = self.last_iommu_vpn {
                self.metrics.vpn_delta.record(prev.distance(vpn));
            }
            self.last_iommu_vpn = Some(vpn);
        }

        // Fig 19 variant: a conventional TLB (with MSHRs) instead of the
        // redirection table.
        if self.iommu.tlb.is_some() {
            // A request that already stalled on full MSHRs holds its place
            // in the stall order and may not re-probe the TLB (it is blocked
            // outside the structure, per the paper).
            let hit = if self.reqs[req].redirect_failed {
                None
            } else {
                self.tlb_lookup(Site::IommuTlb, vpn)
            };
            if let Some((pfn, prefetched)) = hit {
                let to = self.gpm_coord(self.reqs[req].gpm);
                let cpu = self.cpu();
                let bytes = self.cfg.xlat_resp_bytes;
                let source = if prefetched {
                    Resolution::Proactive
                } else {
                    Resolution::Redirection
                };
                self.send(
                    cpu,
                    to,
                    bytes,
                    t + IOMMU_TLB_LATENCY,
                    Event::XlatResponse { req, pfn, source },
                );
                return;
            }
            // TLB miss: the request must hold an MSHR before it may proceed
            // to the walkers; when all MSHRs are busy it stalls outside the
            // TLB (the concurrency limit the redirection table avoids).
            match self.iommu_mshr_register(vpn.0, req) {
                // Both keep the request in the MSHR's waiter list.
                MshrOutcome::Primary => self.reqs.pin(req), // proceed to the walk
                MshrOutcome::Secondary => {
                    // Woken when the walk fills the TLB.
                    self.reqs.pin(req);
                    return;
                }
                MshrOutcome::Full => {
                    // Blocked outside the TLB until an MSHR frees; no
                    // polling — a walk completion admits the queue head.
                    self.metrics.iommu_tlb_stalls += 1;
                    self.reqs[req].redirect_failed = true;
                    self.iommu.tlb_stalled.push_back(req);
                    self.reqs.pin(req);
                    return;
                }
            }
        } else if matches!(self.policy, crate::policy::PolicyKind::TransFw) {
            // Trans-FW: piggyback on an identical walk, but only while that
            // walk is actually running (the forwarding structure covers the
            // 16 active walkers, not the whole queue).
            if let Some(waiters) = self.iommu.inflight.get_mut(vpn.0) {
                waiters.push(req);
                self.reqs.pin(req);
                return;
            }
        } else if self.hdpat().is_some_and(|h| h.redirection) && !self.reqs[req].redirect_failed {
            // Redirection table check (step ② of Fig 12).
            if let Some(holder) = self.redirection_lookup(vpn) {
                let cpu = self.cpu();
                let to = self.gpm_coord(holder);
                let bytes = self.cfg.xlat_req_bytes;
                self.send(
                    cpu,
                    to,
                    bytes,
                    t + REDIR_LATENCY,
                    Event::RedirectArrive { req, holder },
                );
                return;
            }
        }
        self.enqueue_walk(t, req);
    }

    /// Places a request into the PW-queue (step ③), or the pre-queue buffer
    /// when the PW-queue is full; either queue holds a pin.
    fn enqueue_walk(&mut self, t: Cycle, req: ReqId) {
        let walk_latency = self.cfg.iommu.walk_latency;
        match self.walker_submit(Site::IommuWalkers, req) {
            SubmitResult::Started => {
                self.reqs[req].pw_entered = t;
                self.reqs[req].walk_started = t;
                self.note_walk_started(req);
                self.schedule(t + walk_latency, Event::IommuWalkDone { req });
            }
            SubmitResult::Queued => {
                self.reqs[req].pw_entered = t;
                self.reqs.pin(req);
            }
            SubmitResult::Rejected => {
                self.iommu.pre_queue.push_back(req);
                self.reqs.pin(req);
            }
        }
        self.sample_iommu_buffer(t);
    }

    /// Registers a just-started walk in Trans-FW's in-flight table.
    fn note_walk_started(&mut self, req: ReqId) {
        if matches!(self.policy, crate::policy::PolicyKind::TransFw) {
            let vpn = self.reqs[req].vpn;
            self.iommu.inflight.get_or_insert_with(vpn.0, Vec::new);
        }
    }

    fn sample_iommu_buffer(&mut self, t: Cycle) {
        let occupancy = (self.iommu.pre_queue.len() + self.iommu.walkers.queue_len()) as u64;
        self.metrics.iommu_buffer.record(t, occupancy);
    }

    /// A redirected request arrives at its holder GPM (step ②→peer): serve
    /// from the holder's GMMU cache or bounce back to the IOMMU if the entry
    /// was evicted meanwhile.
    pub(crate) fn on_redirect_arrive(&mut self, t: Cycle, req: ReqId, holder: u32) {
        let (vpn, requester) = {
            let r = &self.reqs[req];
            (r.vpn, r.gpm)
        };
        let lat = self.cfg.gpm.gmmu_cache.latency;
        let hit = self.tlb_lookup(Site::GmmuCache(holder), vpn);
        let from = self.gpm_coord(holder);
        match hit {
            Some((pfn, prefetched)) => {
                let to = self.gpm_coord(requester);
                let bytes = self.cfg.xlat_resp_bytes;
                let source = if prefetched {
                    Resolution::Proactive
                } else {
                    Resolution::Redirection
                };
                self.send(
                    from,
                    to,
                    bytes,
                    t + lat,
                    Event::XlatResponse { req, pfn, source },
                );
            }
            None => {
                // Stale redirection: drop the entry and walk after all.
                self.metrics.redirect_misses += 1;
                self.iommu.redirection.remove(vpn);
                self.reqs[req].redirect_failed = true;
                let cpu = self.cpu();
                let bytes = self.cfg.xlat_req_bytes;
                self.send(from, cpu, bytes, t + lat, Event::IommuArrive { req });
            }
        }
    }

    /// An IOMMU page-table walk finished (steps ④-⑦ of Fig 12).
    pub(crate) fn on_iommu_walk_done(&mut self, t: Cycle, req: ReqId) {
        let walk_latency = self.cfg.iommu.walk_latency;
        // Free the walker; the promoted PW-queue head starts walking.
        if let Some(next) = self.walker_finish(Site::IommuWalkers) {
            self.reqs[next].walk_started = t;
            self.note_walk_started(next);
            self.schedule(t + walk_latency, Event::IommuWalkDone { req: next });
            self.reqs.unpin(next);
        }
        // Refill the PW-queue from the pre-queue buffer.
        while !self.iommu.pre_queue.is_empty() && !self.iommu.walkers.is_saturated() {
            let r = self.iommu.pre_queue.pop_front().expect("non-empty");
            self.reqs[r].pw_entered = t;
            match self.walker_submit(Site::IommuWalkers, r) {
                SubmitResult::Started => {
                    self.reqs[r].walk_started = t;
                    self.note_walk_started(r);
                    self.schedule(t + walk_latency, Event::IommuWalkDone { req: r });
                    self.reqs.unpin(r);
                }
                // The pre-queue's pin moves to the PW-queue.
                SubmitResult::Queued => {}
                SubmitResult::Rejected => unreachable!("checked saturation"),
            }
        }
        self.sample_iommu_buffer(t);

        self.metrics.iommu_walks += 1;
        self.metrics.iommu_served.record(t, 1);
        let vpn = self.reqs[req].vpn;
        let pte = self
            .iommu
            .page_table
            .translate_counted(vpn)
            .unwrap_or_else(|| panic!("IOMMU walk of unmapped page {vpn}"));
        self.record_iommu_latency(t, req, true);

        // Trans-FW: forward the just-resolved walk to its piggybacked
        // requests.
        if matches!(self.policy, crate::policy::PolicyKind::TransFw) {
            for w in self.iommu.inflight.remove(vpn.0).unwrap_or_default() {
                self.metrics.iommu_coalesced += 1;
                self.respond_from_iommu(t, w, pte.pfn, Resolution::Iommu);
                self.reqs.unpin(w);
            }
        }

        // PW-queue revisit (step ⑥): complete identical pending requests.
        let hd = self.hdpat();
        let revisit = matches!(self.policy, crate::policy::PolicyKind::Barre)
            || hd.is_some_and(|h| h.queue_revisit);
        if revisit {
            let mut same = std::mem::take(&mut self.walk_scratch);
            {
                let reqs = &self.reqs;
                self.iommu
                    .walkers
                    .drain_matching_into(|r| reqs[*r].vpn == vpn, &mut same);
            }
            for &r in &same {
                self.metrics.iommu_coalesced += 1;
                self.record_iommu_latency(t, r, false);
                self.respond_from_iommu(t, r, pte.pfn, Resolution::Iommu);
                self.reqs.unpin(r);
            }
            same.clear();
            self.walk_scratch = same;
        }

        // Proactive delivery (§IV-G) and selective push (§IV-F).
        if let Some(h) = hd {
            let map_available = self.concentric.is_some();
            // Selective push of the demanded PTE once its walk count passes
            // the threshold; one copy per caching layer.
            if map_available && pte.access_count >= h.push_threshold {
                self.push_to_layers(t, vpn, false);
                if h.redirection && self.iommu.tlb.is_none() {
                    let holder = self.concentric.as_ref().expect("checked").aux_gpm(vpn, 1);
                    self.redirection_insert(vpn, holder);
                }
            }
            // Prefetch VPN N+1 … N+(degree-1); adjacent PTEs share the walked
            // leaf, so no extra walk latency is charged.
            for k in 1..h.prefetch_degree as u64 {
                let nvpn = vpn.offset(k);
                if self.iommu.page_table.contains(nvpn) {
                    self.metrics.prefetches_issued += 1;
                    if map_available {
                        self.push_to_layers(t, nvpn, true);
                        // The paper updates the redirection table for VPN
                        // N+1 only (§IV-G), limiting prefetch pollution.
                        if k == 1 && h.redirection && self.iommu.tlb.is_none() {
                            let holder =
                                self.concentric.as_ref().expect("checked").aux_gpm(nvpn, 1);
                            self.redirection_insert(nvpn, holder);
                        }
                    }
                    if let Some(tlb) = self.iommu.tlb.as_mut() {
                        // Fig 19: proactive entries flush the IOMMU TLB.
                        let pfn = self.iommu.page_table.translate(nvpn).expect("mapped").pfn;
                        tlb.fill(nvpn, pfn, true);
                    }
                }
            }
        }

        // Fig 19 variant: fill the TLB and wake MSHR waiters.
        if self.iommu.tlb.is_some() {
            self.iommu
                .tlb
                .as_mut()
                .expect("checked")
                .fill(vpn, pte.pfn, false);
            let waiters = self
                .iommu
                .tlb_mshr
                .as_mut()
                .expect("TLB variant has MSHRs")
                .complete(vpn.0);
            for w in waiters {
                if w != req {
                    self.record_iommu_latency(t, w, false);
                    self.respond_from_iommu(t, w, pte.pfn, Resolution::Iommu);
                }
                self.reqs.unpin(w);
            }
            // The freed MSHR entry admits the stall-queue head (FIFO); it
            // proceeds straight to MSHR registration.
            if let Some(w) = self.iommu.tlb_stalled.pop_front() {
                self.schedule(t, Event::IommuArrive { req: w });
                self.reqs.unpin(w);
            }
        }

        self.respond_from_iommu(t, req, pte.pfn, Resolution::Iommu);
    }

    /// Pushes a PTE copy to the designated auxiliary GPM of every caching
    /// layer (one copy per layer, §IV-F).
    fn push_to_layers(&mut self, t: Cycle, vpn: Vpn, prefetched: bool) {
        let pfn = self.iommu.page_table.translate(vpn).expect("mapped").pfn;
        let targets = self
            .concentric
            .as_ref()
            .expect("HDPAT layer map")
            .aux_gpms(vpn);
        let cpu = self.cpu();
        let bytes = self.cfg.xlat_resp_bytes;
        for (i, &target) in targets.iter().enumerate() {
            // Layers can collapse onto one GPM near the wafer edge: one copy
            // per distinct GPM.
            if targets[..i].contains(&target) {
                continue;
            }
            self.metrics.ptes_pushed += 1;
            let to = self.gpm_coord(target);
            self.send(
                cpu,
                to,
                bytes,
                t,
                Event::PushArrive {
                    gpm: target,
                    vpn,
                    pfn,
                    prefetched,
                },
            );
        }
    }

    fn respond_from_iommu(&mut self, t: Cycle, req: ReqId, pfn: wsg_xlat::Pfn, source: Resolution) {
        let to = self.gpm_coord(self.reqs[req].gpm);
        let cpu = self.cpu();
        let bytes = self.cfg.xlat_resp_bytes;
        self.send(cpu, to, bytes, t, Event::XlatResponse { req, pfn, source });
    }

    /// Records the Fig 3 per-request latency components. `walked` marks
    /// requests that performed their own walk (coalesced requests get a
    /// zero-walk share).
    #[inline]
    fn record_iommu_latency(&mut self, t: Cycle, req: ReqId, walked: bool) {
        let r = &self.reqs[req];
        let (arrived, entered, serial) = (r.iommu_arrived, r.pw_entered, r.serial);
        if arrived == NEVER || entered == NEVER {
            return;
        }
        let started = if walked && r.walk_started != NEVER {
            r.walk_started
        } else {
            t
        };
        self.metrics
            .iommu_latency
            .add("pre-queue", entered.saturating_sub(arrived));
        self.metrics
            .iommu_latency
            .add("ptw-queue", started.saturating_sub(entered));
        self.metrics
            .iommu_latency
            .add("walk", t.saturating_sub(started));
        // Mirror the three Breakdown components as spans at the IOMMU walker
        // site, so a trace shows the same decomposition as Fig 3.
        if O::ENABLED {
            let serial = u64::from(serial);
            let pre = entered.saturating_sub(arrived);
            let queue = started.saturating_sub(entered);
            let walk = t.saturating_sub(started);
            let site = Site::IommuWalkers;
            self.span("iommu.pre_queue", arrived, pre, site, serial);
            self.span("iommu.ptw_queue", entered, queue, site, serial);
            self.span("iommu.walk", started, walk, site, serial);
        }
    }
}

//! The in-flight request table: a slot array recycled through a LIFO free
//! list, so it stays as large as the peak in-flight population instead of
//! growing by one entry per issued op (DESIGN.md §16.5).
//!
//! HDPAT's concurrent layer probes leave stale copies of a request in flight
//! after it resolves — outer-layer probes, the innermost copy forwarded to
//! the IOMMU, walks queued for them — and those copies still read the
//! request they were sent for. A slot is therefore freed by *pin count*, not
//! at `DataDone`: every place that stores a [`ReqId`] holds one pin, and the
//! issued request holds one more of its own until its `DataDone` has been
//! handled. The slot returns to the free list when the last pin goes.

use std::ops::{Index, IndexMut};

use wsg_sim::Cycle;
use wsg_xlat::Vpn;

/// Index into the request table. Slots are reused once a request retires,
/// so an id names a request only while the request holds a pin; traces name
/// requests by [`Request::serial`] instead.
pub(crate) type ReqId = u32;

/// The value of a lifecycle stamp whose event has not happened yet.
pub(crate) const NEVER: Cycle = Cycle::MAX;

/// One in-flight memory operation with its translation bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    pub gpm: u32,
    pub cu: u16,
    /// Places this request's id is stored, plus one until its `DataDone`
    /// has been handled.
    pins: u16,
    /// Issue order, from 0 — the id traces use.
    pub serial: u32,
    pub vaddr: u64,
    pub vpn: Vpn,
    /// Lifecycle stamps; [`NEVER`] until the stage is reached.
    pub remote_started: Cycle,
    pub iommu_arrived: Cycle,
    pub pw_entered: Cycle,
    pub walk_started: Cycle,
    /// GPMs probed so far: always a prefix of the requester's frozen probe
    /// chain, filled with the PTE on response (the opportunistic caching of
    /// the route/concentric baselines).
    pub probed: u8,
    /// Set when a redirection attempt failed, so the IOMMU does not redirect
    /// the same request twice.
    pub redirect_failed: bool,
    /// Set once a translation response has been accepted (duplicate probe
    /// replies are ignored).
    pub resolved: bool,
}

// One cache line per request.
const _: () = assert!(std::mem::size_of::<Request>() <= 64);

/// The request slots and their free list.
#[derive(Debug, Default)]
pub(crate) struct ReqTable {
    slots: Vec<Request>,
    free: Vec<ReqId>,
    issued: u32,
}

impl ReqTable {
    /// Stores a just-issued request in a free slot (the most recently freed
    /// one, which is likely still cached) and returns its id. The request
    /// starts with its own pin, released once its `DataDone` has been
    /// handled.
    pub(crate) fn issue(&mut self, gpm: u32, cu: u32, vaddr: u64, vpn: Vpn) -> ReqId {
        let req = Request {
            gpm,
            cu: u16::try_from(cu).expect("CU index fits the request table"),
            pins: 1,
            serial: self.issued,
            vaddr,
            vpn,
            remote_started: NEVER,
            iommu_arrived: NEVER,
            pw_entered: NEVER,
            walk_started: NEVER,
            probed: 0,
            redirect_failed: false,
            resolved: false,
        };
        self.issued += 1;
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = req;
                id
            }
            None => {
                self.slots.push(req);
                (self.slots.len() - 1) as ReqId
            }
        }
    }

    /// Records one more stored copy of `id`.
    #[inline]
    pub(crate) fn pin(&mut self, id: ReqId) {
        self.slots[id as usize].pins += 1;
    }

    /// Drops one stored copy of `id`, freeing the slot with the last pin.
    #[inline]
    pub(crate) fn unpin(&mut self, id: ReqId) {
        let r = &mut self.slots[id as usize];
        debug_assert!(r.pins > 0, "request slot {id} unpinned below zero");
        r.pins -= 1;
        if r.pins == 0 {
            self.free.push(id);
        }
    }

    /// Requests still holding a pin, in slot order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &Request> {
        self.slots.iter().filter(|r| r.pins > 0)
    }

    /// Number of slots ever allocated (the table's high-water mark).
    #[cfg(test)]
    fn slots(&self) -> usize {
        self.slots.len()
    }

    /// End-of-run conservation: every slot is back on the free list with no
    /// pins left, i.e. no handler leaked or double-released a request id.
    pub(crate) fn assert_all_free(&self) {
        let pinned = self.live().count();
        assert!(
            pinned == 0 && self.free.len() == self.slots.len(),
            "request table leaked: {pinned} pinned slot(s), {} of {} slots free",
            self.free.len(),
            self.slots.len()
        );
    }
}

impl Index<ReqId> for ReqTable {
    type Output = Request;

    #[inline]
    fn index(&self, id: ReqId) -> &Request {
        &self.slots[id as usize]
    }
}

impl IndexMut<ReqId> for ReqTable {
    #[inline]
    fn index_mut(&mut self, id: ReqId) -> &mut Request {
        &mut self.slots[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut t = ReqTable::default();
        let a = t.issue(0, 0, 0, Vpn(1));
        let b = t.issue(0, 1, 0, Vpn(2));
        t.unpin(a);
        t.unpin(b);
        assert_eq!(t.issue(0, 2, 0, Vpn(3)), b);
        assert_eq!(t.issue(0, 3, 0, Vpn(4)), a);
        assert_eq!(t.slots(), 2);
        // Serials keep counting across reuse.
        assert_eq!(t[a].serial, 3);
    }

    #[test]
    fn a_pinned_slot_outlives_its_retirement() {
        let mut t = ReqTable::default();
        let a = t.issue(0, 0, 0, Vpn(1));
        t.pin(a); // a stale probe still in flight
        t.unpin(a);
        assert_eq!(t.live().count(), 1);
        assert_ne!(t.issue(0, 0, 0, Vpn(2)), a);
        t.unpin(a);
        assert_eq!(t.issue(0, 0, 0, Vpn(3)), a);
    }

    #[test]
    #[should_panic(expected = "request table leaked")]
    fn leaked_pins_fail_the_end_of_run_check() {
        let mut t = ReqTable::default();
        let a = t.issue(0, 0, 0, Vpn(1));
        t.pin(a);
        t.unpin(a);
        t.assert_all_free();
    }

    #[test]
    fn a_run_recycles_slots_instead_of_growing_per_op() {
        use crate::experiments::RunConfig;
        use crate::policy::PolicyKind;
        use crate::sim::Simulation;
        use wsg_workloads::{BenchmarkId, Scale};

        let cfg = RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::hdpat());
        let gpm = cfg.system.gpm;
        let mut sim = Simulation::new(cfg.system.clone(), cfg.policy, cfg.benchmark, cfg.scale, 7);
        let mut batch = Vec::new();
        while sim.queue.drain_bucket(&mut batch) > 0 {
            let t = sim.queue.now();
            for ev in batch.drain(..) {
                sim.dispatch(t, ev);
            }
        }
        sim.reqs.assert_all_free();
        // Every CU keeps at most `max_outstanding_per_cu` requests live;
        // stale HDPAT copies add a little on top.
        let live_bound = sim.gpms.len() * gpm.cus as usize * gpm.max_outstanding_per_cu;
        let (slots, issued) = (sim.reqs.slots(), sim.reqs.issued as usize);
        assert!(
            slots <= live_bound,
            "{slots} slots for at most {live_bound} live"
        );
        assert!(slots * 4 < issued, "{slots} slots for {issued} issued ops");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unpinned below zero")]
    fn unpinning_a_free_slot_is_caught() {
        let mut t = ReqTable::default();
        let a = t.issue(0, 0, 0, Vpn(1));
        t.unpin(a);
        t.unpin(a);
    }
}

//! The full-system discrete-event simulator.
//!
//! One [`Simulation`] owns the wafer: per-GPM translation and memory
//! hierarchies, the central IOMMU, the mesh, the in-flight request table and
//! a single event queue. Handlers are grouped by concern:
//!
//! * `translate` — the GPM-side translation path (TLBs, cuckoo filter,
//!   GMMU walks) and the policy-specific remote path (probe chains, parallel
//!   layer probes).
//! * `iommu` — arrival, redirection, PW-queue, walks, revisit coalescing,
//!   proactive delivery and selective push.
//! * `data` — the post-translation data access (caches, HBM, remote
//!   cacheline fetches).
//! * `reqs` — the in-flight request table: recycled slots, freed by pin
//!   count (DESIGN.md §16.5).
//! * `observe` — typed sites and the hooked structure calls through which
//!   the engine reports to its one [`Observer`].
//!
//! A plain run uses the observer `()`, which compiles every hook away; a
//! [`wsg_sim::trace::TraceSink`], [`wsg_sim::telemetry::TelemetrySink`] or
//! a pair of them observes a run chosen at runtime, with byte-identical
//! metrics.

mod data;
mod iommu;
mod observe;
mod reqs;
mod translate;

use std::collections::VecDeque;

use wsg_gpu::{AddressSpace, CuPipeline, SystemConfig, WorkgroupTrace};
use wsg_mem::{Hbm, Mshr, SetAssocCache};
use wsg_noc::{Coord, Mesh};
use wsg_sim::{Cycle, EventQueue, HashIndex, Observer};
use wsg_workloads::{BenchmarkId, Scale};
use wsg_xlat::{CuckooFilter, PageTable, Pfn, RedirectionTable, Tlb, TlbConfig, Vpn, WalkerPool};

use crate::layers::{self, ConcentricMap};
use crate::metrics::{Metrics, Resolution};
use crate::migration::MigrationConfig;
use crate::policy::{HdpatConfig, PolicyKind};

/// Cuckoo-filter query latency in cycles.
pub(crate) const CUCKOO_LATENCY: Cycle = 2;
/// Retry backoff when an MSHR or walker queue is full.
pub(crate) const RETRY_BACKOFF: Cycle = 32;
/// Router ejection + port scheduling overhead charged per serial probe
/// attempt (the repeated-translation-attempt penalty of §IV-B).
pub(crate) const PROBE_OVERHEAD: Cycle = 30;
/// Aggregation window of the IOMMU time series.
pub(crate) const TIME_WINDOW: Cycle = 10_000;
/// Safety cap on the event count: blowing past it indicates a scheduling
/// bug (an event storm), not a big workload. Checked in every build, once
/// per delivered batch.
pub(crate) const EVENT_CAP: u64 = 2_000_000_000;

/// Panics once `delivered` reaches [`EVENT_CAP`]. A release `assert!`, so
/// a runaway run stops instead of spinning forever; one compare per batch
/// is noise next to the batch's handlers.
#[inline]
pub(crate) fn check_event_cap(delivered: u64) {
    assert!(
        delivered < EVENT_CAP,
        "event explosion: {delivered} events delivered (cap {EVENT_CAP})"
    );
}

pub(crate) use observe::Site;
pub(crate) use reqs::{ReqId, ReqTable, NEVER};

/// One drained batch in this many is timed by the engine's phase profiler
/// (dispatch vs handler host time, reported through [`crate::ops`]).
const SELFPROF_PERIOD: u64 = 64;

/// One compute unit: issue pipeline plus its private L1 TLB and L1 cache.
#[derive(Debug)]
pub(crate) struct CuSlot {
    pub pipeline: CuPipeline,
    pub l1_tlb: Tlb,
    pub l1_cache: SetAssocCache,
}

/// Per-GPM simulator state.
#[derive(Debug)]
pub(crate) struct GpmState {
    pub cus: Vec<CuSlot>,
    pub l2_tlb: Tlb,
    pub cuckoo: CuckooFilter,
    /// Last-level TLB / GMMU cache; holds local translations *and* the
    /// auxiliary (pushed) remote PTEs without priority difference (§V-A).
    pub gmmu_cache: Tlb,
    pub walkers: WalkerPool<ReqId>,
    pub page_table: PageTable,
    pub l2_cache: SetAssocCache,
    pub hbm: Hbm,
    /// L2-TLB MSHR for outgoing remote translations: VPN → waiters
    /// coalesced behind the primary request. A seeded [`HashIndex`] keyed by
    /// raw VPN; the stalled-CU panic formatter sorts on demand, so reporting
    /// stays deterministic (lint rules d1/d6).
    pub remote_mshr: HashIndex<Vec<ReqId>>,
    /// Requests stalled because every MSHR entry is occupied; drained in
    /// FIFO order as entries free up.
    pub mshr_stalled: VecDeque<ReqId>,
}

/// The central IOMMU state.
#[derive(Debug)]
pub(crate) struct IommuState {
    pub walkers: WalkerPool<ReqId>,
    /// The input ("pre-queue") buffer requests wait in while the PW-queue is
    /// full (Fig 3's pre-queue component, Fig 4's buffer).
    pub pre_queue: VecDeque<ReqId>,
    pub redirection: RedirectionTable,
    /// The Fig 19 alternative: a conventional TLB (with MSHRs) in place of
    /// the redirection table.
    pub tlb: Option<Tlb>,
    pub tlb_mshr: Option<Mshr<ReqId>>,
    /// Requests blocked outside the IOMMU TLB because its MSHRs are full
    /// (Fig 19's concurrency pathology); drained one per walk completion.
    pub tlb_stalled: VecDeque<ReqId>,
    pub page_table: PageTable,
    /// Trans-FW's in-flight walk table: requests arriving for a VPN whose
    /// walk is already queued or running piggyback on it instead of
    /// enqueueing their own (remote forwarding of in-flight results).
    pub inflight: HashIndex<Vec<ReqId>>,
}

/// Simulator events.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A CU tries to issue its next memory operation.
    CuIssue { gpm: u32, cu: u32 },
    /// A GMMU page-table walk finished at `gpm`.
    GmmuWalkDone { gpm: u32, req: ReqId },
    /// Retry a GMMU walk submission that found the queue full.
    GmmuRetry { gpm: u32, req: ReqId },
    /// A serial probe arrives at `chain[idx]` of the request's chain.
    ChainProbe { req: ReqId, idx: usize },
    /// An HDPAT concurrent layer probe arrives at `target`.
    ParallelProbe {
        req: ReqId,
        target: u32,
        innermost: bool,
    },
    /// A translation request arrives at the IOMMU.
    IommuArrive { req: ReqId },
    /// An IOMMU page-table walk finished.
    IommuWalkDone { req: ReqId },
    /// A redirected request arrives at its holder GPM.
    RedirectArrive { req: ReqId, holder: u32 },
    /// A pushed PTE arrives at an auxiliary GPM.
    PushArrive {
        gpm: u32,
        vpn: Vpn,
        pfn: Pfn,
        prefetched: bool,
    },
    /// The final translation response arrives at the requesting GPM.
    XlatResponse {
        req: ReqId,
        pfn: Pfn,
        source: Resolution,
    },
    /// A remote data request arrived at the page's home GPM.
    DataAtHome { req: ReqId, home: u32 },
    /// The home GPM's L2/HBM produced the line; send it back.
    DataReturn { req: ReqId, home: u32 },
    /// The post-translation data access completed.
    DataDone { req: ReqId },
}

/// The full-system simulator. Construct with [`Simulation::new`] (generated
/// workload) or [`Simulation::with_traces`] (caller-provided traces), then
/// call [`Simulation::run`]; [`Simulation::observed`] builds one that
/// reports to observer `O`, and [`Simulation::run_observed`] hands the
/// observer back with the metrics.
#[derive(Debug)]
pub struct Simulation<O: Observer = ()> {
    pub(crate) cfg: SystemConfig,
    pub(crate) policy: PolicyKind,
    pub(crate) space: AddressSpace,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) mesh: Mesh,
    pub(crate) gpms: Vec<GpmState>,
    pub(crate) iommu: IommuState,
    pub(crate) reqs: ReqTable,
    pub(crate) metrics: Metrics,
    pub(crate) concentric: Option<ConcentricMap>,
    /// Per-GPM serial probe chains, precomputed per policy.
    pub(crate) chains: Vec<Vec<u32>>,
    pub(crate) last_iommu_vpn: Option<Vpn>,
    /// Reusable buffer for walker-queue revisit drains, taken and returned
    /// around each [`wsg_xlat::WalkerPool::drain_matching_into`] call so the
    /// hot dispatch path never allocates for coalesced walks.
    pub(crate) walk_scratch: Vec<ReqId>,
    /// Optional page-migration extension (see [`crate::migration`]).
    pub(crate) migration: Option<MigrationConfig>,
    /// Dynamic home overrides for migrated pages (checked before the static
    /// block placement).
    pub(crate) home_override: HashIndex<u32>,
    /// Per-page (last remote consumer, consecutive-access streak).
    pub(crate) access_streak: HashIndex<(u32, u32)>,
    /// The run's one observer (`()` for a plain run).
    pub(crate) obs: O,
    /// Issue cycle per request slot, for the whole-translation span;
    /// written only when the observer is enabled.
    pub(crate) issued: Vec<Cycle>,
}

impl Simulation {
    /// Builds a simulation of `benchmark` at `scale` under `policy`.
    pub fn new(
        system: SystemConfig,
        policy: PolicyKind,
        benchmark: BenchmarkId,
        scale: Scale,
        seed: u64,
    ) -> Self {
        let mut space = AddressSpace::new(system.page_size, system.gpm_count() as u32);
        let traces = wsg_workloads::generate(benchmark, scale, &mut space, seed);
        Self::with_traces(system, policy, space, traces)
    }

    /// Builds a simulation from caller-provided traces (for custom
    /// workloads). Workgroup `i` of `n` runs on GPM `i·G/n`; within a GPM,
    /// workgroups are round-robined over its CUs.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the address space's GPM count does not
    /// match the system layout.
    pub fn with_traces(
        system: SystemConfig,
        policy: PolicyKind,
        space: AddressSpace,
        traces: Vec<WorkgroupTrace>,
    ) -> Self {
        Self::observed(system, policy, space, traces, ())
    }

    /// Runs the simulation to completion and returns the collected metrics.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if the event count explodes past a
    /// safety cap of 2·10⁹ events (indicating a scheduling bug rather than a
    /// big workload); the check runs once per delivered batch.
    pub fn run(self) -> Metrics {
        self.run_observed().0
    }
}

impl<O: Observer> Simulation<O> {
    /// [`Simulation::with_traces`] reporting to `obs`. Observation is
    /// purely observational: metrics are byte-identical to a plain run
    /// (`tests/trace_determinism.rs`, `tests/telemetry_determinism.rs`).
    ///
    /// # Panics
    ///
    /// As [`Simulation::with_traces`].
    pub fn observed(
        system: SystemConfig,
        policy: PolicyKind,
        space: AddressSpace,
        traces: Vec<WorkgroupTrace>,
        obs: O,
    ) -> Self {
        assert!(!traces.is_empty(), "no workgroups to simulate");
        assert_eq!(
            space.gpm_count() as usize,
            system.gpm_count(),
            "address space and wafer disagree on GPM count"
        );
        let g = system.gpm_count();

        let concentric = match policy {
            PolicyKind::Hdpat(h) => Some(ConcentricMap::new(
                &system.layout,
                h.caching_layers.min(system.layout.max_layer()),
                h.rotation,
            )),
            _ => None,
        };
        let chains: Vec<Vec<u32>> = (0..g as u32)
            .map(|id| match policy {
                PolicyKind::RouteCache { .. } => layers::route_chain(&system.layout, id),
                PolicyKind::Concentric { caching_layers } => {
                    layers::concentric_chain(&system.layout, caching_layers, id)
                }
                PolicyKind::Distributed => layers::nearest_group_peer(&system.layout, id)
                    .into_iter()
                    .collect(),
                PolicyKind::Valkyrie => layers::nearest_neighbor(&system.layout, id)
                    .into_iter()
                    .collect(),
                _ => Vec::new(),
            })
            .collect();

        // Build per-GPM state and page tables from the address space.
        let mut gpms: Vec<GpmState> = (0..g as u32)
            .map(|_id| {
                let gc = system.gpm;
                GpmState {
                    cus: (0..gc.cus)
                        .map(|_| CuSlot {
                            pipeline: CuPipeline::new(gc.max_outstanding_per_cu),
                            l1_tlb: Tlb::new(gc.l1_tlb),
                            l1_cache: SetAssocCache::new(gc.l1_cache),
                        })
                        .collect(),
                    l2_tlb: Tlb::new(gc.l2_tlb),
                    cuckoo: CuckooFilter::with_capacity(gc.cuckoo_capacity),
                    gmmu_cache: Tlb::new(gc.gmmu_cache),
                    walkers: WalkerPool::new(gc.gmmu_walkers, gc.gmmu_queue),
                    page_table: PageTable::new(),
                    l2_cache: SetAssocCache::new(gc.l2_cache),
                    hbm: Hbm::new(gc.hbm),
                    remote_mshr: HashIndex::with_capacity(gc.l2_tlb.mshrs.max(1)),
                    mshr_stalled: VecDeque::new(),
                }
            })
            .collect();

        let mut global_pt = PageTable::with_capacity(space.total_pages() as usize);
        for (vpn, home) in space.iter_pages() {
            let pfn = Pfn(vpn.0); // identity frame mapping
            global_pt.map(vpn, pfn, home);
            gpms[home as usize].page_table.map(vpn, pfn, home);
            gpms[home as usize].cuckoo.insert(vpn.0);
        }

        let iommu_cfg = system.iommu;
        let use_tlb = matches!(policy, PolicyKind::Hdpat(h) if h.iommu_tlb_instead);
        let iommu = IommuState {
            walkers: WalkerPool::new(iommu_cfg.walkers, iommu_cfg.pw_queue),
            pre_queue: VecDeque::new(),
            redirection: RedirectionTable::new(iommu_cfg.redirection_entries),
            // Same-area TLB: half the entries of the redirection table
            // (512 vs 1024, §V-E), 4-way, with 32 MSHRs.
            tlb: use_tlb.then(|| {
                Tlb::new(TlbConfig {
                    sets: (iommu_cfg.redirection_entries / 2 / 4).next_power_of_two(),
                    ways: 4,
                    latency: 8,
                    mshrs: 32,
                })
            }),
            // 32 MSHRs x 8 target slots at the paper's 1024-entry scale;
            // shrinks with the table so the blocking behaviour of Fig 19 is
            // preserved at reduced scale.
            tlb_mshr: use_tlb
                .then(|| Mshr::with_targets((iommu_cfg.redirection_entries / 32).max(8), 8)),
            tlb_stalled: VecDeque::new(),
            page_table: global_pt,
            inflight: HashIndex::new(),
        };

        let mesh = Mesh::new(system.layout.width(), system.layout.height(), system.link);
        let metrics = Metrics::new(g, TIME_WINDOW);
        let peak_outstanding = g * system.gpm.cus as usize;

        let mut sim = Self {
            cfg: system,
            policy,
            space,
            // Far-future overflow tier pre-sized to the wafer's maximum
            // outstanding-request population (ring pushes dominate, but HBM
            // refresh-style long delays land here).
            queue: EventQueue::with_capacity(peak_outstanding),
            mesh,
            gpms,
            iommu,
            reqs: ReqTable::default(),
            metrics,
            concentric,
            chains,
            last_iommu_vpn: None,
            walk_scratch: Vec::new(),
            migration: None,
            home_override: HashIndex::new(),
            access_streak: HashIndex::new(),
            obs,
            issued: Vec::new(),
        };

        // Dispatch workgroups breadth-first (round-robin) across GPMs, the
        // way GPU runtimes launch blocks across compute dies; pages are
        // block-partitioned (§II-A), so workgroups and their data generally
        // land on different GPMs — the source of the wafer-scale
        // translation pressure of observations O1/O2.
        let mut next_cu = vec![0u32; g];
        for (i, wg) in traces.into_iter().enumerate() {
            if wg.is_empty() {
                continue;
            }
            let gpm = i % g;
            let cu = next_cu[gpm];
            next_cu[gpm] = (cu + 1) % sim.cfg.gpm.cus;
            sim.gpms[gpm].cus[cu as usize].pipeline.push_workgroup(wg);
        }
        // Kick every CU.
        for gpm in 0..g as u32 {
            for cu in 0..sim.cfg.gpm.cus {
                sim.queue.push(0, Event::CuIssue { gpm, cu });
            }
        }
        sim
    }

    /// The active translation policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Enables the streak-based page-migration extension (see
    /// [`crate::migration`]); reached through
    /// [`crate::experiments::RunConfig::with_migration`].
    pub(crate) fn with_migration(mut self, cfg: MigrationConfig) -> Self {
        self.migration = Some(cfg);
        self
    }

    /// The current home GPM of `vpn`: a migrated override if present,
    /// otherwise the static block placement.
    pub(crate) fn home_of(&self, vpn: Vpn) -> Option<u32> {
        // Only migration fills the override table; skip the hash probe on
        // the (common) runs where it is empty.
        if !self.home_override.is_empty() {
            if let Some(&home) = self.home_override.get(vpn.0) {
                return Some(home);
            }
        }
        self.space.home_gpm(vpn)
    }

    /// The HDPAT configuration, if the active policy is in the HDPAT family.
    pub(crate) fn hdpat(&self) -> Option<HdpatConfig> {
        match self.policy {
            PolicyKind::Hdpat(h) => Some(h),
            _ => None,
        }
    }

    /// Runs the simulation to completion and returns the collected metrics
    /// together with the observer.
    ///
    /// # Panics
    ///
    /// As [`Simulation::run`].
    pub fn run_observed(mut self) -> (Metrics, O) {
        #[expect(
            clippy::disallowed_methods,
            reason = "events-per-second accounting only; the reading lands in `Metrics::host_wall_nanos`, which is excluded from the deterministic serialization, and never feeds back into the model"
        )]
        let wall_start = std::time::Instant::now();
        // Batched dispatch (DESIGN.md §16): drain one whole calendar bucket
        // per iteration, amortizing the queue's bitmap scan and clock
        // bookkeeping. `drain_bucket` delivers the `(time, seq)` stream of
        // the reference heap queue — handlers scheduling more work at `t`
        // see it arrive in a later batch, after the current one.
        let mut batch: Vec<Event> = Vec::new();
        // Sampled phase profiler: one batch in SELFPROF_PERIOD is timed, so
        // the clock reads cost nothing measurable. Host time lands in
        // `ops::engine()` only, never in simulation state.
        let mut prof = crate::ops::SelfProf::default();
        loop {
            let timed = prof.batches % SELFPROF_PERIOD == 0;
            #[expect(
                clippy::disallowed_methods,
                reason = "sampled phase timer, ops registry only"
            )]
            let d0 = timed.then(std::time::Instant::now);
            let drained = self.queue.drain_bucket(&mut batch);
            if drained == 0 {
                break;
            }
            let h0 = d0.map(|d0| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "sampled phase timer, ops registry only"
                )]
                let h0 = std::time::Instant::now();
                prof.dispatch_nanos += (h0 - d0).as_nanos() as u64;
                h0
            });
            let t = self.queue.now();
            for ev in batch.drain(..) {
                self.dispatch(t, ev);
            }
            if let Some(h0) = h0 {
                prof.handler_nanos += h0.elapsed().as_nanos() as u64;
                prof.sampled_batches += 1;
            }
            prof.batches += 1;
            check_event_cap(self.queue.total_popped());
        }
        crate::ops::engine().record_selfprof(prof);
        // All CUs must have drained; anything else is a lost-wakeup bug.
        for (g, gpm) in self.gpms.iter().enumerate() {
            for (c, cu) in gpm.cus.iter().enumerate() {
                if !cu.pipeline.is_drained() {
                    let stamp = |c: Cycle| (c != NEVER).then_some(c);
                    let stuck: Vec<String> = self
                        .reqs
                        .live()
                        .filter(|r| r.gpm == g as u32 && !r.resolved && r.remote_started != NEVER)
                        .map(|r| {
                            format!(
                                "req{} vpn={} arr={:?} pw={:?} walk={:?} rdf={}",
                                r.serial,
                                r.vpn,
                                stamp(r.iommu_arrived),
                                stamp(r.pw_entered),
                                stamp(r.walk_started),
                                r.redirect_failed
                            )
                        })
                        .collect();
                    let parked = gpm.mshr_stalled.len();
                    let mshr: Vec<String> = gpm
                        .remote_mshr
                        .iter_sorted()
                        .map(|(v, w)| format!("{}:{}", Vpn(v), w.len()))
                        .collect();
                    panic!(
                        "CU {c} of GPM {g} stalled with work remaining; parked={parked} mshr={mshr:?} stuck={stuck:?} iommu_busy={} iommu_q={} pre_q={}",
                        self.iommu.walkers.busy(), self.iommu.walkers.queue_len(), self.iommu.pre_queue.len()
                    );
                }
            }
        }
        // Conservation: every scheduled event was consumed, and every
        // request slot was released by its last holder.
        self.queue.drain_check();
        self.reqs.assert_all_free();
        self.mesh.check_conservation();
        // Close the observation at the last event time (telemetry samples
        // its remaining whole epochs plus the trailing partial one).
        if O::ENABLED {
            let end = self.queue.now();
            self.observe_counters(end, true);
        }
        self.metrics.total_cycles = self.metrics.gpm_finish.iter().copied().max().unwrap_or(0);
        self.metrics.sim_events = self.queue.total_popped();
        self.metrics.host_wall_nanos = wall_start.elapsed().as_nanos() as u64;
        self.metrics.noc_bytes = self.mesh.total_bytes();
        self.metrics.noc_hop_bytes = self.mesh.total_hop_bytes();
        self.metrics.noc_packets = self.mesh.total_packets();
        // Free the engine before the batch buffer: `sim` is declared after
        // `batch`, so it drops first. Freeing the buffer first fragments the
        // heap: 6 MiB more peak RSS on the benchmark's xlat-remote workload
        // at seed 42.
        let sim = self;
        (sim.metrics, sim.obs)
    }

    /// The request id an event is about, if any.
    fn event_req(ev: &Event) -> Option<ReqId> {
        match ev {
            Event::GmmuWalkDone { req, .. }
            | Event::GmmuRetry { req, .. }
            | Event::ChainProbe { req, .. }
            | Event::ParallelProbe { req, .. }
            | Event::IommuArrive { req }
            | Event::IommuWalkDone { req }
            | Event::RedirectArrive { req, .. }
            | Event::XlatResponse { req, .. }
            | Event::DataAtHome { req, .. }
            | Event::DataReturn { req, .. }
            | Event::DataDone { req } => Some(*req),
            Event::CuIssue { .. } | Event::PushArrive { .. } => None,
        }
    }

    /// Runs the handler of `ev`, then releases the request pin the event
    /// took in [`Simulation::schedule`].
    fn dispatch(&mut self, t: Cycle, ev: Event) {
        let req = Self::event_req(&ev);
        if O::ENABLED {
            // Epochs are sampled lazily off the event stream rather than via
            // scheduled events: the queue's sequence numbers and popped count
            // stay exactly as in a plain run, and state cannot change between
            // events, so sampling at the first event past an epoch boundary
            // observes the same values an end-of-epoch probe would have.
            if t >= self.obs.next_epoch() {
                self.observe_counters(t, false);
            }
            let rid = req
                .map(|r| u64::from(self.reqs[r].serial))
                .unwrap_or(wsg_sim::trace::NO_REQ);
            self.obs.context(t, rid);
        }
        match ev {
            Event::CuIssue { gpm, cu } => self.on_cu_issue(t, gpm, cu),
            Event::GmmuWalkDone { gpm, req } => self.on_gmmu_walk_done(t, gpm, req),
            Event::GmmuRetry { gpm, req } => self.submit_gmmu_walk(t, gpm, req),
            Event::ChainProbe { req, idx } => self.on_chain_probe(t, req, idx),
            Event::ParallelProbe {
                req,
                target,
                innermost,
            } => self.on_parallel_probe(t, req, target, innermost),
            Event::IommuArrive { req } => self.on_iommu_arrive(t, req),
            Event::IommuWalkDone { req } => self.on_iommu_walk_done(t, req),
            Event::RedirectArrive { req, holder } => self.on_redirect_arrive(t, req, holder),
            Event::PushArrive {
                gpm,
                vpn,
                pfn,
                prefetched,
            } => self.on_push_arrive(gpm, vpn, pfn, prefetched),
            Event::XlatResponse { req, pfn, source } => self.on_xlat_response(t, req, pfn, source),
            Event::DataAtHome { req, home } => self.on_data_at_home(t, req, home),
            Event::DataReturn { req, home } => self.on_data_return(t, req, home),
            Event::DataDone { req } => self.on_data_done(t, req),
        }
        if let Some(r) = req {
            self.reqs.unpin(r);
        }
    }

    /// Schedules `ev` to fire at absolute cycle `time`. Every handler goes
    /// through this seam; a queued event pins its request until it has been
    /// dispatched.
    #[inline(always)]
    pub(crate) fn schedule(&mut self, time: Cycle, ev: Event) {
        if let Some(r) = Self::event_req(&ev) {
            self.reqs.pin(r);
        }
        self.queue.push(time, ev);
    }

    /// Sends `ev` as a packet of `bytes` from tile `from` to tile `to`,
    /// scheduling it at the mesh-computed arrival time. Kept out of line:
    /// inlined into its ~30 call sites it bloats the handlers, and fig14
    /// ran ~5% slower that way.
    #[inline(never)]
    pub(crate) fn send(&mut self, from: Coord, to: Coord, bytes: u64, depart: Cycle, ev: Event) {
        let out = self.mesh_send(from, to, bytes, depart);
        self.schedule(out.arrival, ev);
    }

    /// The tile of GPM `id`.
    pub(crate) fn gpm_coord(&self, id: u32) -> Coord {
        self.cfg.layout.coord_of(id)
    }

    /// The CPU tile (IOMMU location).
    pub(crate) fn cpu(&self) -> Coord {
        self.cfg.layout.cpu()
    }

    fn on_cu_issue(&mut self, t: Cycle, gpm: u32, cu: u32) {
        let slot = &mut self.gpms[gpm as usize].cus[cu as usize];
        let Some((issue_at, _)) = slot.pipeline.next_issue(t) else {
            return;
        };
        let vaddr = slot.pipeline.issue(issue_at).vaddr;
        let vpn = self.cfg.page_size.vpn_of(vaddr);
        let req = self.reqs.issue(gpm, cu, vaddr, vpn);
        if O::ENABLED {
            let slot = req as usize;
            if self.issued.len() <= slot {
                self.issued.resize(slot + 1, 0);
            }
            self.issued[slot] = issue_at;
            self.obs.context(issue_at, u64::from(self.reqs[req].serial));
            self.note("issue", Site::Gpm(gpm), vpn.0);
        }
        self.start_translation(issue_at, req);
        // Chain the next issue: gaps accumulate from this issue time.
        self.schedule(issue_at, Event::CuIssue { gpm, cu });
    }

    fn on_data_done(&mut self, t: Cycle, req: ReqId) {
        let r = &self.reqs[req];
        let (g, c) = (r.gpm, u32::from(r.cu));
        self.gpms[g as usize].cus[c as usize]
            .pipeline
            .complete_at(t);
        self.metrics.ops_completed += 1;
        let f = &mut self.metrics.gpm_finish[g as usize];
        *f = (*f).max(t);
        // Release the request's own pin; stale copies may still hold it.
        self.reqs.unpin(req);
        self.schedule(t, Event::CuIssue { gpm: g, cu: c });
    }
}

#[cfg(test)]
mod tests {
    use super::{check_event_cap, EVENT_CAP};

    #[test]
    fn event_cap_admits_counts_below_it() {
        check_event_cap(EVENT_CAP - 1);
    }

    // Not gated on `debug_assertions`: the cap must stop a release run too.
    #[test]
    #[should_panic(expected = "event explosion")]
    fn event_cap_panics_in_every_profile() {
        check_event_cap(EVENT_CAP);
    }
}

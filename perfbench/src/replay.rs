//! Layer replay: drives each leaf structure directly through its public API
//! on the workload's own generated access stream, with the structure sizes
//! of `RunConfig::new(..).system`.
//!
//! This is a proxy. The simulator calls these structures from inside
//! `Simulation::run`, interleaved with everything else, so replaying the
//! stream is the only way to time them from outside the program. The
//! replay is not the simulator's exact call sequence: every access goes
//! through its GPM's L2 TLB and L2 cache; TLB misses probe the cuckoo
//! filter and the page table; misses on pages homed elsewhere go through
//! the IOMMU's redirection table, walker pool and MSHR; remote accesses
//! cross the mesh; cache misses reach HBM; and every access is one event
//! pushed and drained through a calendar queue.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use hdpat::experiments::RunConfig;
use hdpat::PolicyKind;
use wsg_gpu::AddressSpace;
use wsg_mem::{Hbm, Mshr, MshrOutcome, SetAssocCache};
use wsg_noc::Mesh;
use wsg_sim::EventQueue;
use wsg_workloads::{BenchmarkId, Scale};
use wsg_xlat::{
    CuckooFilter, PageTable, Pfn, RedirectionTable, SubmitResult, Tlb, Vpn, WalkerPool,
};

use crate::Sink;

/// Accesses replayed per benchmark (its workgroups interleaved round-robin,
/// truncated here).
const OPS_PER_BENCH: usize = 200_000;

/// One access of the interleaved stream.
struct Access {
    gpm: u32,
    home: u32,
    vpn: Vpn,
    addr: u64,
    gap: u64,
    step: u64,
}

/// Time and outcome totals of one structure across benchmarks.
#[derive(Default)]
struct Tally {
    nanos: f64,
    calls: u64,
    hits: u64,
}

impl Tally {
    fn add(&mut self, d: Duration, calls: usize, hits: u64) {
        self.nanos += d.as_secs_f64() * 1e9;
        self.calls += calls as u64;
        self.hits += hits;
    }

    fn ns(&self) -> f64 {
        self.nanos / self.calls.max(1) as f64
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.calls.max(1) as f64
    }
}

/// The first `OPS_PER_BENCH` accesses of `bench`, workgroup `i` on GPM
/// `i mod G` as in the simulator, interleaved one op per workgroup per step.
fn stream(bench: BenchmarkId, scale: Scale, seed: u64) -> (RunConfig, AddressSpace, Vec<Access>) {
    let cfg = RunConfig::new(bench, scale, PolicyKind::Naive).with_seed(seed);
    let g = cfg.system.gpm_count();
    let mut space = AddressSpace::new(cfg.system.page_size, g as u32);
    let traces = wsg_workloads::generate(bench, scale, &mut space, seed);
    let ps = space.page_size();
    let longest = traces.iter().map(|w| w.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(OPS_PER_BENCH);
    'fill: for step in 0..longest {
        for (i, wg) in traces.iter().enumerate() {
            let Some(op) = wg.ops.get(step) else { continue };
            let vpn = ps.vpn_of(op.vaddr);
            out.push(Access {
                gpm: (i % g) as u32,
                home: space.home_gpm(vpn).unwrap_or(0),
                vpn,
                addr: op.vaddr,
                gap: op.gap,
                step: step as u64,
            });
            if out.len() == OPS_PER_BENCH {
                break 'fill;
            }
        }
    }
    (cfg, space, out)
}

/// Replays every benchmark's stream and records the per-structure metrics.
pub fn replay(sink: &mut Sink, benches: &[BenchmarkId], scale: Scale, seed: u64) {
    let mut t: BTreeMap<&'static str, Tally> = BTreeMap::new();
    for &b in benches {
        replay_one(&mut t, b, scale, seed);
    }
    let mut tally = |name: &'static str| t.remove(name).unwrap_or_default();
    let tlb = tally("tlb");
    sink.set("xlat.tlb.lookup_ns", tlb.ns());
    sink.set("xlat.tlb.hit_ratio", tlb.hit_ratio());
    sink.set("xlat.cuckoo.contains_ns", tally("cuckoo").ns());
    sink.set("xlat.page_table.translate_ns", tally("page_table").ns());
    let rt = tally("redirection");
    sink.set("xlat.redirection.lookup_ns", rt.ns());
    sink.set("xlat.redirection.hit_ratio", rt.hit_ratio());
    sink.set("xlat.walker.submit_finish_ns", tally("walker").ns());
    sink.set("mem.mshr.register_ns", tally("mshr").ns());
    sink.set("noc.mesh.send_ns", tally("mesh").ns());
    let cache = tally("cache");
    sink.set("mem.cache.lookup_ns", cache.ns());
    sink.set("mem.cache.hit_ratio", cache.hit_ratio());
    sink.set("mem.hbm.access_ns", tally("hbm").ns());
    sink.set("sim.event_queue.push_drain_ns", tally("event_queue").ns());
}

fn replay_one(t: &mut BTreeMap<&'static str, Tally>, bench: BenchmarkId, scale: Scale, seed: u64) {
    let (cfg, space, acc) = stream(bench, scale, seed);
    let sys = &cfg.system;
    let g = sys.gpm_count();

    // Per-GPM L2 TLB: lookup, fill on miss.
    let mut tlbs: Vec<Tlb> = (0..g).map(|_| Tlb::new(sys.gpm.l2_tlb)).collect();
    let mut misses: Vec<&Access> = Vec::with_capacity(acc.len());
    let start = Instant::now();
    let mut hits = 0;
    for a in &acc {
        let tlb = &mut tlbs[a.gpm as usize];
        if black_box(tlb.lookup(a.vpn)).is_some() {
            hits += 1;
        } else {
            tlb.fill(a.vpn, Pfn(a.vpn.0), false);
            misses.push(a);
        }
    }
    t.entry("tlb")
        .or_default()
        .add(start.elapsed(), acc.len(), hits);

    // Per-GPM cuckoo filters of locally homed pages, and the global page
    // table, probed with every TLB miss.
    let mut filters: Vec<CuckooFilter> = (0..g)
        .map(|_| CuckooFilter::with_capacity(sys.gpm.cuckoo_capacity))
        .collect();
    let mut table = PageTable::with_capacity(space.total_pages() as usize);
    for (vpn, home) in space.iter_pages() {
        filters[home as usize].insert(vpn.0);
        table.map(vpn, Pfn(vpn.0), home);
    }
    let start = Instant::now();
    for a in &misses {
        black_box(filters[a.gpm as usize].contains(a.vpn.0));
    }
    t.entry("cuckoo")
        .or_default()
        .add(start.elapsed(), misses.len(), 0);
    let start = Instant::now();
    for a in &misses {
        black_box(table.translate(a.vpn));
    }
    t.entry("page_table")
        .or_default()
        .add(start.elapsed(), misses.len(), 0);

    // IOMMU side: misses on pages homed on another GPM.
    let remote: Vec<&Access> = misses.iter().copied().filter(|a| a.home != a.gpm).collect();
    let mut rt = RedirectionTable::new(sys.iommu.redirection_entries);
    let start = Instant::now();
    let mut hits = 0;
    for a in &remote {
        if black_box(rt.lookup(a.vpn)).is_some() {
            hits += 1;
        } else {
            rt.insert(a.vpn, a.home);
        }
    }
    t.entry("redirection")
        .or_default()
        .add(start.elapsed(), remote.len(), hits);

    // Walker pool kept saturated: a full pool finishes its oldest walk.
    let mut pool: WalkerPool<u64> = WalkerPool::new(sys.iommu.walkers, sys.iommu.pw_queue);
    let start = Instant::now();
    for a in &remote {
        if let SubmitResult::Rejected = pool.submit(a.vpn.0) {
            black_box(pool.finish());
            pool.submit(a.vpn.0);
        }
        if pool.busy() == pool.walkers() {
            black_box(pool.finish());
        }
    }
    while pool.busy() > 0 {
        black_box(pool.finish());
    }
    t.entry("walker")
        .or_default()
        .add(start.elapsed(), remote.len(), 0);

    // The same-area IOMMU TLB's MSHR (Fig 19): a full file completes its
    // oldest entry.
    let entries = (sys.iommu.redirection_entries / 32).max(8);
    let mut mshr: Mshr<u32> = Mshr::with_targets(entries, 8);
    let mut outstanding = VecDeque::new();
    let start = Instant::now();
    for (i, a) in remote.iter().enumerate() {
        loop {
            match mshr.register(a.vpn.0, i as u32) {
                MshrOutcome::Primary => {
                    outstanding.push_back(a.vpn.0);
                    break;
                }
                MshrOutcome::Secondary => break,
                MshrOutcome::Full => {
                    let block = outstanding.pop_front().expect("a full MSHR has entries");
                    black_box(mshr.complete(block));
                }
            }
        }
    }
    t.entry("mshr")
        .or_default()
        .add(start.elapsed(), remote.len(), 0);

    // Mesh: every access to a page homed on another GPM sends a cacheline.
    let mut mesh = Mesh::new(sys.layout.width(), sys.layout.height(), sys.link);
    let start = Instant::now();
    let mut sends = 0;
    for a in acc.iter().filter(|a| a.home != a.gpm) {
        black_box(mesh.send(
            sys.layout.coord_of(a.gpm),
            sys.layout.coord_of(a.home),
            sys.data_bytes,
            a.step,
        ));
        sends += 1;
    }
    t.entry("mesh").or_default().add(start.elapsed(), sends, 0);

    // Per-GPM L2 data cache, fill on miss; misses go to that GPM's HBM.
    let mut caches: Vec<SetAssocCache> = (0..g)
        .map(|_| SetAssocCache::new(sys.gpm.l2_cache))
        .collect();
    let mut cache_misses: Vec<&Access> = Vec::with_capacity(acc.len());
    let start = Instant::now();
    let mut hits = 0;
    for a in &acc {
        let cache = &mut caches[a.gpm as usize];
        if black_box(cache.lookup(a.addr)).is_hit() {
            hits += 1;
        } else {
            cache.fill(a.addr);
            cache_misses.push(a);
        }
    }
    t.entry("cache")
        .or_default()
        .add(start.elapsed(), acc.len(), hits);
    let mut hbms: Vec<Hbm> = (0..g).map(|_| Hbm::new(sys.gpm.hbm)).collect();
    let start = Instant::now();
    for a in &cache_misses {
        black_box(hbms[a.gpm as usize].access(a.step, sys.data_bytes));
    }
    t.entry("hbm")
        .or_default()
        .add(start.elapsed(), cache_misses.len(), 0);

    // One event per access, pushed `gap + 1` cycles ahead and drained a
    // calendar bucket at a time, keeping a standing population of ~256.
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut out = Vec::new();
    let start = Instant::now();
    for (i, a) in acc.iter().enumerate() {
        q.push(q.now() + 1 + a.gap.min(4096), i as u32);
        while q.len() > 256 {
            out.clear();
            black_box(q.drain_bucket(&mut out));
        }
    }
    while q.drain_bucket(&mut out) > 0 {
        out.clear();
    }
    t.entry("event_queue")
        .or_default()
        .add(start.elapsed(), acc.len(), 0);
}

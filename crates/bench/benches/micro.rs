//! Criterion microbenchmarks for the core data structures: cuckoo filter,
//! TLB, redirection table, mesh routing/reservation, event queue, and
//! workload generation. These quantify the simulator's own hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wsg_gpu::AddressSpace;
use wsg_noc::{Coord, LinkParams, Mesh};
use wsg_sim::{EventQueue, SimRng};
use wsg_workloads::{BenchmarkId, Scale};
use wsg_xlat::{CuckooFilter, PageSize, PageTable, Pfn, RedirectionTable, Tlb, TlbConfig, Vpn};

fn bench_cuckoo(c: &mut Criterion) {
    let mut g = c.benchmark_group("cuckoo_filter");
    g.bench_function("insert", |b| {
        let mut f = CuckooFilter::with_capacity(1 << 16);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1) % 40_000;
            black_box(f.insert(k));
        });
    });
    g.bench_function("contains_hit", |b| {
        let mut f = CuckooFilter::with_capacity(1 << 16);
        for k in 0..40_000u64 {
            f.insert(k);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 40_000;
            black_box(f.contains(k));
        });
    });
    g.bench_function("contains_miss", |b| {
        let mut f = CuckooFilter::with_capacity(1 << 16);
        for k in 0..40_000u64 {
            f.insert(k);
        }
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            black_box(f.contains(1_000_000 + k));
        });
    });
    g.finish();
}

fn bench_tlb(c: &mut Criterion) {
    let mut g = c.benchmark_group("tlb");
    g.bench_function("lookup_hit", |b| {
        let mut t = Tlb::new(TlbConfig::paper_l2());
        for v in 0..2048u64 {
            t.fill(Vpn(v), Pfn(v), false);
        }
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 2048;
            black_box(t.lookup(Vpn(v)));
        });
    });
    g.bench_function("fill_evict", |b| {
        let mut t = Tlb::new(TlbConfig::paper_l2());
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            black_box(t.fill(Vpn(v), Pfn(v), false));
        });
    });
    g.finish();
}

fn bench_redirection(c: &mut Criterion) {
    let mut g = c.benchmark_group("redirection_table");
    g.bench_function("insert_evict", |b| {
        let mut rt = RedirectionTable::new(1024);
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            rt.insert(Vpn(v), (v % 48) as u32);
        });
    });
    g.bench_function("lookup", |b| {
        let mut rt = RedirectionTable::new(1024);
        for v in 0..1024u64 {
            rt.insert(Vpn(v), 0);
        }
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 2048;
            black_box(rt.lookup(Vpn(v)));
        });
    });
    g.finish();
}

fn bench_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("mesh");
    g.bench_function("send_cross_wafer", |b| {
        let mut mesh = Mesh::new(7, 7, LinkParams::paper_baseline());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(mesh.send(Coord::new(0, 0), Coord::new(6, 6), 64, t));
        });
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.push(t + 100, t);
            black_box(q.pop());
        });
    });
    // Poisson-ish ramp: a standing population of 4096 events where every pop
    // re-arms one event at a jittered future time drawn from the seeded
    // SimRng — mostly near-future (calendar ring residency and wrap-around),
    // 5% far-future (the sorted overflow level and its migration back into
    // the ring). This is the shape of the simulator's steady-state hot loop.
    c.bench_function("event_queue_ramp", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seeded(42);
        for i in 0..4096u64 {
            q.push(rng.gen_range(0..512), i);
        }
        b.iter(|| {
            let (t, p) = q.pop().expect("standing population never drains");
            let delay = if rng.chance(0.05) {
                8_192 + rng.gen_range(0..4_096)
            } else {
                rng.gen_range(0..64)
            };
            q.push(t + delay, p);
            black_box(t);
        });
    });
}

/// The SoA TLB's mask-guided set probe (DESIGN.md §16): full paper-L2 sets
/// probed at every way position, plus the all-ways-scanned miss — the two
/// shapes the contiguous tag-plane walk is built for.
fn bench_tlb_soa_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("tlb_soa");
    let cfg = TlbConfig::paper_l2();
    g.bench_function("set_probe_hit", |b| {
        let mut t = Tlb::new(cfg);
        // Fill one set completely: VPNs congruent mod `sets` land together.
        for w in 0..cfg.ways as u64 {
            t.fill(Vpn(w * cfg.sets as u64), Pfn(w), false);
        }
        let mut w = 0u64;
        b.iter(|| {
            w = (w + 1) % cfg.ways as u64;
            black_box(t.probe(Vpn(w * cfg.sets as u64)));
        });
    });
    g.bench_function("set_probe_miss_full_set", |b| {
        let mut t = Tlb::new(cfg);
        for w in 0..cfg.ways as u64 {
            t.fill(Vpn(w * cfg.sets as u64), Pfn(w), false);
        }
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            // Same set, absent tag: the probe walks every valid way.
            black_box(t.probe(Vpn((cfg.ways as u64 + v) * cfg.sets as u64)));
        });
    });
    g.finish();
}

/// The batched engine loop's queue shape (DESIGN.md §16): the same standing
/// population as `event_queue_ramp`, consumed a whole calendar bucket at a
/// time with every drained event re-armed — `drain_bucket` amortizing the
/// bitmap scan and clock advance over the bucket, vs the per-pop baseline
/// above it.
fn bench_event_queue_batch(c: &mut Criterion) {
    c.bench_function("event_queue_batch_drain_ramp", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seeded(42);
        for i in 0..4096u64 {
            q.push(rng.gen_range(0..512), i);
        }
        let mut bucket = Vec::new();
        b.iter(|| {
            bucket.clear();
            let n = q.drain_bucket(&mut bucket);
            assert!(n > 0, "standing population never drains");
            let t = q.now();
            for &p in &bucket {
                let delay = if rng.chance(0.05) {
                    8_192 + rng.gen_range(0..4_096)
                } else {
                    rng.gen_range(0..64)
                };
                q.push(t + delay.max(1), p);
            }
            black_box(n);
        });
    });
}

/// Push delays of the engine, in cycles: `(lo, hi, weight)` log2 bins,
/// weights in basis points, measured over the xlat-local and xlat-remote
/// benchmarks at bench scale (DESIGN.md §11.1). A fifth of all pushes land
/// at the current cycle; 99.3% stay under 512 cycles.
const MEASURED_DELAY_MIX: [(u64, u64, u64); 12] = [
    (0, 1, 2038),
    (4, 8, 1),
    (8, 16, 1508),
    (16, 32, 805),
    (32, 64, 1214),
    (64, 128, 569),
    (128, 256, 2537),
    (256, 512, 1259),
    (512, 1024, 38),
    (1024, 2048, 18),
    (2048, 4096, 12),
    (4096, 8192, 1),
];

fn measured_delay(rng: &mut SimRng) -> u64 {
    let mut pick = rng.gen_range(0..10_000);
    for (lo, hi, weight) in MEASURED_DELAY_MIX {
        if pick < weight {
            return lo + rng.gen_range(0..hi - lo);
        }
        pick -= weight;
    }
    unreachable!("weights sum to 10,000")
}

/// The engine loop's queue traffic as measured, not as guessed: a
/// standing population seeded by the 1,536-event t=0 kick, drained a whole
/// bucket at a time into an emptied batch (the buffer-swap path), every
/// event re-armed with a delay drawn from [`MEASURED_DELAY_MIX`].
fn bench_event_queue_measured_mix(c: &mut Criterion) {
    c.bench_function("event_queue_measured_mix", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seeded(42);
        for cu in 0..1_536u64 {
            q.push(0, cu);
        }
        let mut batch = Vec::new();
        b.iter(|| {
            assert!(
                q.drain_bucket(&mut batch) > 0,
                "standing population never drains"
            );
            let t = q.now();
            for p in batch.drain(..) {
                q.push(t + measured_delay(&mut rng), p);
            }
            black_box(t);
        });
    });
}

fn bench_page_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_table");
    g.bench_function("translate_hit", |b| {
        let mut pt = PageTable::new();
        for v in 0..65_536u64 {
            pt.map(Vpn(v), Pfn(v), (v % 48) as u32);
        }
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 65_536;
            black_box(pt.translate(Vpn(v)));
        });
    });
    g.bench_function("translate_counted", |b| {
        let mut pt = PageTable::new();
        for v in 0..65_536u64 {
            pt.map(Vpn(v), Pfn(v), (v % 48) as u32);
        }
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 65_536;
            black_box(pt.translate_counted(Vpn(v)));
        });
    });
    g.bench_function("map_unmap_churn", |b| {
        let mut pt = PageTable::new();
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            pt.map(Vpn(v), Pfn(v), 0);
            if v >= 4_096 {
                black_box(pt.unmap(Vpn(v - 4_096)));
            }
        });
    });
    g.finish();
}

fn bench_workload_gen(c: &mut Criterion) {
    c.bench_function("generate_spmv_unit", |b| {
        b.iter(|| {
            let mut space = AddressSpace::new(PageSize::Size4K, 48);
            black_box(wsg_workloads::generate(
                BenchmarkId::Spmv,
                Scale::Unit,
                &mut space,
                42,
            ))
        });
    });
}

criterion_group!(
    benches,
    bench_cuckoo,
    bench_tlb,
    bench_redirection,
    bench_mesh,
    bench_event_queue,
    bench_tlb_soa_probe,
    bench_event_queue_batch,
    bench_event_queue_measured_mix,
    bench_page_table,
    bench_workload_gen
);
criterion_main!(benches);

//! Property-based tests for caches, MSHRs, and the HBM model, checked
//! against simple reference models.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsg_mem::{CacheConfig, Hbm, HbmConfig, Mshr, MshrOutcome, SetAssocCache};

proptest! {
    /// The cache agrees with a reference LRU model on hits and misses.
    #[test]
    fn cache_matches_reference_lru(
        sets_log in 0u32..4,
        ways in 1usize..5,
        addrs in proptest::collection::vec(0u64..4096, 1..300)
    ) {
        let sets = 1usize << sets_log;
        let line = 64u64;
        let mut cache = SetAssocCache::new(CacheConfig {
            sets,
            ways,
            line_bytes: line,
            hit_latency: 1,
        });
        // Reference: per-set LRU queues of block numbers (front = LRU).
        let mut model: BTreeMap<usize, VecDeque<u64>> = BTreeMap::new();
        for &addr in &addrs {
            let block = addr / line;
            let set = (block as usize) % sets;
            let q = model.entry(set).or_default();
            let model_hit = q.contains(&block);
            let real_hit = cache.lookup(addr).is_hit();
            prop_assert_eq!(real_hit, model_hit, "addr {:#x}", addr);
            if model_hit {
                q.retain(|&b| b != block);
                q.push_back(block);
            } else {
                cache.fill(addr);
                if q.len() == ways {
                    q.pop_front();
                }
                q.push_back(block);
            }
        }
    }

    /// Every line the model says is resident, probe() confirms, and
    /// occupancy never exceeds capacity.
    #[test]
    fn cache_occupancy_is_bounded(addrs in proptest::collection::vec(0u64..100_000, 1..500)) {
        let cfg = CacheConfig {
            sets: 8,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        };
        let mut cache = SetAssocCache::new(cfg);
        for &a in &addrs {
            cache.fill(a);
            prop_assert!(cache.occupancy() <= cfg.lines());
            prop_assert!(cache.probe(a), "just-filled line must be resident");
        }
    }

    /// MSHR conservation: every registered waiter comes back from exactly
    /// one complete() call.
    #[test]
    fn mshr_conserves_waiters(ops in proptest::collection::vec((0u64..16, any::<bool>()), 1..200)) {
        let mut mshr: Mshr<usize> = Mshr::new(4);
        let mut outstanding: BTreeSet<u64> = BTreeSet::new();
        let mut registered = 0usize;
        let mut returned = 0usize;
        for (i, &(block, is_complete)) in ops.iter().enumerate() {
            if is_complete {
                let freed = mshr.complete(block);
                returned += freed.len();
                outstanding.remove(&block);
            } else {
                match mshr.register(block, i) {
                    MshrOutcome::Primary | MshrOutcome::Secondary => {
                        registered += 1;
                        outstanding.insert(block);
                    }
                    MshrOutcome::Full => {}
                }
            }
        }
        for block in outstanding {
            returned += mshr.complete(block).len();
        }
        prop_assert_eq!(registered, returned);
        prop_assert_eq!(mshr.occupancy(), 0);
    }

    /// Target-limited MSHRs never hold more waiters per entry than allowed.
    #[test]
    fn mshr_target_limit_is_enforced(targets in 1usize..6, n in 1usize..50) {
        let mut mshr: Mshr<usize> = Mshr::with_targets(2, targets);
        let mut accepted = 0usize;
        for i in 0..n {
            match mshr.register(7, i) {
                MshrOutcome::Primary | MshrOutcome::Secondary => accepted += 1,
                MshrOutcome::Full => {}
            }
        }
        prop_assert!(accepted <= targets);
        prop_assert_eq!(mshr.complete(7).len(), accepted);
    }

    /// HBM completions never precede arrival + minimum service, and
    /// bandwidth accounting is exact.
    #[test]
    fn hbm_completions_are_causal(accesses in proptest::collection::vec((0u64..10_000, 1u64..512), 1..100)) {
        let mut sorted = accesses.clone();
        sorted.sort();
        let cfg = HbmConfig {
            capacity_bytes: 1 << 30,
            bytes_per_cycle: 64.0,
            access_latency: 50,
            channels: 4,
        };
        let mut hbm = Hbm::new(cfg);
        let mut total = 0u64;
        for (arrival, bytes) in sorted {
            let done = hbm.access(arrival, bytes);
            prop_assert!(done >= arrival + cfg.access_latency);
            total += bytes;
        }
        prop_assert_eq!(hbm.bytes_served(), total);
    }
}

#[test]
fn cache_eviction_returns_reconstructible_addresses() {
    let cfg = CacheConfig {
        sets: 4,
        ways: 1,
        line_bytes: 64,
        hit_latency: 1,
    };
    let mut cache = SetAssocCache::new(cfg);
    // Fill then conflict every set; evicted addresses must match what was
    // inserted (modulo line alignment).
    for i in 0..4u64 {
        cache.fill(i * 64);
    }
    for i in 0..4u64 {
        let evicted = cache.fill((i + 4) * 64).expect("conflict must evict");
        assert_eq!(evicted, i * 64);
    }
}

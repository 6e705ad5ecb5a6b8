//! Property-based tests for the translation structures, checked against
//! reference models.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsg_xlat::{
    CuckooFilter, PageTable, Pfn, RedirectionTable, SubmitResult, Tlb, TlbConfig, Vpn, WalkerPool,
};

proptest! {
    /// Cuckoo filters never produce false negatives for resident keys.
    #[test]
    fn cuckoo_has_no_false_negatives(keys in proptest::collection::btree_set(0u64..1_000_000, 1..500)) {
        let mut f = CuckooFilter::with_capacity(keys.len() * 4);
        let mut inserted = Vec::new();
        for &k in &keys {
            if f.insert(k) {
                inserted.push(k);
            }
        }
        for &k in &inserted {
            prop_assert!(f.contains(k), "false negative for {k}");
        }
    }

    /// Insert-then-remove restores non-membership (up to fingerprint
    /// collisions with *other* resident keys, which we avoid by removing
    /// everything).
    #[test]
    fn cuckoo_remove_all_empties_filter(keys in proptest::collection::btree_set(0u64..100_000, 1..200)) {
        let mut f = CuckooFilter::with_capacity(keys.len() * 4);
        let inserted: Vec<u64> = keys.iter().copied().filter(|&k| f.insert(k)).collect();
        for &k in &inserted {
            prop_assert!(f.remove(k));
        }
        prop_assert!(f.is_empty());
        for &k in &inserted {
            prop_assert!(!f.contains(k));
        }
    }

    /// The TLB agrees with a reference map on lookups after arbitrary
    /// fill/invalidate sequences (ignoring capacity evictions by keeping the
    /// working set within one set's ways).
    #[test]
    fn tlb_matches_reference_within_capacity(ops in proptest::collection::vec((0u64..16, 0u64..1000, any::<bool>()), 1..200)) {
        // 1 set x 16 ways: a working set of <=16 VPNs never evicts.
        let mut tlb = Tlb::new(TlbConfig { sets: 1, ways: 16, latency: 1, mshrs: 0 });
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(vpn, pfn, invalidate) in &ops {
            if invalidate {
                let was = model.remove(&vpn).is_some();
                prop_assert_eq!(tlb.invalidate(Vpn(vpn)), was);
            } else {
                tlb.fill(Vpn(vpn), Pfn(pfn), false);
                model.insert(vpn, pfn);
            }
        }
        for (&vpn, &pfn) in &model {
            prop_assert_eq!(tlb.probe(Vpn(vpn)), Some(Pfn(pfn)));
        }
        prop_assert_eq!(tlb.occupancy(), model.len());
    }

    /// Speculative fills lose LRU races against demand fills.
    #[test]
    fn speculative_entries_evict_first(demand in 0u64..4, spec in 4u64..8) {
        // 1 set x 2 ways.
        let mut tlb = Tlb::new(TlbConfig { sets: 1, ways: 2, latency: 1, mshrs: 0 });
        tlb.fill(Vpn(demand), Pfn(demand), false);
        tlb.fill_speculative(Vpn(spec), Pfn(spec));
        // A third fill must evict the speculative entry, not the demand one.
        let evicted = tlb.fill(Vpn(100), Pfn(100), false).unwrap();
        prop_assert_eq!(evicted.0, Vpn(spec));
        prop_assert!(tlb.probe(Vpn(demand)).is_some());
    }

    /// The redirection table matches a reference LRU map.
    #[test]
    fn redirection_matches_reference_lru(ops in proptest::collection::vec((0u64..32, 0u32..48, any::<bool>()), 1..300)) {
        let cap = 8;
        let mut rt = RedirectionTable::new(cap);
        let mut order: Vec<u64> = Vec::new(); // front = LRU
        let mut vals: BTreeMap<u64, u32> = BTreeMap::new();
        for &(vpn, gpm, is_lookup) in &ops {
            if is_lookup {
                let expect = vals.get(&vpn).copied();
                prop_assert_eq!(rt.lookup(Vpn(vpn)), expect);
                if expect.is_some() {
                    order.retain(|&v| v != vpn);
                    order.push(vpn);
                }
            } else {
                if !vals.contains_key(&vpn) && vals.len() == cap {
                    let lru = order.remove(0);
                    vals.remove(&lru);
                }
                rt.insert(Vpn(vpn), gpm);
                order.retain(|&v| v != vpn);
                order.push(vpn);
                vals.insert(vpn, gpm);
            }
        }
        prop_assert_eq!(rt.len(), vals.len());
        for (&vpn, &gpm) in &vals {
            prop_assert_eq!(rt.probe(Vpn(vpn)), Some(gpm));
        }
    }

    /// Walker pools conserve requests: everything submitted is either
    /// rejected, or eventually started (directly or by promotion).
    #[test]
    fn walker_pool_conserves_requests(
        walkers in 1usize..4,
        queue in 0usize..8,
        n in 1usize..100
    ) {
        let mut pool: WalkerPool<usize> = WalkerPool::new(walkers, queue);
        let mut started = 0usize;
        let mut queued = 0usize;
        let mut rejected = 0usize;
        for i in 0..n {
            match pool.submit(i) {
                SubmitResult::Started => started += 1,
                SubmitResult::Queued => queued += 1,
                SubmitResult::Rejected => rejected += 1,
            }
        }
        // Drain: every finish either promotes a queued item or frees a walker.
        let mut promoted = 0usize;
        while pool.busy() > 0 {
            if pool.finish().is_some() {
                promoted += 1;
            }
        }
        prop_assert_eq!(promoted, queued);
        prop_assert_eq!(started + queued + rejected, n);
        prop_assert_eq!(pool.queue_len(), 0);
    }

    /// Page-table access counters saturate rather than wrap.
    #[test]
    fn pte_counter_saturates(touches in 1u32..200) {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), 0);
        let mut last = 0;
        for _ in 0..touches {
            let c = pt.translate_counted(Vpn(1)).unwrap().access_count;
            prop_assert!(c >= last, "counter went backwards");
            last = c;
        }
        prop_assert!(last <= 63, "6 spare bits saturate at 63");
    }
}

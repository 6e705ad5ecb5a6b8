//! Structural-equivalence proptests for the PR 4 hot-loop replacements
//! (DESIGN.md §11): the calendar [`EventQueue`] must pop in exactly the order
//! the original `BinaryHeap` implementation did, and [`HashIndex`] must be
//! observationally identical to the `BTreeMap`s it replaced.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use proptest::prelude::*;
use wsg_sim::{EventQueue, HashIndex};

/// Reference model: the pre-PR-4 `BinaryHeap` event queue. Entries are
/// ordered by `(time, insertion seq)`; `now` is the last popped timestamp.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    now: u64,
    seq: u64,
}

impl HeapQueue {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    fn push(&mut self, time: u64, payload: u64) {
        self.heap.push(Reverse((time, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((time, _, payload)) = self.heap.pop()?;
        self.now = time;
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical push sequences produce identical pop sequences, interleaved
    /// pops included. Deltas span the calendar ring horizon on both sides, so
    /// ring buckets, wrap-around, and the far-future overflow heap are all
    /// exercised against the heap model.
    #[test]
    fn calendar_queue_matches_binary_heap(
        ops in proptest::collection::vec((0u64..4, 0u64..10_000), 1..600)
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (id, &(kind, delta)) in ops.iter().enumerate() {
            match kind {
                // Near-future push: lands in the ring (delta < horizon).
                0 => {
                    cal.push(cal.now() + delta % 64, id as u64);
                    heap.push(heap.now + delta % 64, id as u64);
                }
                1 => {
                    cal.push(cal.now() + delta, id as u64);
                    heap.push(heap.now + delta, id as u64);
                }
                // Far-future push: forces the overflow path and later
                // migration back into the ring.
                2 => {
                    cal.push(cal.now() + delta * 50, id as u64);
                    heap.push(heap.now + delta * 50, id as u64);
                }
                _ => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            prop_assert_eq!(cal.len(), heap.heap.len());
            prop_assert_eq!(cal.now(), heap.now);
        }
        // Drain both completely; order must stay identical to the end.
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Batch drains match the heap model too, under any mix with single
    /// pops: drains into an empty batch (the buffer-swap path) and into a
    /// non-empty one (the append path), drains of a bucket that `pop` has
    /// started on, pushes at `now` after a partial pop, and one burst of
    /// 1,600 same-cycle events (the engine's t=0 kick is 1,536).
    #[test]
    fn calendar_queue_mixed_pop_and_drain_matches_binary_heap(
        ops in proptest::collection::vec((0u64..7, 0u64..3_000), 1..400),
        burst_at in 0usize..400,
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut batch = Vec::new();
        let mut id = 0u64;
        for (step, &(kind, delta)) in ops.iter().enumerate() {
            let burst = if step == burst_at { 1_600 } else { 0 };
            let at = match kind {
                0 => Some(0),
                1 => Some(delta % 64),
                2 => Some(delta),
                _ => None,
            };
            for t in std::iter::repeat_n(cal.now() + delta % 4, burst)
                .chain(at.map(|dt| cal.now() + dt))
            {
                cal.push(t, id);
                heap.push(t, id);
                id += 1;
            }
            match kind {
                0..=2 => {}
                3 => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
                _ => {
                    // Kinds 4 and 5 drain into an empty batch, kind 6 into
                    // one still holding a stale sentinel.
                    batch.clear();
                    if kind == 6 {
                        batch.push(u64::MAX);
                    }
                    let start = batch.len();
                    let n = cal.drain_bucket(&mut batch);
                    prop_assert_eq!(batch.len(), start + n);
                    for &got in &batch[start..] {
                        prop_assert_eq!(heap.pop(), Some((cal.now(), got)));
                    }
                    prop_assert!(heap.peek_time() != Some(cal.now()),
                        "drain_bucket left same-time events behind");
                    if kind == 6 {
                        prop_assert_eq!(batch[0], u64::MAX);
                    }
                }
            }
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            prop_assert_eq!(cal.len(), heap.heap.len());
            prop_assert_eq!(cal.now(), heap.now);
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(cal.total_pushed(), cal.total_popped());
    }

    /// Same-cycle events pop in insertion order even when the insertions are
    /// split across ring residence and overflow migration.
    #[test]
    fn calendar_queue_preserves_fifo_ties(
        times in proptest::collection::vec(0u64..12_288, 1..300)
    ) {
        let mut cal: EventQueue<usize> = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            cal.push(t, i);
            heap.push(t, i as u64);
        }
        while let Some((t, i)) = cal.pop() {
            let (ht, hi) = heap.pop().expect("heap drained early");
            prop_assert_eq!((t, i as u64), (ht, hi));
        }
        prop_assert_eq!(heap.pop(), None);
    }

    /// `HashIndex` behaves exactly like a `BTreeMap<u64, u64>` under any
    /// interleaving of insert / remove / get / get_or_insert_with, and its
    /// sorted iteration is the `BTreeMap` iteration.
    #[test]
    fn hash_index_matches_btreemap(
        ops in proptest::collection::vec((0u64..5, 0u64..48, 0u64..1000), 1..500)
    ) {
        let mut ix: HashIndex<u64> = HashIndex::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(kind, key, val) in &ops {
            match kind {
                0 => {
                    prop_assert_eq!(ix.insert(key, val), model.insert(key, val));
                }
                1 => {
                    prop_assert_eq!(ix.remove(key), model.remove(&key));
                }
                2 => {
                    prop_assert_eq!(ix.get(key), model.get(&key));
                }
                3 => {
                    let a = ix.get_or_insert_with(key, || val);
                    let b = model.entry(key).or_insert(val);
                    prop_assert_eq!(&*a, &*b);
                    *a += 1;
                    *b += 1;
                }
                _ => {
                    prop_assert_eq!(ix.contains_key(key), model.contains_key(&key));
                }
            }
            prop_assert_eq!(ix.len(), model.len());
        }
        let sorted: Vec<(u64, u64)> = ix.iter_sorted().map(|(k, v)| (k, *v)).collect();
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(sorted, expect);
        let keys: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(ix.keys_sorted(), keys);
        let sum: u64 = model.values().sum();
        prop_assert_eq!(ix.fold_values(0u64, |a, v| a + v), sum);
    }
}

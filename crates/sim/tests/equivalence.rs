//! Structural-equivalence proptests for the PR 4 hot-loop replacements
//! (DESIGN.md §11): the calendar [`EventQueue`], delivering through
//! [`EventQueue::drain_bucket`], must hand out exactly the `(time, seq)`
//! stream of the original `BinaryHeap` implementation, and [`HashIndex`]
//! must be observationally identical to the `BTreeMap`s it replaced.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use proptest::prelude::*;
use wsg_sim::{Cycle, EventQueue, HashIndex};

/// Reference model: the pre-PR-4 `BinaryHeap` event queue. Entries are
/// ordered by `(time, insertion seq)`; `now` is the last delivered timestamp.
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

    /// Pops every entry at the earliest pending time, in insertion order,
    /// and moves `now` to that time: the model of one `drain_bucket`.
    fn pop_earliest(&mut self) -> Vec<u64> {
        let Some(&Reverse((t, _, _))) = self.heap.peek() else {
            return Vec::new();
        };
        self.now = t;
        let mut out = Vec::new();
        while let Some(&Reverse((ht, _, p))) = self.heap.peek() {
            if ht != t {
                break;
            }
            self.heap.pop();
            out.push(p);
        }
        out
    }
}

/// One delivery on both sides: drains a bucket of `cal` into `batch` —
/// emptied first (the buffer-swap path), or left holding a stale head when
/// `stale` (the append path) — and checks it against one
/// [`HeapQueue::pop_earliest`]. Returns the delivered payloads (empty once
/// both queues are exhausted).
fn drain_both(
    cal: &mut EventQueue<u64>,
    heap: &mut HeapQueue,
    batch: &mut Vec<u64>,
    stale: bool,
) -> Vec<u64> {
    batch.clear();
    if stale {
        batch.push(u64::MAX);
    }
    let start = batch.len();
    let n = cal.drain_bucket(batch);
    let expect = heap.pop_earliest();
    assert_eq!(batch.len(), start + n);
    assert_eq!(&batch[start..], expect.as_slice());
    if stale {
        assert_eq!(batch[0], u64::MAX, "the append path overwrote the head");
    }
    assert_eq!(cal.now(), heap.now);
    assert!(
        heap.heap
            .peek()
            .is_none_or(|Reverse((t, _, _))| *t != heap.now),
        "drain_bucket left same-time events behind"
    );
    expect
}

/// Drains both queues to the end, checking every batch.
fn drain_rest(cal: &mut EventQueue<u64>, heap: &mut HeapQueue) {
    let mut batch = Vec::new();
    while !drain_both(cal, heap, &mut batch, false).is_empty() {}
    assert!(cal.is_empty() && heap.heap.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical push sequences produce identical batch sequences,
    /// interleaved drains included. Deltas span the calendar ring horizon on
    /// both sides, so ring buckets, wrap-around, and the far-future overflow
    /// heap are all exercised against the heap model.
    #[test]
    fn calendar_queue_matches_binary_heap(
        ops in proptest::collection::vec((0u64..4, 0u64..10_000), 1..600)
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut batch = Vec::new();
        for (id, &(kind, delta)) in ops.iter().enumerate() {
            let at = match kind {
                // Near-future push: lands in the ring (delta < horizon).
                0 => Some(delta % 64),
                1 => Some(delta),
                // Far-future push: forces the overflow path and later
                // migration back into the ring.
                2 => Some(delta * 50),
                _ => None,
            };
            match at {
                Some(dt) => {
                    cal.push(cal.now() + dt, id as u64);
                    heap.push(heap.now + dt, id as u64);
                }
                None => {
                    drain_both(&mut cal, &mut heap, &mut batch, false);
                }
            }
            prop_assert_eq!(cal.len(), heap.heap.len());
            prop_assert_eq!(cal.now(), heap.now);
        }
        drain_rest(&mut cal, &mut heap);
    }

    /// Drains into an empty batch (the buffer-swap path) and into one still
    /// holding a stale head (the append path), pushes at `now` right after a
    /// drain, and one burst of 1,600 same-cycle events all match the heap
    /// model.
    #[test]
    fn calendar_queue_batches_match_binary_heap(
        ops in proptest::collection::vec((0u64..6, 0u64..3_000), 1..400),
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
            if kind >= 3 {
                // Kinds 3 and 4 drain into an empty batch, kind 5 into one
                // still holding a stale head.
                drain_both(&mut cal, &mut heap, &mut batch, kind == 5);
            }
            prop_assert_eq!(cal.len(), heap.heap.len());
            prop_assert_eq!(cal.now(), heap.now);
        }
        drain_rest(&mut cal, &mut heap);
        prop_assert_eq!(cal.drain_check(), (id, id));
    }

    /// The engine's shape: a 1,536-event kick (one event per CU), then every
    /// delivered event spawns payload-keyed follow-ups, some at the current
    /// cycle, while the consumer alternates between swap and append drains.
    #[test]
    fn calendar_queue_engine_shaped_run_matches_binary_heap(
        modes in proptest::collection::vec(0u8..2, 1..64),
        kick in 0u64..3,
    ) {
        let spawn = |t: Cycle, p: u64| -> Vec<(Cycle, u64)> {
            if p >= 6_000 {
                return Vec::new();
            }
            let h = p.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7;
            let mut out = vec![(t + h % 300, p * 2 + 1)];
            if h.is_multiple_of(3) {
                out.push((t, p * 2 + 2));
            }
            out
        };
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapQueue::new();
        for p in 0..1_536u64 {
            cal.push(kick, p);
            heap.push(kick, p);
        }
        let mut batch = Vec::new();
        for step in 0.. {
            let stale = modes[step % modes.len()] == 1;
            let delivered = drain_both(&mut cal, &mut heap, &mut batch, stale);
            if delivered.is_empty() {
                break;
            }
            let t = cal.now();
            for p in delivered {
                for (ct, c) in spawn(t, p) {
                    cal.push(ct, c);
                    heap.push(ct, c);
                }
            }
        }
        prop_assert_eq!(cal.drain_check(), (heap.seq, heap.seq));
    }

    /// Same-cycle events are delivered in insertion order even when the
    /// insertions are split across ring residence and overflow migration.
    #[test]
    fn calendar_queue_preserves_fifo_ties(
        times in proptest::collection::vec(0u64..12_288, 1..300)
    ) {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            cal.push(t, i as u64);
            heap.push(t, i as u64);
        }
        drain_rest(&mut cal, &mut heap);
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

//! The discrete-event queue at the heart of the simulator.
//!
//! Implemented as a two-level *calendar queue* (DESIGN.md §11): a ring of
//! per-cycle FIFO buckets covering the near future, backed by a sorted
//! overflow heap for far-future events. Push is O(1) on the ring — the
//! common case by far in the simulator's hot loop — and
//! [`EventQueue::drain_bucket`], the one way events come out, hands over a
//! whole timestamp at a time in exactly the `(time, insertion sequence)`
//! order of the original `BinaryHeap` implementation (`tests/equivalence.rs`
//! proves the two identical under arbitrary interleavings). Bucket buffers
//! circulate through a LIFO pool and a drained bucket is handed to the
//! caller by swapping buffers, so the hot loop neither copies events out of
//! the ring nor pushes into a buffer that has gone cold.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// Width of the calendar ring: how far ahead of the current time an event
/// may land and still get an O(1) bucket. Must be a power of two (the bucket
/// index is `time % HORIZON`) and a multiple of 64 (the occupancy bitmap is
/// scanned a `u64` word at a time), at most 4096 (the one-`u64` summary's
/// cyclic rotation needs `WORDS` to divide 64). 99.7% of the engine's push
/// delays are under 1024 cycles (DESIGN.md §11.1), so 1024 keeps nearly
/// every push on the ring while the bucket headers fit in L1.
const HORIZON: usize = 1024;
/// Occupancy bitmap words — one bit per bucket.
const WORDS: usize = HORIZON / 64;
const _: () = assert!(HORIZON.is_power_of_two() && HORIZON.is_multiple_of(64) && 64 % WORDS == 0);

/// A deterministic discrete-event queue.
///
/// Events are ordered by `(time, insertion sequence)`: two events scheduled
/// for the same cycle are delivered in the order they were pushed, which
/// keeps simulations reproducible regardless of container internals.
///
/// The queue tracks the current simulation time ([`EventQueue::now`]), which
/// advances monotonically as [`EventQueue::drain_bucket`] delivers events.
/// Pushing an event in the past is a logic error and panics in every build
/// profile.
///
/// # Structure
///
/// Two tiers, strictly ordered in time, so the earliest `(time, seq)` entry
/// is always at the front of the first non-empty tier:
///
/// * **Ring** — `HORIZON` per-cycle FIFO buckets covering
///   `[now, now + HORIZON)`. Each occupied bucket holds the events of
///   exactly one timestamp in insertion order, so FIFO order *is* sequence
///   order. A two-level occupancy bitmap (a bit per bucket, a summary bit
///   per word) finds the next occupied bucket in a handful of
///   `trailing_zeros` operations. An empty bucket owns no buffer: the first
///   push takes the most recently released one from a LIFO pool, and
///   draining the bucket swaps its buffer into the caller's batch `Vec`,
///   whose old buffer goes back to the pool.
/// * **Overflow** — a `(time, seq)`-sorted heap for events at or beyond
///   `now + HORIZON`. Whenever `now` advances, entries that came inside the
///   window migrate into their ring buckets in heap order; an overflow
///   entry always migrates before any direct push to the same cycle can
///   occur (the window had not reached that cycle yet), so bucket FIFO
///   order still equals sequence order.
///
/// # Example
///
/// ```
/// let mut q = wsg_sim::EventQueue::new();
/// q.push(100, "b");
/// q.push(100, "c");
/// q.push(50, "a");
/// let mut batch = Vec::new();
/// assert_eq!(q.drain_bucket(&mut batch), 1);
/// assert_eq!((q.now(), batch.as_slice()), (50, ["a"].as_slice()));
/// batch.clear();
/// assert_eq!(q.drain_bucket(&mut batch), 2);
/// assert_eq!((q.now(), batch.as_slice()), (100, ["b", "c"].as_slice()));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Per-cycle FIFO buckets; index `time % HORIZON`. Unoccupied buckets
    /// hold no buffer.
    buckets: Vec<Vec<E>>,
    /// Empty bucket buffers, most recently released last.
    pool: Vec<Vec<E>>,
    /// Occupancy bit per bucket.
    words: [u64; WORDS],
    /// Occupancy bit per `words` entry.
    summary: u64,
    /// Current simulation time: the timestamp of the last drained bucket,
    /// and the start of the ring window `[now, now + HORIZON)`. Monotone.
    now: Cycle,
    /// Events resident in the ring.
    ring_len: usize,
    /// Events at `time >= now + HORIZON`, in `(time, seq)` order.
    overflow: BinaryHeap<Entry<E>>,
    /// Events ever pushed; also the next push's insertion sequence number.
    pushed: u64,
    popped: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue at time 0 with `far` slots reserved in the
    /// far-future overflow tier (the ring is a fixed allocation; bucket
    /// buffers allocate lazily, only when the pool has none to reuse).
    pub fn with_capacity(far: usize) -> Self {
        let mut buckets = Vec::with_capacity(HORIZON);
        buckets.resize_with(HORIZON, Vec::new);
        Self {
            buckets,
            pool: Vec::new(),
            words: [0; WORDS],
            summary: 0,
            now: 0,
            ring_len: 0,
            overflow: BinaryHeap::with_capacity(far),
            pushed: 0,
            popped: 0,
        }
    }

    fn set_bit(&mut self, idx: usize) {
        self.words[idx / 64] |= 1u64 << (idx % 64);
        self.summary |= 1u64 << (idx / 64);
    }

    fn occupied(&self, idx: usize) -> bool {
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    fn clear_bit(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1u64 << (idx % 64));
        if self.words[idx / 64] == 0 {
            self.summary &= !(1u64 << (idx / 64));
        }
    }

    /// First occupied bucket in cyclic scan order starting at `from` (the
    /// window base slot): bits `>= from` first, wrapping to end just below
    /// it. `None` iff the ring is empty.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let w0 = from / 64;
        let high = self.words[w0] & (!0u64 << (from % 64));
        if high != 0 {
            return Some(w0 * 64 + high.trailing_zeros() as usize);
        }
        if self.summary == 0 {
            return None;
        }
        // Cyclic word scan w0+1, w0+2, ... ending back at w0, whose low bits
        // (the far end of the window) are correctly considered last.
        let rot = self.summary.rotate_right(((w0 + 1) % WORDS) as u32);
        if rot == 0 {
            return None;
        }
        let w = (w0 + 1 + rot.trailing_zeros() as usize) % WORDS;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Advances the clock, and with it the ring window, to `to`, migrating
    /// overflow entries that came inside the window into their ring buckets
    /// in `(time, seq)` order.
    fn advance_to(&mut self, to: Cycle) {
        self.now = to;
        while let Some(head) = self.overflow.peek() {
            // No overflow: every overflow entry's time is >= the new clock
            // (it exceeded the old clock by a full horizon, and `to` is
            // either a ring time inside the old window or the overflow
            // minimum itself).
            if head.time - self.now >= HORIZON as Cycle {
                break;
            }
            let entry = match self.overflow.pop() {
                Some(e) => e,
                None => unreachable!("peeked entry vanished"),
            };
            self.push_ring(entry.time, entry.payload);
        }
    }

    /// Appends `payload` to the ring bucket of `time`, which the caller
    /// guarantees lies in `[now, now + HORIZON)`. A bucket's first event
    /// brings in the most recently released pool buffer, still warm in the
    /// CPU cache from the batch it last carried.
    fn push_ring(&mut self, time: Cycle, payload: E) {
        let idx = (time % HORIZON as Cycle) as usize;
        let bucket = &mut self.buckets[idx];
        let first = bucket.is_empty();
        if first {
            if let Some(buf) = self.pool.pop() {
                *bucket = buf;
            }
        }
        bucket.push(payload);
        if first {
            self.set_bit(idx);
        }
        self.ring_len += 1;
    }

    /// Moves the whole of occupied ring bucket `idx` to the end of `out`:
    /// an O(1) buffer swap when `out` is empty, an append otherwise. The
    /// buffer left over goes back to the pool.
    fn take_bucket(&mut self, idx: usize, out: &mut Vec<E>) {
        let bucket = &mut self.buckets[idx];
        self.ring_len -= bucket.len();
        if out.is_empty() {
            std::mem::swap(bucket, out);
        } else {
            out.append(bucket);
        }
        let spare = std::mem::take(bucket);
        if spare.capacity() > 0 {
            self.pool.push(spare);
        }
        self.clear_bit(idx);
    }

    /// Schedules `payload` to fire at absolute cycle `time`.
    ///
    /// # Panics
    ///
    /// Panics — in all build profiles — if `time` is earlier than the
    /// current time.
    pub fn push(&mut self, time: Cycle, payload: E) {
        if time < self.now {
            panic!("event scheduled in the past: {} < {}", time, self.now);
        } else if time - self.now < HORIZON as Cycle {
            self.push_ring(time, payload);
        } else {
            self.overflow.push(Entry {
                time,
                seq: self.pushed,
                payload,
            });
        }
        self.pushed += 1;
    }

    /// Removes every pending event of the earliest timestamp — one whole
    /// calendar bucket — appending the payloads to `out` in `(time, seq)`
    /// order and advancing the clock to that timestamp. Returns the number
    /// of events drained (0 iff the queue is empty; `out` is untouched
    /// then). This is the only way events leave the queue.
    ///
    /// A bucket holds exactly one timestamp, so the batch never spans
    /// cycles; handlers can treat [`EventQueue::now`] as constant across it.
    /// Events pushed at the just-drained timestamp while the batch is being
    /// handled land in the (now empty) bucket of `now` and come out in the
    /// next batch, after the current one, exactly where their higher
    /// sequence numbers place them.
    ///
    /// Pass an empty `out` in the hot loop: the bucket's buffer is then
    /// swapped into it with no copy, and `out`'s old buffer joins the pool
    /// that future pushes draw from. A non-empty `out` is appended to.
    pub fn drain_bucket(&mut self, out: &mut Vec<E>) -> usize {
        let start = out.len();
        let from = (self.now % HORIZON as Cycle) as usize;
        if let Some(idx) = self.next_occupied(from) {
            let time = self.now + ((idx + HORIZON - from) % HORIZON) as Cycle;
            self.take_bucket(idx, out);
            // Migrating after the drain cannot extend the batch: an occupied
            // ring bucket at `time` precludes overflow entries at `time`
            // (overflow starts a full horizon past the old clock).
            self.advance_to(time);
        } else if let Some(e) = self.overflow.pop() {
            out.push(e.payload);
            // Same-time overflow siblings migrate into the ring bucket for
            // `e.time` (in heap order, i.e. ascending seq — all above `e`'s)
            // and belong to this batch. The bucket cannot hold anything
            // else: the ring was empty, and a migrated time `t' > e.time`
            // with `t' ≡ e.time (mod HORIZON)` would be a full horizon out,
            // beyond the migration window.
            self.advance_to(e.time);
            let idx = (e.time % HORIZON as Cycle) as usize;
            if self.occupied(idx) {
                self.take_bucket(idx, out);
            }
        } else {
            return 0;
        }
        let n = out.len() - start;
        self.popped += n as u64;
        n
    }

    /// Current simulation time (the timestamp of the last drained bucket).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever delivered.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// End-of-simulation conservation check: asserts every pushed event was
    /// delivered (the queue fully drained) and returns `(pushed, popped)`.
    ///
    /// # Panics
    ///
    /// Panics — in all build profiles — if events are still pending.
    pub fn drain_check(&self) -> (u64, u64) {
        assert_eq!(
            self.pushed,
            self.popped,
            "event queue not drained: {} pushed vs {} popped ({} pending)",
            self.pushed,
            self.popped,
            self.len()
        );
        (self.pushed, self.popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the whole queue through [`EventQueue::drain_bucket`], pairing
    /// every payload with the clock at its delivery.
    fn drain_all<E>(q: &mut EventQueue<E>) -> Vec<(Cycle, E)> {
        let (mut delivered, mut batch) = (Vec::new(), Vec::new());
        while q.drain_bucket(&mut batch) > 0 {
            let t = q.now();
            delivered.extend(batch.drain(..).map(|e| (t, e)));
        }
        delivered
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(drain_all(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        let expect: Vec<_> = (0..100).map(|i| (7, i)).collect();
        assert_eq!(drain_all(&mut q), expect);
    }

    #[test]
    fn clock_advances_on_drain() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.push(42, ());
        assert_eq!(q.now(), 0, "push does not move the clock");
        drain_all(&mut q);
        assert_eq!(q.now(), 42);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events beyond now + HORIZON take the overflow path and must still
        // deliver in (time, seq) order after migrating back into the ring.
        let mut q = EventQueue::new();
        let far = HORIZON as Cycle * 3 + 17;
        q.push(far, "far-b");
        q.push(5, "near");
        q.push(far, "far-c");
        q.push(far + 1, "far-d");
        assert_eq!(
            drain_all(&mut q),
            vec![
                (5, "near"),
                (far, "far-b"),
                (far, "far-c"),
                (far + 1, "far-d")
            ]
        );
    }

    #[test]
    fn migration_keeps_fifo_with_direct_pushes() {
        // An overflow entry migrates the moment the window reaches it —
        // before any direct push to the same cycle is possible — so bucket
        // FIFO order equals global insertion order.
        let mut q = EventQueue::new();
        let t = HORIZON as Cycle + 100;
        q.push(t, 0); // overflow (window is [0, HORIZON))
        q.push(200, 1); // ring
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket(&mut out), 1); // now -> 200, t migrates
        assert_eq!((q.now(), out.as_slice()), (200, [1].as_slice()));
        q.push(t, 2); // direct push into the same bucket
        assert_eq!(drain_all(&mut q), vec![(t, 0), (t, 2)]);
    }

    #[test]
    fn ring_wraps_around_the_horizon() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            let t = i * (HORIZON as Cycle / 2 + 3);
            q.push(t, i);
            assert_eq!(drain_all(&mut q), vec![(t, i)]);
        }
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn pushing_into_the_past_panics_in_every_profile() {
        let mut q = EventQueue::new();
        q.push(10, ());
        drain_all(&mut q);
        q.push(5, ());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.drain_bucket(&mut Vec::new());
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn drain_check_reports_counters() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        drain_all(&mut q);
        assert_eq!(q.drain_check(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "not drained")]
    fn drain_check_rejects_pending_events() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.drain_check();
    }

    #[test]
    fn drain_bucket_takes_one_whole_timestamp() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        q.push(20, "c");
        q.push(10, "b");
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec!["a", "b"]);
        assert_eq!(q.now(), 10);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 1);
        assert_eq!(out, vec!["c"]);
        assert_eq!(q.now(), 20);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 0);
        assert!(out.is_empty());
        assert_eq!(q.drain_check(), (3, 3));
    }

    #[test]
    fn drain_bucket_appends_behind_a_non_empty_batch() {
        let mut q = EventQueue::new();
        q.push(4, 1);
        q.push(4, 2);
        let mut out = vec![0];
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn drain_bucket_pulls_same_time_overflow_siblings() {
        // With the ring empty, draining an overflow head migrates its
        // same-time siblings into the ring; the batch must include them.
        let mut q = EventQueue::new();
        let far = HORIZON as Cycle * 2 + 5;
        q.push(far, 1);
        q.push(far, 2);
        q.push(far + 1, 3);
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.now(), far);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 1);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn pushes_at_the_drained_time_land_in_the_next_batch() {
        let mut q = EventQueue::new();
        q.push(7, 0);
        q.push(7, 1);
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket(&mut out), 2);
        // A handler at t=7 schedules more work at t=7: higher sequence
        // numbers put it after the drained batch, in its own bucket run.
        q.push(7, 2);
        q.push(7, 3);
        q.push(8, 4);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec![2, 3]);
        assert_eq!(q.now(), 7);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 1);
        assert_eq!(out, vec![4]);
    }

    /// Push delays of the engine, in cycles: `(lo, hi, weight)` log2 bins,
    /// weights in basis points. Measured over 27M `Simulation::schedule`
    /// calls of the xlat-local and xlat-remote benchmarks under the naive
    /// and hdpat policies at bench scale (DESIGN.md §11.1).
    const MEASURED_DELAY_MIX: [(Cycle, Cycle, u64); 12] = [
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

    fn measured_delay(rng: &mut crate::SimRng) -> Cycle {
        let mut pick = rng.gen_range(0..10_000);
        for (lo, hi, weight) in MEASURED_DELAY_MIX {
            if pick < weight {
                return lo + rng.gen_range(0..hi - lo);
            }
            pick -= weight;
        }
        unreachable!("weights sum to 10,000")
    }

    #[test]
    fn pool_stays_within_peak_occupancy_under_the_measured_delay_mix() {
        const EVENTS: u64 = 1_000_000;
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::seeded(42);
        // The engine's shape: a 1,536-event kick at t=0, then every
        // delivered event re-arms one follow-up until the budget is spent.
        for cu in 0..1_536u64 {
            q.push(0, cu);
        }
        let mut pushed = 1_536;
        let (mut batch, mut peak_occupied) = (Vec::new(), 0);
        while q.drain_bucket(&mut batch) > 0 {
            let t = q.now();
            for p in batch.drain(..) {
                if pushed < EVENTS {
                    q.push(t + measured_delay(&mut rng), p);
                    pushed += 1;
                }
            }
            let occupied: usize = q.words.iter().map(|w| w.count_ones() as usize).sum();
            peak_occupied = peak_occupied.max(occupied);
            let buffers = q.buckets.iter().filter(|b| b.capacity() > 0).count() + q.pool.len();
            assert!(
                buffers <= peak_occupied + 1,
                "{buffers} buffers for a peak of {peak_occupied} occupied buckets"
            );
        }
        assert!(q.overflow.is_empty());
        assert_eq!(q.drain_check(), (EVENTS, EVENTS));
    }

    #[test]
    fn drain_bucket_hands_over_the_bucket_buffer() {
        let mut q = EventQueue::new();
        q.push(1, 10u32);
        q.push(1, 11);
        let mut out = Vec::with_capacity(64);
        let spare = out.as_ptr();
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec![10, 11]);
        // The batch's old buffer is the pool's newest, so the next bucket
        // opened reuses it.
        out.clear();
        q.push(2, 12);
        assert_eq!(q.buckets[2].as_ptr(), spare);
        assert_eq!(q.drain_bucket(&mut out), 1);
        assert_eq!(out.as_ptr(), spare);
    }
}

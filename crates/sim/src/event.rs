//! The discrete-event queue at the heart of the simulator.
//!
//! Implemented as a two-level *calendar queue* (DESIGN.md §11): a ring of
//! per-cycle FIFO buckets covering the near future, backed by a sorted
//! overflow heap for far-future events. Push and pop are O(1) on the ring —
//! the common case by far in the simulator's hot loop — while delivery order
//! stays exactly the `(time, insertion sequence)` order of the original
//! `BinaryHeap` implementation (`tests/equivalence.rs` proves the two
//! pop-for-pop identical under arbitrary interleavings). Bucket buffers
//! circulate through a LIFO pool and a drained bucket is handed to the
//! caller by swapping buffers, so the hot loop neither copies events out of
//! the ring nor pushes into a buffer that has gone cold.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// Width of the calendar ring: how far ahead of the window base an event may
/// land and still get an O(1) bucket. Must be a power of two (the bucket
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
/// advances monotonically as events are popped. Pushing an event in the past
/// is a logic error and panics in debug builds.
///
/// # Structure
///
/// Three tiers, strictly ordered in time, so the earliest `(time, seq)`
/// entry is always at the front of the first non-empty tier:
///
/// * **Ring** — `HORIZON` per-cycle FIFO buckets covering
///   `[base, base + HORIZON)`, where `base` only ever advances. Each
///   occupied bucket holds the events of exactly one timestamp in insertion
///   order, so FIFO order *is* sequence order. A two-level occupancy bitmap
///   (a bit per bucket, a summary bit per word) finds the next occupied
///   bucket in a handful of `trailing_zeros` operations. An empty bucket
///   owns no buffer: the first push takes the most recently released one
///   from a LIFO pool, and draining the bucket swaps its buffer into the
///   caller's batch `Vec`, whose old buffer goes back to the pool.
///   [`EventQueue::pop`] instead moves the head bucket, reversed, into a
///   front `Vec` and pops its tail, so draining a bucket one event at a
///   time stays O(1) per event; the front holds the head timestamp and is
///   delivered before the ring.
/// * **Overflow** — a `(time, seq)`-sorted heap for events at or beyond
///   `base + HORIZON`. Whenever `base` advances, entries that came inside
///   the window migrate into their ring buckets in heap order; an overflow
///   entry always migrates before any direct push to the same cycle can
///   occur (the window had not reached that cycle yet), so bucket FIFO
///   order still equals sequence order.
/// * **Backlog** — a sorted heap for events below `base`. Unreachable in
///   debug builds (pushing the past panics); in release builds it preserves
///   the heap-order delivery of erroneous past pushes.
///
/// # Example
///
/// ```
/// let mut q = wsg_sim::EventQueue::new();
/// q.push(100, "b");
/// q.push(100, "c");
/// q.push(50, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
/// assert_eq!(order, vec![(50, "a"), (100, "b"), (100, "c")]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Per-cycle FIFO buckets; index `time % HORIZON`. Unoccupied buckets
    /// hold no buffer.
    buckets: Vec<Vec<E>>,
    /// Empty bucket buffers, most recently released last.
    pool: Vec<Vec<E>>,
    /// The rest of a bucket that [`EventQueue::pop`] has started on, in
    /// reverse delivery order; every entry is at `front_time`, which equals
    /// `base` while it is non-empty.
    front: Vec<E>,
    front_time: Cycle,
    /// Occupancy bit per bucket.
    words: [u64; WORDS],
    /// Occupancy bit per `words` entry.
    summary: u64,
    /// Start of the ring window `[base, base + HORIZON)`. Monotone.
    base: Cycle,
    /// Events resident in the ring.
    ring_len: usize,
    /// Events at `time >= base + HORIZON`, in `(time, seq)` order.
    overflow: BinaryHeap<Entry<E>>,
    /// Events at `time < base` (release-mode past pushes only).
    backlog: BinaryHeap<Entry<E>>,
    now: Cycle,
    seq: u64,
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
            front: Vec::new(),
            front_time: 0,
            words: [0; WORDS],
            summary: 0,
            base: 0,
            ring_len: 0,
            overflow: BinaryHeap::with_capacity(far),
            backlog: BinaryHeap::new(),
            now: 0,
            seq: 0,
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

    /// Absolute time of ring bucket `idx`, given the window base slot.
    fn bucket_time(&self, idx: usize, from: usize) -> Cycle {
        self.base + ((idx + HORIZON - from) % HORIZON) as Cycle
    }

    /// Advances the window base, migrating overflow entries that came inside
    /// the window into their ring buckets in `(time, seq)` order.
    fn advance_base(&mut self, to: Cycle) {
        self.base = to;
        while let Some(head) = self.overflow.peek() {
            // No overflow: every overflow entry's time is >= the new base
            // (it exceeded the old base by a full horizon, and `to` is
            // either a ring time inside the old window or the overflow
            // minimum itself).
            if head.time - self.base >= HORIZON as Cycle {
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
    /// guarantees lies in `[base, base + HORIZON)`. A bucket's first event
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

    /// Returns an emptied buffer to the pool.
    fn recycle(&mut self, buf: Vec<E>) {
        debug_assert!(buf.is_empty(), "recycled a non-empty bucket buffer");
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Moves the whole of occupied ring bucket `idx` to the end of `out`:
    /// an O(1) buffer swap when `out` is empty, an append otherwise. The
    /// buffer left over goes back to the pool. Returns the event count.
    fn take_bucket(&mut self, idx: usize, out: &mut Vec<E>) -> usize {
        let bucket = &mut self.buckets[idx];
        let n = bucket.len();
        if out.is_empty() {
            std::mem::swap(bucket, out);
        } else {
            out.append(bucket);
        }
        let spare = std::mem::take(bucket);
        self.recycle(spare);
        self.clear_bit(idx);
        self.ring_len -= n;
        n
    }

    /// The earliest occupied ring bucket and its time. Caller guarantees
    /// `ring_len > 0`.
    fn first_bucket(&self) -> (usize, Cycle) {
        let from = (self.base % HORIZON as Cycle) as usize;
        let idx = match self.next_occupied(from) {
            Some(i) => i,
            None => unreachable!("ring_len > 0 with an empty occupancy bitmap"),
        };
        (idx, self.bucket_time(idx, from))
    }

    /// Pops the front's next event, returning its buffer to the pool once
    /// empty. Caller guarantees the front is non-empty.
    fn pop_front(&mut self) -> (Cycle, E) {
        let payload = match self.front.pop() {
            Some(p) => p,
            None => unreachable!("pop_front on an empty front"),
        };
        if self.front.is_empty() {
            let buf = std::mem::take(&mut self.front);
            self.recycle(buf);
        }
        (self.front_time, payload)
    }

    /// Pops the earliest ring event by moving its whole bucket, reversed,
    /// to the front. Caller guarantees `ring_len > 0` and an empty front.
    fn pop_ring(&mut self) -> (Cycle, E) {
        let (idx, time) = self.first_bucket();
        let mut bucket = std::mem::take(&mut self.buckets[idx]);
        self.clear_bit(idx);
        self.ring_len -= bucket.len();
        bucket.reverse();
        self.front = bucket;
        self.front_time = time;
        self.advance_base(time);
        self.pop_front()
    }

    /// Schedules `payload` to fire at absolute cycle `time`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is earlier than the current time.
    pub fn push(&mut self, time: Cycle, payload: E) {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {} < {}",
            time,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        if time < self.base {
            // Release-only: a past push (or a push between a regressed `now`
            // and `base`) cannot enter the ring; the backlog heap preserves
            // its (time, seq) delivery slot ahead of every ring entry.
            self.backlog.push(Entry { time, seq, payload });
        } else if time - self.base < HORIZON as Cycle {
            self.push_ring(time, payload);
        } else {
            self.overflow.push(Entry { time, seq, payload });
        }
    }

    /// Schedules `payload` to fire `delay` cycles after the current time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now + delay` overflows the cycle counter.
    /// Release builds clamp the event to `Cycle::MAX`.
    pub fn push_after(&mut self, delay: Cycle, payload: E) {
        match self.now.checked_add(delay) {
            Some(time) => self.push(time, payload),
            None => {
                if cfg!(debug_assertions) {
                    panic!(
                        "push_after delay overflow: {} + {} wraps the cycle counter",
                        self.now, delay
                    );
                }
                self.push(Cycle::MAX, payload);
            }
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (time, payload) = if let Some(e) = self.backlog.pop() {
            (e.time, e.payload)
        } else if !self.front.is_empty() {
            self.pop_front()
        } else if self.ring_len > 0 {
            self.pop_ring()
        } else if let Some(e) = self.overflow.pop() {
            self.advance_base(e.time);
            (e.time, e.payload)
        } else {
            return None;
        };
        debug_assert!(time >= self.now, "time ran backwards");
        self.now = time;
        self.popped += 1;
        Some((time, payload))
    }

    /// Removes every pending event of the earliest timestamp — one whole
    /// calendar bucket — appending the payloads to `out` in delivery order
    /// and advancing the clock to that timestamp. Returns the number of
    /// events drained (0 iff the queue is empty; `out` is untouched then).
    ///
    /// This is the batched form of [`EventQueue::pop`]: a sequence of
    /// `drain_bucket` calls delivers exactly the same `(time, payload)`
    /// stream as a sequence of `pop` calls — including events pushed *between*
    /// batches at the just-drained timestamp, which land in the (re-based)
    /// ring bucket and come out in the next batch, after the current one,
    /// exactly where their higher sequence numbers place them. Batching amortizes the occupancy-bitmap scan,
    /// base advance and `now` update over the bucket.
    ///
    /// A bucket holds exactly one timestamp, so the batch never spans
    /// cycles; handlers can treat [`EventQueue::now`] as constant across it.
    ///
    /// Pass an empty `out` in the hot loop: the bucket's buffer is then
    /// swapped into it with no copy, and `out`'s old buffer joins the pool
    /// that future pushes draw from. A non-empty `out` is appended to.
    pub fn drain_bucket(&mut self, out: &mut Vec<E>) -> usize {
        let start = out.len();
        let time = if let Some(head) = self.backlog.peek() {
            // Release-mode past pushes: drain the equal-time run in heap
            // (time, seq) order. Backlog times sit below `base`, so they
            // always precede every ring and overflow entry.
            let t = head.time;
            while let Some(h) = self.backlog.peek() {
                if h.time != t {
                    break;
                }
                match self.backlog.pop() {
                    Some(e) => out.push(e.payload),
                    None => unreachable!("peeked entry vanished"),
                }
            }
            t
        } else if !self.front.is_empty() {
            // A bucket partly consumed by `pop`: its rest, then any events
            // pushed at the same time since (the ring bucket at `base`).
            let t = self.front_time;
            out.extend(self.front.drain(..).rev());
            let buf = std::mem::take(&mut self.front);
            self.recycle(buf);
            let idx = (t % HORIZON as Cycle) as usize;
            if self.occupied(idx) {
                self.take_bucket(idx, out);
            }
            t
        } else if self.ring_len > 0 {
            let (idx, t) = self.first_bucket();
            self.take_bucket(idx, out);
            // Migrating after the drain is equivalent to the per-pop
            // interleaving: an occupied ring bucket at `t` precludes
            // overflow entries at `t` (overflow starts a full horizon past
            // the base), so no migration can extend the current batch.
            self.advance_base(t);
            t
        } else if let Some(e) = self.overflow.pop() {
            let t = e.time;
            out.push(e.payload);
            // Same-time overflow siblings migrate into the ring bucket for
            // `t` (in heap order, i.e. ascending seq — all above `e`'s) and
            // belong to this batch. The bucket cannot hold anything else:
            // the ring was empty, and a migrated time `t' > t` with
            // `t' ≡ t (mod HORIZON)` would be a full horizon out, beyond
            // the migration window.
            self.advance_base(t);
            let idx = (t % HORIZON as Cycle) as usize;
            if self.occupied(idx) {
                self.take_bucket(idx, out);
            }
            t
        } else {
            return 0;
        };
        let n = out.len() - start;
        debug_assert!(time >= self.now, "time ran backwards");
        self.now = time;
        self.popped += n as u64;
        n
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if let Some(e) = self.backlog.peek() {
            return Some(e.time);
        }
        if !self.front.is_empty() {
            return Some(self.front_time);
        }
        if self.ring_len > 0 {
            return Some(self.first_bucket().1);
        }
        self.overflow.peek().map(|e| e.time)
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.front.len() + self.ring_len + self.overflow.len() + self.backlog.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (throughput accounting).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events ever popped.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// End-of-simulation conservation check: asserts every pushed event was
    /// popped (the queue fully drained) and returns `(pushed, popped)`.
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

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.push(42, ());
        q.pop();
        assert_eq!(q.now(), 42);
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push(100, "first");
        q.pop();
        q.push_after(5, "second");
        assert_eq!(q.pop(), Some((105, "second")));
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events beyond base + HORIZON take the overflow path and must still
        // deliver in (time, seq) order after migrating back into the ring.
        let mut q = EventQueue::new();
        let far = HORIZON as Cycle * 3 + 17;
        q.push(far, "far-b");
        q.push(5, "near");
        q.push(far, "far-c");
        q.push(far + 1, "far-d");
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((far, "far-b")));
        assert_eq!(q.pop(), Some((far, "far-c")));
        assert_eq!(q.pop(), Some((far + 1, "far-d")));
        assert_eq!(q.pop(), None);
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
        assert_eq!(q.pop(), Some((200, 1))); // base -> 200, t migrates
        q.push(t, 2); // direct push into the same bucket
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn ring_wraps_around_the_horizon() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            let t = i * (HORIZON as Cycle / 2 + 3);
            q.push(t, i);
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    #[cfg(debug_assertions)]
    fn pushing_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    #[test]
    #[should_panic(expected = "delay overflow")]
    #[cfg(debug_assertions)]
    fn push_after_overflow_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push_after(Cycle::MAX, ());
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    #[cfg(debug_assertions)]
    fn pop_behind_a_corrupted_clock_panics() {
        let mut q = EventQueue::new();
        q.push(25, ());
        // Corrupt the clock past the pending event.
        q.now = 30;
        q.pop();
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_advance_time() {
        let mut q = EventQueue::new();
        q.push(9, ());
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.now(), 0);
    }

    #[test]
    fn drain_check_reports_counters() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        q.pop();
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
    fn drain_bucket_matches_pop_for_pop_delivery() {
        // The same synthetic workload (each event spawns follow-ups, some at
        // the current cycle) delivered per-pop and per-batch must produce an
        // identical (time, payload) stream.
        let step = |t: Cycle, n: u32| -> Vec<(Cycle, u32)> {
            let h = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t;
            if n < 300 {
                // One same-cycle spawn (h % 3 == 0 often) and one spread out
                // across ring and overflow distances.
                vec![
                    (t + (h % 3), n * 2 + 1),
                    (t + (h % (3 * HORIZON as Cycle / 2)), n * 2 + 2),
                ]
            } else {
                Vec::new()
            }
        };

        let mut per_pop = EventQueue::new();
        per_pop.push(0, 0u32);
        let mut pop_order = Vec::new();
        while let Some((t, n)) = per_pop.pop() {
            pop_order.push((t, n));
            for (ct, c) in step(t, n) {
                per_pop.push(ct, c);
            }
        }

        let mut batched = EventQueue::new();
        batched.push(0, 0u32);
        let mut batch_order = Vec::new();
        let mut batch = Vec::new();
        loop {
            if batched.drain_bucket(&mut batch) == 0 {
                break;
            }
            let t = batched.now();
            for n in batch.drain(..) {
                batch_order.push((t, n));
                for (ct, c) in step(t, n) {
                    batched.push(ct, c);
                }
            }
        }

        assert_eq!(pop_order, batch_order);
        assert_eq!(per_pop.drain_check(), batched.drain_check());
    }

    #[test]
    fn drain_bucket_pulls_same_time_overflow_siblings() {
        // With the ring empty, popping an overflow head migrates its
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
        assert!(q.overflow.is_empty() && q.front.is_empty());
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

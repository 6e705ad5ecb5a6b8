//! A seeded, deterministic open-addressing hash index for hot-path tables.
//!
//! The simulator's metadata tables (page tables, redirection tables, MSHRs)
//! were originally `BTreeMap`s: O(log n) per access, but with a deterministic
//! iteration order that the determinism contract (DESIGN.md §11) relies on.
//! `std::collections::HashMap` would be O(1) but seeds its hasher from
//! process entropy (`RandomState`), so *iteration order* varies run to run —
//! exactly the nondeterminism lint rule d1 exists to keep out of observable
//! output, and rule d6 (DESIGN.md §8.1) rejects the type outright.
//!
//! [`HashIndex`] is the sanctioned replacement: an open-addressing table with
//!
//! * a **fixed seed** — the hash of a key is the same in every process, every
//!   run, on every host; the table layout is a pure function of the operation
//!   history;
//! * **linear probing with backward-shift deletion** — no tombstones, so
//!   probe chains never degrade with churn;
//! * **sorted-on-demand iteration** — [`HashIndex::iter_sorted`] collects and
//!   sorts by key, so any *observable* traversal is in ascending key order,
//!   byte-identical to what the `BTreeMap` produced. Unordered traversal is
//!   deliberately restricted to [`HashIndex::fold_values`], which is safe
//!   only for order-insensitive reductions.
//!
//! Keys are `u64` (VPNs, request ids and site ids all are); callers with
//! newtype keys wrap/unwrap at the boundary.

/// Fixed hash seed: every run, every host, the same table layout.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum number of slots (must be a power of two).
const MIN_SLOTS: usize = 16;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A deterministic open-addressing hash map from `u64` keys to `V`.
///
/// Drop-in for the hot-path `BTreeMap` uses: `get`/`insert`/`remove` are
/// amortized O(1), and [`HashIndex::iter_sorted`] restores ascending-key
/// order wherever traversal is observable.
///
/// # Example
///
/// ```
/// let mut ix = wsg_sim::HashIndex::new();
/// ix.insert(7, "seven");
/// ix.insert(3, "three");
/// assert_eq!(ix.get(7), Some(&"seven"));
/// let keys: Vec<u64> = ix.iter_sorted().map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![3, 7]); // ascending, like a BTreeMap
/// ```
#[derive(Debug, Clone)]
pub struct HashIndex<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> Default for HashIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> HashIndex<V> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates an index pre-sized to hold `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut ix = Self::new();
        if n > 0 {
            ix.slots = new_slots(slots_for(n));
        }
        ix
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (mix(key ^ SEED) as usize) & self.mask()
    }

    /// Finds the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        let i = self.find(key)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Looks up `key` mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.grow_if_needed();
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if absent (the `entry().or_insert_with()` idiom).
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        if self.find(key).is_none() {
            self.insert(key, default());
        }
        // The entry exists now; find() cannot fail.
        let i = match self.find(key) {
            Some(i) => i,
            None => unreachable!("entry just inserted"),
        };
        match &mut self.slots[i] {
            Some((_, v)) => v,
            None => unreachable!("find() returned an empty slot"),
        }
    }

    /// Removes `key`, returning its value if present.
    ///
    /// Uses backward-shift deletion: subsequent entries in the probe chain
    /// are moved up so no tombstones are left behind and lookups stay O(probe
    /// length) forever, independent of churn history.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let (_, value) = match self.slots[i].take() {
            Some(kv) => kv,
            None => unreachable!("find() returned an empty slot"),
        };
        self.len -= 1;
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let home = match &self.slots[j] {
                None => break,
                Some((k, _)) => self.home(*k),
            };
            // Move slots[j] into the hole at i iff its probe path covers i,
            // i.e. the cyclic distance home→i does not exceed home→j.
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(i) & mask {
                self.slots[i] = self.slots[j].take();
                i = j;
            }
        }
        Some(value)
    }

    /// Iterates entries in **ascending key order** (sorted on demand).
    ///
    /// This is the only ordered traversal; using it everywhere iteration is
    /// observable keeps output byte-identical to the former `BTreeMap`s.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (u64, &V)> {
        let mut pairs: Vec<(u64, &V)> = self
            .slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs.into_iter()
    }

    /// All keys in ascending order.
    pub fn keys_sorted(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, _)| *k))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Folds over values in **unspecified order**.
    ///
    /// Safe only for order-insensitive reductions (sums, maxima, counts);
    /// anything whose result depends on traversal order must use
    /// [`HashIndex::iter_sorted`] instead.
    pub fn fold_values<A>(&self, init: A, mut f: impl FnMut(A, &V) -> A) -> A {
        let mut acc = init;
        for (_, v) in self.slots.iter().flatten() {
            acc = f(acc, v);
        }
        acc
    }

    fn grow_if_needed(&mut self) {
        if self.slots.is_empty() {
            self.slots = new_slots(MIN_SLOTS);
            return;
        }
        // Grow at 3/4 load so probe chains stay short.
        if (self.len + 1) * 4 <= self.slots.len() * 3 {
            return;
        }
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, new_slots(doubled));
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(k, v);
        }
    }
}

/// Slot count for `n` entries at ≤ 3/4 load, rounded to a power of two.
fn slots_for(n: usize) -> usize {
    let needed = n + n.div_ceil(3); // ceil(n * 4/3)
    needed.next_power_of_two().max(MIN_SLOTS)
}

fn new_slots<V>(n: usize) -> Vec<Option<(u64, V)>> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, || None);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut ix = HashIndex::new();
        assert!(ix.is_empty());
        assert_eq!(ix.insert(1, "a"), None);
        assert_eq!(ix.insert(2, "b"), None);
        assert_eq!(ix.insert(1, "a2"), Some("a"));
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get(1), Some(&"a2"));
        assert_eq!(ix.get(3), None);
        assert_eq!(ix.remove(1), Some("a2"));
        assert_eq!(ix.remove(1), None);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut ix = HashIndex::new();
        ix.insert(5, 10u64);
        *ix.get_mut(5).unwrap() += 1;
        assert_eq!(ix.get(5), Some(&11));
        assert!(ix.get_mut(6).is_none());
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut ix: HashIndex<Vec<u32>> = HashIndex::new();
        ix.get_or_insert_with(9, Vec::new).push(1);
        ix.get_or_insert_with(9, Vec::new).push(2);
        assert_eq!(ix.get(9), Some(&vec![1, 2]));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn iter_sorted_is_ascending() {
        let mut ix = HashIndex::new();
        for k in [9u64, 2, 7, 4, 0, u64::MAX] {
            ix.insert(k, k.wrapping_mul(10));
        }
        let keys: Vec<u64> = ix.iter_sorted().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 2, 4, 7, 9, u64::MAX]);
        assert_eq!(ix.keys_sorted(), keys);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut ix = HashIndex::with_capacity(4);
        for k in 0..10_000u64 {
            ix.insert(k, k);
        }
        assert_eq!(ix.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(ix.get(k), Some(&k));
        }
    }

    #[test]
    fn backward_shift_preserves_probe_chains() {
        // Force collisions by using many keys, removing half, and checking
        // the survivors are all still reachable (no tombstone needed).
        let mut ix = HashIndex::new();
        for k in 0..1000u64 {
            ix.insert(k, k);
        }
        for k in (0..1000u64).step_by(2) {
            assert_eq!(ix.remove(k), Some(k));
        }
        for k in 0..1000u64 {
            if k % 2 == 0 {
                assert_eq!(ix.get(k), None);
            } else {
                assert_eq!(ix.get(k), Some(&k));
            }
        }
        assert_eq!(ix.len(), 500);
    }

    #[test]
    fn churn_does_not_leak_slots() {
        let mut ix = HashIndex::with_capacity(16);
        for round in 0..100u64 {
            for k in 0..16u64 {
                ix.insert(round * 16 + k, ());
            }
            for k in 0..16u64 {
                ix.remove(round * 16 + k);
            }
        }
        assert!(ix.is_empty());
        // Table stays bounded: churn never grew it past the 16-entry need.
        assert!(ix.slots.len() <= 64, "slots grew to {}", ix.slots.len());
    }

    #[test]
    fn fold_values_sums_regardless_of_order() {
        let mut ix = HashIndex::new();
        for k in 0..100u64 {
            ix.insert(k, k);
        }
        assert_eq!(ix.fold_values(0u64, |a, v| a + v), 4950);
    }

    #[test]
    fn with_capacity_does_not_rehash_below_n() {
        let mut ix = HashIndex::with_capacity(100);
        let initial = ix.slots.len();
        for k in 0..100u64 {
            ix.insert(k, ());
        }
        assert_eq!(ix.slots.len(), initial);
    }

    #[test]
    fn empty_index_lookups_are_safe() {
        let ix: HashIndex<u32> = HashIndex::new();
        assert_eq!(ix.get(0), None);
        assert!(!ix.contains_key(42));
        assert_eq!(ix.iter_sorted().count(), 0);
    }
}

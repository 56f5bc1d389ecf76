//! A sorted-vector map for the small keyed tables every actor keeps.
//!
//! A node's lease halves, bills, cooldowns and tree links number from none
//! to a few dozen, and a `BTreeMap` allocates a whole 11-slot leaf for the
//! first of them. [`FlatMap`] keeps its entries in one `Vec<(K, V)>`
//! sorted by key: lookups binary-search it, iteration is in key order —
//! the order a `BTreeMap` would give, so replacing one moves no simulated
//! outcome — and no lookup depends on a per-process hash seed.
//!
//! **Bound.** The vector only grows by doubling from Rust's smallest
//! non-zero capacity and never shrinks, so a map whose length peaked at
//! `p` holds capacity for at most `max(4, 2 × p)` entries (types over
//! 1 KiB start at one). Insert and remove shift the tail, so the map suits
//! tables of up to a few thousand entries.

use std::fmt;

/// A map over a sorted `Vec<(K, V)>`, with the subset of `BTreeMap`'s
/// API the stack uses.
///
/// ```
/// use vbundle_sim::FlatMap;
/// let mut m: FlatMap<u32, &str> = FlatMap::new();
/// assert_eq!(m.insert(3, "c"), None);
/// m.insert(1, "a");
/// assert_eq!(m.insert(3, "C"), Some("c"));
/// assert_eq!(m.keys().copied().collect::<Vec<_>>(), [1, 3]);
/// assert_eq!(m.remove(&1), Some("a"));
/// assert_eq!(m.get(&3), Some(&"C"));
/// ```
#[derive(Clone, PartialEq)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> FlatMap<K, V> {
    /// An empty map; allocates nothing until the first insert.
    pub const fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the map can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns true, visiting them
    /// in key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K: Ord, V> FlatMap<K, V> {
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// True if `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// The value under `key`, first storing `make()` there if it has none
    /// (`BTreeMap`'s `entry(key).or_insert_with(make)`).
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for FlatMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_follows_the_peak_length() {
        let mut m: FlatMap<u64, [u64; 4]> = FlatMap::new();
        assert_eq!(m.capacity(), 0);
        m.insert(1, [0; 4]);
        assert!(m.capacity() <= 4);
        for k in 0..100 {
            m.insert(k, [k; 4]);
            assert!(m.capacity() <= (2 * m.len()).max(4));
        }
        m.retain(|&k, _| k % 10 == 0);
        assert_eq!(m.len(), 10);
        assert!(m.capacity() <= 200, "never above twice the peak");
    }

    #[test]
    fn get_or_insert_with_makes_once() {
        let mut m: FlatMap<u8, u32> = FlatMap::new();
        *m.get_or_insert_with(2, || 10) += 1;
        *m.get_or_insert_with(2, || unreachable!("already present")) += 1;
        assert_eq!(m.get(&2), Some(&12));
        assert_eq!(m.len(), 1);
    }
}

//! Receive-side message-id dedup, so duplicated deliveries
//! ([`FaultAction::Duplicate`](vbundle_sim::FaultAction) or courier
//! retransmissions) are idempotent by construction.

use std::collections::VecDeque;

use vbundle_sim::FlatMap;

/// A bounded set of recently seen message ids with FIFO eviction.
///
/// `remember` returns whether the id was *new*; handlers guard their
/// side effects with it:
///
/// ```
/// use vbundle_fdetect::DedupWindow;
/// let mut seen: DedupWindow<(u64, u64)> = DedupWindow::new(128);
/// assert!(seen.remember((1, 7)));   // first delivery: apply
/// assert!(!seen.remember((1, 7)));  // duplicate: drop
/// ```
#[derive(Debug, Clone)]
pub struct DedupWindow<K: Ord + Clone> {
    seen: FlatMap<K, ()>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Ord + Clone> DedupWindow<K> {
    /// A window remembering up to `cap` ids.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        DedupWindow {
            seen: FlatMap::new(),
            // Grown on demand: most windows (every non-root node's
            // Scribe publish window) never remember anything.
            order: VecDeque::new(),
            cap,
        }
    }

    /// Records `key`; returns true iff it had not been seen (within the
    /// window's horizon).
    pub fn remember(&mut self, key: K) -> bool {
        if self.seen.insert(key.clone(), ()).is_some() {
            return false;
        }
        if self.order.len() == self.cap {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.order.push_back(key);
        true
    }

    /// Whether `key` is currently remembered.
    pub fn contains(&self, key: &K) -> bool {
        self.seen.contains_key(key)
    }

    /// Number of ids currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_within_window() {
        let mut w: DedupWindow<u64> = DedupWindow::new(4);
        assert!(w.remember(1));
        assert!(w.remember(2));
        assert!(!w.remember(1));
        assert_eq!(w.len(), 2);
    }

    /// A duplicate storm — every id delivered three times, far more ids
    /// than the window holds — never grows the window past its cap, and
    /// duplicates arriving within the horizon are still suppressed.
    #[test]
    fn bounded_under_duplicate_storm() {
        const CAP: usize = 16;
        let mut w: DedupWindow<u64> = DedupWindow::new(CAP);
        for id in 0..1000u64 {
            assert!(w.remember(id), "first delivery of {id} must be new");
            assert!(!w.remember(id), "immediate duplicate of {id} must drop");
            assert!(!w.remember(id));
            assert!(w.len() <= CAP, "window exceeded its cap at id {id}");
        }
        assert_eq!(w.len(), CAP);
        // The horizon is FIFO over *new* ids: duplicates never re-insert,
        // so exactly the last CAP distinct ids remain.
        for old in 0..(1000 - CAP as u64) {
            assert!(!w.contains(&old), "evicted id {old} still remembered");
        }
        for recent in (1000 - CAP as u64)..1000 {
            assert!(w.contains(&recent), "recent id {recent} fell out early");
        }
    }

    #[test]
    fn evicts_oldest_first() {
        let mut w: DedupWindow<u64> = DedupWindow::new(2);
        assert!(w.remember(1));
        assert!(w.remember(2));
        assert!(w.remember(3)); // evicts 1
        assert!(!w.contains(&1));
        assert!(w.contains(&2));
        assert!(w.remember(1), "evicted ids may be re-remembered");
    }
}

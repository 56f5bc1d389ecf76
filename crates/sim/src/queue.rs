//! The two-tier calendar queue behind the engine's event loop.
//!
//! The engine needs exactly one queue discipline: pop the event with the
//! smallest `(arrival time, insertion sequence)` key. A global binary heap
//! gives that in `O(log n)` per operation, but every sift moves whole
//! events (including large wire-message payloads) and the working set is
//! the entire queue — at 100k servers that is megabytes of heap array per
//! pop. [`CalendarQueue`] keeps the same total order with three tiers:
//!
//! - **window** — the *active bucket*, sorted once when it is drained
//!   from the ring and then walked with a cursor: a pop is a bounds check
//!   and an increment, not a heap sift, and the upcoming pops sit at a
//!   known position so prefetching can run exactly in pop order. A tiny
//!   `overflow` min-heap catches entries inserted *into* the active
//!   window after the sort (same-instant sends); it is empty in the
//!   common case and each pop only compares its top against the cursor.
//! - **near** — a ring of FIFO buckets covering the next
//!   `NBUCKETS × 2^SHIFT` microseconds. Each bucket is a plain vector of
//!   keys: parking is an O(1) append, and draining a bucket streams its
//!   keys sequentially into the window — no pointer chasing, so the
//!   hardware prefetcher hides the latency even when the ring holds
//!   hundreds of thousands of entries.
//! - **far** — a min-heap holding everything beyond the near horizon
//!   (long periodic timers, mostly). Promoted into the ring as the horizon
//!   advances, so far events pay `O(log far)` twice but never mix with the
//!   hot path.
//!
//! Payloads are *parked in a slab* and addressed by index: queue
//! maintenance (sifts, bucket drains, promotions) moves only
//! `(at, seq, index)` triples, never the `W` payload, which is written
//! once on insert and read once on pop.
//!
//! **Determinism argument.** Keys are unique (`seq` is a strictly
//! increasing insertion counter), every event lives in exactly one tier,
//! and the tiers partition time: the window (sorted run + overflow heap)
//! holds keys with bucket `≤ cur_bucket`, the ring holds
//! `(cur_bucket, cur_bucket + NBUCKETS)`, `far` holds the rest. Inserts
//! never go backwards in time past the active window (the engine
//! guarantees `at ≥ now`), so the smaller of the cursor key and the
//! overflow top is always the global minimum — the pop sequence is
//! exactly the old heap's `(at, seq)` order, byte for byte.
//!
//! **Memory bound.** Queue memory follows *live* events, not simulated
//! time. Only the sorted window needs burst capacity, so a drain leaves
//! the window on whichever backing vector is larger and the drained slot
//! with at most [`SLOT_KEEP`] keys of capacity. A slot that kept its
//! burst would never re-use it — a periodic round parks thousands of
//! same-latency keys in one bucket and the next round lands in a
//! *different* slot (1 s is 15 625 buckets ≡ 3 337 mod 4 096, coprime
//! with the ring) — so kept bursts pile up, one per slot ever hit. With
//! `P` the peak entry count, each key buffer is a vector doubled up to at
//! most `P` keys, so [`CalendarQueue::heap_bytes`] never exceeds `24 B ×
//! (8 P + NBUCKETS × (SLOT_KEEP + 1))` for window, ring, overflow and far
//! plus `2 P × (size_of::<Option<T>>() + 4 B)` for slab and free list.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;
use std::time::Instant;

use vbundle_obs::{HotSection, Profiler};

use crate::prefetch;

/// log2 of the bucket width in microseconds: 2^6 = 64 µs per bucket.
/// Narrow buckets keep the active window short even when hundreds of
/// thousands of timers share one tick interval — drain-sort cost scales
/// with *bucket* occupancy, not queue depth.
const SHIFT: u32 = 6;
/// Number of near-tier buckets (a power of two): with `SHIFT = 6` the
/// ring covers a ~262 ms horizon, so per-tick gossip and protocol probes
/// park in O(1) while sub-second-and-up periodic timers overflow to
/// `far`. Empty buckets cost one header check to skip, so a narrow-wide
/// ring beats a coarse one on both ends.
const NBUCKETS: u64 = 4096;
const MASK: u64 = NBUCKETS - 1;
/// Capacity (in keys) a drained ring slot may keep; a larger vector is
/// freed. Bursts drain alike at 0–256 and a steady ~70-key bucket likes
/// ≥ 64 (`perf_micro`, EXPERIMENTS.md); a warm ring then holds ≤ 6.3 MB.
const SLOT_KEEP: usize = 64;

/// A queue key: `(at, seq, slab index, prefetch hint)`, min-ordered via
/// `Reverse`. The hint is an opaque caller-supplied locality token (the
/// engine passes the destination actor index) reported back through
/// [`CalendarQueue::drain_prefetch`] once the entry's bucket enters the
/// active window; padding makes the fourth field free (24 bytes either
/// way).
type Key = Reverse<(u64, u64, u32, u32)>;

/// A deterministic two-tier calendar/ladder queue popping entries in
/// strict `(at, seq)` order — the engine's event queue, exposed so the
/// micro-benches and property tests can exercise the discipline directly.
///
/// ```
/// use vbundle_sim::CalendarQueue;
/// let mut q = CalendarQueue::new();
/// q.insert(50, 1, "late");
/// q.insert(10, 2, "early");
/// q.insert(10, 3, "early-but-second");
/// assert_eq!(q.pop(), Some((10, 2, "early")));
/// assert_eq!(q.pop(), Some((10, 3, "early-but-second")));
/// assert_eq!(q.pop(), Some((50, 1, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalendarQueue<T> {
    /// Parked payloads, written on insert and taken on pop — never moved
    /// by queue maintenance.
    payload: Vec<Option<T>>,
    /// Vacant slab indices available for reuse. LIFO, so the hottest
    /// slots recycle while still in cache.
    free: Vec<u32>,
    /// The active window's keys, ascending in `(at, seq)` — sorted once
    /// at drain, then consumed in place.
    window: Vec<Key>,
    /// Cursor into `window`: entries before it have been popped.
    win_pos: usize,
    /// Min-heap for keys that land in the active window *after* its sort
    /// (e.g. same-instant sends). Almost always empty.
    overflow: BinaryHeap<Key>,
    /// The near-horizon bucket ring: per-bucket key vectors in append
    /// (= `seq`) order; a drained slot keeps ≤ `SLOT_KEEP` keys of capacity.
    buckets: Vec<Vec<Key>>,
    /// Min-heap over everything beyond the near horizon.
    far: BinaryHeap<Key>,
    /// Absolute bucket index (`at >> SHIFT`) of the active window.
    cur_bucket: u64,
    /// Entries currently parked in ring buckets.
    near_len: usize,
    /// Total entries across all tiers.
    len: usize,
    /// Entries promoted out of the far tier so far (deterministic).
    far_promotions: u64,
    /// Active-window advances so far (deterministic).
    bucket_advances: u64,
    /// Rolling prefetch cursor into `window`, always `≥ win_pos`; see
    /// [`CalendarQueue::drain_prefetch`].
    pf_pos: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the active window at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            payload: Vec::new(),
            free: Vec::new(),
            window: Vec::new(),
            win_pos: 0,
            overflow: BinaryHeap::new(),
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
            cur_bucket: 0,
            near_len: 0,
            len: 0,
            far_promotions: 0,
            bucket_advances: 0,
            pf_pos: 0,
        }
    }

    /// Total entries queued across all tiers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries promoted from the far tier into the near ring so far.
    pub fn far_promotions(&self) -> u64 {
        self.far_promotions
    }

    /// Times the active window has advanced to a later bucket.
    pub fn bucket_advances(&self) -> u64 {
        self.bucket_advances
    }

    /// Bytes of heap held right now: every tier's capacity, the slab and
    /// its free list. Walks all ring slots — for gauges, not the hot path.
    pub fn heap_bytes(&self) -> usize {
        let slots: usize = self.buckets.iter().map(Vec::capacity).sum();
        let keys = self.window.capacity() + self.overflow.capacity() + self.far.capacity();
        (keys + slots) * size_of::<Key>()
            + self.buckets.capacity() * size_of::<Vec<Key>>()
            + self.payload.capacity() * size_of::<Option<T>>()
            + self.free.capacity() * size_of::<u32>()
    }

    /// Inserts `value` keyed by `(at, seq)`. `seq` must be unique across
    /// the queue's lifetime and `at` must not precede any already-popped
    /// key (the engine's `at ≥ now` invariant); violating either breaks
    /// the pop-order guarantee.
    pub fn insert(&mut self, at: u64, seq: u64, value: T) {
        self.insert_hinted(at, seq, 0, value);
    }

    /// [`CalendarQueue::insert`] with a prefetch locality hint attached:
    /// an opaque token (the engine uses the destination actor's index)
    /// echoed back via [`CalendarQueue::drain_prefetch`] once the entry's
    /// bucket is drained, far enough ahead of its pop for the caller to
    /// prefetch whatever state dispatching it will touch.
    pub fn insert_hinted(&mut self, at: u64, seq: u64, hint: u32, value: T) {
        let idx = self.alloc(value);
        let abs = at >> SHIFT;
        if abs <= self.cur_bucket {
            self.overflow.push(Reverse((at, seq, idx, hint)));
        } else if abs < self.cur_bucket + NBUCKETS {
            self.buckets[(abs & MASK) as usize].push(Reverse((at, seq, idx, hint)));
            self.near_len += 1;
        } else {
            self.far.push(Reverse((at, seq, idx, hint)));
        }
        self.len += 1;
    }

    /// Rolls the window's prefetch cursor forward by up to `n` entries —
    /// in exact pop order, since the window is sorted: each consumed
    /// entry's parked payload line is prefetched here, and its
    /// caller-supplied hint returned so the caller can prefetch its own
    /// per-entry state. Calling this once per pop keeps a steady lead of
    /// in-flight lines ahead of the cursor, instead of one burst at
    /// drain time that overwhelms the CPU's handful of fill buffers
    /// (excess prefetches are silently dropped, not queued).
    pub fn drain_prefetch(&mut self, n: usize) -> impl Iterator<Item = u32> + '_ {
        self.pf_pos = self.pf_pos.max(self.win_pos);
        let start = self.pf_pos;
        let end = (start + n).min(self.window.len());
        self.pf_pos = end;
        let payload = &self.payload;
        self.window[start..end]
            .iter()
            .map(move |&Reverse((_, _, idx, hint))| {
                prefetch::touch(&payload[idx as usize]);
                hint
            })
    }

    /// Pops the globally smallest `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_before(u64::MAX, None)
    }

    /// Pops the globally smallest entry if its `at` is `≤ deadline`, in a
    /// single queue operation (no separate peek). Returns `None` when the
    /// queue is empty or the earliest entry lies beyond the deadline.
    ///
    /// When a profiler is supplied, time spent promoting far-tier entries
    /// is recorded under [`HotSection::FarPromote`].
    pub fn pop_before(
        &mut self,
        deadline: u64,
        mut profiler: Option<&mut Profiler>,
    ) -> Option<(u64, u64, T)> {
        if !self.refill(&mut profiler) {
            return None;
        }
        // The window cursor and the overflow top are each the minimum of
        // their source; the smaller `(at, seq)` is the global minimum.
        let from_window = match (self.window.get(self.win_pos), self.overflow.peek()) {
            (Some(&Reverse(w)), Some(&Reverse(o))) => w < o,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("refill left an entry"),
        };
        let (at, seq, idx) = if from_window {
            let Reverse((at, seq, idx, _)) = self.window[self.win_pos];
            if at > deadline {
                return None;
            }
            self.win_pos += 1;
            (at, seq, idx)
        } else {
            let &Reverse((at, seq, idx, _)) = self.overflow.peek().expect("checked above");
            if at > deadline {
                return None;
            }
            self.overflow.pop();
            (at, seq, idx)
        };
        self.len -= 1;
        let value = self.payload[idx as usize].take().expect("parked payload");
        self.free.push(idx);
        Some((at, seq, value))
    }

    /// Payloads of the next few window entries in exact pop order.
    /// Best-effort by design: the engine uses these to prefetch upcoming
    /// events' actor state while the current event dispatches, so
    /// entries outside the sorted window (overflow arrivals) merely skip
    /// a prefetch opportunity. (Deeper peeks measure slower: the extra
    /// payload reads cost more than the added lead buys.)
    pub fn peek_hints(&self) -> impl Iterator<Item = &T> {
        self.window[self.win_pos..]
            .iter()
            .take(3)
            .filter_map(|&Reverse((_, _, idx, _))| self.payload[idx as usize].as_ref())
    }

    /// Ensures `current` holds the global minimum (advancing the window
    /// and promoting far entries as needed); false when the queue is empty.
    ///
    /// Skipping empty buckets is a sequential header scan, and far
    /// promotion runs once per jump: a far entry can never sort before
    /// the ring's next occupied bucket, because everything in the far
    /// tier lay beyond the *old* horizon and the ring sits entirely
    /// inside it.
    fn refill(&mut self, profiler: &mut Option<&mut Profiler>) -> bool {
        while self.win_pos == self.window.len() && self.overflow.is_empty() {
            if self.near_len > 0 {
                let mut b = self.cur_bucket + 1;
                while self.buckets[(b & MASK) as usize].is_empty() {
                    b += 1;
                }
                self.cur_bucket = b;
                self.bucket_advances += 1;
                self.promote_far(profiler);
                self.drain_bucket();
            } else if let Some(&Reverse((at, ..))) = self.far.peek() {
                // Nothing nearer: jump the window straight to the far
                // minimum instead of stepping through empty buckets.
                self.cur_bucket = at >> SHIFT;
                self.bucket_advances += 1;
                self.promote_far(profiler);
            } else {
                return false;
            }
        }
        true
    }

    /// Moves far-tier entries whose bucket fell inside the near horizon
    /// into the ring (or straight into `current` for the active window).
    fn promote_far(&mut self, profiler: &mut Option<&mut Profiler>) {
        let horizon = self.cur_bucket + NBUCKETS;
        match self.far.peek() {
            Some(&Reverse((at, ..))) if at >> SHIFT < horizon => {}
            _ => return,
        }
        let timer = profiler.as_ref().map(|_| Instant::now());
        while let Some(&Reverse((at, seq, idx, hint))) = self.far.peek() {
            let abs = at >> SHIFT;
            if abs >= horizon {
                break;
            }
            self.far.pop();
            self.far_promotions += 1;
            if abs <= self.cur_bucket {
                self.overflow.push(Reverse((at, seq, idx, hint)));
            } else {
                self.buckets[(abs & MASK) as usize].push(Reverse((at, seq, idx, hint)));
                self.near_len += 1;
            }
        }
        if let (Some(p), Some(t)) = (profiler.as_deref_mut(), timer) {
            p.record(HotSection::FarPromote, t.elapsed());
        }
    }

    /// Installs the active bucket as the window and sorts it once
    /// (`O(b log b)` for a bucket of `b` entries, amortizing to well
    /// under one sift per pop). The window takes the larger of the two
    /// backing vectors; the slot keeps at most `SLOT_KEEP` keys' worth.
    fn drain_bucket(&mut self) {
        let slot = (self.cur_bucket & MASK) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.is_empty() {
            return;
        }
        self.near_len -= bucket.len();
        debug_assert_eq!(self.win_pos, self.window.len(), "window drained");
        self.window.clear();
        self.win_pos = 0;
        self.pf_pos = 0;
        if bucket.capacity() > self.window.capacity() {
            std::mem::swap(&mut self.window, bucket);
        } else {
            self.window.append(bucket);
        }
        if bucket.capacity() > SLOT_KEEP {
            *bucket = Vec::new();
        }
        self.window.sort_unstable_by_key(|&Reverse(k)| k);
    }

    fn alloc(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.payload[idx as usize] = Some(value);
                idx
            }
            None => {
                let idx = self.payload.len() as u32;
                assert!(idx != u32::MAX, "calendar queue slab overflow");
                self.payload.push(Some(value));
                idx
            }
        }
    }
}

impl<T> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field(
                "window",
                &(self.window.len() - self.win_pos + self.overflow.len()),
            )
            .field("near", &self.near_len)
            .field("far", &self.far.len())
            .field("cur_bucket", &self.cur_bucket)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_at_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.insert(30, 0, 'c');
        q.insert(10, 1, 'a');
        q.insert(10, 2, 'b');
        q.insert(5_000_000_000, 3, 'z'); // far beyond the horizon
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((10, 1, 'a')));
        assert_eq!(q.pop(), Some((10, 2, 'b')));
        assert_eq!(q.pop(), Some((30, 0, 'c')));
        assert_eq!(q.pop(), Some((5_000_000_000, 3, 'z')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert!(q.far_promotions() >= 1);
    }

    #[test]
    fn pop_before_respects_deadline_without_losing_entries() {
        let mut q = CalendarQueue::new();
        q.insert(100, 0, 0u32);
        q.insert(200, 1, 1u32);
        assert_eq!(q.pop_before(150, None), Some((100, 0, 0)));
        assert_eq!(q.pop_before(150, None), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(200, None), Some((200, 1, 1)));
    }

    #[test]
    fn interleaved_inserts_into_active_window_sort_correctly() {
        let mut q = CalendarQueue::new();
        q.insert(5, 0, "first");
        q.insert(9, 1, "third");
        assert_eq!(q.pop(), Some((5, 0, "first")));
        // Inserted after a pop, lands between the remaining entries.
        q.insert(7, 2, "second");
        assert_eq!(q.pop(), Some((7, 2, "second")));
        assert_eq!(q.pop(), Some((9, 1, "third")));
    }

    #[test]
    fn far_tier_promotes_across_multiple_horizons() {
        let width = 1u64 << SHIFT;
        let horizon = NBUCKETS * width;
        let mut q = CalendarQueue::new();
        // One event per horizon span, inserted out of order.
        for (seq, k) in [3u64, 1, 4, 0, 2].into_iter().enumerate() {
            q.insert(k * horizon + 7, seq as u64, k);
        }
        let mut got = Vec::new();
        while let Some((_, _, k)) = q.pop() {
            got.push(k);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(q.bucket_advances() > 0);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q = CalendarQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.insert(round * 1_000 + i, round * 100 + i, i);
            }
            for _ in 0..100 {
                q.pop().expect("entry");
            }
        }
        // 1000 events flowed through, but the slab never grew past one
        // round's worth of live entries.
        assert!(q.payload.len() <= 100, "slab grew to {}", q.payload.len());
    }

    #[test]
    fn debug_shows_tier_sizes() {
        let mut q = CalendarQueue::new();
        q.insert(1, 0, ());
        let dbg = format!("{q:?}");
        assert!(dbg.contains("CalendarQueue"), "{dbg}");
        assert!(dbg.contains("len: 1"), "{dbg}");
    }
}

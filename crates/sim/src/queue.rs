//! The calendar queue behind the engine's event loop.
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
//!   known position so prefetching can run exactly in pop order.
//! - **ring** — FIFO buckets covering the `NBUCKETS × 2^SHIFT`
//!   microseconds after the window's bucket. Each bucket is a plain
//!   vector of keys: parking is an O(1) append, and draining a bucket
//!   streams its keys sequentially into the window — no pointer chasing,
//!   so the hardware prefetcher hides the latency even when the ring
//!   holds hundreds of thousands of entries.
//! - **heap** — one min-heap for every key the ring does not hold: keys
//!   that land at or before the window's bucket after its sort
//!   (same-instant sends) and keys beyond the ring's horizon (long
//!   periodic timers). Nothing ever moves a key out of it; each pop
//!   compares its top against the window cursor.
//!
//! Payloads are *parked in a slab* of fixed pages and addressed by
//! index: queue maintenance (sifts, bucket drains) moves only `(at, seq,
//! index)` triples, never the `W` payload, which is written once on
//! insert and read once on pop.
//!
//! **Determinism argument.** Keys are unique (`seq` is a strictly
//! increasing insertion counter) and every key lives in exactly one tier.
//! The window holds keys of bucket `cur_bucket` only, and the ring holds
//! keys of buckets strictly after it, so the window cursor sorts before
//! every ring key. Once the window is exhausted, the heap top is the
//! global minimum exactly when its bucket is not after `cur_bucket`;
//! otherwise `refill` advances to the next occupied ring bucket (or, with
//! the ring empty, jumps to the heap top's bucket). Inserts never go
//! backwards in time past a popped key (the engine guarantees
//! `at ≥ now`), so the smaller of the cursor key and the heap top is
//! always the global minimum — the pop sequence is exactly a single
//! heap's `(at, seq)` order, byte for byte.
//!
//! **Memory bound.** Queue memory follows *live* events, not simulated
//! time or the ring's size. Only the sorted window needs burst capacity,
//! so a drain leaves the window on whichever backing vector is larger.
//! The other, emptied, goes to one shared spare list if it has at most
//! [`SLOT_KEEP`] keys of capacity (else it is freed), and a slot that
//! receives its first key takes a buffer from that list. A periodic
//! round parks its burst in a *different* slot each time (1 s is 15 625
//! buckets ≡ 3 337 mod 4 096, coprime with the ring), so buffers kept per
//! slot would pile up, one per slot ever hit; shared, they number at
//! most the peak count of simultaneously non-empty slots, plus the
//! window's. The slab grows by fixed pages of [`PAGE`] entries, so it
//! ends at most one page past its peak instead of a doubling past it.
//! With `P` the peak entry count (at least 4) and `S =
//! min(P, NBUCKETS)`, every key buffer is doubled up to at most `2 P`
//! keys and [`CalendarQueue::heap_bytes`] never exceeds `24 B × (6 P +
//! (SLOT_KEEP + 2) × S + NBUCKETS)` for window, ring, heap, spare list
//! and slot headers, plus `⌈P / PAGE⌉ × (PAGE × size_of::<Option<T>>() +
//! 8 B) + 2 P × 4 B` for slab pages, page table and free list. Its only
//! terms not proportional to `P` are the `NBUCKETS` slot headers and the
//! slab's last, partly used page.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;

use crate::prefetch;

/// log2 of the bucket width in microseconds: 2^6 = 64 µs per bucket.
/// Narrow buckets keep the active window short even when hundreds of
/// thousands of timers share one tick interval — drain-sort cost scales
/// with *bucket* occupancy, not queue depth.
const SHIFT: u32 = 6;
/// Number of near-tier buckets (a power of two): with `SHIFT = 6` the
/// ring covers a ~262 ms horizon, so per-tick gossip and protocol probes
/// park in O(1) while sub-second-and-up periodic timers go to the heap.
/// Empty buckets cost one header check to skip, so a narrow-wide ring
/// beats a coarse one on both ends.
const NBUCKETS: u64 = 4096;
const MASK: u64 = NBUCKETS - 1;
/// Capacity (in keys) of a drained slot's buffer that goes to the spare
/// list; a larger vector is freed. Bursts drain alike at 0–256 and a
/// steady ~70-key bucket likes ≥ 64 (`perf_micro`, EXPERIMENTS.md); the
/// spare list then holds ≤ 1.5 KB per slot non-empty at the peak.
const SLOT_KEEP: usize = 64;
/// log2 of the slab's page size: slab index `i` lives in entry
/// `i & (PAGE - 1)` of page `i >> PAGE_SHIFT`.
const PAGE_SHIFT: u32 = 10;
/// Entries per slab page.
const PAGE: usize = 1 << PAGE_SHIFT;

/// A queue key: `(at, seq, slab index, prefetch hint)`, min-ordered via
/// `Reverse`. The hint is an opaque caller-supplied locality token (the
/// engine passes the destination actor index) reported back through
/// [`CalendarQueue::drain_prefetch`] once the entry's bucket enters the
/// active window; padding makes the fourth field free (24 bytes either
/// way).
type Key = Reverse<(u64, u64, u32, u32)>;

/// A deterministic calendar queue popping entries in
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
    slab: Slab<T>,
    /// The active window's keys, ascending in `(at, seq)` — sorted once
    /// at drain, then consumed in place.
    window: Vec<Key>,
    /// Cursor into `window`: entries before it have been popped.
    win_pos: usize,
    /// The bucket ring: per-bucket key vectors in append (= `seq`) order
    /// for buckets `(cur_bucket, cur_bucket + NBUCKETS)`; an empty slot
    /// holds no buffer.
    buckets: Vec<Vec<Key>>,
    /// Emptied buffers of ≤ `SLOT_KEEP` keys' capacity, handed to the
    /// next slot that receives a first key. LIFO, like the slab's free
    /// list.
    spare: Vec<Vec<Key>>,
    /// Min-heap over every key outside the ring's span: at or before
    /// `cur_bucket` when inserted (same-instant sends), or beyond the
    /// horizon (long timers).
    heap: BinaryHeap<Key>,
    /// Absolute bucket index (`at >> SHIFT`) of the active window.
    cur_bucket: u64,
    /// Entries currently parked in ring buckets.
    near_len: usize,
    /// Total entries across all tiers.
    len: usize,
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
            slab: Slab::new(),
            window: Vec::new(),
            win_pos: 0,
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            heap: BinaryHeap::new(),
            cur_bucket: 0,
            near_len: 0,
            len: 0,
            pf_pos: 0,
        }
    }

    /// Total entries queued across window, ring and heap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap held right now: every tier's capacity, the spare
    /// buffers, the slab and its free list. Walks all ring slots — for
    /// gauges, not the hot path.
    pub fn heap_bytes(&self) -> usize {
        let buffers = self.buckets.iter().chain(&self.spare);
        let slots: usize = buffers.map(Vec::capacity).sum();
        let keys = self.window.capacity() + self.heap.capacity();
        (keys + slots) * size_of::<Key>()
            + (self.buckets.capacity() + self.spare.capacity()) * size_of::<Vec<Key>>()
            + self.slab.heap_bytes()
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
    /// prefetch whatever state dispatching it will touch. Entries that go
    /// to the heap are never echoed.
    pub fn insert_hinted(&mut self, at: u64, seq: u64, hint: u32, value: T) {
        let idx = self.slab.alloc(value);
        let abs = at >> SHIFT;
        let key = Reverse((at, seq, idx, hint));
        if self.cur_bucket < abs && abs < self.cur_bucket + NBUCKETS {
            let bucket = &mut self.buckets[(abs & MASK) as usize];
            if bucket.capacity() == 0 {
                if let Some(spare) = self.spare.pop() {
                    *bucket = spare;
                }
            }
            bucket.push(key);
            self.near_len += 1;
        } else {
            self.heap.push(key);
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
        let slab = &self.slab;
        self.window[start..end]
            .iter()
            .map(move |&Reverse((_, _, idx, hint))| {
                prefetch::touch(slab.entry(idx));
                hint
            })
    }

    /// Pops the globally smallest `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_before(u64::MAX)
    }

    /// Pops the globally smallest entry if its `at` is `≤ deadline`, in a
    /// single queue operation (no separate peek). Returns `None` when the
    /// queue is empty or the earliest entry lies beyond the deadline.
    pub fn pop_before(&mut self, deadline: u64) -> Option<(u64, u64, T)> {
        if !self.refill() {
            return None;
        }
        // The window cursor and the heap top are each the minimum of
        // their source; the smaller `(at, seq)` is the global minimum.
        let from_window = match (self.window.get(self.win_pos), self.heap.peek()) {
            (Some(&Reverse(w)), Some(&Reverse(h))) => w < h,
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
            let &Reverse((at, seq, idx, _)) = self.heap.peek().expect("checked above");
            if at > deadline {
                return None;
            }
            self.heap.pop();
            (at, seq, idx)
        };
        self.len -= 1;
        Some((at, seq, self.slab.take(idx)))
    }

    /// Ensures the window cursor or the heap top holds the global minimum,
    /// advancing the window as needed; false when the queue is empty.
    ///
    /// Every ring key lies after `cur_bucket`, so once the window is
    /// exhausted the heap top is the minimum exactly when its bucket is
    /// not after `cur_bucket`. Otherwise the window moves to the next
    /// occupied ring bucket (a sequential header scan) or, with the ring
    /// empty, jumps straight to the heap top's bucket.
    fn refill(&mut self) -> bool {
        while self.win_pos == self.window.len() {
            let heap_bucket = match self.heap.peek() {
                Some(&Reverse((at, ..))) => at >> SHIFT,
                None if self.near_len == 0 => return false,
                None => u64::MAX,
            };
            if heap_bucket <= self.cur_bucket {
                break;
            }
            if self.near_len > 0 {
                let mut b = self.cur_bucket + 1;
                while self.buckets[(b & MASK) as usize].is_empty() {
                    b += 1;
                }
                self.cur_bucket = b;
                self.drain_bucket();
            } else {
                self.cur_bucket = heap_bucket;
            }
        }
        true
    }

    /// Installs the active bucket as the window and sorts it once
    /// (`O(b log b)` for a bucket of `b` entries, amortizing to well
    /// under one sift per pop). The window takes the larger of the two
    /// backing vectors; the other goes to the spare list if it holds at
    /// most `SLOT_KEEP` keys' worth, and the slot is left without one.
    fn drain_bucket(&mut self) {
        let slot = (self.cur_bucket & MASK) as usize;
        let mut bucket = std::mem::take(&mut self.buckets[slot]);
        if bucket.is_empty() {
            return;
        }
        self.near_len -= bucket.len();
        debug_assert_eq!(self.win_pos, self.window.len(), "window drained");
        self.window.clear();
        self.win_pos = 0;
        self.pf_pos = 0;
        if bucket.capacity() > self.window.capacity() {
            std::mem::swap(&mut self.window, &mut bucket);
        } else {
            self.window.append(&mut bucket);
        }
        if (1..=SLOT_KEEP).contains(&bucket.capacity()) {
            self.spare.push(bucket);
        }
        self.window.sort_unstable_by_key(|&Reverse(k)| k);
    }
}

/// The payload slab: fixed pages of [`PAGE`] entries, so growing it never
/// moves an entry and it ends at most one page past its peak.
struct Slab<T> {
    /// Pages in index order; the table holds exactly one pointer per page.
    pages: Vec<Box<[Option<T>; PAGE]>>,
    /// Indices handed out so far: `0..len` are parked or free.
    len: u32,
    /// Vacant indices available for reuse. LIFO, so the hottest slots
    /// recycle while still in cache.
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            pages: Vec::new(),
            len: 0,
            free: Vec::new(),
        }
    }

    fn entry(&self, idx: u32) -> &Option<T> {
        &self.pages[(idx >> PAGE_SHIFT) as usize][idx as usize & (PAGE - 1)]
    }

    fn entry_mut(&mut self, idx: u32) -> &mut Option<T> {
        &mut self.pages[(idx >> PAGE_SHIFT) as usize][idx as usize & (PAGE - 1)]
    }

    fn alloc(&mut self, value: T) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = self.len;
                assert!(idx != u32::MAX, "calendar queue slab overflow");
                if idx as usize == self.pages.len() * PAGE {
                    let page: Box<[Option<T>]> = (0..PAGE).map(|_| None).collect();
                    let Ok(page) = page.try_into() else {
                        unreachable!("a page holds PAGE entries")
                    };
                    self.pages.reserve_exact(1);
                    self.pages.push(page);
                }
                self.len += 1;
                idx
            }
        };
        *self.entry_mut(idx) = Some(value);
        idx
    }

    fn take(&mut self, idx: u32) -> T {
        let value = self.entry_mut(idx).take().expect("parked payload");
        self.free.push(idx);
        value
    }

    fn heap_bytes(&self) -> usize {
        self.pages.capacity() * size_of::<Box<[Option<T>; PAGE]>>()
            + self.pages.len() * size_of::<[Option<T>; PAGE]>()
            + self.free.capacity() * size_of::<u32>()
    }
}

impl<T> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("window", &(self.window.len() - self.win_pos))
            .field("ring", &self.near_len)
            .field("heap", &self.heap.len())
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
    }

    #[test]
    fn pop_before_respects_deadline_without_losing_entries() {
        let mut q = CalendarQueue::new();
        q.insert(100, 0, 0u32);
        q.insert(200, 1, 1u32);
        assert_eq!(q.pop_before(150), Some((100, 0, 0)));
        assert_eq!(q.pop_before(150), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(200), Some((200, 1, 1)));
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
    fn far_keys_pop_across_multiple_horizons() {
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
        // 1000 events flowed through, but the slab never handed out more
        // than one round's worth of live entries.
        assert!(q.slab.len <= 100, "slab grew to {}", q.slab.len);
    }

    #[test]
    fn slab_pages_keep_payloads_across_page_boundaries() {
        let mut q = CalendarQueue::new();
        let n = 2 * PAGE as u64 + 3;
        // Descending times: entries pop in reverse slab order, across
        // both page boundaries.
        for i in 0..n {
            q.insert(1_000_000 - i * 100, i, i);
        }
        assert_eq!(q.slab.pages.len(), 3);
        for i in (0..n).rev() {
            assert_eq!(q.pop(), Some((1_000_000 - i * 100, i, i)));
        }
        assert_eq!(q.slab.free.len(), n as usize);
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

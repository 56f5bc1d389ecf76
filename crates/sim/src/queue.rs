//! The event queue behind the engine's event loop.
//!
//! The engine needs exactly one queue discipline: pop the event with the
//! smallest `(arrival time, insertion sequence)` key. Nearly every event
//! waits out one of a few fixed delays `d = at − now` — the DCN tiers, the
//! protocol periods — and the engine's clock never goes back while `seq`
//! only grows, so the keys inserted with one delay arrive already sorted.
//! [`EventQueue`] keeps them that way, in two tiers:
//!
//! - **FIFOs** — up to [`NFIFO`] append-only runs, one per recurring
//!   delay, payloads inline in fixed chunks of [`CHUNK`] entries. An
//!   insert is one compare against the FIFO's tail and an append; a pop
//!   reads the head, and the entries after it sit next in memory.
//! - **heap** — one min-heap, payloads inline, for every other key: the
//!   one-off delays, a delay not yet seen [`PROMOTE`] times, and a key
//!   that does not sort after its FIFO's tail.
//!
//! A delay gets a FIFO once [`NFIFO`] heavy-hitter counters over the heap
//! path have counted it [`PROMOTE`] times — jittered delays, each seen a
//! few times, cancel out there instead of adding up — and takes an empty
//! FIFO: a new one while fewer than [`NFIFO`] exist, else the one whose
//! last insert is oldest.
//!
//! **Determinism argument.** Keys are unique (`seq` never repeats) and
//! every key lives in exactly one tier. A FIFO accepts a key only if it
//! sorts after the FIFO's tail, so every FIFO is ascending and its head is
//! its minimum, as the heap top is the heap's. A pop takes the least of
//! the FIFO heads and the heap top, which is the global minimum whatever
//! the keys' delays were — the pop sequence is exactly a single heap's
//! `(at, seq)` order, byte for byte. The delay only decides where a key
//! waits, never when it pops.
//!
//! **Memory bound.** Queue memory follows *live* events, never simulated
//! time. Let `E = size_of::<(u64, u64, T)>()` and `P` be the peak entry
//! count (at least 4).
//!
//! - *Chunks.* A FIFO of `m` entries spans at most `⌈m / CHUNK⌉ + 1`
//!   chunks. A drained chunk goes to one shared free pool, and a chunk is
//!   allocated only when the pool is empty, so all chunks together never
//!   exceed `P / CHUNK + 2 NFIFO`: `E × (P + 2 NFIFO × CHUNK)` bytes.
//! - *Heap.* It grows by doubling to at most `2 P` entries and gives
//!   capacity back as it drains: above [`HEAP_KEEP`] entries, once less
//!   than three quarters full, it shrinks to 9/8 of its length.
//! - *Headers* (32 B each). Each FIFO's chunk list holds at most
//!   `2 P / CHUNK + 4`, the pool's at most twice the chunk count, and
//!   the FIFO table `NFIFO`.
//!
//! So [`EventQueue::heap_bytes`] never exceeds `E × (3 P + 2 NFIFO ×
//! CHUNK) + 32 B × (2 (NFIFO + 1) × P / CHUNK + 9 NFIFO)`. Its only terms
//! not proportional to `P` are one partial chunk per FIFO, the chunk it
//! drains into, and the headers of both.

use std::collections::{BinaryHeap, VecDeque};
use std::mem::size_of;

/// Most FIFOs the queue keeps: a pop compares this many heads at most.
const NFIFO: usize = 16;
/// Entries per FIFO chunk: 5 KB of 80-byte stack events, so the partial
/// chunks of all FIFOs together stay far below one workload's queue.
const CHUNK: usize = 64;
/// Heap-path sightings a delay needs before it gets a FIFO: a delay that
/// recurs passes it in microseconds, and 100 000 jittered start timers
/// whose delays collide by chance never do.
const PROMOTE: u32 = 64;
/// Heap capacity (in entries) below which the heap never shrinks: a small
/// heap that rises and falls would otherwise reallocate on every swing.
const HEAP_KEEP: usize = 1024;

/// A key packed as `at << 64 | seq`: one compare orders two keys.
type Key = u128;
/// The head of an empty FIFO: above every real key.
const EMPTY: Key = Key::MAX;

fn pack(at: u64, seq: u64) -> Key {
    (at as Key) << 64 | seq as Key
}

/// One queued entry, its payload inline. Ordered *reversed* on its key,
/// so the standard max-heap pops the least `(at, seq)` first.
struct Entry<T> {
    at: u64,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    fn key(&self) -> Key {
        pack(self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// A fixed-capacity ring of entries: a FIFO's unit of memory.
type Chunk<T> = VecDeque<Entry<T>>;

/// One delay's run of ascending keys: chunks in pop order, the head chunk
/// first. Only the last chunk takes appends; a drained chunk other than
/// the last goes back to the shared pool.
struct Fifo<T> {
    chunks: VecDeque<Chunk<T>>,
}

impl<T> Fifo<T> {
    fn front(&self) -> Option<&Entry<T>> {
        self.chunks.front().and_then(VecDeque::front)
    }

    /// The entry `n` places behind the head, looking one chunk ahead.
    fn get(&self, n: usize) -> Option<&Entry<T>> {
        let head = self.chunks.front()?;
        match head.get(n) {
            Some(entry) => Some(entry),
            None => self.chunks.get(1)?.get(n - head.len()),
        }
    }
}

/// A deterministic event queue popping entries in strict `(at, seq)` order
/// — the engine's event queue, exposed so the micro-benches and property
/// tests can exercise the discipline directly.
///
/// ```
/// use vbundle_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.insert(50, 1, "late");
/// q.insert(10, 2, "early");
/// q.insert(10, 3, "early-but-second");
/// assert_eq!(q.pop(), Some((10, 2, "early")));
/// assert_eq!(q.pop(), Some((10, 3, "early-but-second")));
/// assert_eq!(q.pop(), Some((50, 1, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    /// Each FIFO's head key, [`EMPTY`] when it holds nothing: the compact
    /// array every pop scans.
    heads: [Key; NFIFO],
    /// Each FIFO's last appended key: a key joins only if it sorts after.
    tails: [Key; NFIFO],
    /// The delay routed to each FIFO.
    delays: [u64; NFIFO],
    fifos: Vec<Fifo<T>>,
    /// Emptied chunks, handed to the next FIFO that fills its last one.
    pool: Vec<Chunk<T>>,
    heap: BinaryHeap<Entry<T>>,
    /// Heap-path sightings of the delays most seen there: `(delay,
    /// count)`, free at count 0.
    seen: [(u64, u32); NFIFO],
    /// `at` of the last pop: [`EventQueue::insert`] measures delays from it.
    clock: u64,
    /// The FIFO of the last pop ([`NFIFO`] for the heap), for
    /// [`EventQueue::ahead`].
    last: usize,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with its clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heads: [EMPTY; NFIFO],
            tails: [0; NFIFO],
            delays: [0; NFIFO],
            fifos: Vec::new(),
            pool: Vec::new(),
            heap: BinaryHeap::new(),
            seen: [(0, 0); NFIFO],
            clock: 0,
            last: NFIFO,
            len: 0,
        }
    }

    /// Total entries queued across FIFOs and heap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Entries waiting in FIFOs; the other `len() - fifo_entries()` wait
    /// in the heap.
    pub fn fifo_entries(&self) -> usize {
        self.len - self.heap.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap held right now: every chunk, the chunk lists, the
    /// pool, the FIFO headers and the heap's capacity.
    pub fn heap_bytes(&self) -> usize {
        let chunks = self.fifos.iter().flat_map(|f| &f.chunks).chain(&self.pool);
        let entries: usize = chunks.map(VecDeque::capacity).sum::<usize>() + self.heap.capacity();
        let lists: usize = self.fifos.iter().map(|f| f.chunks.capacity()).sum();
        entries * size_of::<Entry<T>>()
            + (lists + self.pool.capacity()) * size_of::<Chunk<T>>()
            + self.fifos.capacity() * size_of::<Fifo<T>>()
    }

    /// Inserts `value` keyed by `(at, seq)`, its delay measured from the
    /// last popped key. `seq` must be unique across the queue's lifetime.
    pub fn insert(&mut self, at: u64, seq: u64, value: T) {
        self.insert_from(self.clock, at, seq, value);
    }

    /// [`EventQueue::insert`] with the delay measured from `now` — the
    /// engine's clock, which `run_until` moves past the last pop. The
    /// delay picks the tier; the pop order does not depend on it.
    pub fn insert_from(&mut self, now: u64, at: u64, seq: u64, value: T) {
        let entry = Entry { at, seq, value };
        let key = entry.key();
        let delay = at.wrapping_sub(now);
        self.len += 1;
        let n = self.fifos.len();
        let fifo = match self.delays[..n].iter().position(|&d| d == delay) {
            Some(i) if key > self.tails[i] => Some(i),
            Some(_) => None,
            None => self.promote(delay),
        };
        let Some(i) = fifo else {
            self.heap.push(entry);
            return;
        };
        let chunks = &mut self.fifos[i].chunks;
        match chunks.back_mut() {
            Some(last) if last.len() < last.capacity() => last.push_back(entry),
            _ => {
                let mut chunk = self
                    .pool
                    .pop()
                    .unwrap_or_else(|| Chunk::with_capacity(CHUNK));
                chunk.push_back(entry);
                chunks.push_back(chunk);
            }
        }
        if self.heads[i] == EMPTY {
            self.heads[i] = key;
        }
        self.tails[i] = key;
    }

    /// Counts one heap-path sighting of `delay` and, once its count
    /// reaches [`PROMOTE`], gives it an empty FIFO. The counters find the
    /// heavy hitters of the heap path (Misra–Gries): a delay takes a free
    /// counter, and when none is free every counter drops by one, so
    /// delays that each recur a few times cancel out instead of adding up.
    fn promote(&mut self, delay: u64) -> Option<usize> {
        let seen = &mut self.seen;
        let Some(j) = (seen.iter().position(|&(d, n)| d == delay && n > 0))
            .or_else(|| seen.iter().position(|&(_, n)| n == 0))
        else {
            seen.iter_mut().for_each(|(_, n)| *n -= 1);
            return None;
        };
        seen[j] = (delay, seen[j].1 + 1);
        if seen[j].1 < PROMOTE {
            return None;
        }
        seen[j].1 = 0;
        let i = if self.fifos.len() < NFIFO {
            self.fifos.push(Fifo {
                chunks: VecDeque::new(),
            });
            self.fifos.len() - 1
        } else {
            // The empty FIFO whose last insert (its tail's `seq`) is oldest.
            (0..NFIFO)
                .filter(|&i| self.heads[i] == EMPTY)
                .min_by_key(|&i| self.tails[i] as u64)?
        };
        self.delays[i] = delay;
        Some(i)
    }

    /// The entry `n` places behind the last popped one in its FIFO — the
    /// engine's lookahead, which prefetches the state dispatching it will
    /// touch. `None` after a heap pop or past the next chunk.
    pub fn ahead(&self, n: usize) -> Option<&T> {
        let fifo = self.fifos.get(self.last)?;
        fifo.get(n).map(|e| &e.value)
    }

    /// Pops the globally smallest `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_before(u64::MAX)
    }

    /// Pops the globally smallest entry if its `at` is `≤ deadline`, in a
    /// single queue operation (no separate peek). Returns `None` when the
    /// queue is empty or the earliest entry lies beyond the deadline.
    pub fn pop_before(&mut self, deadline: u64) -> Option<(u64, u64, T)> {
        // Each FIFO head and the heap top is the minimum of its tier; the
        // least of them is the global minimum.
        let mut best = NFIFO;
        let mut min = self.heap.peek().map_or(EMPTY, Entry::key);
        for (i, &head) in self.heads[..self.fifos.len()].iter().enumerate() {
            if head < min {
                (best, min) = (i, head);
            }
        }
        if min == EMPTY || (min >> 64) as u64 > deadline {
            return None;
        }
        let entry = if best == NFIFO {
            let entry = self.heap.pop().expect("heap top checked above");
            let cap = self.heap.capacity();
            if cap > HEAP_KEEP && self.heap.len() < cap / 4 * 3 {
                self.heap
                    .shrink_to((self.heap.len() / 8 * 9).max(HEAP_KEEP));
            }
            entry
        } else {
            let chunks = &mut self.fifos[best].chunks;
            let head = chunks.front_mut().expect("a FIFO head checked above");
            let entry = head.pop_front().expect("a FIFO head checked above");
            if head.is_empty() && chunks.len() > 1 {
                self.pool.extend(chunks.pop_front());
            }
            self.heads[best] = self.fifos[best].front().map_or(EMPTY, Entry::key);
            entry
        };
        self.last = best;
        self.clock = entry.at;
        self.len -= 1;
        Some((entry.at, entry.seq, entry.value))
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fifos: Vec<(u64, usize)> = (self.delays.iter().zip(&self.fifos))
            .map(|(&d, f)| (d, f.chunks.iter().map(VecDeque::len).sum()))
            .collect();
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("fifos", &fifos)
            .field("heap", &self.heap.len())
            .field("pool", &self.pool.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_at_then_seq_order() {
        let mut q = EventQueue::new();
        q.insert(30, 0, 'c');
        q.insert(10, 1, 'a');
        q.insert(10, 2, 'b');
        q.insert(5_000_000_000, 3, 'z'); // a one-off, far delay
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
        let mut q = EventQueue::new();
        q.insert(100, 0, 0u32);
        q.insert(200, 1, 1u32);
        assert_eq!(q.pop_before(150), Some((100, 0, 0)));
        assert_eq!(q.pop_before(150), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(200), Some((200, 1, 1)));
    }

    #[test]
    fn interleaved_inserts_into_active_window_sort_correctly() {
        let mut q = EventQueue::new();
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
        // A recurring delay owns a FIFO; far one-off keys wait in the heap
        // and still pop between its entries in key order.
        let mut q = EventQueue::new();
        let mut seq = 0..;
        for _ in 0..PROMOTE {
            q.insert(q.clock + 10, seq.next().unwrap(), u64::MAX);
            q.pop();
        }
        for k in [3u64, 1, 4, 0, 2] {
            q.insert(k * 300_000_000 + 7, seq.next().unwrap(), k);
            q.insert(q.clock + 10, seq.next().unwrap(), u64::MAX);
        }
        assert_eq!((q.fifos.len(), q.heap.len()), (1, 5));
        let mut got = Vec::new();
        while let Some((_, _, k)) = q.pop() {
            if k != u64::MAX {
                got.push(k);
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_recurring_delay_gets_a_fifo_and_a_one_off_does_not() {
        let mut q = EventQueue::new();
        let n = u64::from(PROMOTE) + 16;
        for seq in 0..n {
            q.insert_from(seq * 100, seq * 100 + 250, seq, ());
            q.insert_from(seq * 100, seq * 100 + 1_000 + seq, n + seq, ());
        }
        assert_eq!((q.fifos.len(), q.delays[0]), (1, 250));
        // Every one-off waits in the heap; the recurring delay's later
        // keys wait in its FIFO.
        assert!(q.fifo_entries() > 0, "{q:?}");
        assert_eq!(q.heap.len() + q.fifo_entries(), 2 * n as usize);
        assert!(q.heap.len() >= n as usize, "{q:?}");
    }

    #[test]
    fn fifo_chunks_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..1_000u64 {
                q.insert_from(
                    round * 10_000 + i,
                    round * 10_000 + i + 50,
                    round * 1_000 + i,
                    i,
                );
            }
            while q.pop().is_some() {}
        }
        // 10 000 events flowed through one FIFO, but the chunks never
        // outnumbered one round's worth of live entries.
        let chunks = q.fifos[0].chunks.len() + q.pool.len();
        assert!(chunks <= 1_000 / CHUNK + 2, "{chunks} chunks");
    }

    #[test]
    fn fifo_chunks_keep_payloads_across_chunk_boundaries() {
        let mut q = EventQueue::new();
        let n = 3 * CHUNK as u64 + 5;
        for i in 0..n {
            q.insert_from(i, i + 400, i, i);
        }
        assert!(q.fifos[0].chunks.len() >= 2);
        for i in 0..n {
            assert_eq!(q.pop(), Some((i + 400, i, i)));
        }
        assert!(q.pool.len() >= 2);
    }

    #[test]
    fn the_heap_gives_capacity_back_as_it_drains() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.insert(i * 7 % 100_003, i, ());
        }
        let full = q.heap_bytes();
        for _ in 0..99_000 {
            q.pop();
        }
        assert!(q.heap_bytes() * 20 < full, "{} of {full} B", q.heap_bytes());
    }

    #[test]
    fn debug_shows_tier_sizes() {
        let mut q = EventQueue::new();
        q.insert(1, 0, ());
        let dbg = format!("{q:?}");
        assert!(dbg.contains("EventQueue"), "{dbg}");
        assert!(dbg.contains("len: 1"), "{dbg}");
    }
}

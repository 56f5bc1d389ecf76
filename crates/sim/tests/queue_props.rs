//! Property tests pinning the calendar queue to the binary-heap pop
//! discipline it replaced: for any interleaving of inserts and pops —
//! same-timestamp bursts, far-future keys sharing buckets with ring keys,
//! and lazy epoch purges — the calendar queue must yield the exact
//! `(at, seq)` order a min-heap would. This is the determinism contract the engine's
//! byte-identical replay rests on.
//!
//! They also hold the queue to its stated memory bound (`sim::queue`
//! module doc): heap follows live entries, never simulated time.

use proptest::prelude::*;
use vbundle_sim::CalendarQueue;

/// Reference implementation of the old engine discipline: a flat vector
/// popped by minimum `(at, seq)`. Slow, but obviously correct.
#[derive(Default)]
struct HeapModel {
    entries: Vec<(u64, u64, u32, u32)>, // (at, seq, actor, epoch)
}

impl HeapModel {
    fn insert(&mut self, at: u64, seq: u64, actor: u32, epoch: u32) {
        self.entries.push((at, seq, actor, epoch));
    }

    fn pop(&mut self) -> Option<(u64, u64, u32, u32)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _, _))| (at, seq))?
            .0;
        Some(self.entries.swap_remove(best))
    }

    /// [`HeapModel::pop`] if the smallest key's `at` is `≤ deadline`.
    fn pop_before(&mut self, deadline: u64) -> Option<(u64, u64, u32, u32)> {
        let &(at, ..) = self
            .entries
            .iter()
            .min_by_key(|&&(at, seq, ..)| (at, seq))?;
        if at > deadline {
            return None;
        }
        self.pop()
    }

    /// The eager purge the old engine performed on restart: physically
    /// drop every queued timer belonging to `actor`.
    fn purge(&mut self, actor: u32) {
        self.entries.retain(|&(_, _, a, _)| a != actor);
    }
}

const NUM_ACTORS: u32 = 4;

/// The queue's private `size_of::<Key>()`, `NBUCKETS`, `SLOT_KEEP` and
/// slab `PAGE`.
const KEY_BYTES: usize = 24;
const NBUCKETS: usize = 4096;
const SLOT_KEEP: usize = 64;
const PAGE: usize = 1024;

/// The memory bound from the `sim::queue` module doc for a queue of `T`
/// whose live entry count never exceeded `peak_live`: window, ring and
/// heap at `2 P` keys each, one spare buffer (and its header, doubled)
/// per slot non-empty at the peak, the slot headers, whole slab pages
/// with one table pointer each, and the free list.
fn heap_bound<T>(peak_live: usize) -> usize {
    let p = peak_live.max(4); // a vector's first allocation holds four
    let slots = p.min(NBUCKETS);
    KEY_BYTES * (6 * p + (SLOT_KEEP + 2) * slots + NBUCKETS)
        + p.div_ceil(PAGE) * (PAGE * std::mem::size_of::<Option<T>>() + 8)
        + 2 * p * std::mem::size_of::<u32>()
}

/// Pops the calendar queue the way the engine does: entries whose stored
/// epoch no longer matches their actor's current epoch are skipped
/// invisibly.
fn lazy_pop(queue: &mut CalendarQueue<(u32, u32)>, epochs: &[u32]) -> Option<(u64, u64, u32, u32)> {
    while let Some((at, seq, (actor, epoch))) = queue.pop() {
        if epoch == epochs[actor as usize] {
            return Some((at, seq, actor, epoch));
        }
    }
    None
}

/// An op stream: `kind % 4` selects insert-near / insert-far / pop /
/// epoch-purge; `at` seeds the timestamp and `actor` the owner. Narrow
/// `at` ranges force same-bucket and same-timestamp collisions; the far
/// branch adds a multi-horizon offset so keys beyond the ring's horizon
/// are exercised.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u32)>> {
    proptest::collection::vec((0u8..8, 0u64..3_000_000, 0..NUM_ACTORS), 1..200)
}

/// An op stream of inserts relative to the last popped key, the way the
/// engine makes them: `kind % 3` selects insert / dense insert / pop and
/// `off` the offset, up to about three ring horizons (262 ms each).
fn arb_relative_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..6, 0u64..800_000), 1..300)
}

/// An op stream for the engine's `run_until` slices: `kind % 4` selects
/// dense insert / spread insert / short slice / long slice, and `off`
/// the offset from the current time (up to about three ring horizons,
/// under 1 000 for the dense and short kinds).
fn arb_sliced_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..800_000), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every pop from the calendar queue (with lazy epoch skips) matches
    /// the heap model (with eager physical purges), op for op, and both
    /// drain to the same tail.
    #[test]
    fn calendar_matches_heap_discipline(ops in arb_ops()) {
        let mut queue: CalendarQueue<(u32, u32)> = CalendarQueue::new();
        let mut model = HeapModel::default();
        let mut epochs = vec![0u32; NUM_ACTORS as usize];
        let mut seq = 0u64;
        let mut peak_live = 0;
        for &(kind, at, actor) in &ops {
            match kind % 4 {
                0 => {
                    // Near-horizon insert (same-bucket collisions common).
                    queue.insert(at, seq, (actor, epochs[actor as usize]));
                    model.insert(at, seq, actor, epochs[actor as usize]);
                    seq += 1;
                }
                1 => {
                    // Far-future insert: many horizons (~262ms of 64µs
                    // buckets) beyond, so it lands in the overflow
                    // tier and must promote back in order.
                    let far = at + 4_000_000 + (at % 3) * 2_100_000;
                    queue.insert(far, seq, (actor, epochs[actor as usize]));
                    model.insert(far, seq, actor, epochs[actor as usize]);
                    seq += 1;
                }
                2 => {
                    prop_assert_eq!(
                        lazy_pop(&mut queue, &epochs),
                        model.pop(),
                        "pop diverged mid-stream"
                    );
                }
                _ => {
                    // Restart: the model purges eagerly, the calendar
                    // queue only bumps the epoch and skips lazily.
                    model.purge(actor);
                    epochs[actor as usize] = epochs[actor as usize].wrapping_add(1);
                }
            }
            peak_live = peak_live.max(queue.len());
            prop_assert!(
                queue.heap_bytes() <= heap_bound::<(u32, u32)>(peak_live),
                "{} B held with at most {} live", queue.heap_bytes(), peak_live
            );
        }
        // Drain both completely: order and content must agree to the end.
        loop {
            let got = lazy_pop(&mut queue, &epochs);
            let want = model.pop();
            prop_assert_eq!(got, want, "pop diverged during drain");
            prop_assert!(queue.heap_bytes() <= heap_bound::<(u32, u32)>(peak_live));
            if got.is_none() {
                break;
            }
        }
    }

    /// Keys inserted beyond the ring's horizon stay in the heap while the
    /// window advances, so later inserts land in the ring in the *same*
    /// buckets — the case the heap/ring merge must order. The dense mode
    /// (`off % 2 000`) packs keys into the few buckets around the window,
    /// where heap, ring and window keys interleave. Checked against the
    /// flat model op for op and on drain, under the memory bound.
    #[test]
    fn relative_inserts_match_heap_discipline(ops in arb_relative_ops()) {
        let mut queue: CalendarQueue<()> = CalendarQueue::new();
        let mut model = HeapModel::default();
        let (mut seq, mut last_popped, mut peak_live) = (0u64, 0u64, 0);
        let pop = |queue: &mut CalendarQueue<()>, model: &mut HeapModel| {
            let got = queue.pop().map(|(at, seq, ())| (at, seq));
            (got, model.pop().map(|(at, seq, ..)| (at, seq)))
        };
        for &(kind, off) in &ops {
            match kind % 3 {
                2 => {
                    let (got, want) = pop(&mut queue, &mut model);
                    prop_assert_eq!(got, want, "pop diverged mid-stream");
                    last_popped = got.map_or(last_popped, |(at, _)| at);
                }
                dense => {
                    let at = last_popped + if dense == 1 { off % 2_000 } else { off };
                    queue.insert(at, seq, ());
                    model.insert(at, seq, 0, 0);
                    seq += 1;
                }
            }
            peak_live = peak_live.max(queue.len());
            prop_assert!(
                queue.heap_bytes() <= heap_bound::<()>(peak_live),
                "{} B held with at most {} live", queue.heap_bytes(), peak_live
            );
        }
        loop {
            let (got, want) = pop(&mut queue, &mut model);
            prop_assert_eq!(got, want, "pop diverged during drain");
            prop_assert!(queue.heap_bytes() <= heap_bound::<()>(peak_live));
            if got.is_none() {
                break;
            }
        }
    }

    /// `pop_before` the way `run_until` drives it: a slice pops up to its
    /// deadline, and when it stops short (the next key lies past the
    /// deadline) the clock moves to the deadline and later inserts land
    /// at or after it. Dense keys and short deadlines fall on the clock
    /// half the time, so keys sit exactly on a deadline. A short stop
    /// with only far keys queued moves the window past the deadline, so
    /// the inserts that follow go to the heap and must still pop in
    /// `(at, seq)` order. Checked against the flat model op for op and
    /// on drain.
    #[test]
    fn short_slices_match_heap_discipline(ops in arb_sliced_ops()) {
        let mut queue: CalendarQueue<()> = CalendarQueue::new();
        let mut model = HeapModel::default();
        let (mut seq, mut now) = (0u64, 0u64);
        for &(kind, off) in &ops {
            // Half the dense offsets are 0: keys and deadlines on `now`.
            let dense = (off % 2_000).saturating_sub(1_000);
            match kind % 4 {
                insert @ (0 | 1) => {
                    let at = now + if insert == 0 { dense } else { off };
                    queue.insert(at, seq, ());
                    model.insert(at, seq, 0, 0);
                    seq += 1;
                }
                slice => {
                    let deadline = now + if slice == 2 { dense } else { off };
                    let got = queue.pop_before(deadline).map(|(at, seq, ())| (at, seq));
                    let want = model.pop_before(deadline).map(|(at, seq, ..)| (at, seq));
                    prop_assert_eq!(got, want, "pop_before({}) diverged", deadline);
                    now = got.map_or(deadline, |(at, _)| at);
                }
            }
        }
        loop {
            let got = queue.pop().map(|(at, seq, ())| (at, seq));
            let want = model.pop().map(|(at, seq, ..)| (at, seq));
            prop_assert_eq!(got, want, "pop diverged during drain");
            if got.is_none() {
                break;
            }
        }
    }

    /// Same-timestamp events pop in strict insertion (seq) order even
    /// when the timestamps all share one calendar bucket.
    #[test]
    fn same_timestamp_bursts_are_fifo(at in 0u64..1_000_000, n in 1usize..64) {
        let mut queue: CalendarQueue<usize> = CalendarQueue::new();
        for i in 0..n {
            queue.insert(at, i as u64, i);
        }
        for i in 0..n {
            let (got_at, got_seq, v) = queue.pop().expect("queued");
            prop_assert_eq!(got_at, at);
            prop_assert_eq!(got_seq, i as u64);
            prop_assert_eq!(v, i);
        }
        prop_assert!(queue.pop().is_none());
    }
}

/// One periodic round per simulated second: a timer fires, its handler
/// sends `burst` same-latency messages, and everything drains before the
/// next round — the shape of a heartbeat or tree-probe round. Returns
/// `heap_bytes()` after each round.
fn burst_rounds(rounds: u64, burst: u64) -> Vec<usize> {
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    let mut seq = 0..;
    (1..=rounds)
        .map(|round| {
            let tick = round * 1_000_000;
            queue.insert(tick, seq.next().unwrap(), 0);
            assert_eq!(queue.pop().map(|(at, ..)| at), Some(tick));
            for i in 0..burst {
                queue.insert(tick + 500, seq.next().unwrap(), i);
            }
            for i in 0..burst {
                assert_eq!(queue.pop().map(|(.., v)| v), Some(i));
            }
            assert!(queue.is_empty());
            queue.heap_bytes()
        })
        .collect()
}

/// A burst of `SLOT_KEEP` keys parked in each of the 4 096 ring slots in
/// turn, each drained before the next is parked: every slot's buffer is
/// emptied within its slot's keep limit, so kept per slot they would
/// hold 4 096 × 64 keys (6.3 MB) while never more than one burst is
/// live. Shared through the spare list they stay within the bound at the
/// schedule's peak.
#[test]
fn every_slot_drained_in_turn_stays_within_the_bound() {
    let width = 64; // one ring bucket, in microseconds
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    let (mut seq, mut peak_live) = (0u64, 0);
    for slot in 1..=NBUCKETS as u64 {
        for i in 0..SLOT_KEEP as u64 {
            queue.insert(slot * width + i % width, seq, i);
            seq += 1;
        }
        peak_live = peak_live.max(queue.len());
        while queue.pop().is_some() {}
    }
    assert_eq!(peak_live, SLOT_KEEP);
    assert!(
        queue.heap_bytes() <= heap_bound::<u64>(peak_live),
        "{} B held with at most {} live, bound {} B",
        queue.heap_bytes(),
        peak_live,
        heap_bound::<u64>(peak_live)
    );
}

/// Successive rounds land in different ring slots (a second is 15 625
/// buckets, coprime with the ring), so a slot that kept its burst would
/// make the queue grow by one burst per round; it must stay flat.
#[test]
fn heap_is_flat_over_the_simulated_horizon() {
    let held = burst_rounds(512, 1024);
    assert!(
        held[511] <= held[7] + SLOT_KEEP * KEY_BYTES,
        "{} B after round 8, {} B after round 512",
        held[7],
        held[511]
    );
    assert!(held[511] <= heap_bound::<u64>(1024));
}

//! Property tests pinning the event queue to the binary-heap pop
//! discipline it replaced: for any interleaving of inserts and pops —
//! same-timestamp bursts, recurring delays that own a FIFO, one-off
//! delays in the heap, deadline slices that move the clock without a pop,
//! and lazy epoch purges — the queue must yield the exact `(at, seq)`
//! order a min-heap would. This is the determinism contract the engine's
//! byte-identical replay rests on. The schedules that exercise the FIFOs
//! also assert that entries did wait in one, so they cannot pass on the
//! heap alone.
//!
//! They also hold the queue to its stated memory bound (`sim::queue`
//! module doc): heap follows live entries, never simulated time.

use std::collections::BTreeMap;
use std::mem::size_of;

use proptest::prelude::*;
use vbundle_sim::EventQueue;

/// Reference implementation of the old engine discipline: an ordered map
/// popped by least `(at, seq)`. Slow, but obviously correct.
#[derive(Default)]
struct HeapModel {
    entries: BTreeMap<(u64, u64), (u32, u32)>, // (at, seq) -> (actor, epoch)
}

impl HeapModel {
    fn insert(&mut self, at: u64, seq: u64, actor: u32, epoch: u32) {
        self.entries.insert((at, seq), (actor, epoch));
    }

    fn pop(&mut self) -> Option<(u64, u64, u32, u32)> {
        let ((at, seq), (actor, epoch)) = self.entries.pop_first()?;
        Some((at, seq, actor, epoch))
    }

    /// [`HeapModel::pop`] if the smallest key's `at` is `≤ deadline`.
    fn pop_before(&mut self, deadline: u64) -> Option<(u64, u64, u32, u32)> {
        let (&(at, _), _) = self.entries.first_key_value()?;
        if at > deadline {
            return None;
        }
        self.pop()
    }

    /// The eager purge the old engine performed on restart: physically
    /// drop every queued timer belonging to `actor`.
    fn purge(&mut self, actor: u32) {
        self.entries.retain(|_, &mut (a, _)| a != actor);
    }
}

const NUM_ACTORS: u32 = 4;

/// The queue's private FIFO count, chunk length and header size.
const NFIFO: usize = 16;
const CHUNK: usize = 64;
const HEADER: usize = 32;

/// The memory bound from the `sim::queue` module doc for a queue of `T`
/// whose live entry count never exceeded `peak_live`: the heap at `2 P`
/// entries, every chunk (`P / CHUNK + 2 NFIFO` of them), and the chunk
/// lists, pool and FIFO table.
fn heap_bound<T>(peak_live: usize) -> usize {
    let p = peak_live.max(4); // a vector's first allocation holds four
    let entry = size_of::<(u64, u64, T)>();
    entry * (3 * p + 2 * NFIFO * CHUNK)
        + HEADER * ((2 * (NFIFO + 1) * p).div_ceil(CHUNK) + 9 * NFIFO)
}

/// Pops the queue the way the engine does: entries whose stored epoch no
/// longer matches their actor's current epoch are skipped invisibly.
fn lazy_pop(queue: &mut EventQueue<(u32, u32)>, epochs: &[u32]) -> Option<(u64, u64, u32, u32)> {
    while let Some((at, seq, (actor, epoch))) = queue.pop() {
        if epoch == epochs[actor as usize] {
            return Some((at, seq, actor, epoch));
        }
    }
    None
}

/// The engine's side of a schedule: a clock that pops and deadline
/// slices move, inserts measured from it, and the model beside the queue.
#[derive(Default)]
struct Runner {
    queue: EventQueue<()>,
    model: HeapModel,
    now: u64,
    seq: u64,
    peak_live: usize,
    /// Most entries seen waiting in FIFOs at once.
    peak_fifo: usize,
}

impl Runner {
    /// Inserts one key `delay` after the clock, with the next `seq`.
    fn insert(&mut self, delay: u64) -> TestCaseResult {
        let seq = self.seq;
        self.seq += 1;
        self.insert_seq(delay, seq)
    }

    fn insert_seq(&mut self, delay: u64, seq: u64) -> TestCaseResult {
        let at = self.now + delay;
        self.queue.insert_from(self.now, at, seq, ());
        self.model.insert(at, seq, 0, 0);
        self.peak_live = self.peak_live.max(self.queue.len());
        self.peak_fifo = self.peak_fifo.max(self.queue.fifo_entries());
        self.check_bound()
    }

    /// One `run_until` step: pops the next key at or before `deadline`
    /// and moves the clock to it, or, with none due, to the deadline.
    fn slice(&mut self, deadline: u64) -> Result<Option<u64>, TestCaseError> {
        let got = self
            .queue
            .pop_before(deadline)
            .map(|(at, seq, ())| (at, seq));
        let want = self
            .model
            .pop_before(deadline)
            .map(|(at, seq, ..)| (at, seq));
        prop_assert_eq!(got, want, "pop_before({}) diverged", deadline);
        self.now = got.map_or(deadline.max(self.now), |(at, _)| at);
        self.check_bound()?;
        Ok(got.map(|(_, seq)| seq))
    }

    /// Pops the least key, moving the clock to it.
    fn pop(&mut self) -> Result<Option<u64>, TestCaseError> {
        let got = self.queue.pop().map(|(at, seq, ())| (at, seq));
        let want = self.model.pop().map(|(at, seq, ..)| (at, seq));
        prop_assert_eq!(got, want, "pop diverged");
        if let Some((at, _)) = got {
            self.now = at;
        }
        self.check_bound()?;
        Ok(got.map(|(_, seq)| seq))
    }

    fn check_bound(&self) -> TestCaseResult {
        prop_assert!(
            self.queue.heap_bytes() <= heap_bound::<()>(self.peak_live),
            "{} B held with at most {} live",
            self.queue.heap_bytes(),
            self.peak_live
        );
        Ok(())
    }
}

/// An op stream: `kind % 4` selects insert-near / insert-far / pop /
/// epoch-purge; `at` seeds the timestamp and `actor` the owner. Narrow
/// `at` ranges force same-timestamp collisions; the far branch adds a
/// multi-second offset.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u32)>> {
    proptest::collection::vec((0u8..8, 0u64..3_000_000, 0..NUM_ACTORS), 1..200)
}

/// An op stream of inserts relative to the last popped key, the way the
/// engine makes them: `kind % 3` selects insert / dense insert / pop and
/// `off` the offset, up to 800 ms.
fn arb_relative_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..6, 0u64..800_000), 1..300)
}

/// An op stream for the engine's `run_until` slices: `kind % 4` selects
/// dense insert / spread insert / short slice / long slice, and `off`
/// the offset from the current time (up to 800 ms, under 1 000 for the
/// dense and short kinds).
fn arb_sliced_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..800_000), 1..300)
}

/// A hot-delay schedule: `kind % 8` selects insert (0–4), pop (5–6) or
/// deadline slice (7), and `pick` the delay out of the hot set, or for a
/// slice its length.
fn arb_hot_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..1_000_000), len)
}

/// Runs a hot-delay schedule over `delays`: inserts pick one of them,
/// pops and slices move the clock. Drains at the end; returns the most
/// entries that waited in FIFOs at once.
fn run_hot(delays: &[u64], ops: &[(u8, u64)]) -> Result<usize, TestCaseError> {
    let mut d = Runner::default();
    for &(kind, pick) in ops {
        match kind {
            0..=4 => d.insert(delays[pick as usize % delays.len()])?,
            5 | 6 => drop(d.pop()?),
            _ => drop(d.slice(d.now + pick % 1_000)?),
        }
    }
    while d.pop()?.is_some() {}
    Ok(d.peak_fifo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every pop from the queue (with lazy epoch skips) matches the heap
    /// model (with eager physical purges), op for op, and both drain to
    /// the same tail.
    #[test]
    fn calendar_matches_heap_discipline(ops in arb_ops()) {
        let mut queue: EventQueue<(u32, u32)> = EventQueue::new();
        let mut model = HeapModel::default();
        let mut epochs = vec![0u32; NUM_ACTORS as usize];
        let mut seq = 0u64;
        let mut peak_live = 0;
        for &(kind, at, actor) in &ops {
            match kind % 4 {
                0 => {
                    // Near insert (same-timestamp collisions common).
                    queue.insert(at, seq, (actor, epochs[actor as usize]));
                    model.insert(at, seq, actor, epochs[actor as usize]);
                    seq += 1;
                }
                1 => {
                    // Far-future insert, seconds beyond the near ones.
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
                    // Restart: the model purges eagerly, the queue only
                    // bumps the epoch and skips lazily.
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

    /// Inserts relative to the last popped key: the dense mode (`off %
    /// 2 000`) packs keys around the clock, where keys of many delays
    /// interleave. Checked against the model op for op and on drain,
    /// under the memory bound.
    #[test]
    fn relative_inserts_match_heap_discipline(ops in arb_relative_ops()) {
        let mut queue: EventQueue<()> = EventQueue::new();
        let mut model = HeapModel::default();
        let (mut seq, mut last_popped, mut peak_live) = (0u64, 0u64, 0);
        let pop = |queue: &mut EventQueue<()>, model: &mut HeapModel| {
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
    /// half the time, so keys sit exactly on a deadline. Checked against
    /// the model op for op and on drain.
    #[test]
    fn short_slices_match_heap_discipline(ops in arb_sliced_ops()) {
        let mut queue: EventQueue<()> = EventQueue::new();
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

    /// Same-timestamp events pop in strict insertion (seq) order.
    #[test]
    fn same_timestamp_bursts_are_fifo(at in 0u64..1_000_000, n in 1usize..64) {
        let mut queue: EventQueue<usize> = EventQueue::new();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A few hot delays — the stack's DCN tiers — take FIFOs, and pops
    /// across FIFOs, heap and deadline slices keep the model's order.
    #[test]
    fn few_hot_delays_match_heap_discipline(ops in arb_hot_ops(800..1_600)) {
        let peak_fifo = run_hot(&[10, 250, 500], &ops)?;
        prop_assert!(peak_fifo > 0, "no entry ever waited in a FIFO");
    }

    /// More hot delays than FIFOs, skewed the way the stack's are (the
    /// square of a uniform pick): the heaviest take FIFOs, FIFOs change
    /// hands as they empty, and the delays without one wait in the heap,
    /// in order.
    #[test]
    fn more_hot_delays_than_fifos_match_heap_discipline(ops in arb_hot_ops(3_000..5_000)) {
        let n = NFIFO as u64 + 8;
        let skewed = ops.iter().map(|&(kind, pick)| (kind, (pick % 1_000).pow(2) * n / 1_000_000));
        let ops: Vec<(u8, u64)> = skewed.collect();
        let delays: Vec<u64> = (1..=n).map(|i| i * 37).collect();
        let peak_fifo = run_hot(&delays, &ops)?;
        prop_assert!(peak_fifo > 0, "no entry ever waited in a FIFO");
    }

    /// Thousands of jittered one-off start delays, then a gossip round
    /// per pop: each popped key re-arms at one period and sends `fanout`
    /// zero-delay keys. The jittered keys never take a FIFO; the period
    /// and the zero delay do, and the order holds throughout.
    #[test]
    fn one_off_jittered_delays_match_heap_discipline(
        starts in proptest::collection::vec(0u64..100_000, 1_000..3_000),
        fanout in 1u64..4,
    ) {
        let mut d = Runner::default();
        for &jitter in &starts {
            d.insert(jitter)?;
        }
        prop_assert_eq!(d.queue.fifo_entries(), 0, "a jittered delay took a FIFO");
        for _ in 0..3 * starts.len() {
            prop_assert!(d.pop()?.is_some());
            d.insert(100_000)?;
            for _ in 0..fanout {
                d.insert(0)?;
            }
        }
        prop_assert!(d.peak_fifo > 0, "no entry ever waited in a FIFO");
        while d.pop()?.is_some() {}
    }

    /// Inserts made right after a `pop_before` slice that stopped short:
    /// the clock sits at the deadline, past the last pop, so the same
    /// delay measured from it lands later than from the last pop.
    #[test]
    fn inserts_after_a_deadline_slice_match_heap_discipline(
        ops in proptest::collection::vec((0u8..4, 0u64..5_000), 800..1_600),
    ) {
        let mut d = Runner::default();
        for &(kind, off) in &ops {
            match kind {
                0 | 1 => d.insert([100, 250][kind as usize])?,
                2 => d.insert(off)?,
                _ => {
                    // Slices that pop nothing move the clock to the deadline.
                    let deadline = d.now + off % 300;
                    while d.slice(deadline)?.is_some() {}
                    d.insert(250)?;
                }
            }
        }
        prop_assert!(d.peak_fifo > 0, "no entry ever waited in a FIFO");
        while d.pop()?.is_some() {}
    }

    /// Same-delay inserts whose `seq` goes down: each key sorts before the
    /// FIFO's tail, so it must wait in the heap, and pops stay in order.
    #[test]
    fn same_delay_inserts_with_falling_seq_match_heap_discipline(
        batches in proptest::collection::vec((1u64..40, 0u64..3), 20..60),
    ) {
        let mut d = Runner::default();
        let mut base = 1_000_000u64;
        for _ in 0..200 {
            d.insert(500)?; // the delay takes a FIFO
        }
        prop_assert!(d.queue.fifo_entries() > 0, "the warm-up took no FIFO");
        for &(n, pops) in &batches {
            for i in (0..n).rev() {
                d.insert_seq(500, base + i)?;
            }
            base += n;
            for _ in 0..pops {
                d.pop()?;
            }
        }
        while d.pop()?.is_some() {}
    }
}

/// One periodic round per simulated second: a timer fires, its handler
/// sends `burst` same-latency messages, and everything drains before the
/// next round — the shape of a heartbeat or tree-probe round. Returns
/// `heap_bytes()` after each round.
fn burst_rounds(rounds: u64, burst: u64) -> Vec<usize> {
    let mut queue: EventQueue<u64> = EventQueue::new();
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

/// A burst of keys for each of `NFIFO + 8` delays in turn, each drained
/// before the next is parked: every burst promotes its delay into a FIFO
/// (once all exist, into the one emptied longest ago), so FIFOs change
/// hands 8 times and every chunk goes back through the pool. The queue
/// stays within the bound at the schedule's peak.
#[test]
fn every_slot_drained_in_turn_stays_within_the_bound() {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let (mut seq, mut now, mut peak_live) = (0u64, 0u64, 0);
    for delay in 1..=(NFIFO + 8) as u64 {
        for i in 0..4 * CHUNK as u64 {
            queue.insert_from(now, now + delay * 100, seq, i);
            seq += 1;
        }
        peak_live = peak_live.max(queue.len());
        assert!(queue.fifo_entries() > 0, "delay {delay} took no FIFO");
        while let Some((at, ..)) = queue.pop() {
            now = at;
        }
    }
    assert_eq!(peak_live, 4 * CHUNK);
    assert!(
        queue.heap_bytes() <= heap_bound::<u64>(peak_live),
        "{} B held with at most {} live, bound {} B",
        queue.heap_bytes(),
        peak_live,
        heap_bound::<u64>(peak_live)
    );
}

/// Rounds repeat forever in simulated time; what the queue holds must
/// stop growing once the first rounds have sized its chunks. The one step
/// allowed after round 8 is the round timer's own delay taking a FIFO
/// (its first chunk and chunk list), which it earns at round 64.
#[test]
fn heap_is_flat_over_the_simulated_horizon() {
    let held = burst_rounds(512, 1024);
    let new_fifo = CHUNK * size_of::<(u64, u64, u64)>() + 4 * HEADER;
    assert!(
        held[511] <= held[7] + new_fifo,
        "{} B after round 8, {} B after round 512",
        held[7],
        held[511]
    );
    assert_eq!(held[511], held[127], "flat from round 128 on");
    assert!(held[511] <= heap_bound::<u64>(1024));
}

//! The allocation budget of the flight recorder: none. Once its ring is
//! allocated, recording a delivery, a timer or an injected fault copies a
//! fixed-size record into the ring; nothing is rendered until the tail is
//! dumped.
//!
//! The engine is held to the same budget, so every round repeats the
//! last one's delays: the injector's verdict depends only on the send's
//! offset into its round, and the event queue's FIFOs and chunk pool,
//! sized by the warm-up rounds, take each round's events as they come.
//!
//! One test only: the counting allocator is this test binary's global
//! allocator, and the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vbundle_sim::{
    Actor, ActorId, Context, CorruptionMode, Engine, FaultAction, FaultInjector, Latency, Message,
    SimDuration, SimTime,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a bump of a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// About 0.26 s between rounds.
const ROUND_US: u64 = 4096 * 64;
/// Hops of one round's rally.
const HOPS: u32 = 12;

/// A rally ball: hops left. Corruption flips it to zero (ending the rally).
#[derive(Debug, Clone)]
struct Ball(u32);

impl Message for Ball {
    fn corrupt(&mut self, _mode: CorruptionMode) -> bool {
        self.0 = 0;
        true
    }
}

/// Returns the ball until it runs out of hops, arming a timer per hit.
struct Player;

impl Actor<Ball> for Player {
    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: ActorId, msg: Ball) {
        if msg.0 > 0 {
            ctx.send(from, Ball(msg.0 - 1));
            ctx.schedule(SimDuration::from_millis(3), u64::from(msg.0));
        }
    }
}

/// Every fault kind once a round, chosen by the send's offset (ms) into
/// its round. With 10 ms hops the rally sends at 0, 10, 20 (delayed to
/// arrive at 34), 34, 44 (duplicated: two rallies, 2 ms apart), 54 and
/// 56, 64 (dropped) and 66 (corrupted, which ends the rally).
struct EveryFault;

impl FaultInjector for EveryFault {
    fn on_send(&mut self, now: SimTime, _from: ActorId, _to: ActorId) -> FaultAction {
        match (now.as_micros() % ROUND_US) / 1_000 {
            20 => FaultAction::Delay(SimDuration::from_millis(4)),
            44 => FaultAction::Duplicate(SimDuration::from_millis(2)),
            64 => FaultAction::Drop,
            66 => FaultAction::Corrupt(CorruptionMode::Nan),
            _ => FaultAction::Deliver,
        }
    }
}

fn play_round(engine: &mut Engine<Ball, Player>, a: ActorId, b: ActorId, round: u64) {
    engine.post(b, a, Ball(HOPS), SimDuration::ZERO);
    engine.run_until(SimTime::from_micros((round + 1) * ROUND_US));
}

#[test]
fn recording_into_a_warm_ring_allocates_nothing() {
    let mut engine = Engine::with_latency(Latency::Constant(SimDuration::from_millis(10)), 1);
    let a = engine.add_actor(Player);
    let b = engine.add_actor(Player);
    engine.set_injector(Box::new(EveryFault));
    // Small enough that the warm-up rounds wrap it: later records evict.
    engine.enable_flight_recorder(16);
    engine.start();
    for round in 0..3 {
        play_round(&mut engine, a, b, round);
    }
    let recorded = engine.flight().len() as u64 + engine.flight().dropped();

    let before = ALLOCS.with(Cell::get);
    for round in 3..6 {
        play_round(&mut engine, a, b, round);
    }
    let allocs = ALLOCS.with(Cell::get) - before;

    let flight = engine.flight();
    let counted = flight.len() as u64 + flight.dropped() - recorded;
    assert!(
        counted > 3 * u64::from(HOPS),
        "{counted} records in 3 rounds"
    );
    assert_eq!(allocs, 0, "{allocs} allocations across {counted} records");
    // Each of the six rounds injected every fault kind once.
    let stats = engine.fault_stats();
    let per_kind = [
        stats.delayed,
        stats.duplicated,
        stats.dropped,
        stats.corrupted,
    ];
    assert_eq!(per_kind, [6; 4], "{stats:?}");
    let tail = flight.dump_tail(usize::MAX);
    assert!(tail.contains("engine/deliver"), "{tail}");
    assert!(tail.contains("engine/timer"), "{tail}");
}

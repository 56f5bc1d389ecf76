//! The allocation budget of a routed message: one heap allocation where it
//! originates — the `Box` behind [`PastryMsg::Route`] — and none on any
//! hop after that, because every hop moves the payload out of the box for
//! the `forward` upcall and back into the same box. A heartbeat round —
//! inline messages, one in-place liveness record per leaf-set member —
//! allocates nothing in any node, and on a settled ring nobody acks.
//! Direct messages an application sends as a `Signal` travel inline as
//! well: Scribe's tree maintenance allocates nothing
//! (`crates/scribe/tests/probe_alloc.rs`).
//!
//! One test only: the counting allocator is this test binary's global
//! allocator, and the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vbundle_dcn::Topology;
use vbundle_pastry::overlay::{self, IdAssignment, Probe};
use vbundle_pastry::{AppCtx, Id, Key, NodeHandle, PastryApp, PastryConfig, PastryMsg, PastryNode};
use vbundle_sim::{Engine, Latency, SimDuration, SimTime};

type Net = Engine<PastryMsg<Probe>, PastryNode<HopCounter>>;

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

/// Counts forwards and deliveries without allocating.
#[derive(Default)]
struct HopCounter {
    forwards: u64,
    delivered: u64,
}

impl PastryApp for HopCounter {
    type Msg = Probe;

    fn deliver(&mut self, _: &mut AppCtx<'_, '_, Probe>, _: Key, _: Probe, _: NodeHandle) {
        self.delivered += 1;
    }

    fn forward(
        &mut self,
        _: &mut AppCtx<'_, '_, Probe>,
        _: Key,
        msg: Probe,
        _: NodeHandle,
    ) -> Option<Probe> {
        self.forwards += 1;
        Some(msg)
    }
}

#[test]
fn a_route_allocates_once_however_many_hops() {
    let topo = Arc::new(
        Topology::builder()
            .pods(4)
            .racks_per_pod(8)
            .servers_per_rack(16)
            .build(),
    );
    let (mut net, handles): (Net, _) = overlay::launch(
        &topo,
        IdAssignment::Random { seed: 11 },
        PastryConfig::default().with_heartbeat(SimDuration::from_secs(1)),
        3,
        Latency::Constant(SimDuration::from_millis(1)),
        |_, _| HopCounter::default(),
    );
    let totals = |net: &Net| {
        net.actors().fold((0, 0), |(f, d), (_, node)| {
            (f + node.app().forwards, d + node.app().delivered)
        })
    };
    let route = |net: &mut Net, from: NodeHandle, key: Key| {
        net.call(from.actor, |node, ctx| {
            node.app_call(ctx, |_, actx| actx.route(key, Probe(0)));
        });
    };

    // Find an (origin, key) pair at least three forwards apart, and let a
    // few heartbeat rounds warm the engine's queue, slab and scratch.
    let origin = handles[0];
    let mut far_key = None;
    for k in 1..200u128 {
        let key = Id::from_u128(k.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835));
        let before = totals(&net);
        route(&mut net, origin, key);
        net.run_for(SimDuration::from_millis(100));
        let after = totals(&net);
        assert_eq!(after.1, before.1 + 1, "every route is delivered");
        if after.0 - before.0 >= 3 {
            far_key = Some(key);
            break;
        }
    }
    let far_key = far_key.expect("a 512-node random overlay has three-hop routes");
    // Heartbeat rounds fire on whole seconds and their acks land within
    // milliseconds; measure in the quiet stretch after one.
    let next_round = (net.now().as_micros() / 1_000_000 + 5) * 1_000_000;
    net.run_until(SimTime::from_micros(next_round + 200_000));

    // Measured: the same route again (every node on the path already knows
    // the origin), alone in the queue.
    let before = totals(&net);
    let allocs_before = ALLOCS.with(Cell::get);
    route(&mut net, origin, far_key);
    net.run_for(SimDuration::from_millis(100));
    let routed = ALLOCS.with(Cell::get) - allocs_before;
    let after = totals(&net);
    assert!(after.0 - before.0 >= 3, "the route still takes 3+ hops");
    assert_eq!(after.1, before.1 + 1);
    assert_eq!(routed, 1, "one Box at the origin, reused on every hop");

    // A settled ring's liveness traffic is one-way and allocation-free:
    // per round every node's timer fires and each of its 16 leaf-set
    // members receives one heartbeat. One event more would be an ack (a
    // member's own heartbeat is its proof of life). The nodes allocate
    // nothing: what is left is the event queue regrowing the two slots
    // the round's bursts land in (8 192 heartbeats on one tick, 512
    // timers on another; a drained slot keeps 64 keys, so a dozen
    // doublings a round whatever the nodes do). One collection per node
    // per round, which is what this guards against, would be 1 536.
    let events_before = net.events_processed();
    let allocs_before = ALLOCS.with(Cell::get);
    net.run_for(SimDuration::from_secs(3));
    let events = net.events_processed() - events_before;
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    assert_eq!(events, 3 * (512 * 16 + 512), "heartbeats and timers only");
    assert!(allocs <= 3 * 12, "{allocs} allocations in three rounds");
}

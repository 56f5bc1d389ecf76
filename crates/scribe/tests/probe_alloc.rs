//! The allocation budget of tree maintenance: none. A probe round — every
//! in-tree node's `ParentProbe` to its parent, the parent refreshing the
//! child link's inline phi window, the parent-side expiry pass — moves
//! only inline values: the five tree-maintenance messages travel as a
//! Pastry `Signal`, not in a `Direct` box, and a link's arrival window is
//! a fixed ring inside the link record.
//!
//! The engine is held to the same budget. Its event queue keeps each
//! round's probes in the FIFO of their delay, in chunks the warm-up
//! rounds already took from its pool, so a round allocates nothing
//! whatever its interval.
//!
//! One test only: the counting allocator is this test binary's global
//! allocator, and the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vbundle_dcn::Topology;
use vbundle_pastry::{overlay, IdAssignment, PastryConfig, PastryMsg, PastryNode};
use vbundle_scribe::{group_id, CollectClient, Scribe, ScribeConfig, ScribeMsg, TestPayload};
use vbundle_sim::{Engine, Latency, SimDuration};

type Net = Engine<PastryMsg<ScribeMsg<TestPayload>>, PastryNode<Scribe<CollectClient>>>;

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

/// About 1.05 s between probe rounds.
const PROBE: SimDuration = SimDuration::from_micros(4 * 4096 * 64);

#[test]
fn a_probe_round_allocates_nothing() {
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    // Probes on, and with them phi-accrual child detection, and every
    // member claiming a summary so that each probe carries a word.
    let config = ScribeConfig::default().with_probe_interval(PROBE);
    let client = CollectClient {
        summary: Some(1),
        ..CollectClient::default()
    };
    let (mut net, handles): (Net, _) = overlay::launch(
        &topo,
        IdAssignment::Random { seed: 5 },
        PastryConfig::default(),
        9,
        Latency::Constant(SimDuration::from_millis(1)),
        |_, _| Scribe::with_config(client.clone(), config.clone()),
    );
    let groups = [group_id("BW_Demand"), group_id("Less-Loaded")];
    for h in &handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| groups.iter().for_each(|&g| sctx.join(g)));
            });
        });
    }

    // Settle the trees, then let enough rounds pass that every link's
    // window is full and wraps, and the engine's queue and buffers have
    // reached their working size.
    net.run_for(PROBE * 24);
    let links = |net: &Net| -> usize {
        net.actors()
            .map(|(_, node)| {
                let scribe = node.app();
                groups
                    .iter()
                    .filter_map(|&g| scribe.group(g))
                    .map(|st| st.children.len())
                    .sum::<usize>()
            })
            .sum()
    };
    let settled = links(&net);
    assert_eq!(settled, 2 * (handles.len() - 1), "two spanning trees");

    // Measured: twelve probe rounds, one probe per tree link each.
    let rounds = 12;
    let events_before = net.events_processed();
    let allocs_before = ALLOCS.with(Cell::get);
    net.run_for(PROBE * rounds);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let events = net.events_processed() - events_before;
    assert_eq!(
        events,
        rounds * (handles.len() as u64 + settled as u64),
        "one timer per node and one probe per link each round"
    );
    assert_eq!(links(&net), settled, "no link expired or moved");
    assert_eq!(allocs, 0, "{allocs} allocations in {rounds} probe rounds");
}

//! The allocation budget of a boot walk (§II.B). The query is boxed once
//! where it originates and travels in that box, and choosing a hop's
//! successor allocates nothing. Besides the transport's one box per
//! message — the routed envelope to the customer key's root, each
//! forward, the result — a walk of `k` hops allocates only the doublings
//! of its `visited` list, never once per hop.
//!
//! One test only: the counting allocator is this test binary's global
//! allocator, and the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vbundle_core::{
    Cluster, Customer, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_sim::{ActorId, SimDuration};

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

/// Allocations a `Vec` of actors makes growing from empty to `n`.
fn growth(n: u64) -> u64 {
    let mut v = Vec::new();
    let mut grew = 0;
    for i in 0..n {
        let cap = v.capacity();
        v.push(ActorId::new(i as u32));
        grew += u64::from(v.capacity() != cap);
    }
    grew
}

#[test]
fn a_boot_walk_allocates_nothing_per_hop() {
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(4)
            .servers_per_rack(16)
            .build(),
    );
    // No periodic work while a walk is measured.
    let hour = SimDuration::from_secs(3600);
    let config = VBundleConfig::default()
        .with_update_interval(hour)
        .with_rebalance_interval(hour);
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(config)
        .seed(11)
        .build();
    cluster.run_for(SimDuration::from_secs(5));

    // Fill the rack of the tenant key's root: every walk then crosses the
    // rack before the pod admits it.
    let tenant = Customer::new(CustomerId(0), "tenant");
    let root = (0..topo.num_servers())
        .min_by_key(|&s| cluster.ids[s].ring_distance(tenant.key))
        .expect("servers");
    let nic = topo.capacity().bandwidth;
    for server in topo.servers_in_rack(topo.rack_of(topo.server(root))) {
        let id = cluster.alloc_vm_id();
        let filler = VmRecord::new(id, CustomerId(1), ResourceSpec::bandwidth(nic, nic));
        cluster.install_vm(server, filler);
    }
    let spec = ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(200.0));
    let entry = (root + topo.num_servers() / 2) % topo.num_servers();
    let handled = |c: &Cluster| -> u64 {
        (0..c.num_servers())
            .map(|s| c.controller(s).stats.boots_handled)
            .sum()
    };
    // One walk: its hops and its allocations. The VM is removed again,
    // so the next walk takes the same path.
    let walk = |cluster: &mut Cluster| {
        let (hops, allocs) = (handled(cluster), ALLOCS.with(Cell::get));
        let (request, vm) = cluster.request_boot(entry, &tenant, spec, ResourceVector::ZERO);
        let host = loop {
            if let Some(result) = cluster.boot_result(entry, request) {
                break result.expect("placed");
            }
            cluster.run_for(SimDuration::from_millis(1));
        };
        let spent = ALLOCS.with(Cell::get) - allocs;
        cluster
            .controller_mut(host.actor.index())
            .remove_vm(vm)
            .expect("hosted");
        (handled(cluster) - hops, spent)
    };
    // The first walk warms what any first message warms: the host's VM
    // list, the entry's result list and the event queue's slots. The
    // queue is a ring of 4 096 buckets of 64 µs, so a second walk started
    // one ring period later lands in the same slots.
    let start = cluster.now();
    walk(&mut cluster);
    cluster.run_until(start + SimDuration::from_micros(4096 * 64));
    let (hops, spent) = walk(&mut cluster);
    assert!(
        hops > 10,
        "the walk should cross the full rack: {hops} hops"
    );
    // Boxes: the query, its routed envelope, one per forward, the result.
    let forwards = hops - 1;
    let budget = 3 + forwards + growth(forwards);
    assert!(
        spent <= budget,
        "{spent} allocations for a {hops}-hop walk, budget {budget}"
    );
}

//! The transient heap of the VM conservation check: the most it holds at
//! once while checking 200 servers × 25 VMs, per VM. DESIGN.md "Chaos
//! engineering" states the bound.
//!
//! One test only: the counting allocator is this test binary's global
//! allocator, and the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vbundle_chaos::check_vm_conservation;
use vbundle_core::{Cluster, CustomerId, ResourceSpec, ResourceVector, VmRecord};
use vbundle_dcn::{Bandwidth, Topology};

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: i64) {
    let live = LIVE.with(|n| {
        n.set(n.get() + bytes);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a bump of two const-initialised thread-local `Cell`s, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak bytes the check adds per VM: one `(VmId, ActorId)` copy is 16 B,
/// allocated once at its final size. The `BTreeMap<VmId, Vec<usize>>`
/// check this replaced peaked near 96 B per VM on the same cluster.
const BUDGET_PER_VM: i64 = 24;

#[test]
fn the_vm_check_holds_at_most_its_flat_copies() {
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(5)
            .servers_per_rack(20)
            .build(),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo)).seed(7).build();
    assert_eq!(cluster.num_servers(), 200);
    let bw = ResourceVector::bandwidth_only(Bandwidth::from_mbps(10.0));
    let mut expected = Vec::new();
    for server in 0..cluster.num_servers() {
        for _ in 0..25 {
            let id = cluster.alloc_vm_id();
            let vm = VmRecord::new(id, CustomerId(0), ResourceSpec::fixed(bw));
            cluster.install_vm(topo.server(server), vm);
            expected.push(id);
        }
    }
    let vms = expected.len() as i64;
    assert_eq!(vms, 5_000);

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let violations = check_vm_conservation(&cluster.engine, &expected);
    let per_vm = (PEAK.with(Cell::get) - before) / vms;
    assert!(violations.is_empty(), "{violations:?}");
    assert!(
        per_vm <= BUDGET_PER_VM,
        "the check peaked at {per_vm} live heap bytes per VM, budget {BUDGET_PER_VM}"
    );
}

//! The heap a server's stack costs once the cluster is built: Pastry's
//! leaf set, routing rows and neighbor set, Scribe, the controller and
//! the engine's share, per server of a 1 000-server cluster with the
//! optional subsystems (trading, survivability, failover) off, and each
//! Pastry table's own share. DESIGN.md "Per-server footprint" breaks the
//! figure down by table.
//!
//! One test only: the counting allocator is this test binary's global
//! allocator, and the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

use vbundle_core::{Cluster, VBundleConfig};
use vbundle_dcn::Topology;
use vbundle_pastry::{overlay, PastryConfig, PastryState, TableBytes};

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a bump of a const-initialised thread-local `Cell`, which neither
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

/// Live heap bytes per server after `build()`: 3 808 B measured on
/// x86-64, plus 76 B (2.0 %) of headroom. With one `Rc` per metric
/// counter (and a 1 216-byte actor record) the same cluster held 4 289 B
/// per server; with 20-byte handles in every Pastry table, 5 866 B; with
/// 24-byte handles, a 2 048-byte actor record and four configs copied
/// into every server, 6 904 B; before each per-node table was sized to
/// its bound, 8 937 B.
const BUDGET_PER_SERVER: i64 = 3_884;

/// Per server, what `overlay::build_states` leaves live, table by table
/// (DESIGN.md "Per-server footprint"): both leaf-set sides (2 × 8 actor
/// references of 4 B), the neighbor set (16 × 8 B), the routing rows
/// (2.99 rows of 68 B on average), the inline `PastryState`, and the
/// roster the states share (one 20-B id per server plus its header).
/// Each bound is the measured value; a table that grows names itself.
const LEAF_SET: usize = 64;
const NEIGHBOR_SET: usize = 128;
const ROUTING_ROWS: usize = 204;
const PASTRY_STATE: usize = 240;
const ROSTER: i64 = 21;

#[test]
fn a_built_server_stays_within_its_heap_budget() {
    let topo = Arc::new(
        Topology::builder()
            .pods(5)
            .racks_per_pod(10)
            .servers_per_rack(20)
            .build(),
    );
    let servers = topo.num_servers() as i64;
    assert_eq!(servers, 1000);
    let config = VBundleConfig::default();
    assert!(!config.bundle_trading && config.survivability.is_none() && config.failover.is_none());
    let before = LIVE.with(Cell::get);
    let cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(config)
        .seed(7)
        .build();
    let per_server = (LIVE.with(Cell::get) - before) / servers;
    assert_eq!(cluster.num_servers(), 1000);
    assert!(
        per_server <= BUDGET_PER_SERVER,
        "{per_server} live heap bytes per server, budget {BUDGET_PER_SERVER}"
    );
    drop(cluster);

    let handles = overlay::handles_for(&overlay::topology_aware_ids(&topo));
    let before = LIVE.with(Cell::get);
    let states = overlay::build_states(&topo, &handles, &PastryConfig::default());
    let live = LIVE.with(Cell::get) - before;
    let n = states.len();
    let mut tables = TableBytes::default();
    for t in states.iter().map(PastryState::table_bytes) {
        tables.leaf_set += t.leaf_set;
        tables.neighbor_set += t.neighbor_set;
        tables.routing_rows += t.routing_rows;
    }
    for (table, bytes, bound) in [
        ("leaf set", tables.leaf_set, LEAF_SET),
        ("neighbor set", tables.neighbor_set, NEIGHBOR_SET),
        ("routing rows", tables.routing_rows, ROUTING_ROWS),
        (
            "inline PastryState",
            n * size_of::<PastryState>(),
            PASTRY_STATE,
        ),
    ] {
        assert!(
            bytes <= bound * n,
            "{table}: {} B per server, bound {bound}",
            bytes as f64 / n as f64
        );
    }
    // What no table accounts for is the roster.
    let inline = n * size_of::<PastryState>();
    let rest = live - (inline + tables.leaf_set + tables.neighbor_set + tables.routing_rows) as i64;
    assert!(
        (0..=ROSTER * n as i64).contains(&rest),
        "{rest} B of overlay state outside the tables, bound {ROSTER} per server"
    );
}

//! The event queue's memory follows live events, not simulated time —
//! checked at stack level through the exported gauge, the way the
//! long-horizon soak will check every bounded table.

use std::mem::size_of;
use std::sync::Arc;

use vbundle_core::{Cluster, CtrlMsg};
use vbundle_dcn::Topology;
use vbundle_pastry::{PastryConfig, PastryMsg};
use vbundle_scribe::{ScribeConfig, ScribeMsg};
use vbundle_sim::SimDuration;

/// One parked engine event: the wire message plus its destination,
/// sender and kind (16 bytes over the message).
const ENTRY_BYTES: usize = size_of::<PastryMsg<ScribeMsg<CtrlMsg>>>() + 16;
/// The queue's private key size, ring size, `SLOT_KEEP` and slab page.
const KEY_BYTES: usize = 24;
const NBUCKETS: usize = 4096;
const SLOT_KEEP: usize = 64;
const PAGE: usize = 1024;

/// The most the gauge may drift once warm at an unchanged peak: one
/// further slab page, the bound's one step not proportional to live
/// entries besides the fixed slot headers.
const PAGE_SLACK: f64 = (PAGE * ENTRY_BYTES + 8) as f64;

/// The `sim::queue` module doc's bound on `heap_bytes()` for a queue
/// whose live entry count never exceeded `peak`.
fn heap_bound(peak: usize) -> f64 {
    let p = peak.max(4);
    let bytes = KEY_BYTES * (6 * p + (SLOT_KEEP + 2) * p.min(NBUCKETS) + NBUCKETS)
        + p.div_ceil(PAGE) * (PAGE * ENTRY_BYTES + 8)
        + 2 * p * size_of::<u32>();
    bytes as f64
}

#[test]
fn queue_heap_gauge_does_not_grow_with_the_horizon() {
    let topo = Topology::builder()
        .pods(2)
        .racks_per_pod(5)
        .servers_per_rack(20)
        .build();
    let mut cluster = Cluster::builder(Arc::new(topo))
        .pastry(PastryConfig::default().with_heartbeat(SimDuration::from_secs(1)))
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .seed(15)
        .build();
    let mut held = || {
        cluster.run_for(SimDuration::from_secs(120));
        let metrics = cluster.engine.metrics();
        let bytes = metrics.gauge_value("engine/queue_heap_bytes");
        let peak = cluster.engine.queue_peak();
        (bytes.expect("gauge registered"), peak)
    };
    let ((once, _), (twice, peak)) = (held(), held());
    assert!(once > 0.0);
    assert!(
        twice <= once + PAGE_SLACK,
        "queue held {once} B at 120 s but {twice} B at 240 s"
    );
    assert!(
        twice <= heap_bound(peak),
        "queue held {twice} B with at most {peak} live, bound {} B",
        heap_bound(peak)
    );
}

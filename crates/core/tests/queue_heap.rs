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

/// One queued engine event: its `(at, seq)` key and the wire message
/// with its destination, sender and kind (16 bytes over the message).
const ENTRY_BYTES: usize = 16 + size_of::<PastryMsg<ScribeMsg<CtrlMsg>>>() + 16;
/// The queue's private FIFO count, chunk length and header size.
const NFIFO: usize = 16;
const CHUNK: usize = 64;
const HEADER: usize = 32;

/// The most the gauge may drift once warm at an unchanged peak: one
/// further chunk for each FIFO, the bound's one step not proportional to
/// live entries (a FIFO's run may straddle one more chunk boundary).
const CHUNK_SLACK: f64 = (NFIFO * (CHUNK * ENTRY_BYTES + HEADER)) as f64;

/// The `sim::queue` module doc's bound on `heap_bytes()` for a queue
/// whose live entry count never exceeded `peak`.
fn heap_bound(peak: usize) -> f64 {
    let p = peak.max(4);
    let bytes = ENTRY_BYTES * (3 * p + 2 * NFIFO * CHUNK)
        + HEADER * ((2 * (NFIFO + 1) * p).div_ceil(CHUNK) + 9 * NFIFO);
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
        twice <= once + CHUNK_SLACK,
        "queue held {once} B at 120 s but {twice} B at 240 s"
    );
    assert!(
        twice <= heap_bound(peak),
        "queue held {twice} B with at most {peak} live, bound {} B",
        heap_bound(peak)
    );
}

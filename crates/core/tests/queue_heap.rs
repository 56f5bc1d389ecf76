//! The event queue's memory follows live events, not simulated time —
//! checked at stack level through the exported gauge, the way the
//! long-horizon soak will check every bounded table.

use std::sync::Arc;

use vbundle_core::Cluster;
use vbundle_dcn::Topology;
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::SimDuration;

/// What all 4 096 ring slots may keep between bursts (`SLOT_KEEP` = 64
/// keys of 24 bytes each): the most the gauge may drift once warm.
const SLOT_SLACK: f64 = 4096.0 * 64.0 * 24.0;

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
        bytes.expect("gauge registered")
    };
    let (once, twice) = (held(), held());
    assert!(once > 0.0);
    assert!(
        twice <= once + SLOT_SLACK,
        "queue held {once} B at 120 s but {twice} B at 240 s"
    );
}

//! The shape of the aggregation trees the controllers build: each is a
//! star. One node holds nearly every member as a direct child, although
//! Scribe's trees follow Pastry routes and should fan out by id prefix
//! (ROADMAP item 6 (ζ); DESIGN.md `vbundle-scribe`). `tree_depth_max`
//! stays at 3 because the few members not under the hub hang off short
//! paths; it does not show the hub.
//!
//! This test pins today's shape. Settling (ζ) is expected to change it:
//! re-pin the shares then, with the measured fan-out beside them.

use std::sync::Arc;

use vbundle_core::{bw_capacity_topic, bw_demand_topic, Cluster, VBundleConfig};
use vbundle_dcn::Topology;
use vbundle_scribe::GroupId;
use vbundle_sim::SimDuration;

/// The most direct children any one node holds in `topic`'s tree.
fn hub_children(cluster: &Cluster, topic: GroupId) -> usize {
    (0..cluster.num_servers())
        .filter_map(|i| {
            cluster
                .engine
                .actor(cluster.handles[i].actor)
                .app()
                .group(topic)
        })
        .map(|g| g.children.len())
        .max()
        .unwrap_or(0)
}

#[test]
fn aggregation_trees_are_stars_around_one_hub() {
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(5)
            .servers_per_rack(20)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(VBundleConfig::default())
        .seed(7)
        .build();
    cluster.run_for(SimDuration::from_secs(600));
    let demand = hub_children(&cluster, bw_demand_topic());
    let capacity = hub_children(&cluster, bw_capacity_topic());
    // 95 % and 91 % of the 200 members hang directly off one node.
    assert_eq!(
        (demand, capacity),
        (190, 182),
        "hub children of 200 (BW_Demand, BW_Capacity)"
    );
}

//! Quickstart: boot a customer's VM bundle through the DHT placement
//! protocol, overload one instance, and watch v-Bundle shuffle bandwidth
//! inside the bundle.
//!
//! Run: `cargo run --release --example quickstart`

use std::sync::Arc;

use vbundle::core::{Cluster, Customer, CustomerId, ResourceSpec, ResourceVector, VBundleConfig};
use vbundle::dcn::{Bandwidth, Topology};
use vbundle::sim::{SimDuration, SimTime};

fn main() {
    // ── 1. A datacenter: the paper's 15-server testbed (4 racks, 1 Gbps
    //       NICs, 8:1 oversubscribed ToR up-links).
    let topo = Arc::new(Topology::paper_testbed());
    println!(
        "datacenter: {} servers / {} racks, {} per NIC",
        topo.num_servers(),
        topo.num_racks(),
        topo.capacity().bandwidth
    );

    // ── 2. A v-Bundle cluster with fast control loops so the demo
    //       finishes in seconds of simulated time.
    let config = VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(10))
        .with_rebalance_interval(SimDuration::from_secs(30))
        .with_threshold(0.3);
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(config)
        .seed(42)
        .build();

    // ── 3. One customer boots 6 instances: 3 standard (100 Mbps) and 3
    //       high-I/O (200 Mbps), the paper's Figure 1 bundle.
    let ibm = Customer::new(CustomerId(0), "IBM");
    let standard =
        ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(400.0));
    let high_io = ResourceSpec::bandwidth(Bandwidth::from_mbps(200.0), Bandwidth::from_mbps(400.0));
    let mut vms = Vec::new();
    let mut racks = std::collections::BTreeSet::new();
    for i in 0..6 {
        let spec = if i < 3 { standard } else { high_io };
        let (request, vm) = cluster.request_boot(
            i % topo.num_servers(),
            &ibm,
            spec,
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(50.0)),
        );
        // Drive the simulation until the boot query resolves.
        while cluster
            .boot_result(i % topo.num_servers(), request)
            .is_none()
        {
            cluster.run_for(SimDuration::from_millis(100));
        }
        let host = cluster
            .boot_result(i % topo.num_servers(), request)
            .flatten()
            .expect("placed");
        let server = topo.server(host.actor.index());
        println!(
            "  booted {vm} ({}) on {server} (rack {})",
            if i < 3 { "standard" } else { "high-I/O" },
            topo.rack_of(server).index()
        );
        racks.insert(topo.rack_of(server));
        vms.push(vm);
    }
    // The walk keeps the bundle together: all six fit in the root's rack.
    assert!(
        racks.len() <= 1,
        "the bundle spread over {} racks",
        racks.len()
    );
    cluster.reindex();

    // ── 4. Three VMs' workloads spike toward their 400 Mbps limits —
    //       1290 Mbps of demand against their shared host's 1 Gbps NIC,
    //       but comfortably within the customer's bundle.
    for &vm in &vms[..3] {
        cluster.set_vm_demand(
            vm,
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(380.0)),
        );
    }
    let before = cluster.satisfaction();
    println!(
        "\nafter the spike: demand {:.0} Mbps, satisfied {:.0} Mbps (gap {:.0})",
        before.demand.as_mbps(),
        before.satisfied.as_mbps(),
        before.shortfall().as_mbps()
    );

    // ── 5. Let the decentralized shuffle run: aggregation trees publish
    //       the cluster mean, hot servers shed, cold servers receive.
    cluster.run_until(SimTime::from_mins(5));
    let after = cluster.satisfaction();
    println!(
        "after rebalancing: demand {:.0} Mbps, satisfied {:.0} Mbps (gap {:.0}), {} migrations",
        after.demand.as_mbps(),
        after.satisfied.as_mbps(),
        after.shortfall().as_mbps(),
        cluster.total_migrations()
    );
    assert!(
        after.shortfall() <= before.shortfall(),
        "shuffling must not make the bundle worse"
    );
    println!("\nv-Bundle borrowed idle bandwidth from the customer's own instances — no extra resources purchased.");
    println!(
        "{} of 6 boots placed, the bundle in {} rack(s)",
        vms.len(),
        racks.len()
    );
}

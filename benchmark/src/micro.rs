//! Microloops over single public functions: the layers a full run touches
//! too briefly (or too diffusely) for a phase span to resolve.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_core::{
    shaper, ClusterModel, Customer, PlacementPolicy, ResourceSpec, ResourceVector, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology, TopologyLatency};
use vbundle_pastry::overlay;
use vbundle_sim::ActorId;

use crate::span::Tracer;
use crate::workloads::Params;

/// VMs on the shaper microloop's server (the `rebalance` density).
const SHAPER_VMS: u64 = 25;

/// Runs every microloop; `topo` is the workload's topology.
pub fn run(tr: &mut Tracer, p: &Params, topo: &Arc<Topology>) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x3100);

    // One latency lookup per send on every stack workload.
    let lookups = p.scaled(2_000_000) as usize;
    let n = topo.num_servers() as u32;
    let pairs: Vec<(ActorId, ActorId)> = (0..4096)
        .map(|_| {
            (
                ActorId::new(rng.gen_range(0..n)),
                ActorId::new(rng.gen_range(0..n)),
            )
        })
        .collect();
    let latency = TopologyLatency::new(Arc::clone(topo)).devirtualize();
    let open = tr.enter("dcn.latency_lookup");
    let started = Instant::now();
    let mut sum = 0u64;
    for i in 0..lookups {
        let (a, b) = pairs[i % pairs.len()];
        sum = sum.wrapping_add(latency.latency(black_box(a), black_box(b)).as_micros());
    }
    black_box(sum);
    let secs = started.elapsed().as_secs_f64();
    tr.exit(open);
    out.insert("dcn.latency_lookup_ns", secs * 1e9 / lookups as f64);

    // The shaper on one 25-VM server with mixed demand.
    let vms: Vec<VmRecord> = (0..SHAPER_VMS)
        .map(|i| {
            let mut vm = VmRecord::new(
                VmId(i),
                vbundle_core::CustomerId(0),
                ResourceSpec::bandwidth(Bandwidth::from_mbps(20.0), Bandwidth::from_mbps(200.0)),
            );
            vm.demand =
                ResourceVector::bandwidth_only(Bandwidth::from_mbps(rng.gen_range(5.0..120.0)));
            vm
        })
        .collect();
    let calls = p.scaled(200_000);
    let open = tr.enter("core.shaper.allocate");
    let started = Instant::now();
    for _ in 0..calls {
        black_box(shaper::allocate(Bandwidth::from_gbps(1.0), black_box(&vms)));
    }
    let secs = started.elapsed().as_secs_f64();
    tr.exit(open);
    out.insert(
        "core.shaper.allocate_ns_per_vm",
        secs * 1e9 / (calls * SHAPER_VMS) as f64,
    );

    // Offline placement in the shape of Fig. 7: the paper's five
    // customers, interleaved, onto the 3000-server simulation topology.
    let big = Arc::new(if p.quick {
        Topology::builder()
            .pods(1)
            .racks_per_pod(8)
            .servers_per_rack(40)
            .build()
    } else {
        Topology::simulation_3000()
    });
    let ids = overlay::topology_aware_ids(&big);
    let mut model = ClusterModel::new(Arc::clone(&big), ids, big.capacity().into());
    let customers = Customer::paper_five();
    let placements = p.scaled(10_000);
    let spec = ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(200.0));
    let open = tr.enter("core.placement.place");
    let started = Instant::now();
    for i in 0..placements {
        let customer = &customers[i as usize % customers.len()];
        let vm = VmRecord::new(VmId(i), customer.id, spec);
        let placed = model.place(PlacementPolicy::VBundle, customer.key, vm, &mut rng);
        assert!(placed.is_some(), "offline placement {i} found no server");
    }
    let secs = started.elapsed().as_secs_f64();
    tr.exit(open);
    out.insert("core.placement.place_us", secs * 1e6 / placements as f64);
    out
}

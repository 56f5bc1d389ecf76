//! Ablation — topology-aware vs random node-id assignment.
//!
//! The paper's certificate authority assigns ids that mirror physical
//! position (§II.B); classic Pastry assigns them randomly. This ablation
//! isolates how much of the placement locality comes from that single
//! design choice: the same v-Bundle placement walk runs over both rings.
//! With random ids the walk still clusters around the key's root server,
//! but numeric adjacency no longer implies rack adjacency, so the
//! spill-over order scatters. Checks that topology-aware ids span fewer
//! racks per customer and send a lower share across the bisection.
//!
//! Run: `cargo run --release -p vbundle-bench --bin ablation_id_assignment`

use std::sync::Arc;

use vbundle_bench::scenarios::{claim_locality, place_wave, Locality};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::{ClusterModel, Customer, PlacementPolicy};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::{overlay, NodeId};

const CLI: CliSpec = CliSpec::figure(
    "ablation_id_assignment",
    "Ablation: node-id assignment policy (5000 VMs / 3000 servers)",
);

fn main() {
    run_figure(&CLI, |_| figure());
}

/// Places 1000 VMs per customer with v-Bundle's walk over the ring
/// `ids` and claims the placement's locality under `p`.
fn run(fig: &mut Figure, p: &str, topo: &Arc<Topology>, ids: Vec<NodeId>) -> Locality {
    let mut model = ClusterModel::new(Arc::clone(topo), ids, topo.capacity().into());
    let (policy, customers) = (PlacementPolicy::VBundle, Customer::paper_five());
    let reservation = Bandwidth::from_mbps(100.0);
    place_wave(&mut model, policy, &customers, 0, 1000, reservation, 3);
    claim_locality(fig, p, &model)
}

fn figure() -> Figure {
    let topo = Arc::new(Topology::simulation_3000());
    let mut fig = Figure::default();
    let ids = overlay::topology_aware_ids(&topo);
    let aware = run(&mut fig, "topology_aware", &topo, ids);
    let ids = overlay::random_ids(topo.num_servers(), 99);
    let random = run(&mut fig, "random", &topo, ids);
    let (racks_a, racks_r) = (aware.racks, random.racks);
    let detail = format!("{racks_a:.1} < {racks_r:.1}");
    fig.check("fewer_racks_per_customer", racks_a < racks_r, detail);
    let (a, r) = (aware.bisection * 100.0, random.bisection * 100.0);
    let detail = format!("{a:.1} < {r:.1} %");
    fig.check("lower_bisection_share", a < r, detail);
    fig
}

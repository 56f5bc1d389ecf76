//! Figure 7 — VM/PM mappings when instantiating 5000 VMs on 3000 servers
//! for 5 customers with v-Bundle's topology-aware placement.
//!
//! The paper shows a scatter plot (rack × slot, colored by customer) in
//! which each customer's VMs form tight contiguous blocks. This binary
//! claims the quantitative reading — per-customer rack span, same-rack
//! pair fraction, mean pair distance, bisection traffic — checks that
//! every customer spans at most 3 racks, and writes the full map to
//! `results/fig07_map.csv` for plotting. (The policy order on this same
//! placement is Fig. 8's wave-1 check.)
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig07_placement`

use std::sync::Arc;

use vbundle_bench::scenarios::{claim_locality, five_customer_placement};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::PlacementPolicy;
use vbundle_dcn::{Bandwidth, Topology};

const CLI: CliSpec = CliSpec::figure(
    "fig07_placement",
    "Figure 7: v-Bundle placement of 5000 VMs / 3000 servers / 5 customers",
);

fn main() {
    run_figure(&CLI, |_| figure());
}

fn figure() -> Figure {
    let topo = Arc::new(Topology::simulation_3000());
    let (policy, reservation) = (PlacementPolicy::VBundle, Bandwidth::from_mbps(100.0));
    // 5 customers × 1000 = 5000 VMs
    let (model, customers) = five_customer_placement(&topo, policy, 1000, reservation, 7);
    let mut fig = Figure::default();
    let max = claim_locality(&mut fig, "vbundle", &model).max_racks;
    let detail = format!("widest customer spans {max} racks");
    fig.check("racks_per_customer_le_3", max <= 3, detail);
    // The scatter-plot data itself.
    let rows = model
        .placements()
        .iter()
        .map(|(vm, s)| {
            format!(
                "{},{},{},{}",
                topo.rack_of(*s).index(),
                topo.slot_of(*s),
                vm.customer.0,
                customers[vm.customer.0 as usize].name
            )
        })
        .collect();
    fig.table("fig07_map.csv", "rack,slot,customer_id,customer", rows);
    fig
}

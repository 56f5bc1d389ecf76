//! Figure 8 — after the first 5000 VMs, another 5000 are instantiated for
//! the same five customers: (a) v-Bundle keeps newcomers adjacent to their
//! group; (b) the greedy baseline scatters them across the datacenter.
//!
//! Claims per-customer locality after each wave for both policies (plus a
//! random baseline) and writes the three maps to `results/`. Then checks
//! the figure's claim after each wave: v-Bundle sends the smallest share
//! of chatting traffic across the bisection and has the shortest mean pair
//! distance and the most same-rack pairs, greedy comes second and random
//! last.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig08_growth`

use std::sync::Arc;

use vbundle_bench::scenarios::{claim_locality, five_customer_placement, place_wave, Locality};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::PlacementPolicy;
use vbundle_dcn::{Bandwidth, Topology};

const CLI: CliSpec = CliSpec::figure(
    "fig08_growth",
    "Figure 8: growth to 10000 VMs — v-Bundle (a) vs greedy (b) vs random",
);

fn main() {
    run_figure(&CLI, |_| figure());
}

/// Places both waves under `policy`, claims each wave's locality under
/// `<policy>.wave<k>` and adds the final map as the table `map`.
fn run_policy(fig: &mut Figure, policy: PlacementPolicy, map: &'static str) -> [Locality; 2] {
    let name = format!("{policy:?}").to_lowercase();
    let topo = Arc::new(Topology::simulation_3000());
    let reservation = Bandwidth::from_mbps(100.0);
    let (mut model, customers) = five_customer_placement(&topo, policy, 1000, reservation, 7);
    let wave1 = claim_locality(fig, &format!("{name}.wave1"), &model);
    // Second wave of 5000 for the same customers.
    place_wave(&mut model, policy, &customers, 5000, 1000, reservation, 8);
    let wave2 = claim_locality(fig, &format!("{name}.wave2"), &model);
    let rows = model
        .placements()
        .iter()
        .map(|(vm, s)| {
            format!(
                "{},{},{}",
                topo.rack_of(*s).index(),
                topo.slot_of(*s),
                vm.customer.0
            )
        })
        .collect();
    fig.table(map, "rack,slot,customer_id", rows);
    [wave1, wave2]
}

fn figure() -> Figure {
    let mut fig = Figure::default();
    let [vb, greedy, random] = [
        (PlacementPolicy::VBundle, "fig08a_vbundle_map.csv"),
        (PlacementPolicy::Greedy, "fig08b_greedy_map.csv"),
        (PlacementPolicy::Random, "fig08c_random_map.csv"),
    ]
    .map(|(policy, map)| run_policy(&mut fig, policy, map));
    // The orders the figure claims: v-Bundle first, greedy second, random last.
    for i in 0..2 {
        let waves = [&vb[i], &greedy[i], &random[i]];
        let mut order = |name: &str, [v, g, r]: [f64; 3], ascending: bool| {
            let (holds, sign) = if ascending {
                (v < g && g < r, "<")
            } else {
                (v > g && g > r, ">")
            };
            let detail = format!("v-Bundle {v:.4} {sign} greedy {g:.4} {sign} random {r:.4}");
            fig.check(format!("wave{}.{name}_order", i + 1), holds, detail);
        };
        order("bisection", waves.map(|w| w.bisection), true);
        order("pair_dist", waves.map(|w| w.dist), true);
        order("same_rack", waves.map(|w| w.same_rack), false);
    }
    fig
}

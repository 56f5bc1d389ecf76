//! Figure 8 — after the first 5000 VMs, another 5000 are instantiated for
//! the same five customers: (a) v-Bundle keeps newcomers adjacent to their
//! group; (b) the greedy baseline scatters them across the datacenter.
//!
//! Prints per-customer locality after each wave for both policies (plus a
//! random baseline) and writes both maps to `results/`. Then checks the
//! figure's claim after each wave: v-Bundle sends the smallest share of
//! chatting traffic across the bisection and has the shortest mean pair
//! distance and the most same-rack pairs, greedy comes second and random
//! last. Exits 1, naming each broken order on stderr, if one fails.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig08_growth`

use std::sync::Arc;

use vbundle_bench::scenarios::{five_customer_placement, place_wave};
use vbundle_bench::write_csv;
use vbundle_core::{metrics, ClusterModel, Customer, PlacementPolicy};
use vbundle_dcn::{Bandwidth, Topology};

/// One policy's locality after one wave, each a mean over customers
/// except the bisection fraction of all chatting traffic.
#[derive(Debug, Clone, Copy)]
struct Wave {
    same_rack: f64,
    dist: f64,
    bisection: f64,
}

fn report(topo: &Topology, model: &ClusterModel, customers: &[Customer], label: &str) -> Wave {
    let placements: Vec<_> = model
        .placements()
        .iter()
        .map(|(vm, s)| (vm.customer, *s))
        .collect();
    let locality = metrics::customer_locality(topo, &placements);
    println!("\n## {label}: {} VMs", placements.len());
    println!(
        "{:<10} {:>6} {:>12} {:>18} {:>16}",
        "customer", "vms", "racks_used", "same_rack_pairs", "mean_pair_dist"
    );
    let mut mean_same_rack = 0.0;
    let mut mean_dist = 0.0;
    for l in &locality {
        println!(
            "{:<10} {:>6} {:>12} {:>17.1}% {:>16.3}",
            customers[l.customer.0 as usize].name,
            l.vms,
            l.racks_spanned,
            l.same_rack_pair_fraction * 100.0,
            l.mean_pair_distance
        );
        mean_same_rack += l.same_rack_pair_fraction;
        mean_dist += l.mean_pair_distance;
    }
    let tm = metrics::chatting_traffic(topo, &placements, Bandwidth::from_mbps(50.0));
    let bisection = tm.bisection_report(topo).bisection_fraction();
    println!(
        "bisection fraction of chatting traffic: {:.2}%",
        bisection * 100.0
    );
    Wave {
        same_rack: mean_same_rack / locality.len() as f64,
        dist: mean_dist / locality.len() as f64,
        bisection,
    }
}

fn run_policy(policy: PlacementPolicy, map_name: &str) -> [Wave; 2] {
    let topo = Arc::new(Topology::simulation_3000());
    let (mut model, customers) =
        five_customer_placement(&topo, policy, 1000, Bandwidth::from_mbps(100.0), 7);
    let wave1 = report(&topo, &model, &customers, &format!("{policy:?}, wave 1"));
    // Second wave of 5000 for the same customers.
    place_wave(
        &mut model,
        policy,
        &customers,
        5000,
        1000,
        Bandwidth::from_mbps(100.0),
        8,
    );
    let wave2 = report(&topo, &model, &customers, &format!("{policy:?}, wave 2"));
    let rows: Vec<String> = model
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
    write_csv(map_name, "rack,slot,customer_id", &rows);
    [wave1, wave2]
}

/// The orders the figure claims, v-Bundle first, greedy second, random
/// last, as one line per broken order.
fn broken_orders(wave: usize, policies: [Wave; 3]) -> Vec<String> {
    let mut broken = Vec::new();
    let mut check = |name: &str, [v, g, r]: [f64; 3], ascending: bool| {
        let (holds, sign) = if ascending {
            (v < g && g < r, "<")
        } else {
            (v > g && g > r, ">")
        };
        if !holds {
            broken.push(format!(
                "wave {wave}: {name} v-Bundle {sign} greedy {sign} random fails: {v:.4}, {g:.4}, {r:.4}"
            ));
        }
    };
    check("bisection fraction", policies.map(|w| w.bisection), true);
    check("mean pair distance", policies.map(|w| w.dist), true);
    check("same-rack pairs", policies.map(|w| w.same_rack), false);
    broken
}

fn main() {
    println!("# Figure 8: growth to 10000 VMs — v-Bundle (a) vs greedy (b)");
    let vb = run_policy(PlacementPolicy::VBundle, "fig08a_vbundle_map.csv");
    let greedy = run_policy(PlacementPolicy::Greedy, "fig08b_greedy_map.csv");
    let random = run_policy(PlacementPolicy::Random, "fig08c_random_map.csv");

    println!("\n# Summary (mean over customers after wave 2)");
    println!(
        "{:<10} {:>18} {:>16}",
        "policy", "same_rack_pairs", "mean_pair_dist"
    );
    for (name, [_, w]) in [("v-Bundle", vb), ("greedy", greedy), ("random", random)] {
        println!(
            "{:<10} {:>17.1}% {:>16.3}",
            name,
            w.same_rack * 100.0,
            w.dist
        );
    }
    let broken: Vec<String> = (0..2)
        .flat_map(|i| broken_orders(i + 1, [vb[i], greedy[i], random[i]]))
        .collect();
    if !broken.is_empty() {
        for line in &broken {
            eprintln!("{line}");
        }
        std::process::exit(1);
    }
}

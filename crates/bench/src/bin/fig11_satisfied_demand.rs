//! Figure 11 — total resource demand vs. actually satisfied bandwidth
//! during rebalancing (3000 servers, 75 350 VMs).
//!
//! Before rebalancing, peaked VMs are clipped by their servers' NICs while
//! other servers idle — a visible gap between the demand and satisfied
//! series. v-Bundle's rounds of shedding close the gap until every VM's
//! demand is met ("it is only at this time that the customer paying for
//! some level of QoS actually receives it"). Checks that the gap never
//! grows from one minute to the next and ends within 1 % of demand.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig11_satisfied_demand`

use std::sync::Arc;

use vbundle_bench::scenarios::{paper_config, skewed_cluster};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_dcn::Topology;
use vbundle_sim::SimTime;
use vbundle_workloads::SkewedLoad;

const CLI: CliSpec = CliSpec::figure(
    "fig11_satisfied_demand",
    "Figure 11: demand vs satisfied bandwidth, 3000 servers / 75000 VMs",
);

fn main() {
    run_figure(&CLI, |_| figure());
}

fn figure() -> Figure {
    let topo = Arc::new(Topology::simulation_3000());
    // Hot servers above 100% demand create the clipped ("unfairly
    // treated") VMs of the paper's narrative.
    let load = SkewedLoad {
        hot_range: (0.9, 1.25),
        cold_range: (0.1, 0.5),
        seed: 11,
        ..SkewedLoad::default()
    };
    let (mut cluster, _) = skewed_cluster(topo, paper_config(0.183), &load, 25, 11);
    let mut rows = Vec::new();
    let mut gaps: Vec<f64> = Vec::new();
    let mut demand = 0.0;
    for minute in 15..=75u64 {
        cluster.run_until(SimTime::from_mins(minute));
        let totals = cluster.satisfaction();
        demand = totals.demand.as_mbps();
        let satisfied = totals.satisfied.as_mbps();
        rows.push(format!("{minute},{demand:.1},{satisfied:.1}"));
        gaps.push(demand - satisfied);
    }
    let mut fig = Figure::default();
    fig.table(
        "fig11_satisfied_demand.csv",
        "minute,demand_mbps,satisfied_mbps",
        rows,
    );
    fig.claim("migrations", cluster.total_migrations());
    let mut steps: Vec<String> = gaps.iter().map(|g| format!("{g:.0}")).collect();
    steps.dedup();
    let never_grows = gaps.windows(2).all(|w| w[1] <= w[0]);
    fig.check("gap_never_grows", never_grows, steps.join(" → ") + " Mbps");
    let last = gaps[gaps.len() - 1];
    let detail = format!("{last:.0} <= 1 % of {demand:.0} Mbps");
    fig.check("gap_ends_within_1pct", last <= 0.01 * demand, detail);
    fig
}

//! Figure 10 — utilization standard deviation over time during
//! rebalancing, for 30 servers and 3000 servers (the paper's 794 and
//! 75 350 VMs; 26 and 25 VMs per server here), threshold 0.183, updating
//! interval 5 min, rebalancing interval 25 min.
//!
//! The paper's point: both sizes reach a stable snapshot in similar time,
//! because shedding decisions are local and exchanges happen in parallel —
//! the cost does not grow with the number of servers. Checks that at both
//! sizes the SD at minute 75 is at most 0.8 × the SD at minute 15, and
//! that by minute 75 no server sits above mean + θ: the rounds found every
//! overloaded server a receiver.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig10_sd_timeline`

use std::sync::Arc;

use vbundle_bench::scenarios::{fabric, paper_config, skewed_cluster};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::metrics;
use vbundle_dcn::Topology;
use vbundle_sim::SimTime;
use vbundle_workloads::SkewedLoad;

const CLI: CliSpec = CliSpec::figure(
    "fig10_sd_timeline",
    "Figure 10: utilization SD vs time (threshold 0.183)",
);

fn main() {
    run_figure(&CLI, |_| figure());
}

/// Runs one size, claims its VMs, migrations, SD drop, the minutes at
/// which the SD fell and the state entering each round, checks the drop,
/// and returns the SD per minute.
fn run(fig: &mut Figure, topo: Arc<Topology>, vms_per_server: usize) -> Vec<f64> {
    let p = format!("servers_{}", topo.num_servers());
    let load = SkewedLoad {
        seed: 10,
        ..SkewedLoad::default()
    };
    let (mut cluster, _) = skewed_cluster(topo, paper_config(0.183), &load, vms_per_server, 10);
    // Sample the SD each minute from minute 15 to 75, as the paper plots.
    let mut series: Vec<f64> = Vec::new();
    let mut drops = Vec::new();
    let mut over_at_end = 0;
    for minute in 15..=75u64 {
        cluster.run_until(SimTime::from_mins(minute));
        let utils = cluster.utilizations();
        if minute % 25 == 0 {
            // Entering a round: the servers above mean + θ, and those whose
            // mean gate holds a suspect reading (conservative: no sheds).
            let line = metrics::mean(&utils) + 0.183;
            let over = utils.iter().filter(|&&u| u > line).count();
            fig.claim(format!("{p}.over_line_min{minute}"), over);
            over_at_end = over;
            let held = (0..utils.len()).filter(|&i| cluster.controller(i).conservative_mode());
            fig.claim(format!("{p}.gate_holding_min{minute}"), held.count());
        }
        let sd = metrics::std_dev(&utils);
        if series.last().is_some_and(|&last| sd < last) {
            drops.push(minute.to_string());
        }
        series.push(sd);
    }
    fig.claim(format!("{p}.vms"), cluster.num_vms());
    fig.claim(format!("{p}.migrations"), cluster.total_migrations());
    let (first, last) = (series[0], series[series.len() - 1]);
    fig.claim(format!("{p}.sd_drop"), format!("{:.4}", first - last));
    fig.claim(format!("{p}.drop_minutes"), drops.join(","));
    let detail = format!("minute 75 {last:.4} <= 0.8 × minute 15 {first:.4}");
    fig.check(format!("{p}.sd_falls_20pct"), last <= 0.8 * first, detail);
    let detail = format!("{over_at_end} servers above mean + 0.183 at minute 75");
    fig.check(
        format!("{p}.none_over_line_min75"),
        over_at_end == 0,
        detail,
    );
    series
}

fn figure() -> Figure {
    let mut fig = Figure::default();
    let small = run(&mut fig, fabric(1, 3, 10), 26); // 30 × 26 = 780 ≈ the paper's 794
    let large = run(&mut fig, Arc::new(Topology::simulation_3000()), 25); // 75 000 ≈ 75 350
    let rows = (15u64..)
        .zip(small.iter().zip(&large))
        .map(|(m, (s_small, s_large))| format!("{m},{s_small:.5},{s_large:.5}"))
        .collect();
    fig.table("fig10_sd_timeline.csv", "minute,sd_30,sd_3000", rows);
    fig
}

//! Figure 10 — utilization standard deviation over time during
//! rebalancing, for 30 servers and 3000 servers (the paper's 794 and
//! 75 350 VMs; 26 and 25 VMs per server here), threshold 0.183, updating
//! interval 5 min, rebalancing interval 25 min.
//!
//! The paper's point: both sizes reach a stable snapshot in similar time,
//! because shedding decisions are local and exchanges happen in parallel —
//! the cost does not grow with the number of servers.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig10_sd_timeline`

use std::sync::Arc;

use vbundle_bench::scenarios::skewed_cluster;
use vbundle_bench::write_csv;
use vbundle_core::{metrics, VBundleConfig};
use vbundle_dcn::Topology;
use vbundle_sim::{SimDuration, SimTime};
use vbundle_workloads::SkewedLoad;

fn run(servers: usize, vms_per_server: usize) -> Vec<(u64, f64)> {
    let topo = if servers == 3000 {
        Arc::new(Topology::simulation_3000())
    } else {
        let racks = servers.div_ceil(10) as u32;
        Arc::new(
            Topology::builder()
                .pods(1)
                .racks_per_pod(racks)
                .servers_per_rack(10)
                .build(),
        )
    };
    let config = VBundleConfig::default()
        .with_threshold(0.183)
        .with_update_interval(SimDuration::from_mins(5))
        .with_rebalance_interval(SimDuration::from_mins(25));
    let (mut cluster, _) = skewed_cluster(
        topo,
        config,
        &SkewedLoad {
            seed: 10,
            ..SkewedLoad::default()
        },
        vms_per_server,
        10,
    );
    // Sample the SD each minute from minute 15 to 75, as the paper plots.
    let mut series = Vec::new();
    for minute in 15..=75u64 {
        cluster.run_until(SimTime::from_mins(minute));
        let sd = metrics::std_dev(&cluster.utilizations());
        series.push((minute, sd));
    }
    println!(
        "  (servers={servers}: {} VMs, {} migrations)",
        cluster.num_vms(),
        cluster.total_migrations()
    );
    series
}

/// Every minute whose SD sample fell below the one before it, as
/// `(minute, SD before, SD after)`.
fn drops(series: &[(u64, f64)]) -> Vec<(u64, f64, f64)> {
    series
        .windows(2)
        .filter(|w| w[1].1 < w[0].1)
        .map(|w| (w[1].0, w[0].1, w[1].1))
        .collect()
}

fn main() {
    println!("# Figure 10: utilization SD vs time (threshold 0.183)");
    println!("running 30-server cluster (26 VMs per server)…");
    let small = run(30, 26); // 30 × 26 = 780 ≈ the paper's 794
    println!("running 3000-server cluster (25 VMs per server)…");
    let large = run(3000, 25); // 3000 × 25 = 75000 ≈ the paper's 75350

    println!(
        "\n{:>8} {:>14} {:>14}",
        "minute", "SD (30 srv)", "SD (3000 srv)"
    );
    let mut rows = Vec::new();
    for ((m, s_small), (_, s_large)) in small.iter().zip(&large) {
        println!("{:>8} {:>14.4} {:>14.4}", m, s_small, s_large);
        rows.push(format!("{m},{s_small:.5},{s_large:.5}"));
    }
    write_csv("fig10_sd_timeline.csv", "minute,sd_30,sd_3000", &rows);

    let drop_small = small.first().unwrap().1 - small.last().unwrap().1;
    let drop_large = large.first().unwrap().1 - large.last().unwrap().1;
    println!(
        "\nSD drop: 30 servers {:.4}, 3000 servers {:.4}",
        drop_small, drop_large
    );
    for (servers, series) in [(30, &small), (3000, &large)] {
        let found: Vec<String> = drops(series)
            .iter()
            .map(|(minute, before, after)| format!("minute {minute} {before:.4} → {after:.4}"))
            .collect();
        println!("SD drops, {servers} servers: {}", found.join(", "));
    }
}

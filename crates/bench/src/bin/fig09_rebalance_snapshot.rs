//! Figure 9 — before/after utilization snapshot of 3000 servers
//! (75 000 VMs) under v-Bundle rebalancing, for thresholds 0.3 and 0.1.
//!
//! The paper's mean utilization line is 0.6226; with θ=0.3 the servers
//! above ~90% experience relief, with θ=0.1 those above ~70% do, and a
//! smaller threshold involves more servers in exchanges. Checks that no
//! server ends above mean + θ, that the smaller θ ends with the lower SD
//! and that it migrates more.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig09_rebalance_snapshot`

use std::sync::Arc;

use vbundle_bench::scenarios::{paper_config, skewed_cluster};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::metrics;
use vbundle_dcn::Topology;
use vbundle_sim::SimTime;
use vbundle_workloads::SkewedLoad;

const CLI: CliSpec = CliSpec::figure(
    "fig09_rebalance_snapshot",
    "Figure 9: rebalancing snapshot, 3000 servers / 75000 VMs, θ = 0.3 and 0.1",
);

fn main() {
    run_figure(&CLI, |_| figure());
}

/// Claims the servers over 90/80/70 % utilization, the maximum and the
/// SD under the prefix `p`; returns `(max, SD)`.
fn claim_utils(fig: &mut Figure, p: &str, utils: &[f64]) -> (f64, f64) {
    for line in [90, 80, 70] {
        let over = utils.iter().filter(|&&u| u > line as f64 / 100.0).count();
        fig.claim(format!("{p}.servers_over_{line}pct"), over);
    }
    let max = utils.iter().cloned().fold(0.0, f64::max);
    let sd = metrics::std_dev(utils);
    fig.claim(format!("{p}.max_util"), format!("{max:.4}"));
    fig.claim(format!("{p}.sd"), format!("{sd:.4}"));
    (max, sd)
}

fn figure() -> Figure {
    let mut fig = Figure::default();
    let load = SkewedLoad::default();
    // Both thresholds start from this drawn load.
    let before = load.draw(3000);
    let mean = metrics::mean(&before);
    fig.claim("mean_util", format!("{mean:.4}"));
    let (_, before_sd) = claim_utils(&mut fig, "before", &before);
    let mut columns = vec![before];
    let mut after = Vec::new(); // (SD, migrations) per threshold
    for threshold in [0.3, 0.1] {
        let topo = Arc::new(Topology::simulation_3000());
        // 3000 × 25 = 75 000 VMs
        let (mut cluster, _) = skewed_cluster(topo, paper_config(threshold), &load, 25, 9);
        // Three rebalancing rounds are plenty for a stable snapshot.
        cluster.run_until(SimTime::from_mins(90));
        let p = format!("theta_{threshold}");
        let utils = cluster.utilizations();
        let (max, sd) = claim_utils(&mut fig, &p, &utils);
        let migrations = cluster.total_migrations();
        fig.claim(format!("{p}.migrations"), migrations);
        let line = mean + threshold + 0.001;
        let detail = format!("{max:.4} <= mean + θ + 0.001 = {line:.4}");
        fig.check(format!("{p}.max_le_mean_plus_theta"), max <= line, detail);
        after.push((sd, migrations));
        columns.push(utils);
    }
    let [(sd_03, mig_03), (sd_01, mig_01)] = [after[0], after[1]];
    let holds = sd_01 < sd_03 && sd_03 < before_sd;
    let detail = format!("{sd_01:.4} < {sd_03:.4} < {before_sd:.4}");
    fig.check("sd_theta_0.1_lt_theta_0.3_lt_before", holds, detail);
    let detail = format!("{mig_01} > {mig_03}");
    fig.check("theta_0.1_migrates_more", mig_01 > mig_03, detail);
    let [b, a03, a01] = [&columns[0], &columns[1], &columns[2]];
    let rows = (0..b.len())
        .map(|i| format!("{i},{:.4},{:.4},{:.4}", b[i], a03[i], a01[i]))
        .collect();
    let header = "server,before,after_theta_0.3,after_theta_0.1";
    fig.table("fig09_utilizations.csv", header, rows);
    fig
}

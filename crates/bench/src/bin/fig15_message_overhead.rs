//! Figure 15 — CDF of per-host messages (and KB) per round for 512 and
//! 1024 servers running the full v-Bundle stack.
//!
//! The paper reports that for 90% of the 1024 hosts the overhead stays
//! under ~140 messages / ~40 KB per round, split into overlay-maintenance
//! and v-Bundle traffic, and grows logarithmically with the host count.
//! Checks the p90 against those budgets at both sizes; the max (the
//! rendezvous root's O(N) fan-out) is claimed, not gated.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig15_message_overhead`
//!
//! Pass `--fault-rate=<p>` (e.g. `--fault-rate=0.05`) to additionally
//! measure the same round with every link dropping messages at rate `p`,
//! quantifying how much repair traffic faults add to the steady state.

use vbundle_bench::scenarios::{fabric, paper_config, skewed_cluster};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_chaos::{ChaosInjector, LinkFault, Scope, SharedNet};
use vbundle_sim::SimDuration;
use vbundle_workloads::{Cdf, SkewedLoad};

/// Measures one round of `servers` hosts with links dropping at
/// `fault_rate`, claims per-host messages and KB per round (p50, p90,
/// max), the maintenance share and the drops under the prefix `p`, and
/// returns the messages' and KB's CDFs over hosts.
fn run(fig: &mut Figure, p: &str, servers: usize, fault_rate: f64) -> [Cdf; 2] {
    let topo = fabric(4, (servers.div_ceil(16) as u32).div_ceil(4), 16);
    let load = SkewedLoad {
        seed: 15,
        ..SkewedLoad::default()
    };
    let (mut cluster, _) = skewed_cluster(topo.clone(), paper_config(0.183), &load, 10, 15);
    if fault_rate > 0.0 {
        let net = SharedNet::new(15);
        net.with(|st| {
            st.degradations
                .push((Scope::All, Scope::All, LinkFault::loss(fault_rate)));
        });
        cluster
            .engine
            .set_injector(Box::new(ChaosInjector::new(topo, net)));
    }
    // Warm up two rounds so trees and status are established, then
    // measure exactly one round.
    let round = SimDuration::from_mins(5);
    cluster.run_for(round);
    cluster.run_for(round);
    cluster.engine.snapshot_counters();
    let dropped_before = cluster.engine.fault_stats().dropped;
    cluster.run_for(round);
    let dropped = cluster.engine.fault_stats().dropped - dropped_before;
    let snap = cluster.engine.snapshot_counters();
    let hosts = &snap[..cluster.num_servers()];
    let msgs = Cdf::from_samples(hosts.iter().map(|c| c.total_msgs() as f64).collect());
    let kb = Cdf::from_samples(
        hosts
            .iter()
            .map(|c| c.total_bytes() as f64 / 1024.0)
            .collect(),
    );
    for (unit, cdf, digits) in [("msgs", &msgs, 0), ("kb", &kb, 1)] {
        let max = cdf.max().unwrap_or(0.0);
        for (stat, value) in [
            ("p50", cdf.quantile(0.5)),
            ("p90", cdf.quantile(0.9)),
            ("max", max),
        ] {
            fig.claim(format!("{p}.{unit}_{stat}"), format!("{value:.digits$}"));
        }
    }
    let maintenance: u64 = hosts.iter().map(|c| c.maintenance_msgs).sum();
    let total: u64 = hosts.iter().map(|c| c.total_msgs()).sum();
    let share = maintenance as f64 / total.max(1) as f64 * 100.0;
    fig.claim(format!("{p}.maintenance_pct"), format!("{share:.1}"));
    if fault_rate > 0.0 {
        fig.claim(format!("{p}.dropped"), dropped);
    }
    [msgs, kb]
}

const CLI: CliSpec = CliSpec {
    bin: "fig15_message_overhead",
    about: "Figure 15: per-host message overhead per round (5-minute rounds)",
    flags: &[],
    options: &[(
        "fault-rate",
        "fraction of sends hit by injected faults, in [0, 1)",
    )],
};

fn main() {
    run_figure(&CLI, |args| figure(args.value_or("fault-rate", 0.0)));
}

fn figure(fault_rate: f64) -> Figure {
    assert!(
        (0.0..1.0).contains(&fault_rate),
        "--fault-rate must be in [0, 1)"
    );
    let mut fig = Figure::default();
    let mut msgs = Vec::new();
    for n in [512, 1024] {
        let p = format!("servers_{n}");
        let [m, kb] = run(&mut fig, &p, n, 0.0);
        // The paper's budget for 90 % of the hosts.
        let (m90, kb90) = (m.quantile(0.9), kb.quantile(0.9));
        fig.check(
            format!("{p}.p90_le_140_msgs"),
            m90 <= 140.0,
            format!("{m90:.0}"),
        );
        fig.check(
            format!("{p}.p90_le_40_kb"),
            kb90 <= 40.0,
            format!("{kb90:.1}"),
        );
        if fault_rate > 0.0 {
            // Same measurement with lossy links: the delta is the repair
            // traffic (heartbeat timeouts, re-joins, probe churn) the
            // faults induce on top of the steady state.
            let p = format!("{p}.loss_{fault_rate}");
            let [lossy, _] = run(&mut fig, &p, n, fault_rate);
            let delta = (lossy.quantile(0.9) / m90.max(1.0) - 1.0) * 100.0;
            fig.claim(format!("{p}.p90_vs_fault_free_pct"), format!("{delta:+.1}"));
        }
        msgs.push(m);
    }
    let max_msgs = msgs.iter().filter_map(|m| m.max()).fold(0.0, f64::max) as usize;
    let step = (max_msgs / 25).max(1);
    let rows = (0..=max_msgs + step)
        .step_by(step)
        .map(|m| {
            let [c512, c1024] = [0, 1].map(|i| msgs[i].fraction_at_or_below(m as f64));
            format!("{m},{c512:.4},{c1024:.4}")
        })
        .collect();
    let header = "msgs_per_round,cdf_512,cdf_1024";
    fig.table("fig15_message_overhead.csv", header, rows);
    fig
}

//! `vbundle_sim` — a configurable scenario runner.
//!
//! Runs a skewed-load cluster of arbitrary size through v-Bundle
//! rebalancing and prints a before/after report. All of the paper's knobs
//! are exposed as flags, so parameter sweeps need no code changes.
//!
//! ```console
//! $ cargo run --release -p vbundle-bench --bin vbundle_sim -- \
//!       --servers=300 --vms-per-server=20 --threshold=0.2 --minutes=60
//! ```

use std::sync::Arc;

use vbundle_bench::scenarios::skewed_cluster;
use vbundle_bench::{BenchArgs, CliSpec};
use vbundle_core::{metrics, VBundleConfig};
use vbundle_dcn::Topology;
use vbundle_sim::{SimDuration, SimTime};
use vbundle_workloads::SkewedLoad;

#[derive(Debug)]
struct Args {
    servers: usize,
    vms_per_server: usize,
    threshold: f64,
    update_secs: u64,
    rebalance_secs: u64,
    minutes: u64,
    mean: f64,
    seed: u64,
    multi_metric: bool,
}

const CLI: CliSpec = CliSpec {
    bin: "vbundle_sim",
    about: "skewed-load cluster through v-Bundle rebalancing, before/after report",
    flags: &[(
        "multi-metric",
        "shuffle on CPU and memory as well as bandwidth",
    )],
    options: &[
        ("servers", "cluster size (default 300)"),
        ("vms-per-server", "VMs seeded per server (default 20)"),
        ("threshold", "shedder margin over the mean (default 0.183)"),
        ("update-secs", "update interval in seconds (default 300)"),
        (
            "rebalance-secs",
            "rebalancing interval in seconds (default 1500)",
        ),
        ("minutes", "simulated horizon in minutes (default 90)"),
        ("mean", "target mean utilization (default 0.6226)"),
        ("seed", "load and simulation seed (default 1)"),
    ],
};

fn main() {
    let cli = BenchArgs::parse_with(&CLI);
    let args = Args {
        servers: cli.value_or("servers", 300),
        vms_per_server: cli.value_or("vms-per-server", 20),
        threshold: cli.value_or("threshold", 0.183),
        update_secs: cli.value_or("update-secs", 300),
        rebalance_secs: cli.value_or("rebalance-secs", 1500),
        minutes: cli.value_or("minutes", 90),
        mean: cli.value_or("mean", 0.6226),
        seed: cli.value_or("seed", 1),
        multi_metric: cli.flag("multi-metric"),
    };
    if args.servers == 0 || args.vms_per_server == 0 {
        eprint!(
            "--servers and --vms-per-server must be positive\n\n{}",
            CLI.usage()
        );
        std::process::exit(2);
    }
    let racks = args.servers.div_ceil(20) as u32;
    let topo = Arc::new(
        Topology::builder()
            .pods(racks.div_ceil(10).max(1))
            .racks_per_pod(racks.div_ceil(racks.div_ceil(10).max(1)))
            .servers_per_rack(20)
            .build(),
    );
    let config = VBundleConfig::default()
        .with_threshold(args.threshold)
        .with_update_interval(SimDuration::from_secs(args.update_secs))
        .with_rebalance_interval(SimDuration::from_secs(args.rebalance_secs))
        .with_multi_metric(args.multi_metric);
    println!("# vbundle_sim: {args:?}");
    println!(
        "topology: {} servers / {} racks / {} pods",
        topo.num_servers(),
        topo.num_racks(),
        topo.num_pods()
    );

    let load = SkewedLoad {
        target_mean: Some(args.mean),
        seed: args.seed,
        ..SkewedLoad::default()
    };
    let (mut cluster, before) = skewed_cluster(
        Arc::clone(&topo),
        config,
        &load,
        args.vms_per_server,
        args.seed,
    );
    println!(
        "seeded {} VMs, initial mean utilization {:.4}",
        cluster.num_vms(),
        metrics::mean(&before)
    );

    cluster.run_until(SimTime::from_mins(args.minutes));
    let after = cluster.utilizations();
    let mean = metrics::mean(&after);
    println!();
    println!("{:<26} {:>10} {:>10}", "metric", "before", "after");
    println!(
        "{:<26} {:>10.4} {:>10.4}",
        "std deviation",
        metrics::std_dev(&before),
        metrics::std_dev(&after)
    );
    println!(
        "{:<26} {:>10.4} {:>10.4}",
        "max utilization",
        before.iter().cloned().fold(0.0, f64::max),
        after.iter().cloned().fold(0.0, f64::max)
    );
    let over = |xs: &[f64]| xs.iter().filter(|&&u| u > mean + args.threshold).count();
    println!(
        "{:<26} {:>10} {:>10}",
        "servers over mean+theta",
        over(&before),
        over(&after)
    );
    println!("{:<26} {:>21}", "migrations", cluster.total_migrations());
    let totals = cluster.satisfaction();
    println!(
        "{:<26} {:>14.0} Mbps ({:.2}% of demand)",
        "unsatisfied demand",
        totals.shortfall().as_mbps(),
        totals.shortfall().as_mbps() / totals.demand.as_mbps().max(1.0) * 100.0
    );
    println!();
    println!(
        "{}",
        vbundle_core::ClusterReport::capture(&cluster).render()
    );
}

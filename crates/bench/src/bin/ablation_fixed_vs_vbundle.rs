//! Ablation — the paper's core economic claim (Fig. 1): against the same
//! workload, how much of a customer's *purchased* bandwidth does each
//! offering actually deliver?
//!
//! Three offerings over an identical skewed-demand cluster:
//! - **EC2-fixed**: reservation == limit, no borrowing, no migration (the
//!   de-facto standard the paper argues against);
//! - **rate/ceil only**: VMs may borrow spare NIC bandwidth on their own
//!   host (Linux TC semantics) but never move;
//! - **v-Bundle**: rate/ceil plus decentralized shuffling.
//!
//! EC2-fixed strands everything above each VM's fixed size; rate/ceil
//! recovers same-host slack; v-Bundle also moves VMs to idle hosts. Checks
//! that the delivered share orders EC2-fixed < rate/ceil < v-Bundle.
//!
//! Run: `cargo run --release -p vbundle-bench --bin ablation_fixed_vs_vbundle`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_bench::scenarios::fabric;
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::{Cluster, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VmRecord};
use vbundle_dcn::Bandwidth;
use vbundle_sim::{SimDuration, SimTime};

const CLI: CliSpec = CliSpec::figure(
    "ablation_fixed_vs_vbundle",
    "Ablation: offering model vs delivered bandwidth (same workload)",
);

#[derive(Clone, Copy, PartialEq)]
enum Offering {
    Ec2Fixed,
    RateCeil,
    VBundle,
}

/// Runs one offering, claims its demand, satisfied bandwidth, delivered
/// share and migrations under `p`, and returns the delivered share.
fn run(fig: &mut Figure, p: &str, offering: Offering) -> f64 {
    let topo = fabric(2, 4, 8);
    let nic = topo.capacity().bandwidth;
    let config = VBundleConfig::default()
        .with_threshold(0.15)
        .with_update_interval(SimDuration::from_secs(30))
        .with_rebalance_interval(SimDuration::from_secs(90));
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(config)
        .seed(55)
        .build();

    // Every server hosts 8 VMs of 125 Mbps purchased size. Demands are
    // skewed: a quarter of the VMs (clustered on the first servers to
    // create hot spots) peak at 3× their purchase, the rest idle at 20%.
    let mut rng = StdRng::seed_from_u64(55);
    let purchased = Bandwidth::from_mbps(125.0);
    for server in 0..topo.num_servers() {
        for slot in 0..8 {
            let id = cluster.alloc_vm_id();
            let spec = match offering {
                Offering::Ec2Fixed => ResourceSpec::bandwidth(purchased, purchased),
                // Borrow up to the NIC; reservation 0 keeps VMs movable
                // under v-Bundle.
                _ => ResourceSpec::bandwidth(Bandwidth::ZERO, nic),
            };
            let mut vm = VmRecord::new(id, CustomerId(0), spec);
            let hot = server < topo.num_servers() / 4 && slot < 6;
            let peak = if hot { 2.0..3.0 } else { 0.1..0.3 };
            vm.demand = ResourceVector::bandwidth_only(purchased * rng.gen_range(peak));
            cluster.install_vm(topo.server(server), vm);
        }
    }
    cluster.reindex();
    // Fixed / rate-ceil offerings never migrate: freeze them by never
    // letting the shuffle run (measure immediately); v-Bundle runs.
    if offering == Offering::VBundle {
        cluster.run_until(SimTime::from_mins(30));
    }
    let totals = cluster.satisfaction();
    let (demand, satisfied) = (totals.demand.as_mbps(), totals.satisfied.as_mbps());
    let delivered = satisfied / demand * 100.0;
    fig.claim(format!("{p}.demand_mbps"), format!("{demand:.0}"));
    fig.claim(format!("{p}.satisfied_mbps"), format!("{satisfied:.0}"));
    fig.claim(format!("{p}.delivered_pct"), format!("{delivered:.1}"));
    fig.claim(format!("{p}.migrations"), cluster.total_migrations());
    delivered
}

fn main() {
    run_figure(&CLI, |_| figure());
}

fn figure() -> Figure {
    let mut fig = Figure::default();
    let fixed = run(&mut fig, "ec2_fixed", Offering::Ec2Fixed);
    let rate_ceil = run(&mut fig, "rate_ceil", Offering::RateCeil);
    let vbundle = run(&mut fig, "vbundle", Offering::VBundle);
    let detail = format!("{fixed:.1} < {rate_ceil:.1} < {vbundle:.1} %");
    let holds = fixed < rate_ceil && rate_ceil < vbundle;
    fig.check("delivered_fixed_lt_rate_ceil_lt_vbundle", holds, detail);
    fig
}

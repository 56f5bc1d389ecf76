//! Ablation — the receiver's post-accept utilization check (§III.C
//! step 3), which the paper includes to "avoid possible oscillation for
//! back-and-forth shedding/receiving".
//!
//! With the guard off, receivers accept anything that fits their
//! reservations; heavily loaded VMs pile onto the same cold servers,
//! which then become shedders themselves — visible as extra migrations
//! and residual overload. Checks that the guard ends with the lower SD
//! and fewer migrations.
//!
//! Run: `cargo run --release -p vbundle-bench --bin ablation_oscillation_guard`

use vbundle_bench::scenarios::{fabric, skewed_cluster};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::{metrics, VBundleConfig};
use vbundle_sim::{SimDuration, SimTime};
use vbundle_workloads::SkewedLoad;

const CLI: CliSpec = CliSpec::figure(
    "ablation_oscillation_guard",
    "Ablation: receiver oscillation guard (128 servers, 60 min)",
);

/// Runs with the guard on or off, claims the final SD, maximum
/// utilization and migrations, and returns the SD and the migrations.
fn run(fig: &mut Figure, guard: bool) -> (f64, u64) {
    let config = VBundleConfig::default()
        .with_threshold(0.15)
        .with_update_interval(SimDuration::from_secs(30))
        .with_rebalance_interval(SimDuration::from_secs(90))
        .with_oscillation_guard(guard);
    let load = SkewedLoad {
        hot_range: (0.85, 1.2),
        cold_range: (0.05, 0.4),
        target_mean: Some(0.5),
        seed: 33,
        ..SkewedLoad::default()
    };
    let (mut cluster, _) = skewed_cluster(fabric(2, 8, 8), config, &load, 20, 33);
    cluster.run_until(SimTime::from_mins(60));
    let utils = cluster.utilizations();
    let (sd, migrations) = (metrics::std_dev(&utils), cluster.total_migrations());
    let max = utils.iter().cloned().fold(0.0, f64::max);
    let p = if guard { "guard_on" } else { "guard_off" };
    fig.claim(format!("{p}.final_sd"), format!("{sd:.4}"));
    fig.claim(format!("{p}.max_util"), format!("{max:.4}"));
    fig.claim(format!("{p}.migrations"), migrations);
    (sd, migrations)
}

fn main() {
    run_figure(&CLI, |_| figure());
}

fn figure() -> Figure {
    let mut fig = Figure::default();
    let (sd_on, mig_on) = run(&mut fig, true);
    let (sd_off, mig_off) = run(&mut fig, false);
    let detail = format!("{sd_on:.4} < {sd_off:.4}");
    fig.check("lower_final_sd", sd_on < sd_off, detail);
    let detail = format!("{mig_on} < {mig_off}");
    fig.check("fewer_migrations", mig_on < mig_off, detail);
    fig
}

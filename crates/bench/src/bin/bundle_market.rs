//! Bundle market — the paper's economic pitch (§I, §III) measured head to
//! head: a customer buys one group bundle, demand skews onto a few hot
//! VMs, and we compare the Fig. 11 satisfied-demand metric with
//! **static per-VM caps** (each VM pinned to its purchased slice,
//! `bundle_trading` off) against **group trading** (starved VMs borrow
//! entitlement from idle siblings through the Scribe-anycast
//! marketplace).
//!
//! The sweep drives the hot VMs' demand through increasingly skewed
//! points and checks trading **strictly** improves total satisfied
//! demand at every point where the static run leaves demand on the
//! table — the claim that makes group resource offerings worth buying.
//!
//! Run: `cargo run --release -p vbundle-bench --bin bundle_market`
//!
//! `--smoke` gates the most-skewed point, both modes, against
//! `results/bundle_market_smoke.golden`.

use std::fmt::Write as _;
use std::sync::Arc;

use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_core::{Cluster, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VmRecord};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{SimDuration, SimTime};

const SEED: u64 = 20120618; // ICDCS'12

/// One measured cell of the sweep.
struct Cell {
    hot_demand: f64,
    demand: f64,
    satisfied: f64,
    leases: usize,
    migrations: u64,
}

fn topology() -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    )
}

/// One customer owning a bundle spread evenly over every server —
/// 100 Mbps reserved per VM — with demand skewed onto the two hot VMs
/// (servers 0 and 1) while the rest idle at 5 Mbps. Load shuffling is
/// disabled (huge rebalance interval) so the comparison isolates the
/// entitlement mechanism from migration.
fn run_cell(hot_demand: f64, trading: bool) -> Cell {
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut vbundle = VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(5))
        .with_rebalance_interval(SimDuration::from_secs(100_000));
    if trading {
        vbundle = vbundle
            .with_bundle_trading(true)
            .with_lease_duration(SimDuration::from_secs(120));
    }
    let mut cluster = Cluster::builder(topology())
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(vbundle)
        .seed(SEED)
        .build();
    for server in 0..cluster.num_servers() {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(0),
            ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(100.0)),
        );
        let mbps = if server < 2 { hot_demand } else { 5.0 };
        vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(mbps));
        cluster.install_vm(cluster.topo.server(server), vm);
    }
    cluster.run_until(SimTime::from_secs(180));
    let totals = cluster.satisfaction();
    Cell {
        hot_demand,
        demand: totals.demand.as_mbps(),
        satisfied: totals.satisfied.as_mbps(),
        leases: cluster.active_leases(),
        migrations: cluster.total_migrations(),
    }
}

fn report(cell: &Cell, trading: bool) -> String {
    let mut out = String::new();
    let mode = if trading { "trading" } else { "static" };
    let _ = writeln!(out, "hot demand {} Mbps, {mode}:", cell.hot_demand);
    let _ = writeln!(out, "  total demand: {:.3} Mbps", cell.demand);
    let _ = writeln!(out, "  satisfied: {:.3} Mbps", cell.satisfied);
    let _ = writeln!(out, "  active leases: {}", cell.leases);
    let _ = write!(out, "  migrations: {}", cell.migrations);
    out
}

const CLI: CliSpec = CliSpec {
    bin: "bundle_market",
    about: "bundle-trading marketplace vs static caps under demand skew",
    flags: &[],
    options: &[],
};

fn main() {
    run_figure(&CLI, |args| {
        let mut fig = Figure::default();
        if args.smoke() {
            let static_caps = report(&run_cell(240.0, false), false);
            let trading = report(&run_cell(240.0, true), true);
            fig.golden(
                "bundle_market_smoke.golden",
                format!("{static_caps}\n{trading}\n"),
            );
        } else {
            sweep(&mut fig);
        }
        fig
    });
}

fn sweep(fig: &mut Figure) {
    let mut rows = Vec::new();
    let (mut demand_differs, mut migrated, mut no_gain) = (Vec::new(), Vec::new(), Vec::new());
    for hot_demand in [120.0, 160.0, 200.0, 240.0] {
        let capped = run_cell(hot_demand, false);
        let traded = run_cell(hot_demand, true);
        if (capped.demand - traded.demand).abs() >= 1e-6 {
            demand_differs.push(format!("hot {hot_demand}"));
        }
        if capped.migrations + traded.migrations > 0 {
            migrated.push(format!("hot {hot_demand}"));
        }
        let gain = traded.satisfied - capped.satisfied;
        // Where static caps leave demand unsatisfied, the marketplace must
        // strictly recover some of it from the idle siblings.
        if capped.satisfied + 1e-6 < capped.demand && (gain <= 1.0 || traded.leases == 0) {
            no_gain.push(format!(
                "hot {hot_demand}: gain {gain:.3} Mbps, {} leases",
                traded.leases
            ));
        }
        rows.push(format!(
            "{hot_demand},{:.3},{:.3},{:.3},{},{:.3}",
            capped.demand, capped.satisfied, traded.satisfied, traded.leases, gain
        ));
    }
    fig.table(
        "bundle_market.csv",
        "hot_demand_mbps,total_demand_mbps,satisfied_static_mbps,satisfied_trading_mbps,active_leases,gain_mbps",
        rows,
    );
    fig.check_none(
        "same_demand",
        "both modes offer the same demand",
        &demand_differs,
    );
    fig.check_none("no_migration", "shuffling is off in both modes", &migrated);
    let rule = "trading gains > 1 Mbps through a live lease wherever static caps bind";
    fig.check_none("trading_gains", rule, &no_gain);
}

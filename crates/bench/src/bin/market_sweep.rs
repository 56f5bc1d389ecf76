//! Market sweep — the spot market's economic contract measured end to
//! end: demand skews onto one tenant's hot VMs while a second tenant
//! idles, and we compare the Fig. 11 satisfied-demand metric with
//! **intra-bundle trading only** (the free marketplace, `spot_market`
//! off) against the **priced spot market** across a price-elasticity
//! axis (the buyer's `max_price` ceiling).
//!
//! Four contracts are asserted in-process at every cell:
//!
//! 1. where intra-bundle trading leaves demand on the table and the
//!    price ceiling clears the ask, cross-tenant trading **strictly**
//!    improves aggregate satisfied demand;
//! 2. where the ceiling is below the ask, the market changes *nothing*
//!    — rejected quotes leave satisfied demand byte-equal to intra-only;
//! 3. the double-entry billing books reconcile (every spend paired),
//!    per-tenant isolation caps hold, and entitlement stays conserved —
//!    re-checked through a lender crash in a dedicated chaos cell;
//! 4. a borrow request costs a bounded number of anycast steps, granted
//!    or not: with nothing left to lend the trees' subtree summaries say
//!    so, and the walk gives up where it stands instead of asking every
//!    member (`STEPS_PER_ASK_CEILING`).
//!
//! Results go to `results/market_sweep.csv` and `BENCH_market.json`.
//!
//! Run: `cargo run --release -p vbundle-bench --bin market_sweep`
//!
//! `--smoke` runs the most-skewed point twice, asserts byte-identical
//! reports and diffs against `results/market_smoke.golden`
//! (`--smoke --bless` rewrites it).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use vbundle_bench::{golden_gate, json_rows, write_bench_json, write_csv, BenchArgs, CliSpec};
use vbundle_chaos::{
    check_billing_conservation, check_entitlement_conservation, check_isolation_caps, ChaosDriver,
    FaultPlan,
};
use vbundle_core::{
    reconcile, Cluster, CustomerId, ResourceSpec, ResourceVector, SpotMarketConfig, VBundleConfig,
    VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

const SEED: u64 = 20120618; // ICDCS'12
const HORIZON: u64 = 180;
/// Most anycast steps a borrow request may cost on average over a cell.
/// The trade trees here are at most two levels deep, so a walk that finds
/// a lender or learns from the summaries that there is none takes one to
/// three steps; one that asks all four members of a tree takes eight.
const STEPS_PER_ASK_CEILING: f64 = 3.0;

/// One measured cell of the sweep.
struct Cell {
    hot_demand: f64,
    demand: f64,
    satisfied: f64,
    priced_leases: usize,
    /// Anycast steps per borrow request, intra-bundle and spot together.
    steps_per_ask: f64,
    spot_trades: u64,
    rejected_price: u64,
    spend: f64,
    revenue: f64,
    fees: f64,
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

/// Two tenants interleaved across 8 servers (spot markets are
/// pod-local, so each pod must host both): tenant 0 on even servers
/// (100 Mbps reserved each) with demand skewed onto servers 0 and 2 and
/// thin spare on its pod-1 siblings (80 Mbps used of 100), so
/// intra-bundle trading recovers a little but cannot close the gap.
/// Tenant 1 idles on the odd servers — capacity only the priced spot
/// market can move across the tenant boundary. Load shuffling is
/// disabled so the comparison isolates the entitlement economy from
/// migration.
fn build(hot_demand: f64, market: Option<SpotMarketConfig>) -> Cluster {
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut vbundle = VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(5))
        .with_rebalance_interval(SimDuration::from_secs(100_000))
        .with_bundle_trading(true)
        .with_lease_duration(SimDuration::from_secs(120));
    if let Some(mc) = market {
        vbundle = vbundle.with_spot_market(mc);
    }
    let mut cluster = Cluster::builder(topology())
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(vbundle)
        .seed(SEED)
        .build();
    for server in 0..cluster.num_servers() {
        let id = cluster.alloc_vm_id();
        let customer = CustomerId(u32::from(server % 2 == 1));
        let mut vm = VmRecord::new(
            id,
            customer,
            ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(100.0)),
        );
        let mbps = match server {
            0 | 2 => hot_demand,
            4 | 6 => 80.0,
            _ => 5.0,
        };
        vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(mbps));
        cluster.install_vm(cluster.topo.server(server), vm);
    }
    cluster.reindex();
    cluster
}

/// Conservation gate shared by every cell: billing books reconcile,
/// isolation caps hold, entitlement is conserved.
fn assert_conserved(cluster: &Cluster, what: &str) {
    let billing = check_billing_conservation(&cluster.engine);
    assert!(billing.is_empty(), "{what}: billing broken: {billing:#?}");
    let caps = check_isolation_caps(&cluster.engine, SpotMarketConfig::default().isolation_cap);
    assert!(caps.is_empty(), "{what}: isolation cap broken: {caps:#?}");
    let entitle = check_entitlement_conservation(&cluster.engine);
    assert!(
        entitle.is_empty(),
        "{what}: entitlement broken: {entitle:#?}"
    );
}

fn measure(cluster: &Cluster, hot_demand: f64) -> Cell {
    let now = cluster.now();
    let totals = cluster.satisfaction();
    let mut priced: BTreeSet<u64> = BTreeSet::new();
    let mut spot_trades = 0;
    let mut rejected_price = 0;
    let mut asks = 0;
    for i in 0..cluster.num_servers() {
        let ctrl = cluster.controller(i);
        asks += ctrl.trade_book().stats.requests_sent.get() + ctrl.market_stats.spot_asks.get();
        spot_trades += ctrl.market_stats.spot_trades.get();
        rejected_price += ctrl.market_stats.spot_rejected_price.get();
        priced.extend(
            ctrl.trade_book()
                .halves()
                .filter(|h| h.lease.is_priced() && h.lease.live_at(now))
                .map(|h| h.lease.id.0),
        );
    }
    let rec = reconcile((0..cluster.num_servers()).map(|i| cluster.controller(i).billing()));
    assert!(rec.balanced(), "{:#?}", rec.violations);
    let steps = cluster
        .engine
        .metrics()
        .counter_value("scribe/anycast_steps");
    Cell {
        steps_per_ask: steps.unwrap_or(0) as f64 / asks.max(1) as f64,
        hot_demand,
        demand: totals.demand.as_mbps(),
        satisfied: totals.satisfied.as_mbps(),
        priced_leases: priced.len(),
        spot_trades,
        rejected_price,
        spend: rec.total_spend,
        revenue: rec.total_revenue,
        fees: rec.total_fees,
    }
}

fn run_cell(hot_demand: f64, market: Option<SpotMarketConfig>) -> Cell {
    let mut cluster = build(hot_demand, market);
    cluster.run_until(SimTime::from_secs(HORIZON));
    assert_conserved(&cluster, "sweep cell");
    let cell = measure(&cluster, hot_demand);
    assert!(
        cell.steps_per_ask <= STEPS_PER_ASK_CEILING,
        "hot {hot_demand}: {:.2} anycast steps per borrow request — walks are knocking on doors \
         the subtree summaries should have closed",
        cell.steps_per_ask
    );
    cell
}

/// The chaos cell: trade at full skew, crash a seller server mid-lease,
/// let the repair protocols settle, and re-assert every conservation
/// invariant — a lender crash must never orphan a tenant's payment,
/// breach an isolation cap or mint phantom entitlement.
fn run_chaos_cell(hot_demand: f64) -> (Cell, u64) {
    let t = SimTime::from_secs;
    let mut cluster = build(hot_demand, Some(SpotMarketConfig::default()));
    cluster.run_until(t(90));
    let pre = measure(&cluster, hot_demand);
    assert!(pre.spot_trades > 0, "chaos cell: nothing traded to crash");

    let plan = FaultPlan::new(SEED).crash(t(100), ActorId::new(1));
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, t(HORIZON + 40));
    assert_conserved(&cluster, "chaos cell (post-crash)");
    let reversals = (0..cluster.num_servers())
        .map(|i| cluster.controller(i).market_stats.billing_reversals.get())
        .sum();
    (measure(&cluster, hot_demand), reversals)
}

fn report(cell: &Cell, mode: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "hot demand {} Mbps, {mode}:", cell.hot_demand);
    let _ = writeln!(out, "  total demand: {:.3} Mbps", cell.demand);
    let _ = writeln!(out, "  satisfied: {:.3} Mbps", cell.satisfied);
    let _ = writeln!(out, "  priced leases: {}", cell.priced_leases);
    let _ = writeln!(out, "  spot trades: {}", cell.spot_trades);
    let _ = writeln!(
        out,
        "  billed: spend {:.3} revenue {:.3} fees {:.3}",
        cell.spend, cell.revenue, cell.fees
    );
    let _ = write!(out, "  quotes over ceiling: {}", cell.rejected_price);
    out
}

const CLI: CliSpec = CliSpec {
    bin: "market_sweep",
    about: "priced cross-tenant spot market vs intra-bundle trading under demand skew",
    flags: &[],
    options: &[],
};

fn main() {
    let args = BenchArgs::parse_with(&CLI);
    if args.smoke() {
        // Fast deterministic gate: the most-skewed point, both modes, run
        // twice and byte-compared, then diffed against the golden.
        let render = || {
            let intra = report(&run_cell(320.0, None), "intra-only");
            let spot = report(
                &run_cell(320.0, Some(SpotMarketConfig::default())),
                "spot market",
            );
            format!("{intra}\n{spot}\n")
        };
        let first = render();
        let second = render();
        assert_eq!(first, second, "market smoke is not deterministic");
        golden_gate("market", "market_smoke.golden", &first, args.bless());
        return;
    }

    println!("# Spot market: intra-bundle trading vs priced cross-tenant market");
    println!(
        "\n{:>10} {:>10} {:>12} {:>16} {:>16} {:>8} {:>11} {:>10}",
        "hot Mbps",
        "max price",
        "demand",
        "satisfied(intra)",
        "satisfied(spot)",
        "trades",
        "gain Mbps",
        "steps/ask"
    );
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for hot_demand in [200.0, 260.0, 320.0] {
        let intra = run_cell(hot_demand, None);
        for max_price in [1.05, 4.0] {
            let mc = SpotMarketConfig {
                max_price,
                ..SpotMarketConfig::default()
            };
            let spot = run_cell(hot_demand, Some(mc));
            assert!(
                (intra.demand - spot.demand).abs() < 1e-6,
                "modes disagree on offered demand"
            );
            let gain = spot.satisfied - intra.satisfied;
            if max_price >= 2.0 {
                // The ceiling clears the ask: wherever intra-bundle trading
                // left demand unsatisfied, the priced market must strictly
                // recover some of it from the other tenant — and the
                // recovery must be billed, not free.
                if intra.satisfied + 1e-6 < intra.demand {
                    assert!(
                        gain > 1.0,
                        "hot {hot_demand}: spot market did not improve satisfied demand \
                         ({:.3} vs {:.3})",
                        spot.satisfied,
                        intra.satisfied
                    );
                    assert!(spot.priced_leases > 0, "gain without a live priced lease");
                    assert!(spot.spend > 0.0 && spot.fees > 0.0, "gain went unbilled");
                }
            } else {
                // The ceiling is below every possible quote: the market
                // must reject and change nothing.
                assert!(spot.rejected_price > 0, "no quote hit the cheap ceiling");
                assert!(
                    (spot.satisfied - intra.satisfied).abs() < 1e-6,
                    "rejected quotes still moved satisfied demand"
                );
                assert!(spot.spend == 0.0, "rejected quotes were billed");
            }
            println!(
                "{:>10} {:>10} {:>12.1} {:>16.1} {:>16.1} {:>8} {:>11.1} {:>10.2}",
                hot_demand,
                max_price,
                intra.demand,
                intra.satisfied,
                spot.satisfied,
                spot.spot_trades,
                gain,
                spot.steps_per_ask
            );
            rows.push(format!(
                "{hot_demand},{max_price},{:.3},{:.3},{:.3},{},{},{},{:.3},{:.3},{:.3},{:.3}",
                intra.demand,
                intra.satisfied,
                spot.satisfied,
                spot.priced_leases,
                spot.spot_trades,
                spot.rejected_price,
                spot.spend,
                spot.revenue,
                spot.fees,
                spot.steps_per_ask
            ));
            cells.push(format!(
                "{{\"hot_demand\": {hot_demand}, \"max_price\": {max_price}, \
                 \"satisfied_intra\": {:.3}, \"satisfied_spot\": {:.3}, \
                 \"gain\": {gain:.3}, \"trades\": {}, \"spend\": {:.3}, \"fees\": {:.3}}}",
                intra.satisfied, spot.satisfied, spot.spot_trades, spot.spend, spot.fees
            ));
        }
    }
    write_csv(
        "market_sweep.csv",
        "hot_demand_mbps,max_price,total_demand_mbps,satisfied_intra_mbps,satisfied_spot_mbps,\
         priced_leases,spot_trades,rejected_price,spend,revenue,fees,anycast_steps_per_ask",
        &rows,
    );

    println!("\n## chaos cell: seller crash mid-lease");
    let (after, reversals) = run_chaos_cell(320.0);
    println!(
        "billing conserved through the crash: spend {:.3} revenue {:.3} fees {:.3} \
         (reversals {reversals})",
        after.spend, after.revenue, after.fees
    );

    let chaos = format!(
        "{{\"spend\": {:.3}, \"revenue\": {:.3}, \"fees\": {:.3}, \
         \"reversals\": {reversals}, \"conserved\": true}}",
        after.spend, after.revenue, after.fees
    );
    write_bench_json(
        "market",
        "market_sweep",
        &[
            ("seed", SEED.to_string()),
            ("cells", json_rows(&cells)),
            ("chaos", chaos),
        ],
    );
    println!(
        "\npriced cross-tenant trading strictly improved satisfied demand at every cleared cell"
    );
}

//! Market sweep — the spot market's economic contract measured end to
//! end: demand skews onto one tenant's hot VMs while a second tenant
//! idles, and we compare the Fig. 11 satisfied-demand metric with
//! **intra-bundle trading only** (the free marketplace, `spot_market`
//! off) against the **priced spot market** across a price-elasticity
//! axis (the buyer's `max_price` ceiling).
//!
//! Four contracts are checked at every cell:
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
//! `--smoke` gates the most-skewed point, intra-only and spot, against
//! `results/market_smoke.golden`; its cells owe contracts 3 and 4 too.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use vbundle_bench::{json_rows, run_figure, write_bench_json, CliSpec, Figure};
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
    label: String,
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
    /// Broken conservation invariants and unbalanced books, described.
    broken: Vec<String>,
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

/// Conservation invariants shared by every cell: billing books
/// reconcile, isolation caps hold, entitlement is conserved.
fn conservation(cluster: &Cluster, label: &str) -> Vec<String> {
    let caps = SpotMarketConfig::default().isolation_cap;
    let mut broken = check_billing_conservation(&cluster.engine);
    broken.extend(check_isolation_caps(&cluster.engine, caps));
    broken.extend(check_entitlement_conservation(&cluster.engine));
    broken.iter().map(|v| format!("{label}: {v}")).collect()
}

fn measure(cluster: &Cluster, hot_demand: f64, label: String) -> Cell {
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
    let mut broken = Vec::new();
    if !rec.balanced() {
        broken.push(format!("{label}: books unbalanced {:?}", rec.violations));
    }
    let steps = cluster
        .engine
        .metrics()
        .counter_value("scribe/anycast_steps");
    Cell {
        steps_per_ask: steps.unwrap_or(0) as f64 / asks.max(1) as f64,
        label,
        hot_demand,
        demand: totals.demand.as_mbps(),
        satisfied: totals.satisfied.as_mbps(),
        priced_leases: priced.len(),
        spot_trades,
        rejected_price,
        spend: rec.total_spend,
        revenue: rec.total_revenue,
        fees: rec.total_fees,
        broken,
    }
}

fn run_cell(hot_demand: f64, market: Option<SpotMarketConfig>) -> Cell {
    let label = match &market {
        Some(mc) => format!("hot {hot_demand} spot max_price {}", mc.max_price),
        None => format!("hot {hot_demand} intra"),
    };
    let mut cluster = build(hot_demand, market);
    cluster.run_until(SimTime::from_secs(HORIZON));
    let broken = conservation(&cluster, &label);
    let mut cell = measure(&cluster, hot_demand, label);
    cell.broken.extend(broken);
    cell
}

/// The chaos cell: trade at full skew, crash a seller server mid-lease,
/// let the repair protocols settle, and re-check every conservation
/// invariant — a lender crash must never orphan a tenant's payment,
/// breach an isolation cap or mint phantom entitlement. Returns the
/// cells before the crash and after the repair, and the reversals.
fn run_chaos_cell(hot_demand: f64) -> (Cell, Cell, u64) {
    let t = SimTime::from_secs;
    let mut cluster = build(hot_demand, Some(SpotMarketConfig::default()));
    cluster.run_until(t(90));
    let pre = measure(&cluster, hot_demand, "chaos cell (pre-crash)".into());

    let plan = FaultPlan::new(SEED).crash(t(100), ActorId::new(1));
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, t(HORIZON + 40));
    let label = "chaos cell (post-crash)";
    let broken = conservation(&cluster, label);
    let reversals = (0..cluster.num_servers())
        .map(|i| cluster.controller(i).market_stats.billing_reversals.get())
        .sum();
    let mut post = measure(&cluster, hot_demand, label.into());
    post.broken.extend(broken);
    (pre, post, reversals)
}

/// Contracts 3 and 4, which every cell owes, smoke included.
fn check_cells(fig: &mut Figure, cells: &[&Cell]) {
    let broken: Vec<String> = cells.iter().flat_map(|c| c.broken.clone()).collect();
    let rule = "billing reconciles, isolation caps hold, entitlement is conserved";
    fig.check_none("conserved", rule, &broken);
    let steep: Vec<String> = cells
        .iter()
        .filter(|c| c.steps_per_ask > STEPS_PER_ASK_CEILING)
        .map(|c| format!("{}: {:.2}", c.label, c.steps_per_ask))
        .collect();
    let rule = format!("<= {STEPS_PER_ASK_CEILING} anycast steps per borrow request");
    fig.check_none("steps_per_ask", rule, &steep);
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
    run_figure(&CLI, |args| {
        let mut fig = Figure::default();
        if args.smoke() {
            let intra = run_cell(320.0, None);
            let spot = run_cell(320.0, Some(SpotMarketConfig::default()));
            check_cells(&mut fig, &[&intra, &spot]);
            let text = format!(
                "{}\n{}\n",
                report(&intra, "intra-only"),
                report(&spot, "spot market")
            );
            fig.golden("market_smoke.golden", text);
        } else {
            sweep(&mut fig);
        }
        fig
    });
}

fn sweep(fig: &mut Figure) {
    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    let mut cells = Vec::new();
    let (mut demand_differs, mut no_gain, mut cheap_moved) = (Vec::new(), Vec::new(), Vec::new());
    for hot_demand in [200.0, 260.0, 320.0] {
        let intra = run_cell(hot_demand, None);
        for max_price in [1.05, 4.0] {
            let mc = SpotMarketConfig {
                max_price,
                ..SpotMarketConfig::default()
            };
            let spot = run_cell(hot_demand, Some(mc));
            if (intra.demand - spot.demand).abs() >= 1e-6 {
                demand_differs.push(spot.label.clone());
            }
            let gain = spot.satisfied - intra.satisfied;
            if max_price >= 2.0 {
                // The ceiling clears the ask: wherever intra-bundle trading
                // left demand unsatisfied, the priced market must strictly
                // recover some of it from the other tenant — and the
                // recovery must be billed, not free.
                let billed = spot.priced_leases > 0 && spot.spend > 0.0 && spot.fees > 0.0;
                if intra.satisfied + 1e-6 < intra.demand && (gain <= 1.0 || !billed) {
                    no_gain.push(format!(
                        "{}: gain {gain:.3} Mbps, {} priced leases, spend {:.3}, fees {:.3}",
                        spot.label, spot.priced_leases, spot.spend, spot.fees
                    ));
                }
            } else if spot.rejected_price == 0 || gain.abs() >= 1e-6 || spot.spend != 0.0 {
                // The ceiling is below every possible quote: the market
                // must reject and change nothing.
                cheap_moved.push(format!(
                    "{}: {} rejected, gain {gain:.3} Mbps, spend {:.3}",
                    spot.label, spot.rejected_price, spot.spend
                ));
            }
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
            json_cells.push(format!(
                "{{\"hot_demand\": {hot_demand}, \"max_price\": {max_price}, \
                 \"satisfied_intra\": {:.3}, \"satisfied_spot\": {:.3}, \
                 \"gain\": {gain:.3}, \"trades\": {}, \"spend\": {:.3}, \"fees\": {:.3}}}",
                intra.satisfied, spot.satisfied, spot.spot_trades, spot.spend, spot.fees
            ));
            cells.push(spot);
        }
        cells.push(intra);
    }
    fig.table(
        "market_sweep.csv",
        "hot_demand_mbps,max_price,total_demand_mbps,satisfied_intra_mbps,satisfied_spot_mbps,\
         priced_leases,spot_trades,rejected_price,spend,revenue,fees,anycast_steps_per_ask",
        rows,
    );

    // The chaos cell: a seller crash mid-lease.
    let (pre, after, reversals) = run_chaos_cell(320.0);
    fig.claim("chaos_spend", format!("{:.3}", after.spend));
    fig.claim("chaos_revenue", format!("{:.3}", after.revenue));
    fig.claim("chaos_fees", format!("{:.3}", after.fees));
    fig.claim("chaos_reversals", reversals);
    let chaos = format!(
        "{{\"spend\": {:.3}, \"revenue\": {:.3}, \"fees\": {:.3}, \
         \"reversals\": {reversals}, \"conserved\": {}}}",
        after.spend,
        after.revenue,
        after.fees,
        after.broken.is_empty()
    );
    write_bench_json(
        "market",
        "market_sweep",
        &[
            ("seed", SEED.to_string()),
            ("cells", json_rows(&json_cells)),
            ("chaos", chaos),
        ],
    );

    fig.check_none(
        "same_demand",
        "both modes offer the same demand",
        &demand_differs,
    );
    let rule =
        "a cleared ceiling gains > 1 Mbps, billed, wherever intra-bundle trading falls short";
    fig.check_none("spot_gains", rule, &no_gain);
    let rule = "a ceiling below the ask is rejected and moves nothing";
    fig.check_none("cheap_ceiling_inert", rule, &cheap_moved);
    let detail = format!("{} spot trades before the seller crash", pre.spot_trades);
    fig.check("chaos_cell_traded", pre.spot_trades > 0, detail);
    cells.extend([pre, after]);
    check_cells(fig, &cells.iter().collect::<Vec<_>>());
}

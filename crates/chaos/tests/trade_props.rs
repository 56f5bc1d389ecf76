//! Chaos tests for the bundle-trading ledger: a lender crash mid-lease
//! must revert the borrower's credit, keep the cluster-wide entitlement
//! conserved, and shrink the borrower's shaper ceiling back to its static
//! contract — all byte-identically reproducible per seed.

use std::sync::Arc;

use vbundle_chaos::{check_capacity, check_entitlement_conservation, ChaosDriver, FaultPlan};
use vbundle_core::{
    Cluster, CustomerId, ResourceSpec, ResourceVector, SpotMarketConfig, VBundleConfig, VmId,
    VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

fn bw(mbps: f64) -> Bandwidth {
    Bandwidth::from_mbps(mbps)
}

/// Four servers, one customer: a starved fixed-size VM on server 0 and a
/// fat idle sibling on server 1 (the only possible lender), with fast
/// protocol timers so leases commit and failures are detected quickly.
fn build_trading_cluster(seed: u64) -> (Cluster, VmId) {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(topo)
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_bundle_trading(true)
                .with_lease_duration(SimDuration::from_secs(300)),
        )
        .seed(seed)
        .build();
    let hot = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        hot,
        CustomerId(0),
        ResourceSpec::bandwidth(bw(100.0), bw(100.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(bw(300.0));
    cluster.install_vm(cluster.topo.server(0), vm);
    let idle = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        idle,
        CustomerId(0),
        ResourceSpec::bandwidth(bw(200.0), bw(200.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(bw(2.0));
    cluster.install_vm(cluster.topo.server(1), vm);
    // Unrelated background tenants so the overlay is not trivially tiny.
    for server in 2..cluster.num_servers() {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(1),
            ResourceSpec::bandwidth(bw(50.0), bw(50.0)),
        );
        vm.demand = ResourceVector::bandwidth_only(bw(20.0));
        cluster.install_vm(cluster.topo.server(server), vm);
    }
    cluster.reindex();
    (cluster, hot)
}

/// Deterministic digest of everything trading touched: lease books,
/// counters and the hot VM's final grant. Two replays of the same seeded
/// scenario must agree byte for byte.
fn trade_digest(cluster: &Cluster, hot: VmId) -> String {
    let mut s = String::new();
    for i in 0..cluster.num_servers() {
        let ctrl = cluster.controller(i);
        let book = ctrl.trade_book();
        s.push_str(&format!("server {i}: stats {:?}\n", book.stats));
        for h in book.halves() {
            s.push_str(&format!(
                "  lease {} {:?} {}->{} {:.3} Mbps until {}\n",
                h.lease.id,
                h.role,
                h.lease.lender,
                h.lease.borrower,
                h.lease.amount.bandwidth.as_mbps(),
                h.lease.expires
            ));
        }
        for (vm, a) in ctrl.vms().iter().zip(ctrl.allocations()) {
            if vm.id == hot {
                s.push_str(&format!("  hot grant {:.6}\n", a.granted.as_mbps()));
            }
        }
    }
    s
}

fn run_lender_crash(seed: u64) -> (String, f64, f64) {
    let t = SimTime::from_secs;
    let (mut cluster, hot) = build_trading_cluster(seed);

    // Let the marketplace commit leases.
    cluster.run_until(t(90));
    assert!(cluster.active_leases() > 0, "no lease committed by t=90");
    let granted_leased = cluster
        .controller(0)
        .allocations()
        .iter()
        .zip(cluster.controller(0).vms())
        .find(|(_, vm)| vm.id == hot)
        .map(|(a, _)| a.granted.as_mbps())
        .unwrap();
    assert!(
        granted_leased > 100.0 + 1.0,
        "lease did not raise the hot VM's grant: {granted_leased}"
    );
    assert!(
        check_entitlement_conservation(&cluster.engine).is_empty(),
        "conservation broken before any fault"
    );

    // Crash the only lender mid-lease.
    let plan = FaultPlan::new(seed).crash(t(100), ActorId::new(1));
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);

    // The borrower notices via failed renewals / failure detection and
    // reverts its credit well before the 300 s lease would expire.
    driver.run_until(&mut cluster.engine, t(180));
    let open = check_entitlement_conservation(&cluster.engine);
    assert!(
        open.is_empty(),
        "conservation broken after crash: {open:#?}"
    );
    assert!(check_capacity(&cluster.engine).is_empty());
    assert_eq!(
        cluster.active_leases(),
        0,
        "borrower kept credit from a dead lender"
    );
    let granted_after = cluster
        .controller(0)
        .allocations()
        .iter()
        .zip(cluster.controller(0).vms())
        .find(|(_, vm)| vm.id == hot)
        .map(|(a, _)| a.granted.as_mbps())
        .unwrap();
    assert!(
        granted_after <= 100.0 + 1e-6,
        "shaper ceiling did not shrink back: {granted_after}"
    );
    (trade_digest(&cluster, hot), granted_leased, granted_after)
}

#[test]
fn lender_crash_reverts_lease_and_conserves() {
    let (_, leased, after) = run_lender_crash(20120618);
    assert!(leased > after);
}

#[test]
fn lender_crash_replays_byte_identically() {
    let (a, _, _) = run_lender_crash(42);
    let (b, _, _) = run_lender_crash(42);
    assert_eq!(a, b, "same seed must replay byte-identically");
}

/// The `market_churn` benchmark's cluster (400 servers in two pods, four
/// 100 Mbps VMs per server over eight tenants, trading and the spot market
/// on, 120 s leases, one crash-restart and one crash) with its hot set —
/// one VM in nine at 260 Mbps, the rest at 20 — moving by `stride` VMs
/// every 30 s slice. Returns what `check_capacity` reports after the
/// first slice that over-commits a server, if any does.
fn hot_set_walk_overcommit(seed: u64, stride: u64) -> Option<Vec<String>> {
    const VMS_PER_SERVER: u64 = 4;
    const TENANTS: u64 = 8;
    const HOT_EVERY: u64 = 9;
    const SLICE_SECS: u64 = 30;
    const HORIZON_SECS: u64 = 210;
    let demand_of = |vm: u64, rotation: u64| {
        let hot = (vm + rotation).is_multiple_of(HOT_EVERY);
        ResourceVector::bandwidth_only(bw(if hot { 260.0 } else { 20.0 }))
    };
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(10)
            .servers_per_rack(20)
            .build(),
    );
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(100_000))
                .with_bundle_trading(true)
                .with_lease_duration(SimDuration::from_secs(120))
                .with_spot_market(SpotMarketConfig::default()),
        )
        .seed(seed)
        .build();
    let servers = cluster.num_servers();
    let vms = servers as u64 * VMS_PER_SERVER;
    let mut rotation = seed % HOT_EVERY;
    for v in 0..vms {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId((v % TENANTS) as u32),
            ResourceSpec::bandwidth(bw(100.0), bw(100.0)),
        );
        vm.demand = demand_of(v, rotation);
        cluster.install_vm(topo.server((v / VMS_PER_SERVER) as usize), vm);
    }
    cluster.reindex();
    let t = SimTime::from_secs;
    let plan = FaultPlan::new(seed)
        .crash(t(100), ActorId::new(1))
        .crash(t(105), ActorId::new(servers as u32 / 2))
        .restart(t(150), ActorId::new(1));
    let mut driver = ChaosDriver::install(&mut cluster.engine, Arc::clone(&topo), plan);
    for end in (SLICE_SECS..=HORIZON_SECS).step_by(SLICE_SECS as usize) {
        driver.run_until(&mut cluster.engine, t(end));
        let open = check_capacity(&cluster.engine);
        if !open.is_empty() {
            return Some(open);
        }
        let moved = rotation + stride;
        for v in 0..vms {
            let (was, is) = (demand_of(v, rotation), demand_of(v, moved));
            if was != is {
                cluster.set_vm_demand(VmId(v), is);
            }
        }
        rotation = moved;
    }
    None
}

/// Borrow grants may fill only what a server has not promised: a lender's
/// lent-out reservation comes back at the lease's expiry, so it is no
/// headroom. With the hot set moving ±1 VM per slice all four VMs of a
/// server turn hot within one lease lifetime, and their VMs hold lender and
/// borrower halves at once. When a borrow grant could fill a lender's
/// lent-out reservation, seed 209 at stride 1 left server 268 promising
/// 1 009 Mbps on its 1 000 Mbps NIC.
#[test]
fn hot_set_walk_never_overcommits_a_nic() {
    for (seed, stride) in [(209, 1), (209, 8)] {
        let open = hot_set_walk_overcommit(seed, stride);
        assert_eq!(open, None, "seed {seed}, stride {stride}");
    }
}

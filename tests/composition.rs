//! Composition pin: every optional controller subsystem on at once —
//! intra-bundle trading, the spot market, survivable admission, failover
//! and the mean gate — on one seeded 48-server cluster that also shuffles,
//! loses a server (crash + restart) and loses a rack for good. No server
//! may promise more than its capacity at any 5 s step of the fault run,
//! and entitlement and billing must be conserved at its end. The outcome
//! digest below pins how the modules interact; each re-pin states why.

use std::fmt::Write as _;
use std::sync::Arc;

use vbundle::chaos::{
    check_billing_conservation, check_capacity, check_entitlement_conservation, ChaosDriver,
    FaultPlan,
};
use vbundle::core::{
    reconcile, Cluster, Customer, CustomerId, FailoverConfig, ResourceSpec, ResourceVector,
    SpotMarketConfig, SurvivabilityConfig, VBundleConfig, VmRecord,
};
use vbundle::dcn::{Bandwidth, Topology};
use vbundle::pastry::PastryConfig;
use vbundle::scribe::ScribeConfig;
use vbundle::sim::{ActorId, SimDuration, SimTime};

const SEED: u64 = 1607;
const TENANTS: u32 = 6;
const VMS_PER_TENANT: u32 = 8;

fn bw(mbps: f64) -> ResourceVector {
    ResourceVector::bandwidth_only(Bandwidth::from_mbps(mbps))
}

fn all_on() -> VBundleConfig {
    VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(5))
        .with_rebalance_interval(SimDuration::from_secs(20))
        .with_threshold(0.15)
        .with_bundle_trading(true)
        .with_lease_duration(SimDuration::from_secs(60))
        .with_spot_market(SpotMarketConfig::default())
        .with_survivability(SurvivabilityConfig::default())
        .with_failover(FailoverConfig {
            probe_interval: SimDuration::from_secs(5),
        })
}

/// FNV-1a over the outcome text: short enough to pin in source, and the
/// text itself is printed on a mismatch.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything the pin covers, as text: VM → host map, live lease ids per
/// server, billing totals, per-server backup carve, events processed.
fn outcome(cluster: &Cluster) -> String {
    let mut out = String::new();
    let mut placements = cluster.placements();
    placements.sort();
    for (vm, customer, server) in placements {
        writeln!(out, "vm {} c{} @{}", vm.0, customer.0, server.index()).unwrap();
    }
    let now = cluster.now();
    for s in 0..cluster.num_servers() {
        let c = cluster.controller(s);
        let leases: Vec<String> = c
            .trade_book()
            .halves()
            .filter(|h| h.lease.live_at(now))
            .map(|h| format!("{:#x}/{:?}", h.lease.id.0, h.role))
            .collect();
        if !leases.is_empty() {
            writeln!(out, "leases @{s}: {}", leases.join(" ")).unwrap();
        }
        let backup = c.backup_reserved().bandwidth.as_mbps();
        if backup > 0.0 {
            writeln!(out, "backup @{s}: {backup}").unwrap();
        }
    }
    let books = reconcile((0..cluster.num_servers()).map(|s| cluster.controller(s).billing()));
    writeln!(
        out,
        "billing spend {} revenue {} fees {}",
        books.total_spend, books.total_revenue, books.total_fees
    )
    .unwrap();
    writeln!(out, "events {}", cluster.engine.events_processed()).unwrap();
    out
}

#[test]
fn all_subsystems_compose_to_the_pinned_outcome() {
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(3)
            .servers_per_rack(8)
            .build(),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .pastry(PastryConfig {
            heartbeat: Some(SimDuration::from_secs(1)),
            maintenance: Some(SimDuration::from_secs(10)),
            ..PastryConfig::default()
        })
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(all_on())
        .seed(SEED)
        .build();
    cluster.run_until(SimTime::from_secs(20));

    // Protocol boots: the survivable walk spreads each tenant over racks
    // and pods, commits to the root's ledger and carves failover-armed
    // backups cross-domain.
    let spec = ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(150.0));
    for t in 0..TENANTS {
        let customer = Customer::new(CustomerId(t), format!("tenant-{t}"));
        for v in 0..VMS_PER_TENANT {
            let entry = ((t * VMS_PER_TENANT + v) * 5 % 48) as usize;
            cluster
                .boot_and_run(entry, &customer, spec, bw(10.0), SimDuration::from_secs(30))
                .expect("the fabric has room for every boot");
        }
    }
    // Two overloaded servers (offline-seeded, another tenant) give the
    // shuffle something to shed.
    for &server in &[5usize, 29] {
        for _ in 0..5 {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(TENANTS),
                ResourceSpec::bandwidth(Bandwidth::from_mbps(20.0), Bandwidth::from_mbps(200.0)),
            );
            vm.demand = bw(170.0);
            cluster.install_vm(topo.server(server), vm);
        }
    }
    cluster.reindex();
    // Every third protocol-booted VM runs hot, far past its limit: its own
    // bundle lends first, the pod's spot market sells the rest.
    let booted: Vec<_> = cluster
        .placements()
        .into_iter()
        .filter(|(_, c, _)| c.0 < TENANTS)
        .map(|(vm, _, _)| vm)
        .collect();
    for vm in booted.iter().filter(|vm| vm.0 % 3 == 0) {
        assert!(cluster.set_vm_demand(*vm, bw(420.0)));
    }

    // One server crashes and comes back; later a whole rack dies for good
    // and its VMs must be re-materialized by their backup sites.
    let lost_rack = topo
        .rack_of(cluster.host_of(booted[0]).expect("indexed"))
        .index();
    let t = SimTime::from_secs;
    let start = cluster.now().as_micros() / 1_000_000 + 1;
    let bystander = (0..48)
        .find(|&s| topo.rack_of(topo.server(s)).index() != lost_rack && s != 5 && s != 29)
        .expect("a server outside the lost rack");
    let plan = FaultPlan::new(SEED)
        .crash(t(start + 40), ActorId::new(bystander as u32))
        .restart(t(start + 75), ActorId::new(bystander as u32))
        .crash_rack(t(start + 100), lost_rack);
    let mut driver = ChaosDriver::install(&mut cluster.engine, Arc::clone(&topo), plan);
    // No server may promise more than its NIC at any step of the run.
    for step in (start + 5..=start + 260).step_by(5) {
        driver.run_until(&mut cluster.engine, t(step));
        let open = check_capacity(&cluster.engine);
        assert!(open.is_empty(), "over-committed at t={step}: {open:#?}");
    }
    cluster.reindex();
    let open = check_entitlement_conservation(&cluster.engine);
    assert!(open.is_empty(), "entitlement: {open:#?}");
    let open = check_billing_conservation(&cluster.engine);
    assert!(open.is_empty(), "billing: {open:#?}");

    // The scenario only pins something if every subsystem actually ran.
    let sum = |pick: &dyn Fn(usize) -> u64| (0..48).map(pick).sum::<u64>();
    let stats = |s: usize| &cluster.controller(s).stats;
    assert!(sum(&|s| stats(s).migrations_in) > 0, "no shuffle");
    assert!(sum(&|s| stats(s).backups_reserved) > 0, "no backup carve");
    assert!(
        sum(&|s| stats(s).counters.fo_domains_declared.get()) > 0,
        "no rack declared"
    );
    assert!(
        sum(&|s| stats(s).counters.fo_rematerialized.get()) > 0,
        "no failover"
    );
    assert!(
        sum(&|s| stats(s).counters.fo_fences_sent.get()) > 0,
        "no fence"
    );
    let trades = |s: usize| &cluster.controller(s).trade_book().stats;
    assert!(sum(&|s| trades(s).leases_borrowed.get()) > 0, "no lease");
    assert!(sum(&|s| trades(s).leases_expired.get()) > 0, "no expiry");
    let market = |s: usize| &cluster.controller(s).market_stats;
    assert!(sum(&|s| market(s).spot_trades.get()) > 0, "no spot trade");

    let text = outcome(&cluster);
    assert_eq!(
        fnv1a(&text),
        PINNED,
        "composition outcome drifted; full outcome:\n{text}"
    );
}

/// Captured at the parent of the controller split (commit 2aec2c0) as
/// 190_833_941_401_599_415; re-pinned once, at PR 19, which removed the
/// leaf-set heartbeat acks: of the outcome's 89 lines only the last
/// differs, `events 455715` → `events 261032` (EXPERIMENTS.md "Leaf-set
/// liveness diet"), as 17_308_792_559_038_248_496; and once at PR 24,
/// whose pruned anycast re-times grants: a borrow request no longer
/// wanders through subtrees with nothing to lend, so it is granted a few
/// milliseconds earlier and concurrent requests match other lenders. Of
/// the 89 lines, three placements move (VMs 22 and 32 end on server 41
/// instead of 24, VM 28 is hosted again), the six lease lines name other
/// leases of the same servers (44 halves instead of 38), billing follows
/// (spend 350 584 → 425 865) and `events 261032` → `events 260240`
/// (EXPERIMENTS.md "Capacity-annotated anycast"), as
/// 5_886_843_030_100_455_241. That outcome was over-committed: with the
/// capacity check above, 18 of its 52 steps found a server (22, 23, 30 or
/// 31) promising up to 1 129.8 Mbps on a 1 000 Mbps NIC, because a
/// lender's lent-out reservation counted as free room. Re-pinned once
/// more when admission began to count it as taken: boots and grants on
/// lending servers now go elsewhere. Of the 90 outcome lines, 31 change
/// and one is added — 23 placements move and VM 20 is hosted again, the
/// six lease lines name other leases (104 halves instead of 44, on
/// servers 15, 24, 29, 30, 31 and 42), billing follows (spend 425 865 →
/// 368 991) and `events 260240` → `events 261041` (EXPERIMENTS.md
/// "One admission ledger"), as 7_713_550_161_776_764_621. Re-pinned once
/// more when lease ids became op ids, whose sequence half every boot, load
/// query and lease of the lender shares: of the 90 lines only the six
/// lease lines change, each naming the same halves on the same servers in
/// the same order under a higher sequence number (server 24's first lease
/// `0x1800000038` → `0x1800000051`); placements, billing and `events
/// 261041` are unmoved.
const PINNED: u64 = 15_537_208_762_483_812_235;

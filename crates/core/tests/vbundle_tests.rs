//! End-to-end tests of the v-Bundle system: the DHT boot protocol, the
//! decentralized shuffling loop, oscillation guards and failure handling.

use std::fmt::Write as _;
use std::sync::Arc;

use proptest::prelude::*;
use vbundle_core::{
    metrics, survivable_domain_cap, Cluster, Customer, CustomerId, ResourceSpec, ResourceVector,
    ServerStatus, SurvivabilityConfig, VBundleConfig, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_sim::{ActorId, SimDuration, SimTime};

fn fast_config() -> VBundleConfig {
    VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(10))
        .with_rebalance_interval(SimDuration::from_secs(40))
}

fn bw(mbps: f64) -> Bandwidth {
    Bandwidth::from_mbps(mbps)
}

/// Seeds `cluster` with an imbalanced load: `hot` servers at
/// `hot_demand` Mbps demand and the rest at `cold_demand`, using one
/// 0-reservation VM per 100 Mbps of demand so VMs are individually
/// movable.
fn seed_imbalance(cluster: &mut Cluster, hot: usize, hot_demand: f64, cold_demand: f64) {
    let n = cluster.num_servers();
    for server in 0..n {
        let target = if server < hot {
            hot_demand
        } else {
            cold_demand
        };
        let mut remaining = target;
        while remaining > 1e-9 {
            let chunk = remaining.min(100.0);
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(0),
                ResourceSpec::bandwidth(bw(0.0), bw(1000.0)),
            );
            vm.demand = ResourceVector::bandwidth_only(bw(chunk));
            let sid = cluster.topo.server(server);
            cluster.install_vm(sid, vm);
            remaining -= chunk;
        }
    }
    cluster.reindex();
}

#[test]
fn boot_protocol_places_all_and_clusters_customers() {
    let topo = Arc::new(Topology::paper_testbed());
    let mut cluster = Cluster::builder(topo).seed(3).build();
    let customers = Customer::paper_five();
    // 15 servers × 1 Gbps; 40 VMs × 100 Mbps reservation fits easily.
    let spec = ResourceSpec::bandwidth(bw(100.0), bw(200.0));
    for i in 0..40 {
        let customer = &customers[i % customers.len()];
        let host = cluster.boot_and_run(
            i % 15,
            customer,
            spec,
            ResourceVector::ZERO,
            SimDuration::from_secs(60),
        );
        assert!(host.is_some(), "VM {i} failed to place");
    }
    assert_eq!(cluster.num_vms(), 40);

    // Locality: each customer's 8 VMs span few racks (4 racks total).
    let placements: Vec<_> = cluster
        .placements()
        .into_iter()
        .map(|(_, c, s)| (c, s))
        .collect();
    let locality = metrics::customer_locality(&cluster.topo, &placements);
    for l in &locality {
        assert_eq!(l.vms, 8);
        assert!(
            l.racks_spanned <= 2,
            "{}: spans {} racks",
            l.customer,
            l.racks_spanned
        );
    }
}

#[test]
fn boot_rejected_when_cluster_full() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let mut cluster = Cluster::builder(topo).seed(5).build();
    let c = Customer::new(CustomerId(0), "greedy-tenant");
    // 4 servers × 1 Gbps: 8 × 500 Mbps reservations fill everything.
    let spec = ResourceSpec::bandwidth(bw(500.0), bw(1000.0));
    for i in 0..8 {
        assert!(
            cluster
                .boot_and_run(
                    0,
                    &c,
                    spec,
                    ResourceVector::ZERO,
                    SimDuration::from_secs(60)
                )
                .is_some(),
            "VM {i} should fit"
        );
    }
    let host = cluster.boot_and_run(
        0,
        &c,
        spec,
        ResourceVector::ZERO,
        SimDuration::from_secs(60),
    );
    assert!(host.is_none(), "9th 500 Mbps VM cannot fit anywhere");
    assert_eq!(cluster.num_vms(), 8);
}

#[test]
fn rebalancing_relieves_hot_servers() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(fast_config().with_threshold(0.15))
        .seed(11)
        .build();
    // 4 hot servers at 95%, 12 cold at 30%: mean ≈ 46%.
    seed_imbalance(&mut cluster, 4, 950.0, 300.0);
    let before = cluster.utilizations();
    let sd_before = metrics::std_dev(&before);
    assert!(before.iter().any(|&u| u > 0.9));

    cluster.run_until(SimTime::from_mins(20));

    let after = cluster.utilizations();
    let sd_after = metrics::std_dev(&after);
    let mean = metrics::mean(&after);
    assert!(
        cluster.total_migrations() > 0,
        "no migrations happened at all"
    );
    assert!(
        sd_after < sd_before,
        "SD did not improve: {sd_before} -> {sd_after}"
    );
    for (i, &u) in after.iter().enumerate() {
        assert!(
            u <= mean + 0.15 + 0.101,
            "server {i} still hot: {u} (mean {mean})"
        );
    }
    // Conservation: no VM lost or duplicated.
    assert_eq!(cluster.num_vms(), (4 * 10) + (12 * 3));
}

/// Wire input is never trusted: a `LoadAccept` that echoes a live query id
/// but names a VM other than the one that query offered is counted into
/// `invalid_payloads` and dropped — it neither panics the shedder nor
/// migrates a VM the receiver holds no bandwidth for — and the query stays
/// open for the honest accept.
#[test]
fn mismatching_load_accept_is_counted_and_dropped() {
    use vbundle_core::CtrlMsg;
    use vbundle_scribe::ScribeClient;
    use vbundle_sim::ActorId;

    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(fast_config().with_threshold(0.15))
        .seed(11)
        .build();
    seed_imbalance(&mut cluster, 4, 950.0, 300.0);
    let vms_before = cluster.num_vms();
    // Stop at the event in which the first shedder issues its queries.
    let shedder = loop {
        assert!(cluster.engine.step(), "nobody ever shed");
        let issued = |s: &usize| cluster.controller(*s).stats.queries_sent > 0;
        if let Some(s) = (0..cluster.num_servers()).find(issued) {
            break s;
        }
    };
    // Query 0 offered the shedder's largest VM (its first); the forged
    // accept names its last.
    let hosted = cluster.controller(shedder).vms().len();
    let wrong = cluster.controller(shedder).vms()[hosted - 1].id;
    let receiver = cluster.handles[15];
    let forged = CtrlMsg::LoadAccept {
        query: 0,
        vm: wrong,
        receiver,
    };
    cluster
        .engine
        .call(ActorId::new(shedder as u32), |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| c.on_direct(sctx, receiver, forged));
            });
        });
    let c = cluster.controller(shedder);
    assert_eq!(c.stats.invalid_payloads, 1);
    assert_eq!(c.stats.migrations_out, 0);
    assert_eq!(c.vms().len(), hosted, "the forged accept moved a VM");

    cluster.run_until(SimTime::from_mins(20));
    assert!(cluster.total_migrations() > 0, "honest accepts still work");
    assert_eq!(cluster.num_vms(), vms_before);
}

#[test]
fn rebalancing_converges_and_stops() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(fast_config().with_threshold(0.15))
        .seed(13)
        .build();
    seed_imbalance(&mut cluster, 4, 900.0, 200.0);
    cluster.run_until(SimTime::from_mins(30));
    let migrations_at_30 = cluster.total_migrations();
    cluster.run_until(SimTime::from_mins(60));
    let migrations_at_60 = cluster.total_migrations();
    assert!(migrations_at_30 > 0);
    assert!(
        migrations_at_60 <= migrations_at_30 + 2,
        "rebalancing keeps thrashing: {migrations_at_30} -> {migrations_at_60}"
    );
}

#[test]
fn balanced_cluster_never_migrates() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(4)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(fast_config())
        .seed(17)
        .build();
    seed_imbalance(&mut cluster, 0, 0.0, 400.0); // uniform 40%
    cluster.run_until(SimTime::from_mins(30));
    assert_eq!(cluster.total_migrations(), 0);
    // Everyone sees the same mean and nobody is a shedder.
    for i in 0..cluster.num_servers() {
        assert_ne!(cluster.controller(i).status(), ServerStatus::Shedder);
    }
}

#[test]
fn receivers_never_pushed_over_threshold() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    let threshold = 0.15;
    let mut cluster = Cluster::builder(topo)
        .vbundle(fast_config().with_threshold(threshold))
        .seed(19)
        .build();
    seed_imbalance(&mut cluster, 6, 1000.0, 100.0);
    cluster.run_until(SimTime::from_mins(40));
    let utils = cluster.utilizations();
    let mean = metrics::mean(&utils);
    // The acceptance double-check (§III.C step 3) keeps every receiver at
    // or below mean + threshold (small epsilon for demand quantization).
    for (i, &util) in utils.iter().enumerate().skip(6) {
        assert!(
            util <= mean + threshold + 0.101,
            "receiver {i} overshot: {util} (mean {mean})"
        );
    }
}

#[test]
fn cost_benefit_gate_blocks_expensive_migrations() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(4)
            .build(),
    );
    let build = |cost_benefit: bool| {
        let mut cluster = Cluster::builder(Arc::clone(&topo))
            .vbundle(
                fast_config()
                    .with_threshold(0.15)
                    .with_cost_benefit(cost_benefit),
            )
            .seed(23)
            .build();
        // Hot server whose VMs have huge memory footprints but whose
        // bandwidth deficit is tiny: moving them costs more than it helps.
        for i in 0..8 {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(0),
                ResourceSpec::new(
                    ResourceVector::new(0.0, 0.0, bw(0.0)),
                    ResourceVector::new(1.0, 2_000_000.0, bw(1000.0)),
                ),
            );
            vm.demand = ResourceVector::new(0.0, 2_000_000.0, bw(130.0));
            let sid = cluster.topo.server(i % 2);
            cluster.install_vm(sid, vm);
        }
        cluster.reindex();
        cluster.run_until(SimTime::from_mins(20));
        cluster
    };
    let gated = build(true);
    let ungated = build(false);
    assert!(ungated.total_migrations() > 0, "baseline must migrate");
    let gated_count: u64 = (0..gated.num_servers())
        .map(|i| gated.controller(i).stats.migrations_gated)
        .sum();
    assert!(gated_count > 0, "gate never fired");
    assert!(
        gated.total_migrations() < ungated.total_migrations(),
        "gate did not reduce migrations"
    );
}

#[test]
fn receiver_failure_returns_vm_to_shedder() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(
            fast_config()
                .with_threshold(0.15)
                // Long migration so we can kill the receiver mid-flight.
                .with_update_interval(SimDuration::from_secs(10)),
        )
        .seed(29)
        .build();
    seed_imbalance(&mut cluster, 2, 900.0, 100.0);
    let total_before = cluster.num_vms();
    cluster.run_until(SimTime::from_mins(10));
    // Kill half the cold servers; any in-flight or future migrations to
    // them bounce and the VMs must survive somewhere.
    for i in 8..12 {
        let actor = vbundle_sim::ActorId::new(i as u32);
        cluster.engine.fail(actor);
    }
    cluster.run_until(SimTime::from_mins(40));
    let alive_vms: usize = (0..cluster.num_servers())
        .filter(|&i| cluster.engine.is_alive(vbundle_sim::ActorId::new(i as u32)))
        .map(|i| cluster.controller(i).vms().len())
        .sum();
    let dead_vms: usize = (8..12).map(|i| cluster.controller(i).vms().len()).sum();
    assert_eq!(
        alive_vms + dead_vms,
        total_before,
        "VMs lost or duplicated after receiver failure"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the initial demand skew, rebalancing never loses VMs and
    /// never leaves the cluster with higher dispersion than it started.
    #[test]
    fn prop_rebalance_conserves_and_improves(
        seed in any::<u64>(),
        hot in 1usize..6,
        hot_demand in 700.0f64..1000.0,
        cold_demand in 0.0f64..300.0,
    ) {
        let topo = Arc::new(
            Topology::builder()
                .pods(1)
                .racks_per_pod(3)
                .servers_per_rack(4)
                .build(),
        );
        let mut cluster = Cluster::builder(topo)
            .vbundle(fast_config().with_threshold(0.15))
            .seed(seed)
            .build();
        seed_imbalance(&mut cluster, hot, hot_demand, cold_demand);
        let vms_before = cluster.num_vms();
        let sd_before = metrics::std_dev(&cluster.utilizations());
        cluster.run_until(SimTime::from_mins(30));
        prop_assert_eq!(cluster.num_vms(), vms_before);
        let sd_after = metrics::std_dev(&cluster.utilizations());
        prop_assert!(
            sd_after <= sd_before + 1e-9,
            "dispersion grew: {} -> {}", sd_before, sd_after
        );
    }
}

/// Multi-metric shuffling (§VII future work, implemented here): memory
/// pressure alone — with bandwidth perfectly balanced — triggers
/// rebalancing when `multi_metric` is on, and does nothing when off.
#[test]
fn multi_metric_sheds_on_memory_pressure() {
    let run = |multi: bool| {
        let topo = Arc::new(
            Topology::builder()
                .pods(1)
                .racks_per_pod(4)
                .servers_per_rack(4)
                .build(),
        );
        let mut cluster = Cluster::builder(topo)
            .vbundle(fast_config().with_threshold(0.15).with_multi_metric(multi))
            .seed(31)
            .build();
        // Every server has the same light bandwidth demand, but the first
        // four are memory-hot: 10 VMs × 1.9 GB on 16 GB hosts (≈ 1.19
        // memory utilization) vs 10 × 0.3 GB (≈ 0.19) elsewhere.
        for server in 0..16usize {
            let mem = if server < 4 { 1_950.0 } else { 300.0 };
            for _ in 0..10 {
                let id = cluster.alloc_vm_id();
                let mut vm = VmRecord::new(
                    id,
                    CustomerId(0),
                    vbundle_core::ResourceSpec::new(
                        ResourceVector::ZERO,
                        ResourceVector::new(4.0, 16_384.0, bw(1000.0)),
                    ),
                );
                vm.demand = ResourceVector::new(0.1, mem, bw(30.0));
                let sid = cluster.topo.server(server);
                cluster.install_vm(sid, vm);
            }
        }
        cluster.reindex();
        cluster.run_until(SimTime::from_mins(25));
        let mem_utils: Vec<f64> = (0..16)
            .map(|i| {
                cluster
                    .controller(i)
                    .utilization_for(vbundle_core::ResourceKind::Memory)
            })
            .collect();
        (cluster.total_migrations(), mem_utils)
    };

    let (migrations_off, _) = run(false);
    assert_eq!(
        migrations_off, 0,
        "bandwidth-only mode must ignore memory pressure"
    );

    let (migrations_on, mem_utils) = run(true);
    assert!(migrations_on > 0, "multi-metric mode must react");
    let mean = metrics::mean(&mem_utils);
    for (i, &u) in mem_utils.iter().enumerate() {
        assert!(
            u <= mean + 0.15 + 0.13,
            "server {i} memory still hot: {u} (mean {mean})"
        );
    }
}

/// With the oscillation guard disabled (ablation), the system still
/// conserves VMs and converges — it just takes more migrations.
#[test]
fn guardless_shuffle_still_conserves() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(
            fast_config()
                .with_threshold(0.15)
                .with_oscillation_guard(false),
        )
        .seed(37)
        .build();
    seed_imbalance(&mut cluster, 4, 900.0, 200.0);
    let before = cluster.num_vms();
    cluster.run_until(SimTime::from_mins(30));
    assert_eq!(cluster.num_vms(), before);
    assert!(cluster.total_migrations() > 0);
}

/// The full VM lifecycle: boot through the protocol, shut down, and the
/// freed reservation admits a new VM on the same spot.
#[test]
fn shutdown_releases_reservations() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(1)
            .servers_per_rack(2)
            .build(),
    );
    let mut cluster = Cluster::builder(topo).seed(41).build();
    let c = Customer::new(CustomerId(0), "lifecycle");
    // Fill both servers completely.
    let spec = ResourceSpec::bandwidth(bw(500.0), bw(1000.0));
    let mut vms = Vec::new();
    for _ in 0..4 {
        let (req, vm) = cluster.request_boot(0, &c, spec, ResourceVector::ZERO);
        while cluster.boot_result(0, req).is_none() {
            cluster.run_for(SimDuration::from_millis(100));
        }
        assert!(cluster.boot_result(0, req).unwrap().is_some());
        vms.push(vm);
    }
    // A fifth VM cannot fit...
    assert!(cluster
        .boot_and_run(
            0,
            &c,
            spec,
            ResourceVector::ZERO,
            SimDuration::from_secs(30)
        )
        .is_none());
    // ...until one shuts down.
    cluster.reindex();
    let record = cluster.shutdown_vm(vms[1]).expect("was running");
    assert_eq!(record.id, vms[1]);
    assert_eq!(cluster.num_vms(), 3);
    assert!(cluster.shutdown_vm(vms[1]).is_none(), "double shutdown");
    let host = cluster.boot_and_run(
        0,
        &c,
        spec,
        ResourceVector::ZERO,
        SimDuration::from_secs(30),
    );
    assert!(host.is_some(), "freed reservation must admit a new VM");
    assert_eq!(cluster.num_vms(), 4);
}

/// Seeds a trading scenario: one customer, a starved fixed-size VM on
/// server 0 and idle same-spec siblings on the remaining servers.
fn seed_trading(cluster: &mut Cluster, hot_demand: f64) -> vbundle_core::VmId {
    let n = cluster.num_servers();
    let spec = ResourceSpec::bandwidth(bw(100.0), bw(100.0));
    let hot = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(hot, CustomerId(0), spec);
    vm.demand = ResourceVector::bandwidth_only(bw(hot_demand));
    let sid = cluster.topo.server(0);
    cluster.install_vm(sid, vm);
    for server in 1..n {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(id, CustomerId(0), spec);
        vm.demand = ResourceVector::bandwidth_only(bw(5.0));
        let sid = cluster.topo.server(server);
        cluster.install_vm(sid, vm);
    }
    cluster.reindex();
    hot
}

/// Bundle trading end to end: a starved fixed-size VM borrows entitlement
/// from idle same-customer siblings over the trade tree, the shaper's
/// grant follows the live ledger, the customer's total entitlement is
/// conserved, and leases auto-expire once demand subsides.
#[test]
fn bundle_trading_lends_and_reverts() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let config = fast_config()
        .with_bundle_trading(true)
        .with_lease_duration(SimDuration::from_secs(60));
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(config)
        .seed(47)
        .build();
    let hot = seed_trading(&mut cluster, 400.0);
    // Static contract: the fixed-size VM is stuck at 100 Mbps.
    let before = cluster.satisfaction();
    assert_eq!(before.satisfied.as_mbps(), 100.0 + 3.0 * 5.0);

    cluster.run_until(SimTime::from_mins(5));
    assert!(cluster.active_leases() > 0, "no lease committed");
    let after = cluster.satisfaction();
    assert!(
        after.satisfied.as_mbps() > before.satisfied.as_mbps() + 50.0,
        "trading did not raise satisfied bandwidth: {} -> {}",
        before.satisfied.as_mbps(),
        after.satisfied.as_mbps()
    );
    // Conservation: the customer's cluster-wide entitled reservation is
    // exactly the purchased bundle (lender debits mirror borrower
    // credits).
    let entitled: f64 = (0..cluster.num_servers())
        .map(|i| {
            let c = cluster.controller(i);
            c.vms()
                .iter()
                .map(|vm| c.entitled_spec(vm).reservation.bandwidth.as_mbps())
                .sum::<f64>()
        })
        .sum();
    assert!(
        (entitled - 400.0).abs() < 1e-6,
        "entitlement not conserved: {entitled}"
    );
    // No migrations: the trade was pure entitlement movement.
    assert_eq!(cluster.total_migrations(), 0);

    // Demand subsides; committed leases lapse and everything reverts.
    assert!(cluster.set_vm_demand(hot, ResourceVector::bandwidth_only(bw(10.0))));
    cluster.run_until(SimTime::from_mins(12));
    assert_eq!(cluster.active_leases(), 0, "leases did not expire");
    for i in 0..cluster.num_servers() {
        let c = cluster.controller(i);
        for vm in c.vms() {
            assert_eq!(
                c.entitled_spec(vm).reservation.bandwidth.as_mbps(),
                100.0,
                "entitlement did not revert on server {i}"
            );
        }
    }
}

/// With `bundle_trading` off (the default), the marketplace is inert: no
/// trade traffic, no leases, static contracts everywhere.
#[test]
fn trading_off_is_inert() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let mut cluster = Cluster::builder(topo)
        .vbundle(fast_config())
        .seed(47)
        .build();
    seed_trading(&mut cluster, 400.0);
    cluster.run_until(SimTime::from_mins(5));
    assert_eq!(cluster.active_leases(), 0);
    for i in 0..cluster.num_servers() {
        let book = cluster.controller(i).trade_book();
        assert!(book.is_empty());
        assert_eq!(book.stats.requests_sent.get(), 0);
    }
    // The fixed-size VM stays pinned at its static ceiling.
    assert_eq!(
        cluster.satisfaction().satisfied.as_mbps(),
        100.0 + 3.0 * 5.0
    );
}

/// Heterogeneous hardware: big and small servers shuffle correctly — the
/// admission and acceptance checks use each server's own capacity.
#[test]
fn heterogeneous_capacities_respected() {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    // Even servers have 1 Gbps NICs, odd servers only 500 Mbps.
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(fast_config().with_threshold(0.15))
        .capacity_fn(|i| {
            ResourceVector::bandwidth_only(bw(if i % 2 == 0 { 1000.0 } else { 500.0 }))
        })
        .seed(43)
        .build();
    assert_eq!(
        cluster.controller(1).capacity().bandwidth,
        bw(500.0),
        "capacity override applied"
    );
    // Overload two big servers; the rest idle.
    for server in 0..16usize {
        let demand = if server < 2 { 900.0 } else { 50.0 };
        for _ in 0..9 {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(0),
                ResourceSpec::bandwidth(bw(0.0), bw(1000.0)),
            );
            vm.demand = ResourceVector::bandwidth_only(bw(demand / 9.0));
            let sid = cluster.topo.server(server);
            cluster.install_vm(sid, vm);
        }
    }
    cluster.reindex();
    cluster.run_until(SimTime::from_mins(25));
    assert!(cluster.total_migrations() > 0);
    // No server ends above its own NIC in demand terms, and small servers
    // were not overfilled: utilization = demand / own capacity stays sane.
    for i in 0..16 {
        let c = cluster.controller(i);
        assert!(
            c.utilization() <= 1.0 + 1e-9,
            "server {i} overfilled: {}",
            c.utilization()
        );
    }
}

#[test]
fn survivable_boots_spread_domains_and_reserve_backup() {
    // 2 pods × 2 racks × 2 servers: enough failure domains for both the
    // rack and the pod cap to bite.
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(fast_config().with_survivability(SurvivabilityConfig {
            max_frac_per_domain: 0.5,
            backup: 0.25,
        }))
        .seed(17)
        .build();
    let tenant = Customer::new(CustomerId(0), "tenant");
    let spec = ResourceSpec::bandwidth(bw(100.0), bw(200.0));
    let mut hosts = Vec::new();
    for entry in 0..8usize {
        let host = cluster
            .boot_and_run(
                entry,
                &tenant,
                spec,
                ResourceVector::ZERO,
                SimDuration::from_secs(60),
            )
            .expect("survivable boot placed");
        hosts.push(host);
    }
    // Per-domain counts respect cap = ceil(0.5 × 8) = 4; a plain v-Bundle
    // walk would pack all 8 into the root's neighborhood instead.
    let cap = survivable_domain_cap(0.5, hosts.len() as u32);
    let mut per_rack = std::collections::BTreeMap::new();
    let mut per_pod = std::collections::BTreeMap::new();
    for &h in &hosts {
        *per_rack.entry(topo.rack_of(h)).or_insert(0u32) += 1;
        *per_pod.entry(topo.pod_of(h)).or_insert(0u32) += 1;
    }
    assert!(
        per_rack.values().all(|&n| n <= cap),
        "rack counts {per_rack:?} exceed cap {cap}"
    );
    assert!(
        per_pod.values().all(|&n| n <= cap),
        "pod counts {per_pod:?} exceed cap {cap}"
    );
    assert!(
        per_pod.len() >= 2,
        "survivable placement must cross pods: {per_pod:?}"
    );
    // Backup bandwidth got carved out somewhere, and the carve-outs never
    // pushed any server past its admission-control envelope.
    let total_backup: f64 = (0..8)
        .map(|s| cluster.controller(s).backup_reserved().bandwidth.as_mbps())
        .sum();
    assert!(total_backup > 0.0, "no backup bandwidth was reserved");
    for s in 0..8 {
        let ctrl = cluster.controller(s);
        assert!(
            ctrl.reserved().fits_within(ctrl.capacity()),
            "server {s} over-admitted"
        );
    }
}

/// FNV-1a over an outcome text: short enough to pin in source, and the
/// text itself is printed on a mismatch.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Protocol boots, one every 5 ms, round-robin over `tenants`, from
/// entries spread over the cluster but never `skip`: `(entry, request)`
/// for each.
fn boot_stream(
    cluster: &mut Cluster,
    tenants: &[Customer],
    count: usize,
    shift: usize,
    skip: usize,
) -> Vec<(usize, u64)> {
    let n = cluster.num_servers();
    let spec = ResourceSpec::bandwidth(bw(100.0), bw(200.0));
    let demand = ResourceVector::bandwidth_only(bw(50.0));
    (0..count)
        .map(|i| {
            let entry = match (i * 37 + shift) % n {
                e if e == skip => (e + 1) % n,
                e => e,
            };
            let tenant = &tenants[(i + shift) % tenants.len()];
            let (request, _) = cluster.request_boot(entry, tenant, spec, demand);
            cluster.run_for(SimDuration::from_millis(5));
            (entry, request)
        })
        .collect()
}

/// Captured before the boot hop stopped allocating: however a hop is
/// computed, the walk must pick the same servers.
const BOOT_WALK_PIN: u64 = 16559167202244991286;

/// The protocol boot walk's outcome, pinned. Four tenants stream 1 400
/// boots into 200 servers and fill their roots' neighbourhoods, so late
/// walks run past 20 hops. Halfway through, a server in tenant 0's root
/// rack crashes: walks that pick it bounce and go on without it. Then
/// every fifth VM on a live server departs and 300 replacements arrive.
/// The digest covers every placement, each server's `boots_handled`, the
/// events processed and the bytes on the wire.
#[test]
fn boot_walk_outcome_is_pinned() {
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(5)
            .servers_per_rack(20)
            .build(),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo)).seed(2801).build();
    let tenants: Vec<Customer> = (0..4)
        .map(|i| Customer::new(CustomerId(i), format!("tenant-{i}")))
        .collect();
    let root = (0..topo.num_servers())
        .min_by_key(|&s| cluster.ids[s].ring_distance(tenants[0].key))
        .expect("servers");
    let crashed = topo
        .servers_in_rack(topo.rack_of(topo.server(root)))
        .map(|s| s.index())
        .find(|&s| s != root)
        .expect("a rack mate");
    let mut requests = boot_stream(&mut cluster, &tenants, 700, 0, crashed);
    cluster.engine.fail(ActorId::new(crashed as u32));
    requests.extend(boot_stream(&mut cluster, &tenants, 700, 700, crashed));
    cluster.run_for(SimDuration::from_secs(30));

    // How far a walk goes by now: one more boot, alone.
    let handled = |c: &Cluster| -> u64 {
        (0..c.num_servers())
            .map(|s| c.controller(s).stats.boots_handled)
            .sum()
    };
    let before = handled(&cluster);
    let spec = ResourceSpec::bandwidth(bw(100.0), bw(200.0));
    let timeout = SimDuration::from_secs(30);
    cluster
        .boot_and_run(root, &tenants[0], spec, ResourceVector::ZERO, timeout)
        .expect("placed");
    let hops = handled(&cluster) - before;
    assert!(hops > 20, "a late walk took only {hops} hops");

    cluster.reindex();
    for (vm, _, server) in cluster.placements() {
        if vm.0 % 5 == 0 && server.index() != crashed {
            cluster.shutdown_vm(vm).expect("indexed");
        }
    }
    requests.extend(boot_stream(&mut cluster, &tenants, 300, 7, crashed));
    cluster.run_for(SimDuration::from_secs(30));
    for &(entry, request) in &requests {
        assert!(
            matches!(cluster.boot_result(entry, request), Some(Some(_))),
            "boot {request} from server {entry} was not placed"
        );
    }

    let mut text = String::new();
    let mut placements = cluster.placements();
    placements.sort();
    for (vm, customer, server) in placements {
        writeln!(text, "vm {} c{} @{}", vm.0, customer.0, server.index()).unwrap();
    }
    for s in 0..cluster.num_servers() {
        let n = cluster.controller(s).stats.boots_handled;
        writeln!(text, "handled @{s}: {n}").unwrap();
    }
    writeln!(text, "events {}", cluster.engine.events_processed()).unwrap();
    let wire = cluster.engine.counter_totals().total_bytes();
    writeln!(text, "wire {wire}").unwrap();
    let digest = fnv1a(&text);
    assert_eq!(
        digest, BOOT_WALK_PIN,
        "boot walk outcome drifted (digest {digest}); full outcome:\n{text}"
    );
}

//! Poison-tolerance properties: corrupted aggregation reports replay
//! byte-identically, targeted partition heals touch only their cut, and
//! the Defensive pipeline contains a poisoning that demonstrably breaks
//! the TrustAll ablation.

use std::fmt::Write as _;
use std::sync::Arc;

use vbundle_aggregation::{AggregationConfig, Robustness};
use vbundle_chaos::{check_global_mean, ChaosDriver, FaultPlan, LinkFault, Scope};
use vbundle_core::{
    Cluster, Customer, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, CorruptionMode, SimDuration, SimTime};

/// Paper testbed (15 servers) with fast timers; `heavy` servers host a
/// 400 Mbps VM, the rest 80 Mbps — the non-uniform load that makes a
/// poisoned mean *diverge* from the honest one instead of canceling out.
fn build_cluster(seed: u64, robustness: Robustness, mean_gate: bool) -> (Cluster, Vec<VmId>) {
    let topo = Arc::new(Topology::paper_testbed());
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(topo)
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .aggregation(AggregationConfig {
            robustness,
            ..AggregationConfig::default()
        })
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_mean_gate(mean_gate)
                .with_mean_jump_bound(0.15),
        )
        .seed(seed)
        .build();
    let mut vms = Vec::new();
    for server in 0..cluster.num_servers() {
        let demand = if server % 5 == 0 {
            Bandwidth::from_mbps(400.0)
        } else {
            Bandwidth::from_mbps(80.0)
        };
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(server as u32 % 3),
            ResourceSpec::fixed(ResourceVector::bandwidth_only(demand)),
        );
        vm.demand = ResourceVector::bandwidth_only(demand);
        cluster.install_vm(cluster.topo.server(server), vm);
        vms.push(id);
    }
    cluster.run_until(SimTime::from_secs(60));
    (cluster, vms)
}

/// Two poisoned reporters, everything corrupted from `t=70`.
fn poison_plan(seed: u64, mode: CorruptionMode) -> FaultPlan {
    FaultPlan::new(seed)
        .corrupt_aggregate(SimTime::from_secs(70), ActorId::new(0), mode)
        .corrupt_aggregate(SimTime::from_secs(70), ActorId::new(5), mode)
}

/// One poisoned run, summarized as a deterministic string: the injector's
/// fault counters plus every server's steering mean, printed from
/// simulated state only.
fn poison_run_fingerprint(seed: u64) -> String {
    let (mut cluster, _vms) = build_cluster(seed, Robustness::Defensive, true);
    let topo = cluster.topo.clone();
    let plan = poison_plan(seed, CorruptionMode::HugeScale);
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, SimTime::from_secs(200));
    let mut out = format!("{:?}\n", cluster.engine.fault_stats());
    for i in 0..cluster.num_servers() {
        let mean = cluster
            .controller(i)
            .effective_mean_for(vbundle_core::ResourceKind::Bandwidth);
        let _ = writeln!(out, "server {i}: {mean:?}");
    }
    out
}

#[test]
fn corruption_replays_byte_identically() {
    let a = poison_run_fingerprint(11);
    let b = poison_run_fingerprint(11);
    assert_eq!(a, b, "same seed + same plan must replay identically");
    assert!(
        a.lines().next().unwrap().contains("corrupted"),
        "fingerprint should carry the corruption counter: {a}"
    );
}

#[test]
fn heal_partition_removes_only_its_cut() {
    let (mut cluster, _vms) = build_cluster(13, Robustness::TrustAll, true);
    let t = SimTime::from_secs;
    let cut_a = (Scope::Rack(0), Scope::All);
    let cut_b = (Scope::Actor(ActorId::new(7)), Scope::All);
    let plan = FaultPlan::new(13)
        .partition(t(70), cut_a.0, cut_a.1)
        .partition(t(70), cut_b.0, cut_b.1)
        // Heal the rack cut only — in the reversed orientation, which must
        // still match.
        .heal_partition(t(80), cut_a.1, cut_a.0);
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, t(90));
    let partitions = driver.net().with(|st| st.partitions.clone());
    assert_eq!(partitions, vec![cut_b], "only the rack cut heals");
}

/// The acceptance property of this PR: with 2 of 15 reporters poisoned,
/// the Defensive pipeline (validation + winsorized combine + mean gate)
/// keeps every server steering within epsilon of the honest mean, while
/// the TrustAll ablation of the very same scenario measurably violates it.
#[test]
fn defensive_contains_poison_that_breaks_trust_all() {
    const EPS: f64 = 0.05;
    let deadline = SimTime::from_secs(200);

    let (mut defensive, _) = build_cluster(17, Robustness::Defensive, true);
    let topo = defensive.topo.clone();
    let plan = poison_plan(17, CorruptionMode::HugeScale);
    let mut driver = ChaosDriver::install(&mut defensive.engine, topo, plan);
    driver.run_until(&mut defensive.engine, deadline);
    assert!(
        defensive.engine.fault_stats().corrupted > 50,
        "poison must actually flow: {:?}",
        defensive.engine.fault_stats()
    );
    let open = check_global_mean(&defensive.engine, EPS);
    assert!(open.is_empty(), "defensive run leaked poison: {open:#?}");

    let (mut trusting, _) = build_cluster(17, Robustness::TrustAll, false);
    let topo = trusting.topo.clone();
    let plan = poison_plan(17, CorruptionMode::HugeScale);
    let mut driver = ChaosDriver::install(&mut trusting.engine, topo, plan);
    driver.run_until(&mut trusting.engine, deadline);
    let open = check_global_mean(&trusting.engine, EPS);
    assert!(
        !open.is_empty(),
        "the TrustAll ablation should visibly drift under the same poison"
    );
}

/// Duplicate and corrupt faults on every link of a cluster that trades,
/// sheds and boots: `FaultAction::Duplicate` clones and `Message::corrupt`
/// mutates the full-stack wire type, so both must reach through every
/// boxed layer (routed envelope, direct payload, anycast state, boot /
/// load / borrow queries, VM and lease records). Summarized from simulated
/// state only, wire bytes included.
fn boxed_storm_fingerprint(seed: u64) -> String {
    let topo = Arc::new(Topology::paper_testbed());
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(topo.clone())
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(20))
                .with_bundle_trading(true)
                .with_lease_duration(SimDuration::from_secs(30)),
        )
        .seed(seed)
        .build();
    // Per server, one VM on a fixed 100 Mbps entitlement and one movable
    // best-effort VM. Every third server runs hot: its fixed VM is starved
    // (it borrows from a same-tenant sibling elsewhere) and its NIC is
    // overloaded (it sheds the movable VM).
    for server in 0..cluster.num_servers() {
        let hot = server % 3 == 0;
        let fixed =
            ResourceSpec::fixed(ResourceVector::bandwidth_only(Bandwidth::from_mbps(100.0)));
        let movable = ResourceSpec::bandwidth(Bandwidth::ZERO, Bandwidth::from_mbps(1000.0));
        for (spec, mbps) in [
            (fixed, if hot { 260.0 } else { 20.0 }),
            (movable, if hot { 800.0 } else { 30.0 }),
        ] {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(id, CustomerId(0), spec);
            vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(mbps));
            cluster.install_vm(cluster.topo.server(server), vm);
        }
    }
    cluster.reindex();
    let t = SimTime::from_secs;
    let storm = LinkFault::loss(0.0)
        .with_duplicate(0.2, SimDuration::from_millis(2))
        .with_corruption(0.2, CorruptionMode::HugeScale);
    let plan = FaultPlan::new(seed)
        .degrade_both(t(20), Scope::All, Scope::All, storm)
        .clear_degradations(t(150));
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, t(60));
    // Boots walk the datacenter through the storm as well.
    let customers = Customer::paper_five();
    for entry in 0..6 {
        let size = ResourceVector::bandwidth_only(Bandwidth::from_mbps(150.0));
        cluster.request_boot(
            entry,
            &customers[entry % 3],
            ResourceSpec::fixed(size),
            size,
        );
    }
    driver.run_until(&mut cluster.engine, t(200));

    let totals = cluster.engine.counter_totals();
    let mut out = format!(
        "{:?}\nevents {} msgs {} bytes {} migrations {} leases {}\n",
        cluster.engine.fault_stats(),
        cluster.engine.events_processed(),
        totals.total_msgs(),
        totals.total_bytes(),
        cluster.total_migrations(),
        cluster.active_leases(),
    );
    for (vm, customer, server) in cluster.placements() {
        let _ = writeln!(out, "{vm:?} {customer:?} on {server:?}");
    }
    for i in 0..cluster.num_servers() {
        let mean = cluster
            .controller(i)
            .effective_mean_for(vbundle_core::ResourceKind::Bandwidth);
        let _ = writeln!(out, "server {i}: {mean:?}");
    }
    out.push_str(&cluster.metrics_json());
    out
}

#[test]
fn duplicate_and_corrupt_reach_through_the_boxes() {
    let a = boxed_storm_fingerprint(23);
    assert_eq!(a, boxed_storm_fingerprint(23), "same seed, same replay");
    // The faults applied, the events they caused and the bytes on the wire
    // are a property of the protocol, not of what is boxed: pinned at the
    // commit before the message layout changed (`duplicated: 103183,
    // corrupted: 349`, `events 455312 msgs 346632 bytes 50827260
    // migrations 10 leases 14`) and unmoved until PR 19 changed the
    // protocol — settled leaf-set members stopped acking heartbeats. The
    // injector draws once per send from one seeded stream, so with a
    // quarter fewer sends every later message meets a different draw: the
    // storm duplicates and corrupts other messages than before, an equally
    // valid trajectory of the same plan (`duplicated: 75785, corrupted:
    // 398`, `events 329680 msgs 248413 bytes 40335584 migrations 13 leases
    // 15`). Re-pinned once more at PR 24, pruned anycast: the cluster is one
    // tenant whose starved VMs mostly ask in vain, every duplicate of an
    // anycast step walks on by itself, and a walk that the subtree
    // summaries stop after a few steps instead of thirty-odd has far fewer
    // steps to duplicate — a quarter of the events, a fourteenth of the
    // bytes, the same fifteen leases. Re-pinned at the op id (queries and
    // leases named `actor << 32 | seq` from one counter per server):
    // events 74674 → 74675 with messages and bytes unmoved, so one more
    // timer fell inside the horizon — ack timeouts are jittered by the
    // id they chase.
    let head: Vec<&str> = a.lines().take(2).collect();
    assert_eq!(
        head,
        [
            "FaultStats { dropped: 0, delayed: 0, duplicated: 12807, corrupted: 391 }",
            "events 74675 msgs 56396 bytes 2810317 migrations 9 leases 15",
        ],
        "{a}"
    );
}

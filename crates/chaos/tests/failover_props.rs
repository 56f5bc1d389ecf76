//! Backup-activated failover properties: when a failure domain is
//! declared dead from message-level evidence, the backup sites must
//! re-materialize the lost VMs onto their reserved headroom — restoring
//! every tenant without a single `Restart` event — while conserving VMs,
//! capacity and entitlement through the hard races: a stale rack
//! restarting mid-failover, repeated and overlapping domain crashes, and
//! partial evidence that must never trigger a declaration.

use std::collections::BTreeMap;
use std::sync::Arc;

use vbundle_chaos::{
    check_capacity, check_entitlement_conservation, check_vm_conservation, customer_satisfaction,
    ChaosDriver, FaultPlan,
};
use vbundle_core::{
    Cluster, ClusterModel, Customer, CustomerId, FailoverConfig, ResourceSpec, ResourceVector,
    SurvivabilityConfig, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, ServerId, Topology};
use vbundle_pastry::overlay::topology_aware_ids;
use vbundle_sim::{ActorId, SimDuration, SimTime};

const TENANTS: u32 = 3;
const VMS_PER_TENANT: usize = 4;
const VM_MBPS: f64 = 100.0;
const MAX_FRAC_PER_DOMAIN: f64 = 0.5;
const BACKUP: f64 = 0.25;
const RECOVERY_FRAC: f64 = 0.9;

fn bw(mbps: f64) -> Bandwidth {
    Bandwidth::from_mbps(mbps)
}

/// Offline-places the workload survivably on a 2-pod × 2-rack × 2-server
/// fabric, then seeds a failover-enabled protocol cluster with the
/// placement *and* its per-VM backup charges, so each backup site knows
/// which VM it protects and where that VM's primary lives.
fn failover_cluster(seed: u64) -> (Cluster, Vec<(VmRecord, ServerId)>, Vec<VmId>) {
    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let ids = topology_aware_ids(&topo);
    let mut model = ClusterModel::new(
        Arc::clone(&topo),
        ids,
        ResourceVector::bandwidth_only(bw(1000.0)),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_survivability(SurvivabilityConfig {
                    max_frac_per_domain: MAX_FRAC_PER_DOMAIN,
                    backup: BACKUP,
                })
                .with_failover(FailoverConfig {
                    probe_interval: SimDuration::from_secs(5),
                }),
        )
        .seed(seed)
        .build();

    let mut placements = Vec::new();
    let mut vms = Vec::new();
    for c in 0..TENANTS {
        let customer = Customer::new(CustomerId(c), format!("tenant-{c}"));
        for _ in 0..VMS_PER_TENANT {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                customer.id,
                ResourceSpec::fixed(ResourceVector::bandwidth_only(bw(VM_MBPS))),
            );
            vm.demand = ResourceVector::bandwidth_only(bw(VM_MBPS));
            let host = model
                .place_survivable(customer.key, vm, MAX_FRAC_PER_DOMAIN, BACKUP)
                .expect("fabric has room for every VM");
            placements.push((vm, host));
            vms.push(id);
        }
    }
    for (vm, host) in &placements {
        cluster.install_vm(*host, *vm);
    }
    for charge in model.backup_charges().to_vec() {
        cluster.install_backup_charge(charge.site, charge.vm, charge.primary, charge.amount);
    }
    cluster.reindex();
    cluster.run_until(SimTime::from_secs(60));
    (cluster, placements, vms)
}

/// Sum of a per-actor failover counter across all controllers.
fn fo_counter(cluster: &Cluster, pick: fn(&vbundle_core::ControllerStats) -> u64) -> u64 {
    (0..cluster.num_servers())
        .map(|s| pick(&cluster.controller(s).stats))
        .sum()
}

/// Runs the driver forward in 5 s steps until `check` passes or `until`
/// is reached; returns the still-open violations (empty = converged).
fn settle(
    cluster: &mut Cluster,
    driver: &mut ChaosDriver,
    from: SimTime,
    until: SimTime,
    mut check: impl FnMut(&Cluster) -> Vec<String>,
) -> Vec<String> {
    let mut now = from;
    let mut open = Vec::new();
    while now <= until {
        driver.run_until(&mut cluster.engine, now);
        open = check(cluster);
        if open.is_empty() {
            break;
        }
        now += SimDuration::from_secs(5);
    }
    open
}

/// Per-tenant recovery violations against a baseline snapshot.
fn recovery_check(cluster: &Cluster, baseline: &BTreeMap<u32, f64>) -> Vec<String> {
    let sat = customer_satisfaction(&cluster.engine);
    baseline
        .iter()
        .filter(|(_, &base)| base > 1e-9)
        .filter_map(|(&c, &base)| {
            let cur = sat.get(&c).copied().unwrap_or(0.0);
            (cur + 1e-6 < RECOVERY_FRAC * base).then(|| {
                format!(
                    "tenant {c} at {:.1}% of pre-crash satisfaction",
                    100.0 * cur / base
                )
            })
        })
        .collect()
}

/// The tentpole contract: a whole-rack crash with NO restart ever issued
/// — the dead servers stay dead — still restores every tenant to ≥ 90 %
/// of pre-crash satisfaction, because the backup sites declare the rack
/// dead from probe evidence and re-materialize its VMs onto the reserved
/// headroom. VM, capacity and entitlement conservation hold at the end.
#[test]
fn rack_crash_restores_tenants_without_restart() {
    let (mut cluster, placements, vms) = failover_cluster(41);
    let topo = cluster.topo.clone();
    // Crash the rack hosting the first placement — guaranteed non-empty.
    let rack = topo.rack_of(placements[0].1).index();
    let lost: Vec<VmId> = placements
        .iter()
        .filter(|(_, s)| topo.rack_of(*s).index() == rack)
        .map(|(vm, _)| vm.id)
        .collect();
    assert!(!lost.is_empty(), "crashed rack must host some VMs");
    let baseline = customer_satisfaction(&cluster.engine);
    assert_eq!(baseline.len(), TENANTS as usize);

    // Crash only — the plan contains no Restart event.
    let plan = FaultPlan::new(41).crash_rack(SimTime::from_secs(70), rack);
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    let open = settle(
        &mut cluster,
        &mut driver,
        SimTime::from_secs(85),
        SimTime::from_secs(180),
        |c| recovery_check(c, &baseline),
    );
    assert!(open.is_empty(), "tenants did not recover: {open:#?}");

    assert_eq!(
        fo_counter(&cluster, |s| s.counters.fo_rematerialized.get()),
        lost.len() as u64,
        "every lost VM re-materialized exactly once"
    );
    assert!(fo_counter(&cluster, |s| s.counters.fo_domains_declared.get()) >= 1);
    // The dead rack never came back, so nothing needs fencing: each VM
    // lives on exactly one server and every invariant is closed.
    let mut open = check_vm_conservation(&cluster.engine, &vms);
    open.extend(check_capacity(&cluster.engine));
    open.extend(check_entitlement_conservation(&cluster.engine));
    assert!(
        open.is_empty(),
        "conservation broken after failover: {open:#?}"
    );
}

/// The restart race: the "dead" rack comes back right after the
/// declaration fired. The re-materialized copies must win — the stale
/// originals on the restarted servers are fenced away — and the tenant
/// ends up whole, with no VM duplicated once the fences ack.
#[test]
fn failover_racing_late_restart_fences_stale_copies() {
    let (mut cluster, placements, vms) = failover_cluster(43);
    let topo = cluster.topo.clone();
    let rack = topo.rack_of(placements[0].1).index();
    let rack0: Vec<usize> = (0..cluster.num_servers())
        .filter(|&s| topo.rack_of(topo.server(s)).index() == rack)
        .collect();
    let stale_vms: Vec<VmId> = placements
        .iter()
        .filter(|(_, s)| topo.rack_of(*s).index() == rack)
        .map(|(vm, _)| vm.id)
        .collect();
    assert!(!stale_vms.is_empty());
    let baseline = customer_satisfaction(&cluster.engine);

    // Crash at 70 s; with 5 s probes the declaration lands by ~80 s.
    // The whole rack restarts at 82 s — after the failover committed but
    // (likely) before its fences were acked.
    let mut plan = FaultPlan::new(43).crash_rack(SimTime::from_secs(70), rack);
    for &s in &rack0 {
        plan = plan.restart(SimTime::from_secs(82), ActorId::new(s as u32));
    }
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo.clone(), plan);
    let open = settle(
        &mut cluster,
        &mut driver,
        SimTime::from_secs(90),
        SimTime::from_secs(240),
        |c| {
            // Converged means: no duplicate or lost VM (without leaning
            // on the pending-fence exception), every fence acked, and
            // every tenant restored.
            let mut open = check_vm_conservation(&c.engine, &vms);
            for s in 0..c.num_servers() {
                let pending = c.controller(s).fenced_vms();
                if !pending.is_empty() {
                    open.push(format!("server {s} still has pending fences: {pending:?}"));
                }
            }
            open.extend(recovery_check(c, &baseline));
            open
        },
    );
    assert!(open.is_empty(), "restart race did not reconcile: {open:#?}");

    // The re-materialized copy won: the restarted servers no longer host
    // the stale originals.
    for &s in &rack0 {
        for vm in cluster.controller(s).vms() {
            assert!(
                !stale_vms.contains(&vm.id),
                "server {s} still hosts stale VM {:?} after fencing",
                vm.id
            );
        }
    }
    assert!(fo_counter(&cluster, |s| s.counters.fo_fences_sent.get()) >= 1);
    assert_eq!(
        fo_counter(&cluster, |s| s.counters.fo_rematerialized.get()),
        stale_vms.len() as u64
    );
    let open = check_capacity(&cluster.engine);
    assert!(open.is_empty(), "capacity broken after race: {open:#?}");
}

/// Repeated and overlapping domain crashes stay idempotent: crashing the
/// same rack twice and then its whole pod produces exactly one
/// re-materialization per lost VM — protections are consumed on first
/// declaration, so no VM is ever materialized twice. Full restoration is
/// NOT promised here: copies re-materialized into the pod's sibling rack
/// carry no fresh protection (single-shot, unchanged backup overhead),
/// so the follow-up pod crash can take them down for good — tenants then
/// degrade gracefully to the passive survivable floor instead of
/// recovering to 90 %.
#[test]
fn overlapping_domain_crashes_materialize_each_vm_once() {
    let (mut cluster, placements, vms) = failover_cluster(47);
    let topo = cluster.topo.clone();
    let rack = topo.rack_of(placements[0].1).index();
    let pod = topo.pod_of(placements[0].1).index();
    let pod_vms: Vec<VmId> = placements
        .iter()
        .filter(|(_, s)| topo.pod_of(*s).index() == pod)
        .map(|(vm, _)| vm.id)
        .collect();
    assert!(!pod_vms.is_empty(), "crashed pod must host some VMs");
    let baseline = customer_satisfaction(&cluster.engine);

    let plan = FaultPlan::new(47)
        .crash_rack(SimTime::from_secs(70), rack)
        // Same rack again: already dead, must be a pure no-op.
        .crash_rack(SimTime::from_secs(90), rack)
        // Then the whole containing pod: only its sibling rack newly dies.
        .crash_pod(SimTime::from_secs(95), pod);
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    // The passive survivable floor, not the 90 % failover restoration:
    // the overlapping pod crash may permanently take re-materialized
    // copies whose single-shot protection was already spent.
    let floor = 0.45;
    let open = settle(
        &mut cluster,
        &mut driver,
        SimTime::from_secs(110),
        SimTime::from_secs(240),
        |c| {
            let sat = customer_satisfaction(&c.engine);
            baseline
                .iter()
                .filter(|(_, &base)| base > 1e-9)
                .filter_map(|(&t, &base)| {
                    let cur = sat.get(&t).copied().unwrap_or(0.0);
                    (cur + 1e-6 < floor * base)
                        .then(|| format!("tenant {t} below floor at {:.1}%", 100.0 * cur / base))
                })
                .collect()
        },
    );
    assert!(
        open.is_empty(),
        "tenants fell below the degradation floor: {open:#?}"
    );
    assert_eq!(
        fo_counter(&cluster, |s| s.counters.fo_rematerialized.get()),
        pod_vms.len() as u64,
        "each lost VM re-materialized exactly once across overlapping crashes"
    );
    let mut open = check_vm_conservation(&cluster.engine, &vms);
    open.extend(check_capacity(&cluster.engine));
    open.extend(check_entitlement_conservation(&cluster.engine));
    assert!(open.is_empty(), "conservation broken: {open:#?}");
}

/// Partial evidence never declares: one crashed server in a protected
/// rack keeps bouncing probes, but its rack-mates keep acking — the
/// domain verdict requires *every* member silent, so no failover fires.
#[test]
fn single_server_crash_never_declares_the_rack() {
    let (mut cluster, placements, _vms) = failover_cluster(53);
    let topo = cluster.topo.clone();
    let victim = placements[0].1;
    let plan =
        FaultPlan::new(53).crash(SimTime::from_secs(70), ActorId::new(victim.index() as u32));
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, SimTime::from_secs(200));
    assert_eq!(
        fo_counter(&cluster, |s| s.counters.fo_domains_declared.get()),
        0,
        "a single-server crash must not be declared a domain death"
    );
    assert_eq!(
        fo_counter(&cluster, |s| s.counters.fo_rematerialized.get()),
        0
    );
}

/// The failover path is deterministic: two runs of the identical seeded
/// crash scenario agree on every per-tenant satisfaction value and every
/// failover counter.
#[test]
fn failover_replay_is_deterministic() {
    let run = || {
        let (mut cluster, placements, _vms) = failover_cluster(59);
        let topo = cluster.topo.clone();
        let rack = topo.rack_of(placements[0].1).index();
        let plan = FaultPlan::new(59).crash_rack(SimTime::from_secs(70), rack);
        let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
        driver.run_until(&mut cluster.engine, SimTime::from_secs(150));
        let sat: Vec<(u32, u64)> = customer_satisfaction(&cluster.engine)
            .into_iter()
            .map(|(c, v)| (c, v.to_bits()))
            .collect();
        (
            sat,
            fo_counter(&cluster, |s| s.counters.fo_domains_declared.get()),
            fo_counter(&cluster, |s| s.counters.fo_rematerialized.get()),
            fo_counter(&cluster, |s| s.counters.fo_fences_sent.get()),
            fo_counter(&cluster, |s| s.counters.fo_lease_reverts.get()),
        )
    };
    assert_eq!(run(), run(), "failover replay diverged");
}

/// Direct client sends are not deduplicated, so under a duplicating
/// network a backup site sees the same `FoBackupReserve` more than once.
/// The carve must be idempotent per VM: once the lost rack has been
/// re-materialized and every fence acked, each site's reserved headroom
/// is exactly the sum over the charges it still holds armed — no share
/// of a twice-delivered charge is left behind.
#[test]
fn duplicated_backup_charges_carve_once() {
    use vbundle_chaos::{LinkFault, Scope};

    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_survivability(SurvivabilityConfig {
                    max_frac_per_domain: MAX_FRAC_PER_DOMAIN,
                    backup: BACKUP,
                })
                .with_failover(FailoverConfig {
                    probe_interval: SimDuration::from_secs(5),
                }),
        )
        .seed(61)
        .build();
    let t = SimTime::from_secs;
    let storm = LinkFault::loss(0.0).with_duplicate(0.35, SimDuration::from_millis(2));
    // Boots go through the protocol, so every backup charge crosses the
    // duplicating network.
    let boot_plan = FaultPlan::new(61).degrade_both(t(1), Scope::All, Scope::All, storm);
    let mut driver = ChaosDriver::install(&mut cluster.engine, Arc::clone(&topo), boot_plan);
    driver.run_until(&mut cluster.engine, t(20));
    for c in 0..TENANTS {
        let customer = Customer::new(CustomerId(c), format!("tenant-{c}"));
        for v in 0..VMS_PER_TENANT {
            let spec = ResourceSpec::fixed(ResourceVector::bandwidth_only(bw(VM_MBPS)));
            cluster.request_boot((c as usize + v) % 8, &customer, spec, spec.reservation);
            let next = cluster.now() + SimDuration::from_secs(2);
            driver.run_until(&mut cluster.engine, next);
        }
    }
    driver.run_until(&mut cluster.engine, t(60));
    // The root answers a copy of a boot whose op it has recorded, so a
    // duplicated `Boot` is placed once.
    let placements = cluster.placements();
    assert_eq!(placements.len(), TENANTS as usize * VMS_PER_TENANT);
    let charge = bw(VM_MBPS * BACKUP);
    let armed: usize = (0..8)
        .map(|s| cluster.controller(s).protected_vms().len())
        .sum();
    assert!(armed > 0, "no backup site armed a charge");

    // Lose a rack that hosts something, let failover run, bring the rack
    // back so the fences can ack.
    let rack = topo.rack_of(placements[0].2).index();
    let mut plan = FaultPlan::new(61)
        .degrade_both(t(61), Scope::All, Scope::All, storm)
        .crash_rack(t(70), rack);
    for s in (0..8).filter(|&s| topo.rack_of(topo.server(s)).index() == rack) {
        plan = plan.restart(t(100), ActorId::new(s as u32));
    }
    let mut driver = ChaosDriver::install(&mut cluster.engine, Arc::clone(&topo), plan);
    let open = settle(&mut cluster, &mut driver, t(110), t(240), |c| {
        (0..c.num_servers())
            .filter(|&s| !c.controller(s).fenced_vms().is_empty())
            .map(|s| format!("server {s} still has pending fences"))
            .collect()
    });
    assert!(open.is_empty(), "fences never acked: {open:#?}");
    assert!(fo_counter(&cluster, |s| s.counters.fo_rematerialized.get()) > 0);
    // A re-materialization's result, duplicated or not, is its backup
    // site's own: the entry servers report the tenant boots and no more.
    let results: usize = (0..8)
        .map(|s| cluster.controller(s).stats.boot_results.len())
        .sum();
    assert_eq!(results, TENANTS as usize * VMS_PER_TENANT);
    for s in 0..cluster.num_servers() {
        let ctrl = cluster.controller(s);
        let still_armed = ctrl.protected_vms().len();
        assert_eq!(
            ctrl.backup_reserved().bandwidth,
            charge * still_armed as f64,
            "server {s}: reserved headroom differs from its {still_armed} armed charge(s)"
        );
    }
}

/// The passive half of the same storm: with failover off, a site that
/// sees one VM's `BackupReserve` more than once still carves its share
/// once, so the backup reserved across the cluster is exactly what
/// admission owes — one share per placed VM.
#[test]
fn duplicated_passive_backups_carve_once() {
    use vbundle_chaos::{LinkFault, Scope};

    let topo = Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build(),
    );
    let mut cluster = Cluster::builder(Arc::clone(&topo))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_survivability(SurvivabilityConfig {
                    max_frac_per_domain: MAX_FRAC_PER_DOMAIN,
                    backup: BACKUP,
                }),
        )
        .seed(61)
        .build();
    let t = SimTime::from_secs;
    let storm = LinkFault::loss(0.0).with_duplicate(0.35, SimDuration::from_millis(2));
    let plan = FaultPlan::new(61).degrade_both(t(1), Scope::All, Scope::All, storm);
    let mut driver = ChaosDriver::install(&mut cluster.engine, Arc::clone(&topo), plan);
    driver.run_until(&mut cluster.engine, t(20));
    for c in 0..TENANTS {
        let customer = Customer::new(CustomerId(c), format!("tenant-{c}"));
        for v in 0..VMS_PER_TENANT {
            let spec = ResourceSpec::fixed(ResourceVector::bandwidth_only(bw(VM_MBPS)));
            cluster.request_boot((c as usize + v) % 8, &customer, spec, spec.reservation);
            let next = cluster.now() + SimDuration::from_secs(2);
            driver.run_until(&mut cluster.engine, next);
        }
    }
    driver.run_until(&mut cluster.engine, t(60));
    let placed = cluster.placements().len();
    assert_eq!(placed, TENANTS as usize * VMS_PER_TENANT);
    let stats = |s| &cluster.controller(s).stats;
    assert_eq!((0..8).map(|s| stats(s).backups_unplaced).sum::<u64>(), 0);
    assert_eq!(
        (0..8).map(|s| stats(s).backups_reserved).sum::<u64>(),
        placed as u64,
        "carves per placement"
    );
    let reserved: f64 = (0..8)
        .map(|s| cluster.controller(s).backup_reserved().bandwidth.as_mbps())
        .sum();
    assert_eq!(reserved, placed as f64 * VM_MBPS * BACKUP);
}

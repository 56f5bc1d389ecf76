//! Survivability sweep — the robustness trajectory of survivable
//! placement: crash failure domains of increasing size (single racks,
//! then whole pods) under `Survivable` vs the paper's locality-first
//! `VBundle` walk, and record how far each tenant's satisfied demand
//! falls, how many ticks the staggered restart takes to bring it back,
//! and what the backup carve-outs cost.
//!
//! The headline contract, checked in full mode: under every single-rack
//! crash the survivable policy keeps *every* tenant at or above the
//! degradation floor, while plain v-Bundle — which packs a tenant around
//! its Pastry root — zeroes at least one tenant outright. Results go to
//! `results/survivability_restarts.csv`.
//!
//! Run: `cargo run --release -p vbundle-bench --bin survivability_sweep`
//!
//! `--smoke` gates a small fixed fabric against
//! `results/surv_smoke.golden`, rendered twice with every obs plane off
//! and once with them on — observability must not move a byte.
//!
//! `--failover` switches every fault to crash-only (NO `Restart` event is
//! ever scheduled) and adds a third policy, `survivable+failover`, whose
//! backup sites carry per-VM protection charges: when probe evidence
//! declares the crashed domain dead they re-materialize its VMs onto the
//! reserved headroom. Full mode then checks ≥ `RECOVERY_FRAC`
//! restoration for every rack and pod crash within the tick budget at
//! the passive policy's exact backup overhead, while passive survivable
//! stays at its floor and plain v-Bundle still zeroes a tenant. Results
//! go to `results/survivability_sweep.csv` and `BENCH_surv.json`.
//! `--smoke --failover` gates the crash-only report against
//! `results/surv_failover_smoke.golden`.

use std::collections::BTreeMap;
use std::sync::Arc;

use vbundle_bench::{json_rows, obs_smoke, run_figure, write_bench_json, CliSpec, Figure};
use vbundle_chaos::{check_bounded_degradation, customer_satisfaction, ChaosDriver, FaultPlan};
use vbundle_core::{
    Cluster, ClusterModel, Customer, CustomerId, FailoverConfig, PlacementPolicy, ResourceSpec,
    ResourceVector, SurvivabilityConfig, VBundleConfig, VmRecord,
};
use vbundle_dcn::{Bandwidth, DomainKind, Topology};
use vbundle_pastry::overlay::topology_aware_ids;
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

/// One seed for the whole sweep: the paper's publication date.
const SEED: u64 = 20120618;
/// Per-VM reservation and demand (Mbps) — demand equals reservation, so
/// pre-fault satisfaction is exactly the reserved bandwidth.
const VM_MBPS: f64 = 100.0;
/// Per-server NIC (Mbps).
const NIC_MBPS: f64 = 1000.0;
/// The survivability knobs under test.
const MAX_FRAC_PER_DOMAIN: f64 = 0.5;
const BACKUP: f64 = 0.25;
/// Per-tenant floor on post-fault satisfied demand, as a fraction of the
/// pre-fault baseline.
const DEGRADATION_FLOOR: f64 = 0.45;
/// Recovery target: every tenant back to this fraction of baseline.
const RECOVERY_FRAC: f64 = 0.9;
/// Recovery must land within this many check ticks after the crash.
const MAX_RECOVERY_TICKS: u64 = 20;
/// One recovery check tick (simulated seconds).
const TICK_SECS: u64 = 5;
/// Warm-up before the fault, and the crash instant.
const SETTLE_SECS: u64 = 60;
const FAULT_SECS: u64 = 70;
/// Failover probe cadence (simulated seconds) when `--failover` is on.
const FAILOVER_PROBE_SECS: u64 = 5;

const CLI: CliSpec = CliSpec {
    bin: "survivability_sweep",
    about: "rack/pod crash sweep: survivable vs plain placement, degradation + recovery",
    flags: &[(
        "failover",
        "crash-only faults (no restarts) + backup-activated failover as a third policy",
    )],
    options: &[],
};

/// The fabric and workload one sweep point runs against.
#[derive(Debug, Clone, Copy)]
struct Fabric {
    pods: u32,
    racks_per_pod: u32,
    servers_per_rack: u32,
    tenants: u32,
    vms_per_tenant: usize,
}

impl Fabric {
    fn smoke() -> Fabric {
        Fabric {
            pods: 2,
            racks_per_pod: 2,
            servers_per_rack: 2,
            tenants: 3,
            vms_per_tenant: 4,
        }
    }

    fn full() -> Fabric {
        Fabric {
            pods: 3,
            racks_per_pod: 3,
            servers_per_rack: 3,
            tenants: 6,
            vms_per_tenant: 8,
        }
    }

    fn topology(&self) -> Arc<Topology> {
        Arc::new(
            Topology::builder()
                .pods(self.pods)
                .racks_per_pod(self.racks_per_pod)
                .servers_per_rack(self.servers_per_rack)
                .build(),
        )
    }
}

/// What one (policy, fault) run measured. Every field is
/// sim-deterministic: satisfaction comes from the shaper's water-fill,
/// recovery from the staggered restart schedule.
struct Outcome {
    policy: &'static str,
    fault: String,
    servers_lost: usize,
    /// Worst tenant's post-fault satisfaction, % of its baseline.
    min_sat_pct: f64,
    /// Tenants whose satisfied demand dropped to zero.
    zeroed: usize,
    /// Whether `check_bounded_degradation` held at the floor.
    floor_ok: bool,
    /// Ticks until every tenant was back to `RECOVERY_FRAC` of baseline.
    recover_ticks: Option<u64>,
    /// Worst tenant's satisfaction when recovery landed (or at the end of
    /// the tick budget), % of its baseline — how far the fabric actually
    /// came back.
    restored_sat_pct: f64,
    /// Cluster-wide backup carve-out, % of total NIC capacity.
    backup_pct: f64,
}

/// Offline-places the fabric's workload with `policy`, seeds a protocol
/// cluster with the assignment (backup carve-outs included), crashes one
/// failure domain, then watches per-tenant satisfaction recover — via
/// staggered restarts when `restarts` is set, or purely via
/// backup-activated failover when `failover` is set (the crashed servers
/// then stay dead forever and the plan carries no `Restart` event).
#[allow(clippy::too_many_arguments)]
fn run_case(
    fabric: Fabric,
    policy: PlacementPolicy,
    policy_name: &'static str,
    kind: DomainKind,
    domain: usize,
    failover: bool,
    restarts: bool,
    obs: bool,
) -> Outcome {
    let topo = fabric.topology();
    let ids = topology_aware_ids(&topo);
    let mut model = ClusterModel::new(
        Arc::clone(&topo),
        ids,
        ResourceVector::bandwidth_only(Bandwidth::from_mbps(NIC_MBPS)),
    );
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut vb = VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(5))
        .with_rebalance_interval(SimDuration::from_secs(1000));
    if failover {
        vb = vb
            .with_survivability(SurvivabilityConfig {
                max_frac_per_domain: MAX_FRAC_PER_DOMAIN,
                backup: BACKUP,
            })
            .with_failover(FailoverConfig {
                probe_interval: SimDuration::from_secs(FAILOVER_PROBE_SECS),
            });
    }
    let mut builder = Cluster::builder(Arc::clone(&topo))
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(vb)
        .seed(SEED);
    if obs {
        builder = builder.flight_recorder(4096);
    }
    let mut cluster = builder.build();
    if obs {
        cluster.engine.enable_profiling();
    }

    for c in 0..fabric.tenants {
        let customer = Customer::new(CustomerId(c), format!("tenant-{c}"));
        for _ in 0..fabric.vms_per_tenant {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                customer.id,
                ResourceSpec::fixed(ResourceVector::bandwidth_only(Bandwidth::from_mbps(
                    VM_MBPS,
                ))),
            );
            vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(VM_MBPS));
            let host = match policy {
                PlacementPolicy::Survivable {
                    max_frac_per_domain,
                    backup,
                } => model.place_survivable(customer.key, vm, max_frac_per_domain, backup),
                _ => model.place_vbundle(customer.key, vm),
            }
            .expect("fabric has room for every VM");
            cluster.install_vm(host, vm);
        }
    }
    let mut backup_total = 0.0;
    for s in 0..topo.num_servers() {
        let server = topo.server(s);
        let backup = model.backup_reserved(server);
        if backup.bandwidth.as_mbps() > 0.0 {
            backup_total += backup.bandwidth.as_mbps();
            if !failover {
                cluster.install_backup(server, backup);
            }
        }
    }
    if failover {
        // Per-VM protection charges reserve the same total headroom the
        // bulk carve would, but also tell each backup site which VM it
        // protects and where that VM's primary lives — the evidence base
        // the failover probes and declarations run on.
        for charge in model.backup_charges().to_vec() {
            cluster.install_backup_charge(charge.site, charge.vm, charge.primary, charge.amount);
        }
    }
    cluster.reindex();
    cluster.run_until(SimTime::from_secs(SETTLE_SECS));

    let baseline = customer_satisfaction(&cluster.engine);
    let lost = topo.domain_servers(kind, domain);
    let t = SimTime::from_secs;
    let mut plan = match kind {
        DomainKind::Rack => FaultPlan::new(SEED).crash_rack(t(FAULT_SECS), domain),
        DomainKind::Pod => FaultPlan::new(SEED).crash_pod(t(FAULT_SECS), domain),
    };
    if restarts {
        for (i, s) in lost.iter().enumerate() {
            let at = t(FAULT_SECS + TICK_SECS * (i as u64 + 1));
            plan = plan.restart(at, ActorId::new(s.index() as u32));
        }
    }
    let mut driver = ChaosDriver::install(&mut cluster.engine, Arc::clone(&topo), plan);

    // Mid-fault: measure the damage before the first restart fires.
    driver.run_until(&mut cluster.engine, t(FAULT_SECS + 1));
    let floor_ok =
        check_bounded_degradation(&cluster.engine, &baseline, DEGRADATION_FLOOR).is_empty();
    let mid = customer_satisfaction(&cluster.engine);
    let mut min_frac = f64::INFINITY;
    let mut zeroed = 0;
    for (customer, &base) in &baseline {
        if base <= 1e-9 {
            continue;
        }
        let cur = mid.get(customer).copied().unwrap_or(0.0);
        min_frac = min_frac.min(cur / base);
        if cur <= 1e-9 {
            zeroed += 1;
        }
    }

    // Recovery: count ticks until every tenant is back — brought back by
    // the staggered restarts, or (crash-only) by failover re-materializing
    // the lost VMs onto backup headroom.
    let mut recover_ticks = None;
    let mut restored_frac = 0.0f64;
    for tick in 1..=MAX_RECOVERY_TICKS {
        driver.run_until(&mut cluster.engine, t(FAULT_SECS + 1 + TICK_SECS * tick));
        let sat = customer_satisfaction(&cluster.engine);
        restored_frac = f64::INFINITY;
        let mut ok = true;
        for (c, &b) in &baseline {
            if b <= 1e-9 {
                continue;
            }
            let cur = sat.get(c).copied().unwrap_or(0.0);
            restored_frac = restored_frac.min(cur / b);
            if cur + 1e-6 < RECOVERY_FRAC * b {
                ok = false;
            }
        }
        if ok {
            recover_ticks = Some(tick);
            break;
        }
    }
    cluster.engine.take_injector();

    Outcome {
        policy: policy_name,
        fault: format!("{kind}{domain}"),
        servers_lost: lost.len(),
        min_sat_pct: 100.0 * min_frac,
        zeroed,
        floor_ok,
        recover_ticks,
        restored_sat_pct: 100.0 * restored_frac,
        backup_pct: 100.0 * backup_total / (NIC_MBPS * topo.num_servers() as f64),
    }
}

/// The policies a sweep compares, each with its name and whether its
/// backup sites fail over. Without `crash_only`: survivable vs plain
/// placement, faults followed by staggered restarts. With it, the
/// `--failover` ladder: plain walk, passive survivable placement,
/// survivable placement with backup-activated failover. All three face
/// crash-only plans — the dead servers never restart, so any recovery is
/// failover's doing alone.
fn variants(crash_only: bool) -> Vec<(PlacementPolicy, &'static str, bool)> {
    let surv = PlacementPolicy::Survivable {
        max_frac_per_domain: MAX_FRAC_PER_DOMAIN,
        backup: BACKUP,
    };
    let plain = (PlacementPolicy::VBundle, "vbundle", false);
    if crash_only {
        vec![
            plain,
            (surv, "survivable", false),
            (surv, "survivable+failover", true),
        ]
    } else {
        vec![(surv, "survivable", false), plain]
    }
}

/// Every variant against every failure domain of the fabric, racks first
/// (smallest blast radius), then pods.
fn outcomes(fabric: Fabric, crash_only: bool, obs: bool) -> Vec<Outcome> {
    let topo = fabric.topology();
    let racks = (0..topo.num_racks()).map(|r| (DomainKind::Rack, r));
    let faults: Vec<_> = racks
        .chain((0..topo.pods().count()).map(|p| (DomainKind::Pod, p)))
        .collect();
    let mut out = Vec::new();
    for (policy, name, failover) in variants(crash_only) {
        for &(kind, domain) in &faults {
            out.push(run_case(
                fabric,
                policy,
                name,
                kind,
                domain,
                failover,
                !crash_only,
                obs,
            ));
        }
    }
    out
}

/// One outcome as a smoke line; the crash-only render adds the restored
/// column — how far the worst tenant came back with the crashed servers
/// permanently dead.
fn render_line(o: &Outcome, crash_only: bool) -> String {
    let recover = o.recover_ticks.map_or("DNR".into(), |n| n.to_string());
    let restored = match crash_only {
        true => format!(" restored={:.1}%", o.restored_sat_pct),
        false => String::new(),
    };
    format!(
        "{} {} lost={} min_sat={:.1}%{restored} zeroed={} floor={} recover_ticks={recover} backup={:.2}%",
        o.policy,
        o.fault,
        o.servers_lost,
        o.min_sat_pct,
        o.zeroed,
        if o.floor_ok { "ok" } else { "BROKEN" },
        o.backup_pct
    )
}

/// The smoke report: every variant over every fault of the small
/// fabric. Deterministic by construction — nothing in an [`Outcome`]
/// reads the wall clock.
fn smoke_report(crash_only: bool, obs: bool) -> String {
    let mut out = match crash_only {
        true => format!("# failover smoke: crash-only, no restarts (seed {SEED})\n"),
        false => format!("# survivability smoke (seed {SEED})\n"),
    };
    for o in outcomes(Fabric::smoke(), crash_only, obs) {
        out.push_str(&render_line(&o, crash_only));
        out.push('\n');
    }
    out
}

const CSV_HEADER: &str =
    "policy,fault,servers_lost,min_sat_pct,restored_sat_pct,zeroed,floor_ok,recover_ticks,backup_pct";

fn csv_row(o: &Outcome) -> String {
    format!(
        "{},{},{},{:.1},{:.1},{},{},{},{:.2}",
        o.policy,
        o.fault,
        o.servers_lost,
        o.min_sat_pct,
        o.restored_sat_pct,
        o.zeroed,
        o.floor_ok,
        o.recover_ticks.map_or(-1i64, |n| n as i64),
        o.backup_pct
    )
}

fn write_surv_json(outcomes: &[Outcome]) {
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{{\"policy\": \"{}\", \"fault\": \"{}\", \"servers_lost\": {}, \
                 \"min_sat_pct\": {:.1}, \"restored_sat_pct\": {:.1}, \"zeroed\": {}, \
                 \"floor_ok\": {}, \"recover_ticks\": {}, \"backup_pct\": {:.2}}}",
                o.policy,
                o.fault,
                o.servers_lost,
                o.min_sat_pct,
                o.restored_sat_pct,
                o.zeroed,
                o.floor_ok,
                o.recover_ticks.map_or(-1i64, |n| n as i64),
                o.backup_pct
            )
        })
        .collect();
    write_bench_json(
        "surv",
        "survivability_sweep",
        &[
            ("seed", SEED.to_string()),
            ("max_frac_per_domain", MAX_FRAC_PER_DOMAIN.to_string()),
            ("backup", BACKUP.to_string()),
            ("degradation_floor", DEGRADATION_FLOOR.to_string()),
            ("outcomes", json_rows(&rows)),
        ],
    );
}

/// Full `--failover` mode: every rack and pod crash, crash-only, across
/// the three policy variants. The headline contract: failover restores
/// every tenant to ≥ [`RECOVERY_FRAC`] of baseline within the tick
/// budget at exactly the passive policy's backup overhead — without a
/// single `Restart` event in any plan — while passive survivable stays
/// degraded and plain v-Bundle zeroes a tenant.
fn failover_sweep(fig: &mut Figure, outcomes: &[Outcome]) {
    let per_policy = by_policy(outcomes);
    let fo = &per_policy["survivable+failover"];
    let frac = 100.0 * RECOVERY_FRAC;
    let rule = format!("failover restores every fault within {MAX_RECOVERY_TICKS} ticks");
    check_each(fig, "failover_recovers", rule, fo, |o| {
        o.recover_ticks.is_some()
    });
    let rule = format!("failover restores every tenant to >= {frac:.0} % of baseline");
    check_each(fig, "failover_restores", rule, fo, |o| {
        o.restored_sat_pct + 1e-6 >= frac
    });
    let rule = "failover keeps the mid-fault degradation floor";
    check_each(fig, "failover_floor", rule, fo, |o| o.floor_ok);
    // Identical placement, identical carve: activating failover costs no
    // extra reserved bandwidth.
    let passive = &per_policy["survivable"];
    let costlier: Vec<String> = fo
        .iter()
        .zip(passive)
        .filter(|(f, p)| f.fault != p.fault || f.backup_pct.to_bits() != p.backup_pct.to_bits())
        .map(|(f, p)| {
            format!(
                "{} {:.2} % vs {} {:.2} %",
                f.fault, f.backup_pct, p.fault, p.backup_pct
            )
        })
        .collect();
    let rule = "failover reserves exactly the passive policy's backup";
    fig.check_none("failover_backup_equal", rule, &costlier);
    let degraded = passive
        .iter()
        .filter(|o| o.restored_sat_pct + 1e-6 < frac)
        .count();
    let detail = format!("{degraded} crash-only faults leave passive survivable below {frac:.0} %");
    fig.check("passive_stays_degraded", degraded > 0, detail);
}

/// Full mode without `--failover`: every rack and pod crash, each
/// followed by staggered restarts. The headline contract: survivable
/// keeps every tenant above the floor under every fault and recovers
/// within the tick budget.
fn restart_sweep(fig: &mut Figure, outcomes: &[Outcome]) {
    let per_policy = by_policy(outcomes);
    let surv = &per_policy["survivable"];
    let floor = 100.0 * DEGRADATION_FLOOR;
    let rule = format!("survivable keeps every tenant >= {floor:.0} % of baseline");
    check_each(fig, "survivable_floor", rule, surv, |o| {
        o.floor_ok && o.min_sat_pct >= floor
    });
    let rule = format!("survivable recovers every fault within {MAX_RECOVERY_TICKS} ticks");
    check_each(fig, "survivable_recovers", rule, surv, |o| {
        o.recover_ticks.is_some()
    });
    let rule = "survivable reserves backup bandwidth";
    check_each(fig, "survivable_backup", rule, surv, |o| o.backup_pct > 0.0);
}

/// The outcomes grouped by policy, each in run order.
fn by_policy(outcomes: &[Outcome]) -> BTreeMap<&'static str, Vec<&Outcome>> {
    let mut per_policy: BTreeMap<&str, Vec<&Outcome>> = BTreeMap::new();
    for o in outcomes {
        per_policy.entry(o.policy).or_default().push(o);
    }
    per_policy
}

/// Checks that every outcome of `outcomes` holds `holds`, naming the
/// faults where it does not.
fn check_each(
    fig: &mut Figure,
    name: &str,
    rule: impl std::fmt::Display,
    outcomes: &[&Outcome],
    holds: impl Fn(&Outcome) -> bool,
) {
    let broken: Vec<String> = outcomes
        .iter()
        .filter(|o| !holds(o))
        .map(|o| render_line(o, true))
        .collect();
    fig.check_none(name, rule, &broken);
}

fn main() {
    let mut observed = false;
    run_figure(&CLI, |args| {
        let crash_only = args.flag("failover");
        if args.smoke() {
            let golden = match crash_only {
                true => "surv_failover_smoke.golden",
                false => "surv_smoke.golden",
            };
            return obs_smoke(golden, &mut observed, |obs| smoke_report(crash_only, obs));
        }
        let mut fig = Figure::default();
        let outcomes = outcomes(Fabric::full(), crash_only, false);
        let rows: Vec<String> = outcomes.iter().map(csv_row).collect();
        if crash_only {
            failover_sweep(&mut fig, &outcomes);
            fig.table("survivability_sweep.csv", CSV_HEADER, rows);
            write_surv_json(&outcomes);
        } else {
            restart_sweep(&mut fig, &outcomes);
            fig.table("survivability_restarts.csv", CSV_HEADER, rows);
        }
        // Plain v-Bundle packs a tenant around its Pastry root: some rack
        // crash must zero a tenant outright.
        let zeroing = outcomes
            .iter()
            .filter(|o| o.policy == "vbundle" && o.fault.starts_with("rack") && o.zeroed > 0)
            .count();
        let detail = format!("{zeroing} rack crashes zero a tenant under plain v-Bundle");
        fig.check("plain_zeroes_a_tenant", zeroing > 0, detail);
        fig
    });
}

//! Chaos sweep — recovery metrics for the full v-Bundle stack under four
//! deterministic fault scenarios: correlated crashes with later restarts,
//! a rack-level network partition, a lossy-network window, and a
//! duplicate-storm that stresses delivery idempotency.
//!
//! Every scenario is executed **twice from scratch** and the two recovery
//! reports are checked byte-identical — the reproducibility claim of the
//! `vbundle-chaos` subsystem, checked on every run.
//!
//! A second section runs the phi-accrual failure detector under
//! degraded-but-alive networks: every detector-driven eviction there is
//! a false positive, because no node ever actually dies.
//!
//! The full sweep ends on a **guard** check: no scenario takes longer to
//! repair than it did when this guard was written, no invariant is open
//! at any deadline, and the adaptive detector evicts nobody and needs no
//! time to reconverge on any degraded-but-alive plan. A change that
//! trades detection quality for fewer messages has to edit the ceilings
//! here, in the open; otherwise the binary exits 1.
//!
//! Run: `cargo run --release -p vbundle-bench --bin chaos_sweep`
//!
//! `--smoke` gates one scenario's report against
//! `results/chaos_smoke.golden`, rendered twice with every observability
//! plane off and once with the flight recorder and profiler on: obs
//! observes, never steers, so all three must be byte-equal.

use std::sync::Arc;

use vbundle_bench::{obs_smoke, run_figure, CliSpec, Figure};
use vbundle_chaos::{
    check_aggregation, check_capacity, check_entitlement_conservation, check_leaf_sets,
    check_scribe_trees, check_vm_conservation, run_scenario, FaultPlan, LinkFault, RecoveryReport,
    ScenarioSpec, Scope,
};
use vbundle_core::{
    bw_demand_topic, Cluster, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VbEngine,
    VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

const SEED: u64 = 20120618; // ICDCS'12

fn topology() -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(4)
            .build(),
    )
}

/// Builds the cluster fresh (same seed every time), with the flight
/// recorder and profiler on when `obs` is set, seeds a skewed VM
/// population and warms the overlay up, returning the VM ids installed.
fn build_cluster(obs: bool) -> (Cluster, Vec<VmId>) {
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut builder = Cluster::builder(topology())
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(5)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(10))
                .with_rebalance_interval(SimDuration::from_secs(20)),
        )
        .seed(SEED);
    if obs {
        builder = builder.flight_recorder(8192);
    }
    let mut cluster = builder.build();
    if obs {
        cluster.engine.enable_profiling();
    }
    let mut vms = Vec::new();
    let demand = Bandwidth::from_mbps(100.0);
    for server in 0..cluster.num_servers() {
        // Front half of the cluster overloaded, back half lightly loaded,
        // so the shuffling protocol has migrations to run during faults.
        let count = if server < cluster.num_servers() / 2 {
            4
        } else {
            1
        };
        for _ in 0..count {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(server as u32 % 4),
                ResourceSpec::fixed(ResourceVector::bandwidth_only(demand)),
            );
            vm.demand = ResourceVector::bandwidth_only(demand);
            cluster.install_vm(cluster.topo.server(server), vm);
            vms.push(id);
        }
    }
    cluster.run_until(SimTime::from_secs(60));
    (cluster, vms)
}

/// All structural invariants of the stack, as one closure-friendly check.
/// Entitlement conservation is included everywhere: trivially true for the
/// non-trading scenarios (empty books) and load-bearing for lender-crash.
fn structural(engine: &VbEngine, expected: &[VmId]) -> Vec<String> {
    let mut v = check_leaf_sets(engine);
    v.extend(check_scribe_trees(engine));
    v.extend(check_vm_conservation(engine, expected));
    v.extend(check_capacity(engine));
    v.extend(check_entitlement_conservation(engine));
    v
}

fn failed_migrations(engine: &VbEngine) -> u64 {
    engine
        .actors()
        .map(|(_, node)| node.app().client().stats.migrations_failed)
        .sum()
}

/// Cluster-wide count of leaf-set members evicted by the failure
/// detector. Evictions triggered by bounced sends to genuinely dead
/// actors are *not* counted, so under degraded-but-alive plans this is
/// the false-positive count.
fn detector_evictions(engine: &VbEngine) -> u64 {
    engine
        .actors()
        .map(|(_, node)| node.detector_evictions())
        .sum()
}

/// Plays `plan` on a fresh cluster; also returns the detector evictions.
fn play(name: &str, plan: FaultPlan, obs: bool) -> (RecoveryReport, u64) {
    let (mut cluster, vms) = build_cluster(obs);
    let spec = ScenarioSpec {
        name: name.to_string(),
        check_interval: SimDuration::from_secs(1),
        deadline: SimDuration::from_secs(120),
    };
    let topo = cluster.topo.clone();
    let report = run_scenario(
        &mut cluster.engine,
        topo,
        plan,
        &spec,
        |engine| structural(engine, &vms),
        |engine| check_aggregation(engine, bw_demand_topic(), 1e-6).is_empty(),
        failed_migrations,
    );
    let evictions = detector_evictions(&cluster.engine);
    (report, evictions)
}

/// Trading cluster for the lender-crash scenario: the base skewed
/// population plus a starved customer-0 VM on server 0 whose only
/// possible lender is a fat idle sibling on server 1. Warm-up must
/// commit at least one lease, or the scenario would be vacuous: the
/// leases live after warm-up are returned last.
fn build_trading_cluster() -> (Cluster, Vec<VmId>, usize) {
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(topology())
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(5)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(10))
                .with_rebalance_interval(SimDuration::from_secs(1000))
                .with_bundle_trading(true),
        )
        .seed(SEED)
        .build();
    let mut vms = Vec::new();
    let hot = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        hot,
        CustomerId(0),
        ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(100.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(300.0));
    cluster.install_vm(cluster.topo.server(0), vm);
    vms.push(hot);
    let lender = cluster.alloc_vm_id();
    let mut vm = VmRecord::new(
        lender,
        CustomerId(0),
        ResourceSpec::bandwidth(Bandwidth::from_mbps(200.0), Bandwidth::from_mbps(200.0)),
    );
    vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(2.0));
    cluster.install_vm(cluster.topo.server(1), vm);
    vms.push(lender);
    // Background tenants whose demand equals their reservation: they
    // neither need to borrow nor have slack to lend, so the one lease
    // pair above is the only trade in flight.
    let demand = Bandwidth::from_mbps(100.0);
    for server in 2..cluster.num_servers() {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(1 + server as u32 % 3),
            ResourceSpec::fixed(ResourceVector::bandwidth_only(demand)),
        );
        vm.demand = ResourceVector::bandwidth_only(demand);
        cluster.install_vm(cluster.topo.server(server), vm);
        vms.push(id);
    }
    cluster.run_until(SimTime::from_secs(60));
    let leases = cluster.active_leases();
    (cluster, vms, leases)
}

/// Lender-crash scenario: the only lending server dies mid-lease and
/// later returns. Recovery requires the borrower to revert its credit
/// (renewal bounce or failure detection), with entitlement conservation
/// and the shaper ceiling checked on every tick via `structural`. Also
/// returns what broke the scenario's own premises.
fn play_lender_crash() -> (RecoveryReport, Vec<String>) {
    let (mut cluster, vms, leases) = build_trading_cluster();
    let t = SimTime::from_secs;
    let plan = FaultPlan::new(SEED)
        .crash(t(90), ActorId::new(1))
        .restart(t(150), ActorId::new(1));
    let spec = ScenarioSpec {
        name: "lender-crash".to_string(),
        check_interval: SimDuration::from_secs(1),
        deadline: SimDuration::from_secs(120),
    };
    let topo = cluster.topo.clone();
    let report = run_scenario(
        &mut cluster.engine,
        topo,
        plan,
        &spec,
        |engine| structural(engine, &vms),
        |engine| check_aggregation(engine, bw_demand_topic(), 1e-6).is_empty(),
        failed_migrations,
    );
    // The lender may legitimately be re-lending after its restart, so no
    // lease-count check here — only that trading really ran and the
    // ledger is conserved once the network quiesced.
    let grants: u64 = (0..cluster.num_servers())
        .map(|i| cluster.controller(i).trade_book().stats.grants_sent.get())
        .sum();
    let mut broken = check_entitlement_conservation(&cluster.engine);
    if leases == 0 {
        broken.push("warmed up without committing a lease".into());
    }
    if grants == 0 {
        broken.push("never granted a lease".into());
    }
    (report, broken)
}

fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    let t = SimTime::from_secs;
    vec![
        (
            "crash-restart",
            FaultPlan::new(SEED)
                .crash(t(90), ActorId::new(2))
                .crash(t(90), ActorId::new(11))
                .restart(t(150), ActorId::new(2))
                .restart(t(150), ActorId::new(11)),
        ),
        (
            "rack-partition",
            FaultPlan::new(SEED)
                .partition(t(90), Scope::Rack(0), Scope::All)
                .heal(t(135)),
        ),
        (
            "lossy-network",
            FaultPlan::new(SEED)
                .degrade(
                    t(90),
                    Scope::All,
                    Scope::All,
                    LinkFault::loss(0.05).with_duplicate(0.01, SimDuration::from_millis(2)),
                )
                .clear_degradations(t(150)),
        ),
        (
            // Heavy duplication, zero loss: every third message delivered
            // twice. Exercises delivery idempotency end to end — duplicate
            // Boot/Migrate/Publish handling must not double-install VMs or
            // double-disseminate, or the VM-conservation and aggregation
            // invariants below fail.
            "duplicate-storm",
            FaultPlan::new(SEED)
                .degrade(
                    t(90),
                    Scope::All,
                    Scope::All,
                    LinkFault::loss(0.0).with_duplicate(0.35, SimDuration::from_millis(2)),
                )
                .clear_degradations(t(150)),
        ),
    ]
}

/// Degraded-but-alive plans for the detector section: nobody dies, so
/// every detector eviction is a false positive.
fn degraded_plans() -> Vec<(&'static str, FaultPlan)> {
    let t = SimTime::from_secs;
    let window = |fault: LinkFault| {
        FaultPlan::new(SEED)
            .degrade(t(90), Scope::All, Scope::All, fault)
            .clear_degradations(t(210))
    };
    vec![
        ("lossy-10pct", window(LinkFault::loss(0.10))),
        ("lossy-15pct", window(LinkFault::loss(0.15))),
        (
            "slow-link-1600ms",
            window(LinkFault::slow(SimDuration::from_millis(1600))),
        ),
    ]
}

/// The longest a scenario may take from its last fault until every
/// structural invariant holds again: what it took at PR 19, when the
/// leaf-set heartbeat acks went. Loss and duplication alone must never
/// open an invariant at all.
fn repair_ceiling(scenario: &str) -> SimDuration {
    SimDuration::from_secs(match scenario {
        "crash-restart" => 6,
        "rack-partition" => 11,
        "lender-crash" => 1,
        _ => 0,
    })
}

/// Checks one report against the guard, listing what it breaks.
fn guard(report: &RecoveryReport, ceiling: SimDuration, broken: &mut Vec<String>) {
    let name = &report.scenario;
    if !report.violations_at_deadline.is_empty() {
        broken.push(format!("{name}: invariants open at the deadline"));
    }
    if report.time_to_repair().is_none_or(|d| d > ceiling) {
        let took = fmt_opt(report.time_to_repair());
        broken.push(format!("{name}: time to repair {took}, ceiling {ceiling}"));
    }
}

fn fmt_opt(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => d.to_string(),
        None => "DID NOT REPAIR".into(),
    }
}

/// Runs the detector under the degraded-but-alive plans and returns the
/// CSV rows, all under the guard: no false eviction (every eviction is a
/// false positive, since no node dies), nothing to reconverge from.
fn detector_quality(broken: &mut Vec<String>) -> Vec<String> {
    let mut rows = Vec::new();
    for (name, plan) in degraded_plans() {
        let (report, evicted) = play(name, plan, false);
        guard(&report, SimDuration::ZERO, broken);
        if evicted > 0 {
            broken.push(format!("{name}: phi-accrual evicted {evicted} live peers"));
        }
        let reconverge = fmt_opt(report.time_to_repair());
        rows.push(format!("{name},{evicted},{reconverge}"));
    }
    rows
}

const CLI: CliSpec = CliSpec {
    bin: "chaos_sweep",
    about: "recovery metrics for the full stack under deterministic fault scenarios",
    flags: &[],
    options: &[],
};

fn main() {
    let mut observed = false;
    run_figure(&CLI, |args| {
        if args.smoke() {
            return obs_smoke("chaos_smoke.golden", &mut observed, |obs| {
                let (name, plan) = scenarios().remove(0);
                play(name, plan, obs).0.to_string()
            });
        }
        sweep()
    });
}

fn sweep() -> Figure {
    let mut fig = Figure::default();
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    let mut unstable = Vec::new();
    let mut record = |name: &str, first: RecoveryReport, second: RecoveryReport| {
        guard(&first, repair_ceiling(name), &mut broken);
        if first.to_string() != second.to_string() {
            unstable.push(name.to_string());
        }
        let f = &first.faults;
        let injected = format!(
            "{} dropped, {} delayed, {} duplicated, {} corrupted",
            f.dropped, f.delayed, f.duplicated, f.corrupted
        );
        fig.claim(format!("{name}_injected"), injected);
        let messages = first
            .messages_to_repair
            .map_or("n/a".into(), |n| n.to_string());
        let staleness = first
            .aggregate_staleness()
            .map_or("DID NOT CONVERGE".into(), |d| d.to_string());
        rows.push(format!(
            "{name},{},{messages},{staleness},{}",
            fmt_opt(first.time_to_repair()),
            first.failed_migrations,
        ));
    };
    for (name, plan) in scenarios() {
        let first = play(name, plan.clone(), false).0;
        let second = play(name, plan, false).0;
        record(name, first, second);
    }
    let ((first, mut lender_broken), (second, again)) = (play_lender_crash(), play_lender_crash());
    record("lender-crash", first, second);
    lender_broken.extend(again);
    fig.table(
        "chaos_sweep.csv",
        "scenario,time_to_repair,messages_to_repair,aggregate_staleness,failed_migrations",
        rows,
    );
    let detector_rows = detector_quality(&mut broken);
    fig.table(
        "chaos_detectors.csv",
        "plan,fp_evictions_phi,reconverge_phi",
        detector_rows,
    );
    let rule = "two runs of each scenario report byte-identically";
    fig.check_none("deterministic", rule, &unstable);
    let rule = "lender-crash commits a lease in warm-up, grants, conserves entitlement";
    fig.check_none("lender_crash_trades", rule, &lender_broken);
    let rule = "repair times within their ceilings, no open invariant, phi evicted nobody";
    fig.check_none("guard", rule, &broken);
    fig
}

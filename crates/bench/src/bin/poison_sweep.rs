//! Poison sweep — TrustAll vs Defensive aggregation under corrupted
//! reporters.
//!
//! A 40-server cluster with a skewed load (every 5th server heavy) runs
//! the shuffling protocol while `f` servers poison every aggregation
//! payload they send, for each corruption mode. Each `(policy, mode, f)`
//! cell reports:
//!
//! - the worst steering error: max over 5 s samples of the poison window
//!   and over servers of |effective mean − honest ground-truth mean|
//!   (`none` = some server steered on no mean at all);
//! - how many samples had any server outside the ε bound
//!   ([`check_global_mean`]);
//! - shuffle actions (load-balance queries + migrations started) in the
//!   poison window — the migration-storm metric;
//! - defense counters: reports rejected by the aggregator, payloads
//!   screened at the Scribe layer, gate rejections and conservative
//!   intervals.
//!
//! Checked acceptance criteria: every **Defensive** cell keeps the worst
//! steering error ≤ ε and its shuffle actions within the no-poison
//! baseline envelope (no storms), while **TrustAll** at 10 % corruption
//! measurably violates the ε bound (NaN / Negative / HugeScale) and, for
//! HugeScale, floods the cluster with futile shed queries.
//!
//! Run: `cargo run --release -p vbundle-bench --bin poison_sweep`
//!
//! `--smoke` gates one Defensive cell against
//! `results/poison_smoke.golden`.

use std::fmt::Write as _;
use std::sync::Arc;

use vbundle_aggregation::{AggregationConfig, Robustness};
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_chaos::{check_global_mean, ChaosDriver, FaultPlan};
use vbundle_core::{
    Cluster, CustomerId, ResourceKind, ResourceSpec, ResourceVector, VBundleConfig, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, CorruptionMode, SimDuration, SimTime};

const SEED: u64 = 20120618; // ICDCS'12
/// Steering-error tolerance of the acceptance gate. Sized to cover the
/// one corruption no validator can flag — Frozen reports are stale but
/// in-range and self-consistent, so their residual error is bounded by
/// how much the real load moves while the report is stale (the mid-run
/// demand spike, ≈ 0.03 utilization) plus the zeroed-subtree residual,
/// not by any plausibility check. TrustAll's distortions overshoot this
/// by one to four orders of magnitude.
const EPS: f64 = 0.06;
/// Poison starts here (the overlay settles first) and never clears.
const POISON_AT: u64 = 70;
/// The demand spike lands here, well inside the poison window.
const SPIKE_AT: u64 = 100;
/// Counters are snapshotted just before the poison and read at the end.
const END_AT: u64 = 250;

fn topology() -> Arc<Topology> {
    Arc::new(
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(10)
            .build(),
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    TrustAll,
    Defensive,
}

impl Policy {
    fn name(self) -> &'static str {
        match self {
            Policy::TrustAll => "trust-all",
            Policy::Defensive => "defensive",
        }
    }
}

/// Fresh cluster under `policy`. Servers ≡ 1 (mod 5) — the poisoning
/// designates — host one tiny 8 Mbps VM (util 0.008) and stay pinned far
/// below the mean; everyone else hosts five 80 Mbps VMs (util 0.4), so
/// the honest cluster mean is ≈ 0.32. The pinning matters: a reporter
/// whose sample is amplified a million-fold drags the TrustAll mean to
/// its *own* utilization, and 0.008 is ruinously far from 0.32 — while a
/// reporter sitting at the mean would poison nothing.
fn build_cluster(policy: Policy) -> Cluster {
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let robustness = match policy {
        Policy::TrustAll => Robustness::TrustAll,
        Policy::Defensive => Robustness::Defensive,
    };
    let vbundle = VBundleConfig::default()
        .with_update_interval(SimDuration::from_secs(10))
        .with_rebalance_interval(SimDuration::from_secs(20))
        .with_mean_gate(policy == Policy::Defensive)
        .with_mean_jump_bound(0.15);
    let mut cluster = Cluster::builder(topology())
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(5)))
        .aggregation(AggregationConfig {
            robustness,
            ..AggregationConfig::default()
        })
        .vbundle(vbundle)
        .seed(SEED)
        .build();
    for server in 0..cluster.num_servers() {
        let (count, mbps) = if server % 5 == 1 { (1, 8.0) } else { (5, 80.0) };
        for _ in 0..count {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(server as u32 % 4),
                // Reservation at the demand, limit well above it, so the
                // mid-run demand spike is not clamped away.
                ResourceSpec::bandwidth(Bandwidth::from_mbps(mbps), Bandwidth::from_mbps(300.0)),
            );
            vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(mbps));
            cluster.install_vm(cluster.topo.server(server), vm);
        }
    }
    cluster.run_until(SimTime::from_secs(60));
    cluster
}

/// Mid-poison demand spike: servers ≡ 2 (mod 10) jump from util 0.4 to
/// 0.7, handing the shuffle real work *while* the poison flows — the
/// defended cluster must still shed them toward the light servers, the
/// ablation must not.
fn spike_demand(cluster: &mut Cluster) {
    cluster.reindex();
    let spiked: Vec<_> = (0..cluster.num_servers())
        .filter(|s| s % 10 == 2)
        .flat_map(|s| {
            cluster
                .controller(s)
                .vms()
                .iter()
                .map(|vm| vm.id)
                .collect::<Vec<_>>()
        })
        .collect();
    for vm in spiked {
        let ok = cluster.set_vm_demand(
            vm,
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(140.0)),
        );
        assert!(ok, "spiked VM {vm:?} vanished");
    }
}

/// The poisoned reporters for corruption fraction `f` of the cluster —
/// lightly loaded servers (indexes ≡ 1 mod 5), deterministically spread.
fn corrupted_nodes(n: usize, f: usize) -> Vec<ActorId> {
    (0..f)
        .map(|i| ActorId::new(((1 + 5 * i) % n) as u32))
        .collect()
}

fn poison_plan(nodes: &[ActorId], mode: CorruptionMode) -> FaultPlan {
    let mut plan = FaultPlan::new(SEED);
    for &node in nodes {
        plan = plan.corrupt_aggregate(SimTime::from_secs(POISON_AT), node, mode);
    }
    plan
}

/// One cell's measurements, rendered from simulated state only so reruns
/// are byte-identical.
struct Cell {
    policy: Policy,
    mode: &'static str,
    f: usize,
    corrupted_msgs: u64,
    worst_err: Option<f64>,
    violations: usize,
    actions: u64,
    rejected_reports: u64,
    screened_payloads: u64,
    gate_rejections: u64,
    conservative: u64,
}

impl Cell {
    fn worst_err_str(&self) -> String {
        match self.worst_err {
            Some(e) => format!("{e:.4}"),
            None => "none".into(),
        }
    }

    fn row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{}",
            self.policy.name(),
            self.mode,
            self.f,
            self.corrupted_msgs,
            self.worst_err_str(),
            self.violations,
            self.actions,
            self.rejected_reports,
            self.screened_payloads + self.gate_rejections,
            self.conservative,
        )
    }
}

/// Shuffle actions so far: load-balance queries issued plus migrations
/// started. Futile queries count on purpose — a poisoned mean that turns
/// every heavy server into a permanent shedder floods the anycast tree
/// even when no receiver ever accepts.
fn shuffle_actions(cluster: &Cluster) -> u64 {
    (0..cluster.num_servers())
        .map(|i| {
            let s = &cluster.controller(i).stats;
            s.queries_sent + s.migration_times.len() as u64
        })
        .sum()
}

fn run_cell(policy: Policy, mode_name: &'static str, mode: CorruptionMode, f: usize) -> Cell {
    let mut cluster = build_cluster(policy);
    let nodes = corrupted_nodes(cluster.num_servers(), f);
    let plan = poison_plan(&nodes, mode);
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, SimTime::from_secs(POISON_AT - 1));
    let actions_before = shuffle_actions(&cluster);

    // Sample the steering invariant every 5 s across the whole poison
    // window rather than once at the end: corrupted subtree sums drift
    // through wildly different ratios as the two aggregation trees go out
    // of phase, and an end-of-run snapshot can coincidentally land near
    // the honest mean even though the cluster steered on garbage for
    // minutes. `violations` counts the *samples* at which any server
    // steered outside epsilon; containment means zero, throughout.
    let mut violations = 0usize;
    let mut worst_err: Option<f64> = Some(0.0);
    let mut t = POISON_AT;
    while t <= END_AT {
        driver.run_until(&mut cluster.engine, SimTime::from_secs(t));
        if t == SPIKE_AT {
            spike_demand(&mut cluster);
        }
        if !check_global_mean(&cluster.engine, EPS).is_empty() {
            violations += 1;
        }
        // Honest ground truth from the servers' actual state (immune to
        // report corruption by construction).
        let (mut demand, mut capacity) = (0.0, 0.0);
        for i in 0..cluster.num_servers() {
            let ctrl = cluster.controller(i);
            demand += ctrl.demand_for(ResourceKind::Bandwidth);
            capacity += ctrl.capacity().get(ResourceKind::Bandwidth);
        }
        let truth = demand / capacity;
        for i in 0..cluster.num_servers() {
            match cluster
                .controller(i)
                .effective_mean_for(ResourceKind::Bandwidth)
            {
                // A server with no steering signal at all is strictly
                // worse than any numeric error; `none` dominates the cell.
                None => worst_err = None,
                Some(m) if worst_err.is_some() => {
                    let e = if m.is_finite() {
                        (m - truth).abs()
                    } else {
                        f64::MAX
                    };
                    worst_err = worst_err.map(|w| w.max(e));
                }
                Some(_) => {}
            }
        }
        t += 5;
    }

    let mut rejected_reports = 0;
    let mut screened_payloads = 0;
    let mut gate_rejections = 0;
    let mut conservative = 0;
    for i in 0..cluster.num_servers() {
        let ctrl = cluster.controller(i);
        rejected_reports += ctrl.aggregator().rejected_contributions();
        screened_payloads += ctrl.stats.invalid_payloads;
        gate_rejections += ctrl.stats.counters.rejected_aggregates.get();
        conservative += ctrl.stats.conservative_intervals;
    }

    Cell {
        policy,
        mode: mode_name,
        f,
        corrupted_msgs: cluster.engine.fault_stats().corrupted,
        worst_err,
        violations,
        actions: shuffle_actions(&cluster) - actions_before,
        rejected_reports,
        screened_payloads,
        gate_rejections,
        conservative,
    }
}

fn modes() -> [(&'static str, CorruptionMode); 4] {
    [
        ("nan", CorruptionMode::Nan),
        ("negative", CorruptionMode::Negative),
        ("huge-scale", CorruptionMode::HugeScale),
        ("frozen", CorruptionMode::Frozen),
    ]
}

/// Renders one cell as the deterministic smoke report.
fn cell_report(cell: &Cell) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "poison cell: {} / {} / f={}",
        cell.policy.name(),
        cell.mode,
        cell.f
    );
    let _ = writeln!(out, "  corrupted messages: {}", cell.corrupted_msgs);
    let _ = writeln!(out, "  worst steering error: {}", cell.worst_err_str());
    let _ = writeln!(out, "  samples violating eps: {}", cell.violations);
    let _ = writeln!(out, "  shuffle actions in window: {}", cell.actions);
    let _ = writeln!(out, "  rejected reports: {}", cell.rejected_reports);
    let _ = writeln!(out, "  screened payloads: {}", cell.screened_payloads);
    let _ = writeln!(out, "  gate rejections: {}", cell.gate_rejections);
    let _ = write!(out, "  conservative intervals: {}", cell.conservative);
    out
}

const CLI: CliSpec = CliSpec {
    bin: "poison_sweep",
    about: "TrustAll vs Defensive aggregation under corrupted reporters",
    flags: &[],
    options: &[],
};

fn main() {
    run_figure(&CLI, |args| {
        let mut fig = Figure::default();
        if args.smoke() {
            let f = topology().num_servers() / 10;
            let mode = CorruptionMode::HugeScale;
            let cell = run_cell(Policy::Defensive, "huge-scale", mode, f);
            fig.golden("poison_smoke.golden", cell_report(&cell));
        } else {
            sweep(&mut fig);
        }
        fig
    });
}

fn sweep(fig: &mut Figure) {
    let n = topology().num_servers();
    let fractions = [1, n / 20, n / 10]; // 1 node, 5 %, 10 %
                                         // The no-poison baseline of each policy: the envelope the "no storm"
                                         // check compares against.
    let baselines = [Policy::Defensive, Policy::TrustAll]
        .map(|policy| run_cell(policy, "honest", CorruptionMode::Nan, 0));
    let [defensive_baseline, trustall_baseline] = baselines.each_ref().map(|c| c.actions);
    fig.claim("baseline_actions_defensive", defensive_baseline);
    fig.claim("baseline_actions_trust_all", trustall_baseline);
    let poisoned: Vec<String> = baselines
        .iter()
        .filter(|c| c.corrupted_msgs > 0)
        .map(|c| format!("{}: {} corrupted", c.policy.name(), c.corrupted_msgs))
        .collect();
    fig.check_none(
        "baseline_poison_free",
        "no corrupted message without poison",
        &poisoned,
    );

    let mut rows = Vec::new();
    let (mut dry, mut leaked, mut storms, mut unbroken) = (vec![], vec![], vec![], vec![]);
    let mut defensive_huge_actions = 0;
    let mut trustall_huge_actions = 0;
    for policy in [Policy::TrustAll, Policy::Defensive] {
        let baseline = match policy {
            Policy::TrustAll => trustall_baseline,
            Policy::Defensive => defensive_baseline,
        };
        for (mode_name, mode) in modes() {
            for f in fractions {
                let cell = run_cell(policy, mode_name, mode, f);
                let name = format!("{}/{mode_name}/f={f}", policy.name());
                if cell.corrupted_msgs == 0 {
                    dry.push(name.clone());
                }
                if policy == Policy::Defensive {
                    // Acceptance: the defended cluster steers within eps
                    // everywhere and its shuffle stays inside the honest
                    // envelope — no migration storms, no stalls.
                    if cell.violations > 0 {
                        leaked.push(format!("{name}: {} samples", cell.violations));
                    }
                    if cell.actions > baseline * 2 + 20 {
                        storms.push(format!("{name}: {} vs baseline {baseline}", cell.actions));
                    }
                } else if f == n / 10
                    && matches!(mode, CorruptionMode::Nan | CorruptionMode::HugeScale)
                    && cell.violations == 0
                {
                    // Acceptance: the ablation measurably breaks at 10 %
                    // corruption for the modes that distort the mean.
                    // (Negative and Frozen corrupt demand and capacity
                    // proportionally, so the *ratio* the mean is built
                    // from largely cancels — reported, not checked.)
                    unbroken.push(name);
                }
                if mode == CorruptionMode::HugeScale && f == n / 10 {
                    match policy {
                        Policy::Defensive => defensive_huge_actions = cell.actions,
                        Policy::TrustAll => trustall_huge_actions = cell.actions,
                    }
                }
                rows.push(cell.row());
            }
        }
    }
    fig.table(
        "poison_sweep.csv",
        "policy,mode,f,corrupted_msgs,worst_err,violations,shuffle_actions,rejected_reports,screened,conservative_intervals",
        rows,
    );
    fig.check_none(
        "poison_flows",
        "every poisoned cell corrupts messages",
        &dry,
    );
    let rule = format!("no defensive sample steers outside eps {EPS}");
    fig.check_none("defensive_within_eps", rule, &leaked);
    let rule = "defensive shuffle actions <= 2 x baseline + 20";
    fig.check_none("defensive_no_storm", rule, &storms);
    let rule = "trust-all violates eps at 10 % nan and huge-scale corruption";
    fig.check_none("trust_all_breaks", rule, &unbroken);
    // The headline storm comparison: the poisoned-low mean turns every
    // heavy server into a permanent shedder under TrustAll, flooding the
    // Less-Loaded tree with queries no receiver can accept; Defensive
    // keeps shuffling at its honest cadence.
    let storm = trustall_huge_actions > 3 * defensive_huge_actions.max(1);
    let detail = format!(
        "10 % huge-scale: trust-all {trustall_huge_actions} > 3 x defensive {defensive_huge_actions} actions"
    );
    fig.check("trust_all_storm", storm, detail);
}

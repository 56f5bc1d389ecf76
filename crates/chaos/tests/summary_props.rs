//! Property: the subtree summary a Scribe tree link stores is never below
//! what the child would say now — a parent that believed too little would
//! turn away borrow requests the subtree could serve. With trading and the
//! spot market on, under every fault shape: whenever the network is at
//! rest, every link between two live nodes that agree on it holds a
//! summary that covers the child's own, worked out on the spot from the
//! child's ledger by the rule its lender applies to a request; once the
//! cluster has nothing left to trade, one probe round makes the two equal;
//! word from a node that is no child changes nothing; and a wrong summary
//! is gone a probe interval later.

use std::collections::BTreeSet;
use std::sync::Arc;

use vbundle_chaos::{ChaosDriver, FaultPlan, LinkFault, Scope};
use vbundle_core::{
    spot_group, trade_group, Cluster, Controller, CustomerId, ResourceSpec, ResourceVector,
    SpotMarketConfig, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::{GroupId, ScribeClient, ScribeConfig, ScribeMsg, Summary};
use vbundle_sim::{ActorId, CorruptionMode, SimDuration, SimTime};
use vbundle_trade::LeaseRole;

const PROBE: SimDuration = SimDuration::from_secs(3);
const UPDATE: SimDuration = SimDuration::from_secs(5);
const LEASE: SimDuration = SimDuration::from_secs(30);
/// Longer than any message takes, shorter than any timer period: what is
/// still wrong after this long is wrong at rest, not in flight.
const SETTLE: SimDuration = SimDuration::from_millis(20);
const VMS_PER_SERVER: u64 = 4;
const TENANTS: u64 = 4;
/// The lender's self-insurance margin, as the controller's trade module
/// fixes it: a lender offers 90 % of its spare reservation.
const TRADE_MARGIN: f64 = 0.1;

fn demand_of(vm: u64, rotation: u64) -> ResourceVector {
    let hot = (vm + rotation).is_multiple_of(5);
    ResourceVector::bandwidth_only(Bandwidth::from_mbps(if hot { 260.0 } else { 20.0 }))
}

/// Two pods of two six-server racks, four tenants with a VM each on every
/// server, one VM in five starved: bundles lend, and where a bundle has
/// nothing left the pod's spot market does.
fn build_cluster() -> Cluster {
    let topo = Topology::builder()
        .pods(2)
        .racks_per_pod(2)
        .servers_per_rack(6)
        .build();
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(Arc::new(topo))
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(PROBE))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(UPDATE)
                .with_rebalance_interval(SimDuration::from_secs(100_000))
                .with_bundle_trading(true)
                .with_lease_duration(LEASE)
                .with_spot_market(SpotMarketConfig::default()),
        )
        .seed(11)
        .build();
    for v in 0..cluster.num_servers() as u64 * VMS_PER_SERVER {
        let id = cluster.alloc_vm_id();
        let spec = ResourceSpec::fixed(ResourceVector::bandwidth_only(Bandwidth::from_mbps(100.0)));
        let mut vm = VmRecord::new(id, CustomerId((v % TENANTS) as u32), spec);
        vm.demand = demand_of(v, 0);
        let server = cluster.topo.server((v / VMS_PER_SERVER) as usize);
        cluster.install_vm(server, vm);
    }
    cluster.reindex();
    cluster
}

/// One tree link both ends agree on, both of them alive.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Link {
    parent: usize,
    group: GroupId,
    child: usize,
    stored: Option<Summary>,
}

fn links(cluster: &Cluster) -> Vec<Link> {
    let mut out = Vec::new();
    for (actor, node) in cluster.engine.actors() {
        if !cluster.engine.is_alive(actor) {
            continue;
        }
        let scribe = node.app();
        for group in scribe.group_ids() {
            for link in scribe.group(group).expect("listed").children.links() {
                let child = link.handle.actor;
                let theirs = cluster.engine.actor(child).app().group(group);
                let agreed = theirs.is_some_and(|st| st.parent.is_some_and(|p| p.actor == actor));
                if agreed && cluster.engine.is_alive(child) {
                    out.push(Link {
                        parent: actor.index(),
                        group,
                        child: child.index(),
                        stored: link.summary,
                    });
                }
            }
        }
    }
    out
}

/// What a borrow request walking `group` could get from `node` itself
/// this instant — the test's own reading of the lender's rule off the
/// controller's ledgers, not the cached answer under test. On the wire:
/// 0 nobody lends, all ones anybody does, `k + 1` only customer `k` does
/// (no use to a spot ask of `k`'s own). `None`: not a trade tree.
fn own_now(cluster: &Cluster, group: GroupId, node: usize) -> Option<Summary> {
    let now = cluster.now();
    let c = cluster.controller(node);
    let book = c.trade_book();
    let margin = 1.0 - TRADE_MARGIN;
    let lendable = |vm: &VmRecord| {
        let spec = book.live_spec(vm.id, vm.spec, now);
        let used = vm.demand.bandwidth.min(spec.limit.bandwidth).as_mbps();
        let spare = (spec.reservation.bandwidth.as_mbps() - used).max(0.0) * margin;
        let lent = book.delta(vm.id, now).1.bandwidth;
        spare.min((vm.spec.reservation.bandwidth - lent).as_mbps().max(0.0))
    };
    let of = |k: CustomerId| c.vms().iter().filter(move |vm| vm.customer == k);
    let lenders: BTreeSet<CustomerId> = (0..TENANTS as u32)
        .map(CustomerId)
        .filter(|&k| of(k).any(|vm| lendable(vm) >= 1.0))
        .collect();
    if let Some(k) = (0..TENANTS as u32)
        .map(CustomerId)
        .find(|&k| trade_group(k) == group)
    {
        return Some(if lenders.contains(&k) {
            Summary::MAX
        } else {
            0
        });
    }
    let pod = cluster.topo.pod_of(cluster.topo.server(node)).index() as u32;
    (spot_group(pod) == group).then(|| {
        let cap_room = |k: CustomerId| {
            let base: f64 = of(k)
                .map(|vm| vm.spec.reservation.bandwidth.as_mbps())
                .sum();
            let sold: f64 = book
                .halves()
                .filter(|h| h.role == LeaseRole::Lender && h.lease.customer == k)
                .filter(|h| h.lease.cross_tenant() && h.lease.expires > now)
                .map(|h| h.lease.amount.bandwidth.as_mbps())
                .sum();
            SpotMarketConfig::default().isolation_cap * base - sold
        };
        let mut sellers = lenders.iter().filter(|&&k| cap_room(k) >= 1.0);
        match (sellers.next(), sellers.next()) {
            (None, _) => 0,
            (Some(k), None) => k.0 + 1,
            _ => Summary::MAX,
        }
    })
}

/// What `node` would report for its subtree in `group` this instant.
fn subtree_now(cluster: &Cluster, group: GroupId, node: usize) -> Option<Summary> {
    let st = cluster
        .engine
        .actor(ActorId::new(node as u32))
        .app()
        .group(group)?;
    let own = match st.member {
        true => own_now(cluster, group, node)?,
        false => 0,
    };
    st.children.links().try_fold(own, |all, l| {
        Some(Controller::summary_join(all, l.summary?))
    })
}

fn covers(stored: Option<Summary>, actual: Option<Summary>) -> bool {
    match (stored, actual) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(s), Some(a)) => Controller::summary_join(s, a) == s,
    }
}

/// The links whose stored summary does not cover the child's.
fn stale_low(cluster: &Cluster) -> Vec<Link> {
    let mut low = links(cluster);
    low.retain(|l| !covers(l.stored, subtree_now(cluster, l.group, l.child)));
    low
}

struct Case {
    name: &'static str,
    plan: FaultPlan,
    /// While the plan loses messages between two scopes, links across
    /// them prove nothing: `(from, until, a, b)`.
    severed: Option<(SimTime, SimTime, Scope, Scope)>,
}

fn cases() -> Vec<Case> {
    let t = SimTime::from_secs;
    let a = |i: u32| ActorId::new(i);
    let on_all = |fault| {
        FaultPlan::new(9)
            .degrade(t(70), Scope::All, Scope::All, fault)
            .clear_degradations(t(150))
    };
    let case = |name, plan| Case {
        name,
        plan,
        severed: None,
    };
    vec![
        case(
            "crash",
            FaultPlan::new(3).crash(t(70), a(4)).crash(t(77), a(9)),
        ),
        case(
            "crash-restart",
            FaultPlan::new(5)
                .crash(t(70), a(2))
                .crash(t(72), a(15))
                .restart(t(100), a(2))
                .restart(t(110), a(15)),
        ),
        Case {
            severed: Some((t(70), t(110) + PROBE * 2, Scope::Rack(0), Scope::Rack(1))),
            ..case(
                "partition",
                FaultPlan::new(7)
                    .partition(t(70), Scope::Rack(0), Scope::Rack(1))
                    .heal(t(110)),
            )
        },
        // One send in ten, not more: every copy of an anycast step walks
        // on by itself, so the events of a walk grow as 1.1^steps.
        case(
            "duplicate",
            on_all(LinkFault::loss(0.0).with_duplicate(0.1, SimDuration::from_millis(2))),
        ),
        case(
            "corrupt",
            on_all(LinkFault::loss(0.0).with_corruption(0.2, CorruptionMode::HugeScale)),
        ),
    ]
}

/// Runs `case` over a trading cluster whose hot set moves every 20 s and
/// checks the links half-way between probe ticks. Returns the cluster with
/// every demand low and every lease run out: nothing left to trade.
fn run_case(case: Case) -> Cluster {
    let name = case.name;
    let mut cluster = build_cluster();
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo.clone(), case.plan);
    let vms = cluster.num_servers() as u64 * VMS_PER_SERVER;
    let (mut claimed, mut shut, mut open) = (0, 0, 0);
    let mut now = SimTime::from_secs(40) + PROBE / 2;
    while now <= SimTime::from_secs(200) {
        driver.run_until(&mut cluster.engine, now);
        for l in links(&cluster) {
            claimed += usize::from(l.stored.is_some());
            shut += usize::from(l.stored == Some(0));
            open += usize::from(l.stored.is_some_and(|s| s != 0));
        }
        let mut low = stale_low(&cluster);
        if !low.is_empty() {
            driver.run_until(&mut cluster.engine, now + SETTLE);
            let still = stale_low(&cluster);
            low.retain(|l| still.contains(l));
        }
        if let Some((from, until, a, b)) = case.severed {
            let across = |l: &Link| {
                let side = |s: Scope, n: usize| s.contains(&topo, ActorId::new(n as u32));
                (side(a, l.parent) && side(b, l.child)) || (side(b, l.parent) && side(a, l.child))
            };
            low.retain(|l| !(from <= now && now <= until && across(l)));
        }
        assert!(
            low.is_empty(),
            "{name} at {now:?}: stale-low at rest: {low:#?}"
        );
        let secs = now.as_micros() / 1_000_000;
        if secs % 20 < 3 {
            let (was, is) = (secs / 20 * 2, secs / 20 * 2 + 2);
            for v in (0..vms).filter(|&v| demand_of(v, was) != demand_of(v, is)) {
                cluster.set_vm_demand(VmId(v), demand_of(v, is));
            }
        }
        now += PROBE;
    }
    assert!(driver.done(), "{name}: plan did not play out");
    assert!(
        claimed > 0 && shut > 0 && open > 0,
        "{name}: {claimed} claims, {shut} shut, {open} open"
    );
    for v in 0..vms {
        cluster.set_vm_demand(VmId(v), demand_of(1, 0));
    }
    let rest = SimTime::from_secs(200) + LEASE + UPDATE * 3 + PROBE * 2;
    driver.run_until(&mut cluster.engine, rest);
    for l in links(&cluster) {
        let actual = subtree_now(&cluster, l.group, l.child);
        assert_eq!(l.stored, actual, "{name}: at rest, {l:?}");
    }
    cluster
}

#[test]
fn stored_summaries_cover_the_subtree_under_every_fault() {
    for case in cases() {
        run_case(case);
    }
}

/// Sends a tree-maintenance message the way Scribe does: inline, as a
/// signal.
fn send(cluster: &mut Cluster, from: usize, to: usize, msg: ScribeMsg<vbundle_core::CtrlMsg>) {
    let to = cluster.handles[to];
    let signal = msg.signal().expect("tree maintenance has a signal form");
    cluster.engine.call(ActorId::new(from as u32), |node, ctx| {
        node.app_call(ctx, |_, actx| actx.send_signal(to, signal));
    });
}

#[test]
fn only_a_childs_word_counts_and_a_wrong_one_heals() {
    let quiet = cases().into_iter().next().expect("a case");
    let mut cluster = run_case(quiet);
    let before = links(&cluster);
    let shut = Some(0);

    // A Summary from a node that is no child of the receiver.
    let l = *before
        .iter()
        .find(|l| l.stored.is_some_and(|s| s != 0))
        .expect("an open link");
    let stranger = (0..cluster.num_servers())
        .find(|&n| cluster.engine.is_alive(ActorId::new(n as u32)))
        .filter(|&n| {
            !before
                .iter()
                .any(|b| b.parent == l.parent && b.group == l.group && b.child == n)
        })
        .expect("a live node that is no child");
    let word = ScribeMsg::Summary {
        group: l.group,
        summary: shut,
    };
    send(&mut cluster, stranger, l.parent, word);
    // A probe to a node that is not in the tree: refused, nothing kept.
    let outsider = (0..cluster.num_servers())
        .find(|&n| {
            cluster
                .engine
                .actor(ActorId::new(n as u32))
                .app()
                .group(l.group)
                .is_none()
        })
        .expect("a node outside the tree");
    let probe = ScribeMsg::ParentProbe {
        group: l.group,
        summary: shut,
    };
    send(&mut cluster, stranger, outsider, probe);
    cluster.run_for(SETTLE);
    assert_eq!(links(&cluster), before);
    let scribe = cluster.engine.actor(ActorId::new(outsider as u32)).app();
    assert!(scribe.group(l.group).is_none());

    // The child itself says too little (as a summary mangled in flight
    // would): believed at once, and put right by its next probe.
    let word = ScribeMsg::Summary {
        group: l.group,
        summary: shut,
    };
    send(&mut cluster, l.child, l.parent, word);
    cluster.run_for(SETTLE);
    assert!(stale_low(&cluster).contains(&Link { stored: shut, ..l }));
    cluster.run_for(PROBE);
    assert_eq!(links(&cluster), before);
}

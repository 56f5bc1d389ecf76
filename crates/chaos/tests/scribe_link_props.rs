//! Property: a Scribe node's liveness-tracked tree links are exactly its
//! grafted children, at every probe round, under every fault shape. Each
//! graft carries its own liveness record (so none can be missing or left
//! over), and no link outlives its silence budget — a child that died or
//! re-parented elsewhere is dropped, never kept grafted and merely
//! forgotten by the detector.

use std::collections::BTreeSet;
use std::sync::Arc;

use vbundle_chaos::{check_scribe_trees, ChaosDriver, FaultPlan, LinkFault, Scope};
use vbundle_core::{Cluster, VBundleConfig};
use vbundle_dcn::Topology;
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

const PROBE: SimDuration = SimDuration::from_secs(3);

/// Pastry heartbeats are off: with them on, the overlay declares a silent
/// peer dead within a few seconds and Scribe's failure repair detaches it
/// before parent-side link expiry ever has to. Off, link liveness is the
/// only thing standing between a silent child and a permanent graft.
fn build_cluster() -> Cluster {
    let topo = Arc::new(Topology::paper_testbed());
    let pastry = PastryConfig {
        heartbeat: None,
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut cluster = Cluster::builder(topo)
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(PROBE))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000)),
        )
        .seed(11)
        .build();
    cluster.run_until(SimTime::from_secs(60));
    cluster
}

/// Checks every live node's link records at `now`; returns the number of
/// links seen. `budget` is the longest a link may stay silent and grafted.
fn check_links(cluster: &Cluster, now: SimTime, budget: SimDuration) -> usize {
    let mut links = 0;
    for (actor, node) in cluster.engine.actors() {
        if !cluster.engine.is_alive(actor) {
            continue;
        }
        let scribe = node.app();
        for g in scribe.group_ids() {
            let children = &scribe.group(g).expect("listed group").children;
            let mut ids = BTreeSet::new();
            for link in children.links() {
                links += 1;
                let child = link.handle;
                assert!(ids.insert(child.id), "{actor:?} group {g}: {child:?} twice");
                assert!(
                    children.contains(child.id),
                    "{actor:?} group {g}: {child:?} not indexed"
                );
                let heard = link.detector.last_seen();
                assert!(heard <= now);
                assert!(
                    now.saturating_since(heard) <= budget,
                    "{actor:?} group {g}: {child:?} still grafted at {now:?}, last heard {heard:?}"
                );
            }
            assert_eq!(
                children.len(),
                ids.len(),
                "{actor:?} group {g}: stale index"
            );
            assert_eq!(children.iter().count(), ids.len());
        }
    }
    links
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    let t = SimTime::from_secs;
    let a = |i: u32| ActorId::new(i);
    vec![
        (
            "crash",
            FaultPlan::new(3).crash(t(70), a(4)).crash(t(77), a(9)),
        ),
        (
            "crash-restart",
            FaultPlan::new(5)
                .crash(t(70), a(2))
                .crash(t(72), a(11))
                .restart(t(100), a(2))
                .restart(t(130), a(11)),
        ),
        (
            "partition",
            FaultPlan::new(7)
                .partition(t(70), Scope::Rack(0), Scope::Rack(1))
                .heal(t(110)),
        ),
        // Rack 0 hears everything but nothing it sends arrives: parents of
        // its nodes get no probes and no bounces — only expiry detaches.
        (
            "mute-rack",
            FaultPlan::new(8)
                .degrade(t(70), Scope::Rack(0), Scope::All, LinkFault::loss(1.0))
                .clear_degradations(t(110)),
        ),
        (
            "duplicate",
            FaultPlan::new(9)
                .degrade(
                    t(70),
                    Scope::All,
                    Scope::All,
                    LinkFault::loss(0.0).with_duplicate(0.4, SimDuration::from_millis(2)),
                )
                .clear_degradations(t(150)),
        ),
    ]
}

/// The detector suspects a silent link at the first tick its window calls
/// damning (the second, on a regular cadence) and drops it a confirmation
/// grace — one more tick — later; a window that absorbed irregular gaps
/// tolerates somewhat more. Every plan is checked half-way between probe
/// ticks from the fault window through the settle window.
#[test]
fn phi_links_are_exactly_the_grafted_children() {
    for (name, plan) in plans() {
        let mut cluster = build_cluster();
        let topo = cluster.topo.clone();
        let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
        let mut now = SimTime::from_secs(60) + PROBE / 2;
        let mut seen = 0;
        while now <= SimTime::from_secs(240) {
            driver.run_until(&mut cluster.engine, now);
            seen += check_links(&cluster, now, PROBE * 6);
            now += PROBE;
        }
        assert!(driver.done(), "{name}: plan did not play out");
        assert!(seen > 0, "{name}: no tree links to check");
        let open = check_scribe_trees(&cluster.engine);
        assert!(open.is_empty(), "{name}: trees did not repair: {open:#?}");
    }
}

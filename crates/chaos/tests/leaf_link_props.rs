//! Property: a Pastry node's liveness records are exactly its leaf-set
//! members, under every fault shape. A record's lifetime is the
//! membership — never one for a node outside the set (whatever that node
//! sends), never more than `2 × leaf_half`, opened by the next round at
//! the latest, and gone before its member has been silent for longer than
//! the detector allows.
//!
//! Then five pinned cases of the one-way heartbeat protocol: a settled
//! ring sends no ack at all, a one-sided link is kept alive by acks, and a
//! silenced peer, a one-way mute and a restart are detected (or not) by
//! whom and when they were while every heartbeat was still acked.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use vbundle_chaos::{check_leaf_sets, ChaosDriver, FaultPlan, LinkFault, Scope};
use vbundle_dcn::Topology;
use vbundle_pastry::overlay::{self, IdAssignment, NullApp, Probe};
use vbundle_pastry::{Id, NodeHandle, PastryConfig, PastryMsg, PastryNode, PastryState};
use vbundle_sim::{ActorId, Engine, Latency, SimDuration, SimTime};

type Net = Engine<PastryMsg<Probe>, PastryNode<NullApp>>;

const ROUND: SimDuration = SimDuration::from_secs(1);
const NODES: usize = 64;
/// Leaf-set size (`2 × leaf_half`) of the default configuration.
const LEAF: usize = 16;
/// One-way latency of [`overlay::launch_null`]'s network.
const LATENCY: SimDuration = SimDuration::from_micros(100);

/// Half a second past whole second `s`: between two heartbeat rounds. The
/// faults start there too. (One that starts on the round's own instant
/// lets the round's heartbeats through and drops the acks they used to
/// trigger 100 µs later, so the always-ack protocol started counting that
/// silence a round earlier than it does anywhere else.)
fn mid(s: u64) -> SimTime {
    SimTime::from_secs(s) + ROUND / 2
}

/// A settled 64-node ring (4 racks of 16) heartbeating every second.
fn ring(maintenance: bool) -> (Net, Vec<NodeHandle>, Arc<Topology>) {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(NODES as u32 / 4)
            .build(),
    );
    let config = PastryConfig {
        heartbeat: Some(ROUND),
        maintenance: maintenance.then_some(ROUND * 5),
        ..PastryConfig::default()
    };
    let (net, handles) = overlay::launch_null(&topo, IdAssignment::Random { seed: 19 }, config, 19);
    (net, handles, topo)
}

/// Checks every live node's records at `now`. Returns the `(node, member)`
/// pairs that have no record yet — members learned since the node's last
/// round — and the number of records seen.
fn check_links(net: &Net, now: SimTime, budget: SimDuration) -> (BTreeSet<(usize, Id)>, usize) {
    let mut unopened = BTreeSet::new();
    let mut seen = 0;
    for (actor, node) in net.actors() {
        if !net.is_alive(actor) {
            continue;
        }
        let leaf = node.state().leaf_set();
        let links = node.leaf_links();
        assert!(links.len() <= 2 * leaf.half(), "{actor:?}: over the bound");
        let mut ids = BTreeSet::new();
        for link in links {
            seen += 1;
            let id = link.id;
            assert!(ids.insert(id), "{actor:?}: two records for {id:?}");
            assert!(leaf.contains(id), "{actor:?}: record for non-member {id:?}");
            let heard = link.detector.last_seen();
            assert!(heard <= now);
            assert!(
                now.saturating_since(heard) <= budget,
                "{actor:?}: {id:?} still a member at {now:?}, last heard {heard:?}"
            );
        }
        for member in leaf.sides().filter(|m| !ids.contains(&m.id)) {
            unopened.insert((actor.index(), member.id));
        }
    }
    (unopened, seen)
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    let a = |i: u32| ActorId::new(i);
    vec![
        (
            "crash",
            FaultPlan::new(3).crash(mid(20), a(4)).crash(mid(27), a(9)),
        ),
        (
            "crash-restart",
            FaultPlan::new(5)
                .crash(mid(20), a(2))
                .crash(mid(22), a(11))
                .restart(SimTime::from_micros(40_300_000), a(2))
                .restart(SimTime::from_micros(55_700_000), a(11)),
        ),
        (
            "partition",
            FaultPlan::new(7)
                .partition(mid(20), Scope::Rack(0), Scope::Rack(1))
                .heal(mid(50)),
        ),
        // Rack 0 hears everything but nothing it sends arrives: no proof
        // of life and no bounce, only the detector drops its nodes.
        (
            "mute-rack",
            FaultPlan::new(8)
                .degrade(mid(20), Scope::Rack(0), Scope::All, LinkFault::loss(1.0))
                .clear_degradations(mid(50)),
        ),
        (
            "duplicate",
            FaultPlan::new(9)
                .degrade(
                    mid(20),
                    Scope::All,
                    Scope::All,
                    LinkFault::loss(0.0).with_duplicate(0.4, SimDuration::from_millis(2)),
                )
                .clear_degradations(mid(60)),
        ),
    ]
}

/// The detector suspects a silent member at the first round its window
/// calls damning (the third, on a regular cadence) and drops it a
/// confirmation grace — three more rounds — later; a window that absorbed
/// irregular gaps tolerates somewhat more. Every plan is checked half-way
/// between rounds from before the fault until the ring has settled again.
#[test]
fn phi_records_are_exactly_the_leaf_members() {
    for (name, plan) in plans() {
        let (mut net, _, topo) = ring(true);
        let mut driver = ChaosDriver::install(&mut net, topo, plan);
        let mut unopened = BTreeSet::new();
        let mut seen = 0;
        for s in 10..150 {
            driver.run_until(&mut net, mid(s));
            let (still, n) = check_links(&net, mid(s), ROUND * 8);
            // Every node has had a round since the last look.
            let late: Vec<_> = unopened.intersection(&still).collect();
            assert!(late.is_empty(), "{name} at {s} s: a round skipped {late:?}");
            unopened = still;
            seen += n;
        }
        assert!(driver.done(), "{name}: plan did not play out");
        assert!(seen > 0, "{name}: no records to check");
        assert!(unopened.is_empty(), "{name}: settled ring, {unopened:?}");
        let open = check_leaf_sets(&net);
        assert!(open.is_empty(), "{name}: ring did not repair: {open:#?}");
    }
}

fn maintenance_msgs(net: &Net) -> u64 {
    net.counter_totals().maintenance_msgs
}

fn evictions(net: &Net) -> u64 {
    net.actors().map(|(_, n)| n.detector_evictions()).sum()
}

/// (i) On a settled ring every link is heartbeated from both ends, so
/// nobody acks: thirty rounds are `n × L` heartbeats each and nothing
/// else, and nobody is ever suspected. Whatever a node outside the leaf
/// set sends, it gets an ack where it asked for one and no record.
#[test]
fn a_settled_ring_sends_heartbeats_and_nothing_else() {
    let (mut net, handles, _) = ring(false);
    for s in 1..=30 {
        net.run_until(mid(s));
        assert_eq!(maintenance_msgs(&net), s * (NODES * LEAF) as u64);
        for (actor, node) in net.actors() {
            assert_eq!(node.leaf_links().len(), LEAF, "{actor:?} at {s} s");
            for link in node.leaf_links() {
                assert_eq!(link.detector.last_seen(), SimTime::from_secs(s) + LATENCY);
                assert!(!link.detector.is_suspect());
            }
        }
    }
    assert_eq!(
        net.counter_totals().maintenance_bytes,
        30 * 24 * (NODES * LEAF) as u64
    );
    assert_eq!(evictions(&net), 0);

    let node = handles[0];
    let leaf = net.actor(node.actor).state().leaf_set();
    let stranger = *handles
        .iter()
        .find(|h| h.id != node.id && !leaf.contains(h.id))
        .expect("64 nodes, 16 members");
    let before = net.actor_counters(node.actor).maintenance_msgs;
    for msg in [
        PastryMsg::Heartbeat(stranger),
        PastryMsg::Heartbeat(stranger),
        PastryMsg::HeartbeatAck(stranger),
        PastryMsg::RelayPing { origin: stranger },
    ] {
        net.post(node.actor, stranger.actor, msg, SimDuration::ZERO);
    }
    net.run_until(mid(30) + SimDuration::from_millis(1));
    let acks = net.actor_counters(node.actor).maintenance_msgs - before;
    assert_eq!(acks, 3, "two heartbeats and an ack demand answered");
    let links = net.actor(node.actor).leaf_links();
    assert_eq!(links.len(), LEAF);
    assert!(links.iter().all(|l| l.id != stranger.id));
    assert_eq!(net.actor(stranger.actor).leaf_links().len(), LEAF);
}

/// (ii) A one-sided link: `a` holds `b` as its clockwise neighbour, `b`
/// has closer ones and does not hold `a` (`x`, which sits between them
/// and would tell `a` so, runs without heartbeats). `b` hears nothing
/// from `a` that it would answer with a heartbeat of its own, so it acks
/// every one of `a`'s — and `a` never suspects it.
#[test]
fn a_one_sided_link_lives_on_acks() {
    let topo = Arc::new(Topology::paper_testbed());
    let handle = |i: u32| NodeHandle::new(Id::from_u128(u128::from(i + 1) << 124), ActorId::new(i));
    let [a, x, b, d] = [handle(0), handle(1), handle(2), handle(3)];
    let state = |me: NodeHandle, knows: [NodeHandle; 2]| {
        let mut st = PastryState::new(me, Arc::clone(&topo), 1, 4);
        for h in knows {
            st.learn(h);
        }
        st
    };
    let on = PastryConfig {
        leaf_half: 1,
        heartbeat: Some(ROUND),
        ..PastryConfig::default()
    };
    let off = PastryConfig {
        heartbeat: None,
        ..on.clone()
    };
    let mut net: Net = Engine::with_latency(Latency::Constant(LATENCY), 19);
    for (st, config) in [
        (state(a, [b, d]), &on),
        (state(x, [a, b]), &off),
        (state(b, [x, d]), &on),
        (state(d, [b, a]), &on),
    ] {
        net.add_actor(PastryNode::with_state(
            st,
            NullApp::default(),
            config.clone(),
        ));
    }
    net.start();
    for s in 1..=60 {
        net.run_until(mid(s));
        let b_leaf = net.actor(b.actor).state().leaf_set();
        assert!(!b_leaf.contains(a.id), "b never takes a in");
        let links = net.actor(a.actor).leaf_links();
        assert_eq!(links.len(), 2);
        let of_b = links.iter().find(|l| l.id == b.id).expect("a holds b");
        // b's ack to the round's heartbeat: one round trip old.
        assert_eq!(
            of_b.detector.last_seen(),
            SimTime::from_secs(s) + LATENCY * 2
        );
        assert!(!of_b.detector.is_suspect());
        // a: two heartbeats a round. b: two, and the ack. x: its ack
        // to b, the heartbeat-less receiver's answer.
        let sent = |h: NodeHandle| net.actor_counters(h.actor).maintenance_msgs;
        assert_eq!(
            (sent(a), sent(x), sent(b), sent(d)),
            (2 * s, s, 3 * s, 2 * s)
        );
    }
    assert_eq!(evictions(&net), 0);
    assert!(net.actor(x.actor).leaf_links().is_empty());
}

/// Plays `plan` on the settled ring and lists which node dropped which
/// leaf-set member in which second (`"26s:6-5 "`: node 6 dropped node 5
/// between 25.5 s and 26.5 s), then the nodes whose own detector evicted
/// somebody, with the count.
fn drops_by_second(plan: FaultPlan, until: u64) -> String {
    let (mut net, _, topo) = ring(false);
    let mut driver = ChaosDriver::install(&mut net, topo, plan);
    let members = |net: &Net| -> Vec<BTreeSet<usize>> {
        net.actors()
            .map(|(_, n)| {
                n.state()
                    .leaf_set()
                    .sides()
                    .map(|h| h.actor.index())
                    .collect()
            })
            .collect()
    };
    let mut before = members(&net);
    let mut out = String::new();
    for s in 1..=until {
        driver.run_until(&mut net, mid(s));
        let now = members(&net);
        for (n, (was, is)) in before.iter().zip(&now).enumerate() {
            for gone in was.difference(is) {
                let _ = write!(out, "{s}s:{n}-{gone} ");
            }
        }
        before = now;
    }
    let evicted: Vec<(usize, u64)> = net
        .actors()
        .map(|(a, n)| (a.index(), n.detector_evictions()))
        .filter(|&(_, n)| n > 0)
        .collect();
    let _ = write!(out, "evicted {evicted:?}");
    out
}

/// Node 5 of the ring and its sixteen leaf-set members.
const VICTIM: u32 = 5;
const MEMBERS: [usize; LEAF] = [
    6, 15, 17, 19, 24, 27, 31, 39, 40, 41, 45, 51, 52, 53, 55, 59,
];

/// `"{s}s:{a}-{b} "` for every pair, in the order [`drops_by_second`]
/// lists one second's drops.
fn at(s: u64, pairs: impl IntoIterator<Item = (usize, usize)>) -> String {
    let mut pairs: Vec<_> = pairs.into_iter().collect();
    pairs.sort_unstable();
    pairs
        .iter()
        .map(|(a, b)| format!("{s}s:{a}-{b} "))
        .collect()
}

/// (iii) A peer that falls silent without a bounce — every message to and
/// from node 5 is dropped from 20.5 s on, nobody crashes. All the timings
/// below were captured at the parent of PR 19, which acked every
/// heartbeat: both ends of all sixteen links give up in the same second.
#[test]
fn a_silenced_peer_is_dropped_when_it_was_under_always_ack() {
    let v = VICTIM as usize;
    let plan = FaultPlan::new(3).degrade_both(
        mid(20),
        Scope::Actor(ActorId::new(VICTIM)),
        Scope::All,
        LinkFault::loss(1.0),
    );
    let mut evicted = vec![(v, LEAF as u64)];
    evicted.extend(MEMBERS.map(|m| (m, 1)));
    let both_ends = MEMBERS.iter().flat_map(|&m| [(v, m), (m, v)]);
    assert_eq!(
        drops_by_second(plan, 60),
        format!("{}evicted {evicted:?}", at(26, both_ends)),
    );
}

/// (iv) A one-way mute: from 20.5 s on nothing node 5 sends to its
/// neighbour 6 arrives, everything else does. Node 6 drops 5 in the second
/// it did under always-ack. Node 5 keeps 6, as it did: its relays reach 6
/// and 6's acks reach 5.
#[test]
fn a_one_way_mute_is_detected_by_the_deaf_side() {
    let plan = FaultPlan::new(3).degrade(
        mid(20),
        Scope::Actor(ActorId::new(VICTIM)),
        Scope::Actor(ActorId::new(MEMBERS[0] as u32)),
        LinkFault::loss(1.0),
    );
    assert_eq!(drops_by_second(plan, 80), "26s:6-5 evicted [(6, 1)]");
}

/// (v) A crash and a restart on another round phase: bounces drop node 5
/// at once, its return displaces the sixteen stand-ins, and no detector on
/// either side ever evicts anybody — as under always-ack.
#[test]
fn a_restart_evicts_nobody() {
    let v = VICTIM as usize;
    let stand_ins = [
        55, 53, 59, 45, 52, 31, 27, 41, 51, 39, 19, 40, 24, 15, 6, 17,
    ];
    let plan = FaultPlan::new(3)
        .crash(mid(20), ActorId::new(VICTIM))
        .restart(SimTime::from_micros(40_300_000), ActorId::new(VICTIM));
    let expected = format!(
        "{}{}evicted []",
        at(21, MEMBERS.map(|m| (m, v))),
        at(40, MEMBERS.into_iter().zip(stand_ins)),
    );
    assert_eq!(drops_by_second(plan, 80), expected);
}

//! End-to-end tests of the Pastry overlay: routing correctness, the join
//! protocol, and failure detection/repair.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use vbundle_dcn::Topology;
use vbundle_pastry::overlay::{self, launch_null, IdAssignment, NullApp, Probe};
use vbundle_pastry::{
    Id, NodeHandle, PastryConfig, PastryMsg, PastryNode, PastryState, RouteDecision,
};
use vbundle_sim::{ActorId, Engine, Latency, SimDuration, SimTime};

fn topo(servers: usize) -> Arc<Topology> {
    // Racks of 4, as many as needed.
    let racks = servers.div_ceil(4) as u32;
    let mut sizes = vec![4u32; racks as usize];
    let rem = servers % 4;
    if rem != 0 {
        *sizes.last_mut().unwrap() = rem as u32;
    }
    Arc::new(Topology::builder().rack_sizes(&sizes).build())
}

/// The id of the node globally numerically closest to `key`, with the same
/// tie-break as the router.
fn global_closest(ids: &[Id], key: Id) -> Id {
    let mut best = ids[0];
    for &id in &ids[1..] {
        best = key.closer_of(best, id);
    }
    best
}

#[test]
fn routes_deliver_at_numerically_closest_node() {
    for policy in [
        IdAssignment::TopologyAware,
        IdAssignment::Random { seed: 7 },
    ] {
        let topo = topo(32);
        let (mut engine, handles) = launch_null(&topo, policy, PastryConfig::default(), 1);
        let ids: Vec<Id> = handles.iter().map(|h| h.id).collect();

        let keys: Vec<Id> = (0..50u64)
            .map(|i| Id::from_name(&format!("key-{i}-{policy:?}")))
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            let start = handles[i % handles.len()].actor;
            engine.call(start, |node, ctx| {
                node.app_call(ctx, |_, app| app.route(key, Probe(i as u64)));
            });
        }
        engine.run_to_quiescence();

        let mut delivered = 0;
        for (i, h) in handles.iter().enumerate() {
            for &key in &engine.actor(h.actor).app().delivered {
                assert_eq!(
                    global_closest(&ids, key),
                    ids[i],
                    "key {key:?} delivered at wrong node under {policy:?}"
                );
                delivered += 1;
            }
        }
        assert_eq!(delivered, keys.len());
    }
}

#[test]
fn hop_count_is_logarithmic() {
    // With 64 nodes and base-16 digits, prefix routing plus the leaf-set
    // hop should stay well under 8 overlay hops. We measure via simulated
    // time: constant 100 µs per hop, injected at t=0.
    let topo = topo(64);
    let (mut engine, handles) = launch_null(
        &topo,
        IdAssignment::Random { seed: 3 },
        PastryConfig::default(),
        1,
    );
    let key = Id::from_name("hop-count-probe");
    engine.call(handles[0].actor, |node, ctx| {
        node.app_call(ctx, |_, app| app.route(key, Probe(0)));
    });
    engine.run_to_quiescence();
    let hops = engine.now().as_micros() / 100;
    assert!(hops >= 1, "route took no hops");
    assert!(hops <= 8, "route took {hops} hops for 64 nodes");
}

#[test]
fn join_protocol_integrates_newcomer() {
    let topo = topo(17);
    let config = PastryConfig::default();
    let ids = overlay::random_ids(17, 11);
    let handles = overlay::handles_for(&ids);
    // Build the overlay from the first 16 nodes; node 16 joins by protocol.
    let existing = &handles[..16];
    let states = overlay::build_states(&topo, existing, &config);
    // The built states hold each id once, in one roster, which has no
    // entry for the newcomer yet.
    let roster = Rc::clone(states[0].roster());
    assert!(states.iter().all(|st| Rc::ptr_eq(st.roster(), &roster)));
    assert_eq!(roster.get(handles[16].actor), None);
    let mut engine: Engine<PastryMsg<Probe>, PastryNode<NullApp>> =
        Engine::with_latency(Latency::Constant(SimDuration::from_micros(100)), 5);
    for st in states {
        engine.add_actor(PastryNode::with_state(
            st,
            NullApp::default(),
            config.clone(),
        ));
    }
    let newcomer = handles[16];
    let newcomer_state = vbundle_pastry::PastryState::new(
        newcomer,
        Arc::clone(&topo),
        config.leaf_half,
        config.neighbor_capacity,
    );
    // Bootstrap through a physically nearby node (same rack: server 12-15
    // shares rack 4 with 16; use server 0 to show any bootstrap works).
    engine.add_actor(PastryNode::joining(
        newcomer_state,
        ActorId::new(0),
        NullApp::default(),
        config.clone(),
    ));
    engine.start();
    engine.run_to_quiescence();

    let node = engine.actor(newcomer.actor);
    assert!(node.is_joined(), "newcomer failed to join");
    assert!(!node.state().leaf_set().is_empty());
    // Its peers learned it: the roster they share took its id, and its
    // ring neighbors on both sides hold it in their leaf sets.
    assert_eq!(roster.get(newcomer.actor), Some(newcomer.id));
    let mut ring = handles.clone();
    ring.sort_by_key(|h| h.id);
    let at = ring.iter().position(|h| h.id == newcomer.id).unwrap();
    for side in [1, ring.len() - 1] {
        let peer = ring[(at + side) % ring.len()];
        let leaf = engine.actor(peer.actor).state().leaf_set();
        assert!(
            leaf.contains(newcomer.id),
            "{peer} does not hold the newcomer"
        );
    }

    // A message keyed exactly at the newcomer's id reaches it from anywhere.
    engine.call(handles[3].actor, |node, ctx| {
        node.app_call(ctx, |_, app| app.route(newcomer.id, Probe(99)));
    });
    engine.run_to_quiescence();
    assert_eq!(
        engine.actor(newcomer.actor).app().delivered,
        vec![newcomer.id]
    );
}

#[test]
fn bounced_sends_evict_dead_node_and_reroute() {
    let topo = topo(16);
    let (mut engine, handles) = launch_null(
        &topo,
        IdAssignment::Random { seed: 21 },
        PastryConfig::default(),
        1,
    );
    let ids: Vec<Id> = handles.iter().map(|h| h.id).collect();

    // Kill the node that owns this key, then route to it.
    let key = Id::from_name("dead-node-key");
    let owner = global_closest(&ids, key);
    let owner_pos = ids.iter().position(|&i| i == owner).unwrap();
    engine.fail(handles[owner_pos].actor);

    let survivors: Vec<Id> = ids.iter().copied().filter(|&i| i != owner).collect();
    let backup = global_closest(&survivors, key);
    let backup_pos = ids.iter().position(|&i| i == backup).unwrap();

    let start = (owner_pos + 1) % handles.len();
    engine.call(handles[start].actor, |node, ctx| {
        node.app_call(ctx, |_, app| app.route(key, Probe(7)));
    });
    engine.run_to_quiescence();

    assert_eq!(
        engine.actor(handles[backup_pos].actor).app().delivered,
        vec![key],
        "route was not repaired onto the surviving closest node"
    );
}

#[test]
fn heartbeats_evict_silent_peers() {
    let topo = topo(8);
    let config = PastryConfig::default()
        .with_heartbeat(SimDuration::from_secs(10))
        .with_leaf_half(2);
    let (mut engine, handles) = overlay::launch(
        &topo,
        IdAssignment::Random { seed: 2 },
        config,
        1,
        Latency::Constant(SimDuration::from_millis(1)),
        |_, _| NullApp::default(),
    );
    let victim = handles[4];
    engine.fail(victim.actor);
    // 3 missed heartbeats at 10s interval -> evicted from every leaf set
    // by ~40s. (Routing-table references are repaired lazily on use, as in
    // Pastry proper, so only leaf sets are asserted here.)
    engine.run_until(SimTime::from_secs(120));
    for h in &handles {
        if h.actor == victim.actor {
            continue;
        }
        let node = engine.actor(h.actor);
        assert!(
            !node.state().leaf_set().contains(victim.id),
            "node {} still has dead {} in its leaf set",
            h,
            victim
        );
        // Repair must have refilled the leaf set from survivors.
        assert!(!node.state().leaf_set().is_empty());
    }
}

#[test]
fn topology_aware_ids_cluster_racks() {
    let topo = Topology::simulation_3000();
    let ids = overlay::topology_aware_ids(&topo);
    assert_eq!(ids.len(), 3000);
    // Distinct.
    let mut sorted = ids.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 3000);
    // Same-rack spacing is smaller than any cross-rack spacing.
    let d_intra = ids[0].ring_distance(ids[39]); // rack 0 extremes
    let d_gap = ids[39].ring_distance(ids[40]); // rack 0 -> rack 1 boundary
    assert!(d_intra > d_gap.saturating_sub(d_intra) / 1000); // sanity: nonzero
    assert!(
        ids[0].ring_distance(ids[1]) < d_gap,
        "rack boundary must be farther apart than rack neighbors"
    );
}

#[test]
fn random_ids_draw_is_pinned() {
    // Taken from the quadratic `Vec::contains` version: the membership
    // structure may change, the draw sequence may not.
    let ids = overlay::random_ids(300, 9);
    assert_eq!(ids.len(), 300);
    assert_eq!(ids[0].as_u128(), 0xa94eecf619a06040619b85d152fbf9);
    assert_eq!(ids[299].as_u128(), 0x8b46970a7209d5402ca63a044c016016);
    let digest = ids
        .iter()
        .fold(0u128, |acc, id| acc.rotate_left(7) ^ id.as_u128());
    assert_eq!(digest, 0x5c1309a740a91b887a52f87583fdcc4d);
}

/// The bootstrap `build_states` stands for, run literally: every node
/// learns its ring neighbors, nearest first and alternating sides, then
/// every other node in id order.
fn all_pairs_states(
    topo: &Arc<Topology>,
    handles: &[NodeHandle],
    config: &PastryConfig,
) -> Vec<PastryState> {
    let mut by_id = handles.to_vec();
    by_id.sort_by_key(|h| h.id);
    let n = by_id.len();
    handles
        .iter()
        .map(|&me| {
            let mut st = PastryState::new(
                me,
                Arc::clone(topo),
                config.leaf_half,
                config.neighbor_capacity,
            );
            let pos = by_id.binary_search_by_key(&me.id, |h| h.id).unwrap();
            for step in 1..=config.leaf_half.min(n - 1) {
                st.learn(by_id[(pos + step) % n]);
                st.learn(by_id[(pos + n - step) % n]);
            }
            for &other in by_id.iter().filter(|o| o.id != me.id) {
                st.learn(other);
            }
            st
        })
        .collect()
}

/// Everything a state holds, order included: the leaf-set sides (the
/// clockwise extreme marks where the first side ends), all 32 × 16
/// routing-table slots with the number of rows allocated for them, and the
/// neighbor set.
type Contents = (
    Vec<NodeHandle>,
    Option<NodeHandle>,
    Vec<Option<NodeHandle>>,
    usize,
    Vec<NodeHandle>,
);

fn contents(st: &PastryState) -> Contents {
    let table = st.routing_table();
    (
        st.leaf_set().sides().collect(),
        st.leaf_set().cw_extreme(),
        (0..32 * 16).map(|i| table.entry(i / 16, i % 16)).collect(),
        table.num_rows(),
        st.neighbor_set().members().collect(),
    )
}

#[test]
#[should_panic(expected = "not a server of the topology")]
fn build_states_rejects_actors_off_the_topology() {
    let ids = overlay::random_ids(17, 3);
    overlay::build_states(
        &topo(16),
        &overlay::handles_for(&ids),
        &PastryConfig::default(),
    );
}

/// Shapes too large for the property below: racks smaller than, equal to
/// and larger than the default neighbor set, so the candidate windows cut
/// into pods and the ring, and tables four rows deep.
#[test]
fn build_states_matches_all_pairs_sweep_at_size() {
    let shape = |pods, racks, servers| {
        let mut regular = Topology::builder();
        regular
            .pods(pods)
            .racks_per_pod(racks)
            .servers_per_rack(servers);
        regular.build()
    };
    let config = PastryConfig::default();
    for topo in [shape(4, 4, 16), shape(2, 3, 40), Topology::fat_tree(8)] {
        let topo = Arc::new(topo);
        for policy in [
            IdAssignment::TopologyAware,
            IdAssignment::Random { seed: 5 },
        ] {
            let handles = overlay::handles_for(&overlay::assign_ids(&topo, policy));
            let built = overlay::build_states(&topo, &handles, &config);
            let swept = all_pairs_states(&topo, &handles, &config);
            for (b, s) in built.iter().zip(&swept) {
                assert_eq!(contents(b), contents(s), "state of {}", b.handle());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// `build_states` offers each node a few dozen handles instead of all
    /// of them; the tables must be the ones the all-pairs sweep leaves,
    /// entry for entry and in order. Regular and ragged topologies, both
    /// id policies (random ids mix every proximity class into every slot),
    /// full overlays, prefixes, random subsets and overlays no larger than
    /// one leaf-set side (a node on both sides), and neighbor capacities
    /// on either side of the rack and pod sizes, which decide how far the
    /// candidate windows reach.
    #[test]
    fn build_states_matches_all_pairs_sweep(
        shape in (1u32..5, 1u32..9, 1u32..6),
        ragged in proptest::collection::vec(1u32..7, 0..8),
        policy in (any::<bool>(), any::<u64>()),
        subset in (0u8..4, any::<u64>()),
        leaf_half in 1usize..=8,
        capacity in 0usize..9,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (pods, racks, servers) = shape;
        let topo = Arc::new(if ragged.len() > 4 {
            Topology::builder().rack_sizes(&ragged).build()
        } else {
            Topology::builder().pods(pods).racks_per_pod(racks).servers_per_rack(servers).build()
        });
        let policy = match policy {
            (true, seed) => IdAssignment::Random { seed },
            (false, _) => IdAssignment::TopologyAware,
        };
        let all = overlay::handles_for(&overlay::assign_ids(&topo, policy));
        let mut rng = StdRng::seed_from_u64(subset.1);
        let handles: Vec<NodeHandle> = match subset.0 {
            0 => all.clone(),
            1 => all[..rng.gen_range(1..=all.len())].to_vec(),
            2 => {
                let keep = rng.gen_range(0..all.len());
                let picked = all.iter().enumerate().filter(|&(i, _)| i == keep || rng.gen_range(0..3) > 0);
                picked.map(|(_, h)| *h).collect()
            }
            _ => all[..rng.gen_range(1..=leaf_half.min(all.len()))].to_vec(),
        };
        let rack = topo.rack_size(topo.rack(0));
        let pod = topo.servers_in_pod(topo.pod(0)).count();
        let config = PastryConfig {
            leaf_half,
            neighbor_capacity: [0, 1, 2, 3, 16, rack - 1, rack, pod, handles.len()][capacity],
            ..PastryConfig::default()
        };
        let built = overlay::build_states(&topo, &handles, &config);
        let swept = all_pairs_states(&topo, &handles, &config);
        prop_assert_eq!(built.len(), swept.len());
        for (b, s) in built.iter().zip(&swept) {
            prop_assert_eq!(b.handle(), s.handle());
            prop_assert_eq!(contents(b), contents(s), "state of {}", b.handle());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every key routes to the globally numerically closest node, for
    /// arbitrary overlay sizes and random keys.
    #[test]
    fn prop_routing_terminates_at_closest(
        n in 2usize..28,
        key_seed in any::<u64>(),
        id_seed in any::<u64>(),
    ) {
        let topo = topo(n);
        let (mut engine, handles) = launch_null(
            &topo,
            IdAssignment::Random { seed: id_seed },
            PastryConfig::default(),
            1,
        );
        let ids: Vec<Id> = handles.iter().map(|h| h.id).collect();
        let key = Id::from_name(&format!("prop-{key_seed}"));
        engine.call(handles[key_seed as usize % n].actor, |node, ctx| {
            node.app_call(ctx, |_, app| app.route(key, Probe(0)));
        });
        engine.run_to_quiescence();
        let expect = global_closest(&ids, key);
        let pos = ids.iter().position(|&i| i == expect).unwrap();
        prop_assert_eq!(
            engine.actor(handles[pos].actor).app().delivered.as_slice(),
            &[key]
        );
    }

    /// The offline state builder agrees with the routing rule: a decision
    /// at any node moves strictly closer to the key (progress), so routes
    /// cannot loop.
    #[test]
    fn prop_route_decisions_make_progress(
        n in 2usize..24,
        key_seed in any::<u64>(),
    ) {
        let topo = topo(n);
        let ids = overlay::random_ids(n, key_seed ^ 0xABCD);
        let handles = overlay::handles_for(&ids);
        let states = overlay::build_states(&topo, &handles, &PastryConfig::default());
        let key = Id::from_name(&format!("progress-{key_seed}"));
        for st in &states {
            if let RouteDecision::Forward(next) = st.route_decision(key) {
                prop_assert!(
                    next.id.ring_distance(key) < st.id().ring_distance(key)
                        || next.id.shared_prefix_len(key) > st.id().shared_prefix_len(key),
                    "no progress from {:?} to {:?} for {:?}",
                    st.id(), next.id, key
                );
            }
        }
    }
}

#[test]
fn graceful_departure_evicts_immediately() {
    let topo = topo(16);
    let (mut engine, handles) = launch_null(
        &topo,
        IdAssignment::Random { seed: 31 },
        PastryConfig::default(),
        1,
    );
    let ids: Vec<Id> = handles.iter().map(|h| h.id).collect();
    let leaver = handles[5];

    // The node says goodbye, then its host dies.
    engine.call(leaver.actor, |node, ctx| node.announce_departure(ctx));
    engine.fail(leaver.actor);
    engine.run_to_quiescence();

    // No heartbeats configured, yet every survivor already evicted it.
    for h in &handles {
        if h.actor == leaver.actor {
            continue;
        }
        assert!(
            !engine.actor(h.actor).state().leaf_set().contains(leaver.id),
            "{h} still lists the departed node in its leaf set"
        );
    }
    // And routing to its id lands on the surviving numerically closest.
    let survivors: Vec<Id> = ids.iter().copied().filter(|&i| i != leaver.id).collect();
    let backup = global_closest(&survivors, leaver.id);
    let backup_pos = ids.iter().position(|&i| i == backup).unwrap();
    engine.call(handles[0].actor, |node, ctx| {
        node.app_call(ctx, |_, app| app.route(leaver.id, Probe(1)));
    });
    engine.run_to_quiescence();
    assert_eq!(
        engine.actor(handles[backup_pos].actor).app().delivered,
        vec![leaver.id]
    );
}

#[test]
fn maintenance_repopulates_routing_tables() {
    // Start every node knowing only its ring neighborhood (half=8 leaf
    // set; routing tables emptied), enable maintenance, and watch the
    // tables fill back up.
    let topo = topo(32);
    let config = PastryConfig::default().with_maintenance(SimDuration::from_secs(10));
    let ids = overlay::random_ids(32, 77);
    let handles = overlay::handles_for(&ids);
    let mut engine: Engine<PastryMsg<Probe>, PastryNode<NullApp>> =
        Engine::with_latency(Latency::Constant(SimDuration::from_millis(1)), 9);
    // Build states by learning only ring neighbors (no global knowledge).
    let mut by_id = handles.clone();
    by_id.sort_by_key(|h| h.id);
    for &me in &handles {
        let mut st = vbundle_pastry::PastryState::new(
            me,
            std::sync::Arc::clone(&topo),
            config.leaf_half,
            config.neighbor_capacity,
        );
        let pos = by_id.binary_search_by_key(&me.id, |h| h.id).unwrap();
        for step in 1..=2usize {
            st.learn(by_id[(pos + step) % 32]);
            st.learn(by_id[(pos + 32 - step) % 32]);
        }
        engine.add_actor(PastryNode::with_state(
            st,
            NullApp::default(),
            config.clone(),
        ));
    }
    engine.start();
    let table_sizes = |e: &Engine<PastryMsg<Probe>, PastryNode<NullApp>>| -> usize {
        handles
            .iter()
            .map(|h| e.actor(h.actor).state().routing_table().len())
            .sum()
    };
    let before = table_sizes(&engine);
    engine.run_until(SimTime::from_secs(600));
    let after = table_sizes(&engine);
    assert!(
        after > before * 2,
        "maintenance did not grow routing tables: {before} -> {after}"
    );
    // Routing works across the whole ring afterwards.
    let ids_all: Vec<Id> = handles.iter().map(|h| h.id).collect();
    let key = Id::from_name("post-maintenance-probe");
    engine.call(handles[0].actor, |node, ctx| {
        node.app_call(ctx, |_, app| app.route(key, Probe(9)));
    });
    engine.run_until(SimTime::from_secs(700));
    let owner = global_closest(&ids_all, key);
    let owner_pos = ids_all.iter().position(|&i| i == owner).unwrap();
    assert_eq!(
        engine.actor(handles[owner_pos].actor).app().delivered,
        vec![key]
    );
}

/// Heavy churn: the overlay grows from 8 to 24 nodes via protocol joins
/// while earlier nodes keep failing; routing stays correct throughout.
#[test]
fn overlay_survives_interleaved_churn() {
    let topo = topo(24);
    let config = PastryConfig::default().with_heartbeat(SimDuration::from_secs(15));
    let ids = overlay::random_ids(24, 51);
    let handles = overlay::handles_for(&ids);
    let mut engine: Engine<PastryMsg<Probe>, PastryNode<NullApp>> =
        Engine::with_latency(Latency::Constant(SimDuration::from_millis(2)), 3);
    // Seed overlay: first 8 nodes prebuilt.
    let states = overlay::build_states(&topo, &handles[..8], &config);
    for st in states {
        engine.add_actor(PastryNode::with_state(
            st,
            NullApp::default(),
            config.clone(),
        ));
    }
    engine.start();
    engine.run_until(SimTime::from_secs(5));

    let mut dead: Vec<usize> = Vec::new();
    for wave in 0..8usize {
        // Two newcomers join through a live bootstrap...
        for j in 0..2 {
            let idx = 8 + wave * 2 + j;
            let newcomer = handles[idx];
            let st = vbundle_pastry::PastryState::new(
                newcomer,
                Arc::clone(&topo),
                config.leaf_half,
                config.neighbor_capacity,
            );
            let bootstrap = (0..idx).find(|i| !dead.contains(i)).expect("someone alive");
            let id = engine.add_actor(PastryNode::joining(
                st,
                ActorId::new(bootstrap as u32),
                NullApp::default(),
                config.clone(),
            ));
            engine.start_actor(id);
        }
        // ...and one old node dies every other wave.
        if wave % 2 == 1 {
            let victim = wave; // victims 1,3,5,7 from the seed set
            engine.fail(ActorId::new(victim as u32));
            dead.push(victim);
        }
        engine.run_for(SimDuration::from_secs(60));
    }
    engine.run_until(SimTime::from_secs(900));

    // Every joiner is in; route 20 keys and verify they land on the
    // closest *live* node.
    let live: Vec<usize> = (0..24).filter(|i| !dead.contains(i)).collect();
    for &i in &live[8..] {
        assert!(
            engine.actor(ActorId::new(i as u32)).is_joined(),
            "node {i} not joined"
        );
    }
    let live_ids: Vec<Id> = live.iter().map(|&i| ids[i]).collect();
    for k in 0..20u64 {
        let key = Id::from_name(&format!("churn-{k}"));
        let start = live[(k as usize) % live.len()];
        engine.call(ActorId::new(start as u32), |node, ctx| {
            node.app_call(ctx, |_, app| app.route(key, Probe(k)));
        });
    }
    engine.run_until(SimTime::from_secs(1000));
    let mut delivered = 0;
    for &i in &live {
        for &key in &engine.actor(ActorId::new(i as u32)).app().delivered {
            let expect = global_closest(&live_ids, key);
            assert_eq!(
                expect, ids[i],
                "churn: key {key:?} delivered at wrong node {i}"
            );
            delivered += 1;
        }
    }
    assert_eq!(delivered, 20, "some keys were lost under churn");
}

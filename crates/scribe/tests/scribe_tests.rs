//! End-to-end tests of Scribe trees: spanning-tree structure, multicast
//! coverage, anycast DFS semantics, pruning and failure repair.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use vbundle_dcn::Topology;
use vbundle_obs::{FlightRecorder, Registry};
use vbundle_pastry::{
    overlay, IdAssignment, NodeHandle, PastryConfig, PastryMsg, PastryNode, RouteEnvelope, Signal,
};
use vbundle_scribe::{group_id, CollectClient, GroupId, Scribe, ScribeMsg, TestPayload};
use vbundle_sim::{ActorId, Engine, Latency, MsgCategory, SimDuration, SimTime};

type Node = PastryNode<Scribe<CollectClient>>;
type Net = Engine<PastryMsg<ScribeMsg<TestPayload>>, Node>;

fn topo(servers: usize) -> Arc<Topology> {
    let racks = servers.div_ceil(4) as u32;
    let mut sizes = vec![4u32; racks as usize];
    if !servers.is_multiple_of(4) {
        *sizes.last_mut().unwrap() = (servers % 4) as u32;
    }
    Arc::new(Topology::builder().rack_sizes(&sizes).build())
}

fn launch(servers: usize, policy: IdAssignment, seed: u64) -> (Net, Vec<NodeHandle>) {
    let topo = topo(servers);
    overlay::launch(
        &topo,
        policy,
        PastryConfig::default(),
        seed,
        Latency::Constant(SimDuration::from_micros(100)),
        |_, _| Scribe::new(CollectClient::default()),
    )
}

fn join_all(net: &mut Net, handles: &[NodeHandle], g: GroupId) {
    for h in handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.join(g));
            });
        });
    }
    net.run_to_quiescence();
}

/// Asserts the group tree is a spanning tree over all members: every
/// in-tree node except the root has a live parent, parent/child pointers
/// agree, and walking up from any member reaches the root acyclically.
fn assert_spanning_tree(net: &Net, handles: &[NodeHandle], g: GroupId, members: &[usize]) {
    let mut roots = Vec::new();
    for (i, h) in handles.iter().enumerate() {
        if !net.is_alive(h.actor) {
            continue;
        }
        let scribe = net.actor(h.actor).app();
        if let Some(st) = scribe.group(g) {
            if st.root {
                roots.push(i);
            }
            // Parent/child agreement.
            if let Some(p) = st.parent {
                let parent_state = net
                    .actor(p.actor)
                    .app()
                    .group(g)
                    .unwrap_or_else(|| panic!("parent of node {i} has no group state"));
                assert!(
                    parent_state.children.iter().any(|c| c.id == h.id),
                    "parent of node {i} does not list it as a child"
                );
            }
        }
    }
    assert_eq!(roots.len(), 1, "exactly one root expected, got {roots:?}");
    // Every member reaches the root by following parents, without cycles.
    for &m in members {
        let mut cur = handles[m];
        let mut seen = BTreeSet::new();
        loop {
            assert!(seen.insert(cur.id), "cycle at {cur}");
            let st = net
                .actor(cur.actor)
                .app()
                .group(g)
                .unwrap_or_else(|| panic!("member path node {cur} lost state"));
            match st.parent {
                Some(p) => cur = p,
                None => {
                    assert!(st.root, "member {m} walked to a parentless non-root");
                    break;
                }
            }
        }
    }
}

#[test]
fn join_builds_spanning_tree() {
    let (mut net, handles) = launch(24, IdAssignment::TopologyAware, 3);
    let g = group_id("less-loaded");
    join_all(&mut net, &handles, g);
    let members: Vec<usize> = (0..handles.len()).collect();
    assert_spanning_tree(&net, &handles, g, &members);
}

#[test]
fn multicast_reaches_every_member_exactly_once() {
    let (mut net, handles) = launch(20, IdAssignment::Random { seed: 5 }, 1);
    let g = group_id("BW_Capacity");
    join_all(&mut net, &handles, g);
    net.call(handles[7].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(11)));
        });
    });
    net.run_to_quiescence();
    for h in &handles {
        let got = &net.actor(h.actor).app().client().multicasts;
        assert_eq!(got, &[(g, TestPayload(11))]);
    }
}

#[test]
fn multicast_skips_non_members() {
    let (mut net, handles) = launch(12, IdAssignment::TopologyAware, 2);
    let g = group_id("partial");
    let members = [0usize, 3, 5, 9];
    for &m in &members {
        net.call(handles[m].actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.join(g));
            });
        });
    }
    net.run_to_quiescence();
    // A non-member can publish.
    net.call(handles[1].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(5)));
        });
    });
    net.run_to_quiescence();
    for (i, h) in handles.iter().enumerate() {
        let got = net.actor(h.actor).app().client().multicasts.len();
        if members.contains(&i) {
            assert_eq!(got, 1, "member {i} missed the multicast");
        } else {
            assert_eq!(got, 0, "non-member {i} received the multicast");
        }
    }
}

#[test]
fn anycast_reaches_exactly_one_acceptor() {
    let (mut net, handles) = launch(16, IdAssignment::TopologyAware, 9);
    let g = group_id("less-loaded");
    join_all(&mut net, &handles, g);
    // Everyone accepts.
    for h in &handles {
        net.actor_mut(h.actor).app_mut().client_mut().accept_anycast = true;
    }
    net.call(handles[2].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.anycast(g, TestPayload(77)));
        });
    });
    net.run_to_quiescence();
    let mut acceptors = Vec::new();
    for (i, h) in handles.iter().enumerate() {
        let c = net.actor(h.actor).app().client();
        if !c.anycast_offers.is_empty() {
            acceptors.push(i);
            assert_eq!(c.anycast_offers[0].1, TestPayload(77));
            assert_eq!(c.anycast_offers[0].2.id, handles[2].id);
        }
        assert!(c.anycast_failures.is_empty());
    }
    assert_eq!(acceptors.len(), 1, "exactly one member must accept");
    assert_ne!(acceptors[0], 2, "the origin must not answer its own query");
}

#[test]
fn anycast_prefers_nearby_members() {
    // Topology-aware ids + proximity-first DFS: over many origins, the
    // accepting member should on average be physically closer than a
    // random member would be. (The paper claims "near the sender with
    // high probability" — a statistical property, not a per-query one.)
    let topo = Arc::new(
        Topology::builder()
            .pods(4)
            .racks_per_pod(2)
            .servers_per_rack(4)
            .build(),
    );
    let (mut net, handles) = overlay::launch(
        &topo,
        IdAssignment::TopologyAware,
        PastryConfig::default(),
        4,
        Latency::Constant(SimDuration::from_micros(100)),
        |_, _| Scribe::new(CollectClient::default()),
    );
    let g = group_id("less-loaded");
    join_all(&mut net, &handles, g);
    for h in &handles {
        net.actor_mut(h.actor).app_mut().client_mut().accept_anycast = true;
    }
    let mut total_dist = 0u32;
    let mut queries = 0u32;
    for origin in 0..handles.len() {
        net.call(handles[origin].actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.anycast(g, TestPayload(origin as u64)));
            });
        });
        net.run_to_quiescence();
        // Find who accepted this query (tagged by origin index).
        let acceptor = handles
            .iter()
            .position(|h| {
                net.actor(h.actor)
                    .app()
                    .client()
                    .anycast_offers
                    .iter()
                    .any(|(_, p, o)| p.0 == origin as u64 && o.id == handles[origin].id)
            })
            .expect("someone accepted");
        total_dist += topo.distance(topo.server(origin), topo.server(acceptor));
        queries += 1;
    }
    let mean_dist = total_dist as f64 / queries as f64;
    // A uniformly random acceptor over 4 pods × 8 servers averages ≈ 2.6;
    // proximity-guided DFS must do meaningfully better.
    assert!(
        mean_dist < 2.2,
        "anycast acceptors not local enough: mean distance {mean_dist}"
    );
}

#[test]
fn anycast_fails_when_all_decline() {
    let (mut net, handles) = launch(10, IdAssignment::Random { seed: 1 }, 6);
    let g = group_id("nobody-accepts");
    join_all(&mut net, &handles, g);
    net.call(handles[4].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.anycast(g, TestPayload(3)));
        });
    });
    net.run_to_quiescence();
    let c = net.actor(handles[4].actor).app().client();
    assert_eq!(c.anycast_failures, vec![(g, TestPayload(3))]);
    // Every other member was offered the message exactly once.
    for (i, h) in handles.iter().enumerate() {
        if i != 4 {
            assert_eq!(
                net.actor(h.actor).app().client().anycast_offers.len(),
                1,
                "member {i} should have been offered the anycast once"
            );
        }
    }
}

#[test]
fn anycast_into_empty_group_fails_back_to_origin() {
    let (mut net, handles) = launch(8, IdAssignment::TopologyAware, 8);
    let g = group_id("empty-group");
    net.call(handles[0].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.anycast(g, TestPayload(9)));
        });
    });
    net.run_to_quiescence();
    let c = net.actor(handles[0].actor).app().client();
    assert_eq!(c.anycast_failures, vec![(g, TestPayload(9))]);
}

#[test]
fn leave_prunes_forwarder_chain() {
    let (mut net, handles) = launch(24, IdAssignment::Random { seed: 12 }, 2);
    let g = group_id("churn-group");
    join_all(&mut net, &handles, g);
    // Everyone leaves.
    for h in &handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.leave(g));
            });
        });
    }
    net.run_to_quiescence();
    // Only the rendezvous root may retain (childless) state.
    for (i, h) in handles.iter().enumerate() {
        if let Some(st) = net.actor(h.actor).app().group(g) {
            assert!(st.root, "node {i} kept non-root state after leave");
            assert!(
                st.children.is_empty(),
                "root kept children after everyone left"
            );
        }
    }
    // A multicast now reaches nobody.
    net.call(handles[3].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(0)));
        });
    });
    net.run_to_quiescence();
    for h in &handles {
        assert!(net.actor(h.actor).app().client().multicasts.is_empty());
    }
}

#[test]
fn tree_repairs_after_interior_node_failure() {
    // Children probe their parents every 15 s; orphans re-join through
    // routing once the probe bounces off the dead node.
    let topo = topo(24);
    let (mut net, handles) = overlay::launch(
        &topo,
        IdAssignment::TopologyAware,
        PastryConfig::default(),
        13,
        Latency::Constant(SimDuration::from_micros(100)),
        |_, _| {
            Scribe::with_config(
                CollectClient::default(),
                vbundle_scribe::ScribeConfig::default()
                    .with_probe_interval(SimDuration::from_secs(15)),
            )
        },
    );
    let g = group_id("repair-group");
    for h in &handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.join(g));
            });
        });
    }
    net.run_until(SimTime::from_secs(5));

    // Pick an interior node: a non-root node with children.
    let victim = handles
        .iter()
        .position(|h| {
            let st = net.actor(h.actor).app().group(g);
            st.is_some_and(|s| !s.root && !s.children.is_empty())
        })
        .expect("some interior node exists");
    net.fail(handles[victim].actor);

    // Give the probe cycle time to detect and repair.
    net.run_until(SimTime::from_secs(60));

    // After repair, a multicast reaches every surviving member.
    net.call(handles[(victim + 2) % 24].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(2)));
        });
    });
    net.run_until(SimTime::from_secs(70));
    for (i, h) in handles.iter().enumerate() {
        if i == victim {
            continue;
        }
        let got = &net.actor(h.actor).app().client().multicasts;
        assert!(
            got.contains(&(g, TestPayload(2))),
            "survivor {i} missed the post-repair multicast (got {got:?})"
        );
    }
    // The repaired tree is still a spanning tree over the survivors.
    let members: Vec<usize> = (0..24).filter(|&i| i != victim).collect();
    assert_spanning_tree(&net, &handles, g, &members);
}

#[test]
fn concurrent_groups_do_not_interfere() {
    let (mut net, handles) = launch(16, IdAssignment::TopologyAware, 21);
    let groups: Vec<GroupId> = (0..8).map(|i| group_id(&format!("topic-{i}"))).collect();
    for (i, h) in handles.iter().enumerate() {
        // Node i joins groups i%8 and (i+1)%8.
        for &g in &[groups[i % 8], groups[(i + 1) % 8]] {
            net.call(h.actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |_, sctx| sctx.join(g));
                });
            });
        }
    }
    net.run_to_quiescence();
    for (gi, &g) in groups.iter().enumerate() {
        net.call(handles[0].actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(gi as u64)));
            });
        });
    }
    net.run_to_quiescence();
    for (i, h) in handles.iter().enumerate() {
        let got = &net.actor(h.actor).app().client().multicasts;
        let expect: BTreeSet<u64> = [(i % 8) as u64, ((i + 1) % 8) as u64].into();
        let seen: BTreeSet<u64> = got.iter().map(|(_, p)| p.0).collect();
        assert_eq!(seen, expect, "node {i} got wrong topic set");
    }
}

#[test]
fn client_direct_messages_round_trip() {
    let (mut net, handles) = launch(8, IdAssignment::TopologyAware, 30);
    let to = handles[5];
    net.call(handles[0].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.send_client(to, TestPayload(123)));
        });
    });
    net.run_to_quiescence();
    let c = net.actor(to.actor).app().client();
    assert_eq!(c.directs.len(), 1);
    assert_eq!(c.directs[0].0.id, handles[0].id);
    assert_eq!(c.directs[0].1, TestPayload(123));
}

/// A signal of a kind Scribe never assigned is dropped where it lands: on
/// receipt nothing is delivered, nothing changes and nothing is sent back;
/// on a bounce nothing reaches the client either. Neither panics.
#[test]
fn an_unassigned_signal_kind_is_dropped() {
    let (mut net, handles) = launch(16, IdAssignment::TopologyAware, 41);
    let g = group_id("signals");
    join_all(&mut net, &handles, g);
    let snapshot = |net: &Net| -> Vec<String> {
        handles
            .iter()
            .map(|h| {
                let scribe = net.actor(h.actor).app();
                format!("{:?} {:?}", scribe.client(), scribe.group(g))
            })
            .collect()
    };
    let before = snapshot(&net);
    let (sender, target, dead) = (handles[2], handles[7], handles[11]);
    for kind in [5, 42, u8::MAX] {
        let signal = Signal::new(kind, g, Some(1), 25, MsgCategory::Maintenance);
        let msg = PastryMsg::Signal {
            from: sender,
            signal,
        };
        net.post(target.actor, sender.actor, msg, SimDuration::ZERO);
    }
    let events = net.events_processed();
    net.run_to_quiescence();
    assert_eq!(
        net.events_processed() - events,
        3,
        "three receipts, no reply"
    );
    assert_eq!(snapshot(&net), before);

    net.fail(dead.actor);
    let directs = net.actor(sender.actor).app().client().directs.clone();
    net.call(sender.actor, |node, ctx| {
        node.app_call(ctx, |_, actx| {
            actx.send_signal(dead, Signal::new(9, g, None, 20, MsgCategory::Maintenance));
        });
    });
    net.run_to_quiescence();
    assert_eq!(net.actor(sender.actor).app().client().directs, directs);
}

/// A forged message that came the wrong way — a `Join`, which travels
/// routed only, sent direct, and a `Disseminate`, which travels direct
/// only, routed — is dropped: nothing changes, nothing is sent, and each
/// leaves one flight record naming its sender and the path it took.
#[test]
fn a_misdelivered_variant_is_dropped() {
    let (mut net, handles) = launch(16, IdAssignment::TopologyAware, 43);
    let g = group_id("forgeries");
    join_all(&mut net, &handles, g);
    let (sender, target) = (handles[2], handles[7]);
    let flight = FlightRecorder::new(16);
    net.actor_mut(target.actor)
        .app_mut()
        .attach_obs(&Registry::new(), &flight);
    let snapshot = |net: &Net| -> Vec<String> {
        handles
            .iter()
            .map(|h| {
                let scribe = net.actor(h.actor).app();
                format!("{:?} {:?}", scribe.client(), scribe.group(g))
            })
            .collect()
    };
    let before = snapshot(&net);
    let join = ScribeMsg::Join {
        group: g,
        child: sender,
        summary: None,
    };
    let disseminate = ScribeMsg::Disseminate {
        group: g,
        payload: TestPayload(7),
        ttl: 8,
        seq: 1,
        root: sender.id.as_u128(),
    };
    let direct = PastryMsg::Direct {
        from: sender,
        msg: Box::new(join),
    };
    let routed = PastryMsg::Route(Box::new(RouteEnvelope {
        key: target.id,
        payload: disseminate,
        hops: 0,
        origin: sender,
    }));
    for msg in [direct, routed] {
        net.post(target.actor, sender.actor, msg, SimDuration::ZERO);
    }
    let events = net.events_processed();
    net.run_to_quiescence();
    assert_eq!(net.events_processed() - events, 2, "two receipts, no reply");
    assert_eq!(snapshot(&net), before);
    // Both arrive one link latency after the post, the last events run.
    let at = net.now().as_micros();
    let records: Vec<String> = flight.snapshot().iter().map(|e| e.to_string()).collect();
    let (node, from) = (target.actor.index(), sender.actor.index());
    assert_eq!(
        records,
        [0, 1].map(|routed| format!(
            "[{at}us] node#{node} scribe/misdelivered from={from} routed={routed}"
        ))
    );
}

/// A `Join` or `Publish` routed to a key that is not its group reaches a
/// node that is not the group's rendezvous: it is dropped as misdelivered
/// — no panic, no second root, no dissemination — with one flight record
/// each.
#[test]
fn a_join_or_publish_routed_off_its_group_is_dropped() {
    let (mut net, handles) = launch(16, IdAssignment::TopologyAware, 43);
    let g = group_id("forged-roots");
    join_all(&mut net, &handles, g);
    let is_root =
        |net: &Net, h: &NodeHandle| net.actor(h.actor).app().group(g).is_some_and(|st| st.root);
    let sender = handles[2];
    let target = *handles
        .iter()
        .find(|h| !is_root(&net, h) && h.actor != sender.actor)
        .expect("a node that is not the root");
    let flight = FlightRecorder::new(16);
    net.actor_mut(target.actor)
        .app_mut()
        .attach_obs(&Registry::new(), &flight);
    let snapshot = |net: &Net| -> Vec<String> {
        handles
            .iter()
            .map(|h| {
                let scribe = net.actor(h.actor).app();
                format!("{:?} {:?}", scribe.client(), scribe.group(g))
            })
            .collect()
    };
    let before = snapshot(&net);
    let join = ScribeMsg::Join {
        group: g,
        child: sender,
        summary: None,
    };
    let publish = ScribeMsg::Publish {
        group: g,
        payload: TestPayload(5),
        origin: sender.id.as_u128(),
        nonce: 1,
    };
    for payload in [join, publish] {
        let routed = PastryMsg::Route(Box::new(RouteEnvelope {
            key: target.id,
            payload,
            hops: 0,
            origin: sender,
        }));
        net.post(target.actor, sender.actor, routed, SimDuration::ZERO);
    }
    net.run_to_quiescence();
    assert_eq!(
        handles.iter().filter(|h| is_root(&net, h)).count(),
        1,
        "one root"
    );
    assert_eq!(snapshot(&net), before);
    let at = net.now().as_micros();
    let records: Vec<String> = flight.snapshot().iter().map(|e| e.to_string()).collect();
    let (node, from) = (target.actor.index(), sender.actor.index());
    let record = format!("[{at}us] node#{node} scribe/misdelivered from={from} routed=1");
    assert_eq!(records, [record.clone(), record]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary member subsets, a multicast reaches exactly the
    /// members, and the tree is spanning.
    #[test]
    fn prop_multicast_coverage(
        n in 4usize..24,
        member_mask in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let (mut net, handles) = launch(n, IdAssignment::Random { seed }, 1);
        let g = group_id("prop-group");
        let members: Vec<usize> =
            (0..n).filter(|i| member_mask >> (i % 32) & 1 == 1).collect();
        for &m in &members {
            net.call(handles[m].actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |_, sctx| sctx.join(g));
                });
            });
        }
        net.run_to_quiescence();
        if !members.is_empty() {
            assert_spanning_tree(&net, &handles, g, &members);
        }
        net.call(handles[0].actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(1)));
            });
        });
        net.run_to_quiescence();
        for (i, h) in handles.iter().enumerate() {
            let got = net.actor(h.actor).app().client().multicasts.len();
            prop_assert_eq!(got, usize::from(members.contains(&i)), "node {}", i);
        }
    }
}

/// Regression guard: with heartbeats on, the engine keeps running after a
/// failure without leaking events to the dead node forever.
#[test]
fn heartbeat_overlay_with_scribe_survives_failure() {
    let topo = topo(12);
    let (mut net, handles) = overlay::launch(
        &topo,
        IdAssignment::TopologyAware,
        PastryConfig::default().with_heartbeat(SimDuration::from_secs(20)),
        17,
        Latency::Constant(SimDuration::from_millis(1)),
        |_, _| Scribe::new(CollectClient::default()),
    );
    let g = group_id("hb-group");
    // Heartbeat timers re-arm forever, so drive by deadline, not
    // quiescence.
    for h in &handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.join(g));
            });
        });
    }
    net.run_until(SimTime::from_secs(10));
    net.fail(handles[6].actor);
    net.run_until(SimTime::from_secs(200));
    net.call(handles[0].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(4)));
        });
    });
    net.run_until(SimTime::from_secs(210));
    let mut reached = 0;
    for (i, h) in handles.iter().enumerate() {
        if i == 6 {
            continue;
        }
        if net
            .actor(h.actor)
            .app()
            .client()
            .multicasts
            .contains(&(g, TestPayload(4)))
        {
            reached += 1;
        }
    }
    assert_eq!(reached, 11, "all survivors hear the multicast");
    let _ = ActorId::new(0); // silence unused-import lint paths
}

/// The paper leans on Scribe "efficiently supporting rapid changes in
/// group membership" (§III.A): stress-churn a group with hundreds of
/// interleaved joins and leaves, then verify the tree settles to exactly
/// the final membership.
#[test]
fn rapid_membership_churn_settles_exactly() {
    let (mut net, handles) = launch(20, IdAssignment::TopologyAware, 61);
    let g = group_id("churny");
    // Deterministic churn schedule: node i toggles membership
    // (3 + i % 4) times, 100 ms apart, interleaved across nodes.
    let mut member = [false; 20];
    for round in 0..6usize {
        for (i, h) in handles.iter().enumerate() {
            if round < 3 + i % 4 {
                member[i] = !member[i];
                let join = member[i];
                net.call(h.actor, |node, ctx| {
                    node.app_call(ctx, |scribe, actx| {
                        scribe.client_call(actx, |_, sctx| {
                            if join {
                                sctx.join(g);
                            } else {
                                sctx.leave(g);
                            }
                        });
                    });
                });
            }
        }
        net.run_for(SimDuration::from_millis(100));
    }
    net.run_to_quiescence();

    // A multicast reaches exactly the final members, each exactly once.
    net.call(handles[0].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(99)));
        });
    });
    net.run_to_quiescence();
    for (i, h) in handles.iter().enumerate() {
        let got = net
            .actor(h.actor)
            .app()
            .client()
            .multicasts
            .iter()
            .filter(|(_, p)| p.0 == 99)
            .count();
        assert_eq!(
            got,
            usize::from(member[i]),
            "node {i}: member={} but received {got}",
            member[i]
        );
    }
    // The settled tree is spanning over the members.
    let members: Vec<usize> = (0..20).filter(|&i| member[i]).collect();
    if !members.is_empty() {
        assert_spanning_tree(&net, &handles, g, &members);
    }
}

/// Multicast sequence numbers are monotone per root: members observe every
/// publication exactly once and in order.
#[test]
fn multicasts_arrive_in_order_exactly_once() {
    let (mut net, handles) = launch(12, IdAssignment::TopologyAware, 62);
    let g = group_id("ordered");
    join_all(&mut net, &handles, g);
    for k in 0..10u64 {
        net.call(handles[(k % 12) as usize].actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(k)));
            });
        });
        net.run_to_quiescence();
    }
    for (i, h) in handles.iter().enumerate() {
        let seen: Vec<u64> = net
            .actor(h.actor)
            .app()
            .client()
            .multicasts
            .iter()
            .map(|(_, p)| p.0)
            .collect();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>(), "node {i} saw {seen:?}");
    }
}

/// A tiny anycast TTL budget fails back to the origin instead of looping.
#[test]
fn anycast_ttl_exhaustion_fails_cleanly() {
    let topo = topo(16);
    let (mut net, handles) = overlay::launch(
        &topo,
        IdAssignment::TopologyAware,
        PastryConfig::default(),
        71,
        Latency::Constant(SimDuration::from_micros(100)),
        |_, _| {
            Scribe::with_config(
                CollectClient::default(),
                vbundle_scribe::ScribeConfig {
                    anycast_ttl: 1, // exhausted after a single DFS step
                    ..vbundle_scribe::ScribeConfig::default()
                },
            )
        },
    );
    let g = group_id("tiny-ttl");
    join_all(&mut net, &handles, g);
    // Nobody accepts; with ttl=1 the DFS cannot even finish one branch.
    net.call(handles[3].actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| sctx.anycast(g, TestPayload(5)));
        });
    });
    net.run_to_quiescence();
    let c = net.actor(handles[3].actor).app().client();
    assert_eq!(
        c.anycast_failures,
        vec![(g, TestPayload(5))],
        "origin must learn about the exhausted search"
    );
}

#[test]
fn duplicated_publish_fans_out_once() {
    use vbundle_pastry::RouteEnvelope;

    let (mut net, handles) = launch(12, IdAssignment::TopologyAware, 4);
    let g = group_id("dedup");
    join_all(&mut net, &handles, g);
    let root = *handles
        .iter()
        .find(|h| net.actor(h.actor).app().group(g).is_some_and(|st| st.root))
        .expect("group has a root");
    // The same Publish — identical (origin, nonce) — reaches the root
    // twice, as a duplicating link would deliver it. The root must fan
    // it out once: assigning two sequence numbers would defeat the
    // downstream Disseminate dedup and deliver the payload twice.
    let sender = handles[3];
    let publish = || {
        PastryMsg::Route(Box::new(RouteEnvelope {
            key: g,
            payload: ScribeMsg::Publish {
                group: g,
                payload: TestPayload(9),
                origin: sender.id.as_u128(),
                nonce: 1,
            },
            hops: 0,
            origin: sender,
        }))
    };
    net.post(root.actor, sender.actor, publish(), SimDuration::ZERO);
    net.post(
        root.actor,
        sender.actor,
        publish(),
        SimDuration::from_millis(1),
    );
    net.run_to_quiescence();
    for h in &handles {
        assert_eq!(
            net.actor(h.actor).app().client().multicasts,
            vec![(g, TestPayload(9))],
            "every member must deliver the payload exactly once"
        );
    }
}

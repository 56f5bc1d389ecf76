//! End-to-end tests of the aggregation service: periodic and immediate
//! convergence, multiple topics, churn and failure recovery.

use std::sync::Arc;

use proptest::prelude::*;
use vbundle_aggregation::{AggClient, AggMsg, AggregationConfig, Aggregator, UpdateMode};
use vbundle_dcn::Topology;
use vbundle_pastry::{overlay, IdAssignment, NodeHandle, PastryConfig, PastryMsg, PastryNode};
use vbundle_scribe::{group_id, GroupId, Scribe, ScribeConfig, ScribeMsg};
use vbundle_sim::{Engine, Latency, SimDuration, SimTime};

type Node = PastryNode<Scribe<AggClient>>;
type Net = Engine<PastryMsg<ScribeMsg<AggMsg>>, Node>;

fn launch(
    servers: usize,
    mode: UpdateMode,
    seed: u64,
    probe: Option<SimDuration>,
) -> (Net, Vec<NodeHandle>, Arc<Topology>) {
    let racks = servers.div_ceil(4) as u32;
    let mut sizes = vec![4u32; racks as usize];
    if !servers.is_multiple_of(4) {
        *sizes.last_mut().unwrap() = (servers % 4) as u32;
    }
    let topo = Arc::new(Topology::builder().rack_sizes(&sizes).build());
    let scribe_config = match probe {
        Some(p) => ScribeConfig::default().with_probe_interval(p),
        None => ScribeConfig::default(),
    };
    let (net, handles) = overlay::launch(
        &topo,
        IdAssignment::TopologyAware,
        PastryConfig::default(),
        seed,
        Latency::Constant(SimDuration::from_millis(1)),
        |_, _| {
            Scribe::with_config(
                AggClient::new(Aggregator::new(AggregationConfig {
                    mode,
                    processing_delay: SimDuration::from_micros(1500),
                    ..AggregationConfig::default()
                })),
                scribe_config.clone(),
            )
        },
    );
    (net, handles, topo)
}

fn subscribe_all(net: &mut Net, handles: &[NodeHandle], t: GroupId) {
    for h in handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| c.agg.subscribe(sctx, t));
            });
        });
    }
}

fn set_local(net: &mut Net, h: NodeHandle, t: GroupId, v: f64) {
    net.call(h.actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |c, sctx| c.agg.set_local(sctx, t, v));
        });
    });
}

fn global_at(net: &Net, h: NodeHandle, t: GroupId) -> Option<vbundle_aggregation::AggValue> {
    net.actor(h.actor).app().client().agg.global(t)
}

#[test]
fn periodic_mode_converges_within_height_times_interval() {
    let interval = SimDuration::from_secs(30);
    let (mut net, handles, _) = launch(20, UpdateMode::Periodic(interval), 1, None);
    let t = group_id("BW_Demand");
    subscribe_all(&mut net, &handles, t);
    net.run_until(SimTime::from_secs(2));
    for (i, h) in handles.iter().enumerate() {
        set_local(&mut net, *h, t, (i + 1) as f64);
    }
    // Tree height for 20 nodes is small; 6 intervals is generous.
    net.run_until(SimTime::from_secs(2 + 6 * 30));
    let want_sum: f64 = (1..=20).map(|v| v as f64).sum();
    for h in &handles {
        let g = global_at(&net, *h, t).expect("converged");
        assert_eq!(g.sum, want_sum);
        assert_eq!(g.count, 20);
        assert_eq!(g.min, Some(1.0));
        assert_eq!(g.max, Some(20.0));
    }
}

#[test]
fn immediate_mode_tracks_changes() {
    let (mut net, handles, _) = launch(12, UpdateMode::Immediate, 3, None);
    let t = group_id("BW_Capacity");
    subscribe_all(&mut net, &handles, t);
    net.run_until(SimTime::from_secs(1));
    for h in &handles {
        set_local(&mut net, *h, t, 100.0);
    }
    net.run_until(SimTime::from_secs(2));
    assert_eq!(global_at(&net, handles[0], t).unwrap().sum, 1200.0);

    // One server's capacity changes; the new global propagates.
    set_local(&mut net, handles[5], t, 500.0);
    net.run_until(SimTime::from_secs(3));
    for h in &handles {
        assert_eq!(global_at(&net, *h, t).unwrap().sum, 1600.0);
    }
}

#[test]
fn two_topics_yield_mean_utilization() {
    // The v-Bundle pattern: BW_Demand / BW_Capacity = mean utilization.
    let (mut net, handles, _) = launch(10, UpdateMode::Immediate, 7, None);
    let cap = group_id("BW_Capacity");
    let dem = group_id("BW_Demand");
    subscribe_all(&mut net, &handles, cap);
    subscribe_all(&mut net, &handles, dem);
    net.run_until(SimTime::from_secs(1));
    for (i, h) in handles.iter().enumerate() {
        set_local(&mut net, *h, cap, 10.0);
        set_local(&mut net, *h, dem, if i < 5 { 9.0 } else { 3.0 });
    }
    net.run_until(SimTime::from_secs(3));
    for h in &handles {
        let c = global_at(&net, *h, cap).unwrap();
        let d = global_at(&net, *h, dem).unwrap();
        let utilization = d.sum / c.sum;
        assert!((utilization - 0.6).abs() < 1e-9, "got {utilization}");
    }
}

#[test]
fn node_failure_drops_contribution_after_repair() {
    let (mut net, handles, _) = launch(
        16,
        UpdateMode::Periodic(SimDuration::from_secs(10)),
        9,
        Some(SimDuration::from_secs(10)),
    );
    let t = group_id("BW_Demand");
    subscribe_all(&mut net, &handles, t);
    net.run_until(SimTime::from_secs(1));
    for h in &handles {
        set_local(&mut net, *h, t, 10.0);
    }
    net.run_until(SimTime::from_secs(60));
    assert_eq!(global_at(&net, handles[0], t).unwrap().sum, 160.0);

    // Kill a node; choose one that is not the root of the topic tree so
    // the root can keep publishing.
    let victim = handles
        .iter()
        .position(|h| net.actor(h.actor).app().group(t).is_some_and(|st| !st.root))
        .expect("non-root exists");
    net.fail(handles[victim].actor);
    net.run_until(SimTime::from_secs(300));

    for (i, h) in handles.iter().enumerate() {
        if i == victim {
            continue;
        }
        let g = global_at(&net, *h, t).expect("still publishing");
        assert_eq!(
            g.count, 15,
            "node {i} still counts the dead node's sample: {g}"
        );
        assert_eq!(g.sum, 150.0);
    }
}

#[test]
fn subtree_reflects_info_base() {
    let (mut net, handles, _) = launch(8, UpdateMode::Immediate, 11, None);
    let t = group_id("probe");
    subscribe_all(&mut net, &handles, t);
    net.run_until(SimTime::from_secs(1));
    for (i, h) in handles.iter().enumerate() {
        set_local(&mut net, *h, t, i as f64);
    }
    net.run_until(SimTime::from_secs(2));
    // The root's subtree is the global sum.
    let root = handles
        .iter()
        .position(|h| net.actor(h.actor).app().group(t).is_some_and(|s| s.root))
        .expect("root exists");
    let subtree = net.actor(handles[root].actor).app().client().agg.subtree(t);
    assert_eq!(subtree.sum, (0..8).map(|v| v as f64).sum::<f64>());
    assert_eq!(subtree.count, 8);
}

#[test]
fn unsubscribed_topics_report_nothing() {
    let (net, handles, _) = launch(4, UpdateMode::Immediate, 13, None);
    let t = group_id("never-subscribed");
    assert!(global_at(&net, handles[0], t).is_none());
    assert!(net
        .actor(handles[0].actor)
        .app()
        .client()
        .agg
        .local(t)
        .is_none());
    assert!(net
        .actor(handles[0].actor)
        .app()
        .client()
        .agg
        .subtree(t)
        .is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The published global aggregate equals the true sum/count/min/max of
    /// the locally set values, regardless of overlay size, seed and values.
    #[test]
    fn prop_global_matches_truth(
        n in 3usize..20,
        seed in any::<u64>(),
        values in proptest::collection::vec(0.0f64..1000.0, 20),
    ) {
        let (mut net, handles, _) = launch(n, UpdateMode::Immediate, seed, None);
        let t = group_id("prop-topic");
        subscribe_all(&mut net, &handles, t);
        net.run_until(SimTime::from_secs(1));
        for (i, h) in handles.iter().enumerate() {
            set_local(&mut net, *h, t, values[i]);
        }
        net.run_until(SimTime::from_secs(5));
        let want: vbundle_aggregation::AggValue =
            values[..n].iter().copied().collect();
        for h in &handles {
            let got = global_at(&net, *h, t).expect("converged");
            prop_assert!(got.approx_eq(&want), "got {got}, want {want}");
        }
    }
}

/// The configured per-node processing delay is observable: convergence of
/// a chain of updates takes at least `hops × processing_delay` beyond the
/// pure network time (the 1–2 ms per-level cost of Fig. 14).
#[test]
fn processing_delay_slows_convergence() {
    let run = |delay_us: u64| {
        let racks = 2u32;
        let topo = Arc::new(
            Topology::builder()
                .pods(1)
                .racks_per_pod(racks)
                .servers_per_rack(8)
                .build(),
        );
        let (mut net, handles) = overlay::launch(
            &topo,
            IdAssignment::Random { seed: 5 },
            PastryConfig::default(),
            5,
            Latency::Constant(SimDuration::from_millis(1)),
            |_, _| {
                Scribe::new(AggClient::new(Aggregator::new(AggregationConfig {
                    mode: UpdateMode::Immediate,
                    processing_delay: SimDuration::from_micros(delay_us),
                    ..AggregationConfig::default()
                })))
            },
        );
        let t = group_id("delay-probe");
        for h in &handles {
            net.call(h.actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |c, sctx| c.agg.subscribe(sctx, t));
                });
            });
        }
        net.run_until(SimTime::from_secs(5));
        let t0 = net.now();
        for h in &handles {
            net.call(h.actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |c, sctx| c.agg.set_local(sctx, t, 1.0));
                });
            });
        }
        // Step until every node's global covers all 16 samples.
        loop {
            if !net.step() {
                break;
            }
            let done = handles.iter().all(|h| {
                net.actor(h.actor)
                    .app()
                    .client()
                    .agg
                    .global(t)
                    .is_some_and(|g| g.count == 16 && (g.sum - 16.0).abs() < 1e-9)
            });
            if done {
                break;
            }
        }
        (net.now() - t0).as_millis_f64()
    };
    let fast = run(0);
    let slow = run(20_000); // 20 ms per hop of processing
                            // At least one upward hop pays the full delay (a flat tree pays it
                            // exactly once, so compare with a small epsilon).
    assert!(
        slow >= fast + 19.9,
        "processing delay not observable: {fast} ms vs {slow} ms"
    );
}

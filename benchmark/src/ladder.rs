//! The stack-prefix ladder: the same overlay, timers and horizon as a
//! workload, with the stack truncated at pastry → scribe → aggregation.
//! The difference between neighbouring rungs is a layer's cost as seen
//! from outside; the untraced full-stack rep is the top rung. Each rung
//! also hosts the probes that need that prefix alone (route, join,
//! multicast, anycast).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_aggregation::{AggClient, AggregationConfig, Aggregator, UpdateMode};
use vbundle_core::{bw_capacity_topic, bw_demand_topic};
use vbundle_dcn::{Topology, TopologyLatency};
use vbundle_pastry::overlay::{self, Probe};
use vbundle_pastry::{AppCtx, Id, Key, NodeHandle, PastryApp, PastryMsg, PastryNode};
use vbundle_scribe::{group_id, CollectClient, Scribe, ScribeClient, TestPayload};
use vbundle_sim::{Engine, Message, SimDuration, SimTime};

use crate::alloc;
use crate::span::Tracer;
use crate::workloads::{Overlay, Params, StackSpec};

type Net<A> = Engine<PastryMsg<<A as PastryApp>::Msg>, PastryNode<A>>;

/// The harness's own Pastry application: counts the overlay hops of the
/// probes routed through it.
#[derive(Default)]
struct HopCounter {
    forwards: u64,
    delivered: u64,
}

impl PastryApp for HopCounter {
    type Msg = Probe;

    fn deliver(&mut self, _: &mut AppCtx<'_, '_, Probe>, _: Key, _: Probe, _: NodeHandle) {
        self.delivered += 1;
    }

    fn forward(
        &mut self,
        _: &mut AppCtx<'_, '_, Probe>,
        _: Key,
        msg: Probe,
        _: NodeHandle,
    ) -> Option<Probe> {
        self.forwards += 1;
        Some(msg)
    }
}

/// Wall time and events of one rung's timed phase.
#[derive(Debug, Clone, Copy, Default)]
struct Rung {
    run_s: f64,
    events: u64,
}

/// Launches one prefix on the workload's overlay: cloned routing state,
/// the cluster's devirtualized topology latency, the workload's seed.
fn launch<A: PastryApp>(
    ov: &Overlay,
    spec: &StackSpec,
    seed: u64,
    mut app: impl FnMut(usize) -> A,
) -> Net<A> {
    let latency = TopologyLatency::new(Arc::clone(&ov.topo)).devirtualize();
    let mut engine: Net<A> = Engine::with_latency(latency, seed);
    for (i, state) in ov.states.iter().enumerate() {
        engine.add_actor(PastryNode::with_state(
            state.clone(),
            app(i),
            spec.pastry.clone(),
        ));
    }
    engine.start();
    engine
}

/// Runs warm-up untimed, then the horizon timed.
fn timed_phase<W: Message, A: vbundle_sim::Actor<W>>(
    tr: &mut Tracer,
    name: &'static str,
    engine: &mut Engine<W, A>,
    spec: &StackSpec,
) -> Rung {
    let warm = SimTime::ZERO + spec.warmup;
    if engine.now() < warm {
        engine.run_until(warm);
    }
    let before = engine.events_processed();
    let open = tr.enter(name);
    let started = Instant::now();
    engine.run_until(warm + spec.horizon);
    let run_s = started.elapsed().as_secs_f64();
    let events = engine.events_processed() - before;
    tr.exit_with(open, events, 0);
    Rung { run_s, events }
}

/// Runs `f` on every node's Scribe client with a live context.
fn each_client<C: ScribeClient>(
    engine: &mut Net<Scribe<C>>,
    handles: &[NodeHandle],
    mut f: impl FnMut(usize, &mut C, &mut vbundle_scribe::ScribeCtx<'_, '_, '_, '_, C::Msg>),
) {
    for (i, h) in handles.iter().enumerate() {
        engine.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| f(i, c, sctx));
            });
        });
    }
}

/// Runs the three prefixes and their probes; returns per-layer values by
/// metric name. `full_run_s` is the untraced full-stack rep's `run_s`.
pub fn run(
    tr: &mut Tracer,
    p: &Params,
    spec: &StackSpec,
    ov: &Overlay,
    full_run_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let n = ov.handles.len();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x1adde7);
    let probes = p.scaled(20_000) as usize;

    // Rung 1: pastry alone. Over the horizon it does maintenance only.
    let mut net = launch(ov, spec, p.seed, |_| HopCounter::default());
    let pastry = timed_phase(tr, "ladder.pastry", &mut net, spec);
    out.insert(
        "pastry.maintenance_msgs",
        net.counter_totals().maintenance_msgs as f64,
    );
    let open = tr.enter("pastry.route");
    let started = Instant::now();
    for i in 0..probes {
        let from = ov.handles[rng.gen_range(0..n)].actor;
        let key: Key = Id::from_u128(rng.gen());
        net.call(from, |node, ctx| {
            node.app_call(ctx, |_, actx| actx.route(key, Probe(i as u64)));
        });
    }
    net.run_for(SimDuration::from_secs(2));
    let route_s = started.elapsed().as_secs_f64();
    tr.exit(open);
    let (forwards, delivered) = net.actors().fold((0, 0), |(f, d), (_, node)| {
        (f + node.app().forwards, d + node.app().delivered)
    });
    assert_eq!(delivered, probes as u64, "every routed probe is delivered");
    out.insert("pastry.route_us", route_s * 1e6 / probes as f64);
    out.insert("pastry.hops_mean", forwards as f64 / probes as f64);
    drop(net);

    // Rung 2: + scribe. Every node joins the two aggregation topics, as
    // the controllers do in `on_start`; then the trees only heartbeat.
    let topics = [bw_capacity_topic(), bw_demand_topic()];
    let mut net = launch(ov, spec, p.seed, |i| {
        Scribe::with_config(
            CollectClient {
                // One anycast-group member in four takes what it is offered.
                accept_anycast: i % 16 == 0,
                ..CollectClient::default()
            },
            spec.scribe.clone(),
        )
    });
    let open = tr.enter("scribe.join");
    let before_joins = net.events_processed();
    let started = Instant::now();
    each_client(&mut net, &ov.handles, |_, _, sctx| {
        topics.iter().for_each(|&t| sctx.join(t));
    });
    let settle = SimDuration::from_secs(10);
    net.run_for(settle);
    let join_s = started.elapsed().as_secs_f64();
    tr.exit(open);
    out.insert("scribe.join_us", join_s * 1e6 / (2 * n) as f64);
    let mut scribe = timed_phase(tr, "ladder.scribe", &mut net, spec);
    if spec.warmup < settle {
        // The joins above ran inside what is the timed phase here.
        scribe.run_s += join_s;
        scribe.events = net.events_processed() - before_joins;
    }

    let multicasts = p.scaled(200) as usize;
    let publish = |net: &mut Net<Scribe<CollectClient>>, base: u64| {
        let root = ov.handles[0].actor;
        for k in 0..multicasts as u64 {
            net.call(root, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |_, sctx| {
                        sctx.multicast(topics[1], TestPayload(base + k));
                    });
                });
            });
        }
        net.run_for(SimDuration::from_secs(1));
    };
    let open = tr.enter("scribe.multicast");
    let started = Instant::now();
    publish(&mut net, 0);
    let multicast_s = started.elapsed().as_secs_f64();
    tr.exit(open);
    let ((), heap) = alloc::counted(|| publish(&mut net, 1 << 32));
    let heard: usize = net
        .actors()
        .map(|(_, node)| node.app().client().multicasts.len())
        .sum();
    assert_eq!(
        heard,
        2 * multicasts * n,
        "every member hears every multicast"
    );
    out.insert(
        "scribe.multicast_us_per_member",
        multicast_s * 1e6 / (multicasts * n) as f64,
    );
    out.insert(
        "scribe.allocs_per_multicast",
        heap.allocs as f64 / multicasts as f64,
    );

    let group = group_id("benchmark-anycast");
    each_client(&mut net, &ov.handles, |i, _, sctx| {
        if i % 4 == 0 {
            sctx.join(group);
        }
    });
    net.run_for(settle);
    let anycasts = p.scaled(2_000) as usize;
    let open = tr.enter("scribe.anycast");
    let started = Instant::now();
    for k in 0..anycasts {
        let from = ov.handles[rng.gen_range(0..n)].actor;
        net.call(from, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.anycast(group, TestPayload(k as u64)));
            });
        });
    }
    net.run_for(SimDuration::from_secs(2));
    let anycast_s = started.elapsed().as_secs_f64();
    tr.exit(open);
    let (offers, failures) = net.actors().fold((0, 0), |(o, f), (_, node)| {
        let c = node.app().client();
        (o + c.anycast_offers.len(), f + c.anycast_failures.len())
    });
    assert_eq!(failures, 0, "an accepting member is always reachable");
    out.insert("scribe.anycast_us", anycast_s * 1e6 / anycasts as f64);
    out.insert("scribe.anycast_hops_mean", offers as f64 / anycasts as f64);
    drop(net);

    // Rung 3: + aggregation, periodic at the workload's update interval.
    let agg_config = AggregationConfig {
        mode: UpdateMode::Periodic(spec.update_interval),
        ..AggregationConfig::default()
    };
    let mut net = launch(ov, spec, p.seed, |_| {
        Scribe::with_config(
            AggClient::new(Aggregator::new(agg_config.clone())),
            spec.scribe.clone(),
        )
    });
    each_client(&mut net, &ov.handles, |i, c, sctx| {
        for (&topic, value) in topics.iter().zip([1_000.0, 500.0 + i as f64]) {
            c.agg.subscribe(sctx, topic);
            c.agg.set_local(sctx, topic, value);
        }
    });
    let agg = timed_phase(tr, "ladder.aggregation", &mut net, spec);
    drop(net);

    let rounds = (spec.horizon.as_micros() / spec.update_interval.as_micros()).max(1) as f64;
    out.insert("pastry.prefix_run_s", pastry.run_s);
    out.insert("pastry.prefix_events", pastry.events as f64);
    out.insert("scribe.prefix_run_s", scribe.run_s);
    out.insert("scribe.prefix_events", scribe.events as f64);
    out.insert(
        "scribe.prefix_self_s",
        (scribe.run_s - pastry.run_s).max(0.0),
    );
    out.insert("aggregation.prefix_run_s", agg.run_s);
    out.insert("aggregation.prefix_events", agg.events as f64);
    out.insert(
        "aggregation.prefix_self_s",
        (agg.run_s - scribe.run_s).max(0.0),
    );
    out.insert("aggregation.round_wall_ms", agg.run_s * 1e3 / rounds);
    out.insert(
        "aggregation.events_per_round_per_server",
        agg.events as f64 / rounds / n as f64,
    );
    out.insert("core.controller.self_s", (full_run_s - agg.run_s).max(0.0));
    out
}

/// `build_states` at the workload's size over the same call on half the
/// pods (or half the racks of a single pod): 2 is linear, 4 quadratic.
pub fn build_states_ratio(tr: &mut Tracer, spec: &StackSpec, full_s: f64) -> f64 {
    let (pods, racks, servers) = spec.dims;
    let half = if pods >= 2 {
        (pods / 2, racks, servers)
    } else {
        (pods, (racks / 2).max(1), servers)
    };
    let topo = Arc::new(
        Topology::builder()
            .pods(half.0)
            .racks_per_pod(half.1)
            .servers_per_rack(half.2)
            .build(),
    );
    let ids = overlay::assign_ids(&topo, overlay::IdAssignment::TopologyAware);
    let handles = overlay::handles_for(&ids);
    let open = tr.enter("pastry.build_states_half");
    let started = Instant::now();
    std::hint::black_box(overlay::build_states(&topo, &handles, &spec.pastry));
    let half_s = started.elapsed().as_secs_f64();
    tr.exit(open);
    full_s / half_s
}

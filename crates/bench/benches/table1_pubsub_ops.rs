//! Table I — computation overhead for v-Bundle pub-sub operations:
//! subscription, unsubscription, publication (and anycast + aggregation
//! update, which v-Bundle layers on top).
//!
//! The paper measures these with `System.nanoTime` averaged over 1000
//! runs on 3 servers; here Criterion measures the full simulated protocol
//! processing (all nodes' computation for one operation) on a 16-node
//! overlay with zero network latency, so the reported time is pure
//! computation, as in the paper.
//!
//! Run: `cargo bench -p vbundle-bench --bench table1_pubsub_ops`

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vbundle_dcn::Topology;
use vbundle_pastry::{overlay, IdAssignment, NodeHandle, PastryConfig, PastryMsg, PastryNode};
use vbundle_scribe::{group_id, CollectClient, GroupId, Scribe, ScribeMsg, TestPayload};
use vbundle_sim::{Engine, Latency, SimDuration};

type Net = Engine<PastryMsg<ScribeMsg<TestPayload>>, PastryNode<Scribe<CollectClient>>>;

fn overlay_16(seed: u64) -> (Net, Vec<NodeHandle>) {
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    overlay::launch(
        &topo,
        IdAssignment::TopologyAware,
        PastryConfig::default(),
        seed,
        // Zero latency: measured time is protocol computation only.
        Latency::Constant(SimDuration::ZERO),
        |_, _| Scribe::new(CollectClient::default()),
    )
}

fn join_group(net: &mut Net, handles: &[NodeHandle], g: GroupId) {
    for h in handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |_, sctx| sctx.join(g));
            });
        });
    }
    net.run_to_quiescence();
}

fn bench_subscribe(c: &mut Criterion) {
    c.bench_function("table1/subscription", |b| {
        b.iter_batched_ref(
            || overlay_16(1),
            |(net, handles)| {
                let g = group_id("bench-group");
                net.call(handles[5].actor, |node, ctx| {
                    node.app_call(ctx, |scribe, actx| {
                        scribe.client_call(actx, |_, sctx| sctx.join(g));
                    });
                });
                net.run_to_quiescence();
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_unsubscribe(c: &mut Criterion) {
    c.bench_function("table1/unsubscription", |b| {
        b.iter_batched_ref(
            || {
                let (mut net, handles) = overlay_16(2);
                let g = group_id("bench-group");
                join_group(&mut net, &handles, g);
                (net, handles)
            },
            |(net, handles)| {
                let g = group_id("bench-group");
                net.call(handles[5].actor, |node, ctx| {
                    node.app_call(ctx, |scribe, actx| {
                        scribe.client_call(actx, |_, sctx| sctx.leave(g));
                    });
                });
                net.run_to_quiescence();
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_publish(c: &mut Criterion) {
    let (mut net, handles) = overlay_16(3);
    let g = group_id("bench-group");
    join_group(&mut net, &handles, g);
    c.bench_function("table1/publication", |b| {
        b.iter(|| {
            net.call(handles[7].actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(1)));
                });
            });
            net.run_to_quiescence();
        });
    });
}

fn bench_anycast(c: &mut Criterion) {
    let (mut net, handles) = overlay_16(4);
    let g = group_id("bench-group");
    join_group(&mut net, &handles, g);
    for h in &handles {
        net.actor_mut(h.actor).app_mut().client_mut().accept_anycast = true;
    }
    c.bench_function("table1/anycast", |b| {
        b.iter(|| {
            net.call(handles[2].actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |_, sctx| sctx.anycast(g, TestPayload(2)));
                });
            });
            net.run_to_quiescence();
        });
    });
}

fn bench_route(c: &mut Criterion) {
    // Raw Pastry routing cost as the baseline all operations pay.
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(4)
            .servers_per_rack(4)
            .build(),
    );
    let (mut net, handles) = vbundle_pastry::overlay::launch_null(
        &topo,
        IdAssignment::TopologyAware,
        PastryConfig::default(),
        5,
    );
    let key = group_id("routed-key");
    c.bench_function("table1/pastry_route", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            net.call(handles[(i % 16) as usize].actor, |node, ctx| {
                node.app_call(ctx, |_, actx| {
                    actx.route(key, vbundle_pastry::overlay::Probe(i))
                });
            });
            net.run_to_quiescence();
        });
    });
}

criterion_group!(
    name = table1;
    config = Criterion::default().sample_size(200);
    targets = bench_subscribe, bench_unsubscribe, bench_publish, bench_anycast, bench_route
);
criterion_main!(table1);

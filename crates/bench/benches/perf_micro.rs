//! Performance micro-benchmarks of the hot paths: shaper allocation,
//! offline placement throughput, overlay construction, the anycast pick
//! and a whole anycast walk that cannot succeed, a boot walk across a
//! full rack, the leaf-set heartbeat round, the engine's event-queue
//! discipline (binary heap vs delay FIFOs, under the delay mixes the
//! benchmark workloads measure) and the bare engine under gossip. These guard the harness's ability to run the paper's
//! 3000-server scenarios quickly.
//!
//! Run: `cargo bench -p vbundle-bench --bench perf_micro [-- <filter>]`

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vbundle_bench::scenarios::{gossip_engine, GOSSIP_TICK_MS};
use vbundle_core::{
    shaper, Cluster, ClusterModel, Customer, CustomerId, PlacementPolicy, ResourceSpec,
    ResourceVector, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::{overlay, Id, IdAssignment, PastryConfig, PastryMsg, PastryNode, Site};
use vbundle_scribe::{group_id, Children, CollectClient, Scribe, ScribeMsg, TestPayload};
use vbundle_sim::{ActorId, Engine, EventQueue, Latency, SimDuration, SimTime};

fn bench_shaper(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/shaper_allocate");
    for &n in &[4usize, 16, 64] {
        let vms: Vec<VmRecord> = (0..n)
            .map(|i| {
                let mut vm = VmRecord::new(
                    VmId(i as u64),
                    CustomerId(0),
                    ResourceSpec::bandwidth(
                        Bandwidth::from_mbps(50.0),
                        Bandwidth::from_mbps(400.0),
                    ),
                );
                vm.demand =
                    ResourceVector::bandwidth_only(Bandwidth::from_mbps(30.0 + i as f64 * 17.0));
                vm
            })
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &vms, |b, vms| {
            b.iter(|| shaper::allocate(Bandwidth::from_gbps(1.0), std::hint::black_box(vms)));
        });
    }
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let topo = Arc::new(Topology::simulation_3000());
    let mut group = c.benchmark_group("perf/place_5000_vms");
    group.sample_size(10);
    for policy in [PlacementPolicy::VBundle, PlacementPolicy::Greedy] {
        group.bench_function(format!("{policy:?}"), |b| {
            b.iter(|| {
                let ids = overlay::topology_aware_ids(&topo);
                let mut model = ClusterModel::new(Arc::clone(&topo), ids, topo.capacity().into());
                let mut rng = StdRng::seed_from_u64(1);
                let spec = ResourceSpec::bandwidth(
                    Bandwidth::from_mbps(100.0),
                    Bandwidth::from_mbps(200.0),
                );
                let keys: Vec<Id> = (0..5).map(|i| Id::from_name(&format!("c{i}"))).collect();
                for i in 0..5000u64 {
                    let vm = VmRecord::new(VmId(i), CustomerId((i % 5) as u32), spec);
                    model
                        .place(policy, keys[(i % 5) as usize], vm, &mut rng)
                        .expect("placed");
                }
                model.num_vms()
            });
        });
    }
    group.finish();
}

fn bench_overlay_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/build_overlay_states");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096, 16384] {
        let racks = (n / 16) as u32;
        let topo = Arc::new(
            Topology::builder()
                .pods(4)
                .racks_per_pod(racks / 4)
                .servers_per_rack(16)
                .build(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &topo, |b, topo| {
            b.iter(|| {
                let ids = overlay::topology_aware_ids(topo);
                let handles = overlay::handles_for(&ids);
                overlay::build_states(topo, &handles, &PastryConfig::default()).len()
            });
        });
    }
    group.finish();
}

/// One anycast step at a node with `width` children (every server of a
/// 4-pod topology with racks of 16), a third of them already visited and
/// every link's summary read by the default admit rule: the pick for one
/// origin per rack.
fn bench_anycast_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/anycast_step");
    for &width in &[64u32, 4096] {
        let topo = Topology::builder()
            .pods(4)
            .racks_per_pod(width / 64)
            .servers_per_rack(16)
            .build();
        let handles = overlay::handles_for(&overlay::topology_aware_ids(&topo));
        let parent = Id::from_name("Less-Loaded");
        let mut children = Children::default();
        for &h in &handles {
            let site = Site::of(&topo, h.actor);
            children.graft(h, || site, parent, SimTime::ZERO, Some(1));
        }
        let visited: Vec<ActorId> = handles.iter().step_by(3).map(|h| h.actor).collect();
        let origins: Vec<_> = handles.iter().step_by(16).copied().collect();
        group.throughput(Throughput::Elements(origins.len() as u64));
        let id = BenchmarkId::from_parameter(width);
        group.bench_with_input(id, &children, |b, children| {
            b.iter(|| {
                origins
                    .iter()
                    .filter_map(|&o| {
                        let site = Site::of(&topo, o.actor);
                        children.nearest_unvisited(o, site, &visited, |s| s != Some(0))
                    })
                    .map(|(distance, _)| u64::from(distance))
                    .sum::<u64>()
            });
        });
    }
    group.finish();
}

/// A whole anycast walk through a group of `width` members of which none
/// accepts, all of them saying so in their summaries: issued at one member
/// per rack, run until the origin has its failure notice.
fn bench_anycast_dry_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/anycast_dry_walk");
    group.sample_size(10);
    for &width in &[64u32, 4096] {
        let topo = Topology::builder()
            .pods(4)
            .racks_per_pod(width / 64)
            .servers_per_rack(16)
            .build();
        let (mut net, handles) = overlay::launch(
            &Arc::new(topo),
            IdAssignment::TopologyAware,
            PastryConfig::default(),
            5,
            Latency::Constant(SimDuration::from_micros(100)),
            |_, _| {
                Scribe::new(CollectClient {
                    summary: Some(0),
                    ..CollectClient::default()
                })
            },
        );
        let spot = group_id("Spot-0");
        type Net = Engine<PastryMsg<ScribeMsg<TestPayload>>, PastryNode<Scribe<CollectClient>>>;
        let call = |net: &mut Net, at: ActorId, anycast: bool| {
            net.call(at, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |_, sctx| match anycast {
                        true => sctx.anycast(spot, TestPayload(1)),
                        false => sctx.join(spot),
                    });
                });
            });
        };
        for h in &handles {
            call(&mut net, h.actor, false);
        }
        net.run_to_quiescence();
        let origins: Vec<ActorId> = handles.iter().step_by(16).map(|h| h.actor).collect();
        group.throughput(Throughput::Elements(origins.len() as u64));
        group.bench_function(width.to_string(), |b| {
            b.iter(|| {
                for &origin in &origins {
                    call(&mut net, origin, true);
                }
                net.run_to_quiescence();
                net.events_processed()
            });
        });
    }
    group.finish();
}

/// Boot walks across a full rack: a cluster of `servers` in racks of 20
/// whose tenant's root rack is full, so every walk crosses that rack
/// before the pod admits it. An iteration boots 16 VMs, one at a time
/// from entries spread over the cluster, each run until its result, and
/// removes every placed VM again, so each iteration walks the same paths.
fn bench_boot_walk(c: &mut Criterion) {
    const WALKS: usize = 16;
    let mut group = c.benchmark_group("perf/boot_walk");
    group.sample_size(10);
    group.throughput(Throughput::Elements(WALKS as u64));
    for &servers in &[1_000u32, 10_000] {
        let topo = Arc::new(
            Topology::builder()
                .pods(5)
                .racks_per_pod(servers / 100)
                .servers_per_rack(20)
                .build(),
        );
        let hour = SimDuration::from_secs(3600);
        let config = VBundleConfig::default()
            .with_update_interval(hour)
            .with_rebalance_interval(hour);
        let mut cluster = Cluster::builder(Arc::clone(&topo))
            .vbundle(config)
            .seed(7)
            .build();
        let tenant = Customer::new(CustomerId(0), "tenant-0");
        let root = (0..topo.num_servers())
            .min_by_key(|&s| cluster.ids[s].ring_distance(tenant.key))
            .expect("servers");
        let nic = topo.capacity().bandwidth;
        for server in topo.servers_in_rack(topo.rack_of(topo.server(root))) {
            let id = cluster.alloc_vm_id();
            let filler = VmRecord::new(id, CustomerId(1), ResourceSpec::bandwidth(nic, nic));
            cluster.install_vm(server, filler);
        }
        let spec =
            ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(200.0));
        group.bench_function(servers.to_string(), |b| {
            b.iter(|| {
                for w in 0..WALKS {
                    let entry = w * 61 % topo.num_servers();
                    let (request, vm) =
                        cluster.request_boot(entry, &tenant, spec, ResourceVector::ZERO);
                    let host = loop {
                        if let Some(result) = cluster.boot_result(entry, request) {
                            break result.expect("placed");
                        }
                        cluster.run_for(SimDuration::from_millis(1));
                    };
                    cluster.controller_mut(entry).stats.boot_results.clear();
                    cluster.controller_mut(host.actor.index()).remove_vm(vm);
                }
                cluster.now()
            });
        });
    }
    group.finish();
}

/// One simulated second of a settled 512-node ring that does nothing but
/// heartbeat: every node's round (16 leaf-set members each) and the
/// delivery of everything the round sends. The arrival windows are full
/// before the first measured round, the steady state of a long run.
fn bench_heartbeat_round(c: &mut Criterion) {
    let topo = Arc::new(
        Topology::builder()
            .pods(4)
            .racks_per_pod(8)
            .servers_per_rack(16)
            .build(),
    );
    let second = SimDuration::from_secs(1);
    let config = PastryConfig::default().with_heartbeat(second);
    let (mut net, handles) =
        overlay::launch_null(&topo, IdAssignment::Random { seed: 11 }, config, 3);
    net.run_for(second * 20);
    let mut group = c.benchmark_group("perf/heartbeat_round");
    group.throughput(Throughput::Elements(handles.len() as u64));
    group.bench_function(handles.len().to_string(), |b| {
        b.iter(|| {
            net.run_for(second);
            net.events_processed()
        });
    });
    group.finish();
}

/// A payload about the size of one queued engine event (destination +
/// a small wire message), so the disciplines pay realistic move costs.
type Payload = [u64; 6];

/// The two queue disciplines, behind one interface: the binary heap the
/// engine started with and the engine's delay-FIFO queue.
trait Discipline: Default {
    fn insert(&mut self, now: u64, at: u64, seq: u64, value: Payload);
    fn pop(&mut self) -> Option<(u64, Payload)>;
}

impl Discipline for BinaryHeap<Reverse<(u64, u64, Payload)>> {
    fn insert(&mut self, _now: u64, at: u64, seq: u64, value: Payload) {
        self.push(Reverse((at, seq, value)));
    }
    fn pop(&mut self) -> Option<(u64, Payload)> {
        BinaryHeap::pop(self).map(|Reverse((at, _, v))| (at, v))
    }
}

impl Discipline for EventQueue<Payload> {
    fn insert(&mut self, now: u64, at: u64, seq: u64, value: Payload) {
        self.insert_from(now, at, seq, value);
    }
    fn pop(&mut self) -> Option<(u64, Payload)> {
        EventQueue::pop(self).map(|(at, _, v)| (at, v))
    }
}

/// A deterministic pseudo-random draw for the `i`-th insert.
fn draw(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 24
}

/// The stack workloads' insert delays in µs, per mille of inserts: the
/// four DCN tiers, two protocol round trips and the Scribe probe and
/// update periods. The remaining 3 ‰ are one-off delays.
const STACK_MIX: [(u64, u64); 8] = [
    (500, 300),
    (250, 250),
    (100, 200),
    (10, 100),
    (2_000, 50),
    (1_750, 47),
    (30_000_000, 25),
    (300_000_000, 25),
];

/// The `i`-th stack delay: a [`STACK_MIX`] tier, or a one-off up to 10 s.
fn stack_delay(i: u64) -> u64 {
    let mut pick = draw(i) % 1_000;
    for (delay, share) in STACK_MIX {
        if pick < share {
            return delay;
        }
        pick -= share;
    }
    draw(i ^ 0x5555) % 10_000_000
}

/// The stack mix, closed loop: `depth` events queued, then every pop
/// inserts one more at a mixed delay from the popped time, then a drain.
fn stack_mix<Q: Discipline>(depth: u64) -> u64 {
    let mut queue = Q::default();
    let mut seq = 0u64;
    for _ in 0..depth {
        queue.insert(0, stack_delay(seq), seq, [seq; 6]);
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..4 * depth {
        let (now, v) = queue.pop().expect("filled");
        queue.insert(now, now + stack_delay(seq), seq, v);
        seq += 1;
        acc ^= now;
    }
    while let Some((at, _)) = queue.pop() {
        acc ^= at;
    }
    acc
}

/// `engine_gossip`'s mix: `actors` start timers jittered over one 100-ms
/// tick, then each timer pop re-arms at 100 ms and sends four zero-delay
/// messages, for `8 × actors` pops.
fn gossip_mix<Q: Discipline>(actors: u64) -> u64 {
    const TICK: u64 = 100_000;
    let mut queue = Q::default();
    let mut seq = 0u64;
    for _ in 0..actors {
        queue.insert(0, draw(seq) % TICK, seq, [0; 6]);
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..8 * actors {
        let (now, v) = queue.pop().expect("filled");
        if v[0] == 0 {
            queue.insert(now, now + TICK, seq, v);
            seq += 1;
            for _ in 0..4 {
                queue.insert(now, now, seq, [1; 6]);
                seq += 1;
            }
        }
        acc ^= now;
    }
    acc
}

/// One periodic protocol round per simulated second — a timer fires, its
/// handler sends `keys` same-latency messages, all are dispatched before
/// the next round. Returns the bytes the queue still holds once
/// everything has drained.
fn burst_rounds(keys: u64) -> usize {
    let mut queue: EventQueue<Payload> = EventQueue::new();
    let mut seq = 0u64;
    for round in 1..=BURST_ROUNDS {
        let tick = round * 1_000_000;
        queue.insert(tick, seq, [seq; 6]);
        queue.pop().expect("tick");
        for _ in 0..keys {
            seq += 1;
            queue.insert(tick + 500, seq, [seq; 6]);
        }
        while let Some((at, _, v)) = queue.pop() {
            std::hint::black_box((at, v));
        }
        seq += 1;
    }
    queue.heap_bytes()
}

/// Rounds per `burst_round` iteration.
const BURST_ROUNDS: u64 = 32;

type Heap = BinaryHeap<Reverse<(u64, u64, Payload)>>;

fn bench_queue_discipline(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/queue_mix");
    for &depth in &[1_000u64, 10_000] {
        group.throughput(Throughput::Elements(5 * depth));
        group.bench_with_input(
            BenchmarkId::new("stack/binary_heap", depth),
            &depth,
            |b, &d| b.iter(|| stack_mix::<Heap>(d)),
        );
        group.bench_with_input(
            BenchmarkId::new("stack/event_queue", depth),
            &depth,
            |b, &d| b.iter(|| stack_mix::<EventQueue<Payload>>(d)),
        );
    }
    for &actors in &[1_000u64, 100_000] {
        group.throughput(Throughput::Elements(8 * actors));
        group.bench_with_input(
            BenchmarkId::new("gossip/binary_heap", actors),
            &actors,
            |b, &n| b.iter(|| gossip_mix::<Heap>(n)),
        );
        group.bench_with_input(
            BenchmarkId::new("gossip/event_queue", actors),
            &actors,
            |b, &n| b.iter(|| gossip_mix::<EventQueue<Payload>>(n)),
        );
    }
    for &keys in &[1_000u64, 100_000] {
        group.throughput(Throughput::Elements(BURST_ROUNDS * keys));
        group.bench_with_input(BenchmarkId::new("burst_round", keys), &keys, |b, &keys| {
            b.iter(|| burst_rounds(keys))
        });
        println!(
            "      burst_round/{keys}: {} B retained after {BURST_ROUNDS} drained rounds",
            burst_rounds(keys)
        );
    }
    group.finish();
}

/// Events each `perf/engine_gossip` iteration dispatches.
const GOSSIP_EVENTS: u64 = 1_000_000;

/// The bare engine under `scale_sweep`'s gossip actor: `N` actors, past
/// their first tick (built in the untimed warm-up call), then a fixed
/// event count per iteration. 1k actors fit in cache and 100k do not,
/// which makes this the harness for ablating the engine's prefetch and
/// layout layers (EXPERIMENTS.md "Engine layer ablation (PR 25)"): one
/// scratch build per variant, no committed switch.
fn bench_engine_gossip(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/engine_gossip");
    group.sample_size(10);
    group.throughput(Throughput::Elements(GOSSIP_EVENTS));
    for &actors in &[1_000usize, 100_000] {
        let mut engine = None;
        group.bench_function(actors.to_string(), |b| {
            let engine = engine.get_or_insert_with(|| {
                let mut engine = gossip_engine(actors, 20120618);
                engine.start();
                engine.run_for(SimDuration::from_millis(GOSSIP_TICK_MS));
                engine
            });
            b.iter(|| {
                let target = engine.events_processed() + GOSSIP_EVENTS;
                while engine.events_processed() < target && engine.step() {}
                engine.events_processed()
            });
        });
    }
    group.finish();
}

criterion_group!(
    name = perf;
    config = Criterion::default();
    targets = bench_shaper, bench_placement, bench_overlay_build, bench_anycast_step,
        bench_anycast_dry_walk, bench_boot_walk, bench_heartbeat_round,
        bench_queue_discipline, bench_engine_gossip
);
criterion_main!(perf);

//! What the four full-stack workloads share: building a cluster under
//! spans, bracketing the timed phase, and reading the outcome back through
//! the cluster's public surface.

use std::sync::Arc;
use std::time::Instant;

use vbundle_core::metrics::{mean, std_dev};
use vbundle_core::{
    Cluster, ClusterReport, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::{overlay, IdAssignment};
use vbundle_sim::{SimDuration, SimTime};

use super::{Mode, Overlay, Rep, StackSpec, FLIGHT_CAPACITY};
use crate::alloc;
use crate::span::Tracer;
use crate::stats::Digest;

/// Builds the datacenter topology.
pub fn topology(tr: &mut Tracer, dims: (u32, u32, u32)) -> Arc<Topology> {
    tr.span("dcn.topology_build", || {
        Arc::new(
            Topology::builder()
                .pods(dims.0)
                .racks_per_pod(dims.1)
                .servers_per_rack(dims.2)
                .build(),
        )
    })
}

/// Builds the cluster. In the traced pass the overlay construction that
/// `ClusterBuilder::build` does internally is first repeated standalone,
/// so each step gets its own span; `core.cluster.build` then covers the
/// builder's whole call, overlay included.
pub fn build(
    tr: &mut Tracer,
    topo: &Arc<Topology>,
    spec: &StackSpec,
    vbundle: VBundleConfig,
    seed: u64,
    mode: Mode,
    rep: &mut Rep,
) -> Cluster {
    if mode == Mode::Traced {
        let ids = tr.span("pastry.assign_ids", || {
            overlay::assign_ids(topo, IdAssignment::TopologyAware)
        });
        let handles = overlay::handles_for(&ids);
        let open = tr.enter("pastry.build_states");
        let (states, heap) = alloc::counted(|| overlay::build_states(topo, &handles, &spec.pastry));
        tr.exit(open);
        rep.set(
            "pastry.state_bytes_per_node",
            heap.live as f64 / states.len() as f64,
        );
        rep.overlay = Some(Overlay {
            topo: Arc::clone(topo),
            handles,
            states,
        });
    }
    let mut builder = Cluster::builder(Arc::clone(topo))
        .pastry(spec.pastry.clone())
        .scribe(spec.scribe.clone())
        .vbundle(vbundle)
        .seed(seed);
    if mode == Mode::Traced {
        builder = builder.flight_recorder(FLIGHT_CAPACITY);
    }
    tr.span("core.cluster.build", || builder.build())
}

/// VMs per server on the skewed-load workloads (Figs. 9-11).
const VMS_PER_SERVER: usize = 25;

/// Seeds every server with its target utilization split into
/// [`VMS_PER_SERVER`] zero-reservation VMs, so the shuffler can move them
/// freely, and rebuilds the VM index. Returns the VM ids.
pub fn seed_utilizations(
    tr: &mut Tracer,
    cluster: &mut Cluster,
    utils: &[f64],
    rep: &mut Rep,
) -> Vec<VmId> {
    let nic = cluster.topo.capacity().bandwidth;
    let open = tr.enter("core.cluster.install_vm");
    let mut ids = Vec::with_capacity(utils.len() * VMS_PER_SERVER);
    for (server, &util) in utils.iter().enumerate() {
        let per_vm = nic * util / VMS_PER_SERVER as f64;
        for _ in 0..VMS_PER_SERVER {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(0),
                ResourceSpec::bandwidth(Bandwidth::ZERO, nic),
            );
            vm.demand = ResourceVector::bandwidth_only(per_vm);
            cluster.install_vm(cluster.topo.server(server), vm);
            ids.push(id);
        }
    }
    tr.exit(open);
    tr.span("core.cluster.reindex", || cluster.reindex());
    rep.installs = ids.len() as u64;
    ids
}

/// The timed phase's bracket: wall clock plus the public counters read at
/// both ends.
pub struct Run {
    started: Instant,
    events: u64,
    bytes: u64,
    allocs: u64,
    open: crate::span::Open,
}

/// Starts the timed phase. Profiling goes on here, not at build, so the
/// hot-section means describe the timed phase alone.
pub fn begin_run(tr: &mut Tracer, cluster: &mut Cluster, mode: Mode) -> Run {
    if mode == Mode::Traced {
        cluster.engine.enable_profiling();
    }
    let open = tr.enter("run");
    Run {
        events: cluster.engine.events_processed(),
        bytes: cluster.engine.counter_totals().total_bytes(),
        allocs: alloc::snapshot().allocs,
        open,
        started: Instant::now(),
    }
}

/// Ends the timed phase and stores its numbers.
pub fn end_run(tr: &mut Tracer, cluster: &Cluster, run: Run, rep: &mut Rep) {
    rep.run_s = run.started.elapsed().as_secs_f64();
    rep.events = cluster.engine.events_processed() - run.events;
    rep.run_allocs = alloc::snapshot().allocs - run.allocs;
    let bytes = cluster.engine.counter_totals().total_bytes() - run.bytes;
    tr.exit_with(
        run.open,
        rep.events,
        cluster.engine.counter_totals().total_msgs(),
    );
    rep.nodes = cluster.num_servers();
    rep.set(
        "wire_kb_per_server",
        bytes as f64 / 1024.0 / rep.nodes as f64,
    );
}

/// Advances the simulation to `until` under one `core.cluster.run_for`
/// span carrying the slice's event count (an O(1) read; message counts
/// need an O(n) sweep and ride on the enclosing `run` span only).
pub fn run_slice(tr: &mut Tracer, cluster: &mut Cluster, until: SimTime) {
    let open = tr.enter("core.cluster.run_for");
    let before = cluster.engine.events_processed();
    cluster.run_until(until);
    tr.exit_with(open, cluster.engine.events_processed() - before, 0);
}

/// Sums of the per-controller public counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub migrations_in: u64,
    pub migrations_out: u64,
    pub migrations_failed: u64,
    pub queries_sent: u64,
    pub anycast_failures: u64,
    pub boots_handled: u64,
    pub boot_results: u64,
    pub trade_requests: u64,
    pub trade_borrowed: u64,
    pub trade_expired: u64,
    pub spot_trades: u64,
    pub spot_rejected_price: u64,
    pub billing_reversals: u64,
}

/// What [`finish`] read back from the cluster.
pub struct End {
    pub totals: Totals,
    /// Std-dev of per-server utilization (Fig. 10).
    pub balance_sd: f64,
    /// Shortfall over demand, in percent (Fig. 11).
    pub unsatisfied_pct: f64,
}

fn totals(cluster: &Cluster) -> Totals {
    let mut t = Totals::default();
    for i in 0..cluster.num_servers() {
        let c = cluster.controller(i);
        t.migrations_in += c.stats.migrations_in;
        t.migrations_out += c.stats.migrations_out;
        t.migrations_failed += c.stats.migrations_failed;
        t.queries_sent += c.stats.queries_sent;
        t.anycast_failures += c.stats.anycast_failures;
        t.boots_handled += c.stats.boots_handled;
        t.boot_results += c.stats.boot_results.len() as u64;
        let trade = &c.trade_book().stats;
        t.trade_requests += trade.requests_sent.get();
        t.trade_borrowed += trade.leases_borrowed.get();
        t.trade_expired += trade.leases_expired.get();
        t.spot_trades += c.market_stats.spot_trades.get();
        t.spot_rejected_price += c.market_stats.spot_rejected_price.get();
        t.billing_reversals += c.market_stats.billing_reversals.get();
    }
    t
}

/// The epilogue every stack workload shares: simulated outcomes, public
/// counters, the outcome digest, and — in the traced pass — the O(n) read
/// paths under their own spans plus the profiler's hot sections. Returns
/// the controller totals and the two simulated outcomes every cluster has;
/// a workload reports those it makes a claim about.
pub fn finish(tr: &mut Tracer, cluster: &Cluster, mode: Mode, rep: &mut Rep) -> End {
    let utils = cluster.utilizations();
    let sat = tr.span("core.cluster.satisfaction", || cluster.satisfaction());
    let demand = sat.demand.as_mbps();

    let t = totals(cluster);
    rep.set("core.controller.migrations", t.migrations_in as f64);
    rep.set("core.controller.queries_sent", t.queries_sent as f64);
    rep.set(
        "core.controller.anycast_failures",
        t.anycast_failures as f64,
    );
    rep.set(
        "core.controller.migrations_failed",
        t.migrations_failed as f64,
    );
    rep.set("sim.events", rep.events as f64);
    rep.set("sim.queue_peak", cluster.engine.queue_peak() as f64);
    rep.set(
        "fdetect.evictions",
        cluster
            .engine
            .metrics()
            .counter_value("pastry/evictions")
            .unwrap_or(0) as f64,
    );
    rep.set("aggregation.mean_abs_err", mean_abs_err(cluster));
    rep.set("scribe.tree_depth_max", tree_depth_max(cluster) as f64);

    let mut d = Digest::default();
    d.word(cluster.engine.events_processed());
    let c = cluster.engine.counter_totals();
    for w in [
        c.maintenance_msgs,
        c.maintenance_bytes,
        c.payload_msgs,
        c.payload_bytes,
    ] {
        d.word(w);
    }
    utils.iter().for_each(|&u| d.float(u));
    for (vm, customer, server) in cluster.placements() {
        d.word(vm.0);
        d.word(u64::from(customer.0));
        d.word(server.index() as u64);
    }
    d.word(t.migrations_in);
    d.word(t.trade_borrowed);
    d.word(t.spot_trades);
    d.word(cluster.active_leases() as u64);
    d.float(sat.satisfied.as_mbps());
    rep.digest = d.finish();

    if mode == Mode::Traced {
        tr.span("core.cluster.refresh_metrics", || cluster.refresh_metrics());
        tr.span("core.cluster.report_capture", || {
            std::hint::black_box(ClusterReport::capture(cluster));
        });
        // `Controller::allocations` re-runs the shaper on every read.
        tr.span("core.controller.allocations", || {
            for i in 0..cluster.num_servers() {
                std::hint::black_box(cluster.controller(i).allocations());
            }
        });
        let json = tr.span("obs.metrics_json", || cluster.metrics_json());
        std::hint::black_box(json);
        let flight = cluster.engine.flight();
        rep.set(
            "obs.flight_events",
            flight.len() as f64 + flight.dropped() as f64,
        );
        let profiler = cluster.engine.profiler().expect("profiling is on");
        super::record_hot_sections(profiler, rep);
    }
    End {
        totals: t,
        balance_sd: std_dev(&utils),
        unsatisfied_pct: if demand > 0.0 {
            100.0 * sat.shortfall().as_mbps() / demand
        } else {
            0.0
        },
    }
}

/// The true cluster mean utilization: Σ demand / Σ capacity over live
/// servers.
pub fn true_mean(cluster: &Cluster) -> f64 {
    let (mut demand, mut capacity) = (0.0, 0.0);
    for (id, node) in cluster.engine.actors() {
        if cluster.engine.is_alive(id) {
            let c = node.app().client();
            demand += c.bw_demand().as_mbps();
            capacity += c.capacity().bandwidth.as_mbps();
        }
    }
    demand / capacity
}

/// Mean absolute error of the controllers' aggregated cluster mean
/// against [`true_mean`].
fn mean_abs_err(cluster: &Cluster) -> f64 {
    let truth = true_mean(cluster);
    let errs: Vec<f64> = cluster
        .engine
        .actors()
        .filter(|(id, _)| cluster.engine.is_alive(*id))
        .filter_map(|(_, node)| node.app().client().cluster_mean())
        .map(|m| (m - truth).abs())
        .collect();
    mean(&errs)
}

/// Longest parent chain in the bandwidth-demand aggregation tree.
fn tree_depth_max(cluster: &Cluster) -> usize {
    let topic = vbundle_core::bw_demand_topic();
    let mut deepest = 0;
    for start in 0..cluster.num_servers() {
        let (mut at, mut depth) = (start, 0);
        while let Some(parent) = cluster
            .engine
            .actor(cluster.handles[at].actor)
            .app()
            .group(topic)
            .and_then(|g| g.parent)
        {
            depth += 1;
            at = parent.actor.index();
            if depth > 64 {
                break;
            }
        }
        deepest = deepest.max(depth);
    }
    deepest
}

/// `SimTime` at `d` after zero.
pub fn at(d: SimDuration) -> SimTime {
    SimTime::ZERO + d
}

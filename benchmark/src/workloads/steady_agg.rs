//! `steady_agg` — aggregation steady state: a near-flat cluster where every
//! server sits within mean ± θ/3, so `aggregation`, `scribe` multicast and
//! heartbeats and the controller's per-tick cost do all the work and
//! shuffling does none. The bypass workload for any shed/migrate/placement
//! change, and the exercise workload for the
//! `PastryMsg→ScribeMsg→CtrlMsg` clone chain.

use std::time::Instant;

use vbundle_core::{Cluster, ResourceVector, VBundleConfig};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::SimDuration;
use vbundle_workloads::SkewedLoad;

use super::stack::{self, at};
use super::{Mode, Params, Rep, StackSpec};
use crate::span::Tracer;

/// The epilogue gives up after this much simulated time.
const CONVERGE_LIMIT_SECS: u64 = 1_800;

pub fn spec(p: &Params) -> StackSpec {
    StackSpec {
        // 1000 servers; 100 under --quick.
        dims: (
            if p.quick { 1 } else { 5 },
            if p.quick { 5 } else { 10 },
            20,
        ),
        pastry: PastryConfig::default(),
        scribe: ScribeConfig::default().with_probe_interval(SimDuration::from_secs(30)),
        update_interval: VBundleConfig::default().update_interval,
        warmup: SimDuration::from_mins(10),
        horizon: SimDuration::from_mins(if p.quick { 60 } else { ROUNDS * 5 }),
    }
}

/// Aggregation rounds in the timed phase (one per 5 sim-min).
const ROUNDS: u64 = 30;

pub fn rep(p: &Params, mode: Mode, tr: &mut Tracer) -> Rep {
    let spec = spec(p);
    let config = VBundleConfig::default();
    let mut rep = Rep::default();

    let setup = Instant::now();
    let open = tr.enter("setup");
    let topo = stack::topology(tr, spec.dims);
    let mut cluster = stack::build(tr, &topo, &spec, config, p.seed, mode, &mut rep);
    let load = SkewedLoad {
        hot_range: (0.55, 0.65),
        cold_range: (0.50, 0.60),
        target_mean: Some(0.58),
        seed: p.seed,
        ..SkewedLoad::default()
    };
    let utils = load.draw(topo.num_servers());
    stack::seed_utilizations(tr, &mut cluster, &utils, &mut rep);
    // Trees form and the first aggregate is published before timing.
    tr.span("warmup", || cluster.run_until(at(spec.warmup)));
    tr.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let run = stack::begin_run(tr, &mut cluster, mode);
    stack::run_slice(tr, &mut cluster, at(spec.warmup) + spec.horizon);
    stack::end_run(tr, &cluster, run, &mut rep);

    let open = tr.enter("epilogue");
    let end = stack::finish(tr, &cluster, mode, &mut rep);
    let t = end.totals;
    let converge = tr.span("agg_converge", || converge_after_step(&mut cluster));
    tr.exit(open);

    rep.set("balance_sd", end.balance_sd);
    match converge {
        Some(secs) => rep.set("agg_converge_sim_s", secs),
        None => rep.broken.push(format!(
            "steady_agg: aggregate did not re-converge within {CONVERGE_LIMIT_SECS} sim-s"
        )),
    }
    // Every aggregation round is one attempted operation per server; a
    // round fails for a server that ends the run without a cluster mean.
    let blind = (0..cluster.num_servers())
        .filter(|&i| cluster.controller(i).cluster_mean().is_none())
        .count() as u64;
    rep.attempted = cluster.num_servers() as u64;
    rep.failed = blind + t.anycast_failures + t.migrations_failed;
    rep.check(t.migrations_in == 0 && t.queries_sent == 0, || {
        format!(
            "steady_agg: {} migrations and {} shed queries on a flat load",
            t.migrations_in, t.queries_sent
        )
    });
    rep
}

/// Untimed epilogue (Fig. 14's question on the full stack): raise demand
/// by half on every 10th VM, then step one simulated second at a time
/// until every live controller's cluster mean is within 1 % of ground
/// truth. Returns the simulated seconds that took.
fn converge_after_step(cluster: &mut Cluster) -> Option<f64> {
    let mut raised = Vec::new();
    for (vm, _, server) in cluster.placements() {
        if vm.0 % 10 == 0 {
            let ctrl = cluster.controller(server.index());
            let rec = ctrl.vms().iter().find(|r| r.id == vm).expect("placed VM");
            raised.push((vm, rec.demand.bandwidth * 1.5));
        }
    }
    for (vm, demand) in raised {
        cluster.set_vm_demand(vm, ResourceVector::bandwidth_only(demand));
    }
    let truth = stack::true_mean(cluster);
    let start = cluster.now();
    for _ in 0..CONVERGE_LIMIT_SECS {
        cluster.run_for(SimDuration::from_secs(1));
        let all_close = (0..cluster.num_servers()).all(|i| {
            cluster
                .controller(i)
                .cluster_mean()
                .is_some_and(|m| (m - truth).abs() <= 0.01 * truth)
        });
        if all_close {
            return Some((cluster.now() - start).as_secs_f64());
        }
    }
    None
}

//! `rebalance` — ROADMAP's "full v-Bundle run": a skewed cluster goes
//! through tree formation, aggregation and shed/anycast/migrate rounds.
//! `core.controller` shuffling, `scribe` anycast and `pastry.build_states`
//! all show; the engine does the least of the work.

use std::time::Instant;

use vbundle_core::VBundleConfig;
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::SimDuration;
use vbundle_workloads::SkewedLoad;

use super::stack::{self, at};
use super::{Mode, Params, Rep, StackSpec};
use crate::span::Tracer;

pub fn spec(p: &Params) -> StackSpec {
    StackSpec {
        // 2000 servers; 200 (one pod) under --quick.
        dims: (p.scaled(10) as u32, 10, 20),
        pastry: PastryConfig::default(),
        scribe: ScribeConfig::default().with_probe_interval(SimDuration::from_secs(30)),
        update_interval: VBundleConfig::default().update_interval,
        warmup: SimDuration::ZERO,
        // Three rebalance rounds (25 sim-min apart). --quick keeps the
        // horizon: a shorter one would end before the first round.
        horizon: SimDuration::from_mins(90),
    }
}

pub fn rep(p: &Params, mode: Mode, tr: &mut Tracer) -> Rep {
    rep_with_load(
        p,
        mode,
        tr,
        &SkewedLoad {
            seed: p.seed,
            ..SkewedLoad::default()
        },
        true,
    )
}

/// The same cluster, config and horizon on a near-flat load: nothing
/// sheds, so `rebalance` minus this is what shuffling costs.
pub fn flat_rep(p: &Params, tr: &mut Tracer) -> Rep {
    let load = SkewedLoad {
        hot_range: (0.60, 0.66),
        cold_range: (0.58, 0.64),
        seed: p.seed,
        ..SkewedLoad::default()
    };
    rep_with_load(p, Mode::Timed, tr, &load, false)
}

fn rep_with_load(p: &Params, mode: Mode, tr: &mut Tracer, load: &SkewedLoad, skewed: bool) -> Rep {
    let spec = spec(p);
    let config = VBundleConfig::default();
    let threshold = config.threshold;
    let mut rep = Rep::default();

    let setup = Instant::now();
    let open = tr.enter("setup");
    let topo = stack::topology(tr, spec.dims);
    let mut cluster = stack::build(tr, &topo, &spec, config, p.seed, mode, &mut rep);
    let utils = load.draw(topo.num_servers());
    let expected = stack::seed_utilizations(tr, &mut cluster, &utils, &mut rep);
    tr.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let run = stack::begin_run(tr, &mut cluster, mode);
    stack::run_slice(tr, &mut cluster, at(spec.horizon));
    stack::end_run(tr, &cluster, run, &mut rep);

    let open = tr.enter("epilogue");
    let end = stack::finish(tr, &cluster, mode, &mut rep);
    let t = end.totals;
    let conserved = tr.span("chaos.invariant_check", || {
        vbundle_chaos::check_vm_conservation(&cluster.engine, &expected)
    });
    tr.exit(open);

    // Demand is conserved, so the mean is the same before and after.
    let mean = utils.iter().sum::<f64>() / utils.len() as f64;
    let over = |xs: &[f64]| xs.iter().filter(|&&u| u > mean + threshold).count();
    let (over_before, over_after) = (over(&utils), over(&cluster.utilizations()));
    rep.set("balance_sd", end.balance_sd);
    rep.set("unsatisfied_pct", end.unsatisfied_pct);
    rep.set("chaos.violations", conserved.len() as f64);
    // A query that finds no receiver and a migration nobody acknowledged
    // are the failed operations here; so is every invariant left open.
    rep.attempted = t.queries_sent + t.migrations_out;
    rep.failed = t.anycast_failures + t.migrations_failed + conserved.len() as u64;
    rep.check(conserved.is_empty(), || {
        format!("rebalance: VMs not conserved: {conserved:?}")
    });
    if skewed {
        // A seed in five leaves a handful of stragglers; more than 1 % of
        // the servers that started overloaded means rebalancing broke.
        rep.check(over_after * 100 <= over_before, || {
            format!(
                "rebalance: {over_after} of {over_before} overloaded servers are still \
                 above mean + threshold at the end"
            )
        });
        rep.check(t.migrations_in > 0, || "rebalance: nothing migrated".into());
    } else {
        rep.check(t.migrations_in == 0 && t.queries_sent == 0, || {
            format!(
                "rebalance (flat load): {} migrations, {} queries; expected none",
                t.migrations_in, t.queries_sent
            )
        });
    }
    rep
}

//! `market_churn` — the optional subsystems together: `trade`, `market`,
//! `fdetect` heartbeats, the `chaos` injector on the send path and lease
//! expiry timers, with writes (demand flips, crashes) beside reads
//! (satisfaction, allocations). A read-path cache that goes stale or a
//! write-path cost shows here. Only flag combinations `market_props`
//! already proves are on.

use std::time::Instant;

use vbundle_chaos::{
    check_billing_conservation, check_capacity, check_entitlement_conservation,
    check_isolation_caps, check_leaf_sets, ChaosDriver, FaultPlan,
};
use vbundle_core::{
    reconcile, CustomerId, ResourceSpec, ResourceVector, SpotMarketConfig, VBundleConfig, VmId,
    VmRecord,
};
use vbundle_dcn::Bandwidth;
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

use super::stack;
use super::{Mode, Params, Rep, StackSpec};
use crate::span::Tracer;
use crate::stats::Digest;

const VMS_PER_SERVER: u64 = 4;
const TENANTS: u64 = 8;
/// One VM in nine runs hot.
const HOT_EVERY: u64 = 9;
const HOT_MBPS: f64 = 260.0;
const COLD_MBPS: f64 = 20.0;
const SLICE_SECS: u64 = 30;
/// After a fault the traced pass looks for repair at this resolution.
const REPAIR_STEP_SECS: u64 = 5;

fn horizon_secs(p: &Params) -> u64 {
    if p.quick {
        180
    } else {
        210
    }
}

pub fn spec(p: &Params) -> StackSpec {
    StackSpec {
        // 400 servers in two pods (spot markets are pod-local); 40 under
        // --quick.
        dims: (2, if p.quick { 1 } else { 10 }, 20),
        pastry: PastryConfig {
            heartbeat: Some(SimDuration::from_secs(1)),
            maintenance: Some(SimDuration::from_secs(10)),
            ..PastryConfig::default()
        },
        scribe: ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)),
        update_interval: SimDuration::from_secs(5),
        warmup: SimDuration::ZERO,
        horizon: SimDuration::from_secs(horizon_secs(p)),
    }
}

fn vbundle(spec: &StackSpec) -> VBundleConfig {
    VBundleConfig::default()
        .with_update_interval(spec.update_interval)
        .with_rebalance_interval(SimDuration::from_secs(100_000))
        .with_bundle_trading(true)
        .with_lease_duration(SimDuration::from_secs(120))
        .with_spot_market(SpotMarketConfig::default())
}

fn demand_of(vm: u64, rotation: u64) -> ResourceVector {
    let hot = (vm + rotation).is_multiple_of(HOT_EVERY);
    ResourceVector::bandwidth_only(Bandwidth::from_mbps(if hot { HOT_MBPS } else { COLD_MBPS }))
}

pub fn rep(p: &Params, mode: Mode, tr: &mut Tracer) -> Rep {
    let spec = spec(p);
    let mut rep = Rep::default();

    let setup = Instant::now();
    let open = tr.enter("setup");
    let topo = stack::topology(tr, spec.dims);
    let mut cluster = stack::build(tr, &topo, &spec, vbundle(&spec), p.seed, mode, &mut rep);
    let servers = cluster.num_servers();
    let vms = servers as u64 * VMS_PER_SERVER;
    // The seed picks where in the rotation the hot set starts and how far
    // it moves each slice. Strides of ±1 would make all four VMs of a
    // server hot within one lease lifetime; their borrowed entitlement
    // then adds up to more than the NIC (`check_capacity` fails) — a
    // protocol gap for the `soak` item, not an input of this benchmark.
    let mut rotation = p.seed % HOT_EVERY;
    let stride = [2, 4, 5, 7][(p.seed / HOT_EVERY) as usize % 4];
    let install = tr.enter("core.cluster.install_vm");
    for v in 0..vms {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId((v % TENANTS) as u32),
            ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(100.0)),
        );
        vm.demand = demand_of(v, rotation);
        cluster.install_vm(topo.server((v / VMS_PER_SERVER) as usize), vm);
    }
    tr.exit(install);
    tr.span("core.cluster.reindex", || cluster.reindex());
    let t = SimTime::from_secs;
    let victim = ActorId::new(1);
    let plan = FaultPlan::new(p.seed)
        .crash(t(100), victim)
        .crash(t(105), ActorId::new(servers as u32 / 2))
        .restart(t(150), victim);
    let faults: Vec<u64> = plan
        .events()
        .iter()
        .map(|e| e.at.as_micros() / 1_000_000)
        .collect();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo.clone(), plan);
    tr.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let horizon = horizon_secs(p);
    let mut demand_writes = 0u64;
    let mut refused_writes = 0u64;
    let mut repaired_at: Option<u64> = None;
    let last_fault = *faults.last().expect("plan has faults");
    let run = stack::begin_run(tr, &mut cluster, mode);
    let mut now = 0;
    while now < horizon {
        let slice_end = ((now / SLICE_SECS) + 1) * SLICE_SECS;
        let mut next = faults
            .iter()
            .copied()
            .filter(|&f| f > now)
            .fold(slice_end, u64::min)
            .min(horizon);
        // Only the traced pass checks for repair (the checks read, never
        // steer, so the outcome digest is the same either way).
        if tr.enabled() && now >= last_fault && repaired_at.is_none() {
            next = next.min(now + REPAIR_STEP_SECS);
        }
        stack::run_slice(tr, &mut cluster, t(next));
        now = next;
        if faults.contains(&now) {
            // The engine already sits at the fault's instant, so this call
            // only applies the plan's events due now.
            let open = tr.enter("chaos.apply");
            driver.run_until(&mut cluster.engine, t(now));
            tr.exit(open);
        }
        if tr.enabled() && now >= last_fault && repaired_at.is_none() {
            let open = tr.enter("chaos.check_leaf_sets");
            if check_leaf_sets(&cluster.engine).is_empty() {
                repaired_at = Some(now);
            }
            tr.exit(open);
        }
        if now.is_multiple_of(SLICE_SECS) && now < horizon {
            // Write path: the hot set moves on. Read path: one sample.
            let moved = rotation + stride;
            let open = tr.enter("core.cluster.set_vm_demand");
            for v in 0..vms {
                let (was, is) = (demand_of(v, rotation), demand_of(v, moved));
                if was != is {
                    demand_writes += 1;
                    if !cluster.set_vm_demand(VmId(v), is) {
                        refused_writes += 1;
                    }
                }
            }
            tr.exit(open);
            rotation = moved;
            let sample = tr.span("core.cluster.satisfaction", || cluster.satisfaction());
            std::hint::black_box(sample);
        }
    }
    stack::end_run(tr, &cluster, run, &mut rep);
    // The repair checks sit inside the run span but are the harness's
    // own work, not the run's.
    rep.run_s -= tr.secs("chaos.check_leaf_sets");

    let open = tr.enter("epilogue");
    let end = stack::finish(tr, &cluster, mode, &mut rep);
    let totals = end.totals;
    let cap = SpotMarketConfig::default().isolation_cap;
    let mut violations = Vec::new();
    let checks = tr.enter("chaos.invariant_check");
    violations.extend(tr.span("chaos.check_billing_conservation", || {
        check_billing_conservation(&cluster.engine)
    }));
    violations.extend(tr.span("chaos.check_entitlement_conservation", || {
        check_entitlement_conservation(&cluster.engine)
    }));
    violations.extend(tr.span("chaos.check_isolation_caps", || {
        check_isolation_caps(&cluster.engine, cap)
    }));
    violations.extend(tr.span("chaos.check_capacity", || check_capacity(&cluster.engine)));
    tr.exit(checks);
    let books = tr.span("market.reconcile", || {
        reconcile((0..servers).map(|i| cluster.controller(i).billing()))
    });
    violations.extend(books.violations.iter().cloned());
    tr.exit(open);
    let mut digest = Digest::resume(rep.digest);
    digest.float(books.total_spend);
    digest.float(books.total_revenue);
    rep.digest = digest.finish();

    rep.installs = vms;
    rep.set("unsatisfied_pct", end.unsatisfied_pct);
    rep.set("trade.requests_sent", totals.trade_requests as f64);
    rep.set("trade.leases_borrowed", totals.trade_borrowed as f64);
    rep.set(
        "trade.grant_ratio",
        totals.trade_borrowed as f64 / totals.trade_requests.max(1) as f64,
    );
    rep.set("trade.leases_expired", totals.trade_expired as f64);
    rep.set("market.spot_trades", totals.spot_trades as f64);
    rep.set("market.rejected_price", totals.spot_rejected_price as f64);
    rep.set("market.billing_reversals", totals.billing_reversals as f64);
    rep.set("chaos.violations", violations.len() as f64);
    if let Some(at) = repaired_at {
        rep.set("chaos.time_to_repair_sim_s", (at - last_fault) as f64);
    }
    rep.attempted = demand_writes + totals.trade_requests + faults.len() as u64;
    rep.failed = refused_writes + violations.len() as u64;
    rep.check(totals.spot_trades >= 1, || {
        "market_churn: no spot trade cleared".into()
    });
    rep.check(violations.is_empty(), || {
        format!("market_churn: invariants violated: {violations:#?}")
    });
    rep.check(driver.done(), || {
        "market_churn: fault plan not played out".into()
    });
    rep
}

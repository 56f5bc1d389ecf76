//! The observability contract, asserted: obs observes, never steers.
//!
//! Running the same seeded chaos scenario with every obs plane enabled
//! (flight recorder, profiler, mirrored metrics export) and with them all
//! disabled must leave the simulation in byte-identical state — same
//! event count, same fault tallies, same per-controller protocol stats,
//! same satisfied bandwidth. And the enabled run must itself replay
//! byte-identically from the seed, flight-recorder tail included.

use std::fmt::Write as _;
use std::sync::Arc;

use vbundle_chaos::{ChaosDriver, FaultPlan, LinkFault, Scope};
use vbundle_core::{Cluster, CustomerId, ResourceSpec, ResourceVector, VBundleConfig, VmRecord};
use vbundle_dcn::{Bandwidth, Topology};
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{ActorId, SimDuration, SimTime};

const SEED: u64 = 42;

/// Paper testbed with fast timers, a VM per server, and a bumpy chaos
/// plan (crash + restart under a lossy window) driven to a fixed
/// deadline. With `obs` the run records flight events, profiles the hot
/// path and exports the metrics registry mid-run — all of which must be
/// invisible to the simulation. Returns the end-state digest and the
/// rendered flight tail (empty without `obs`).
fn run_scenario(obs: bool) -> (String, String) {
    let topo = Arc::new(Topology::paper_testbed());
    let pastry = PastryConfig {
        heartbeat: Some(SimDuration::from_secs(1)),
        maintenance: Some(SimDuration::from_secs(10)),
        ..PastryConfig::default()
    };
    let mut builder = Cluster::builder(topo)
        .pastry(pastry)
        .scribe(ScribeConfig::default().with_probe_interval(SimDuration::from_secs(3)))
        .vbundle(
            VBundleConfig::default()
                .with_update_interval(SimDuration::from_secs(5))
                .with_rebalance_interval(SimDuration::from_secs(1000)),
        )
        .seed(SEED);
    if obs {
        builder = builder.flight_recorder(4096);
    }
    let mut cluster = builder.build();
    if obs {
        cluster.engine.enable_profiling();
    }
    let demand = Bandwidth::from_mbps(80.0);
    for server in 0..cluster.num_servers() {
        let id = cluster.alloc_vm_id();
        let mut vm = VmRecord::new(
            id,
            CustomerId(server as u32 % 3),
            ResourceSpec::fixed(ResourceVector::bandwidth_only(demand)),
        );
        vm.demand = ResourceVector::bandwidth_only(demand);
        cluster.install_vm(cluster.topo.server(server), vm);
    }
    cluster.run_until(SimTime::from_secs(60));

    let t = SimTime::from_secs;
    let plan = FaultPlan::new(SEED)
        .crash(t(70), ActorId::new(3))
        .degrade(t(80), Scope::All, Scope::All, LinkFault::loss(0.1))
        .restart(t(110), ActorId::new(3))
        .clear_degradations(t(150));
    let topo = cluster.topo.clone();
    let mut driver = ChaosDriver::install(&mut cluster.engine, topo, plan);
    driver.run_until(&mut cluster.engine, t(180));
    if obs {
        // Exporting mid-run must not perturb anything either.
        let _ = cluster.metrics_json();
    }
    driver.run_until(&mut cluster.engine, t(240));
    cluster.engine.take_injector();

    if obs {
        assert!(
            !cluster.engine.flight().snapshot().is_empty(),
            "obs run recorded no flight events — the recorder was not on"
        );
        assert!(
            cluster.engine.profile_report().is_some(),
            "obs run produced no profile — profiling was not on"
        );
    }
    (digest(&cluster), cluster.engine.flight().dump_tail(4096))
}

/// Everything deterministic about the end state, rendered to a string so
/// divergence shows up as a readable diff.
fn digest(cluster: &Cluster) -> String {
    let mut out = String::new();
    let fs = cluster.engine.fault_stats();
    let _ = writeln!(out, "now: {}", cluster.now().as_micros());
    let _ = writeln!(out, "events: {}", cluster.engine.events_processed());
    let _ = writeln!(out, "queue peak: {}", cluster.engine.queue_peak());
    let _ = writeln!(
        out,
        "faults: {} dropped, {} delayed, {} duplicated, {} corrupted",
        fs.dropped, fs.delayed, fs.duplicated, fs.corrupted
    );
    let totals = cluster.satisfaction();
    let _ = writeln!(
        out,
        "satisfaction: {:.6} / {:.6} Mbps",
        totals.satisfied.as_mbps(),
        totals.demand.as_mbps()
    );
    let _ = writeln!(out, "leases: {}", cluster.active_leases());
    let _ = writeln!(out, "migrations: {}", cluster.total_migrations());
    for i in 0..cluster.num_servers() {
        let c = cluster.controller(i);
        let s = &c.stats;
        let _ = writeln!(
            out,
            "server {i}: vms {} demand {:.6} util {:.6} out {} in {} q {} a {} gated {} rej {}",
            c.vms().len(),
            c.bw_demand().as_mbps(),
            c.utilization(),
            s.migrations_out,
            s.migrations_in,
            s.queries_sent,
            s.accepts_sent,
            s.migrations_gated,
            s.rejected_aggregates.get(),
        );
    }
    out
}

#[test]
fn obs_on_and_off_reach_byte_identical_state() {
    let (plain, _) = run_scenario(false);
    let (observed, _) = run_scenario(true);
    assert_eq!(
        plain, observed,
        "enabling observability changed the simulation"
    );
}

#[test]
fn obs_enabled_run_replays_byte_identically() {
    let (digest, tail) = run_scenario(true);
    let (again, tail_again) = run_scenario(true);
    assert_eq!(
        digest, again,
        "obs-enabled run did not replay deterministically"
    );
    assert_eq!(tail.lines().count(), 4096, "the ring did not fill");
    assert!(
        tail == tail_again,
        "the flight tail did not replay byte for byte"
    );
}

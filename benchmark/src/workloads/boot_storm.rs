//! `boot_storm` — protocol placement under an open-loop arrival stream:
//! `pastry` routing to `hash(customer)` and the controller's boot walk over
//! the neighbor sets do the work; aggregation and shuffling do nearly
//! none. Phase 2 releases every 5th VM and re-admits replacements into
//! the fragmented cluster, so a boot-path gain that costs departures
//! shows.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_core::{Cluster, Customer, CustomerId, ResourceSpec, ResourceVector, VBundleConfig};
use vbundle_dcn::Bandwidth;
use vbundle_pastry::PastryConfig;
use vbundle_scribe::ScribeConfig;
use vbundle_sim::{SimDuration, SimTime};

use super::stack;
use super::{Mode, Params, Rep, StackSpec};
use crate::span::Tracer;
use crate::stats::{median, percentile};

const CUSTOMERS: u32 = 20;
/// One boot request every 5 simulated milliseconds; also the resolution
/// at which completions are observed.
const GAP: SimDuration = SimDuration::from_millis(5);
const DRAIN: SimDuration = SimDuration::from_secs(30);

/// Boots in phase 1 and replacements in phase 2.
fn boots(p: &Params) -> (usize, usize) {
    (p.scaled(3_000) as usize, p.scaled(600) as usize)
}

pub fn spec(p: &Params) -> StackSpec {
    let (first, second) = boots(p);
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
        warmup: SimDuration::ZERO,
        horizon: SimDuration::from_micros((first + second) as u64 * GAP.as_micros())
            + DRAIN
            + DRAIN,
    }
}

/// A request the generator sent and has not yet seen answered.
struct Pending {
    entry: usize,
    request: u64,
    due: SimTime,
}

/// The open-loop generator plus the completion observer.
struct Storm {
    rng: StdRng,
    customers: Vec<Customer>,
    spec: ResourceSpec,
    demand: ResourceVector,
    pending: Vec<Pending>,
    /// Per entry server: how many of its `boot_results` were consumed.
    cursor: Vec<usize>,
    latencies_ms: Vec<f64>,
    rejected: u64,
    unknown: u64,
}

impl Storm {
    /// Sends `count` boots, one per [`GAP`], for customers shifted by
    /// `shift`; observes completions after every slice.
    fn send(&mut self, tr: &mut Tracer, cluster: &mut Cluster, count: usize, shift: u32) {
        for i in 0..count {
            // The schedule lives in simulated time, so the generator is
            // never late: a request's due time is the current instant.
            let due = cluster.now();
            let entry = self.rng.gen_range(0..cluster.num_servers());
            let customer = &self.customers[((i as u32 + shift) % CUSTOMERS) as usize];
            let open = tr.enter("core.cluster.request_boot");
            let (request, _vm) = cluster.request_boot(entry, customer, self.spec, self.demand);
            tr.exit(open);
            self.pending.push(Pending {
                entry,
                request,
                due,
            });
            stack::run_slice(tr, cluster, due + GAP);
            self.observe(cluster);
        }
    }

    /// Matches new `boot_results` at the entry servers with pending
    /// requests. Only entries with something pending are read, and each
    /// from its cursor on — `Cluster::boot_result` is a linear scan and
    /// must not sit in this loop.
    fn observe(&mut self, cluster: &Cluster) {
        let now = cluster.now();
        let mut entries: Vec<usize> = self.pending.iter().map(|q| q.entry).collect();
        entries.sort_unstable();
        entries.dedup();
        for entry in entries {
            let results = &cluster.controller(entry).stats.boot_results;
            for &(request, _, host) in &results[self.cursor[entry]..] {
                match self.pending.iter().position(|q| q.request == request) {
                    Some(at) => {
                        let done = self.pending.swap_remove(at);
                        self.latencies_ms.push((now - done.due).as_millis_f64());
                        if host.is_none() {
                            self.rejected += 1;
                        }
                    }
                    None => self.unknown += 1,
                }
            }
            self.cursor[entry] = results.len();
        }
    }
}

pub fn rep(p: &Params, mode: Mode, tr: &mut Tracer) -> Rep {
    let spec = spec(p);
    let (first, second) = boots(p);
    let mut rep = Rep::default();

    let setup = Instant::now();
    let open = tr.enter("setup");
    let topo = stack::topology(tr, spec.dims);
    let mut cluster = stack::build(
        tr,
        &topo,
        &spec,
        VBundleConfig::default(),
        p.seed,
        mode,
        &mut rep,
    );
    tr.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let mut storm = Storm {
        rng: StdRng::seed_from_u64(p.seed ^ 0xb007),
        customers: (0..CUSTOMERS)
            .map(|i| Customer::new(CustomerId(i), format!("tenant-{i}")))
            .collect(),
        spec: ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(200.0)),
        demand: ResourceVector::bandwidth_only(Bandwidth::from_mbps(50.0)),
        pending: Vec::new(),
        cursor: vec![0; cluster.num_servers()],
        latencies_ms: Vec::with_capacity(first + second),
        rejected: 0,
        unknown: 0,
    };

    let run = stack::begin_run(tr, &mut cluster, mode);
    storm.send(tr, &mut cluster, first, 0);
    let drained = cluster.now() + DRAIN;
    stack::run_slice(tr, &mut cluster, drained);
    storm.observe(&cluster);
    // Phase 2: every 5th VM departs, then replacements arrive for a
    // shifted customer mix.
    tr.span("core.cluster.reindex", || cluster.reindex());
    let open = tr.enter("core.cluster.shutdown_vm");
    let mut departed = 0u64;
    for (vm, _, _) in cluster.placements() {
        if vm.0 % 5 == 0 && cluster.shutdown_vm(vm).is_some() {
            departed += 1;
        }
    }
    tr.exit(open);
    storm.send(tr, &mut cluster, second, 7);
    let drained = cluster.now() + DRAIN;
    stack::run_slice(tr, &mut cluster, drained);
    storm.observe(&cluster);
    stack::end_run(tr, &cluster, run, &mut rep);

    let open = tr.enter("epilogue");
    let t = stack::finish(tr, &cluster, mode, &mut rep).totals;
    let capacity = tr.span("chaos.invariant_check", || {
        vbundle_chaos::check_capacity(&cluster.engine)
    });
    tr.exit(open);

    let sent = (first + second) as u64;
    let unanswered = storm.pending.len() as u64;
    rep.set("boot_p50_sim_ms", median(&storm.latencies_ms));
    rep.set("boot_p99_sim_ms", percentile(&storm.latencies_ms, 99.0));
    rep.set("boot_samples", storm.latencies_ms.len() as f64);
    rep.set("core.controller.boot_us", rep.run_s * 1e6 / sent as f64);
    rep.set(
        "core.controller.boots_handled_per_boot",
        t.boots_handled as f64 / sent as f64,
    );
    rep.set("chaos.violations", capacity.len() as f64);
    rep.attempted = sent + departed;
    rep.failed = storm.rejected + unanswered + storm.unknown + capacity.len() as u64;
    rep.check(unanswered == 0, || {
        format!("boot_storm: {unanswered} boots still pending after the drain")
    });
    rep.check(storm.rejected == 0 && storm.unknown == 0, || {
        format!(
            "boot_storm: {} boots rejected, {} results for unknown requests",
            storm.rejected, storm.unknown
        )
    });
    rep.check(
        cluster.num_vms() as u64 == sent - departed && t.boot_results == sent,
        || {
            format!(
                "boot_storm: {} VMs hosted, {} results; expected {} and {sent}",
                cluster.num_vms(),
                t.boot_results,
                sent - departed
            )
        },
    );
    rep.check(capacity.is_empty(), || {
        format!("boot_storm: capacity violated: {capacity:?}")
    });
    rep
}

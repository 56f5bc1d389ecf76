//! Scheduling of reps and assembly of each workload's metrics.
//!
//! One process, one thread. First, untimed, one counted rep per workload
//! (allocation counting on, nothing else), which is also the process's
//! warm-up. Then timed reps on freshly built systems with everything off,
//! interleaved round-robin across workloads so thermal drift is shared
//! instead of landing on the last workload. Then — when per-layer numbers
//! are wanted — one traced pass, the ladder and the microloops.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::catalog::{Bound, END_TO_END};
use crate::ladder;
use crate::micro;
use crate::span::Tracer;
use crate::stats::{median, quartiles};
use crate::workloads::{self, Mode, Params, Rep};

/// How many timed reps to run.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// Keep adding rounds until this many seconds were measured (at
    /// least two rounds, so digests can be compared).
    Seconds(f64),
    /// `min` rounds; a workload whose wall metrics spread wider than
    /// their bound gets more, up to `max`.
    Reps { min: usize, max: usize },
}

/// What to measure beyond the timed reps.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub policy: Policy,
    /// Run the traced pass, ladder and microloops.
    pub layers: bool,
}

/// Everything measured for one workload.
pub struct Outcome {
    pub name: &'static str,
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics defined on this workload (medians for times).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics defined on this workload.
    pub layers: BTreeMap<&'static str, f64>,
    /// Self-check failures; non-empty fails the run.
    pub broken: Vec<String>,
    /// The traced pass's spans (when `Plan::layers`).
    pub trace: Option<Tracer>,
}

/// IQR over median, the spread the acceptance check looks at; 0 for
/// fewer than two samples.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

fn too_wide(name: &str, xs: &[f64]) -> bool {
    let bound = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.bound)
        .expect("catalogued");
    matches!(bound, Bound::Share(b) if spread(xs) > b)
}

/// Measures `names` under `plan`.
pub fn measure(names: &[&'static str], p: &Params, plan: Plan) -> Vec<Outcome> {
    // The counted rep goes first. It is untimed, so it doubles as the
    // warm-up a process needs: a first rep pays for fresh pages and cold
    // caches (it read 15-40 % slow on the reference host). Every earlier
    // system is dropped by then, so the peak of live bytes is its own.
    let counted: Vec<(Rep, alloc::Snapshot)> = names
        .iter()
        .map(|name| {
            alloc::reset_and_enable();
            let rep = workloads::run_rep(name, p, Mode::Counted, &mut Tracer::new(false));
            let heap = alloc::snapshot();
            alloc::disable();
            (rep, heap)
        })
        .collect();
    let mut timed: Vec<Vec<Rep>> = names.iter().map(|_| Vec::new()).collect();
    let started = Instant::now();
    let mut round = 0;
    loop {
        let mut ran = false;
        for (i, name) in names.iter().enumerate() {
            let wanted = match plan.policy {
                Policy::Seconds(_) => true,
                Policy::Reps { min, max } => {
                    let reps = &timed[i];
                    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
                    round < min
                        || (round < max
                            && (too_wide("run_s", &col(|r| r.run_s))
                                || too_wide("setup_s", &col(|r| r.setup_s))))
                }
            };
            if wanted {
                timed[i].push(workloads::run_rep(
                    name,
                    p,
                    Mode::Timed,
                    &mut Tracer::new(false),
                ));
                ran = true;
            }
        }
        round += 1;
        let enough = match plan.policy {
            Policy::Seconds(s) => round >= 2 && started.elapsed().as_secs_f64() >= s,
            Policy::Reps { .. } => !ran,
        };
        if enough {
            break;
        }
    }
    names
        .iter()
        .zip(counted)
        .zip(timed)
        .map(|((name, (counted, heap)), reps)| finish(name, p, plan, reps, counted, heap))
        .collect()
}

fn finish(
    name: &'static str,
    p: &Params,
    plan: Plan,
    reps: Vec<Rep>,
    counted: Rep,
    heap: alloc::Snapshot,
) -> Outcome {
    let mut broken: Vec<String> = Vec::new();
    let last = reps.last().expect("at least one timed rep");
    let digest = Some(last.digest);
    for rep in &reps {
        audit(&mut broken, name, "a timed rep", rep, digest);
    }

    audit(&mut broken, name, "the counted rep", &counted, digest);

    let mut e2e = BTreeMap::new();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("run_s", median(&run_s));
    e2e.insert("heap_peak_mb", heap.peak as f64 / 1e6);
    e2e.insert(
        "failed_ops_pct",
        100.0 * last.failed as f64 / last.attempted.max(1) as f64,
    );
    let mut layers = BTreeMap::new();
    for (&k, &v) in &last.values {
        if END_TO_END.iter().any(|m| m.name == k) {
            e2e.insert(k, v);
        } else {
            layers.insert(k, v);
        }
    }

    let mut trace = None;
    if plan.layers {
        let full_run_s = median(&run_s);
        layers.insert("sim.events_per_s", last.events as f64 / full_run_s);
        let per_event = counted.run_allocs as f64 / counted.events.max(1) as f64;
        let stack = workloads::stack_spec(name, p);
        layers.insert(
            if stack.is_some() {
                "core.allocs_per_event"
            } else {
                "sim.allocs_per_event"
            },
            per_event,
        );

        let mut tr = Tracer::new(true);
        let traced = workloads::run_rep(name, p, Mode::Traced, &mut tr);
        audit(&mut broken, name, "the traced pass", &traced, digest);
        layers.extend(
            traced
                .values
                .iter()
                .filter(|(k, _)| !e2e.contains_key(*k))
                .map(|(&k, &v)| (k, v)),
        );
        layers.insert("obs.trace_overhead_x", traced.run_s / full_run_s);
        from_spans(&tr, &traced, &mut layers);

        if let (Some(spec), Some(ov)) = (stack, traced.overlay.as_ref()) {
            let full_s = tr.secs("pastry.build_states");
            layers.insert(
                "pastry.build_states_ratio_2x",
                ladder::build_states_ratio(&mut tr, &spec, full_s),
            );
            layers.extend(ladder::run(&mut tr, p, &spec, ov, full_run_s));
            layers.extend(micro::run(&mut tr, p, &ov.topo));
        }
        let open = tr.enter("ladder.flat_load");
        let flat = workloads::without_shuffling(name, p);
        tr.exit(open);
        if let Some(flat) = flat {
            audit(&mut broken, name, "the flat-load rung", &flat, None);
            let shuffle_s = (full_run_s - flat.run_s).max(0.0);
            layers.insert("core.controller.shuffle_self_s", shuffle_s);
            layers.insert(
                "core.controller.us_per_migration",
                shuffle_s * 1e6 / layers["core.controller.migrations"].max(1.0),
            );
        }
        trace = Some(tr);
    }

    Outcome {
        name,
        setup_s,
        run_s,
        digest: last.digest,
        attempted: last.attempted,
        failed: last.failed,
        e2e,
        layers,
        broken,
        trace,
    }
}

/// Collects a rep's self-check failures. Every rep of one seed must end
/// in the same simulated outcome, bit for bit — counting and tracing
/// included (they observe, never steer) — so with `expect` the rep's
/// digest must match it too.
fn audit(broken: &mut Vec<String>, name: &str, what: &str, rep: &Rep, expect: Option<u64>) {
    broken.extend(rep.broken.iter().cloned());
    if let Some(digest) = expect.filter(|&d| d != rep.digest) {
        broken.push(format!(
            "{name}: {what} ended in outcome {:016x}, the last timed rep in {digest:016x}",
            rep.digest
        ));
    }
}

/// Per-layer numbers that are phase spans of the traced pass.
fn from_spans(tr: &Tracer, traced: &Rep, layers: &mut BTreeMap<&'static str, f64>) {
    let mut per_call = |metric: &'static str, span: &str, scale: f64, calls: Option<u64>| {
        let (secs, count) = tr.total(span);
        if count > 0 {
            layers.insert(metric, secs * scale / calls.unwrap_or(count) as f64);
        }
    };
    per_call("dcn.topology_build_s", "dcn.topology_build", 1.0, None);
    per_call("pastry.assign_ids_s", "pastry.assign_ids", 1.0, None);
    per_call("pastry.build_states_s", "pastry.build_states", 1.0, None);
    per_call("core.cluster.build_s", "core.cluster.build", 1.0, None);
    per_call(
        "core.cluster.install_vm_us",
        "core.cluster.install_vm",
        1e6,
        Some(traced.installs.max(1)),
    );
    per_call("core.cluster.reindex_ms", "core.cluster.reindex", 1e3, None);
    per_call(
        "core.cluster.satisfaction_ms",
        "core.cluster.satisfaction",
        1e3,
        None,
    );
    per_call(
        "core.cluster.refresh_metrics_ms",
        "core.cluster.refresh_metrics",
        1e3,
        None,
    );
    per_call(
        "core.cluster.report_capture_ms",
        "core.cluster.report_capture",
        1e3,
        None,
    );
    per_call(
        "core.controller.allocations_us",
        "core.controller.allocations",
        1e6,
        Some(traced.nodes as u64),
    );
    per_call("obs.metrics_json_ms", "obs.metrics_json", 1e3, None);
    per_call("market.reconcile_ms", "market.reconcile", 1e3, None);
    per_call(
        "chaos.invariant_check_ms",
        "chaos.invariant_check",
        1e3,
        Some(1),
    );
}

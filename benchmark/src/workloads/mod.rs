//! The five workloads. Names are fixed: later issues cite them.
//!
//! Every workload is one function that builds a fresh system from the
//! seed, runs its timed phase and checks its own outcome. The harness
//! decides how often to call it and in which [`Mode`].

use std::collections::BTreeMap;
use std::sync::Arc;

use vbundle_dcn::Topology;
use vbundle_obs::{HotSection, Profiler};
use vbundle_pastry::{NodeHandle, PastryConfig, PastryState};
use vbundle_scribe::ScribeConfig;
use vbundle_sim::SimDuration;

use crate::span::Tracer;

mod boot_storm;
mod engine_gossip;
mod market_churn;
mod rebalance;
pub mod stack;
mod steady_agg;

/// Workload names, in the order `run` interleaves them.
pub const NAMES: [&str; 5] = [
    "rebalance",
    "steady_agg",
    "boot_storm",
    "market_churn",
    "engine_gossip",
];

/// Flight-recorder ring size in the traced pass (the chaos benches' size).
const FLIGHT_CAPACITY: usize = 65_536;

/// What a rep is for. Timed reps run with everything off; the counted rep
/// switches the allocator's counters on; the traced pass records harness
/// spans and turns on the engine profiler and the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Timed,
    Counted,
    Traced,
}

/// Inputs of a rep: everything random derives from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// `run --quick`: ten times smaller clusters, shorter horizons.
    pub quick: bool,
}

impl Params {
    /// `full`, or a tenth of it (at least 1) under `--quick`.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// The overlay pieces the traced pass built standalone (under the
/// `pastry.*` spans) and hands to the ladder so it need not build them a
/// third time.
pub struct Overlay {
    pub topo: Arc<Topology>,
    pub handles: Vec<NodeHandle>,
    pub states: Vec<PastryState>,
}

/// What the stack-prefix ladder must reproduce of a workload: same
/// overlay, same timers, same horizon.
#[derive(Clone)]
pub struct StackSpec {
    /// pods × racks per pod × servers per rack.
    pub dims: (u32, u32, u32),
    pub pastry: PastryConfig,
    pub scribe: ScribeConfig,
    /// Aggregation round length (the controller's update interval).
    pub update_interval: SimDuration,
    /// Simulated span run before the timed phase (counted in `setup_s`).
    pub warmup: SimDuration,
    /// Simulated span of the timed phase.
    pub horizon: SimDuration,
}

/// Outcome of one rep.
#[derive(Default)]
pub struct Rep {
    /// Host seconds from topology build to the end of warm-up.
    pub setup_s: f64,
    /// Host seconds of the timed phase only.
    pub run_s: f64,
    /// FNV of the simulated outcome; equal across reps of one seed.
    pub digest: u64,
    /// Servers (or bare actors).
    pub nodes: usize,
    /// Engine events processed in the timed phase.
    pub events: u64,
    /// Allocator calls in the timed phase (counted rep only).
    pub run_allocs: u64,
    /// VMs seeded through `Cluster::install_vm` during setup.
    pub installs: u64,
    /// Operations attempted / failed, as `failed_ops_pct` defines them.
    pub attempted: u64,
    pub failed: u64,
    /// Every other number the rep produced, by metric name. Simulated
    /// outcomes and public counters are present in every mode; numbers
    /// that need spans or the profiler only in the traced pass.
    pub values: BTreeMap<&'static str, f64>,
    /// Self-check failures: a non-empty list fails the run.
    pub broken: Vec<String>,
    /// Traced pass of a stack workload only.
    pub overlay: Option<Overlay>,
}

impl Rep {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a self-check; `ok == false` fails the whole run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }
}

/// Stores the engine profiler's hot sections as mean nanoseconds per
/// execution; a section that never ran (no injector, no duplicate
/// delivery, no far-future event) reads 0.
pub fn record_hot_sections(profiler: &Profiler, rep: &mut Rep) {
    for (name, section) in [
        ("sim.queue_pop_ns", HotSection::QueuePop),
        ("sim.dispatch_ns", HotSection::Dispatch),
        ("sim.far_promote_ns", HotSection::FarPromote),
        ("sim.injector_consult_ns", HotSection::InjectorConsult),
        ("sim.message_clone_ns", HotSection::MessageClone),
    ] {
        let s = profiler.stats(section);
        rep.set(name, s.total_ns as f64 / s.count.max(1) as f64);
    }
}

/// Runs one rep of `name`.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates names first).
pub fn run_rep(name: &str, p: &Params, mode: Mode, tr: &mut Tracer) -> Rep {
    match name {
        "rebalance" => rebalance::rep(p, mode, tr),
        "steady_agg" => steady_agg::rep(p, mode, tr),
        "boot_storm" => boot_storm::rep(p, mode, tr),
        "market_churn" => market_churn::rep(p, mode, tr),
        "engine_gossip" => engine_gossip::rep(p, mode, tr),
        other => panic!("unknown workload {other}"),
    }
}

/// For a workload whose point is shuffling: the same cluster, config and
/// horizon on a flat load (timed, everything off) — what the run costs
/// when nothing sheds. `None` where shuffling is not the point.
pub fn without_shuffling(name: &str, p: &Params) -> Option<Rep> {
    (name == "rebalance").then(|| rebalance::flat_rep(p, &mut Tracer::new(false)))
}

/// The stack a workload runs on, or `None` for the bare-engine workload.
pub fn stack_spec(name: &str, p: &Params) -> Option<StackSpec> {
    match name {
        "rebalance" => Some(rebalance::spec(p)),
        "steady_agg" => Some(steady_agg::spec(p)),
        "boot_storm" => Some(boot_storm::spec(p)),
        "market_churn" => Some(market_churn::spec(p)),
        _ => None,
    }
}

//! The metric catalogue: every name the benchmark may print, with its
//! unit, direction and source. `BENCHMARK.json` must list the same names
//! (a unit test checks both directions).
//!
//! Sources: **P** phase span around a public call, **L** stack-prefix
//! ladder difference, **C** exact public counter, **M** microloop over a
//! public function, **X** the existing profiler / flight recorder in the
//! traced pass, **A** the counting allocator.

/// How much worse a metric's median may get before it counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Wall-clock or memory: a share of the baseline's median.
    Share(f64),
    /// Deterministic for a fixed seed: any worsening is real.
    Exact,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what someone running the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

/// The ten end-to-end metrics. The first four are defined (and never 0)
/// on every workload and carry a bound in `BENCHMARK.json`; the other six
/// are simulated outcomes defined on some workloads only, which
/// `BENCHMARK.json`'s format can hold only in its unbounded list.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.25),
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Share(0.25),
    },
    EndToEnd {
        name: "heap_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Share(0.06),
    },
    EndToEnd {
        name: "wire_kb_per_server",
        unit: "KB",
        better: Better::Lower,
        bound: Bound::Share(0.06),
    },
    EndToEnd {
        name: "balance_sd",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "unsatisfied_pct",
        unit: "%",
        better: Better::Lower,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "boot_p50_sim_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "boot_p99_sim_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "agg_converge_sim_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Exact,
    },
    EndToEnd {
        name: "failed_ops_pct",
        unit: "%",
        better: Better::Lower,
        bound: Bound::Exact,
    },
];

/// How many of [`END_TO_END`] are bounded in `BENCHMARK.json`.
pub const BOUNDED: usize = 4;

/// A per-layer metric: `(name, unit, better, source)`.
pub type Layer = (&'static str, &'static str, Better, &'static str);

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 70] = [
    ("sim.events", "count", Lower, "C"),
    ("sim.events_per_s", "1/s", Higher, "C/P"),
    ("sim.queue_pop_ns", "ns", Lower, "X"),
    ("sim.dispatch_ns", "ns", Lower, "X"),
    ("sim.far_promote_ns", "ns", Lower, "X"),
    ("sim.injector_consult_ns", "ns", Lower, "X"),
    ("sim.message_clone_ns", "ns", Lower, "X"),
    ("sim.queue_peak", "count", Lower, "C"),
    ("sim.allocs_per_event", "count", Lower, "A"),
    ("dcn.topology_build_s", "s", Lower, "P"),
    ("dcn.latency_lookup_ns", "ns", Lower, "M"),
    ("pastry.assign_ids_s", "s", Lower, "P"),
    ("pastry.build_states_s", "s", Lower, "P"),
    ("pastry.build_states_ratio_2x", "ratio", Lower, "P"),
    ("pastry.state_bytes_per_node", "B", Lower, "A"),
    ("pastry.route_us", "us", Lower, "L"),
    ("pastry.hops_mean", "count", Lower, "C"),
    ("pastry.prefix_run_s", "s", Lower, "L"),
    ("pastry.prefix_events", "count", Lower, "C"),
    ("pastry.maintenance_msgs", "count", Lower, "C"),
    ("scribe.join_us", "us", Lower, "L"),
    ("scribe.multicast_us_per_member", "us", Lower, "L"),
    ("scribe.allocs_per_multicast", "count", Lower, "A"),
    ("scribe.anycast_us", "us", Lower, "L"),
    ("scribe.anycast_hops_mean", "count", Lower, "C"),
    ("scribe.prefix_run_s", "s", Lower, "L"),
    ("scribe.prefix_events", "count", Lower, "C"),
    ("scribe.prefix_self_s", "s", Lower, "L"),
    ("scribe.tree_depth_max", "count", Lower, "C"),
    ("aggregation.prefix_run_s", "s", Lower, "L"),
    ("aggregation.prefix_events", "count", Lower, "C"),
    ("aggregation.prefix_self_s", "s", Lower, "L"),
    ("aggregation.round_wall_ms", "ms", Lower, "L"),
    (
        "aggregation.events_per_round_per_server",
        "count",
        Lower,
        "C",
    ),
    ("aggregation.mean_abs_err", "ratio", Lower, "C"),
    ("core.controller.self_s", "s", Lower, "L"),
    ("core.controller.shuffle_self_s", "s", Lower, "L"),
    ("core.controller.us_per_migration", "us", Lower, "L/C"),
    ("core.controller.migrations", "count", Lower, "C"),
    ("core.controller.queries_sent", "count", Lower, "C"),
    ("core.controller.anycast_failures", "count", Lower, "C"),
    ("core.controller.migrations_failed", "count", Lower, "C"),
    ("core.controller.boot_us", "us", Lower, "P"),
    (
        "core.controller.boots_handled_per_boot",
        "count",
        Lower,
        "C",
    ),
    ("core.controller.allocations_us", "us", Lower, "M"),
    ("core.shaper.allocate_ns_per_vm", "ns", Lower, "M"),
    ("core.placement.place_us", "us", Lower, "M"),
    ("core.cluster.build_s", "s", Lower, "P"),
    ("core.cluster.install_vm_us", "us", Lower, "P"),
    ("core.cluster.reindex_ms", "ms", Lower, "P"),
    ("core.cluster.satisfaction_ms", "ms", Lower, "P"),
    ("core.cluster.refresh_metrics_ms", "ms", Lower, "P"),
    ("core.cluster.report_capture_ms", "ms", Lower, "P"),
    ("core.allocs_per_event", "count", Lower, "A"),
    ("trade.requests_sent", "count", Lower, "C"),
    ("trade.leases_borrowed", "count", Higher, "C"),
    ("trade.grant_ratio", "ratio", Higher, "C"),
    ("trade.leases_expired", "count", Lower, "C"),
    ("market.spot_trades", "count", Higher, "C"),
    ("market.rejected_price", "count", Lower, "C"),
    ("market.billing_reversals", "count", Lower, "C"),
    ("market.reconcile_ms", "ms", Lower, "P"),
    ("fdetect.evictions", "count", Lower, "C"),
    ("chaos.time_to_repair_sim_s", "s", Lower, "C"),
    ("chaos.violations", "count", Lower, "C"),
    ("chaos.invariant_check_ms", "ms", Lower, "P"),
    ("obs.trace_overhead_x", "ratio", Lower, "X"),
    ("obs.flight_events", "count", Lower, "X"),
    ("obs.metrics_json_ms", "ms", Lower, "P"),
    ("boot_samples", "count", Higher, "C"),
];

/// Unit of any catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(NAMES);
        for name in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(!well_formed("has space") && !well_formed(".dot") && !well_formed(""));
    }

    #[test]
    fn setup_gets_the_largest_bound() {
        let share = |m: &EndToEnd| match m.bound {
            Bound::Share(s) => s,
            Bound::Exact => 0.0,
        };
        let setup = share(&END_TO_END[0]);
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(END_TO_END.iter().all(|m| share(m) <= setup));
        assert!(setup <= 0.25);
    }
}

//! The cluster-mean sanity gate (graceful degradation under poisoned
//! aggregates). Present only when `VBundleConfig::mean_gate` is on.

use vbundle_obs::Kind;

use super::host::Host;
use super::stats::ControllerStats;
use crate::ResourceKind;

/// Per-dimension state of the gate.
///
/// The gate sits between the aggregation trees and the shuffling logic:
/// each update tick it samples the freshly aggregated mean and either
/// accepts it as the new `last_good` or — on an implausible range or jump —
/// holds the previous value and starts counting. `streak` consecutive
/// readings that agree *with each other* (a real cluster-wide load change
/// looks the same every round; flapping poison does not) re-anchor the
/// gate on the new level so it cannot wedge forever.
#[derive(Debug, Clone, Copy, Default)]
struct MeanGate {
    /// The last reading that passed the gate; what classification uses.
    last_good: Option<f64>,
    /// The level the current suspect streak agrees on.
    candidate: f64,
    /// Consecutive mutually consistent suspect readings.
    streak: u32,
}

/// One gate per managed dimension; a slot stays `None` until the first
/// update tick with an aggregate seeds it.
#[derive(Debug, Default)]
pub(super) struct MeanGates([Option<MeanGate>; 3]);

impl MeanGates {
    /// The mean to steer on along `kind`: the gate's last-good reading, or
    /// — before the first sample seeds the gate — the raw value if it
    /// clears the absolute plausibility bounds.
    pub fn effective(&self, host: &Host, kind: ResourceKind) -> Option<f64> {
        match &self.0[kind as usize] {
            Some(gate) => gate.last_good,
            None => host
                .cluster_mean_for(kind)
                .filter(|&m| in_absolute_bounds(m)),
        }
    }

    /// True while any managed dimension's gate is holding a suspect
    /// reading.
    pub fn suspicious(&self, kinds: &[ResourceKind]) -> bool {
        kinds
            .iter()
            .any(|&k| self.0[k as usize].is_some_and(|g| g.streak > 0))
    }

    /// Samples `kind`'s fresh cluster mean and advances its gate. Called
    /// once per update tick and dimension, *before* classification.
    pub fn sample(&mut self, host: &Host, stats: &mut ControllerStats, kind: ResourceKind) {
        // No aggregate (trees converging or cache expired): the gate keeps
        // its state; classification sees last-good.
        let Some(reading) = host.cluster_mean_for(kind) else {
            return;
        };
        let config = &host.config;
        let in_bounds = in_absolute_bounds(reading);
        let gate = self.0[kind as usize].get_or_insert_with(MeanGate::default);
        let plausible = in_bounds
            && match gate.last_good {
                Some(lg) => (reading - lg).abs() <= config.mean_jump_bound,
                None => true,
            };
        if plausible {
            gate.last_good = Some(reading);
            gate.streak = 0;
            return;
        }
        stats.rejected_aggregates.inc();
        host.event(&MEAN_GATE_REJECT, kind as u64, 0);
        // Suspect. Readings agreeing with the current candidate level
        // extend the streak; a genuine load change repeats itself and
        // re-anchors after `MEAN_RECOVERY_ROUNDS`, while flapping poison
        // keeps resetting.
        if in_bounds {
            if gate.streak > 0 && (reading - gate.candidate).abs() <= config.mean_jump_bound {
                gate.streak += 1;
            } else {
                gate.candidate = reading;
                gate.streak = 1;
            }
            if gate.streak >= MEAN_RECOVERY_ROUNDS {
                gate.last_good = Some(reading);
                gate.streak = 0;
            }
        } else {
            // Out-of-bounds garbage (NaN, negative, huge) keeps the gate
            // suspicious (streak stays alive ⇒ conservative mode) but can
            // never anchor a recovery candidate: the NaN candidate
            // guarantees the next in-bounds suspect starts a fresh streak.
            gate.candidate = f64::NAN;
            gate.streak = 1;
        }
    }
}

/// Consecutive mutually consistent suspect readings after which the gate
/// re-anchors on the new level — a genuine cluster-wide load change must
/// not wedge the controller on a stale mean forever.
const MEAN_RECOVERY_ROUNDS: u32 = 3;

/// Absolute plausibility ceiling on the mean utilization (demand over
/// capacity; oversubscription can push it past 1, but not this far).
const MEAN_CEILING: f64 = 10.0;

/// Flight record: a mean reading the gate refused (`resource` is the
/// `ResourceKind` index).
const MEAN_GATE_REJECT: Kind = Kind::new("mean-gate-reject", "resource", "");

/// Whether a mean reading clears the gate's absolute (memoryless)
/// plausibility bounds.
fn in_absolute_bounds(mean: f64) -> bool {
    mean.is_finite() && (0.0..=MEAN_CEILING).contains(&mean)
}

#[cfg(test)]
mod tests {
    use crate::controller::{capacity_topic, demand_topic, Controller};
    use crate::{ResourceKind, ResourceVector, VBundleConfig};
    use vbundle_aggregation::{AggValue, AggregationConfig};
    use vbundle_dcn::Bandwidth;
    use vbundle_sim::SimTime;

    fn gated(config: VBundleConfig) -> Controller {
        Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            config,
        )
    }

    /// Injects a fresh global pair so `cluster_mean_for(Bandwidth)` reads
    /// `util` (demand mean `util * 1000` over capacity mean `1000`).
    fn feed_mean(c: &mut Controller, version: u64, util: f64) {
        let kind = ResourceKind::Bandwidth;
        c.host.agg.track(demand_topic(kind));
        c.host.agg.track(capacity_topic(kind));
        for (topic, value) in [
            (demand_topic(kind), util * 1000.0),
            (capacity_topic(kind), 1000.0),
        ] {
            c.host
                .agg
                .on_result(topic, 9, version, AggValue::of(value), SimTime::ZERO);
        }
    }

    #[test]
    fn mean_gate_holds_last_good_and_reanchors() {
        let mut c = gated(VBundleConfig::default().with_mean_jump_bound(0.2));
        let bw = ResourceKind::Bandwidth;
        feed_mean(&mut c, 1, 0.5);
        c.shuffle.sample_means(&c.host, &mut c.stats);
        assert_eq!(c.effective_mean_for(bw), Some(0.5));
        assert!(!c.conservative_mode());

        // A poisoned aggregate jumps to 5.0: in absolute bounds but far
        // past the jump bound, so the gate holds 0.5 and goes conservative.
        feed_mean(&mut c, 2, 5.0);
        c.shuffle.sample_means(&c.host, &mut c.stats);
        assert_eq!(c.effective_mean_for(bw), Some(0.5));
        assert!(c.conservative_mode());
        assert_eq!(c.stats.rejected_aggregates.get(), 1);

        // The same level repeating looks like a genuine cluster-wide load
        // change: after `MEAN_RECOVERY_ROUNDS` (3) consistent readings the
        // gate re-anchors and leaves conservative mode.
        c.shuffle.sample_means(&c.host, &mut c.stats);
        assert_eq!(c.effective_mean_for(bw), Some(0.5));
        assert!(c.conservative_mode());
        c.shuffle.sample_means(&c.host, &mut c.stats);
        assert_eq!(c.effective_mean_for(bw), Some(5.0));
        assert!(!c.conservative_mode());
        assert_eq!(c.stats.rejected_aggregates.get(), 3);
    }

    #[test]
    fn mean_gate_never_anchors_on_garbage() {
        let mut c = gated(VBundleConfig::default().with_mean_jump_bound(0.2));
        let bw = ResourceKind::Bandwidth;
        feed_mean(&mut c, 1, 0.5);
        c.shuffle.sample_means(&c.host, &mut c.stats);
        // Negative demand sum → negative mean: outside the absolute
        // bounds, so no matter how often it repeats it cannot re-anchor.
        feed_mean(&mut c, 2, -0.5);
        for _ in 0..5 {
            c.shuffle.sample_means(&c.host, &mut c.stats);
            assert_eq!(c.effective_mean_for(bw), Some(0.5));
            assert!(c.conservative_mode());
        }
        assert_eq!(c.stats.rejected_aggregates.get(), 5);
    }

    #[test]
    fn mean_gate_disabled_is_passthrough() {
        let mut c = gated(VBundleConfig::default().with_mean_gate(false));
        let bw = ResourceKind::Bandwidth;
        feed_mean(&mut c, 1, 7.5);
        c.shuffle.sample_means(&c.host, &mut c.stats);
        // No gate: the implausible reading steers classification directly.
        assert_eq!(c.effective_mean_for(bw), Some(7.5));
        assert!(!c.conservative_mode());
        assert_eq!(c.stats.rejected_aggregates.get(), 0);
    }
}

//! Network latency models.
//!
//! The engine asks its [`Latency`] for the one-way delay of every
//! message. The v-Bundle paper's overhead measurements (§V.C, Fig. 14)
//! assume a ~10 ms local-area hop; the datacenter crate provides a
//! topology-aware model where same-rack hops are cheaper than cross-pod
//! hops.

use crate::actor::ActorId;
use crate::time::SimDuration;

/// The engine's latency model, dispatched without a virtual call.
///
/// The engine consults it on *every* send (twice for a bounced message),
/// so both models — a constant delay and datacenter proximity tiers — are
/// enum variants the optimizer can inline and branch-predict.
///
/// ```
/// use vbundle_sim::{ActorId, Latency, SimDuration};
/// let lan = Latency::Constant(SimDuration::from_millis(10));
/// assert_eq!(
///     lan.latency(ActorId::new(0), ActorId::new(1)),
///     SimDuration::from_millis(10),
/// );
/// ```
#[derive(Debug)]
pub enum Latency {
    /// The same delay for every pair of actors (self-sends included).
    Constant(SimDuration),
    /// Table-driven datacenter tiers — the topology model's flat form.
    Tiered(TieredLatency),
}

impl Latency {
    /// The one-way delay from `from` to `to` under this model.
    #[inline]
    pub fn latency(&self, from: ActorId, to: ActorId) -> SimDuration {
        match self {
            Latency::Constant(d) => *d,
            Latency::Tiered(t) => t.latency(from, to),
        }
    }
}

/// A flat-table proximity latency model: per-server rack and pod indexes
/// plus one delay per proximity level (same server, same rack, same pod,
/// cross pod). This is the devirtualized form of the datacenter crate's
/// topology model — two array loads and three compares per send, no
/// virtual call, no pointer-chased topology structures.
///
/// Actors whose index falls outside the table (e.g. a harness front end)
/// pay the worst-case cross-pod delay, matching the topology model.
///
/// ```
/// use vbundle_sim::{ActorId, SimDuration, TieredLatency};
/// // Two racks of two servers, all in one pod.
/// let t = TieredLatency::new(
///     vec![0, 0, 1, 1],
///     vec![0, 0, 0, 0],
///     [
///         SimDuration::from_micros(10),
///         SimDuration::from_micros(100),
///         SimDuration::from_micros(250),
///         SimDuration::from_micros(500),
///     ],
/// );
/// let lat = |a, b| t.latency(ActorId::new(a), ActorId::new(b));
/// assert_eq!(lat(0, 0), SimDuration::from_micros(10));
/// assert_eq!(lat(0, 1), SimDuration::from_micros(100));
/// assert_eq!(lat(0, 2), SimDuration::from_micros(250));
/// assert_eq!(lat(0, 9), SimDuration::from_micros(500));
/// ```
#[derive(Debug, Clone)]
pub struct TieredLatency {
    rack: Box<[u32]>,
    pod: Box<[u32]>,
    levels: [SimDuration; 4],
}

impl TieredLatency {
    /// Builds the table from per-server rack and pod indexes (same
    /// length, indexed by actor id) and the four level delays, closest
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `rack` and `pod` differ in length.
    pub fn new(rack: Vec<u32>, pod: Vec<u32>, levels: [SimDuration; 4]) -> Self {
        assert_eq!(rack.len(), pod.len(), "rack/pod tables must align");
        TieredLatency {
            rack: rack.into_boxed_slice(),
            pod: pod.into_boxed_slice(),
            levels,
        }
    }

    /// The one-way delay from `from` to `to`.
    #[inline]
    pub fn latency(&self, from: ActorId, to: ActorId) -> SimDuration {
        let (a, b) = (from.index(), to.index());
        if a >= self.rack.len() || b >= self.rack.len() {
            return self.levels[3];
        }
        if a == b {
            self.levels[0]
        } else if self.rack[a] == self.rack[b] {
            self.levels[1]
        } else if self.pod[a] == self.pod[b] {
            self.levels[2]
        } else {
            self.levels[3]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_uniform() {
        let m = Latency::Constant(SimDuration::from_micros(500));
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(
                    m.latency(ActorId::new(i), ActorId::new(j)),
                    SimDuration::from_micros(500)
                );
            }
        }
        assert!(format!("{m:?}").contains("Constant"));
    }

    #[test]
    fn latency_enum_matches_boxed_models() {
        let tiered = TieredLatency::new(
            vec![0, 0, 1],
            vec![0, 0, 0],
            [
                SimDuration::from_micros(1),
                SimDuration::from_micros(2),
                SimDuration::from_micros(3),
                SimDuration::from_micros(4),
            ],
        );
        let fast = Latency::Tiered(tiered.clone());
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(
                    fast.latency(ActorId::new(a), ActorId::new(b)),
                    tiered.latency(ActorId::new(a), ActorId::new(b)),
                    "enum dispatch diverged at ({a},{b})"
                );
            }
        }
        assert!(format!("{fast:?}").contains("Tiered"));
    }

    #[test]
    #[should_panic(expected = "align")]
    fn tiered_tables_must_align() {
        let _ = TieredLatency::new(vec![0], vec![0, 1], [SimDuration::ZERO; 4]);
    }
}

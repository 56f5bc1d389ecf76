//! Physical proximity levels and the topology-aware latency model.

use std::sync::Arc;

use vbundle_sim::{ActorId, SimDuration, TieredLatency};

use crate::{ServerId, Topology};

/// How physically close two servers are in the datacenter hierarchy.
///
/// The discriminant doubles as a numeric distance (0–3), with lower values
/// meaning closer — the proximity metric used by Pastry's neighbor set and
/// by v-Bundle's placement and anycast preferences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
pub enum ProximityLevel {
    /// The same physical machine.
    SameServer = 0,
    /// Different machines under the same ToR switch.
    SameRack = 1,
    /// Different racks under the same aggregation switch.
    SamePod = 2,
    /// Different pods, traversing the datacenter core.
    CrossPod = 3,
}

impl ProximityLevel {
    /// All levels, closest first.
    pub const ALL: [ProximityLevel; 4] = [
        ProximityLevel::SameServer,
        ProximityLevel::SameRack,
        ProximityLevel::SamePod,
        ProximityLevel::CrossPod,
    ];
}

/// A latency model that derives per-message delay from the topology:
/// intra-rack hops are cheaper than cross-pod hops. The engine runs its
/// flat form, [`TopologyLatency::devirtualize`]; the per-pair lookup here
/// is the reference that form is checked against.
///
/// Actor index `i` is taken to be server index `i`, the convention used by
/// every simulation harness in this workspace.
///
/// ```
/// use std::sync::Arc;
/// use vbundle_dcn::{Topology, TopologyLatency};
/// use vbundle_sim::ActorId;
///
/// let topo = Arc::new(Topology::paper_testbed());
/// let model = TopologyLatency::new(topo);
/// let same_rack = model.latency(ActorId::new(0), ActorId::new(1));
/// let cross_rack = model.latency(ActorId::new(0), ActorId::new(14));
/// assert!(same_rack < cross_rack);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyLatency {
    topo: Arc<Topology>,
    /// One-way delay per proximity level, indexed by `ProximityLevel as u32`.
    levels: [SimDuration; 4],
}

impl TopologyLatency {
    /// Creates a model with representative datacenter delays:
    /// 10 µs loopback, 100 µs intra-rack, 250 µs intra-pod, 500 µs cross-pod.
    pub fn new(topo: Arc<Topology>) -> Self {
        TopologyLatency {
            topo,
            levels: [
                SimDuration::from_micros(10),
                SimDuration::from_micros(100),
                SimDuration::from_micros(250),
                SimDuration::from_micros(500),
            ],
        }
    }

    /// Creates a model matching the paper's measurement environment
    /// (§V.C / Fig. 14): a flat ~10 ms LAN hop regardless of placement,
    /// except for loopback.
    pub fn paper_lan(topo: Arc<Topology>) -> Self {
        TopologyLatency {
            topo,
            levels: [
                SimDuration::from_micros(10),
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
            ],
        }
    }

    /// Overrides the delay for one proximity level.
    pub fn with_level(mut self, level: ProximityLevel, delay: SimDuration) -> Self {
        self.levels[level as usize] = delay;
        self
    }

    /// The delay configured for `level`.
    pub fn level_delay(&self, level: ProximityLevel) -> SimDuration {
        self.levels[level as usize]
    }

    /// The one-way delay from `from` to `to`, read off the topology.
    pub fn latency(&self, from: ActorId, to: ActorId) -> SimDuration {
        match (self.server(from), self.server(to)) {
            (Some(a), Some(b)) => self.levels[self.topo.proximity(a, b) as usize],
            // Actors outside the server range (e.g. a harness front end)
            // pay the worst-case delay.
            _ => self.levels[ProximityLevel::CrossPod as usize],
        }
    }

    fn server(&self, actor: ActorId) -> Option<ServerId> {
        if actor.index() < self.topo.num_servers() {
            Some(self.topo.server(actor.index()))
        } else {
            None
        }
    }

    /// Flattens this model into the engine's devirtualized
    /// [`TieredLatency`] fast path: per-server rack and pod index tables
    /// plus the four level delays. Produces the exact same delay for every
    /// actor pair — including out-of-range actors, which pay the
    /// cross-pod worst case in both forms — but costs two array loads
    /// instead of a virtual call and pointer-chased topology lookups on
    /// every send.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use vbundle_dcn::{Topology, TopologyLatency};
    /// use vbundle_sim::ActorId;
    ///
    /// let model = TopologyLatency::new(Arc::new(Topology::paper_testbed()));
    /// let fast = model.devirtualize();
    /// let pair = (ActorId::new(0), ActorId::new(14));
    /// assert_eq!(fast.latency(pair.0, pair.1), model.latency(pair.0, pair.1));
    /// ```
    pub fn devirtualize(&self) -> vbundle_sim::Latency {
        let n = self.topo.num_servers();
        let mut rack = Vec::with_capacity(n);
        let mut pod = Vec::with_capacity(n);
        for i in 0..n {
            let server = self.topo.server(i);
            rack.push(self.topo.rack_of(server).index() as u32);
            pod.push(self.topo.pod_of(server).index() as u32);
        }
        vbundle_sim::Latency::Tiered(TieredLatency::new(rack, pod, self.levels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_by_distance() {
        assert!(ProximityLevel::SameServer < ProximityLevel::SameRack);
        assert!(ProximityLevel::SameRack < ProximityLevel::SamePod);
        assert!(ProximityLevel::SamePod < ProximityLevel::CrossPod);
        assert_eq!(ProximityLevel::ALL.len(), 4);
        assert_eq!(ProximityLevel::CrossPod as u32, 3);
    }

    #[test]
    fn topology_latency_tiers() {
        let topo = Arc::new(
            Topology::builder()
                .pods(2)
                .racks_per_pod(2)
                .servers_per_rack(2)
                .build(),
        );
        let m = TopologyLatency::new(topo);
        let lat = |a: u32, b: u32| m.latency(ActorId::new(a), ActorId::new(b));
        assert_eq!(lat(0, 0), SimDuration::from_micros(10));
        assert_eq!(lat(0, 1), SimDuration::from_micros(100));
        assert_eq!(lat(0, 2), SimDuration::from_micros(250));
        assert_eq!(lat(0, 4), SimDuration::from_micros(500));
        // Out-of-range actor pays worst case.
        assert_eq!(lat(0, 100), SimDuration::from_micros(500));
    }

    #[test]
    fn paper_lan_is_flat_10ms() {
        let topo = Arc::new(Topology::paper_testbed());
        let m = TopologyLatency::paper_lan(topo);
        assert_eq!(
            m.latency(ActorId::new(0), ActorId::new(14)),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            m.latency(ActorId::new(0), ActorId::new(1)),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn devirtualized_model_matches_boxed_exactly() {
        // Irregular topology (uneven rack sizes) plus custom level delays:
        // the flat-table fast path must agree with the per-pair lookup on
        // every pair, including actors past the server range.
        let topo = Arc::new(Topology::builder().rack_sizes(&[3, 1, 2]).build());
        let m = TopologyLatency::new(topo.clone())
            .with_level(ProximityLevel::SamePod, SimDuration::from_millis(1));
        let fast = m.devirtualize();
        for a in 0..topo.num_servers() as u32 + 2 {
            for b in 0..topo.num_servers() as u32 + 2 {
                assert_eq!(
                    fast.latency(ActorId::new(a), ActorId::new(b)),
                    m.latency(ActorId::new(a), ActorId::new(b)),
                    "devirtualized model diverged at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn with_level_overrides() {
        let topo = Arc::new(Topology::paper_testbed());
        let m = TopologyLatency::new(topo)
            .with_level(ProximityLevel::SameRack, SimDuration::from_millis(2));
        assert_eq!(
            m.level_delay(ProximityLevel::SameRack),
            SimDuration::from_millis(2)
        );
    }
}

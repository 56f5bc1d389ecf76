//! Overlay assembly: id assignment policies, bulk state construction and a
//! one-call launcher.
//!
//! The paper's placement algorithm (§II.B) relies on a *centralized
//! certificate authority* that assigns nodeIds "to reflect the physical
//! proximity": numerically adjacent ids belong to physically close servers.
//! [`topology_aware_ids`] implements that policy; [`random_ids`] provides
//! the conventional uniformly random assignment for ablation comparisons.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_dcn::Topology;
use vbundle_sim::{ActorId, Engine, Latency, SimDuration};

use crate::id::{BITS_PER_DIGIT, DIGIT_BASE};
use crate::message::PastryMsg;
use crate::node::{PastryApp, PastryNode};
use crate::state::{PastryState, Site};
use crate::{NodeHandle, NodeId, PastryConfig};

/// How node ids are assigned to servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdAssignment {
    /// The paper's certificate-authority policy: ids mirror physical
    /// position, so numeric neighbors are rack neighbors.
    TopologyAware,
    /// Uniformly random ids (classic Pastry; used as an ablation baseline).
    Random {
        /// Seed for the id draw.
        seed: u64,
    },
}

/// Assigns each server an id that reflects its physical position.
///
/// The ring is split into one equal arc per rack; a rack's servers are
/// spread over the *middle half* of its arc. The quarter-arc gaps at the
/// boundaries keep servers of adjacent racks from being numerically
/// adjacent — the paper notes that "adjacent servers across racks will be
/// assigned remote nodeIds" so that one customer's VMs do not accidentally
/// straddle two racks.
///
/// ```
/// use vbundle_dcn::Topology;
/// use vbundle_pastry::overlay::topology_aware_ids;
///
/// let topo = Topology::paper_testbed();
/// let ids = topology_aware_ids(&topo);
/// assert_eq!(ids.len(), 15);
/// // Same-rack servers are numerically adjacent...
/// let d_same = ids[0].ring_distance(ids[1]);
/// // ...while rack boundaries are separated by the inter-arc gap.
/// let d_cross = ids[3].ring_distance(ids[4]);
/// assert!(d_same < d_cross);
/// ```
pub fn topology_aware_ids(topo: &Topology) -> Vec<NodeId> {
    let num_racks = topo.num_racks() as u128;
    let arc = u128::MAX / num_racks;
    let mut ids = vec![NodeId::ZERO; topo.num_servers()];
    for rack in topo.racks() {
        let size = topo.rack_size(rack) as u128;
        let arc_start = arc * rack.index() as u128;
        let span = arc / 2; // middle half of the arc
        let span_start = arc_start + arc / 4;
        let spacing = span / size;
        for (slot, server) in topo.servers_in_rack(rack).enumerate() {
            ids[server.index()] =
                NodeId::from_u128(span_start + spacing * slot as u128 + spacing / 2);
        }
    }
    ids
}

/// Assigns `n` distinct uniformly random ids.
pub fn random_ids(n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(n);
    let mut drawn = BTreeSet::new();
    while ids.len() < n {
        let id = NodeId::from_u128(rng.gen());
        if drawn.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Resolves an [`IdAssignment`] against a topology.
pub fn assign_ids(topo: &Topology, policy: IdAssignment) -> Vec<NodeId> {
    match policy {
        IdAssignment::TopologyAware => topology_aware_ids(topo),
        IdAssignment::Random { seed } => random_ids(topo.num_servers(), seed),
    }
}

/// Pairs each id with its server's actor address (`actor i` = server `i`).
pub fn handles_for(ids: &[NodeId]) -> Vec<NodeHandle> {
    ids.iter()
        .enumerate()
        .map(|(i, &id)| NodeHandle::new(id, ActorId::new(i as u32)))
        .collect()
}

/// The members of `domain` in a list sorted by `(domain, id)`, in id
/// order.
fn members(sorted: &[(u32, NodeHandle)], domain: u32) -> &[(u32, NodeHandle)] {
    let start = sorted.partition_point(|&(d, _)| d < domain);
    let len = sorted[start..].partition_point(|&(d, _)| d == domain);
    &sorted[start..start + len]
}

/// The `reach` handles on either side of position `at` in a list taken as
/// a circle, with the one at `at` — the whole list if that wraps.
fn around(
    sorted: &[(u32, NodeHandle)],
    at: usize,
    reach: usize,
) -> impl Iterator<Item = NodeHandle> + '_ {
    let n = sorted.len();
    let span = if n <= 2 * reach + 1 {
        0..n
    } else {
        n + at - reach..n + at + reach + 1
    };
    span.map(move |i| sorted[i % n].1)
}

/// The lowest id in `lo..=hi` among handles in id order.
fn first_in(sorted: &[(u32, NodeHandle)], lo: NodeId, hi: NodeId) -> Option<NodeHandle> {
    let at = sorted.partition_point(|&(_, h)| h.id < lo);
    sorted.get(at).map(|&(_, h)| h).filter(|h| h.id <= hi)
}

/// Builds fully populated routing state for every node at once — the
/// certificate-authority bootstrap the paper assumes. Every node ends up
/// with the leaf set, routing table and neighbor set it would have after
/// [`learn`](PastryState::learn)ing its ring neighbors (nearest first,
/// alternating sides) and then every other node in id order.
///
/// That sweep is not run: each node is offered, in the same relative
/// order, only the handles that can change its state. The leaf set is
/// settled by the ring neighbors. A routing-table slot keeps the first
/// offered of its physically closest candidates, so unless a ring neighbor
/// already holds it, that is the lowest id in the slot's id range within
/// the node's rack, else within its pod, else anywhere — one binary search
/// each. The neighbor set ranks by `(proximity, ring distance)` and breaks
/// ties by arrival; a handle that ranks behind `neighbor_capacity` others
/// is never kept and never decides a tie among those that are, so only
/// the ring-nearest of the node's rack, pod and ring are offered, in their
/// sweep order.
///
/// # Panics
///
/// Panics if `handles` is empty, contains duplicate ids, or names an actor
/// that is not a server of `topo` (handles come from [`handles_for`]:
/// actor `i` is server `i`).
pub fn build_states(
    topo: &Arc<Topology>,
    handles: &[NodeHandle],
    config: &PastryConfig,
) -> Vec<PastryState> {
    assert!(!handles.is_empty(), "overlay needs at least one node");
    // A handle's domain per proximity class: its rack, its pod, the ring.
    let domains = |h: &NodeHandle| {
        let site = Site::of(topo, h.actor);
        assert!(site != Site::OFF, "{h} is not a server of the topology");
        [site.rack, site.pod, 0]
    };
    // One list per proximity class, nearest first — rack, pod, whole ring —
    // each sorted by (domain, id).
    let mut classes: [Vec<(u32, NodeHandle)>; 3] = Default::default();
    for h in handles {
        for (class, domain) in classes.iter_mut().zip(domains(h)) {
            class.push((domain, *h));
        }
    }
    for class in &mut classes {
        class.sort_unstable_by_key(|&(d, h)| (d, h.id));
    }
    let ring = &classes[2][..];
    for w in ring.windows(2) {
        assert!(w[0].1.id != w[1].1.id, "duplicate node id {:?}", w[0].1.id);
    }
    let n = ring.len();
    let mut offers: Vec<NodeHandle> = Vec::new();
    handles
        .iter()
        .map(|&me| {
            let mut st = PastryState::new(
                me,
                Arc::clone(topo),
                config.leaf_half,
                config.neighbor_capacity,
            );
            let pos = ring
                .binary_search_by_key(&me.id, |&(_, h)| h.id)
                .expect("own handle present");
            let at = |step: usize| ring[(pos + step) % n].1;
            // Ring neighbors: leaf_half on each side (wrapping).
            for step in 1..=config.leaf_half.min(n - 1) {
                st.learn(at(step));
                st.learn(at(n - step));
            }
            let [rack, pod, _] = domains(&me);
            let mine = [members(&classes[0], rack), members(&classes[1], pod), ring];
            offers.clear();
            // One candidate per routing-table slot. The ids sharing a
            // prefix are contiguous on the sorted ring, so the deepest row
            // anyone lands in is set by an adjacent node.
            let deepest = [at(1), at(n - 1)]
                .iter()
                .filter(|h| h.id != me.id)
                .map(|h| me.id.shared_prefix_len(h.id))
                .max();
            for row in 0..deepest.map_or(0, |d| d + 1) {
                let shift = 128 - BITS_PER_DIGIT as usize * (row + 1);
                let below = (1u128 << shift) - 1;
                let digits = (DIGIT_BASE as u128 - 1) << shift;
                let prefix = me.id.as_u128() & !(digits | below);
                for digit in (0..DIGIT_BASE).filter(|&d| d != me.id.digit(row)) {
                    let lo = prefix | (digit as u128) << shift;
                    let (lo, hi) = (NodeId::from_u128(lo), NodeId::from_u128(lo | below));
                    let Some(anywhere) = first_in(ring, lo, hi) else {
                        continue;
                    };
                    let nearer = mine[..2].iter().find_map(|class| first_in(class, lo, hi));
                    offers.push(nearer.unwrap_or(anywhere));
                }
            }
            // The neighbor set's candidates. It ranks by (class, ring
            // distance), so whoever is not among the `capacity` ring-nearest
            // of its own class on either side has that many ahead of it;
            // and nothing beyond the first class that fills the set alone
            // (one member is the node itself) gets in.
            for class in mine {
                let at = class
                    .binary_search_by_key(&me.id, |&(_, h)| h.id)
                    .expect("own handle present");
                offers.extend(around(class, at, config.neighbor_capacity));
                if class.len() > config.neighbor_capacity {
                    break;
                }
            }
            offers.sort_unstable_by_key(|h| h.id);
            offers.dedup();
            for &other in &offers {
                if other.id != me.id {
                    st.learn(other);
                }
            }
            st
        })
        .collect()
}

/// A started overlay: the engine plus the node handles (indexed by
/// server), as returned by [`launch`] and [`launch_null`].
pub type LaunchedOverlay<A> = (
    Engine<PastryMsg<<A as PastryApp>::Msg>, PastryNode<A>>,
    Vec<NodeHandle>,
);

/// Builds a complete overlay: pre-built states, one [`PastryNode`] per
/// server, engine started. Returns the engine and the node handles (indexed
/// by server).
///
/// `app_factory` is called once per server with `(server index, handle)`.
pub fn launch<A: PastryApp>(
    topo: &Arc<Topology>,
    policy: IdAssignment,
    config: PastryConfig,
    seed: u64,
    latency: Latency,
    mut app_factory: impl FnMut(usize, NodeHandle) -> A,
) -> LaunchedOverlay<A> {
    let ids = assign_ids(topo, policy);
    let handles = handles_for(&ids);
    let states = build_states(topo, &handles, &config);
    let mut engine = Engine::with_latency(latency, seed);
    for (i, state) in states.into_iter().enumerate() {
        let app = app_factory(i, handles[i]);
        engine.add_actor(PastryNode::with_state(state, app, config.clone()));
    }
    engine.start();
    (engine, handles)
}

/// A do-nothing application, useful for tests and benchmarks that only
/// exercise the overlay itself.
#[derive(Debug, Default, Clone)]
pub struct NullApp {
    /// Keys delivered to this node (most recent last).
    pub delivered: Vec<crate::Key>,
}

/// A minimal routable probe payload for overlay-only tests — the shared
/// sequence-numbered probe from the failure-detection substrate.
pub use vbundle_fdetect::Probe;

impl PastryApp for NullApp {
    type Msg = Probe;

    fn deliver(
        &mut self,
        _ctx: &mut crate::AppCtx<'_, '_, Probe>,
        key: crate::Key,
        _msg: Probe,
        _origin: NodeHandle,
    ) {
        self.delivered.push(key);
    }
}

/// Convenience: launch a [`NullApp`] overlay with zero latency — the
/// standard fixture for routing tests.
pub fn launch_null(
    topo: &Arc<Topology>,
    policy: IdAssignment,
    config: PastryConfig,
    seed: u64,
) -> LaunchedOverlay<NullApp> {
    launch(
        topo,
        policy,
        config,
        seed,
        Latency::Constant(SimDuration::from_micros(100)),
        |_, _| NullApp::default(),
    )
}

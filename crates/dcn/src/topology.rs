//! Hierarchical datacenter topology: pods → racks → servers.

use crate::{Bandwidth, ProximityLevel, ServerCapacity};

/// Identifies a physical server (the paper's PM) within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub(crate) u32);

/// Identifies a rack (one top-of-rack switch) within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub(crate) u32);

/// Identifies a pod (one aggregation-switch domain) within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodId(pub(crate) u32);

impl ServerId {
    /// The dense index of this server, `0..topology.num_servers()`.
    ///
    /// Server indexes double as simulation [`ActorId`](vbundle_sim::ActorId)
    /// indexes throughout the workspace.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl RackId {
    /// The dense index of this rack, `0..topology.num_racks()`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl PodId {
    /// The dense index of this pod, `0..topology.num_pods()`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pm{}", self.0)
    }
}

/// A failure-domain granularity: everything behind one shared piece of
/// infrastructure that can die at once.
///
/// The survivable-placement layer (core) and the domain-crash fault
/// injectors (chaos) both speak in these terms: a **rack** shares a ToR
/// switch and usually a power feed; a **pod** shares an aggregation
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// One top-of-rack switch domain.
    Rack,
    /// One aggregation-switch (pod) domain.
    Pod,
}

impl std::fmt::Display for DomainKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainKind::Rack => write!(f, "rack"),
            DomainKind::Pod => write!(f, "pod"),
        }
    }
}

#[derive(Debug, Clone)]
struct RackInfo {
    pod: PodId,
    first_server: u32,
    num_servers: u32,
}

/// A hierarchical datacenter network.
///
/// Regular topologies are `pods × racks_per_pod × servers_per_rack`;
/// irregular rack sizes (like the paper's 4/4/4/3 testbed) are supported via
/// [`TopologyBuilder::rack_sizes`]. See the [crate docs](crate) for an
/// example.
#[derive(Debug, Clone)]
pub struct Topology {
    racks: Vec<RackInfo>,
    /// Each server's rack and pod, so either is one load.
    server_site: Vec<(RackId, PodId)>,
    num_pods: u32,
    capacity: ServerCapacity,
    oversubscription: f64,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// The paper's real testbed (§IV): 15 servers over 4 edge switches
    /// (4/4/4/3), 1 Gbps ports, 8:1 oversubscription.
    pub fn paper_testbed() -> Topology {
        Topology::builder()
            .rack_sizes(&[4, 4, 4, 3])
            .server_capacity(ServerCapacity::paper_testbed())
            .oversubscription(8.0)
            .build()
    }

    /// The paper's large-scale simulation (§IV): H = 3000 servers, drawn in
    /// Figures 7–9 as ~75 racks of 40 servers, here 5 pods × 15 racks.
    pub fn simulation_3000() -> Topology {
        Topology::builder()
            .pods(5)
            .racks_per_pod(15)
            .servers_per_rack(40)
            .server_capacity(ServerCapacity::paper_testbed())
            .oversubscription(8.0)
            .build()
    }

    /// A `k`-ary fat-tree (Al-Fares et al., the topology the paper's
    /// related work \[11\]\[18\] targets): `k` pods, each with `k/2` edge
    /// switches (racks) of `k/2` servers — `k³/4` servers total.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not an even number ≥ 2.
    ///
    /// ```
    /// use vbundle_dcn::Topology;
    /// let t = Topology::fat_tree(4);
    /// assert_eq!(t.num_servers(), 16);
    /// assert_eq!(t.num_pods(), 4);
    /// assert_eq!(t.num_racks(), 8);
    /// ```
    pub fn fat_tree(k: u32) -> Topology {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and ≥ 2"
        );
        Topology::builder()
            .pods(k)
            .racks_per_pod(k / 2)
            .servers_per_rack(k / 2)
            .server_capacity(ServerCapacity::paper_testbed())
            // A proper fat-tree is rearrangeably non-blocking (1:1), but
            // real deployments trim the core; keep the builder's ratio
            // overridable and default to 1:1 here.
            .oversubscription(1.0)
            .build()
    }

    /// Total number of servers.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.server_site.len()
    }

    /// Total number of racks (ToR switches).
    pub fn num_racks(&self) -> usize {
        self.racks.len()
    }

    /// Total number of pods (aggregation domains).
    pub fn num_pods(&self) -> usize {
        self.num_pods as usize
    }

    /// The server with dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_servers()`.
    #[inline]
    pub fn server(&self, index: usize) -> ServerId {
        assert!(index < self.num_servers(), "server index out of range");
        ServerId(index as u32)
    }

    /// Iterates over all servers in index order.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.num_servers() as u32).map(ServerId)
    }

    /// Iterates over all racks in index order.
    pub fn racks(&self) -> impl Iterator<Item = RackId> + '_ {
        (0..self.num_racks() as u32).map(RackId)
    }

    /// The rack hosting `server`.
    #[inline]
    pub fn rack_of(&self, server: ServerId) -> RackId {
        self.server_site[server.index()].0
    }

    /// The pod containing `server`.
    #[inline]
    pub fn pod_of(&self, server: ServerId) -> PodId {
        self.server_site[server.index()].1
    }

    /// The pod containing `rack`.
    #[inline]
    pub fn pod_of_rack(&self, rack: RackId) -> PodId {
        self.racks[rack.index()].pod
    }

    /// The position of `server` inside its rack, `0..rack size`.
    pub fn slot_of(&self, server: ServerId) -> u32 {
        let rack = &self.racks[self.rack_of(server).index()];
        server.0 - rack.first_server
    }

    /// The servers in `rack`, in slot order.
    pub fn servers_in_rack(&self, rack: RackId) -> impl Iterator<Item = ServerId> + '_ {
        let info = &self.racks[rack.index()];
        (info.first_server..info.first_server + info.num_servers).map(ServerId)
    }

    /// Number of servers in `rack`.
    pub fn rack_size(&self, rack: RackId) -> usize {
        self.racks[rack.index()].num_servers as usize
    }

    /// The uniform per-server capacity.
    pub fn capacity(&self) -> ServerCapacity {
        self.capacity
    }

    /// The configured ToR up-link oversubscription ratio (e.g. 8.0 for the
    /// paper's 8:1 testbed).
    pub fn oversubscription(&self) -> f64 {
        self.oversubscription
    }

    /// Up-link capacity of a rack's ToR switch: the sum of its servers' NIC
    /// bandwidth divided by the oversubscription ratio.
    pub fn tor_uplink_capacity(&self, rack: RackId) -> Bandwidth {
        let size = self.rack_size(rack) as f64;
        self.capacity.bandwidth * size / self.oversubscription
    }

    /// Physical proximity of two servers, the metric behind Pastry's
    /// neighbor set and the topology-aware latency model.
    pub fn proximity(&self, a: ServerId, b: ServerId) -> ProximityLevel {
        if a == b {
            ProximityLevel::SameServer
        } else if self.rack_of(a) == self.rack_of(b) {
            ProximityLevel::SameRack
        } else if self.pod_of(a) == self.pod_of(b) {
            ProximityLevel::SamePod
        } else {
            ProximityLevel::CrossPod
        }
    }

    /// Numeric distance between two servers: 0 same server, 1 same rack,
    /// 2 same pod, 3 cross pod.
    pub fn distance(&self, a: ServerId, b: ServerId) -> u32 {
        self.proximity(a, b) as u32
    }

    /// The rack with dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_racks()`.
    pub fn rack(&self, index: usize) -> RackId {
        assert!(index < self.num_racks(), "rack index out of range");
        RackId(index as u32)
    }

    /// The pod with dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_pods()`.
    pub fn pod(&self, index: usize) -> PodId {
        assert!(index < self.num_pods(), "pod index out of range");
        PodId(index as u32)
    }

    /// Iterates over all pods in index order.
    pub fn pods(&self) -> impl Iterator<Item = PodId> + '_ {
        (0..self.num_pods).map(PodId)
    }

    /// The racks belonging to `pod`, in index order.
    pub fn racks_in_pod(&self, pod: PodId) -> impl Iterator<Item = RackId> + '_ {
        self.racks
            .iter()
            .enumerate()
            .filter(move |(_, info)| info.pod == pod)
            .map(|(i, _)| RackId(i as u32))
    }

    /// The servers belonging to `pod`, in index order.
    pub fn servers_in_pod(&self, pod: PodId) -> impl Iterator<Item = ServerId> + '_ {
        self.servers().filter(move |&s| self.pod_of(s) == pod)
    }

    /// How many failure domains of `kind` the topology has.
    pub fn num_domains(&self, kind: DomainKind) -> usize {
        match kind {
            DomainKind::Rack => self.num_racks(),
            DomainKind::Pod => self.num_pods(),
        }
    }

    /// The dense index of the `kind`-domain containing `server`.
    pub fn domain_of(&self, server: ServerId, kind: DomainKind) -> usize {
        match kind {
            DomainKind::Rack => self.rack_of(server).index(),
            DomainKind::Pod => self.pod_of(server).index(),
        }
    }

    /// The servers inside the `kind`-domain with dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for `kind`.
    pub fn domain_servers(&self, kind: DomainKind, index: usize) -> Vec<ServerId> {
        match kind {
            DomainKind::Rack => self.servers_in_rack(self.rack(index)).collect(),
            DomainKind::Pod => self.servers_in_pod(self.pod(index)).collect(),
        }
    }

    /// Number of servers inside the `kind`-domain with dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for `kind`.
    pub fn domain_size(&self, kind: DomainKind, index: usize) -> usize {
        match kind {
            DomainKind::Rack => self.rack_size(self.rack(index)),
            DomainKind::Pod => self.servers_in_pod(self.pod(index)).count(),
        }
    }

    /// True when `a` and `b` sit in different `kind`-domains — the
    /// disjointness predicate survivable placement uses when it reserves
    /// backup capacity away from the primary.
    pub fn domain_disjoint(&self, kind: DomainKind, a: ServerId, b: ServerId) -> bool {
        self.domain_of(a, kind) != self.domain_of(b, kind)
    }

    /// True when the tree-fabric path between `a` and `b` still exists
    /// after the `kind`-domain `failed` dies. On a tree there is exactly
    /// one path, so it survives iff neither endpoint (nor, for two
    /// servers of one rack inside a failed pod, their shared switch)
    /// lives inside the failed domain.
    pub fn path_survives(&self, a: ServerId, b: ServerId, kind: DomainKind, failed: usize) -> bool {
        self.domain_of(a, kind) != failed && self.domain_of(b, kind) != failed
    }
}

/// Builder for [`Topology`]. All knobs have paper-flavoured defaults
/// (1 pod × 1 rack would be degenerate, so the default is the 15-server
/// testbed shape only when [`TopologyBuilder::rack_sizes`] is used; the
/// regular path defaults to 1 pod, 4 racks, 4 servers).
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    pods: u32,
    racks_per_pod: u32,
    servers_per_rack: u32,
    rack_sizes: Option<Vec<u32>>,
    capacity: ServerCapacity,
    oversubscription: f64,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            pods: 1,
            racks_per_pod: 4,
            servers_per_rack: 4,
            rack_sizes: None,
            capacity: ServerCapacity::default(),
            oversubscription: 8.0,
        }
    }
}

impl TopologyBuilder {
    /// Sets the number of pods (aggregation domains).
    pub fn pods(&mut self, pods: u32) -> &mut Self {
        self.pods = pods;
        self
    }

    /// Sets the number of racks in each pod.
    pub fn racks_per_pod(&mut self, racks: u32) -> &mut Self {
        self.racks_per_pod = racks;
        self
    }

    /// Sets the number of servers in each rack.
    pub fn servers_per_rack(&mut self, servers: u32) -> &mut Self {
        self.servers_per_rack = servers;
        self
    }

    /// Uses explicit rack sizes (all in one pod), overriding the regular
    /// `pods × racks_per_pod × servers_per_rack` shape. This is how the
    /// paper's irregular 4/4/4/3 testbed is described.
    pub fn rack_sizes(&mut self, sizes: &[u32]) -> &mut Self {
        self.rack_sizes = Some(sizes.to_vec());
        self
    }

    /// Sets the uniform per-server capacity.
    pub fn server_capacity(&mut self, capacity: ServerCapacity) -> &mut Self {
        self.capacity = capacity;
        self
    }

    /// Sets the ToR up-link oversubscription ratio.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not strictly positive.
    pub fn oversubscription(&mut self, ratio: f64) -> &mut Self {
        assert!(ratio > 0.0, "oversubscription ratio must be positive");
        self.oversubscription = ratio;
        self
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration describes zero servers.
    pub fn build(&self) -> Topology {
        let mut racks = Vec::new();
        let mut server_site = Vec::new();
        let mut next_server = 0u32;
        let num_pods;
        match &self.rack_sizes {
            Some(sizes) => {
                num_pods = 1;
                for &size in sizes {
                    let rack_id = RackId(racks.len() as u32);
                    racks.push(RackInfo {
                        pod: PodId(0),
                        first_server: next_server,
                        num_servers: size,
                    });
                    for _ in 0..size {
                        server_site.push((rack_id, PodId(0)));
                        next_server += 1;
                    }
                }
            }
            None => {
                num_pods = self.pods;
                for pod in 0..self.pods {
                    for _ in 0..self.racks_per_pod {
                        let rack_id = RackId(racks.len() as u32);
                        racks.push(RackInfo {
                            pod: PodId(pod),
                            first_server: next_server,
                            num_servers: self.servers_per_rack,
                        });
                        for _ in 0..self.servers_per_rack {
                            server_site.push((rack_id, PodId(pod)));
                            next_server += 1;
                        }
                    }
                }
            }
        }
        assert!(
            !server_site.is_empty(),
            "topology must contain at least one server"
        );
        Topology {
            racks,
            server_site,
            num_pods,
            capacity: self.capacity,
            oversubscription: self.oversubscription,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_topology_shape() {
        let t = Topology::builder()
            .pods(2)
            .racks_per_pod(3)
            .servers_per_rack(5)
            .build();
        assert_eq!(t.num_servers(), 30);
        assert_eq!(t.num_racks(), 6);
        assert_eq!(t.num_pods(), 2);
        assert_eq!(t.rack_of(t.server(0)), RackId(0));
        assert_eq!(t.rack_of(t.server(5)), RackId(1));
        assert_eq!(t.pod_of(t.server(14)), PodId(0));
        assert_eq!(t.pod_of(t.server(15)), PodId(1));
        assert_eq!(t.slot_of(t.server(7)), 2);
        let rack1: Vec<_> = t.servers_in_rack(RackId(1)).collect();
        assert_eq!(rack1.len(), 5);
        assert_eq!(rack1[0].index(), 5);
    }

    #[test]
    fn paper_testbed_is_irregular() {
        let t = Topology::paper_testbed();
        assert_eq!(t.num_servers(), 15);
        assert_eq!(t.num_racks(), 4);
        assert_eq!(t.rack_size(RackId(3)), 3);
        assert_eq!(t.oversubscription(), 8.0);
        // 4-server rack: 4 × 1000 Mbps / 8 = 500 Mbps uplink.
        assert_eq!(
            t.tor_uplink_capacity(RackId(0)),
            Bandwidth::from_mbps(500.0)
        );
        assert_eq!(
            t.tor_uplink_capacity(RackId(3)),
            Bandwidth::from_mbps(375.0)
        );
    }

    #[test]
    fn fat_tree_shape() {
        let t = Topology::fat_tree(8);
        assert_eq!(t.num_servers(), 8 * 8 * 8 / 4);
        assert_eq!(t.num_pods(), 8);
        assert_eq!(t.num_racks(), 32);
        assert_eq!(t.rack_size(RackId(0)), 4);
        assert_eq!(t.oversubscription(), 1.0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_odd_arity_rejected() {
        let _ = Topology::fat_tree(3);
    }

    #[test]
    fn simulation_3000_shape() {
        let t = Topology::simulation_3000();
        assert_eq!(t.num_servers(), 3000);
        assert_eq!(t.num_racks(), 75);
        assert_eq!(t.num_pods(), 5);
    }

    #[test]
    fn proximity_levels() {
        let t = Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build();
        let s = |i| t.server(i);
        assert_eq!(t.proximity(s(0), s(0)), ProximityLevel::SameServer);
        assert_eq!(t.proximity(s(0), s(1)), ProximityLevel::SameRack);
        assert_eq!(t.proximity(s(0), s(2)), ProximityLevel::SamePod);
        assert_eq!(t.proximity(s(0), s(4)), ProximityLevel::CrossPod);
        assert_eq!(t.distance(s(0), s(4)), 3);
        assert_eq!(t.distance(s(0), s(1)), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn server_bounds_checked() {
        let t = Topology::paper_testbed();
        let _ = t.server(15);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_topology_rejected() {
        let _ = Topology::builder().pods(0).build();
    }

    #[test]
    fn display_ids() {
        let t = Topology::paper_testbed();
        assert_eq!(format!("{}", t.server(3)), "pm3");
    }

    #[test]
    fn domain_view_enumeration() {
        let t = Topology::builder()
            .pods(2)
            .racks_per_pod(3)
            .servers_per_rack(5)
            .build();
        assert_eq!(t.num_domains(DomainKind::Rack), 6);
        assert_eq!(t.num_domains(DomainKind::Pod), 2);
        assert_eq!(t.pods().count(), 2);
        let pod1_racks: Vec<_> = t.racks_in_pod(t.pod(1)).map(|r| r.index()).collect();
        assert_eq!(pod1_racks, vec![3, 4, 5]);
        let pod1_servers: Vec<_> = t.servers_in_pod(t.pod(1)).map(|s| s.index()).collect();
        assert_eq!(pod1_servers, (15..30).collect::<Vec<_>>());
        assert_eq!(t.domain_of(t.server(7), DomainKind::Rack), 1);
        assert_eq!(t.domain_of(t.server(7), DomainKind::Pod), 0);
        assert_eq!(t.domain_size(DomainKind::Rack, 2), 5);
        assert_eq!(t.domain_size(DomainKind::Pod, 0), 15);
        assert_eq!(
            t.domain_servers(DomainKind::Rack, 1)
                .iter()
                .map(|s| s.index())
                .collect::<Vec<_>>(),
            vec![5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn domain_disjointness_and_path_survival() {
        let t = Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build();
        let s = |i| t.server(i);
        assert!(!t.domain_disjoint(DomainKind::Rack, s(0), s(1)));
        assert!(t.domain_disjoint(DomainKind::Rack, s(0), s(2)));
        assert!(!t.domain_disjoint(DomainKind::Pod, s(0), s(2)));
        assert!(t.domain_disjoint(DomainKind::Pod, s(0), s(4)));
        // Rack 0 dies: paths touching servers 0–1 are gone, others live.
        assert!(!t.path_survives(s(0), s(2), DomainKind::Rack, 0));
        assert!(t.path_survives(s(2), s(4), DomainKind::Rack, 0));
        // Pod 1 dies: cross-pod path from 0 to 4 is gone.
        assert!(!t.path_survives(s(0), s(4), DomainKind::Pod, 1));
        assert!(t.path_survives(s(0), s(2), DomainKind::Pod, 1));
    }

    #[test]
    #[should_panic(expected = "rack index out of range")]
    fn rack_bounds_checked() {
        let t = Topology::paper_testbed();
        let _ = t.rack(4);
    }

    #[test]
    #[should_panic(expected = "pod index out of range")]
    fn pod_bounds_checked() {
        let t = Topology::paper_testbed();
        let _ = t.pod(1);
    }

    #[test]
    fn domain_kind_display() {
        assert_eq!(DomainKind::Rack.to_string(), "rack");
        assert_eq!(DomainKind::Pod.to_string(), "pod");
    }

    #[test]
    fn single_rack_topology_has_no_disjoint_pair() {
        // One rack, one pod: every pair shares both domains, so no backup
        // site can ever be domain-disjoint and a rack crash severs every
        // path. Survivable placement must detect this shape (num_domains
        // < 2) and exempt the caps rather than loop forever.
        let t = Topology::builder()
            .pods(1)
            .racks_per_pod(1)
            .servers_per_rack(4)
            .build();
        assert_eq!(t.num_domains(DomainKind::Rack), 1);
        assert_eq!(t.num_domains(DomainKind::Pod), 1);
        for a in t.servers() {
            for b in t.servers() {
                assert!(!t.domain_disjoint(DomainKind::Rack, a, b));
                assert!(!t.domain_disjoint(DomainKind::Pod, a, b));
                assert!(!t.path_survives(a, b, DomainKind::Rack, 0));
                assert!(!t.path_survives(a, b, DomainKind::Pod, 0));
            }
        }
        // A self-path is still "a path": it survives any *other* domain's
        // death (no other domain exists here, but the predicate must not
        // claim survival of the only one).
        let s0 = t.server(0);
        assert!(!t.path_survives(s0, s0, DomainKind::Rack, 0));
    }

    #[test]
    fn single_pod_multi_rack_falls_back_to_rack_disjointness() {
        // Fewer than 2 pods: pod-disjoint placement is impossible
        // (Survivable exemption), but rack-disjoint pairs still exist and
        // rack-level path survival still discriminates.
        let t = Topology::builder()
            .pods(1)
            .racks_per_pod(3)
            .servers_per_rack(2)
            .build();
        assert_eq!(t.num_domains(DomainKind::Pod), 1);
        let (a, b) = (t.server(0), t.server(2));
        assert!(!t.domain_disjoint(DomainKind::Pod, a, b));
        assert!(t.domain_disjoint(DomainKind::Rack, a, b));
        assert!(t.path_survives(a, b, DomainKind::Rack, 2));
        assert!(!t.path_survives(a, b, DomainKind::Rack, 0));
        // The sole pod dying takes everything with it.
        assert!(!t.path_survives(a, b, DomainKind::Pod, 0));
    }

    #[test]
    fn pod_crash_takes_backup_server_with_it() {
        // The failover blind spot: a backup site that is rack-disjoint
        // from its primary but shares the primary's pod is not protected
        // against a pod crash — both copies die. The predicates must
        // report that honestly so placement pays for cross-pod sites.
        let t = Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build();
        let primary = t.server(0); // pod 0, rack 0
        let same_pod_backup = t.server(2); // pod 0, rack 1
        let cross_pod_backup = t.server(4); // pod 1, rack 2
        assert!(t.domain_disjoint(DomainKind::Rack, primary, same_pod_backup));
        assert!(!t.domain_disjoint(DomainKind::Pod, primary, same_pod_backup));
        let dead_pod = t.pod_of(primary).index();
        // Pod 0 dies: the same-pod backup dies with the primary — no
        // surviving path reaches it from anywhere, not even from a live
        // pod-1 server.
        for alive in t.servers_in_pod(t.pod(1)) {
            assert!(!t.path_survives(alive, same_pod_backup, DomainKind::Pod, dead_pod));
        }
        // The cross-pod backup remains reachable from every pod-1 server.
        for alive in t.servers_in_pod(t.pod(1)) {
            assert!(t.path_survives(alive, cross_pod_backup, DomainKind::Pod, dead_pod));
        }
        assert!(t.domain_disjoint(DomainKind::Pod, primary, cross_pod_backup));
    }
}

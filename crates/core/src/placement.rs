//! Offline placement engines.
//!
//! The protocol path (boot queries walking the overlay, §II.B) lives in
//! [`Controller`](crate::Controller); this module provides *offline*
//! engines that compute the same placements directly:
//!
//! - [`ClusterModel::place_vbundle`] mirrors the protocol's walk order
//!   (spread outward from the customer key's root server) without paying
//!   for messages — used to seed the 75 000-VM scenarios of Figures 9–11;
//! - [`ClusterModel::place_greedy`] is the paper's baseline (Fig. 8b):
//!   first-fit on the first server with enough resources;
//! - [`ClusterModel::place_random`] places uniformly at random, the
//!   "simple method" §I attributes to today's IaaS providers.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use vbundle_dcn::{ServerId, Topology};
use vbundle_pastry::{Key, NodeId};

use crate::{ResourceVector, VmRecord};

/// Which offline policy to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementPolicy {
    /// v-Bundle's topology-aware, key-rooted spread.
    VBundle,
    /// First-fit scan in server index order (the paper's greedy baseline).
    Greedy,
    /// Uniformly random among servers with room.
    Random,
    /// v-Bundle's walk order with survivability constraints: no rack or
    /// pod may hold more than `max_frac_per_domain` of a customer's VMs,
    /// and each placement reserves `backup` × its reservation on a server
    /// in a *different* failure domain (tracked in the model's
    /// `backup_reserved` column, which admission control respects).
    Survivable {
        /// Maximum fraction of one customer's VMs per rack (and per pod,
        /// when the topology has more than one of either).
        max_frac_per_domain: f64,
        /// Fraction of each VM's reservation reserved as backup capacity
        /// in a disjoint domain. `0.0` disables backup reservations.
        backup: f64,
    },
}

/// The per-domain VM cap survivable placement enforces: at most
/// `ceil(max_frac_per_domain × total)` of a customer's `total` VMs in any
/// one failure domain, never below 1 (the first VM must land somewhere).
///
/// Shared by the offline [`ClusterModel`] and the controllers' online
/// admission path so both sides of the reproduction agree on the rule.
pub fn survivable_domain_cap(max_frac_per_domain: f64, total: u32) -> u32 {
    ((max_frac_per_domain * total as f64).ceil() as u32).max(1)
}

/// An offline model of the cluster's placement state: per-server
/// reservations and hosted VMs, with the same admission rule as the
/// controllers.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    topo: Arc<Topology>,
    ids: Vec<NodeId>,
    capacity: ResourceVector,
    reserved: Vec<ResourceVector>,
    /// Backup capacity carved out per server by survivable placement;
    /// admission control counts it alongside primary reservations.
    backup_reserved: Vec<ResourceVector>,
    vms: Vec<Vec<VmRecord>>,
    /// Per-customer-key walk order and fill cursor.
    walks: BTreeMap<u128, Walk>,
    /// Per-customer failure-domain occupancy, for the survivable caps.
    surv: BTreeMap<u32, SurvState>,
    /// Per-VM backup charges, in placement order.
    backup_charges: Vec<BackupCharge>,
    backups_unplaced: u64,
    greedy_cursor: usize,
    /// Componentwise-smallest reservation ever placed greedily; the
    /// greedy cursor may only skip servers that cannot fit even this.
    min_greedy_vm: Option<ResourceVector>,
}

/// One backup reservation recorded by survivable placement: which VM it
/// protects, the server hosting the primary copy, the disjoint-domain
/// site the headroom was carved on, and the carved amount. The cluster
/// harness replays these as failover protections when the failover
/// subsystem is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackupCharge {
    /// The protected VM.
    pub vm: VmRecord,
    /// The server hosting the primary copy.
    pub primary: ServerId,
    /// The server holding the reserved backup headroom.
    pub site: ServerId,
    /// The reserved amount (`backup` × the VM's reservation).
    pub amount: ResourceVector,
}

#[derive(Debug, Clone)]
struct Walk {
    order: Vec<usize>,
    cursor: usize,
}

#[derive(Debug, Clone)]
struct SurvState {
    total: u32,
    per_rack: Vec<u32>,
    per_pod: Vec<u32>,
}

impl ClusterModel {
    /// Creates an empty model.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len()` does not match the topology's server count.
    pub fn new(topo: Arc<Topology>, ids: Vec<NodeId>, capacity: ResourceVector) -> Self {
        assert_eq!(ids.len(), topo.num_servers(), "one id per server");
        let n = topo.num_servers();
        ClusterModel {
            topo,
            ids,
            capacity,
            reserved: vec![ResourceVector::ZERO; n],
            backup_reserved: vec![ResourceVector::ZERO; n],
            vms: vec![Vec::new(); n],
            walks: BTreeMap::new(),
            surv: BTreeMap::new(),
            backup_charges: Vec::new(),
            backups_unplaced: 0,
            greedy_cursor: 0,
            min_greedy_vm: None,
        }
    }

    /// The topology this model places into.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The VMs hosted on `server`.
    pub fn server_vms(&self, server: ServerId) -> &[VmRecord] {
        &self.vms[server.index()]
    }

    /// All placements as `(vm, server)` pairs.
    pub fn placements(&self) -> Vec<(VmRecord, ServerId)> {
        let mut out = Vec::new();
        for (i, vms) in self.vms.iter().enumerate() {
            for vm in vms {
                out.push((*vm, self.topo.server(i)));
            }
        }
        out
    }

    /// Total VMs placed.
    pub fn num_vms(&self) -> usize {
        self.vms.iter().map(|v| v.len()).sum()
    }

    /// Backup capacity reserved on `server` by survivable placement.
    pub fn backup_reserved(&self, server: ServerId) -> ResourceVector {
        self.backup_reserved[server.index()]
    }

    /// Total backup capacity reserved across the cluster — the overhead
    /// survivable placement pays for its recovery guarantee.
    pub fn total_backup_reserved(&self) -> ResourceVector {
        self.backup_reserved.iter().copied().sum()
    }

    /// Backup reservations that found no disjoint-domain server with room.
    pub fn backups_unplaced(&self) -> u64 {
        self.backups_unplaced
    }

    /// Every backup charge survivable placement recorded, in placement
    /// order — the offline counterpart of the controllers' failover
    /// protection ledger.
    pub fn backup_charges(&self) -> &[BackupCharge] {
        &self.backup_charges
    }

    fn fits_amount(&self, server: usize, amount: &ResourceVector) -> bool {
        (self.reserved[server] + self.backup_reserved[server] + *amount).fits_within(&self.capacity)
    }

    fn fits(&self, server: usize, vm: &VmRecord) -> bool {
        self.fits_amount(server, &vm.spec.reservation)
    }

    fn install(&mut self, server: usize, vm: VmRecord) -> ServerId {
        self.reserved[server] += vm.spec.reservation;
        self.vms[server].push(vm);
        self.topo.server(server)
    }

    /// The server whose node id is numerically closest to `key` — where a
    /// routed boot query lands first.
    pub fn root_server(&self, key: Key) -> ServerId {
        let mut best = 0usize;
        for i in 1..self.ids.len() {
            if self.ids[i].ring_distance(key) < self.ids[best].ring_distance(key) {
                best = i;
            }
        }
        self.topo.server(best)
    }

    /// Computes (once) the walk order for `key`: outward from the key's
    /// root, same rack first, then the same pod, then numerically
    /// adjacent arcs.
    fn ensure_walk(&mut self, key: Key) {
        if !self.walks.contains_key(&key.as_u128()) {
            let root = self.root_server(key);
            let root_id = self.ids[root.index()];
            let mut order: Vec<usize> = (0..self.topo.num_servers()).collect();
            let topo = Arc::clone(&self.topo);
            let ids = self.ids.clone();
            order.sort_by_key(|&s| {
                (
                    topo.distance(topo.server(s), root),
                    ids[s].ring_distance(root_id),
                )
            });
            self.walks.insert(key.as_u128(), Walk { order, cursor: 0 });
        }
    }

    /// Places `vm` with the v-Bundle policy for customer key `key`:
    /// outward from the key's root, same rack first, then the same pod,
    /// then numerically adjacent arcs.
    pub fn place_vbundle(&mut self, key: Key, vm: VmRecord) -> Option<ServerId> {
        self.ensure_walk(key);
        // The walk is consulted in place: the scan holds only shared
        // borrows (`walk` and `self.fits`), so no per-placement clone of
        // the order is needed.
        let walk = self.walks.get(&key.as_u128()).expect("just inserted");
        let hit = walk
            .order
            .iter()
            .enumerate()
            .skip(walk.cursor)
            .find(|&(_, &server)| self.fits(server, &vm))
            .map(|(pos, &server)| (pos, server));
        let (pos, server) = hit?;
        // Servers before `pos` rejected this VM; with the uniform VM
        // sizes of the paper's workloads they are exhausted, so later
        // queries can skip straight to `pos`.
        self.walks.get_mut(&key.as_u128()).expect("present").cursor = pos;
        Some(self.install(server, vm))
    }

    /// Places `vm` with the survivable policy for customer key `key`:
    /// the same outward walk as [`ClusterModel::place_vbundle`], but no
    /// rack or pod may hold more than `ceil(max_frac_per_domain × total)`
    /// of the customer's VMs (see [`survivable_domain_cap`]), and each
    /// placement reserves `backup` × the VM's reservation on the nearest
    /// walk server in a different pod (different rack on single-pod
    /// topologies). The scan always starts at the walk head — a server
    /// skipped for a domain cap is not exhausted, so no cursor applies.
    pub fn place_survivable(
        &mut self,
        key: Key,
        vm: VmRecord,
        max_frac_per_domain: f64,
        backup: f64,
    ) -> Option<ServerId> {
        self.ensure_walk(key);
        let customer = vm.customer.0;
        let (num_racks, num_pods) = (self.topo.num_racks(), self.topo.num_pods());
        self.surv.entry(customer).or_insert_with(|| SurvState {
            total: 0,
            per_rack: vec![0; num_racks],
            per_pod: vec![0; num_pods],
        });
        let walk = self.walks.get(&key.as_u128()).expect("just inserted");
        let st = self.surv.get(&customer).expect("just inserted");
        let cap = survivable_domain_cap(max_frac_per_domain, st.total + 1);
        let server = walk.order.iter().copied().find(|&s| {
            let sid = self.topo.server(s);
            let rack_ok = num_racks < 2 || st.per_rack[self.topo.rack_of(sid).index()] < cap;
            let pod_ok = num_pods < 2 || st.per_pod[self.topo.pod_of(sid).index()] < cap;
            rack_ok && pod_ok && self.fits(s, &vm)
        })?;
        let reservation = vm.spec.reservation;
        let placed = self.install(server, vm);
        let (rack, pod) = (
            self.topo.rack_of(placed).index(),
            self.topo.pod_of(placed).index(),
        );
        let st = self.surv.get_mut(&customer).expect("present");
        st.total += 1;
        st.per_rack[rack] += 1;
        st.per_pod[pod] += 1;
        if backup > 0.0 {
            let amount = reservation.scale(backup);
            let walk = self.walks.get(&key.as_u128()).expect("present");
            let site = walk.order.iter().copied().find(|&b| {
                let bs = self.topo.server(b);
                let disjoint = if num_pods > 1 {
                    self.topo.pod_of(bs) != self.topo.pod_of(placed)
                } else {
                    self.topo.rack_of(bs) != self.topo.rack_of(placed)
                };
                disjoint && self.fits_amount(b, &amount)
            });
            match site {
                Some(b) => {
                    self.backup_reserved[b] += amount;
                    self.backup_charges.push(BackupCharge {
                        vm,
                        primary: placed,
                        site: self.topo.server(b),
                        amount,
                    });
                }
                None => self.backups_unplaced += 1,
            }
        }
        Some(placed)
    }

    /// Places `vm` first-fit in server index order (greedy baseline).
    pub fn place_greedy(&mut self, vm: VmRecord) -> Option<ServerId> {
        // The cursor skips the stable all-full prefix. It only advances
        // past servers whose remaining capacity cannot fit even the
        // componentwise-smallest reservation seen so far — truly
        // exhausted for every VM in the workload — so first-fit stays
        // exact for heterogeneous sizes. When a smaller VM arrives the
        // minimum shrinks and the cursor rewinds: gaps the old minimum
        // could not use may fit it.
        let res = vm.spec.reservation;
        let min = match self.min_greedy_vm {
            Some(prev) => {
                let shrunk = ResourceVector {
                    cpu: prev.cpu.min(res.cpu),
                    memory_mb: prev.memory_mb.min(res.memory_mb),
                    bandwidth: prev.bandwidth.min(res.bandwidth),
                };
                if shrunk != prev {
                    self.greedy_cursor = 0;
                }
                shrunk
            }
            None => res,
        };
        self.min_greedy_vm = Some(min);
        for server in self.greedy_cursor..self.topo.num_servers() {
            if self.fits(server, &vm) {
                return Some(self.install(server, vm));
            }
            if server == self.greedy_cursor && !self.fits_amount(server, &min) {
                self.greedy_cursor += 1;
            }
        }
        None
    }

    /// Places `vm` on a uniformly random server with room.
    pub fn place_random(&mut self, vm: VmRecord, rng: &mut StdRng) -> Option<ServerId> {
        let n = self.topo.num_servers();
        for _ in 0..4 * n {
            let server = rng.gen_range(0..n);
            if self.fits(server, &vm) {
                return Some(self.install(server, vm));
            }
        }
        // Dense cluster: fall back to a scan from a random offset.
        let offset = rng.gen_range(0..n);
        for i in 0..n {
            let server = (offset + i) % n;
            if self.fits(server, &vm) {
                return Some(self.install(server, vm));
            }
        }
        None
    }

    /// Dispatches on `policy`.
    pub fn place(
        &mut self,
        policy: PlacementPolicy,
        key: Key,
        vm: VmRecord,
        rng: &mut StdRng,
    ) -> Option<ServerId> {
        match policy {
            PlacementPolicy::VBundle => self.place_vbundle(key, vm),
            PlacementPolicy::Greedy => self.place_greedy(vm),
            PlacementPolicy::Random => self.place_random(vm, rng),
            PlacementPolicy::Survivable {
                max_frac_per_domain,
                backup,
            } => self.place_survivable(key, vm, max_frac_per_domain, backup),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CustomerId, ResourceSpec, VmId};
    use rand::SeedableRng;
    use vbundle_dcn::Bandwidth;
    use vbundle_pastry::overlay::topology_aware_ids;

    fn model() -> ClusterModel {
        let topo = Arc::new(
            Topology::builder()
                .pods(2)
                .racks_per_pod(2)
                .servers_per_rack(4)
                .build(),
        );
        let ids = topology_aware_ids(&topo);
        let capacity = ResourceVector::bandwidth_only(Bandwidth::from_mbps(400.0));
        ClusterModel::new(topo, ids, capacity)
    }

    fn vm(id: u64, customer: u32, bw: f64) -> VmRecord {
        VmRecord::new(
            VmId(id),
            CustomerId(customer),
            ResourceSpec::bandwidth(Bandwidth::from_mbps(bw), Bandwidth::from_mbps(bw)),
        )
    }

    #[test]
    fn vbundle_fills_root_rack_first() {
        let mut m = model();
        let key = Key::from_name("tenant-a");
        let root = m.root_server(key);
        let root_rack = m.topology().rack_of(root);
        // 16 VMs of 100 Mbps: 4 per server, 16 fill exactly one rack.
        let mut racks = Vec::new();
        for i in 0..16 {
            let s = m.place_vbundle(key, vm(i, 0, 100.0)).expect("placed");
            racks.push(m.topology().rack_of(s));
        }
        assert!(
            racks.iter().all(|&r| r == root_rack),
            "first 16 VMs must fill the root rack, got {racks:?}"
        );
        // The next VM spills to another rack in the same pod.
        let s = m.place_vbundle(key, vm(16, 0, 100.0)).expect("placed");
        assert_ne!(m.topology().rack_of(s), root_rack);
        assert_eq!(m.topology().pod_of(s), m.topology().pod_of(root));
    }

    #[test]
    fn greedy_fills_in_index_order() {
        let mut m = model();
        let mut servers = Vec::new();
        for i in 0..8 {
            let s = m.place_greedy(vm(i, 0, 400.0)).expect("placed");
            servers.push(s.index());
        }
        assert_eq!(servers, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn admission_control_rejects_when_full() {
        let mut m = model();
        // 16 servers × 400 Mbps = 6400; VMs of 400 fill all.
        for i in 0..16 {
            assert!(m.place_greedy(vm(i, 0, 400.0)).is_some());
        }
        assert!(m.place_greedy(vm(99, 0, 400.0)).is_none());
        let key = Key::from_name("x");
        assert!(m.place_vbundle(key, vm(100, 0, 1.0)).is_none());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(m.place_random(vm(101, 0, 1.0), &mut rng).is_none());
        assert_eq!(m.num_vms(), 16);
    }

    #[test]
    fn random_spreads_load() {
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(7);
        let mut used = std::collections::BTreeSet::new();
        for i in 0..16 {
            let s = m.place_random(vm(i, 0, 100.0), &mut rng).expect("placed");
            used.insert(s.index());
        }
        assert!(used.len() >= 8, "random placement should scatter");
    }

    #[test]
    fn two_customers_separate_roots() {
        let mut m = model();
        let ka = Key::from_name("Accolade");
        let kb = Key::from_name("Beenox");
        let ra = m.root_server(ka);
        let rb = m.root_server(kb);
        let sa = m.place_vbundle(ka, vm(0, 0, 100.0)).unwrap();
        let sb = m.place_vbundle(kb, vm(1, 1, 100.0)).unwrap();
        assert_eq!(sa, ra);
        assert_eq!(sb, rb);
    }

    #[test]
    fn greedy_stays_first_fit_for_heterogeneous_sizes() {
        let mut m = model();
        // 100 on server 0 leaves 300 free there.
        assert_eq!(m.place_greedy(vm(0, 0, 100.0)).unwrap().index(), 0);
        // A 400 cannot fit server 0 — but server 0 is not exhausted, so
        // the cursor must not skip it.
        assert_eq!(m.place_greedy(vm(1, 0, 400.0)).unwrap().index(), 1);
        // First-fit: the 200 must land in server 0's 300-wide gap.
        assert_eq!(m.place_greedy(vm(2, 0, 200.0)).unwrap().index(), 0);
    }

    #[test]
    fn greedy_cursor_still_skips_exhausted_prefix() {
        let mut m = model();
        assert_eq!(m.place_greedy(vm(0, 0, 400.0)).unwrap().index(), 0);
        assert_eq!(m.place_greedy(vm(1, 0, 400.0)).unwrap().index(), 1);
        // Server 0 is full (below the 400 minimum), so the second scan
        // advanced the cursor past it.
        assert_eq!(m.greedy_cursor, 1);
        assert_eq!(m.place_greedy(vm(2, 0, 400.0)).unwrap().index(), 2);
        assert_eq!(m.greedy_cursor, 2);
        // A smaller VM rewinds the cursor and re-checks the prefix; it is
        // genuinely full here, so placement continues at server 3.
        assert_eq!(m.place_greedy(vm(3, 0, 100.0)).unwrap().index(), 3);
        assert_eq!(
            m.greedy_cursor, 3,
            "rewound cursor re-advanced past full prefix"
        );
    }

    #[test]
    fn survivable_caps_domain_fraction() {
        let mut m = model(); // 2 pods × 2 racks × 4 servers, 400 Mbps each
        let key = Key::from_name("tenant-s");
        let mut per_rack = BTreeMap::new();
        let mut per_pod = BTreeMap::new();
        for i in 0..8 {
            let s = m
                .place_survivable(key, vm(i, 0, 100.0), 0.5, 0.0)
                .expect("placed");
            *per_rack.entry(m.topology().rack_of(s)).or_insert(0u32) += 1;
            *per_pod.entry(m.topology().pod_of(s)).or_insert(0u32) += 1;
        }
        // ceil(0.5 × 8) = 4: no rack and no pod may exceed 4 of the 8 VMs.
        assert!(per_rack.values().all(|&n| n <= 4), "{per_rack:?}");
        assert!(per_pod.values().all(|&n| n <= 4), "{per_pod:?}");
        assert!(per_rack.len() >= 2, "VMs must spread across racks");
        assert!(per_pod.len() >= 2, "VMs must spread across pods");
    }

    #[test]
    fn survivable_reserves_backup_in_disjoint_pod() {
        let mut m = model();
        let key = Key::from_name("tenant-b");
        let s = m
            .place_survivable(key, vm(0, 0, 100.0), 0.5, 0.25)
            .expect("placed");
        let pod = m.topology().pod_of(s);
        let total = m.total_backup_reserved();
        assert!((total.bandwidth.as_mbps() - 25.0).abs() < 1e-9, "{total}");
        assert_eq!(m.backups_unplaced(), 0);
        for srv in m.topology().servers() {
            if !m.backup_reserved(srv).bandwidth.is_zero() {
                assert_ne!(m.topology().pod_of(srv), pod, "backup must be cross-pod");
            }
        }
    }

    #[test]
    fn backup_reservations_block_admission() {
        let mut m = model();
        let key = Key::from_name("tenant-c");
        // Big backups: 1 VM of 400 Mbps with backup 1.0 reserves a full
        // server's worth in the other pod.
        m.place_survivable(key, vm(0, 0, 400.0), 1.0, 1.0).unwrap();
        let backup_srv = m
            .topology()
            .servers()
            .find(|&s| !m.backup_reserved(s).bandwidth.is_zero())
            .expect("backup placed");
        // The backup server is fully committed: nothing else fits there.
        assert!(!m.fits(backup_srv.index(), &vm(1, 1, 1.0)));
        // 16 servers − 1 hosting − 1 backup = 14 left for 400s.
        let mut placed = 0;
        while m.place_greedy(vm(100 + placed, 1, 400.0)).is_some() {
            placed += 1;
        }
        assert_eq!(placed, 14);
    }

    #[test]
    fn survivable_domain_cap_floors_at_one() {
        assert_eq!(survivable_domain_cap(0.5, 1), 1);
        assert_eq!(survivable_domain_cap(0.5, 2), 1);
        assert_eq!(survivable_domain_cap(0.5, 7), 4);
        assert_eq!(survivable_domain_cap(0.5, 8), 4);
        assert_eq!(survivable_domain_cap(0.25, 8), 2);
        assert_eq!(survivable_domain_cap(0.0, 100), 1);
    }

    #[test]
    fn placements_accessor() {
        let mut m = model();
        m.place_greedy(vm(0, 0, 100.0)).unwrap();
        m.place_greedy(vm(1, 1, 100.0)).unwrap();
        let all = m.placements();
        assert_eq!(all.len(), 2);
        assert_eq!(m.server_vms(m.topology().server(0)).len(), 2);
    }
}

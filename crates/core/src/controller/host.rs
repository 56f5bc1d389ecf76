//! The server a controller runs on: what every protocol module may read
//! and change, and nothing that belongs to only one of them.

use std::rc::Rc;

use vbundle_aggregation::{AggregationConfig, Aggregator};
use vbundle_dcn::Bandwidth;
use vbundle_obs::{FlightRecorder, Kind, Subsystem};
use vbundle_sim::{ActorId, FlatMap, SimTime};
use vbundle_trade::{LeaseRole, ResourceSpec, TradeBook};

use super::{capacity_topic, demand_topic, TRADE_RETRY_TAG_BASE};
use crate::{ResourceKind, ResourceVector, VBundleConfig, VmId, VmRecord};

/// Host state, handed to each protocol module by `&mut` next to the
/// module's own tables.
///
/// The admission ledger lives here rather than with the protocols that
/// write it, because every admission path reads it on every server
/// whether or not those protocols are configured: the lease book (written
/// by trading), the shuffle's holds and the backup carve (written by
/// survivable admission, failover and offline seeding).
#[derive(Debug)]
pub(super) struct Host {
    pub capacity: ResourceVector,
    /// Immutable and the same on every server, shared through one `Rc`
    /// per cluster.
    pub config: Rc<VBundleConfig>,
    pub vms: Vec<VmRecord>,
    /// The embedded aggregation component (cluster means).
    pub agg: Aggregator,
    /// This server's halves of committed entitlement leases.
    pub book: TradeBook,
    /// Reservations the shuffle set aside for VMs it accepted that have
    /// not arrived yet.
    pub holds: Vec<Hold>,
    /// Capacity carved out for displaced VMs of survivable customers.
    /// Counted by admission control and subtracted from the shaper's
    /// borrow pool.
    pub backup_reserved: ResourceVector,
    /// The last simulation instant this controller processed an event at.
    /// Ledger queries from outside a Scribe upcall (harness metrics,
    /// admission checks) use it to time-filter live leases.
    pub clock: SimTime,
    /// Flight-recorder handle for migration/lease/mean-gate events
    /// (disabled until `Controller::attach_obs`).
    pub flight: FlightRecorder,
    /// This server's actor index, for tagging flight events.
    pub node: u32,
    /// Operations minted so far (see [`Host::next_op`]).
    ops: u32,
    /// Set by whatever changes what this server's VMs could lend — a
    /// lease half recorded, reverted or expired, a VM installed, removed
    /// or given a new demand, a shed offered or settled — and cleared when
    /// trading recomputes its anycast summaries from scratch. Never read
    /// with trading off.
    pub lendable_moved: bool,
}

impl Host {
    pub fn new(
        capacity: ResourceVector,
        agg: impl Into<Rc<AggregationConfig>>,
        config: impl Into<Rc<VBundleConfig>>,
    ) -> Self {
        Host {
            capacity,
            config: config.into(),
            vms: Vec::new(),
            agg: Aggregator::new(agg),
            book: TradeBook::new(),
            holds: Vec::new(),
            backup_reserved: ResourceVector::ZERO,
            clock: SimTime::ZERO,
            flight: FlightRecorder::disabled(),
            node: 0,
            ops: 0,
            lendable_moved: true,
        }
    }

    /// Mints the op id of a boot, load query or lease this server starts:
    /// `(me's actor index << 32) | seq`, unique in the cluster and below
    /// both retry-tag spaces for any cluster under 2^28 servers.
    pub fn next_op(&mut self, me: ActorId) -> u64 {
        let op = ((me.index() as u64) << 32) | u64::from(self.ops);
        self.ops += 1;
        debug_assert!(op < TRADE_RETRY_TAG_BASE);
        op
    }

    /// Starts hosting `vm`. Admission is the caller's business.
    pub fn install(&mut self, vm: VmRecord) {
        self.vms.push(vm);
        self.lendable_moved = true;
    }

    /// Stops hosting the VM at index `pos` of `vms`.
    pub fn evict(&mut self, pos: usize) -> VmRecord {
        self.lendable_moved = true;
        self.vms.remove(pos)
    }

    /// `vm`'s effective rate/ceil contract right now: the static spec
    /// shifted by its live leases (exactly `vm.spec` on an empty book).
    pub fn entitled_spec(&self, vm: &VmRecord) -> ResourceSpec {
        if self.book.is_empty() {
            vm.spec
        } else {
            self.book.live_spec(vm.id, vm.spec, self.clock)
        }
    }

    /// What this server has promised, and what every admission path checks
    /// against: hosted VMs at their static reservation, plus the inflow of
    /// every borrower half live at `clock` whose borrower is hosted, plus
    /// the holds, plus the backup carve. A lender's lent-out reservation
    /// stays counted — it comes back at the lease's expiry — so lending
    /// frees no headroom here, and the live entitlement never exceeds this.
    pub fn reserved(&self) -> ResourceVector {
        let hosted: ResourceVector = self.vms.iter().map(|vm| vm.spec.reservation).sum();
        let borrowed: ResourceVector = self
            .book
            .halves()
            .filter(|h| h.role == LeaseRole::Borrower && h.lease.live_at(self.clock))
            .filter(|h| self.hosts(h.lease.borrower))
            .map(|h| h.lease.amount)
            .sum();
        let held: ResourceVector = self.holds.iter().map(|h| h.vm.spec.reservation).sum();
        hosted + borrowed + held + self.backup_reserved
    }

    /// Whether `extra` still fits next to everything already reserved.
    pub fn admits(&self, extra: ResourceVector) -> bool {
        (self.reserved() + extra).fits_within(&self.capacity)
    }

    /// Carves `amount` of backup headroom out of this server if it is sane
    /// and fits — the one carve path behind `BackupReserve` and both
    /// offline seeding calls.
    pub fn carve_backup(&mut self, amount: ResourceVector) -> bool {
        let fits = amount.is_sane() && self.admits(amount);
        if fits {
            self.backup_reserved += amount;
        }
        fits
    }

    /// Drops lapsed holds. A hold is live strictly *before* its `expires`
    /// instant, so at `expires` itself its reservation is already released
    /// and an accept arriving in that very tick is not double-charged.
    pub fn expire_holds(&mut self, now: SimTime) {
        self.holds.retain(|h| h.expires > now);
    }

    pub fn release_backup(&mut self, amount: ResourceVector) {
        self.backup_reserved = self.backup_reserved.saturating_sub(&amount);
    }

    pub fn hosts(&self, vm: VmId) -> bool {
        self.vms.iter().any(|v| v.id == vm)
    }

    /// The resource dimensions the controller currently manages.
    pub fn active_kinds(&self) -> &'static [ResourceKind] {
        if self.config.multi_metric {
            &ResourceKind::ALL
        } else {
            &[ResourceKind::Bandwidth]
        }
    }

    /// Total (limit-clamped) bandwidth demand of hosted VMs.
    pub fn bw_demand(&self) -> Bandwidth {
        self.vms.iter().map(|vm| vm.effective_bw_demand()).sum()
    }

    /// Total demand along one dimension, each VM clamped to its live limit
    /// (a zero limit means "untracked" and leaves the demand unclamped).
    pub fn demand_for(&self, kind: ResourceKind) -> f64 {
        self.vms
            .iter()
            .map(|vm| clamped(vm.demand.get(kind), self.entitled_spec(vm).limit.get(kind)))
            .sum()
    }

    /// Utilization along one dimension (0 when the capacity is zero).
    pub fn utilization_for(&self, kind: ResourceKind) -> f64 {
        let cap = self.capacity.get(kind);
        if cap > 0.0 {
            self.demand_for(kind) / cap
        } else {
            0.0
        }
    }

    /// The cluster mean utilization along one dimension, from the
    /// *per-server averages* of the demand and capacity aggregates rather
    /// than their raw sums: while the two trees are still converging they
    /// may cover different subsets of servers, and `ΣD/ΣC` over mismatched
    /// populations would wildly misestimate the mean (receivers would then
    /// accept far past the real `mean + threshold`).
    pub fn cluster_mean_for(&self, kind: ResourceKind) -> Option<f64> {
        let d = self.agg.global(demand_topic(kind))?.mean()?;
        let c = self.agg.global(capacity_topic(kind))?.mean()?;
        (c > 0.0).then(|| d / c)
    }

    /// Records a flight event of this server at the current clock.
    pub fn event(&self, kind: &'static Kind, a: u64, b: u64) {
        let (at, sub) = (self.clock.as_micros(), Subsystem::Controller);
        self.flight.record(at, self.node, sub, kind, a, b);
    }
}

/// A reservation a receiver set aside for a VM it accepted, pending
/// migration.
#[derive(Debug, Clone)]
pub(super) struct Hold {
    pub query: u64,
    pub vm: VmRecord,
    pub expires: SimTime,
}

/// `demand` clamped to `limit`, where a zero limit means "untracked".
pub(super) fn clamped(demand: f64, limit: f64) -> f64 {
    if limit > 0.0 {
        demand.min(limit)
    } else {
        demand
    }
}

/// Retry-after times per VM: a VM whose last request (load-balance query,
/// borrow request, spot ask) is outstanding or went unanswered sits out
/// until its time passes, so the next rounds try other VMs instead of
/// livelocking on the same one.
#[derive(Debug, Default)]
pub(super) struct Cooldown(FlatMap<VmId, SimTime>);

impl Cooldown {
    /// Drops every entry whose retry-after time has come.
    pub fn sweep(&mut self, now: SimTime) {
        self.0.retain(|_, &mut retry_at| retry_at > now);
    }

    pub fn start(&mut self, vm: VmId, retry_at: SimTime) {
        self.0.insert(vm, retry_at);
    }

    pub fn covers(&self, vm: VmId) -> bool {
        self.0.contains_key(&vm)
    }

    pub fn clear(&mut self, vm: VmId) {
        self.0.remove(&vm);
    }

    pub fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.0.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::controller::tests::{controller, vm};
    use crate::controller::Controller;
    use crate::message::CtrlMsg;
    use crate::{Cluster, CustomerId, ResourceKind, ResourceVector, VBundleConfig, VmId};
    use vbundle_aggregation::AggregationConfig;
    use vbundle_dcn::{Bandwidth, Topology};
    use vbundle_scribe::ScribeClient;
    use vbundle_sim::{ActorId, SimTime};
    use vbundle_trade::{Lease, LeaseId, LeaseRole};

    #[test]
    fn demand_for_clamps_to_limits() {
        let mut c = controller(0.15);
        let mut v = vm(1, 0.0, 100.0, 400.0); // bw demand 400, limit 100
        v.demand.memory_mb = 9_999.0; // memory limit is 0 = untracked
        c.install_vm(v);
        assert_eq!(c.demand_for(ResourceKind::Bandwidth), 100.0);
        assert_eq!(c.demand_for(ResourceKind::Memory), 9_999.0);
        assert!((c.utilization_for(ResourceKind::Memory) - 9_999.0 / 16_384.0).abs() < 1e-9);
    }

    #[test]
    fn entitled_spec_follows_the_book() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_bundle_trading(true),
        );
        c.install_vm(vm(1, 300.0, 300.0, 100.0));
        c.install_vm(vm(2, 300.0, 300.0, 400.0));
        // Empty book: entitlements are the static contracts.
        assert_eq!(c.reserved().bandwidth.as_mbps(), 600.0);
        let lease = Lease::free(
            LeaseId(7),
            CustomerId(0),
            VmId(1),
            VmId(2),
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(100.0)),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        // This server hosts both parties only in this test; real clusters
        // hold one half each, but the arithmetic is identical.
        c.host
            .book
            .record(lease, LeaseRole::Lender, ActorId::new(9));
        let lease2 = Lease {
            id: LeaseId(8),
            ..lease
        };
        c.host
            .book
            .record(lease2, LeaseRole::Borrower, ActorId::new(9));
        c.host.clock = SimTime::from_secs(10);
        // Lender's row shrank, borrower's grew; the live sum is unchanged.
        let lender = *c.vms().iter().find(|v| v.id == VmId(1)).unwrap();
        let borrower = *c.vms().iter().find(|v| v.id == VmId(2)).unwrap();
        assert_eq!(
            c.entitled_spec(&lender).reservation.bandwidth.as_mbps(),
            200.0
        );
        assert_eq!(c.entitled_spec(&borrower).limit.bandwidth.as_mbps(), 400.0);
        // The commitment is not: the lent 100 comes back at expiry.
        assert_eq!(c.reserved().bandwidth.as_mbps(), 700.0);
        // The shaper now grants the borrower up to its live ceiling.
        let allocs = c.allocations();
        assert_eq!(allocs[1].granted.as_mbps(), 400.0);
        // demand_for clamps against the live limit too.
        assert_eq!(c.demand_for(ResourceKind::Bandwidth), 500.0);
        // Past expiry the contracts revert without any sweep running.
        c.host.clock = SimTime::from_secs(1000);
        assert_eq!(
            c.entitled_spec(&lender).reservation.bandwidth.as_mbps(),
            300.0
        );
        assert_eq!(c.demand_for(ResourceKind::Bandwidth), 400.0);
        assert_eq!(c.reserved().bandwidth.as_mbps(), 600.0);
    }

    /// A lender's lent-out reservation is no headroom for a borrow grant:
    /// it comes back when the lender's lease expires. Here the grant fits
    /// the live entitlement (700 + 250 on a 1 000 Mbps NIC) but not the
    /// commitment (900 + 250), and accepting it would leave 1 150 Mbps
    /// promised once the lender half lapses.
    #[test]
    fn grant_cannot_fill_lent_out_reservation() {
        let topo = Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build();
        let config = VBundleConfig::default().with_bundle_trading(true);
        let mut cluster = Cluster::builder(Arc::new(topo)).vbundle(config).build();
        let server = cluster.topo.server(0);
        cluster.install_vm(server, vm(1, 500.0, 500.0, 0.0));
        cluster.install_vm(server, vm(2, 400.0, 400.0, 400.0));
        let mbps = |x| ResourceVector::bandwidth_only(Bandwidth::from_mbps(x));
        let lent = Lease::free(
            LeaseId(1),
            CustomerId(0),
            VmId(1),
            VmId(9),
            mbps(200.0),
            SimTime::ZERO,
            SimTime::from_secs(100),
        );
        let peer = cluster.handles[1];
        let c = cluster.controller_mut(0);
        c.host.book.record(lent, LeaseRole::Lender, peer.actor);
        let grant = CtrlMsg::BorrowGrant {
            lease: Box::new(Lease::free(
                LeaseId(2),
                CustomerId(0),
                VmId(9),
                VmId(2),
                mbps(250.0),
                SimTime::ZERO,
                SimTime::from_secs(1000),
            )),
        };
        cluster.engine.call(ActorId::new(0), |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| c.on_direct(sctx, peer, grant));
            });
        });
        let c = cluster.controller_mut(0);
        assert!(!c.host.book.contains(LeaseId(2)), "grant accepted");
        c.host.clock = SimTime::from_secs(150);
        assert!(c.reserved().fits_within(c.capacity()));
    }
}

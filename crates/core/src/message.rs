//! The v-Bundle controller's wire messages.

use vbundle_aggregation::AggMsg;
use vbundle_pastry::NodeHandle;
use vbundle_sim::{ActorId, CorruptionMode, Message, MsgCategory};
use vbundle_trade::{Lease, LeaseId};

use crate::{CustomerId, ResourceVector, VmId, VmRecord};

/// A snapshot of one customer's failure-domain occupancy, stamped onto a
/// [`BootQuery`] by the customer key's root when survivable admission is
/// on. Every walk server enforces the same per-domain cap against it, so
/// the online path and the offline
/// [`ClusterModel`](crate::ClusterModel) agree on the spreading rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurvCaps {
    /// VMs this customer has booted so far (per the root's ledger).
    pub total: u32,
    /// `(rack index, VM count)` pairs with at least one VM.
    pub per_rack: Vec<(u32, u32)>,
    /// `(pod index, VM count)` pairs with at least one VM.
    pub per_pod: Vec<(u32, u32)>,
}

impl SurvCaps {
    /// VMs already hosted in rack `rack`.
    pub fn rack_count(&self, rack: u32) -> u32 {
        self.per_rack
            .iter()
            .find(|(r, _)| *r == rack)
            .map_or(0, |(_, n)| *n)
    }

    /// VMs already hosted in pod `pod`.
    pub fn pod_count(&self, pod: u32) -> u32 {
        self.per_pod
            .iter()
            .find(|(p, _)| *p == pod)
            .map_or(0, |(_, n)| *n)
    }
}

/// A VM boot query walking the datacenter (§II.B): routed to
/// `hash(customer)` first, then forwarded across neighbor sets until a
/// server can admit the VM's reservation.
#[derive(Debug, Clone)]
pub struct BootQuery {
    /// The origin's op id for the boot, echoed in the result.
    pub request: u64,
    /// The VM to place.
    pub vm: VmRecord,
    /// Who asked (receives [`CtrlMsg::BootResult`]).
    pub origin: NodeHandle,
    /// The server that first received the query (the customer key's
    /// root); the walk spreads outward from it to preserve locality.
    pub root: Option<NodeHandle>,
    /// The customer's domain occupancy, stamped by the root when
    /// survivable admission is on (`None` otherwise — the wire size is
    /// unchanged for non-survivable runs).
    pub caps: Option<SurvCaps>,
    /// Servers already asked.
    pub visited: Visited,
    /// Remaining forwarding budget.
    pub ttl: u32,
    /// True when this query re-materializes a VM lost to a declared
    /// domain death (sent by the backup site, not a tenant). Failover
    /// admissions skip the backup carve-out — the protection was
    /// single-shot — and pre-seed `visited` with the dead rack, so the
    /// copy never lands back on the servers being fenced. Always `false`
    /// on ordinary boots, so the wire size is unchanged for
    /// non-failover runs.
    pub failover: bool,
}

/// Words of [`Visited`]'s inline bitset: one bit per actor below 4 096.
const VISITED_WORDS: usize = 64;

/// The servers a [`BootQuery`] has asked, in the order it asked them.
///
/// The list is what travels (4 B per entry) and what `Debug` prints.
/// Beside it the query carries one bit per actor below 4 096, so a hop
/// tests a candidate in O(1) without marking the list again; an actor
/// past the bitset is looked up in the list.
#[derive(Clone)]
pub struct Visited {
    list: Vec<ActorId>,
    bits: [u64; VISITED_WORDS],
}

impl Visited {
    /// Appends `actor`, even if it is already in the list.
    #[inline]
    pub fn push(&mut self, actor: ActorId) {
        if let Some(word) = self.bits.get_mut(actor.index() / 64) {
            *word |= 1 << (actor.index() % 64);
        }
        self.list.push(actor);
    }

    /// True if `actor` has been pushed.
    #[inline]
    pub fn contains(&self, actor: ActorId) -> bool {
        match self.bits.get(actor.index() / 64) {
            Some(word) => word >> (actor.index() % 64) & 1 == 1,
            None => self.list.contains(&actor),
        }
    }

    /// Entries in the list, repeats included.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl Default for Visited {
    fn default() -> Visited {
        Visited {
            list: Vec::new(),
            bits: [0; VISITED_WORDS],
        }
    }
}

impl FromIterator<ActorId> for Visited {
    fn from_iter<I: IntoIterator<Item = ActorId>>(actors: I) -> Visited {
        let mut visited = Visited::default();
        for actor in actors {
            visited.push(actor);
        }
        visited
    }
}

impl std::fmt::Debug for Visited {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.list.fmt(f)
    }
}

/// A load shedder's query into the Less-Loaded anycast tree (§III.C):
/// "who can take this VM?"
#[derive(Debug, Clone)]
pub struct LoadQuery {
    /// The shedder's op id for the query, echoed in the acceptance.
    pub query: u64,
    /// The VM the shedder wants to evacuate.
    pub vm: VmRecord,
    /// The shedding server.
    pub shedder: NodeHandle,
}

/// A starved VM's plea into its customer's trade tree (§III): "which
/// sibling can lend me this much entitlement?" Carried by Scribe anycast
/// under the same Less-Loaded discipline as load shedding. With the spot
/// market on, the same message (flagged `spot`) goes into the pod's
/// `Spot-<pod>` group instead, asking *other tenants* to sell.
#[derive(Debug, Clone)]
pub struct BorrowRequest {
    /// The customer whose bundle the entitlement moves within — on a spot
    /// request, the customer doing the *buying*.
    pub customer: CustomerId,
    /// The starved VM that wants to borrow.
    pub borrower: VmId,
    /// How much it is short (demand beyond its live limit).
    pub amount: ResourceVector,
    /// The server hosting the borrower (receives the grant).
    pub origin: NodeHandle,
    /// True for a priced cross-tenant request into the spot group. Always
    /// `false` on intra-bundle requests, so the pre-market wire is
    /// byte-identical.
    pub spot: bool,
}

/// Everything v-Bundle controllers exchange. Aggregation traffic is
/// embedded via [`AggMsg`].
///
/// Sized by its hot variants (aggregation updates, lease renewals,
/// acks): the queries that walk the datacenter and the full VM / lease
/// records travel behind a `Box` allocated by whoever issues them and
/// passed on, not copied, by every hop that forwards them.
#[derive(Debug, Clone)]
pub enum CtrlMsg {
    /// Aggregation-tree traffic (updates up, results down).
    Agg(AggMsg),
    /// A VM boot query (routed to the customer key, then forwarded).
    Boot(Box<BootQuery>),
    /// Boot outcome, sent directly to the query's origin.
    BootResult {
        /// Echo of [`BootQuery::request`].
        request: u64,
        /// The VM that was (not) placed.
        vm: VmId,
        /// The hosting server, or `None` if no server could admit it.
        host: Option<NodeHandle>,
        /// Echo of [`BootQuery::failover`]: not a tenant boot's result.
        failover: bool,
    },
    /// A shedder's query, carried by the Less-Loaded tree anycast.
    Load(Box<LoadQuery>),
    /// A receiver accepted a [`LoadQuery`] and holds bandwidth for the VM.
    LoadAccept {
        /// Echo of [`LoadQuery::query`].
        query: u64,
        /// The VM the receiver will take.
        vm: VmId,
        /// The accepting server.
        receiver: NodeHandle,
    },
    /// The migrating VM itself (its arrival completes the migration; the
    /// send delay models the live-migration duration). Resent until acked:
    /// under a lossy network a dropped VM transfer must not lose the VM.
    Migrate {
        /// Echo of the originating query id (releases the hold).
        query: u64,
        /// The VM's full record.
        vm: Box<VmRecord>,
        /// The shedding server it left.
        from: NodeHandle,
    },
    /// The receiver's confirmation that a [`CtrlMsg::Migrate`] arrived and
    /// the VM is installed. Receivers re-ack duplicate transfers, so the
    /// shedder can retry until it hears this.
    MigrateAck {
        /// Echo of the originating query id.
        query: u64,
    },
    /// A starved VM's borrow request, anycast into the customer's trade
    /// tree.
    Borrow(Box<BorrowRequest>),
    /// A lender's committed offer: the full lease terms, sent directly to
    /// the borrower's host and resent (Courier-backed) until a
    /// [`CtrlMsg::LeaseAck`] arrives.
    BorrowGrant {
        /// The lease, already debited on the lender's book.
        lease: Box<Lease>,
    },
    /// The borrower host's verdict on a grant. `accepted: false` means the
    /// borrower did not record the credit (stale terms, no room), so the
    /// lender may safely reclaim its debit.
    LeaseAck {
        /// The lease being answered.
        id: LeaseId,
        /// Whether the borrower recorded its half.
        accepted: bool,
    },
    /// The borrower's per-tick liveness probe to the lender. Its delivery
    /// failure (lender host dead) is the borrower's signal to revert
    /// early; a lender that no longer knows the lease answers with
    /// [`CtrlMsg::LeaseRelease`].
    LeaseRenew {
        /// The lease being renewed.
        id: LeaseId,
    },
    /// "Drop your half of this lease" — sent when a party reverts early
    /// (VM shutdown, unknown renewal) so the opposite half does not
    /// linger.
    LeaseRelease {
        /// The lease to drop.
        id: LeaseId,
    },
    /// An admitting server's notice to the customer key's root that it
    /// just hosted one of the customer's VMs, so the root's
    /// failure-domain ledger (the source of [`SurvCaps`]) stays current.
    /// Only sent when survivable admission is on.
    SurvCommit {
        /// The customer whose ledger advances.
        customer: CustomerId,
        /// Rack index of the admitting server.
        rack: u32,
        /// Pod index of the admitting server.
        pod: u32,
        /// The boot's op id: the root records each op once.
        op: u64,
    },
    /// An admitting server's request that a VM's backup share be carved
    /// out, once per VM, on the receiver (chosen in a different failure
    /// domain), which with failover on re-materializes the VM if the
    /// primary's rack is declared dead. Best-effort: no room, no carve.
    BackupReserve {
        /// The protected VM (re-booted verbatim on failover).
        vm: Box<VmRecord>,
        /// The server currently hosting the VM.
        primary: NodeHandle,
        /// The backup amount (`backup` × the VM's reservation).
        amount: ResourceVector,
    },
    /// A backup site's liveness probe into a rack it protects. Any live
    /// member answers [`CtrlMsg::FoProbeAck`]; a send failure (the
    /// member is dead) is rack-death evidence for the site's domain
    /// suspicion.
    FoProbe {
        /// The rack being probed.
        rack: u32,
    },
    /// A probed server's "my rack still has me" reply.
    FoProbeAck {
        /// Echo of [`CtrlMsg::FoProbe::rack`].
        rack: u32,
    },
    /// The backup site's fence to a stale primary after failover: "these
    /// VMs were re-materialized elsewhere — drop your copies and revert
    /// their leases". Resent every failover tick until the
    /// [`CtrlMsg::FoFenceAck`] arrives, so a primary that restarts after
    /// the declaration still reconciles.
    FoFence {
        /// The VMs the fenced server must release.
        vms: Vec<VmId>,
    },
    /// The fenced server's confirmation that the stale copies are gone.
    FoFenceAck {
        /// Echo of [`CtrlMsg::FoFence::vms`].
        vms: Vec<VmId>,
    },
}

const HANDLE_BYTES: usize = 20;
const VM_BYTES: usize = 8 + 4 + 6 * 8 + 3 * 8; // id+customer+spec+demand
const LEASE_BYTES: usize = 8 + 4 + 8 + 8 + 3 * 8 + 8; // id+customer+parties+amount+expiry
/// Extra bytes a *priced* lease carries on the wire: price + start time +
/// buyer customer. Free leases omit all three, keeping the pre-market
/// grant byte-identical.
const PRICED_LEASE_EXTRA: usize = 8 + 8 + 4;

// Layout guards for the full-stack wire type: what the engine moves per
// event fits a cache line, and the one unbox per layer stays small.
const _: () = {
    use std::mem::size_of;
    use vbundle_pastry::PastryMsg;
    use vbundle_scribe::ScribeMsg;
    assert!(size_of::<PastryMsg<ScribeMsg<CtrlMsg>>>() <= 48);
    assert!(size_of::<ScribeMsg<CtrlMsg>>() <= 160);
    assert!(size_of::<CtrlMsg>() <= 96);
};

// Layout guards for what every server carries inline: the controller,
// whose optional protocols are boxed and whose configs are shared, and
// the engine's actor record. With the engine's 48-byte actor metadata a
// node of 992 bytes fills a 64-byte-aligned record of 1 088 bytes (17
// cache lines).
const _: () = {
    use crate::Controller;
    use std::mem::size_of;
    use vbundle_pastry::PastryNode;
    use vbundle_scribe::Scribe;
    assert!(size_of::<Controller>() <= 600);
    assert!(size_of::<PastryNode<Scribe<Controller>>>() <= 992);
};

// Layout guards for the per-link liveness records: a server keeps one per
// heartbeated leaf-set member and one per tree child, so each byte here is
// paid per link.
const _: () = {
    use std::mem::size_of;
    use vbundle_fdetect::{ArrivalWindow, PeerDetector};
    use vbundle_pastry::LeafLink;
    use vbundle_scribe::ChildLink;
    assert!(size_of::<ArrivalWindow>() <= 104);
    assert!(size_of::<PeerDetector>() <= 112);
    assert!(size_of::<LeafLink>() <= 128);
    assert!(size_of::<ChildLink>() <= 152);
};

impl Message for CtrlMsg {
    fn wire_size(&self) -> usize {
        match self {
            CtrlMsg::Agg(m) => m.wire_size(),
            CtrlMsg::Boot(q) => {
                let caps = q
                    .caps
                    .as_ref()
                    .map_or(0, |c| 4 + 8 * (c.per_rack.len() + c.per_pod.len()));
                8 + VM_BYTES
                    + HANDLE_BYTES * 2
                    + 4 * q.visited.len()
                    + 8
                    + caps
                    + usize::from(q.failover)
            }
            CtrlMsg::BootResult { failover, .. } => 8 + 8 + HANDLE_BYTES + usize::from(*failover),
            CtrlMsg::Load(_) => 8 + VM_BYTES + HANDLE_BYTES,
            CtrlMsg::LoadAccept { .. } => 8 + 8 + HANDLE_BYTES,
            CtrlMsg::Migrate { .. } => 8 + VM_BYTES + HANDLE_BYTES,
            CtrlMsg::MigrateAck { .. } => 8,
            CtrlMsg::Borrow(q) => 4 + 8 + 3 * 8 + HANDLE_BYTES + usize::from(q.spot),
            CtrlMsg::BorrowGrant { lease } => {
                LEASE_BYTES
                    + if lease.is_priced() {
                        PRICED_LEASE_EXTRA
                    } else {
                        0
                    }
            }
            CtrlMsg::LeaseAck { .. } => 8 + 1,
            CtrlMsg::LeaseRenew { .. } => 8,
            CtrlMsg::LeaseRelease { .. } => 8,
            CtrlMsg::SurvCommit { .. } => 4 + 4 + 4 + 8,
            CtrlMsg::BackupReserve { .. } => VM_BYTES + HANDLE_BYTES + 3 * 8,
            CtrlMsg::FoProbe { .. } | CtrlMsg::FoProbeAck { .. } => 4,
            CtrlMsg::FoFence { vms } | CtrlMsg::FoFenceAck { vms } => 8 * vms.len(),
        }
    }

    fn category(&self) -> MsgCategory {
        MsgCategory::Payload
    }

    /// Only aggregation reports are corruptible: the poison model targets
    /// the telemetry steering the shuffle, not the VM transfers themselves.
    fn corrupt(&mut self, mode: CorruptionMode) -> bool {
        match self {
            CtrlMsg::Agg(m) => m.corrupt(mode),
            _ => false,
        }
    }
}

impl From<AggMsg> for CtrlMsg {
    fn from(m: AggMsg) -> CtrlMsg {
        CtrlMsg::Agg(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CustomerId, ResourceSpec, ResourceVector};
    use vbundle_dcn::Bandwidth;
    use vbundle_pastry::Id;

    #[test]
    fn sizes_and_conversion() {
        let h = NodeHandle::new(Id::from_u128(1), ActorId::new(0));
        let vm = VmRecord::new(
            VmId(1),
            CustomerId(0),
            ResourceSpec::fixed(ResourceVector::bandwidth_only(Bandwidth::from_mbps(10.0))),
        );
        let boot = CtrlMsg::Boot(Box::new(BootQuery {
            request: 1,
            vm,
            origin: h,
            root: None,
            caps: None,
            visited: [ActorId::new(2)].into_iter().collect(),
            ttl: 9,
            failover: false,
        }));
        assert!(boot.wire_size() > VM_BYTES);
        assert_eq!(boot.category(), MsgCategory::Payload);

        // Stamping caps grows the wire size; `None` costs nothing.
        let bare = boot.wire_size();
        let stamped = if let CtrlMsg::Boot(mut q) = boot.clone() {
            q.caps = Some(SurvCaps {
                total: 3,
                per_rack: vec![(0, 2), (1, 1)],
                per_pod: vec![(0, 3)],
            });
            CtrlMsg::Boot(q).wire_size()
        } else {
            unreachable!()
        };
        assert!(stamped > bare);

        let agg: CtrlMsg = AggMsg::Update {
            topic: Id::from_u128(5),
            value: vbundle_aggregation::AggValue::of(1.0),
        }
        .into();
        assert!(matches!(agg, CtrlMsg::Agg(_)));
    }

    #[test]
    fn surv_caps_lookup() {
        let caps = SurvCaps {
            total: 5,
            per_rack: vec![(2, 3), (7, 2)],
            per_pod: vec![(1, 5)],
        };
        assert_eq!(caps.rack_count(2), 3);
        assert_eq!(caps.rack_count(3), 0);
        assert_eq!(caps.pod_count(1), 5);
        assert_eq!(caps.pod_count(0), 0);
        assert_eq!(SurvCaps::default().total, 0);
    }

    #[test]
    fn surv_message_sizes() {
        let commit = CtrlMsg::SurvCommit {
            customer: CustomerId(1),
            rack: 2,
            pod: 0,
            op: 7,
        };
        assert_eq!(commit.wire_size(), 20);
        let mut c = commit;
        assert!(!c.corrupt(CorruptionMode::Nan));
    }

    #[test]
    fn market_message_sizes() {
        use vbundle_sim::SimTime;
        use vbundle_trade::{Lease, LeaseId};

        let h = NodeHandle::new(Id::from_u128(3), ActorId::new(1));
        let free = Lease::free(
            LeaseId(1),
            CustomerId(0),
            VmId(1),
            VmId(2),
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(10.0)),
            SimTime::from_secs(0),
            SimTime::from_secs(60),
        );
        // A free grant is byte-identical to the pre-market wire.
        assert_eq!(
            CtrlMsg::BorrowGrant {
                lease: Box::new(free)
            }
            .wire_size(),
            LEASE_BYTES
        );
        let mut priced = free;
        priced.price = 1.5;
        priced.buyer = CustomerId(7);
        assert_eq!(
            CtrlMsg::BorrowGrant {
                lease: Box::new(priced)
            }
            .wire_size(),
            LEASE_BYTES + PRICED_LEASE_EXTRA
        );

        // The spot flag on a borrow request costs exactly one byte.
        let q = BorrowRequest {
            customer: CustomerId(0),
            borrower: VmId(1),
            amount: ResourceVector::bandwidth_only(Bandwidth::from_mbps(10.0)),
            origin: h,
            spot: false,
        };
        let bare = CtrlMsg::Borrow(Box::new(q.clone())).wire_size();
        let mut spot = q;
        spot.spot = true;
        assert_eq!(CtrlMsg::Borrow(Box::new(spot)).wire_size(), bare + 1);
    }

    #[test]
    fn failover_message_sizes() {
        let h = NodeHandle::new(Id::from_u128(7), ActorId::new(3));
        let vm = VmRecord::new(
            VmId(9),
            CustomerId(2),
            ResourceSpec::fixed(ResourceVector::bandwidth_only(Bandwidth::from_mbps(80.0))),
        );
        let reserve = CtrlMsg::BackupReserve {
            vm: Box::new(vm),
            primary: h,
            amount: ResourceVector::bandwidth_only(Bandwidth::from_mbps(20.0)),
        };
        assert_eq!(reserve.wire_size(), VM_BYTES + HANDLE_BYTES + 24);
        assert_eq!(CtrlMsg::FoProbe { rack: 1 }.wire_size(), 4);
        assert_eq!(CtrlMsg::FoProbeAck { rack: 1 }.wire_size(), 4);
        let fence = CtrlMsg::FoFence {
            vms: vec![VmId(1), VmId(2)],
        };
        assert_eq!(fence.wire_size(), 16);
        assert_eq!(CtrlMsg::FoFenceAck { vms: vec![VmId(1)] }.wire_size(), 8);
        // None of the failover messages are corruptible.
        let mut p = CtrlMsg::FoProbe { rack: 0 };
        assert!(!p.corrupt(CorruptionMode::Nan));

        // The failover flag on a boot query costs exactly one byte, so
        // ordinary boots are byte-identical to the pre-failover wire.
        let q = BootQuery {
            request: 1,
            vm,
            origin: h,
            root: None,
            caps: None,
            visited: Visited::default(),
            ttl: 4,
            failover: false,
        };
        let bare = CtrlMsg::Boot(Box::new(q.clone())).wire_size();
        let mut fo = q;
        fo.failover = true;
        assert_eq!(CtrlMsg::Boot(Box::new(fo)).wire_size(), bare + 1);
    }
}

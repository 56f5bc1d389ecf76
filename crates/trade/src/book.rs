//! The per-server half of the distributed bundle ledger.
//!
//! A committed lease exists as *two* rows in the cluster: a
//! [`LeaseRole::Lender`] half on the server hosting the lending VM and a
//! [`LeaseRole::Borrower`] half on the server hosting the borrowing VM.
//! Each server's [`TradeBook`] holds only its own halves and can compute
//! its VMs' effective specs locally; the chaos layer reassembles all
//! books and checks that borrower halves always pair with a live lender
//! half (a dangling *lender* half merely under-uses the bundle and is
//! tolerated until expiry — the unsafe direction is phantom credit).

use std::collections::BTreeMap;
use std::fmt;

use vbundle_obs::Counter;
use vbundle_sim::{ActorId, SimTime};

use crate::ids::VmId;
use crate::lease::{Lease, LeaseId};
use crate::resources::{ResourceSpec, ResourceVector};

/// Which side of a lease this server holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseRole {
    /// This server hosts the VM giving up entitlement.
    Lender,
    /// This server hosts the VM receiving entitlement.
    Borrower,
}

/// One side of a committed lease, as stored on the hosting server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfLease {
    /// The full lease terms (identical on both sides).
    pub lease: Lease,
    /// Which party's server this row lives on.
    pub role: LeaseRole,
    /// The server holding the opposite half — renewal probes and revert
    /// notices go here.
    pub peer: ActorId,
}

impl HalfLease {
    /// The local VM this half binds: the lender VM on a lender half, the
    /// borrower VM on a borrower half.
    pub fn local_vm(&self) -> VmId {
        match self.role {
            LeaseRole::Lender => self.lease.lender,
            LeaseRole::Borrower => self.lease.borrower,
        }
    }

    /// Adds this half to its local VM's `(inflow, outflow)` over
    /// `[from, to]`: an inflow counts if it is live at some instant of the
    /// span, an outflow only if it is live throughout.
    fn add_over(&self, flow: &mut (ResourceVector, ResourceVector), from: SimTime, to: SimTime) {
        let Lease {
            starts,
            expires,
            amount,
            ..
        } = self.lease;
        match self.role {
            LeaseRole::Borrower if starts <= to && expires > from => flow.0 += amount,
            LeaseRole::Lender if starts <= from && expires > to => flow.1 += amount,
            _ => {}
        }
    }
}

/// Counters the trade subsystem exposes for benches and reports. Each
/// field is an obs [`Counter`] handle: detached (counting but invisible)
/// by default, and live in the export the moment the runtime registers
/// the same fields under an obs scope — the trade crate itself never
/// talks to a registry.
#[derive(Clone, Default)]
pub struct TradeStats {
    /// Borrow requests anycast into the trade tree by starved local VMs.
    pub requests_sent: Counter,
    /// Grants this server offered as a lender.
    pub grants_sent: Counter,
    /// Leases committed with a local VM as borrower.
    pub leases_borrowed: Counter,
    /// Grants refused at commit time (stale terms, insane amounts).
    pub grants_rejected: Counter,
    /// Halves dropped because their validity window ended.
    pub leases_expired: Counter,
    /// Halves reverted early (peer crash, VM migration or shutdown).
    pub leases_reverted: Counter,
    /// Grants whose ack never arrived within the retry budget; the lender
    /// kept its debit (the safe direction) and let it expire.
    pub lender_losses: Counter,
}

impl fmt::Debug for TradeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TradeStats")
            .field("requests_sent", &self.requests_sent.get())
            .field("grants_sent", &self.grants_sent.get())
            .field("leases_borrowed", &self.leases_borrowed.get())
            .field("grants_rejected", &self.grants_rejected.get())
            .field("leases_expired", &self.leases_expired.get())
            .field("leases_reverted", &self.leases_reverted.get())
            .field("lender_losses", &self.lender_losses.get())
            .finish()
    }
}

/// The set of lease halves hosted on one server.
///
/// All state lives in a `BTreeMap` keyed by [`LeaseId`] so iteration is
/// deterministic — the simulation replays byte-identically per seed.
#[derive(Debug, Clone, Default)]
pub struct TradeBook {
    halves: BTreeMap<LeaseId, HalfLease>,
    /// Subsystem counters.
    pub stats: TradeStats,
}

impl TradeBook {
    /// An empty book.
    pub fn new() -> Self {
        TradeBook::default()
    }

    /// Records one half of a committed lease. Returns `false` (and leaves
    /// the book unchanged) if a half with the same id is already present.
    pub fn record(&mut self, lease: Lease, role: LeaseRole, peer: ActorId) -> bool {
        if self.halves.contains_key(&lease.id) {
            return false;
        }
        self.halves
            .insert(lease.id, HalfLease { lease, role, peer });
        true
    }

    /// Removes a half early (peer crash, migration, shutdown), counting it
    /// in [`TradeStats::leases_reverted`].
    pub fn revert(&mut self, id: LeaseId) -> Option<HalfLease> {
        let gone = self.halves.remove(&id);
        if gone.is_some() {
            self.stats.leases_reverted.inc();
        }
        gone
    }

    /// Drops every half whose validity ended (`expires <= now`) and
    /// returns them, counting them in [`TradeStats::leases_expired`].
    pub fn expire(&mut self, now: SimTime) -> Vec<HalfLease> {
        let dead: Vec<LeaseId> = self
            .halves
            .values()
            .filter(|h| h.lease.expires <= now)
            .map(|h| h.lease.id)
            .collect();
        let gone: Vec<HalfLease> = dead
            .iter()
            .filter_map(|id| self.halves.remove(id))
            .collect();
        self.stats.leases_expired.add(gone.len() as u64);
        gone
    }

    /// The half with this id, if present.
    pub fn get(&self, id: LeaseId) -> Option<&HalfLease> {
        self.halves.get(&id)
    }

    /// True if a half with this id is present.
    pub fn contains(&self, id: LeaseId) -> bool {
        self.halves.contains_key(&id)
    }

    /// True if `vm` is party to any half still on the book — used to veto
    /// shedding a VM whose lease a migration would strand.
    pub fn vm_involved(&self, vm: VmId) -> bool {
        self.halves.values().any(|h| h.local_vm() == vm)
    }

    /// Ids of halves whose local VM is `vm`, in id order.
    pub fn ids_involving(&self, vm: VmId) -> Vec<LeaseId> {
        self.halves
            .values()
            .filter(|h| h.local_vm() == vm)
            .map(|h| h.lease.id)
            .collect()
    }

    /// Ids of halves whose opposite half lives on `peer`, in id order.
    pub fn ids_with_peer(&self, peer: ActorId) -> Vec<LeaseId> {
        self.halves
            .values()
            .filter(|h| h.peer == peer)
            .map(|h| h.lease.id)
            .collect()
    }

    /// Net live transfer for `vm` at `now`: `(inflow, outflow)`. Only
    /// halves whose validity window covers `now` count — a renewal
    /// replacement dated to start at its predecessor's expiry shifts
    /// nothing until then.
    pub fn delta(&self, vm: VmId, now: SimTime) -> (ResourceVector, ResourceVector) {
        let mut flow = (ResourceVector::ZERO, ResourceVector::ZERO);
        for h in self.halves.values().filter(|h| h.local_vm() == vm) {
            h.add_over(&mut flow, now, now);
        }
        flow
    }

    /// The most each of `vms` can be up by at any instant of `[from, to]`,
    /// as `(inflow, outflow)` in one pass over the book: every inflow live
    /// at some instant of the span, but only the outflow live throughout
    /// it. At `from == to` these are the VMs' [`TradeBook::delta`]s.
    pub fn deltas_over(
        &self,
        vms: &[VmId],
        from: SimTime,
        to: SimTime,
    ) -> Vec<(ResourceVector, ResourceVector)> {
        let mut flows = vec![(ResourceVector::ZERO, ResourceVector::ZERO); vms.len()];
        for h in self.halves.values() {
            if let Some(i) = vms.iter().position(|&vm| vm == h.local_vm()) {
                h.add_over(&mut flows[i], from, to);
            }
        }
        flows
    }

    /// `vm`'s effective contract at `now`: `base` shifted by the net of
    /// its live halves.
    pub fn live_spec(&self, vm: VmId, base: ResourceSpec, now: SimTime) -> ResourceSpec {
        let (inflow, outflow) = self.delta(vm, now);
        base.shifted(inflow, outflow)
    }

    /// The first instant after `after` at which a half on the book starts
    /// or expires ([`SimTime::MAX`] if none does): until then the clock
    /// alone changes no [`TradeBook::deltas_over`] of a span ending at
    /// `after` or later in a way that raises anyone's lendable amount.
    pub fn next_boundary(&self, after: SimTime) -> SimTime {
        self.halves
            .values()
            .flat_map(|h| [h.lease.starts, h.lease.expires])
            .filter(|&t| t > after)
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// All halves, in id order.
    pub fn halves(&self) -> impl Iterator<Item = &HalfLease> {
        self.halves.values()
    }

    /// Number of halves on the book.
    pub fn len(&self) -> usize {
        self.halves.len()
    }

    /// True if no halves are on the book.
    pub fn is_empty(&self) -> bool {
        self.halves.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CustomerId;
    use vbundle_dcn::Bandwidth;

    fn bw(mbps: f64) -> ResourceVector {
        ResourceVector::bandwidth_only(Bandwidth::from_mbps(mbps))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn lease(id: u64, lender: u64, borrower: u64, mbps: f64, expires: u64) -> Lease {
        Lease::free(
            LeaseId(id),
            CustomerId(0),
            VmId(lender),
            VmId(borrower),
            bw(mbps),
            t(0),
            t(expires),
        )
    }

    #[test]
    fn record_is_idempotent_per_id() {
        let mut book = TradeBook::new();
        assert!(book.record(
            lease(1, 10, 20, 40.0, 100),
            LeaseRole::Lender,
            ActorId::new(5)
        ));
        assert!(!book.record(
            lease(1, 10, 20, 40.0, 100),
            LeaseRole::Lender,
            ActorId::new(5)
        ));
        assert_eq!(book.len(), 1);
        assert!(book.contains(LeaseId(1)));
        assert_eq!(book.get(LeaseId(1)).unwrap().peer, ActorId::new(5));
    }

    #[test]
    fn delta_and_live_spec_shift_by_role() {
        let mut book = TradeBook::new();
        book.record(
            lease(1, 10, 20, 40.0, 100),
            LeaseRole::Lender,
            ActorId::new(5),
        );
        book.record(
            lease(2, 30, 10, 15.0, 100),
            LeaseRole::Borrower,
            ActorId::new(6),
        );
        let (inflow, outflow) = book.delta(VmId(10), t(0));
        assert_eq!(inflow, bw(15.0));
        assert_eq!(outflow, bw(40.0));
        let base =
            ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(150.0));
        let live = book.live_spec(VmId(10), base, t(0));
        assert_eq!(live.reservation, bw(75.0));
        assert_eq!(live.limit, bw(125.0));
        // Expired halves stop counting even before expire() sweeps them.
        let live_late = book.live_spec(VmId(10), base, t(100));
        assert_eq!(live_late.reservation, bw(100.0));
    }

    #[test]
    fn expire_sweeps_dead_halves() {
        let mut book = TradeBook::new();
        book.record(
            lease(1, 10, 20, 40.0, 50),
            LeaseRole::Lender,
            ActorId::new(5),
        );
        book.record(
            lease(2, 10, 20, 10.0, 200),
            LeaseRole::Lender,
            ActorId::new(5),
        );
        let gone = book.expire(t(50));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].lease.id, LeaseId(1));
        assert_eq!(book.stats.leases_expired.get(), 1);
        assert!(book.contains(LeaseId(2)));
    }

    #[test]
    fn revert_and_lookups() {
        let mut book = TradeBook::new();
        book.record(
            lease(1, 10, 20, 40.0, 100),
            LeaseRole::Lender,
            ActorId::new(5),
        );
        book.record(
            lease(2, 11, 20, 10.0, 100),
            LeaseRole::Borrower,
            ActorId::new(6),
        );
        assert!(book.vm_involved(VmId(10)));
        assert!(book.vm_involved(VmId(20)));
        assert!(!book.vm_involved(VmId(11))); // remote party, not local
        assert_eq!(book.ids_with_peer(ActorId::new(6)), vec![LeaseId(2)]);
        assert_eq!(book.ids_involving(VmId(10)), vec![LeaseId(1)]);
        let gone = book.revert(LeaseId(1)).unwrap();
        assert_eq!(gone.local_vm(), VmId(10));
        assert_eq!(book.stats.leases_reverted.get(), 1);
        assert!(book.revert(LeaseId(1)).is_none());
        assert_eq!(book.stats.leases_reverted.get(), 1);
    }
}

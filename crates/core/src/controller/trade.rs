//! Intra-bundle entitlement trading (§I, §III) and, nested inside it, the
//! spot market. Present only when `VBundleConfig::bundle_trading` is on.
//!
//! Owns `CtrlMsg::{Borrow, BorrowGrant, LeaseAck, LeaseRenew,
//! LeaseRelease}`, the trading slice of the update tick and the
//! `TRADE_RETRY_TAG_BASE | lease id` timers. The lease halves themselves
//! sit in `Host::book`, because admission control and the shaper read them
//! on every server; everything about *chasing* a lease — peers, grant
//! retransmission, trade-tree membership, cooldowns — is here.

use std::mem;

use vbundle_dcn::Bandwidth;
use vbundle_fdetect::{Courier, CourierConfig, RetryDecision};
use vbundle_market::EntrySide;
use vbundle_obs::Kind;
use vbundle_pastry::NodeHandle;
use vbundle_scribe::{GroupId, Summary};
use vbundle_sim::{FlatMap, SimTime};
use vbundle_trade::{HalfLease, Lease, LeaseId, LeaseRole};

use super::host::{Cooldown, Host};
use super::market::SpotMarket;
use super::{trade_group, Ctx, TRADE_RETRY_TAG_BASE};
use crate::message::{BorrowRequest, CtrlMsg};
use crate::{CustomerId, ResourceVector, VBundleConfig, VmId, VmRecord};

/// Total transmission attempts per lease grant before the lender stops
/// chasing the ack and leaves its debit to expire.
const TRADE_ATTEMPTS: u32 = 3;
/// Jitter salt for the trade courier ("TRAD").
const TRADE_COURIER_SALT: u64 = 0x5452_4144;
/// Smallest lease worth the protocol traffic, in Mbps.
pub(super) const MIN_LEASE_MBPS: f64 = 1.0;
/// Fraction of a would-be lender's spare reservation kept back as
/// self-insurance against its own demand growing mid-lease.
const TRADE_MARGIN: f64 = 0.1;
/// Upper bound on borrow requests one server issues per update tick.
const MAX_TRADES_PER_ROUND: usize = 4;
/// Lender markup over the pod's price index when quoting a spot ask.
const ASK_MARKUP: f64 = 0.1;

// Flight records: a lease minted by its lender, and taken by its borrower.
const LEASE_GRANT: Kind = Kind::new("lease-grant", "lease", "to");
const SPOT_GRANT: Kind = Kind::new("spot-grant", "lease", "to");
const SPOT_REQUOTE: Kind = Kind::new("spot-requote", "lease", "to");
const LEASE_BORROWED: Kind = Kind::new("lease-borrowed", "lease", "from");
const SPOT_BORROWED: Kind = Kind::new("spot-borrowed", "lease", "from");

#[derive(Debug)]
pub(super) struct Trade {
    /// Lease id → the server hosting the opposite half (grants, renewals
    /// and release notices go here; [`HalfLease::peer`] only stores the
    /// `ActorId`, but sends need the full handle).
    peers: FlatMap<u64, NodeHandle>,
    /// Retransmission state for unacked lease grants, keyed by lease id.
    courier: Courier,
    /// Trade trees this server currently belongs to.
    groups: FlatMap<CustomerId, GroupId>,
    /// What those trees and the spot group are told this server can lend.
    offers: Offers,
    /// VMs whose last borrow request went unanswered.
    cooldown: Cooldown,
    pub market: Option<SpotMarket>,
}

impl Trade {
    pub fn new(config: &VBundleConfig, market: Option<SpotMarket>) -> Self {
        // A grant's ack round trip is just network latency, so the first
        // timeout can be much tighter than a migration's; retries stay
        // well inside the lease lifetime or they would chase an expired
        // debit.
        let courier = Courier::new(CourierConfig {
            base_timeout: config.update_interval / 8,
            max_timeout: (config.lease_duration / 4).max(config.update_interval / 4),
            max_attempts: TRADE_ATTEMPTS,
            salt: TRADE_COURIER_SALT,
        });
        Trade {
            peers: FlatMap::new(),
            courier,
            groups: FlatMap::new(),
            offers: Offers::default(),
            cooldown: Cooldown::default(),
            market,
        }
    }

    /// The per-update-tick trading pass: sweep expired halves, sync trade
    /// tree membership, renew live borrowings, and anycast borrow requests
    /// for starved VMs — into their own bundle first, the spot market
    /// after.
    pub fn tick(&mut self, host: &mut Host, ctx: &mut Ctx<'_, '_, '_, '_>) {
        let now = ctx.now();
        // 1. Expiry is the partition-safe backstop: both halves carry the
        // same expiry, so the sweep needs no coordination.
        let expired = host.book.expire(now);
        host.lendable_moved |= !expired.is_empty();
        for half in expired {
            self.forget_lease(half.lease.id);
            if let Some(m) = &mut self.market {
                m.requoted.remove(&half.lease.id.0);
            }
        }
        // 2. Membership: one trade tree per hosted customer.
        let desired = customers_of(host);
        for &c in &desired {
            self.groups.get_or_insert_with(c, || {
                let group = trade_group(c);
                ctx.join(group);
                group
            });
        }
        self.groups.retain(|c, &mut group| {
            let stay = desired.binary_search(c).is_ok();
            if !stay {
                ctx.leave(group);
            }
            stay
        });
        // 3. Renew each borrowing: the probe's delivery failure is the
        // borrower's early signal that the lender's host is gone.
        for h in host.book.halves().filter(|h| h.role == LeaseRole::Borrower) {
            if let Some(&peer) = self.peers.get(&h.lease.id.0) {
                ctx.send_client(peer, CtrlMsg::LeaseRenew { id: h.lease.id });
            }
        }
        // 4. Borrow scan. VMs that already tried their own bundle (ask
        // outstanding or unanswered) graduate to a priced cross-tenant ask
        // in the market's slice of the tick.
        self.cooldown.sweep(now);
        // In id order: the cooldown is keyed by VM id.
        let tried_intra: Option<Vec<VmId>> =
            self.market.as_ref().map(|_| self.cooldown.vms().collect());
        let asked = borrow_scan(host, ctx, &mut self.cooldown, false, trade_group, |_| true);
        host.book.stats.requests_sent.add(asked);
        if let (Some(m), Some(tried)) = (&mut self.market, tried_intra) {
            m.tick(host, ctx, &tried);
        }
    }

    /// A [`BorrowRequest`] walked a trade tree (`q.spot` false: the
    /// customer's own; true: the pod's spot group) to this server.
    /// Accepting means committing as lender on the spot: pick the hosted
    /// VM with the most room — a sibling, or on the spot market another
    /// tenant's VM within its isolation cap — debit it, and chase the
    /// borrower's ack via the courier. `mid_shed` names VMs the shuffle is
    /// currently offering to receivers; those do not lend.
    pub fn lend(
        &mut self,
        host: &mut Host,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        group: GroupId,
        q: &BorrowRequest,
        mid_shed: impl Fn(VmId) -> bool,
    ) -> bool {
        let market = self.market.as_ref().filter(|_| q.spot);
        let right_tree = match market {
            Some(m) => group == m.group,
            None => !q.spot && self.groups.get(&q.customer) == Some(&group),
        };
        let me = ctx.self_handle();
        // Intra-server imbalance is the shaper's job, and a server never
        // sells to itself.
        if !right_tree || q.origin.actor == me.actor {
            return false;
        }
        let now = ctx.now();
        let margin = (1.0 - TRADE_MARGIN).max(0.0);
        let mut capped = false;
        let best = host
            .vms
            .iter()
            .filter(|vm| match market {
                Some(_) => vm.customer != q.customer,
                None => vm.customer == q.customer && vm.id != q.borrower,
            })
            .filter(|vm| !mid_shed(vm.id))
            .map(|vm| {
                let mut room = lendable_mbps(vm, host.book.delta(vm.id, now), margin);
                if let Some(m) = market {
                    let cap_room = m.cap_room_mbps(host, vm.customer, now);
                    capped |= room >= MIN_LEASE_MBPS && cap_room < MIN_LEASE_MBPS;
                    room = room.min(cap_room);
                }
                (vm.id, vm.customer, room)
            })
            .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)));
        let Some((lender, customer, room)) = best else {
            return false;
        };
        let give = room.min(q.amount.bandwidth.as_mbps());
        if give < MIN_LEASE_MBPS {
            if let (Some(m), true) = (market, capped) {
                m.stats.spot_rejected_cap.inc();
            }
            return false;
        }
        let amount = ResourceVector::bandwidth_only(Bandwidth::from_mbps(give));
        let until = now + host.config.lease_duration;
        let kind = if q.spot { &SPOT_GRANT } else { &LEASE_GRANT };
        // Within a bundle the buyer is the lender's own customer: a free
        // lease. Across tenants the lease is priced.
        self.mint(host, ctx, q.origin, kind, |id| Lease {
            buyer: q.customer,
            ..Lease::free(id, customer, lender, q.borrower, amount, now, until)
        });
        true
    }

    /// Commits this server as lender of the lease `terms` builds around a
    /// freshly minted op id, and starts chasing the borrower's ack — the one
    /// place a lease is minted, whether it is free, priced, or the priced
    /// replacement of an expiring one. A cross-tenant lease carries the
    /// quoted spot price and is booked as revenue the moment it is debited
    /// (prepaid; reversed only on provable delivery failure).
    fn mint(
        &mut self,
        host: &mut Host,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        to: NodeHandle,
        kind: &'static Kind,
        terms: impl FnOnce(LeaseId) -> Lease,
    ) -> u64 {
        let raw = host.next_op(ctx.self_handle().actor);
        let mut lease = terms(LeaseId(raw));
        if let (true, Some(m)) = (lease.cross_tenant(), &self.market) {
            lease.price = m.index.quote(ASK_MARKUP);
        }
        host.book.record(lease, LeaseRole::Lender, to.actor);
        host.lendable_moved = true;
        self.peers.insert(raw, to);
        host.book.stats.grants_sent.inc();
        if let (true, Some(m)) = (lease.is_priced(), &mut self.market) {
            m.book(&lease, EntrySide::Revenue);
        }
        host.event(kind, raw, to.actor.index() as u64);
        let timeout = self.courier.register(raw);
        ctx.send_client(
            to,
            CtrlMsg::BorrowGrant {
                lease: Box::new(lease),
            },
        );
        ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
        raw
    }

    /// A lender's committed offer arrived at the borrower's host.
    fn on_grant(
        &mut self,
        host: &mut Host,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        from: NodeHandle,
        lease: Lease,
    ) {
        let now = ctx.now();
        let id = lease.id;
        // Retried grants re-ack: the earlier ack may have been lost.
        if host.book.contains(id) {
            ctx.send_client(from, CtrlMsg::LeaseAck { id, accepted: true });
            return;
        }
        // Admission: the borrowed reservation must still fit next to
        // everything the server has promised, or the shaper could not
        // honor it. Stale terms (expired in flight) are refused too. Priced
        // grants additionally need the market on and its buyer policy.
        let accepted = host.hosts(lease.borrower)
            && lease.expires > now
            && lease.starts < lease.expires
            && lease.amount.is_sane()
            && host.admits(lease.amount)
            && (!lease.is_priced()
                || self
                    .market
                    .as_ref()
                    .is_some_and(|m| m.buyer_accepts(host, &lease)));
        if accepted {
            host.book.record(lease, LeaseRole::Borrower, from.actor);
            host.lendable_moved = true;
            self.peers.insert(id.0, from);
            host.book.stats.leases_borrowed.inc();
            let mut kind = &LEASE_BORROWED;
            if let (true, Some(m)) = (lease.is_priced(), &mut self.market) {
                // The buyer's side of price discovery: the cleared price
                // steers this pod's index too.
                m.book(&lease, EntrySide::Spend);
                m.stats.spot_trades.inc();
                kind = &SPOT_BORROWED;
            }
            host.event(kind, id.0, from.actor.index() as u64);
        }
        ctx.send_client(from, CtrlMsg::LeaseAck { id, accepted });
    }

    /// Trading's direct messages.
    pub fn on_direct(
        &mut self,
        host: &mut Host,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        from: NodeHandle,
        msg: CtrlMsg,
    ) {
        match msg {
            CtrlMsg::BorrowGrant { lease } => self.on_grant(host, ctx, from, *lease),
            // The borrower host's verdict on a grant.
            CtrlMsg::LeaseAck { id, accepted } => {
                self.courier.ack(id.0);
                if !accepted {
                    self.reclaim(host, id);
                }
            }
            CtrlMsg::LeaseRenew { id } => self.on_renew(host, ctx, from, id),
            CtrlMsg::LeaseRelease { id } => {
                self.drop_half(host, id);
            }
            _ => {}
        }
    }

    /// One of trading's direct messages bounced off a dead host.
    pub fn on_bounce(&mut self, host: &mut Host, msg: CtrlMsg) {
        match msg {
            // The borrower's host is gone before the grant even arrived.
            CtrlMsg::BorrowGrant { lease } => self.reclaim(host, lease.id),
            // The lender's host is dead, so the borrowed credit has no
            // backing debit. Drop it now rather than ride it to expiry.
            CtrlMsg::LeaseRenew { id } => {
                self.drop_half(host, id);
            }
            _ => {}
        }
    }

    /// The grant for `id` provably never became a borrower half — the
    /// borrower refused it, or its host was gone before the grant arrived
    /// — so nobody recorded credit (or spend): the lender reclaims its
    /// debit and, for a priced lease, its revenue. Unlike a give-up, where
    /// the ack may have been lost *after* the borrower recorded its half.
    fn reclaim(&mut self, host: &mut Host, id: LeaseId) {
        let dropped = self.drop_half(host, id);
        host.book.stats.grants_rejected.inc();
        if let (true, Some(m)) = (
            dropped.is_some_and(|h| h.lease.is_priced()),
            &mut self.market,
        ) {
            m.reverse(id.0);
        }
    }

    /// A renewal probe arrived at the lender. For a lease it no longer
    /// carries (expired, released) it tells the borrower to drop its half;
    /// a known *priced* lease near expiry is answered with a replacement
    /// grant at the current spot price — never a silent extension at the
    /// original terms. The replacement starts exactly when its predecessor
    /// expires, so entitlement is continuous but every window is re-priced;
    /// the borrower applies the same max-price/budget policy as to any
    /// other grant and simply lets the old lease lapse if the new price is
    /// unacceptable.
    fn on_renew(
        &mut self,
        host: &mut Host,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        from: NodeHandle,
        id: LeaseId,
    ) {
        let Some(h) = host.book.get(id).copied() else {
            ctx.send_client(from, CtrlMsg::LeaseRelease { id });
            return;
        };
        let Some(m) = &self.market else {
            return;
        };
        if h.role != LeaseRole::Lender || !h.lease.is_priced() || m.requoted.contains_key(&id.0) {
            return;
        }
        // Only near expiry (within two update ticks): earlier probes are
        // plain liveness checks.
        let now = ctx.now();
        let window = (host.config.update_interval * 2).as_micros();
        if h.lease.expires.as_micros().saturating_sub(now.as_micros()) > window {
            return;
        }
        // The replacement must still clear the isolation cap; the old
        // lease is still counted (conservative — it overlaps the check,
        // not the window).
        if m.cap_room_mbps(host, h.lease.customer, now) < h.lease.amount.bandwidth.as_mbps() {
            return;
        }
        let until = h.lease.expires + host.config.lease_duration;
        let raw = self.mint(host, ctx, from, &SPOT_REQUOTE, |id| Lease {
            id,
            starts: h.lease.expires,
            expires: until,
            ..h.lease
        });
        if let Some(m) = &mut self.market {
            m.requoted.insert(id.0, raw);
            m.stats.requotes.inc();
        }
    }

    /// The grant-ack timeout for lease `raw` fired on the lender.
    pub fn on_retry(&mut self, host: &mut Host, ctx: &mut Ctx<'_, '_, '_, '_>, raw: u64) {
        match self.courier.on_timeout(raw) {
            RetryDecision::Settled => {}
            RetryDecision::GiveUp => {
                // The ack may have been lost AFTER the borrower recorded
                // its half, so reclaiming the debit here could mint credit
                // out of thin air. Keep the half; expiry reconciles. The
                // same logic keeps a priced lease's revenue entry: the
                // borrower may well have paid (spend booked), and revenue
                // without spend is the tolerated direction.
                host.book.stats.lender_losses.inc();
                self.peers.remove(&raw);
            }
            RetryDecision::Retry { timeout } => {
                let half = host.book.get(LeaseId(raw)).copied();
                let peer = self.peers.get(&raw).copied();
                match (half, peer) {
                    (Some(h), Some(p)) if h.role == LeaseRole::Lender => {
                        ctx.send_client(
                            p,
                            CtrlMsg::BorrowGrant {
                                lease: Box::new(h.lease),
                            },
                        );
                        ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
                    }
                    _ => self.courier.forget(raw),
                }
            }
        }
    }

    /// Forgets who to chase for `id`.
    fn forget_lease(&mut self, id: LeaseId) {
        self.peers.remove(&id.0);
        self.courier.forget(id.0);
    }

    /// Drops a lease half and all bookkeeping attached to it.
    fn drop_half(&mut self, host: &mut Host, id: LeaseId) -> Option<HalfLease> {
        self.forget_lease(id);
        host.lendable_moved = true;
        host.book.revert(id)
    }

    /// A detected peer failure reverts *borrower* halves whose lender
    /// lived there — credit without a backing debit is the unsafe
    /// direction. Lender halves stay: the borrower may be alive behind a
    /// partition, and a kept debit only under-uses the bundle until
    /// expiry.
    pub fn on_peer_failed(&mut self, host: &mut Host, failed: NodeHandle) {
        for id in host.book.ids_with_peer(failed.actor) {
            if host
                .book
                .get(id)
                .is_some_and(|h| h.role == LeaseRole::Borrower)
            {
                self.drop_half(host, id);
            }
        }
    }

    /// Unwinds every lease `vm` is party to. With a `ctx` (planned
    /// shutdown, fence) each peer is told to drop the opposite half;
    /// without one (backstop) the peers' halves linger until expiry.
    pub fn release_vm(
        &mut self,
        host: &mut Host,
        mut ctx: Option<&mut Ctx<'_, '_, '_, '_>>,
        vm: VmId,
    ) {
        for id in host.book.ids_involving(vm) {
            host.book.revert(id);
            host.lendable_moved = true;
            self.courier.forget(id.0);
            if let (Some(peer), Some(ctx)) = (self.peers.remove(&id.0), ctx.as_deref_mut()) {
                ctx.send_client(peer, CtrlMsg::LeaseRelease { id });
            }
        }
    }

    /// `vm` was shut down without a chance to notify anyone.
    pub fn forget_vm(&mut self, host: &mut Host, vm: VmId) {
        self.release_vm(host, None, vm);
        self.cooldown.clear(vm);
    }

    /// Lease halves survive a crash (client state persists); re-arm the
    /// ack chase for every grant still awaiting its `LeaseAck`.
    pub fn rearm(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        for raw in self.courier.outstanding_keys() {
            let timeout = self.courier.arm(raw);
            ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
        }
    }
}

/// The customers with a VM on this server, sorted and deduplicated.
pub(super) fn customers_of(host: &Host) -> Vec<CustomerId> {
    let mut customers: Vec<CustomerId> = host.vms.iter().map(|vm| vm.customer).collect();
    customers.sort_unstable();
    customers.dedup();
    customers
}

/// What `vm` could lend given its lease `(inflow, outflow)` — right now
/// with the book's `delta` at this instant, at any instant of a span with
/// its `delta_over` the span — bounded by two different ceilings:
///  - `spare`: live entitlement it is not using (minus the self-insurance
///    margin), so lending never starves the lender;
///  - `lendable`: base reservation minus what it already lent out.
///    Borrowed entitlement is deliberately NOT re-lendable — re-lending
///    would let a released upstream lease drive the middle row negative
///    and mint phantom credit.
///
/// Both grow with the VM's net inflow, so the book's bound on that over
/// a span bounds them.
fn lendable_mbps(
    vm: &VmRecord,
    (inflow, outflow): (ResourceVector, ResourceVector),
    margin: f64,
) -> f64 {
    let spec = vm.spec.shifted(inflow, outflow);
    let used = vm.demand.bandwidth.min(spec.limit.bandwidth).as_mbps();
    let spare = (spec.reservation.bandwidth.as_mbps() - used).max(0.0) * margin;
    let lendable = (vm.spec.reservation.bandwidth - outflow.bandwidth)
        .as_mbps()
        .max(0.0);
    spare.min(lendable)
}

/// Anycast summary of a trade tree's subtree: nobody below lends.
const NOBODY: Summary = 0;
/// Somebody below lends to whoever asks.
const ANYBODY: Summary = Summary::MAX;

/// Only VMs of `customer` lend below — of no use to a spot ask from that
/// customer, who buys across tenants only. (The two customer ids this
/// cannot tell from [`ANYBODY`] read as that, which is the safe side.)
fn only(customer: CustomerId) -> Summary {
    customer.0.checked_add(1).unwrap_or(ANYBODY)
}

/// `Controller`'s `ScribeClient::summary_join`: `Trade-<c>` subtrees say
/// [`NOBODY`] or [`ANYBODY`]; `Spot-<pod>` subtrees add [`only`], and two
/// different lending customers make anybody.
pub(super) fn summary_join(a: Summary, b: Summary) -> Summary {
    match (a, b) {
        (NOBODY, s) | (s, NOBODY) => s,
        (a, b) if a == b => a,
        _ => ANYBODY,
    }
}

/// `Controller`'s `ScribeClient::summary_admits` for a borrow request —
/// the filter [`Trade::lend`] applies to the lending VM's customer.
pub(super) fn summary_admits(summary: Summary, q: &BorrowRequest) -> bool {
    match summary {
        NOBODY => false,
        ANYBODY => true,
        one => one != only(q.customer),
    }
}

/// This server's own anycast summaries, kept until something moves.
#[derive(Debug, Default)]
struct Offers {
    /// Customers with a hosted VM that can lend within its bundle: their
    /// `Trade-<c>` summary is [`ANYBODY`], any other [`NOBODY`].
    intra: Vec<CustomerId>,
    /// The `Spot-<pod>` summary: the customers with a VM that can lend
    /// across tenants, isolation cap included.
    spot: Summary,
    /// No promise reaching this instant or beyond can be read off the
    /// cache: a lease half starts or expires here, which may let a VM
    /// lend more. Zero until first computed.
    good_before: SimTime,
}

impl Trade {
    /// What an anycast into `group` could get from this server at any
    /// instant from `now` to `until`; `None` if `group` is not one of the
    /// trade trees it is in. `mid_shed` as for [`Trade::lend`], whose
    /// acceptance test this summarizes.
    pub fn summary(
        &mut self,
        host: &mut Host,
        group: GroupId,
        now: SimTime,
        until: SimTime,
        mid_shed: impl Fn(VmId) -> bool,
    ) -> Option<Summary> {
        let spot = self.market.as_ref().is_some_and(|m| m.group == group);
        let mut trees = self.groups.iter();
        let customer = trees.find_map(|(&c, &g)| (g == group).then_some(c));
        if !spot && customer.is_none() {
            return None;
        }
        if mem::take(&mut host.lendable_moved) || until >= self.offers.good_before {
            let margin = (1.0 - TRADE_MARGIN).max(0.0);
            self.offers = Offers {
                intra: Vec::new(),
                spot: NOBODY,
                good_before: host.book.next_boundary(until),
            };
            let ids: Vec<VmId> = host.vms.iter().map(|vm| vm.id).collect();
            let flows = host.book.deltas_over(&ids, now, until);
            for (vm, &flow) in host.vms.iter().zip(&flows) {
                if mid_shed(vm.id) || lendable_mbps(vm, flow, margin) < MIN_LEASE_MBPS {
                    continue;
                }
                if !self.offers.intra.contains(&vm.customer) {
                    self.offers.intra.push(vm.customer);
                }
                if let Some(m) = &self.market {
                    if m.cap_room_mbps(host, vm.customer, until) >= MIN_LEASE_MBPS {
                        self.offers.spot = summary_join(self.offers.spot, only(vm.customer));
                    }
                }
            }
        }
        Some(match customer {
            Some(c) if self.offers.intra.contains(&c) => ANYBODY,
            Some(_) => NOBODY,
            None => self.offers.spot,
        })
    }

    /// Has Scribe re-read this server's summary of every trade tree in
    /// which it could have risen, so that a rise reaches the parent now.
    /// Where the last one computed is [`ANYBODY`] already there is nothing
    /// to gain: whatever Scribe last told the parent covers it.
    pub fn announce(&self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        for (c, &group) in self.groups.iter() {
            if !self.offers.intra.contains(c) {
                ctx.summary_changed(group);
            }
        }
        if let Some(m) = self.market.as_ref().filter(|m| m.in_group) {
            if self.offers.spot != ANYBODY {
                ctx.summary_changed(m.group);
            }
        }
    }
}

/// The starved-VM scan behind both borrow paths: a VM is starved when its
/// demand exceeds its live limit by at least a minimum lease. Each starved
/// VM that the (freshly swept) `cooldown` does not cover and `eligible`
/// lets through — at most [`MAX_TRADES_PER_ROUND`] of them — anycasts a
/// request for the gap into
/// `group_of(its customer)` and enters `cooldown` for two update
/// intervals; lenders answer with what they can actually spare. Returns
/// the number of requests sent.
pub(super) fn borrow_scan(
    host: &Host,
    ctx: &mut Ctx<'_, '_, '_, '_>,
    cooldown: &mut Cooldown,
    spot: bool,
    group_of: impl Fn(CustomerId) -> GroupId,
    eligible: impl Fn(VmId) -> bool,
) -> u64 {
    let now = ctx.now();
    let origin = ctx.self_handle();
    let asks: Vec<(VmId, CustomerId, f64)> = host
        .vms
        .iter()
        .filter(|vm| !cooldown.covers(vm.id) && eligible(vm.id))
        .map(|vm| {
            let limit = host.entitled_spec(vm).limit.bandwidth;
            let short = vm.demand.bandwidth.saturating_sub(limit).as_mbps();
            (vm.id, vm.customer, short)
        })
        .filter(|&(.., short)| short >= MIN_LEASE_MBPS)
        .take(MAX_TRADES_PER_ROUND)
        .collect();
    for &(borrower, customer, short) in &asks {
        cooldown.start(borrower, now + host.config.update_interval * 2);
        ctx.anycast(
            group_of(customer),
            CtrlMsg::Borrow(Box::new(BorrowRequest {
                customer,
                borrower,
                amount: ResourceVector::bandwidth_only(Bandwidth::from_mbps(short)),
                origin,
                spot,
            })),
        );
    }
    asks.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::vm;
    use crate::controller::Controller;
    use vbundle_aggregation::AggregationConfig;
    use vbundle_sim::ActorId;

    #[test]
    fn remove_vm_drops_lease_halves() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_bundle_trading(true),
        );
        c.install_vm(vm(1, 300.0, 300.0, 100.0));
        let lease = Lease::free(
            LeaseId(3),
            CustomerId(0),
            VmId(1),
            VmId(99),
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(50.0)),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        c.host
            .book
            .record(lease, LeaseRole::Lender, ActorId::new(9));
        c.trade.as_mut().expect("trading on").peers.insert(
            3,
            NodeHandle::new(vbundle_pastry::Id::from_u128(9), ActorId::new(9)),
        );
        assert!(c.host.book.vm_involved(VmId(1)));
        c.remove_vm(VmId(1));
        assert!(c.host.book.is_empty());
        assert!(c.trade.as_ref().expect("trading on").peers.is_empty());
        assert_eq!(c.host.book.stats.leases_reverted.get(), 1);
    }
}

//! The spot market: the priced, cross-tenant extension of bundle trading.
//! Lives inside [`Trade`](super::trade::Trade) and only when
//! `VBundleConfig::spot_market` is set; it owns the pod's price index,
//! this server's billing book, spot-group membership and the requote memo.

use std::collections::{BTreeMap, BTreeSet};

use vbundle_market::{BillingBook, BillingEntry, EntrySide, PriceIndex};
use vbundle_scribe::GroupId;
use vbundle_sim::SimTime;
use vbundle_trade::{Lease, LeaseRole};

use super::host::{Cooldown, Host};
use super::stats::MarketStats;
use super::trade::{borrow_scan, MIN_LEASE_MBPS};
use super::{spot_group, Ctx};
use crate::{CustomerId, SpotMarketConfig, VmId};

#[derive(Debug)]
pub(super) struct SpotMarket {
    pub cfg: SpotMarketConfig,
    /// This pod's spot price index: a seeded EWMA of trades this server
    /// cleared (as lender or borrower).
    pub index: PriceIndex,
    /// This server's half of the double-entry money ledger.
    pub billing: BillingBook,
    /// Whether this server is currently in its pod's spot group.
    pub in_group: bool,
    /// VMs whose last spot request went unanswered (or is outstanding).
    cooldown: Cooldown,
    /// Priced leases already re-quoted near expiry: old id → replacement
    /// id, so one lease is never replaced twice.
    pub requoted: BTreeMap<u64, u64>,
    /// The spot group of the pod this server sits in (set by the cluster
    /// builder; spot matching is pod-scoped).
    pub group: GroupId,
    /// The same counter shards as `Controller::market_stats`.
    pub stats: MarketStats,
}

impl SpotMarket {
    pub fn new(cfg: SpotMarketConfig, stats: MarketStats) -> Self {
        SpotMarket {
            cfg,
            index: PriceIndex::new(cfg.base_price, cfg.price_alpha),
            billing: BillingBook::new(),
            in_group: false,
            cooldown: Cooldown::default(),
            requoted: BTreeMap::new(),
            group: spot_group(0),
            stats,
        }
    }

    /// What the isolation cap still lets `customer` lend cross-tenant
    /// from this server: `cap × Σ base reservations − live cross-tenant
    /// outflow`. The outflow counts every unexpired lender half —
    /// including future-dated replacements, which are already committed
    /// capacity — so the cap can never be overshot by renewal timing.
    pub fn cap_room_mbps(&self, host: &Host, customer: CustomerId, now: SimTime) -> f64 {
        let base: f64 = host
            .vms
            .iter()
            .filter(|v| v.customer == customer)
            .map(|v| v.spec.reservation.bandwidth.as_mbps())
            .sum();
        let outflow: f64 = host
            .book
            .halves()
            .filter(|h| {
                h.role == LeaseRole::Lender
                    && h.lease.customer == customer
                    && h.lease.cross_tenant()
                    && h.lease.expires > now
            })
            .map(|h| h.lease.amount.bandwidth.as_mbps())
            .sum();
        (self.cfg.isolation_cap.clamp(0.0, 1.0) * base - outflow).max(0.0)
    }

    /// The spot-market slice of the trade tick: sync `Spot-<pod>` group
    /// membership, then issue priced cross-tenant asks for VMs their own
    /// bundle could not help (`tried_intra`: intra-bundle trading always
    /// gets first refusal).
    pub fn tick(
        &mut self,
        host: &Host,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        tried_intra: &BTreeSet<VmId>,
    ) {
        let now = ctx.now();
        // Membership: sell-side presence. A server joins its pod's spot
        // group while any hosted customer has isolation-capped headroom
        // left to sell.
        let customers: BTreeSet<CustomerId> = host.vms.iter().map(|v| v.customer).collect();
        let sellable = customers
            .iter()
            .any(|&c| self.cap_room_mbps(host, c, now) >= MIN_LEASE_MBPS);
        if sellable && !self.in_group {
            ctx.join(self.group);
        } else if !sellable && self.in_group {
            ctx.leave(self.group);
        }
        self.in_group = sellable;
        // Buy side: a VM still short although it already asked its own
        // bundle shops the pod's spot market, budget and price policy
        // enforced at grant time.
        self.cooldown.sweep(now);
        let group = self.group;
        let asked = borrow_scan(
            host,
            ctx,
            &mut self.cooldown,
            true,
            |_| group,
            |vm| tried_intra.contains(&vm),
        );
        self.stats.spot_asks.add(asked);
    }

    /// The buyer's market policy on a priced grant: the billed tenant must
    /// really be the borrower VM's, the ask must clear `max_price`, and the
    /// prepaid gross must fit the tenant's budget on this host.
    pub fn buyer_accepts(&self, host: &Host, lease: &Lease) -> bool {
        let buyer_ok = host
            .vms
            .iter()
            .any(|v| v.id == lease.borrower && v.customer == lease.buyer);
        if !buyer_ok {
            false
        } else if lease.price > self.cfg.max_price {
            self.stats.spot_rejected_price.inc();
            false
        } else if self.billing.spent_by(lease.buyer.0) + lease.gross() > self.cfg.budget {
            self.stats.spot_rejected_budget.inc();
            false
        } else {
            true
        }
    }

    /// Books one side of a cleared priced lease and folds its price into
    /// the index. A lender observes its own clearing optimistically at
    /// mint — once per lease, whatever the ack path does; the rare
    /// reversal leaves a slightly stale index, never a corrupt ledger.
    pub fn book(&mut self, lease: &Lease, side: EntrySide) {
        if let Some(entry) = BillingEntry::for_lease(lease, side, self.cfg.fee_rate) {
            self.billing.record(entry);
        }
        self.index.observe(lease.price);
    }

    /// A priced grant provably never reached a paying borrower: reverse
    /// its revenue, and if it was a renewal replacement let the old lease
    /// be re-quoted again later.
    pub fn reverse(&mut self, lease: u64) {
        if self.billing.reverse(lease).is_some() {
            self.stats.billing_reversals.inc();
        }
        self.requoted.retain(|_, &mut newer| newer != lease);
    }
}

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

/// Seed of the per-pod price index, per Mbps·s — the admission price
/// before the first trade clears.
const BASE_PRICE: f64 = 1.0;
/// EWMA weight of each cleared trade in the price index.
const PRICE_ALPHA: f64 = 0.2;
/// Cap on one tenant's prepaid spot spend per borrowing host. Spend is
/// metered locally (each host sees only its own book), so the
/// cluster-wide exposure of a tenant is `BUDGET × hosts` — a documented
/// limitation of the decentralized design.
const BUDGET: f64 = 1_000_000.0;
/// The provider's cut of every cleared trade's gross.
const FEE_RATE: f64 = 0.05;

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
            index: PriceIndex::new(BASE_PRICE, PRICE_ALPHA),
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
    /// prepaid gross must fit the tenant's [`BUDGET`] on this host.
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
        } else if self.billing.spent_by(lease.buyer.0) + lease.gross() > BUDGET {
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
        if let Some(entry) = BillingEntry::for_lease(lease, side, FEE_RATE) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::vm;
    use crate::{ResourceVector, VBundleConfig};
    use vbundle_aggregation::AggregationConfig;
    use vbundle_dcn::Bandwidth;
    use vbundle_trade::LeaseId;

    /// A spot lease at the index seed's price selling tenant 1's
    /// entitlement to `vm(1)` (tenant 0): 100 Mbps for `secs` seconds,
    /// so its gross is `100 × secs`.
    fn priced(id: u64, secs: u64) -> Lease {
        Lease {
            buyer: CustomerId(0),
            price: BASE_PRICE,
            ..Lease::free(
                LeaseId(id),
                CustomerId(1),
                VmId(9),
                VmId(1),
                ResourceVector::bandwidth_only(Bandwidth::from_mbps(100.0)),
                SimTime::ZERO,
                SimTime::from_secs(secs),
            )
        }
    }

    #[test]
    fn budget_refuses_a_grant_past_the_tenants_spend_cap() {
        let mut host = Host::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default(),
        );
        host.install(vm(1, 100.0, 200.0, 150.0));
        let mut market = SpotMarket::new(SpotMarketConfig::default(), MarketStats::default());
        // Tenant 0 has already prepaid 60 % of its budget on this host.
        let spent = priced(1, 6_000);
        assert!(market.buyer_accepts(&host, &spent));
        market.book(&spent, EntrySide::Spend);
        assert_eq!(market.billing.spent_by(0), 0.6 * BUDGET);
        // A grant 100 short of the remaining 40 % clears; one 100 past it
        // is refused and counted as a budget refusal, not a price one.
        assert!(market.buyer_accepts(&host, &priced(2, 3_999)));
        assert!(!market.buyer_accepts(&host, &priced(3, 4_001)));
        assert_eq!(market.stats.spot_rejected_budget.get(), 1);
        assert_eq!(market.stats.spot_rejected_price.get(), 0);
    }
}

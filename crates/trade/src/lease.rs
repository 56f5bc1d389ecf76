//! Time-bounded leases of entitlement between two VMs. Each server's
//! [`crate::TradeBook`] keeps one half of every lease it takes part in.

use std::fmt;

use vbundle_sim::SimTime;

use crate::ids::{CustomerId, VmId};
use crate::resources::ResourceVector;

/// Identifies a lease cluster-wide. The distributed matcher mints ids as
/// `(lender server index << 32) | local counter`, so ids are unique
/// without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(pub u64);

impl fmt::Display for LeaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lease{:#x}", self.0)
    }
}

/// A time-bounded transfer of entitlement between two VMs: `lender` gives
/// up `amount` (subtracted from both its reservation and its limit) and
/// `borrower` gains the same amount over the validity window
/// `[starts, expires)`. A lease is *live* while `starts <= now < expires`;
/// at the upper boundary it has already reverted.
///
/// Free intra-bundle leases (`price == 0`, `buyer == customer`) move
/// entitlement inside one customer's purchased bundle — the paper's group
/// offering. Priced leases are spot-market sales across bundles: the
/// capacity still comes out of the *lender's* customer's bundle
/// (`customer`), but the borrowing VM belongs to `buyer`, who prepays
/// [`Lease::gross`] for the whole window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lease {
    /// Unique id, also used as the Courier retry key in the runtime.
    pub id: LeaseId,
    /// The customer whose bundle the entitlement comes from (the lender
    /// VM's tenant).
    pub customer: CustomerId,
    /// The customer paying for the entitlement (the borrower VM's
    /// tenant). Equal to `customer` on free intra-bundle leases.
    pub buyer: CustomerId,
    /// VM giving up entitlement.
    pub lender: VmId,
    /// VM receiving entitlement.
    pub borrower: VmId,
    /// The transferred quantity, per dimension.
    pub amount: ResourceVector,
    /// Inclusive start of validity — the mint instant for ordinary
    /// leases; a renewal replacement starts when its predecessor expires.
    pub starts: SimTime,
    /// Exclusive end of validity: live while `expires > now`.
    pub expires: SimTime,
    /// Spot price per Mbps·s. `0.0` = free (intra-bundle trading).
    pub price: f64,
}

impl Lease {
    /// A free intra-bundle lease minted at `starts`.
    pub fn free(
        id: LeaseId,
        customer: CustomerId,
        lender: VmId,
        borrower: VmId,
        amount: ResourceVector,
        starts: SimTime,
        expires: SimTime,
    ) -> Self {
        Lease {
            id,
            customer,
            buyer: customer,
            lender,
            borrower,
            amount,
            starts,
            expires,
            price: 0.0,
        }
    }

    /// True when this lease carries a spot price (and therefore bills).
    pub fn is_priced(&self) -> bool {
        self.price > 0.0
    }

    /// True when the entitlement crosses tenant bundles.
    pub fn cross_tenant(&self) -> bool {
        self.buyer != self.customer
    }

    /// True while the validity window covers `now`.
    pub fn live_at(&self, now: SimTime) -> bool {
        self.starts <= now && self.expires > now
    }

    /// The prepaid charge: `price × Mbps × seconds` over the validity
    /// window. Both parties compute it from the identical wire terms, so
    /// the two billing entries of a trade always agree.
    pub fn gross(&self) -> f64 {
        let micros = self
            .expires
            .as_micros()
            .saturating_sub(self.starts.as_micros());
        self.price * self.amount.bandwidth.as_mbps() * (micros as f64 / 1e6)
    }
}

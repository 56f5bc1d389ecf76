//! **vbundle-trade** — the economic layer of v-Bundle: what a customer
//! *bought* and how her VMs may reshuffle it among themselves.
//!
//! The paper's namesake idea (§I, §III) is that a customer purchases a
//! *bundle* of capacity — not a set of rigid per-VM slices — and her VM
//! instances trade entitlements within that bundle: a starved VM borrows
//! Mbps from an idle sibling, the provider's only obligation being that
//! the sum of live entitlements never exceeds what was purchased. This
//! crate gives those objects a first-class home:
//!
//! - [`ResourceVector`] / [`ResourceSpec`] / [`ResourceKind`]: points in
//!   resource space and the reservation/limit contract (re-exported by
//!   `vbundle-core`, which layers placement and shaping on top);
//! - [`Lease`]: a time-bounded transfer of entitlement between two VMs;
//! - [`TradeBook`]: one server's half of the customer ledgers — each lease
//!   appears as a debit row on the lender's server and a credit row on
//!   the borrower's server, and the distributed conservation invariant
//!   (checked by `vbundle-chaos`) is that the halves always pair up and
//!   no customer's live entitlement exceeds what it purchased.
//!
//! The decentralized matcher that *creates* leases (Scribe anycast over
//! the customer's trade tree, Courier-backed commit) lives in the
//! controller of `vbundle-core`; everything here is pure bookkeeping and
//! therefore trivially deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod book;
mod ids;
mod lease;
mod resources;

pub use book::{HalfLease, LeaseRole, TradeBook, TradeStats};
pub use ids::{CustomerId, VmId};
pub use lease::{Lease, LeaseId};
pub use resources::{ResourceKind, ResourceSpec, ResourceVector};

//! The double-entry money ledger behind the spot market.

use std::collections::BTreeMap;

use vbundle_trade::Lease;

/// Numeric tolerance for pairing checks, in price units. Both sides
/// compute gross and fee from the identical lease terms on the wire, so
/// any divergence beyond float noise is a real protocol bug.
const EPS: f64 = 1e-6;

/// Which side of a cleared trade an entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntrySide {
    /// The borrower's host prepaid for the lease (tenant debit).
    Spend,
    /// The lender's host sold the lease (lender credit + provider fee).
    Revenue,
}

/// One row of a server's billing book: the money half of one priced
/// lease, recorded at commit time (prepaid — the charge covers the whole
/// validity window up front, so neither side needs to meter elapsed
/// time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingEntry {
    /// The lease this entry bills (raw [`LeaseId`](vbundle_trade::LeaseId)).
    pub lease: u64,
    /// Which side of the trade this row records.
    pub side: EntrySide,
    /// The paying customer (the borrower VM's tenant).
    pub payer: u32,
    /// The selling customer (the lender VM's tenant).
    pub payee: u32,
    /// `price × Mbps × seconds` over the lease's validity window.
    pub gross: f64,
    /// The provider's cut, retained out of `gross` before the payee is
    /// credited.
    pub fee: f64,
}

impl BillingEntry {
    /// The entry both parties derive from a priced lease's wire terms.
    /// Returns `None` for free (intra-bundle) leases — those are never
    /// billed.
    pub fn for_lease(lease: &Lease, side: EntrySide, fee_rate: f64) -> Option<BillingEntry> {
        if !lease.is_priced() {
            return None;
        }
        let gross = lease.gross();
        Some(BillingEntry {
            lease: lease.id.0,
            side,
            payer: lease.buyer.0,
            payee: lease.customer.0,
            gross,
            fee: gross * fee_rate.clamp(0.0, 1.0),
        })
    }
}

/// A tenant's bottom line, folded from one or many books.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BillingRecord {
    /// Total prepaid for borrowed entitlement.
    pub spend: f64,
    /// Total credited for lent entitlement, net of provider fees.
    pub revenue: f64,
    /// Provider fees retained out of this tenant's sales.
    pub fees: f64,
}

/// One server's half of the distributed billing ledger: at most one entry
/// per lease (the borrower's and lender's hosts are distinct by
/// construction, so the two halves of a trade always live in different
/// books). Keyed by lease id for deterministic iteration.
#[derive(Debug, Clone, Default)]
pub struct BillingBook {
    entries: BTreeMap<u64, BillingEntry>,
}

impl BillingBook {
    /// An empty book.
    pub const fn new() -> Self {
        BillingBook {
            entries: BTreeMap::new(),
        }
    }

    /// Records an entry. Returns `false` (book unchanged) on a duplicate
    /// lease id — retried grants must not double-bill.
    pub fn record(&mut self, entry: BillingEntry) -> bool {
        if self.entries.contains_key(&entry.lease) {
            return false;
        }
        self.entries.insert(entry.lease, entry);
        true
    }

    /// Reverses (removes) the entry for `lease`. Only called on provable
    /// failure — the borrower refused the grant or the grant bounced off
    /// a dead host — mirroring exactly when the lender may reclaim its
    /// lease debit.
    pub fn reverse(&mut self, lease: u64) -> Option<BillingEntry> {
        self.entries.remove(&lease)
    }

    /// The entry for `lease`, if any.
    pub fn get(&self, lease: u64) -> Option<&BillingEntry> {
        self.entries.get(&lease)
    }

    /// All entries, in lease-id order.
    pub fn entries(&self) -> impl Iterator<Item = &BillingEntry> {
        self.entries.values()
    }

    /// Number of entries on the book.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the book has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total gross this book's host has prepaid on behalf of `customer` —
    /// what the borrower-side budget check meters.
    pub fn spent_by(&self, customer: u32) -> f64 {
        self.entries
            .values()
            .filter(|e| e.side == EntrySide::Spend && e.payer == customer)
            .map(|e| e.gross)
            .sum()
    }

    /// Folds this book into per-tenant records: spend accrues to the
    /// payer of `Spend` entries, net revenue and fees to the payee of
    /// `Revenue` entries.
    pub fn fold_into(&self, out: &mut BTreeMap<u32, BillingRecord>) {
        for e in self.entries.values() {
            match e.side {
                EntrySide::Spend => out.entry(e.payer).or_default().spend += e.gross,
                EntrySide::Revenue => {
                    let rec = out.entry(e.payee).or_default();
                    rec.revenue += e.gross - e.fee;
                    rec.fees += e.fee;
                }
            }
        }
    }
}

/// The outcome of reassembling every server's [`BillingBook`].
#[derive(Debug, Clone, Default)]
pub struct Reconciliation {
    /// Broken pairings, described for a human. Empty = conserved.
    pub violations: Vec<String>,
    /// Σ gross over all `Spend` entries.
    pub total_spend: f64,
    /// Σ (gross − fee) over all `Revenue` entries.
    pub total_revenue: f64,
    /// Σ fee over all `Revenue` entries (the provider's income).
    pub total_fees: f64,
    /// `Revenue` entries with no matching `Spend` — the tolerated
    /// direction (grant or ack lost in flight; analogous to a dangling
    /// lender lease half).
    pub unmatched_revenue: usize,
}

impl Reconciliation {
    /// True when every spend paired and, beyond the tolerated dangling
    /// revenue, the books balance: `Σ spend == Σ revenue + Σ fees`. In a
    /// loss-free run `unmatched_revenue` is 0 and this is exact
    /// conservation.
    pub fn balanced(&self) -> bool {
        self.violations.is_empty() && self.unmatched_revenue == 0
    }
}

/// Reassembles the cluster's billing books and checks the per-pair
/// conservation invariant: every tenant `Spend` entry has a matching
/// lender `Revenue` entry — same lease, same parties, equal gross, equal
/// fee. A spend without revenue means a tenant paid for entitlement
/// nobody sold (the unsafe direction, exactly like phantom lease
/// credit); it is always a violation. A revenue without spend means the
/// sale never reached the buyer (lost grant) and is only counted.
pub fn reconcile<'a>(books: impl IntoIterator<Item = &'a BillingBook>) -> Reconciliation {
    let mut spends: BTreeMap<u64, &BillingEntry> = BTreeMap::new();
    let mut revenues: BTreeMap<u64, &BillingEntry> = BTreeMap::new();
    let mut out = Reconciliation::default();
    for book in books {
        for e in book.entries() {
            let (map, label) = match e.side {
                EntrySide::Spend => (&mut spends, "spend"),
                EntrySide::Revenue => (&mut revenues, "revenue"),
            };
            if map.insert(e.lease, e).is_some() {
                out.violations.push(format!(
                    "billing: lease {:#x} has two {label} entries across the cluster",
                    e.lease
                ));
            }
        }
    }
    for (id, s) in &spends {
        out.total_spend += s.gross;
        match revenues.get(id) {
            None => out.violations.push(format!(
                "billing: customer {} paid {:.6} for lease {id:#x} but no lender booked the sale",
                s.payer, s.gross
            )),
            Some(r) => {
                if (r.gross - s.gross).abs() > EPS {
                    out.violations.push(format!(
                        "billing: lease {id:#x} gross disagrees (spend {:.6} vs revenue {:.6})",
                        s.gross, r.gross
                    ));
                }
                if (r.fee - s.fee).abs() > EPS {
                    out.violations.push(format!(
                        "billing: lease {id:#x} provider fee disagrees ({:.6} vs {:.6})",
                        s.fee, r.fee
                    ));
                }
                if r.payer != s.payer || r.payee != s.payee {
                    out.violations.push(format!(
                        "billing: lease {id:#x} parties disagree ({}->{} vs {}->{})",
                        s.payer, s.payee, r.payer, r.payee
                    ));
                }
            }
        }
    }
    for (id, r) in &revenues {
        out.total_revenue += r.gross - r.fee;
        out.total_fees += r.fee;
        if !spends.contains_key(id) {
            out.unmatched_revenue += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lease: u64, side: EntrySide, gross: f64, fee: f64) -> BillingEntry {
        BillingEntry {
            lease,
            side,
            payer: 1,
            payee: 2,
            gross,
            fee,
        }
    }

    #[test]
    fn record_is_idempotent_and_reversible() {
        let mut book = BillingBook::new();
        assert!(book.record(entry(7, EntrySide::Spend, 100.0, 5.0)));
        assert!(!book.record(entry(7, EntrySide::Spend, 100.0, 5.0)));
        assert_eq!(book.len(), 1);
        assert_eq!(book.spent_by(1), 100.0);
        assert_eq!(book.spent_by(2), 0.0);
        assert!(book.reverse(7).is_some());
        assert!(book.reverse(7).is_none());
        assert!(book.is_empty());
    }

    #[test]
    fn reconcile_pairs_and_balances() {
        let mut borrower = BillingBook::new();
        let mut lender = BillingBook::new();
        borrower.record(entry(1, EntrySide::Spend, 100.0, 5.0));
        lender.record(entry(1, EntrySide::Revenue, 100.0, 5.0));
        let rec = reconcile([&borrower, &lender]);
        assert!(rec.balanced(), "{:?}", rec.violations);
        assert_eq!(rec.total_spend, 100.0);
        assert_eq!(rec.total_revenue, 95.0);
        assert_eq!(rec.total_fees, 5.0);
        assert!((rec.total_spend - (rec.total_revenue + rec.total_fees)).abs() < EPS);
    }

    #[test]
    fn spend_without_revenue_is_a_violation() {
        let mut borrower = BillingBook::new();
        borrower.record(entry(1, EntrySide::Spend, 100.0, 5.0));
        let rec = reconcile([&borrower]);
        assert_eq!(rec.violations.len(), 1);
        assert!(rec.violations[0].contains("no lender booked"));
    }

    #[test]
    fn dangling_revenue_is_tolerated_but_counted() {
        let mut lender = BillingBook::new();
        lender.record(entry(1, EntrySide::Revenue, 100.0, 5.0));
        let rec = reconcile([&lender]);
        assert!(rec.violations.is_empty());
        assert_eq!(rec.unmatched_revenue, 1);
        assert!(!rec.balanced());
    }

    #[test]
    fn mismatched_terms_are_violations() {
        let mut borrower = BillingBook::new();
        let mut lender = BillingBook::new();
        borrower.record(entry(1, EntrySide::Spend, 100.0, 5.0));
        lender.record(entry(1, EntrySide::Revenue, 90.0, 4.0));
        let rec = reconcile([&borrower, &lender]);
        assert_eq!(rec.violations.len(), 2);
    }

    #[test]
    fn fold_into_accumulates_per_tenant() {
        let mut borrower = BillingBook::new();
        let mut lender = BillingBook::new();
        borrower.record(entry(1, EntrySide::Spend, 100.0, 5.0));
        lender.record(entry(1, EntrySide::Revenue, 100.0, 5.0));
        let mut out = BTreeMap::new();
        borrower.fold_into(&mut out);
        lender.fold_into(&mut out);
        assert_eq!(out[&1].spend, 100.0);
        assert_eq!(out[&2].revenue, 95.0);
        assert_eq!(out[&2].fees, 5.0);
    }
}

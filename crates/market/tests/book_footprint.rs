//! What a server's two ledgers cost for the one row most of them hold: a
//! `TradeBook` with one lease half and a `BillingBook` with one entry each
//! allocate room for at most four rows, the `FlatMap` bound of
//! `max(4, 2 × peak length)` (DESIGN.md "Per-server footprint"). A
//! `BTreeMap` allocated an 11-row leaf for the first.
//!
//! One test only: the counting allocator is this test binary's global
//! allocator, and the count is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use vbundle_market::{BillingBook, BillingEntry, EntrySide};
use vbundle_sim::{ActorId, SimTime};
use vbundle_trade::{
    CustomerId, HalfLease, Lease, LeaseId, LeaseRole, ResourceVector, TradeBook, VmId,
};

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a bump of a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes `f` leaves behind.
fn kept_by(f: impl FnOnce()) -> usize {
    let before = LIVE.with(Cell::get);
    f();
    (LIVE.with(Cell::get) - before) as usize
}

#[test]
fn one_row_books_allocate_at_most_four_rows() {
    let lease = Lease::free(
        LeaseId(1),
        CustomerId(0),
        VmId(10),
        VmId(20),
        ResourceVector::ZERO,
        SimTime::ZERO,
        SimTime::from_secs(60),
    );
    let mut book = TradeBook::new();
    let half_bytes = kept_by(|| {
        assert!(book.record(lease, LeaseRole::Lender, ActorId::new(5)));
    });
    let half_row = size_of::<(LeaseId, HalfLease)>();
    assert!(
        half_bytes <= 4 * half_row,
        "one lease half keeps {half_bytes} B, more than 4 rows of {half_row} B"
    );

    let mut billing = BillingBook::new();
    let entry = BillingEntry {
        lease: 1,
        side: EntrySide::Revenue,
        payer: 0,
        payee: 1,
        gross: 100.0,
        fee: 5.0,
    };
    let entry_bytes = kept_by(|| {
        assert!(billing.record(entry));
    });
    let entry_row = size_of::<(u64, BillingEntry)>();
    assert!(
        entry_bytes <= 4 * entry_row,
        "one billing entry keeps {entry_bytes} B, more than 4 rows of {entry_row} B"
    );
    assert_eq!((book.len(), billing.len()), (1, 1));
}

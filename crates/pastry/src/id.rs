//! The 128-bit circular identifier space shared by node ids and keys.
//!
//! Pastry (Rowstron & Druschel, Middleware 2001) assigns each node a
//! 128-bit identifier interpreted as a sequence of digits in base `2^b`
//! (`b = 4` here, so 32 hexadecimal digits). Messages are routed toward the
//! node whose id is *numerically closest* to the destination key on the
//! circular space.

use std::fmt;

use rand::Rng;

/// Number of bits per routing digit (`b` in the Pastry paper).
pub const BITS_PER_DIGIT: u32 = 4;
/// Radix of a digit: `2^b = 16`.
pub const DIGIT_BASE: usize = 1 << BITS_PER_DIGIT;
/// Number of digits in an id: `128 / b = 32`.
pub const NUM_DIGITS: usize = 128 / BITS_PER_DIGIT as usize;

/// A point on the 128-bit circular identifier space.
///
/// Used both as a node identifier ([`NodeId`]) and as a message key
/// ([`Key`]); Pastry draws them from the same space.
///
/// ```
/// use vbundle_pastry::Id;
/// let a = Id::from_u128(0x8000_0000_0000_0000_0000_0000_0000_0000);
/// assert_eq!(a.digit(0), 0x8);
/// assert_eq!(a.digit(1), 0x0);
/// let b = Id::from_u128(0x8f00_0000_0000_0000_0000_0000_0000_0000);
/// assert_eq!(a.shared_prefix_len(b), 1);
/// ```
///
/// Stored 4-byte aligned (a `u128` asks for 16), so a [`NodeHandle`]
/// (id + 4-byte address) is 20 bytes with no padding rather than 32 —
/// three eighths off every handle carried in a message and every id in
/// the [`Roster`]. Loads and stores are unaligned, which cost no measurable
/// time on x86-64 (DESIGN.md, "Message layout and ownership").
///
/// [`NodeHandle`]: crate::NodeHandle
/// [`Roster`]: crate::Roster
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(C, packed(4))]
pub struct Id(u128);

/// A Pastry node identifier.
pub type NodeId = Id;
/// A Pastry routing key (e.g. `hash(customer)` or a Scribe group id).
pub type Key = Id;

impl Id {
    /// The id at position zero.
    pub const ZERO: Id = Id(0);

    /// Creates an id from its raw 128-bit value.
    pub const fn from_u128(v: u128) -> Id {
        Id(v)
    }

    /// The raw 128-bit value.
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// Hashes a textual name into the id space, as the paper does for
    /// customer names (`hash(IBM)`) and Scribe group names.
    ///
    /// Uses 128-bit FNV-1a: not cryptographic, but uniform and stable,
    /// which is all the simulation requires.
    ///
    /// ```
    /// use vbundle_pastry::Id;
    /// assert_eq!(Id::from_name("IBM"), Id::from_name("IBM"));
    /// assert_ne!(Id::from_name("IBM"), Id::from_name("ibm"));
    /// ```
    pub fn from_name(name: &str) -> Id {
        const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
        const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;
        let mut hash = FNV_OFFSET;
        for byte in name.as_bytes() {
            hash ^= *byte as u128;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        Id(hash)
    }

    /// Draws a uniformly random id.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Id {
        Id(rng.gen())
    }

    /// The `i`-th digit (0 = most significant), in `0..16`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_DIGITS`.
    pub fn digit(self, i: usize) -> usize {
        assert!(i < NUM_DIGITS, "digit index out of range");
        let shift = 128 - BITS_PER_DIGIT as usize * (i + 1);
        ((self.0 >> shift) & (DIGIT_BASE as u128 - 1)) as usize
    }

    /// Length of the shared digit prefix with `other`, in digits
    /// (`NUM_DIGITS` when equal).
    pub fn shared_prefix_len(self, other: Id) -> usize {
        let diff = self.0 ^ other.0;
        if diff == 0 {
            return NUM_DIGITS;
        }
        diff.leading_zeros() as usize / BITS_PER_DIGIT as usize
    }

    /// Clockwise (increasing, wrapping) distance from `self` to `other`.
    #[inline]
    pub fn cw_distance(self, other: Id) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// Circular distance to `other`: the smaller of the clockwise and
    /// counter-clockwise arcs.
    ///
    /// ```
    /// use vbundle_pastry::Id;
    /// let a = Id::from_u128(1);
    /// let b = Id::from_u128(u128::MAX); // one step counter-clockwise of 0
    /// assert_eq!(a.ring_distance(b), 2);
    /// ```
    #[inline]
    pub fn ring_distance(self, other: Id) -> u128 {
        let cw = self.cw_distance(other);
        let ccw = other.cw_distance(self);
        cw.min(ccw)
    }

    /// True if `self` lies on the clockwise arc from `from` (exclusive) to
    /// `to` (inclusive).
    pub fn in_cw_arc(self, from: Id, to: Id) -> bool {
        if from == to {
            // The degenerate arc covers the whole ring.
            return true;
        }
        from.cw_distance(self) <= from.cw_distance(to) && self != from
    }

    /// Of `a` and `b`, the one numerically closer to `self` on the ring;
    /// ties break toward the smaller raw id so comparisons are total.
    pub fn closer_of(self, a: Id, b: Id) -> Id {
        let da = self.ring_distance(a);
        let db = self.ring_distance(b);
        match da.cmp(&db) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => {
                if a.0 <= b.0 {
                    a
                } else {
                    b
                }
            }
        }
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:032x})", self.as_u128())
    }
}

impl fmt::Display for Id {
    /// Shows the first 8 hex digits — enough to tell nodes apart in logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", (self.0 >> 96) as u32)
    }
}

impl From<u128> for Id {
    fn from(v: u128) -> Id {
        Id(v)
    }
}

impl From<Id> for u128 {
    fn from(id: Id) -> u128 {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn digits_msb_first() {
        let id = Id::from_u128(0x1234_5678_9abc_def0_0000_0000_0000_0000);
        assert_eq!(id.digit(0), 0x1);
        assert_eq!(id.digit(1), 0x2);
        assert_eq!(id.digit(7), 0x8);
        assert_eq!(id.digit(15), 0x0);
        assert_eq!(id.digit(NUM_DIGITS - 1), 0x0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_bounds() {
        let _ = Id::ZERO.digit(NUM_DIGITS);
    }

    #[test]
    fn shared_prefix() {
        let a = Id::from_u128(0xabcd_0000_0000_0000_0000_0000_0000_0000);
        let b = Id::from_u128(0xabce_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix_len(b), 3);
        assert_eq!(a.shared_prefix_len(a), NUM_DIGITS);
        assert_eq!(Id::ZERO.shared_prefix_len(Id::from_u128(u128::MAX)), 0);
    }

    #[test]
    fn ring_distance_wraps() {
        let near_top = Id::from_u128(u128::MAX - 4);
        let near_zero = Id::from_u128(5);
        assert_eq!(near_top.ring_distance(near_zero), 10);
        assert_eq!(near_zero.ring_distance(near_top), 10);
        assert_eq!(near_zero.ring_distance(near_zero), 0);
    }

    #[test]
    fn cw_arc_membership() {
        let a = Id::from_u128(10);
        let b = Id::from_u128(20);
        assert!(Id::from_u128(15).in_cw_arc(a, b));
        assert!(Id::from_u128(20).in_cw_arc(a, b));
        assert!(!Id::from_u128(10).in_cw_arc(a, b));
        assert!(!Id::from_u128(25).in_cw_arc(a, b));
        // Wrapping arc.
        assert!(Id::from_u128(5).in_cw_arc(b, a));
        assert!(!Id::from_u128(15).in_cw_arc(b, a));
        // Degenerate arc covers everything.
        assert!(Id::from_u128(7).in_cw_arc(a, a));
    }

    #[test]
    fn closer_of_breaks_ties_consistently() {
        let center = Id::from_u128(100);
        let lo = Id::from_u128(90);
        let hi = Id::from_u128(110);
        assert_eq!(center.closer_of(lo, hi), lo); // tie -> smaller raw value
        assert_eq!(center.closer_of(hi, lo), lo);
        assert_eq!(center.closer_of(Id::from_u128(99), hi), Id::from_u128(99));
    }

    #[test]
    fn name_hash_is_spread_out() {
        let names = ["Accolade", "Beenox", "Crystal", "Deck13", "Epyx"];
        let ids: Vec<Id> = names.iter().map(|n| Id::from_name(n)).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j]);
                // Not pathologically clustered.
                assert!(ids[i].ring_distance(ids[j]) > u128::MAX / 1000);
            }
        }
    }

    #[test]
    fn random_ids_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Id::random(&mut rng);
        let b = Id::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn formatting() {
        let id = Id::from_u128(0xdead_beef_0000_0000_0000_0000_0000_0000);
        assert_eq!(format!("{id}"), "deadbeef");
        assert!(format!("{id:?}").starts_with("Id(deadbeef"));
    }

    #[test]
    fn u128_conversions() {
        let id: Id = 42u128.into();
        let v: u128 = id.into();
        assert_eq!(v, 42);
    }
}

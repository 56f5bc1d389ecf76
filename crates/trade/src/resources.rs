//! Multi-dimensional resource quantities: CPU, memory, bandwidth.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use vbundle_dcn::{Bandwidth, ServerCapacity};

/// The resource dimensions v-Bundle manages. The paper's evaluation
/// focuses on bandwidth; CPU and memory are carried through the same
/// machinery (its §VII lists multi-metric shuffling as future work, which
/// this reproduction implements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Compute capacity in abstract units.
    Cpu,
    /// Memory in megabytes.
    Memory,
    /// Network bandwidth.
    Bandwidth,
}

impl ResourceKind {
    /// All dimensions.
    pub const ALL: [ResourceKind; 3] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Bandwidth,
    ];
}

/// A point in resource space — a demand, a reservation, a limit or a
/// capacity.
///
/// ```
/// use vbundle_trade::ResourceVector;
/// use vbundle_dcn::Bandwidth;
/// let small = ResourceVector::new(1.0, 1024.0, Bandwidth::from_mbps(100.0));
/// let host = ResourceVector::new(4.0, 16384.0, Bandwidth::from_gbps(1.0));
/// assert!(small.fits_within(&host));
/// assert!(!host.fits_within(&small));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// CPU units.
    pub cpu: f64,
    /// Memory in megabytes.
    pub memory_mb: f64,
    /// Network bandwidth.
    pub bandwidth: Bandwidth,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        cpu: 0.0,
        memory_mb: 0.0,
        bandwidth: Bandwidth::ZERO,
    };

    /// Creates a resource vector.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `cpu` or `memory_mb` is negative.
    pub fn new(cpu: f64, memory_mb: f64, bandwidth: Bandwidth) -> Self {
        debug_assert!(cpu >= 0.0 && memory_mb >= 0.0);
        ResourceVector {
            cpu,
            memory_mb,
            bandwidth,
        }
    }

    /// A bandwidth-only vector — convenient for the paper's experiments,
    /// which treat bandwidth as the bottleneck resource.
    pub fn bandwidth_only(bandwidth: Bandwidth) -> Self {
        ResourceVector {
            cpu: 0.0,
            memory_mb: 0.0,
            bandwidth,
        }
    }

    /// The value along one dimension (bandwidth in Mbps).
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.cpu,
            ResourceKind::Memory => self.memory_mb,
            ResourceKind::Bandwidth => self.bandwidth.as_mbps(),
        }
    }

    /// True if every dimension of `self` is ≤ the corresponding dimension
    /// of `other` (with a tiny epsilon for float accumulation).
    pub fn fits_within(&self, other: &ResourceVector) -> bool {
        const EPS: f64 = 1e-6;
        self.cpu <= other.cpu + EPS
            && self.memory_mb <= other.memory_mb + EPS
            && self.bandwidth.as_mbps() <= other.bandwidth.as_mbps() + EPS
    }

    /// Element-wise subtraction clamped at zero.
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: (self.cpu - other.cpu).max(0.0),
            memory_mb: (self.memory_mb - other.memory_mb).max(0.0),
            bandwidth: self.bandwidth.saturating_sub(other.bandwidth),
        }
    }

    /// The largest utilization fraction across dimensions, given a
    /// capacity. Dimensions with zero capacity are skipped.
    pub fn max_utilization(&self, capacity: &ResourceVector) -> f64 {
        let mut max = 0.0f64;
        for kind in ResourceKind::ALL {
            let cap = capacity.get(kind);
            if cap > 0.0 {
                max = max.max(self.get(kind) / cap);
            }
        }
        max
    }

    /// Element-wise scaling by a non-negative factor — how survivable
    /// placement derives a backup reservation (e.g. 25% of the primary)
    /// from a VM's reservation vector.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or not finite.
    pub fn scale(&self, factor: f64) -> ResourceVector {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        ResourceVector {
            cpu: self.cpu * factor,
            memory_mb: self.memory_mb * factor,
            bandwidth: self.bandwidth * factor,
        }
    }

    /// True when every dimension is finite and non-negative — the wire
    /// screen applied before a quantity may enter a ledger. Anything else
    /// (NaN from a corrupted message, a negative "amount") would silently
    /// mint or destroy entitlement.
    pub fn is_sane(&self) -> bool {
        ResourceKind::ALL
            .iter()
            .all(|&k| self.get(k).is_finite() && self.get(k) >= 0.0)
    }
}

impl From<ServerCapacity> for ResourceVector {
    fn from(c: ServerCapacity) -> ResourceVector {
        ResourceVector {
            cpu: c.cpu_units,
            memory_mb: c.memory_mb,
            bandwidth: c.bandwidth,
        }
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu + rhs.cpu,
            memory_mb: self.memory_mb + rhs.memory_mb,
            bandwidth: self.bandwidth + rhs.bandwidth,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        *self = *self - rhs;
    }
}

impl std::iter::Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:.2} mem={:.0}MB bw={}",
            self.cpu, self.memory_mb, self.bandwidth
        )
    }
}

/// A VM's contract with the cloud (§III.B): *reservation* is the minimum
/// guaranteed amount (the VM powers on only if it is available);
/// *limit* is the hard upper bound (more than the reservation may be
/// allocated when the workload grows, but never beyond the limit).
///
/// This replaces Amazon EC2's single fixed tuple, which the paper argues
/// wastes idle resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSpec {
    /// Minimum guaranteed resources.
    pub reservation: ResourceVector,
    /// Maximum allowed resources.
    pub limit: ResourceVector,
}

impl ResourceSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if the reservation exceeds the limit in any dimension.
    pub fn new(reservation: ResourceVector, limit: ResourceVector) -> Self {
        assert!(
            reservation.fits_within(&limit),
            "reservation {reservation} exceeds limit {limit}"
        );
        ResourceSpec { reservation, limit }
    }

    /// An EC2-style fixed-size instance: reservation == limit.
    pub fn fixed(size: ResourceVector) -> Self {
        ResourceSpec {
            reservation: size,
            limit: size,
        }
    }

    /// A bandwidth-only spec.
    pub fn bandwidth(reservation: Bandwidth, limit: Bandwidth) -> Self {
        ResourceSpec::new(
            ResourceVector::bandwidth_only(reservation),
            ResourceVector::bandwidth_only(limit),
        )
    }

    /// This contract with `inflow` borrowed and `outflow` lent out. The
    /// same delta applies to reservation and limit, preserving
    /// `limit >= reservation`.
    pub fn shifted(self, inflow: ResourceVector, outflow: ResourceVector) -> Self {
        ResourceSpec {
            reservation: (self.reservation + inflow).saturating_sub(&outflow),
            limit: (self.limit + inflow).saturating_sub(&outflow),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(cpu: f64, mem: f64, bw: f64) -> ResourceVector {
        ResourceVector::new(cpu, mem, Bandwidth::from_mbps(bw))
    }

    #[test]
    fn fits_within_all_dimensions() {
        assert!(v(1.0, 100.0, 10.0).fits_within(&v(1.0, 100.0, 10.0)));
        assert!(!v(2.0, 100.0, 10.0).fits_within(&v(1.0, 200.0, 20.0)));
        assert!(!v(1.0, 100.0, 30.0).fits_within(&v(2.0, 200.0, 20.0)));
        assert!(ResourceVector::ZERO.fits_within(&ResourceVector::ZERO));
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = v(1.0, 100.0, 10.0);
        let b = v(2.0, 50.0, 5.0);
        assert_eq!(a + b, v(3.0, 150.0, 15.0));
        assert_eq!((a - b).cpu, 0.0);
        assert_eq!((b - a).memory_mb, 0.0);
        let total: ResourceVector = vec![a, b].into_iter().sum();
        assert_eq!(total, a + b);
    }

    #[test]
    fn max_utilization_picks_bottleneck() {
        let cap = v(4.0, 1000.0, 100.0);
        let demand = v(1.0, 900.0, 50.0);
        assert!((demand.max_utilization(&cap) - 0.9).abs() < 1e-12);
        // Zero-capacity dimensions are skipped, not divided by.
        let bw_only = ResourceVector::bandwidth_only(Bandwidth::from_mbps(80.0));
        let bw_cap = ResourceVector::bandwidth_only(Bandwidth::from_mbps(100.0));
        assert!((bw_only.max_utilization(&bw_cap) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn scale_is_elementwise() {
        let a = v(2.0, 100.0, 40.0);
        assert_eq!(a.scale(0.25), v(0.5, 25.0, 10.0));
        assert_eq!(a.scale(0.0), ResourceVector::ZERO);
        assert_eq!(a.scale(1.0), a);
    }

    #[test]
    fn sanity_screen() {
        assert!(v(1.0, 2.0, 3.0).is_sane());
        assert!(ResourceVector::ZERO.is_sane());
        let nan = ResourceVector {
            cpu: f64::NAN,
            ..ResourceVector::ZERO
        };
        assert!(!nan.is_sane());
        let neg = ResourceVector {
            memory_mb: -1.0,
            ..ResourceVector::ZERO
        };
        assert!(!neg.is_sane());
    }

    #[test]
    fn spec_construction() {
        let s = ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(200.0));
        assert_eq!(s.reservation.bandwidth.as_mbps(), 100.0);
        assert_eq!(s.limit.bandwidth.as_mbps(), 200.0);
        let f = ResourceSpec::fixed(v(1.0, 2.0, 3.0));
        assert_eq!(f.reservation, f.limit);
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn reservation_above_limit_rejected() {
        let _ = ResourceSpec::new(v(2.0, 0.0, 0.0), v(1.0, 0.0, 0.0));
    }

    #[test]
    fn capacity_conversion() {
        let cap: ResourceVector = ServerCapacity::paper_testbed().into();
        assert_eq!(cap.bandwidth.as_mbps(), 1000.0);
        assert_eq!(cap.memory_mb, 16_384.0);
        assert_eq!(cap.get(ResourceKind::Cpu), 4.0);
    }
}

//! Measurement helpers behind the paper's figures: co-location statistics
//! (Figs. 7–8), utilization dispersion (Figs. 9–10) and satisfied-versus-
//! demanded bandwidth (Fig. 11).

use std::collections::BTreeMap;

use vbundle_dcn::{Bandwidth, ServerId, Topology, TrafficMatrix};

use crate::{shaper, CustomerId, VmRecord};

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation — the Y axis of Figure 10.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1 when perfectly even,
/// `1/n` when one server carries everything. A compact alternative to the
/// SD series of Figure 10 for judging rebalancing quality.
pub fn jains_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq_sum: f64 = xs.iter().map(|x| x * x).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq_sum)
}

/// Locality of one customer's VM footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomerLocality {
    /// The customer.
    pub customer: CustomerId,
    /// Number of VMs placed.
    pub vms: usize,
    /// Number of distinct racks hosting at least one VM.
    pub racks_spanned: usize,
    /// Fraction of same-customer VM pairs that share a rack.
    pub same_rack_pair_fraction: f64,
    /// Mean physical distance (0–3) between same-customer VM pairs.
    pub mean_pair_distance: f64,
}

/// Computes per-customer locality from `(customer, server)` placements —
/// the quantitative reading of the Figure 7/8 scatter plots — in customer
/// order.
///
/// Pair statistics are computed from per-rack counts, so the cost is
/// `O(V + racks²)` per customer rather than `O(V²)`.
pub fn customer_locality(
    topo: &Topology,
    placements: &[(CustomerId, ServerId)],
) -> Vec<CustomerLocality> {
    per_customer(placements)
        .into_iter()
        .map(|(c, servers)| {
            let n = servers.len();
            let mut rack_counts: BTreeMap<usize, f64> = BTreeMap::new();
            let mut server_counts: BTreeMap<usize, f64> = BTreeMap::new();
            let mut pod_counts: BTreeMap<usize, f64> = BTreeMap::new();
            for &s in &servers {
                *rack_counts.entry(topo.rack_of(s).index()).or_default() += 1.0;
                *server_counts.entry(s.index()).or_default() += 1.0;
                *pod_counts.entry(topo.pod_of(s).index()).or_default() += 1.0;
            }
            let pairs = |k: f64| k * (k - 1.0) / 2.0;
            let total_pairs = pairs(n as f64);
            let same_server: f64 = server_counts.values().map(|&k| pairs(k)).sum();
            let same_rack: f64 = rack_counts.values().map(|&k| pairs(k)).sum();
            let same_pod: f64 = pod_counts.values().map(|&k| pairs(k)).sum();
            let (same_rack_frac, mean_dist) = if total_pairs > 0.0 {
                // Distance: 0 same server, 1 same rack, 2 same pod,
                // 3 cross pod.
                let d_sum = (same_rack - same_server)
                    + 2.0 * (same_pod - same_rack)
                    + 3.0 * (total_pairs - same_pod);
                (same_rack / total_pairs, d_sum / total_pairs)
            } else {
                (1.0, 0.0)
            };
            CustomerLocality {
                customer: CustomerId(c),
                vms: n,
                racks_spanned: rack_counts.len(),
                same_rack_pair_fraction: same_rack_frac,
                mean_pair_distance: mean_dist,
            }
        })
        .collect()
}

/// The servers of each customer's VMs, in customer order.
fn per_customer(placements: &[(CustomerId, ServerId)]) -> BTreeMap<u32, Vec<ServerId>> {
    let mut per_customer: BTreeMap<u32, Vec<ServerId>> = BTreeMap::new();
    for &(c, s) in placements {
        per_customer.entry(c.0).or_default().push(s);
    }
    per_customer
}

/// Builds the all-pairs "chatting VMs" traffic matrix the paper's
/// placement argument assumes: every pair of same-customer VMs exchanges
/// `rate_per_pair`, with each VM's total spread over its peers. Flows
/// come customer by customer, in customer order.
pub fn chatting_traffic(
    topo: &Topology,
    placements: &[(CustomerId, ServerId)],
    per_vm_rate: Bandwidth,
) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new();
    for servers in per_customer(placements).values() {
        let n = servers.len();
        if n < 2 {
            continue;
        }
        let pair_rate = per_vm_rate / (n - 1) as f64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    tm.add_flow(servers[i], servers[j], pair_rate);
                }
            }
        }
    }
    let _ = topo;
    tm
}

/// Per-server satisfied vs. demanded bandwidth (Fig. 11's two series),
/// computed from hosted VMs under the HTB shaper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SatisfactionTotals {
    /// Σ raw demand over all VMs.
    pub demand: Bandwidth,
    /// Σ shaper-granted bandwidth over all VMs.
    pub satisfied: Bandwidth,
}

impl SatisfactionTotals {
    /// Accumulates one server's VMs.
    pub fn add_server(&mut self, capacity: Bandwidth, vms: &[VmRecord]) {
        self.add_allocations(&shaper::allocate(capacity, vms));
    }

    /// Accumulates pre-computed allocations — the entitlement-aware path:
    /// controllers hand over their live-ledger shaper output directly.
    pub fn add_allocations(&mut self, allocs: &[shaper::Allocation]) {
        self.demand += shaper::total_demand(allocs);
        self.satisfied += shaper::total_granted(allocs);
    }

    /// Demand left unsatisfied.
    pub fn shortfall(&self) -> Bandwidth {
        self.demand.saturating_sub(self.satisfied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CustomerId, ResourceSpec, ResourceVector, VmId};

    fn topo() -> Topology {
        Topology::builder()
            .pods(2)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build()
    }

    #[test]
    fn stats_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[5.0, 5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jains_fairness_bounds() {
        assert_eq!(jains_fairness(&[]), 1.0);
        assert_eq!(jains_fairness(&[0.0, 0.0]), 1.0);
        assert!((jains_fairness(&[0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
        // One server carries everything: 1/n.
        assert!((jains_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mild skew sits strictly between.
        let j = jains_fairness(&[0.8, 0.4, 0.4]);
        assert!(j > 1.0 / 3.0 && j < 1.0);
    }

    #[test]
    fn locality_of_clustered_vs_scattered() {
        let t = topo();
        let c = CustomerId(0);
        // Clustered: 4 VMs on the 2 servers of rack 0.
        let clustered: Vec<_> = [0, 0, 1, 1].iter().map(|&s| (c, t.server(s))).collect();
        let l = &customer_locality(&t, &clustered)[0];
        assert_eq!(l.vms, 4);
        assert_eq!(l.racks_spanned, 1);
        assert_eq!(l.same_rack_pair_fraction, 1.0);
        // Pairs: (0,0),(1,1) same server ×2, 4 cross-server same-rack.
        assert!((l.mean_pair_distance - 4.0 / 6.0).abs() < 1e-12);

        // Scattered: one VM per pod corner.
        let scattered: Vec<_> = [0, 2, 4, 6].iter().map(|&s| (c, t.server(s))).collect();
        let l = &customer_locality(&t, &scattered)[0];
        assert_eq!(l.racks_spanned, 4);
        assert_eq!(l.same_rack_pair_fraction, 0.0);
        assert!(l.mean_pair_distance > 2.0);
    }

    #[test]
    fn locality_handles_single_vm() {
        let t = topo();
        let l = customer_locality(&t, &[(CustomerId(1), t.server(3))]);
        assert_eq!(l[0].vms, 1);
        assert_eq!(l[0].same_rack_pair_fraction, 1.0);
        assert_eq!(l[0].mean_pair_distance, 0.0);
    }

    #[test]
    fn chatting_traffic_stays_in_rack_when_clustered() {
        let t = topo();
        let c = CustomerId(0);
        let clustered: Vec<_> = [0, 1].iter().map(|&s| (c, t.server(s))).collect();
        let tm = chatting_traffic(&t, &clustered, Bandwidth::from_mbps(100.0));
        let report = tm.bisection_report(&t);
        assert_eq!(report.bisection_traffic(), Bandwidth::ZERO);
        assert_eq!(report.total().as_mbps(), 200.0);

        let scattered: Vec<_> = [0, 7].iter().map(|&s| (c, t.server(s))).collect();
        let tm = chatting_traffic(&t, &scattered, Bandwidth::from_mbps(100.0));
        let report = tm.bisection_report(&t);
        assert_eq!(report.bisection_traffic().as_mbps(), 200.0);
    }

    /// Flows come customer by customer in key order, so two calls on the
    /// same placements agree flow for flow (a per-process-seeded table
    /// once made the order differ from one call to the next).
    #[test]
    fn chatting_traffic_is_in_customer_order() {
        let t = topo();
        let placements: Vec<_> = (0..40u32)
            .map(|i| (CustomerId(i % 10 * 7 % 10), t.server(i as usize % 8)))
            .collect();
        let rate = Bandwidth::from_mbps(50.0);
        let first = chatting_traffic(&t, &placements, rate);
        assert_eq!(first.len(), 10 * 4 * 3);
        assert_eq!(
            first.flows(),
            chatting_traffic(&t, &placements, rate).flows()
        );
        let locality = customer_locality(&t, &placements);
        let order: Vec<u32> = locality.iter().map(|l| l.customer.0).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn satisfaction_totals_accumulate() {
        let mut totals = SatisfactionTotals::default();
        let mut vm = VmRecord::new(
            VmId(1),
            CustomerId(0),
            ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(100.0)),
        );
        vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(300.0));
        totals.add_server(Bandwidth::from_mbps(400.0), &[vm]);
        // Demand is raw; the fixed-size instance only gets its 100 Mbps.
        assert_eq!(totals.demand.as_mbps(), 300.0);
        assert_eq!(totals.satisfied.as_mbps(), 100.0);
        assert_eq!(totals.shortfall().as_mbps(), 200.0);

        let mut vm2 = vm;
        vm2.spec =
            ResourceSpec::bandwidth(Bandwidth::from_mbps(100.0), Bandwidth::from_mbps(500.0));
        totals.add_server(Bandwidth::from_mbps(200.0), &[vm2]);
        // The flexible instance borrows up to the 200 Mbps NIC.
        assert_eq!(totals.demand.as_mbps(), 300.0 + 300.0);
        assert_eq!(totals.satisfied.as_mbps(), 100.0 + 200.0);
        assert_eq!(totals.shortfall().as_mbps(), 300.0);
    }
}

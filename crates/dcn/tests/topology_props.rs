//! Property tests for the datacenter model: topology indexing is
//! consistent, proximity is a well-behaved hierarchy, and bisection
//! accounting conserves traffic.

use proptest::prelude::*;
use vbundle_dcn::{Bandwidth, ProximityLevel, Topology, TrafficMatrix};
use vbundle_pastry::Site;
use vbundle_sim::ActorId;

fn arb_topo() -> impl Strategy<Value = Topology> {
    (1u32..5, 1u32..6, 1u32..8).prop_map(|(pods, racks, servers)| {
        Topology::builder()
            .pods(pods)
            .racks_per_pod(racks)
            .servers_per_rack(servers)
            .build()
    })
}

/// Irregular topologies: one pod of racks with the given sizes.
fn arb_rack_sizes_topo() -> impl Strategy<Value = Topology> {
    proptest::collection::vec(1u32..8, 1..8)
        .prop_map(|sizes| Topology::builder().rack_sizes(&sizes).build())
}

/// The per-server `(rack, pod)` table agrees with the rack records, and
/// `Site::of` reads it for every server and `Site::OFF` past them.
fn check_sites(topo: &Topology) -> Result<(), TestCaseError> {
    for server in topo.servers() {
        let rack = topo.rack_of(server);
        prop_assert_eq!(topo.pod_of(server), topo.pod_of_rack(rack));
        prop_assert!(topo.servers_in_rack(rack).any(|s| s == server));
    }
    let n = topo.num_servers() as u32;
    for a in (0..n + 8).chain([u32::MAX - 1]) {
        let want = if a < n {
            let server = topo.server(a as usize);
            Site {
                rack: topo.rack_of(server).index() as u32,
                pod: topo.pod_of_rack(topo.rack_of(server)).index() as u32,
            }
        } else {
            Site::OFF
        };
        prop_assert_eq!(Site::of(topo, ActorId::new(a)), want, "actor {}", a);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Regular and `rack_sizes` topologies alike.
    #[test]
    fn site_table_matches_rack_records(regular in arb_topo(), irregular in arb_rack_sizes_topo()) {
        check_sites(&regular)?;
        check_sites(&irregular)?;
    }

    /// Rack/pod/slot indexing round-trips for every server.
    #[test]
    fn indexing_is_consistent(topo in arb_topo()) {
        let mut seen = 0usize;
        for rack in topo.racks() {
            for server in topo.servers_in_rack(rack) {
                prop_assert_eq!(topo.rack_of(server), rack);
                prop_assert_eq!(topo.pod_of(server), topo.pod_of_rack(rack));
                prop_assert!((topo.slot_of(server) as usize) < topo.rack_size(rack));
                seen += 1;
            }
        }
        prop_assert_eq!(seen, topo.num_servers());
        // servers() iterates the same set.
        prop_assert_eq!(topo.servers().count(), topo.num_servers());
    }

    /// Proximity is symmetric, reflexive at SameServer, and consistent
    /// with the rack/pod structure.
    #[test]
    fn proximity_is_hierarchical(topo in arb_topo(), a in any::<u32>(), b in any::<u32>()) {
        let n = topo.num_servers() as u32;
        let (x, y) = (topo.server((a % n) as usize), topo.server((b % n) as usize));
        prop_assert_eq!(topo.proximity(x, y), topo.proximity(y, x));
        prop_assert_eq!(topo.proximity(x, x), ProximityLevel::SameServer);
        match topo.proximity(x, y) {
            ProximityLevel::SameServer => prop_assert_eq!(x, y),
            ProximityLevel::SameRack => {
                prop_assert_ne!(x, y);
                prop_assert_eq!(topo.rack_of(x), topo.rack_of(y));
            }
            ProximityLevel::SamePod => {
                prop_assert_ne!(topo.rack_of(x), topo.rack_of(y));
                prop_assert_eq!(topo.pod_of(x), topo.pod_of(y));
            }
            ProximityLevel::CrossPod => {
                prop_assert_ne!(topo.pod_of(x), topo.pod_of(y));
            }
        }
    }

    /// Bisection accounting conserves traffic: the four levels sum to the
    /// matrix total, and up-link loads are exactly twice the bisection
    /// traffic (each crossing flow loads both endpoints' ToRs).
    #[test]
    fn bisection_report_conserves(
        topo in arb_topo(),
        flows in proptest::collection::vec((any::<u32>(), any::<u32>(), 0.1f64..500.0), 0..40),
    ) {
        let n = topo.num_servers() as u32;
        let mut tm = TrafficMatrix::new();
        for (src, dst, rate) in flows {
            tm.add_flow(
                topo.server((src % n) as usize),
                topo.server((dst % n) as usize),
                Bandwidth::from_mbps(rate),
            );
        }
        let r = tm.bisection_report(&topo);
        let level_sum = r.intra_server + r.intra_rack + r.cross_rack + r.cross_pod;
        prop_assert!((level_sum.as_mbps() - tm.total().as_mbps()).abs() < 1e-6);
        let uplink_sum: f64 = r.uplinks.iter().map(|u| u.load.as_mbps()).sum();
        prop_assert!(
            (uplink_sum - 2.0 * r.bisection_traffic().as_mbps()).abs() < 1e-6,
            "uplinks {} != 2 × bisection {}",
            uplink_sum,
            r.bisection_traffic().as_mbps()
        );
        let pod_sum: f64 = r.pod_uplinks.iter().map(|b| b.as_mbps()).sum();
        prop_assert!((pod_sum - 2.0 * r.cross_pod.as_mbps()).abs() < 1e-6);
        prop_assert!(r.bisection_fraction() >= 0.0 && r.bisection_fraction() <= 1.0 + 1e-12);
    }
}

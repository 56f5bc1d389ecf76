//! Datacenter network substrate for the v-Bundle reproduction.
//!
//! The paper (§I–§II) targets today's hierarchical datacenter networks:
//! servers under top-of-rack (ToR) switches whose up-links are 1:5–1:20
//! oversubscribed, making *bi-section bandwidth* the scarce resource that
//! v-Bundle's topology-aware placement preserves.
//!
//! This crate models that substrate:
//!
//! - [`Topology`] — pods → racks → servers with per-level link capacities
//!   and an oversubscription ratio (the paper's testbed uses 8:1);
//! - [`ProximityLevel`] / [`Topology::proximity`] — the physical distance
//!   metric Pastry's neighbor set and the placement algorithm rely on;
//! - [`TopologyLatency`] — a latency model where cross-rack hops cost more
//!   than intra-rack hops, flattened into a `vbundle_sim::Latency` for the
//!   engine;
//! - [`TrafficMatrix`] / [`BisectionReport`] — accounting of how much
//!   inter-VM traffic crosses rack and pod boundaries, the headline metric
//!   of Figures 7–8.
//!
//! # Example
//!
//! ```
//! use vbundle_dcn::{Topology, TrafficMatrix, Bandwidth};
//!
//! let topo = Topology::builder()
//!     .pods(2)
//!     .racks_per_pod(2)
//!     .servers_per_rack(4)
//!     .oversubscription(8.0)
//!     .build();
//! assert_eq!(topo.num_servers(), 16);
//!
//! let mut tm = TrafficMatrix::new();
//! tm.add_flow(topo.server(0), topo.server(1), Bandwidth::from_mbps(100.0)); // same rack
//! tm.add_flow(topo.server(0), topo.server(15), Bandwidth::from_mbps(50.0)); // cross pod
//! let report = tm.bisection_report(&topo);
//! assert_eq!(report.intra_rack.as_mbps(), 100.0);
//! assert_eq!(report.cross_pod.as_mbps(), 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod proximity;
mod server;
mod topology;
mod traffic;

pub use bandwidth::Bandwidth;
pub use proximity::{ProximityLevel, TopologyLatency};
pub use server::ServerCapacity;
pub use topology::{DomainKind, PodId, RackId, ServerId, Topology, TopologyBuilder};
pub use traffic::{BisectionReport, Flow, TrafficMatrix, UplinkLoad};

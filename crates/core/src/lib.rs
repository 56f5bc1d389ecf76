//! **v-Bundle** — flexible group resource offerings in clouds.
//!
//! A from-scratch reproduction of *"v-Bundle: Flexible Group Resource
//! Offerings in Clouds"* (Hu, Ryu, Da Silva, Schwan — ICDCS 2012). Cloud
//! customers buy bundles of VM instances whose aggregate capacity they own
//! but — under fixed-size offerings — cannot move between instances.
//! v-Bundle lets a customer's VMs *trade* capacity:
//!
//! 1. **Topology-aware placement** (§II): VM boot queries are routed
//!    through a Pastry overlay to `hash(customer)`, so "chatting" VMs of
//!    one customer land in the same rack and spare the datacenter's
//!    scarce bi-section bandwidth;
//! 2. **Decentralized resource shuffling** (§III): Scribe aggregation
//!    trees give every server the cluster mean utilization; overloaded
//!    servers (*shedders*) anycast load-balance queries into the
//!    *Less-Loaded* tree, and accepting *receivers* take migrated VMs,
//!    letting customers exploit their own workload variations.
//!
//! The crate provides the per-server [`Controller`], the HTB-style
//! [`shaper`] (rate/ceil semantics of §III.D), offline placement engines
//! ([`ClusterModel`]) including the paper's greedy baseline, the
//! measurement helpers behind every figure ([`metrics`]) and a one-stop
//! [`Cluster`] harness.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use vbundle_core::{Cluster, Customer, CustomerId, ResourceSpec, ResourceVector};
//! use vbundle_dcn::{Bandwidth, Topology};
//! use vbundle_sim::SimDuration;
//!
//! // The paper's 15-server testbed.
//! let topo = Arc::new(Topology::paper_testbed());
//! let mut cluster = Cluster::builder(topo).seed(7).build();
//!
//! // One customer boots 4 standard instances through the DHT protocol.
//! let ibm = Customer::new(CustomerId(0), "IBM");
//! let spec = ResourceSpec::bandwidth(
//!     Bandwidth::from_mbps(100.0),
//!     Bandwidth::from_mbps(200.0),
//! );
//! let mut hosts = Vec::new();
//! for _ in 0..4 {
//!     let host = cluster
//!         .boot_and_run(0, &ibm, spec, ResourceVector::ZERO, SimDuration::from_secs(30))
//!         .expect("placed");
//!     hosts.push(host);
//! }
//! // Same-customer VMs land close together: all in one rack here.
//! let rack = cluster.topo.rack_of(hosts[0]);
//! assert!(hosts.iter().all(|&h| cluster.topo.rack_of(h) == rack));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod controller;
mod message;
pub mod metrics;
mod placement;
pub mod report;
pub mod shaper;
mod vm;

pub use cluster::{Cluster, ClusterBuilder, VbEngine};
pub use config::{FailoverConfig, SpotMarketConfig, SurvivabilityConfig, VBundleConfig};
pub use controller::{
    bw_capacity_topic, bw_demand_topic, capacity_topic, demand_topic, less_loaded_group,
    spot_group, trade_group, Controller, ControllerCounters, ControllerStats, MarketStats,
    ServerStatus, FAILOVER_TAG, REBALANCE_TAG, UPDATE_TAG,
};
pub use message::{BootQuery, BorrowRequest, CtrlMsg, LoadQuery, SurvCaps, Visited};
pub use metrics::{CustomerLocality, SatisfactionTotals};
pub use placement::{survivable_domain_cap, BackupCharge, ClusterModel, PlacementPolicy};
pub use report::ClusterReport;
// Resource-space types and party identities live in `vbundle-trade` (the
// economic layer below this crate); re-exported here so downstream code
// keeps importing them from `vbundle_core`.
pub use vbundle_market::{
    reconcile, BillingBook, BillingEntry, BillingRecord, EntrySide, PriceIndex, Reconciliation,
};
pub use vbundle_trade::{CustomerId, ResourceKind, ResourceSpec, ResourceVector, VmId};
pub use vm::{Customer, VmRecord};

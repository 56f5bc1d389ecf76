//! The cross-hypervisor aggregation abstraction of v-Bundle (§III.D).
//!
//! Every server stores local `(topic, value)` tuples — e.g.
//! `(BW_Capacity, 1000)`, `(BW_Demand, 620)` — and subscribes to one
//! Scribe tree per topic. Periodically, each leaf pushes its value to its
//! parent; every enclosing subtree merges its children's *reduction
//! information bases* with its own value and pushes upward; the root
//! computes the global aggregate and publishes it back down the tree. This
//! is how every v-Bundle server learns the cluster-wide mean utilization it
//! compares itself against when self-identifying as a load shedder or
//! receiver (§III.C).
//!
//! The component is embeddable: the v-Bundle controller hosts an
//! [`Aggregator`] next to its shuffling logic, while [`AggClient`] runs it
//! standalone for the Fig. 14 / Table I measurements.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vbundle_aggregation::{AggClient, AggregationConfig, Aggregator, UpdateMode};
//! use vbundle_dcn::Topology;
//! use vbundle_pastry::{overlay, IdAssignment, PastryConfig};
//! use vbundle_scribe::{group_id, Scribe};
//! use vbundle_sim::{Latency, SimDuration, SimTime};
//!
//! let topo = Arc::new(Topology::paper_testbed());
//! let (mut net, handles) = overlay::launch(
//!     &topo,
//!     IdAssignment::TopologyAware,
//!     PastryConfig::default(),
//!     1,
//!     Latency::Constant(SimDuration::from_millis(10)),
//!     |_, _| {
//!         Scribe::new(AggClient::new(Aggregator::new(AggregationConfig {
//!             mode: UpdateMode::Immediate,
//!             ..AggregationConfig::default()
//!         })))
//!     },
//! );
//!
//! // Every server reports bandwidth demand i*10 Mbps on one topic.
//! let t = group_id("BW_Demand");
//! for h in &handles {
//!     net.call(h.actor, |node, ctx| {
//!         node.app_call(ctx, |scribe, actx| {
//!             scribe.client_call(actx, |c, sctx| c.agg.subscribe(sctx, t));
//!         });
//!     });
//! }
//! net.run_until(SimTime::from_secs(2));
//! for (i, h) in handles.iter().enumerate() {
//!     net.call(h.actor, |node, ctx| {
//!         node.app_call(ctx, |scribe, actx| {
//!             scribe.client_call(actx, |c, sctx| {
//!                 c.agg.set_local(sctx, t, (i as f64) * 10.0)
//!             });
//!         });
//!     });
//! }
//! net.run_until(SimTime::from_secs(10));
//!
//! // Every node now knows the global sum: 0+10+...+140 = 1050.
//! for h in &handles {
//!     let global = net
//!         .actor(h.actor)
//!         .app()
//!         .client()
//!         .agg
//!         .global(t)
//!         .expect("global aggregate published");
//!     assert_eq!(global.sum, 1050.0);
//!     assert_eq!(global.count, 15);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
mod client;
mod message;
mod robust;
mod value;

pub use aggregator::{AggCarrier, AggregationConfig, Aggregator, UpdateMode, AGG_TICK_TAG};
pub use client::AggClient;
pub use message::AggMsg;
pub use robust::{winsorized_combine, RejectReason, Robustness};
pub use value::AggValue;

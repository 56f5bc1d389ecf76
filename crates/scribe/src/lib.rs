//! Scribe group communication (Castro et al.) on the [`vbundle_pastry`]
//! overlay — multicast trees and tree-walking anycast.
//!
//! v-Bundle (§III) uses Scribe for two facilities:
//!
//! - **Multicast** builds the hierarchical aggregation trees
//!   (`BW_Capacity`, `BW_Demand`) that give every server the cluster-wide
//!   mean utilization (see `vbundle-aggregation`);
//! - **Anycast** implements decentralized resource discovery: a load
//!   shedder anycasts a load-balance query into the *Less-Loaded* tree and
//!   the DFS — preferring topologically close members thanks to Pastry's
//!   local route convergence — finds a nearby load receiver in O(log n)
//!   steps.
//!
//! A group is named by a [`GroupId`] (the hash of its textual name). The
//! node numerically closest to the id is the rendezvous root; JOINs routed
//! toward the id graft the joiner onto the first tree node they meet, so
//! trees embed into Pastry routes and inherit their locality.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vbundle_dcn::Topology;
//! use vbundle_pastry::{overlay, IdAssignment, PastryConfig};
//! use vbundle_scribe::{group_id, CollectClient, Scribe, TestPayload};
//! use vbundle_sim::{Latency, SimDuration};
//!
//! let topo = Arc::new(Topology::paper_testbed());
//! let (mut engine, handles) = overlay::launch(
//!     &topo,
//!     IdAssignment::TopologyAware,
//!     PastryConfig::default(),
//!     7,
//!     Latency::Constant(SimDuration::from_micros(100)),
//!     |_, _| Scribe::new(CollectClient::default()),
//! );
//!
//! let g = group_id("BW_Demand");
//! // Every server subscribes, then one multicasts.
//! for h in &handles {
//!     engine.call(h.actor, |node, ctx| {
//!         node.app_call(ctx, |scribe, actx| {
//!             scribe.client_call(actx, |_, sctx| sctx.join(g));
//!         });
//!     });
//! }
//! engine.run_to_quiescence();
//! engine.call(handles[0].actor, |node, ctx| {
//!     node.app_call(ctx, |scribe, actx| {
//!         scribe.client_call(actx, |_, sctx| sctx.multicast(g, TestPayload(42)));
//!     });
//! });
//! engine.run_to_quiescence();
//!
//! for h in &handles {
//!     let got = &engine.actor(h.actor).app().client().multicasts;
//!     assert_eq!(got.len(), 1, "every member hears the multicast");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod group;
mod message;
#[allow(clippy::module_inception)]
mod scribe;
mod testutil;

pub use group::{
    group_id, group_id_with_creator, ChildLink, Children, GroupId, GroupState, Summary,
};
pub use message::{AnycastEnvelope, ScribeMsg};
pub use scribe::{Scribe, ScribeClient, ScribeConfig, ScribeCtx, SCRIBE_TAG_BASE};
pub use testutil::{CollectClient, TestPayload};

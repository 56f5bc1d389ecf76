//! A from-scratch Pastry DHT (Rowstron & Druschel, Middleware 2001) running
//! on the [`vbundle_sim`] discrete-event kernel — the overlay substrate of
//! the v-Bundle reproduction.
//!
//! v-Bundle (§II) uses Pastry twice:
//!
//! 1. **Topology-aware placement** — a certificate authority assigns node
//!    ids that mirror physical proximity ([`overlay::topology_aware_ids`]);
//!    VM boot queries are then routed to `hash(customer)` and spread over
//!    the *neighbor set* (the `|M|` physically closest nodes) when the
//!    responsible server is full.
//! 2. **Scribe substrate** — the multicast/anycast trees of the resource
//!    shuffling algorithm are built from Pastry routes (see
//!    `vbundle-scribe`).
//!
//! The implementation covers the published protocol surface: 128-bit
//! circular id space with base-16 digits ([`Id`]), per-node routing table /
//! leaf set / neighbor set ([`PastryState`]), prefix routing with the
//! leaf-set and rare-case rules, a message-based join protocol, heartbeat
//! failure detection with leaf-set repair, and locality-aware routing-table
//! construction.
//!
//! # Example
//!
//! Route a probe to the node responsible for a key:
//!
//! ```
//! use std::sync::Arc;
//! use vbundle_dcn::Topology;
//! use vbundle_pastry::overlay::{launch_null, IdAssignment, Probe};
//! use vbundle_pastry::{Id, PastryConfig};
//!
//! let topo = Arc::new(Topology::paper_testbed());
//! let (mut engine, handles) =
//!     launch_null(&topo, IdAssignment::TopologyAware, PastryConfig::default(), 42);
//!
//! let key = Id::from_name("IBM");
//! engine.call(handles[0].actor, |node, ctx| {
//!     node.app_call(ctx, |_, app_ctx| app_ctx.route(key, Probe(1)));
//! });
//! engine.run_to_quiescence();
//!
//! // Exactly one node — the numerically closest to the key — delivered it.
//! let delivered: usize = (0..engine.num_actors())
//!     .map(|i| engine.actor(vbundle_sim::ActorId::new(i as u32)).app().delivered.len())
//!     .sum();
//! assert_eq!(delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod handle;
pub mod id;
mod message;
mod node;
pub mod overlay;
mod state;

pub use config::PastryConfig;
pub use handle::NodeHandle;
pub use id::{Id, Key, NodeId};
pub use message::{PastryMsg, RouteEnvelope, Signal};
pub use node::{AppCtx, LeafLink, PastryApp, PastryNode, PASTRY_TAG_BASE};
pub use overlay::IdAssignment;
pub use state::{
    actor_distance, site_distance, LeafSet, NeighborSet, PastryState, Roster, RouteDecision,
    RoutingTable, Site, TableBytes, View,
};

//! Deterministic discrete-event simulation kernel for the v-Bundle
//! reproduction.
//!
//! Every distributed component in this repository (the Pastry overlay, the
//! Scribe trees, the aggregation service and the v-Bundle controllers) runs
//! as an [`Actor`] inside an [`Engine`]. The engine owns a virtual clock
//! ([`SimTime`]), a single seeded random-number generator, and a totally
//! ordered event queue, which together make every run *bit-for-bit
//! reproducible* for a given seed.
//!
//! The paper's §IV evaluates v-Bundle by emulating one node per JVM; here a
//! node is an actor and message latency is supplied by a [`Latency`] model
//! (the paper's measurements in §V.C use a 10 ms LAN hop).
//!
//! # Example
//!
//! ```
//! use vbundle_sim::{Actor, ActorId, Context, Engine, Message, SimDuration};
//!
//! #[derive(Debug, Clone)]
//! struct Ping(u32);
//! impl Message for Ping {}
//!
//! struct Echo { seen: u32 }
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: ActorId, msg: Ping) {
//!         self.seen += msg.0;
//!         if msg.0 > 1 {
//!             ctx.send(from, Ping(msg.0 - 1));
//!         }
//!     }
//! }
//!
//! let mut engine: Engine<Ping, Echo> = Engine::with_seed(7);
//! let a = engine.add_actor(Echo { seen: 0 });
//! let b = engine.add_actor(Echo { seen: 0 });
//! engine.post(a, b, Ping(3), SimDuration::ZERO);
//! engine.run_to_quiescence();
//! assert_eq!(engine.actor(a).seen + engine.actor(b).seen, 3 + 2 + 1);
//! ```

// Unsafe is denied crate-wide; the single exception is the cache-prefetch
// intrinsic in `prefetch`, which is architecturally a no-op hint.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod counters;
mod engine;
mod fault;
mod flat_map;
mod latency;
mod prefetch;
mod queue;
mod time;

pub use actor::{Actor, ActorId, Context, Message, MsgCategory};
pub use counters::ActorCounters;
pub use engine::Engine;
pub use fault::{CorruptionMode, FaultAction, FaultInjector, FaultStats};
pub use flat_map::FlatMap;
pub use latency::{Latency, TieredLatency};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};

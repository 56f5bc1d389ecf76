//! Actors, messages and the per-event [`Context`] handed to actor callbacks.

use rand::rngs::StdRng;

use crate::counters::ActorCounters;
use crate::fault::CorruptionMode;
use crate::latency::Latency;
use crate::time::{SimDuration, SimTime};

/// Index of an actor inside an [`Engine`](crate::Engine).
///
/// Actor ids are dense and assigned in registration order, which lets the
/// higher layers use them directly as server indexes into a
/// [`Topology`](https://docs.rs/vbundle-dcn).
///
/// ```
/// use vbundle_sim::ActorId;
/// let id = ActorId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

impl ActorId {
    /// Creates an id from a raw index.
    pub const fn new(index: u32) -> Self {
        ActorId(index)
    }

    /// The raw index of this actor.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Accounting category of a message, used to split the Figure 15 overhead
/// numbers into overlay *maintenance* traffic versus *v-Bundle* payload
/// traffic, as the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgCategory {
    /// Overlay upkeep: Pastry join/repair probes, Scribe heartbeats, …
    Maintenance,
    /// Application traffic: aggregation updates, anycast queries, …
    Payload,
}

/// A simulated wire message.
///
/// The [`wire_size`](Message::wire_size) estimate feeds the per-round
/// KB/host measurement of Figure 15; the default of 64 bytes approximates a
/// small control message and should be overridden for anything larger.
///
/// Messages are `Clone` so the fault-injection layer can duplicate them in
/// flight, as a retransmitting transport under packet loss would.
pub trait Message: std::fmt::Debug + Clone {
    /// Estimated size of the message on the wire, in bytes.
    fn wire_size(&self) -> usize {
        64
    }

    /// Accounting category for overhead breakdowns.
    fn category(&self) -> MsgCategory {
        MsgCategory::Payload
    }

    /// Mutates this message's payload per a
    /// [`FaultAction::Corrupt`](crate::FaultAction::Corrupt) verdict,
    /// returning `true` if anything changed.
    ///
    /// The default is a no-op: most control traffic (joins, probes,
    /// heartbeats) has no corruptible numeric payload. Wrapper enums should
    /// delegate to their inner payload so corruption reaches the
    /// aggregation values buried inside routed envelopes.
    fn corrupt(&mut self, mode: CorruptionMode) -> bool {
        let _ = mode;
        false
    }
}

/// A state machine driven by the simulation engine.
///
/// All callbacks receive a [`Context`] through which the actor reads the
/// clock, draws randomness, sends messages and arms timers. Actors must not
/// keep state outside these callbacks — that is what makes runs
/// deterministic and replayable.
pub trait Actor<W: Message> {
    /// Invoked once when [`Engine::start`](crate::Engine::start) runs.
    fn on_start(&mut self, ctx: &mut Context<'_, W>) {
        let _ = ctx;
    }

    /// Invoked when [`Engine::restart`](crate::Engine::restart) revives
    /// this actor after a crash. The actor keeps its pre-crash state (a
    /// warm restart); implementations should re-arm periodic timers and
    /// re-announce themselves to peers. Defaults to [`Actor::on_start`].
    fn on_restart(&mut self, ctx: &mut Context<'_, W>) {
        self.on_start(ctx);
    }

    /// A message from `from` has arrived.
    fn on_message(&mut self, ctx: &mut Context<'_, W>, from: ActorId, msg: W);

    /// A timer armed with [`Context::schedule`] has fired.
    fn on_timer(&mut self, ctx: &mut Context<'_, W>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// A message this actor sent to `to` could not be delivered because the
    /// target actor has failed.
    ///
    /// This models a connection-oriented transport (the paper's Java
    /// implementation rides on TCP): senders learn about dead peers and can
    /// repair routing state or retry along another path. The notification
    /// arrives one network round-trip after the send.
    fn on_delivery_failure(&mut self, ctx: &mut Context<'_, W>, to: ActorId, msg: W) {
        let _ = (ctx, to, msg);
    }
}

/// An effect queued by an actor during a callback; applied by the engine
/// after the callback returns.
#[derive(Debug)]
pub(crate) enum Effect<W> {
    Send { to: ActorId, at: SimTime, msg: W },
    Timer { at: SimTime, tag: u64 },
}

/// Capabilities available to an actor while it handles an event.
///
/// Sends and timers are buffered and applied by the engine once the callback
/// returns, so an actor can never observe its own in-flight effects.
pub struct Context<'a, W: Message> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) latency: &'a Latency,
    pub(crate) counters: &'a mut ActorCounters,
    /// Prefetch handle over the engine's actor table, so a send can start
    /// pulling the destination's record while the callback is still
    /// running.
    pub(crate) peers: crate::prefetch::Lines,
    pub(crate) effects: Vec<Effect<W>>,
}

impl<'a, W: Message> Context<'a, W> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor handling this event.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// The engine-wide deterministic random-number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Estimated round-trip time to `to` under the installed model — the
    /// sample failure detectors seed their per-peer cadence expectations
    /// with (probe interval + RTT ≈ expected ack inter-arrival time).
    pub fn rtt_to(&self, to: ActorId) -> SimDuration {
        self.latency.latency(self.self_id, to) * 2
    }

    /// Sends `msg` to `to`; it arrives after the model's network latency.
    pub fn send(&mut self, to: ActorId, msg: W) {
        self.send_after(to, msg, SimDuration::ZERO);
    }

    /// Sends `msg` to `to` after an extra local delay (e.g. per-node
    /// processing time) on top of the network latency.
    pub fn send_after(&mut self, to: ActorId, msg: W, extra: SimDuration) {
        // Earliest possible hint: the destination dispatches this message
        // within a handful of events, and every cycle of lead time here is
        // overlap with the rest of the callback body.
        self.peers.touch(to.index());
        let latency = self.latency.latency(self.self_id, to);
        self.counters.record(&msg);
        self.effects.push(Effect::Send {
            to,
            at: self.now + extra + latency,
            msg,
        });
    }

    /// Arms a one-shot timer that fires on this actor after `delay`, carrying
    /// `tag` back to [`Actor::on_timer`]. Timers cannot be cancelled; guard
    /// against stale firings with a generation number in the tag.
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        self.effects.push(Effect::Timer {
            at: self.now + delay,
            tag,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_round_trip() {
        let id = ActorId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "actor#42");
    }

    #[derive(Debug, Clone)]
    struct Tiny;
    impl Message for Tiny {}

    #[test]
    fn message_defaults() {
        assert_eq!(Tiny.wire_size(), 64);
        assert_eq!(Tiny.category(), MsgCategory::Payload);
    }
}

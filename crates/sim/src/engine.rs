//! The discrete-event engine: clock, event queue and actor dispatch.
//!
//! The hot path is built for data-center scale (100k+ actors): events
//! flow through an [`EventQueue`] (one FIFO per recurring delay, one heap,
//! payloads inline), actor callbacks reuse one effects scratch buffer (no
//! per-event allocation), latency models are devirtualized through [`Latency`],
//! and [`Engine::restart`] purges a crashed actor's timers in O(1) via
//! per-actor epochs checked lazily on pop — all without perturbing the
//! byte-identical seeded-replay contract the chaos and golden gates
//! depend on.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vbundle_obs::{
    counters, FlightRecorder, Gauge, HotSection, Kind, Profiler, Registry, Subsystem,
};

use crate::actor::{Actor, ActorId, Context, Effect, Message};
use crate::counters::ActorCounters;
use crate::fault::{FaultAction, FaultInjector, FaultStats};
use crate::latency::Latency;
use crate::prefetch;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

counters! {
    /// The engine's event tallies, exported under `engine/`.
    struct EventCounters {
        /// Events dispatched (messages + timers + bounces).
        events: Counter,
        /// Messages delivered into `Actor::on_message`.
        deliveries: Counter,
    }
}

counters! {
    /// The fault injector's tallies, exported under `engine/faults/`.
    struct FaultCounters {
        /// Sends silently discarded by the fault injector.
        dropped: Counter,
        /// Sends delivered late by the fault injector.
        delayed: Counter,
        /// Sends delivered twice by the fault injector.
        duplicated: Counter,
        /// Sends delivered with a mutated payload.
        corrupted: Counter,
    }
}

/// The engine's own metrics. Event and fault tallies live *in* these obs
/// counter sets — `events_processed()` / `fault_stats()` read them back —
/// so one export surface (the registry) covers the engine without a
/// parallel stat struct to keep in sync.
#[derive(Debug)]
struct EngineMetrics {
    counts: Rc<EventCounters>,
    faults: Rc<FaultCounters>,
    /// High-water mark of the event queue, mirrored for export.
    queue_peak: Gauge,
    /// [`EventQueue::heap_bytes`], mirrored for export.
    queue_heap_bytes: Gauge,
}

impl EngineMetrics {
    fn register(registry: &Registry) -> Self {
        let counts = Rc::default();
        let faults = Rc::default();
        registry.attach("engine", &counts);
        registry.attach("engine/faults", &faults);
        EngineMetrics {
            counts,
            faults,
            queue_peak: registry.gauge("engine/queue_peak"),
            queue_heap_bytes: registry.gauge("engine/queue_heap_bytes"),
        }
    }
}

#[derive(Debug)]
enum EventKind<W> {
    Message {
        from: ActorId,
        msg: W,
    },
    Timer {
        tag: u64,
        /// The owning actor's timer epoch when the timer was armed. A
        /// mismatch on pop means the actor restarted in between: the
        /// timer belongs to a dead process and is skipped invisibly.
        epoch: u32,
    },
    /// Undeliverable message returned to its sender.
    Bounce {
        target: ActorId,
        msg: W,
    },
}

// The engine's flight-record kinds. `bytes` is the message's `wire_size`.
const DELIVER: Kind = Kind::new("deliver", "from", "bytes");
const TIMER: Kind = Kind::new("timer", "tag", "");
const BOUNCE: Kind = Kind::new("bounce", "target", "bytes");
const FAIL: Kind = Kind::new("fail", "", "");
const RESTART: Kind = Kind::new("restart", "", "");
const FAULT_DROP: Kind = Kind::new("fault-drop", "from", "bytes");
const FAULT_DELAY: Kind = Kind::new("fault-delay", "from", "extra_us");
const FAULT_DUPLICATE: Kind = Kind::new("fault-duplicate", "from", "gap_us");
const FAULT_CORRUPT: Kind = Kind::new("fault-corrupt", "from", "bytes");

/// One queued event: destination plus payload, stored inline beside its
/// `(at, seq)` key in the [`EventQueue`] — in a FIFO, where pops read the
/// entries in sequence, or in the heap, whose sifts move it.
#[derive(Debug)]
struct EventRecord<W> {
    to: ActorId,
    kind: EventKind<W>,
}

/// Per-actor dispatch metadata: the current timer epoch (bumped by
/// [`Engine::restart`] to invalidate queued timers in O(1)), the count
/// of queued current-epoch timers (so a restart can adjust the live
/// depth without scanning the queue), and the liveness flag every
/// delivery checks.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct ActorMeta {
    epoch: u32,
    pending: u32,
    alive: bool,
    /// The actor's outbound-traffic counters. Sends record into the
    /// *sender's* counters, and the sender is the actor currently
    /// dispatching — keeping them here means the bump lands on metadata
    /// the event loop already loaded, not a second cold array (which
    /// measured several ns/event slower at 100k actors: the first bump
    /// of a tick is a read-modify-write on the callback's critical
    /// path).
    counters: ActorCounters,
}

/// An actor interleaved with its dispatch metadata, so delivering an
/// event touches one slot of one array — a single cache line (and TLB
/// page) for the liveness check, the timer-epoch check, the send
/// counters and the actor state itself, instead of three scattered
/// per-actor arrays. At 100k actors every one of those lines is cold
/// per event; interleaving is worth tens of nanoseconds per event at
/// that scale. The cache-line alignment (with the metadata laid out
/// first) keeps a small record on exactly one line at a deterministic
/// offset — never straddling a boundary — so one prefetch at send time
/// covers everything the delivery will read.
#[repr(C, align(64))]
struct ActorRec<A> {
    meta: ActorMeta,
    actor: A,
}

/// A deterministic discrete-event simulation engine over homogeneous actors.
///
/// All actors share one wire-message type `W` and one concrete actor type
/// `A` (every simulated server runs the same protocol stack), which keeps
/// dispatch monomorphic. See the [crate docs](crate) for an end-to-end
/// example.
pub struct Engine<W: Message, A: Actor<W>> {
    /// Actors interleaved with their dispatch metadata (see [`ActorRec`]).
    actors: Vec<ActorRec<A>>,
    queue: EventQueue<EventRecord<W>>,
    /// Live events queued: the physical queue minus epoch-stale timers,
    /// which were already discounted when their actor restarted.
    depth: usize,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    latency: Latency,
    injector: Option<Box<dyn FaultInjector>>,
    metrics: Registry,
    engine_metrics: EngineMetrics,
    flight: FlightRecorder,
    profiler: Option<Profiler>,
    queue_peak: usize,
    /// Reusable effects buffer handed to every [`Context`], so dispatch
    /// allocates nothing after warm-up.
    effects_scratch: Vec<Effect<W>>,
}

impl<W: Message, A: Actor<W>> Engine<W, A> {
    /// Creates an engine with the given [`Latency`] model and RNG seed.
    pub fn with_latency(latency: Latency, seed: u64) -> Self {
        let metrics = Registry::new();
        let engine_metrics = EngineMetrics::register(&metrics);
        Engine {
            actors: Vec::new(),
            queue: EventQueue::new(),
            depth: 0,
            now: SimTime::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            latency,
            injector: None,
            metrics,
            engine_metrics,
            flight: FlightRecorder::disabled(),
            profiler: None,
            queue_peak: 0,
            effects_scratch: Vec::new(),
        }
    }

    /// Creates an engine with zero network latency — convenient for unit
    /// tests and pure-algorithm benchmarks.
    pub fn with_seed(seed: u64) -> Self {
        Engine::with_latency(Latency::Constant(SimDuration::ZERO), seed)
    }

    /// Registers an actor and returns its id. Ids are dense and assigned in
    /// registration order.
    pub fn add_actor(&mut self, actor: A) -> ActorId {
        let id = ActorId::new(self.actors.len() as u32);
        self.actors.push(ActorRec {
            actor,
            meta: ActorMeta {
                epoch: 0,
                pending: 0,
                alive: true,
                counters: ActorCounters::default(),
            },
        });
        id
    }

    /// Makes room for `additional` more actors in one allocation of the
    /// exact size, so registering a known population neither doubles past
    /// it nor copies the records on the way.
    pub fn reserve_actors(&mut self, additional: usize) {
        self.actors.reserve_exact(additional);
    }

    /// Number of registered actors (alive or failed).
    pub fn num_actors(&self) -> usize {
        self.actors.len()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.engine_metrics.counts.events.get()
    }

    /// Immutable access to an actor's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Engine::add_actor`].
    pub fn actor(&self, id: ActorId) -> &A {
        &self.actors[id.index()].actor
    }

    /// Mutable access to an actor's state. Prefer [`Engine::call`] when the
    /// actor needs to emit messages or timers as part of the mutation.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Engine::add_actor`].
    pub fn actor_mut(&mut self, id: ActorId) -> &mut A {
        &mut self.actors[id.index()].actor
    }

    /// Iterates over `(id, actor)` pairs in id order.
    pub fn actors(&self) -> impl Iterator<Item = (ActorId, &A)> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, r)| (ActorId::new(i as u32), &r.actor))
    }

    /// Cumulative send counters for one actor (zeros for an unknown id).
    pub fn actor_counters(&self, id: ActorId) -> ActorCounters {
        self.actors
            .get(id.index())
            .map(|r| r.meta.counters)
            .unwrap_or_default()
    }

    /// Sum of send counters over all actors.
    pub fn counter_totals(&self) -> ActorCounters {
        let mut total = ActorCounters::default();
        for r in &self.actors {
            total.accumulate(&r.meta.counters);
        }
        total
    }

    /// Returns every actor's send counters (indexed by [`ActorId::index`])
    /// and resets them to zero — the "messages per round" primitive behind
    /// Figure 15.
    pub fn snapshot_counters(&mut self) -> Vec<ActorCounters> {
        self.actors
            .iter_mut()
            .map(|r| std::mem::take(&mut r.meta.counters))
            .collect()
    }

    /// Marks an actor as failed: all queued and future events addressed to
    /// it are silently dropped, exactly as a crashed host drops packets.
    /// No-op when already dead — crashing a crashed host records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Engine::add_actor`].
    pub fn fail(&mut self, id: ActorId) {
        if !self.actors[id.index()].meta.alive {
            return;
        }
        self.actors[id.index()].meta.alive = false;
        self.trace(id, &FAIL, 0, 0);
    }

    /// Revives a failed actor in place (a *warm* restart: its state
    /// survives, as a process restart on the same host would find its
    /// durable state). Invokes [`Actor::on_restart`] so the actor can
    /// re-arm timers and re-announce itself; no-op when already alive.
    ///
    /// Timers the actor had armed before crashing are purged — the process
    /// that scheduled them is gone — so `on_restart` can re-arm periodic
    /// timers unconditionally without double-firing. Network messages still
    /// queued for a later time are delivered normally — they model packets
    /// that were in flight across the outage — and events that were popped
    /// while the actor was down are gone for good.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Engine::add_actor`].
    pub fn restart(&mut self, id: ActorId) {
        if self.actors[id.index()].meta.alive {
            return;
        }
        // O(1) purge: bump the actor's timer epoch so its queued timers
        // become stale, and discount them from the live depth now. The
        // stale entries are skipped invisibly when they surface — no
        // queue rebuild, no matter how deep the queue or how many
        // restarts a chaos plan injects.
        let meta = &mut self.actors[id.index()].meta;
        meta.epoch = meta.epoch.wrapping_add(1);
        self.depth -= meta.pending as usize;
        meta.pending = 0;
        meta.alive = true;
        self.trace(id, &RESTART, 0, 0);
        self.with_ctx(id, |actor, ctx| actor.on_restart(ctx));
    }

    /// Whether the actor is still alive.
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.actors.get(id.index()).is_some_and(|r| r.meta.alive)
    }

    /// Installs a fault injector consulted on every subsequent send.
    /// Replaces any previous injector.
    pub fn set_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Removes the fault injector, returning it for inspection.
    pub fn take_injector(&mut self) -> Option<Box<dyn FaultInjector>> {
        self.injector.take()
    }

    /// Tally of faults applied so far, read back off the obs registry.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            dropped: self.engine_metrics.faults.dropped.get(),
            delayed: self.engine_metrics.faults.delayed.get(),
            duplicated: self.engine_metrics.faults.duplicated.get(),
            corrupted: self.engine_metrics.faults.corrupted.get(),
        }
    }

    /// The metrics registry shared by the whole stack. Subsystems attach
    /// their counter sets and register their gauges here at construction
    /// time; exporting it (`to_json`/`to_csv`) covers engine and protocol
    /// metrics in one surface.
    ///
    /// The queue gauges (peak depth, heap held) are mirrored here, at read
    /// time — writing them on every push would touch a gauge on nearly
    /// every send during queue ramp-up for values only exports look at.
    pub fn metrics(&self) -> &Registry {
        let m = &self.engine_metrics;
        m.queue_peak.set(self.queue_peak as f64);
        m.queue_heap_bytes.set(self.queue.heap_bytes() as f64);
        &self.metrics
    }

    /// The flight-recorder handle (disabled until
    /// [`Engine::enable_flight_recorder`] is called). Cloning shares the
    /// ring, so subsystems can hold their own handle.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Enables sim-time flight recording with a bounded ring of
    /// `capacity` events. Call *before* cloning the handle into
    /// subsystems — enabling replaces the handle, it does not upgrade
    /// clones taken earlier.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.flight = FlightRecorder::new(capacity);
    }

    /// Enables wall-clock profiling of the engine hot path. Readings stay
    /// outside deterministic state: enabling this cannot change a run.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Profiler::new());
    }

    /// The hot-path profiler, when profiling is enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// The rendered hot-path profile, when profiling is enabled.
    pub fn profile_report(&self) -> Option<String> {
        self.profiler.as_ref().map(Profiler::report)
    }

    /// High-water mark of the event queue across the whole run. Reading
    /// it also refreshes the exported `engine/queue_peak` gauge.
    pub fn queue_peak(&self) -> usize {
        self.engine_metrics.queue_peak.set(self.queue_peak as f64);
        self.queue_peak
    }

    /// Number of live events currently queued (epoch-stale timers from
    /// restarted actors are already excluded).
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// Invokes `on_start` on every actor, in id order. Call once after all
    /// actors are registered.
    pub fn start(&mut self) {
        for i in 0..self.actors.len() {
            let id = ActorId::new(i as u32);
            if self.actors[i].meta.alive {
                self.with_ctx(id, |actor, ctx| actor.on_start(ctx));
            }
        }
    }

    /// Invokes `on_start` on a single actor — for actors registered after
    /// [`Engine::start`] (e.g. servers joining a running overlay).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Engine::add_actor`].
    pub fn start_actor(&mut self, id: ActorId) {
        if self.actors[id.index()].meta.alive {
            self.with_ctx(id, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Injects a message from outside the simulation (e.g. a harness acting
    /// as the cloud front end). Delivered after `delay` plus model latency.
    pub fn post(&mut self, to: ActorId, from: ActorId, msg: W, delay: SimDuration) {
        let at = self.now + delay + self.latency.latency(from, to);
        if let Some(rec) = self.actors.get_mut(from.index()) {
            rec.meta.counters.record(&msg);
        }
        self.enqueue_send(from, to, at, msg);
    }

    /// Synchronously runs `f` against actor `id` with a full [`Context`],
    /// applying any messages/timers it emits. This is how harnesses drive
    /// actors (boot a VM, change a demand) without bypassing determinism.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Engine::add_actor`].
    pub fn call<R>(&mut self, id: ActorId, f: impl FnOnce(&mut A, &mut Context<'_, W>) -> R) -> R {
        self.with_ctx(id, f)
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.step_before(SimTime::MAX)
    }

    /// Processes the next event if it is due at or before `deadline`, in
    /// a single queue operation (no separate peek touching the queue
    /// root). Returns `false` when nothing was dispatched — the queue is
    /// empty or its earliest event lies beyond the deadline. The clock is
    /// *not* advanced to the deadline; [`Engine::run_until`] does that.
    pub fn step_before(&mut self, deadline: SimTime) -> bool {
        loop {
            let pop_timer = self
                .profiler
                .as_mut()
                .and_then(|p| p.start(HotSection::QueuePop));
            let popped = self.queue.pop_before(deadline.as_micros());
            if let (Some(profiler), Some(t)) = (self.profiler.as_mut(), pop_timer) {
                profiler.finish(HotSection::QueuePop, t);
            }
            let Some((at, _seq, ev)) = popped else {
                return false;
            };
            // Software-pipelined lookahead: each pop from a FIFO prefetches
            // the actor record of the event a few places behind it in the
            // same FIFO, a rolling cursor per FIFO, so its lines are in
            // flight by the time it dispatches. Invisible to
            // deterministic replay.
            if let Some(next) = self.queue.ahead(4) {
                if let Some(r) = self.actors.get(next.to.index()) {
                    prefetch::touch(&r.actor);
                    prefetch::touch(&r.meta);
                }
            }
            // A timer from a pre-restart process epoch was purged (in
            // O(1)) when its actor restarted; it surfaces here only to be
            // dropped, touching neither the clock nor any counter.
            if let EventKind::Timer { epoch, .. } = ev.kind {
                let meta = &mut self.actors[ev.to.index()].meta;
                if epoch != meta.epoch {
                    continue;
                }
                meta.pending -= 1;
            }
            self.depth -= 1;
            let at = SimTime::from_micros(at);
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.engine_metrics.counts.events.inc();
            if !self.actors[ev.to.index()].meta.alive {
                // A message to a dead host bounces: the sender gets a
                // connection-failure notification after one more network
                // delay (unless the sender is dead too, or the event was a
                // timer).
                if let EventKind::Message { from, msg } = ev.kind {
                    if self.actors.get(from.index()).is_some_and(|r| r.meta.alive) {
                        let at = self.now + self.latency.latency(ev.to, from);
                        self.push(at, from, EventKind::Bounce { target: ev.to, msg });
                    }
                }
                return true;
            }
            if self.flight.is_enabled() {
                match &ev.kind {
                    EventKind::Message { from, msg } => self.trace_msg(ev.to, &DELIVER, *from, msg),
                    EventKind::Timer { tag, .. } => self.trace(ev.to, &TIMER, *tag, 0),
                    EventKind::Bounce { target, msg } => {
                        self.trace_msg(ev.to, &BOUNCE, *target, msg)
                    }
                }
            }
            let dispatch_timer = self
                .profiler
                .as_mut()
                .and_then(|p| p.start(HotSection::Dispatch));
            match ev.kind {
                EventKind::Message { from, msg } => {
                    self.engine_metrics.counts.deliveries.inc();
                    self.with_ctx(ev.to, |actor, ctx| actor.on_message(ctx, from, msg));
                }
                EventKind::Timer { tag, .. } => {
                    self.with_ctx(ev.to, |actor, ctx| actor.on_timer(ctx, tag));
                }
                EventKind::Bounce { target, msg } => {
                    self.with_ctx(ev.to, |actor, ctx| {
                        actor.on_delivery_failure(ctx, target, msg)
                    });
                }
            }
            if let (Some(profiler), Some(t)) = (self.profiler.as_mut(), dispatch_timer) {
                profiler.finish(HotSection::Dispatch, t);
            }
            return true;
        }
    }

    /// Runs until the queue holds no event at or before `deadline`, then
    /// advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_before(deadline) {}
        debug_assert!(self.now <= deadline);
        self.now = deadline;
    }

    /// Runs until no events remain. Only meaningful for workloads without
    /// self-rearming periodic timers — otherwise use [`Engine::run_until`].
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Runs for `span` of simulated time past the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Enqueues one send, applying the installed fault injector's verdict.
    fn enqueue_send(&mut self, from: ActorId, to: ActorId, at: SimTime, mut msg: W) {
        let consult_timer = self
            .injector
            .is_some()
            .then(|| self.profiler.as_mut()?.start(HotSection::InjectorConsult))
            .flatten();
        let action = match self.injector.as_mut() {
            Some(injector) => injector.on_send(self.now, from, to),
            None => FaultAction::Deliver,
        };
        if let (Some(profiler), Some(t)) = (self.profiler.as_mut(), consult_timer) {
            profiler.record(HotSection::InjectorConsult, t.elapsed());
        }
        match action {
            FaultAction::Deliver => {}
            FaultAction::Drop => {
                self.engine_metrics.faults.dropped.inc();
                self.trace_msg(to, &FAULT_DROP, from, &msg);
                return;
            }
            FaultAction::Delay(extra) => {
                self.engine_metrics.faults.delayed.inc();
                self.trace(to, &FAULT_DELAY, from.index() as u64, extra.as_micros());
                self.push(at + extra, to, EventKind::Message { from, msg });
                return;
            }
            FaultAction::Duplicate(gap) => {
                self.engine_metrics.faults.duplicated.inc();
                self.trace(to, &FAULT_DUPLICATE, from.index() as u64, gap.as_micros());
                let clone_timer = self
                    .profiler
                    .as_mut()
                    .and_then(|p| p.start(HotSection::MessageClone));
                let dup = msg.clone();
                if let (Some(profiler), Some(t)) = (self.profiler.as_mut(), clone_timer) {
                    profiler.finish(HotSection::MessageClone, t);
                }
                self.push(at + gap, to, EventKind::Message { from, msg: dup });
            }
            FaultAction::Corrupt(mode) => {
                if msg.corrupt(mode) {
                    self.engine_metrics.faults.corrupted.inc();
                    self.trace_msg(to, &FAULT_CORRUPT, from, &msg);
                }
            }
        }
        self.push(at, to, EventKind::Message { from, msg });
    }

    /// Records `kind` on actor `on` at the current clock.
    #[inline]
    fn trace(&self, on: ActorId, kind: &'static Kind, a: u64, b: u64) {
        let at = self.now.as_micros();
        self.flight
            .record(at, on.index() as u32, Subsystem::Engine, kind, a, b);
    }

    /// Records a message event: the peer's index and the message's wire
    /// size, read only when the recorder is on.
    #[inline]
    fn trace_msg(&self, on: ActorId, kind: &'static Kind, peer: ActorId, msg: &W) {
        if self.flight.is_enabled() {
            self.trace(on, kind, peer.index() as u64, msg.wire_size() as u64);
        }
    }

    /// Stamps the next sequence number and inserts the event. The peak is
    /// tracked in a plain field; the gauge mirror happens at read time.
    fn push(&mut self, at: SimTime, to: ActorId, kind: EventKind<W>) {
        let seq = self.next_seq();
        let now = self.now.as_micros();
        self.queue
            .insert_from(now, at.as_micros(), seq, EventRecord { to, kind });
        self.depth += 1;
        if self.depth > self.queue_peak {
            self.queue_peak = self.depth;
        }
    }

    fn with_ctx<R>(&mut self, id: ActorId, f: impl FnOnce(&mut A, &mut Context<'_, W>) -> R) -> R {
        let peers = prefetch::Lines::new(&self.actors);
        let rec = &mut self.actors[id.index()];
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            rng: &mut self.rng,
            latency: &self.latency,
            counters: &mut rec.meta.counters,
            peers,
            effects: std::mem::take(&mut self.effects_scratch),
        };
        let out = f(&mut rec.actor, &mut ctx);
        let mut effects = ctx.effects;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, at, msg } => self.enqueue_send(id, to, at, msg),
                Effect::Timer { at, tag } => {
                    let meta = &mut self.actors[id.index()].meta;
                    let epoch = meta.epoch;
                    meta.pending += 1;
                    self.push(at, id, EventKind::Timer { tag, epoch });
                }
            }
        }
        // Hand the (now empty) buffer back for the next dispatch. Nested
        // dispatch never happens — effects are applied after the callback
        // returns — so the scratch is simply absent during `f` and any
        // recursive `call` would fall back to a fresh Vec.
        self.effects_scratch = effects;
        out
    }
}

impl<W: Message, A: Actor<W>> std::fmt::Debug for Engine<W, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("actors", &self.actors.len())
            .field("now", &self.now)
            .field("queued", &self.depth)
            .field("events_processed", &self.events_processed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[derive(Debug, Clone)]
    enum TestMsg {
        Ping(u32),
    }
    impl Message for TestMsg {
        fn corrupt(&mut self, mode: crate::CorruptionMode) -> bool {
            // Only HugeScale has an effect here, so tests can cover both
            // the mutated-and-counted and untouched-and-uncounted paths.
            match mode {
                crate::CorruptionMode::HugeScale => {
                    let TestMsg::Ping(v) = self;
                    *v = v.saturating_mul(1_000);
                    true
                }
                _ => false,
            }
        }
    }

    #[derive(Default)]
    struct Counter {
        pings: Vec<(u64, u32)>, // (arrival micros, value)
        timers: Vec<u64>,
        bounces: Vec<(u64, u32)>, // (time, failed target index)
        rng_draw: Option<u64>,
    }

    impl Actor<TestMsg> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.schedule(SimDuration::from_millis(5), 99);
            self.rng_draw = Some(ctx.rng().gen());
        }

        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, from: ActorId, msg: TestMsg) {
            let TestMsg::Ping(v) = msg;
            self.pings.push((ctx.now().as_micros(), v));
            if v > 0 {
                ctx.send(from, TestMsg::Ping(v - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, tag: u64) {
            self.timers.push(tag);
            let _ = ctx;
        }

        fn on_delivery_failure(
            &mut self,
            ctx: &mut Context<'_, TestMsg>,
            to: ActorId,
            _msg: TestMsg,
        ) {
            self.bounces
                .push((ctx.now().as_micros(), to.index() as u32));
        }
    }

    fn two_actor_engine(seed: u64) -> (Engine<TestMsg, Counter>, ActorId, ActorId) {
        let mut e = Engine::with_latency(Latency::Constant(SimDuration::from_millis(10)), seed);
        let a = e.add_actor(Counter::default());
        let b = e.add_actor(Counter::default());
        (e, a, b)
    }

    #[test]
    fn ping_pong_applies_latency() {
        let (mut e, a, b) = two_actor_engine(1);
        e.post(b, a, TestMsg::Ping(2), SimDuration::ZERO);
        e.run_to_quiescence();
        // b receives at 10ms, a at 20ms, b again at 30ms.
        assert_eq!(e.actor(b).pings, vec![(10_000, 2), (30_000, 0)]);
        assert_eq!(e.actor(a).pings, vec![(20_000, 1)]);
        assert_eq!(e.now(), SimTime::from_millis(30));
    }

    #[test]
    fn timers_fire_with_tag() {
        let (mut e, a, _b) = two_actor_engine(1);
        e.start();
        e.run_until(SimTime::from_millis(6));
        assert_eq!(e.actor(a).timers, vec![99]);
        assert_eq!(e.now(), SimTime::from_millis(6));
    }

    #[test]
    fn failed_actor_drops_events() {
        let (mut e, a, b) = two_actor_engine(1);
        e.post(b, a, TestMsg::Ping(5), SimDuration::ZERO);
        e.fail(b);
        e.run_to_quiescence();
        assert!(e.actor(b).pings.is_empty());
        assert!(!e.is_alive(b));
        assert!(e.is_alive(a));
        // Sender learns after a round trip: 10ms out + 10ms bounce.
        assert_eq!(e.actor(a).bounces, vec![(20_000, 1)]);
    }

    #[test]
    fn bounce_to_dead_sender_is_dropped() {
        let (mut e, a, b) = two_actor_engine(1);
        e.post(b, a, TestMsg::Ping(5), SimDuration::ZERO);
        e.fail(a);
        e.fail(b);
        e.run_to_quiescence();
        assert!(e.actor(a).bounces.is_empty());
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed| {
            let (mut e, a, b) = two_actor_engine(seed);
            e.start();
            e.post(b, a, TestMsg::Ping(4), SimDuration::from_millis(1));
            e.run_to_quiescence();
            (
                e.actor(a).pings.clone(),
                e.actor(b).pings.clone(),
                e.actor(a).rng_draw,
                e.events_processed(),
            )
        };
        assert_eq!(run(42), run(42));
        // Different seeds differ at least in RNG draws.
        assert_ne!(run(42).2, run(43).2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut e, a, b) = two_actor_engine(1);
        e.post(b, a, TestMsg::Ping(100), SimDuration::ZERO);
        e.run_until(SimTime::from_millis(25));
        // Events at 10ms and 20ms fired; 30ms one still queued.
        assert_eq!(e.actor(b).pings.len(), 1);
        assert_eq!(e.actor(a).pings.len(), 1);
        assert_eq!(e.now(), SimTime::from_millis(25));
        e.run_for(SimDuration::from_millis(5));
        assert_eq!(e.actor(b).pings.len(), 2);
    }

    #[test]
    fn call_runs_with_effects() {
        let (mut e, a, b) = two_actor_engine(1);
        let got = e.call(a, |_actor, ctx| {
            ctx.send(b, TestMsg::Ping(0));
            ctx.now().as_micros()
        });
        assert_eq!(got, 0);
        e.run_to_quiescence();
        assert_eq!(e.actor(b).pings, vec![(10_000, 0)]);
    }

    #[test]
    fn counters_track_sends() {
        let (mut e, a, b) = two_actor_engine(1);
        e.post(b, a, TestMsg::Ping(2), SimDuration::ZERO);
        e.run_to_quiescence();
        let total = e.counter_totals();
        assert_eq!(total.total_msgs(), 3); // post + 2 replies
        assert_eq!(total.total_bytes(), 3 * 64);
        // Per-actor split: `a` sent the post plus one reply, `b` one reply.
        assert_eq!(e.actor_counters(a).total_msgs(), 2);
        assert_eq!(e.actor_counters(b).total_msgs(), 1);
        // Snapshotting returns the same per-actor counts and zeroes them.
        let snap = e.snapshot_counters();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[a.index()].total_msgs(), 2);
        assert_eq!(e.counter_totals().total_msgs(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let (e, _, _) = two_actor_engine(1);
        assert!(format!("{e:?}").contains("Engine"));
    }

    #[test]
    fn restart_revives_actor_and_reruns_start() {
        let (mut e, a, b) = two_actor_engine(1);
        e.fail(b);
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        assert!(e.actor(b).pings.is_empty());
        e.restart(b);
        assert!(e.is_alive(b));
        // on_restart defaults to on_start: the 5ms timer was re-armed.
        e.run_for(SimDuration::from_millis(6));
        assert_eq!(e.actor(b).timers, vec![99]);
        // And deliveries work again.
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        assert_eq!(e.actor(b).pings.len(), 1);
    }

    #[test]
    fn restart_purges_stale_timers() {
        // A timer armed before the crash must not fire alongside the one
        // re-armed by on_restart — the crashed process lost its timers.
        let (mut e, _a, b) = two_actor_engine(1);
        e.start(); // arms the 5ms timer on both actors
        e.fail(b);
        e.restart(b); // purges the stale timer, on_restart re-arms one
        e.run_until(SimTime::from_millis(6));
        assert_eq!(e.actor(b).timers, vec![99]);
    }

    #[test]
    fn restart_of_live_actor_is_noop() {
        let (mut e, _a, b) = two_actor_engine(1);
        e.restart(b);
        assert!(e.actor(b).timers.is_empty());
        e.run_to_quiescence();
        // No timer was armed because on_restart never ran.
        assert!(e.actor(b).timers.is_empty());
    }

    #[test]
    fn in_flight_messages_survive_a_short_outage() {
        // A message already queued when the target crashes and restarts
        // before its arrival time is delivered: it was in flight.
        let (mut e, a, b) = two_actor_engine(1);
        e.post(b, a, TestMsg::Ping(0), SimDuration::from_millis(50));
        e.fail(b);
        e.run_until(SimTime::from_millis(20));
        e.restart(b);
        e.run_to_quiescence();
        assert_eq!(e.actor(b).pings.len(), 1);
    }

    /// Drops every message toward one unlucky actor.
    struct DropTo(ActorId, u64);
    impl crate::FaultInjector for DropTo {
        fn on_send(&mut self, _now: SimTime, _from: ActorId, to: ActorId) -> crate::FaultAction {
            if to == self.0 {
                self.1 += 1;
                crate::FaultAction::Drop
            } else {
                crate::FaultAction::Deliver
            }
        }
    }

    #[test]
    fn injector_drops_silently_without_bounce() {
        let (mut e, a, b) = two_actor_engine(1);
        e.set_injector(Box::new(DropTo(b, 0)));
        e.post(b, a, TestMsg::Ping(3), SimDuration::ZERO);
        e.run_to_quiescence();
        assert!(e.actor(b).pings.is_empty());
        // Unlike Engine::fail, a lossy link produces no bounce.
        assert!(e.actor(a).bounces.is_empty());
        assert_eq!(e.fault_stats().dropped, 1);
        let injector = e.take_injector().expect("installed");
        // After removal, traffic flows again.
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        assert_eq!(e.actor(b).pings.len(), 1);
        drop(injector);
    }

    struct DelayOrDup(FaultAction);
    impl crate::FaultInjector for DelayOrDup {
        fn on_send(&mut self, _now: SimTime, _from: ActorId, _to: ActorId) -> FaultAction {
            self.0
        }
    }

    #[test]
    fn injector_delay_shifts_arrival() {
        let (mut e, a, b) = two_actor_engine(1);
        e.set_injector(Box::new(DelayOrDup(FaultAction::Delay(
            SimDuration::from_millis(7),
        ))));
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        // 10ms latency + 7ms injected delay.
        assert_eq!(e.actor(b).pings, vec![(17_000, 0)]);
        assert_eq!(e.fault_stats().delayed, 1);
    }

    #[test]
    fn injector_duplicate_delivers_twice() {
        let (mut e, a, b) = two_actor_engine(1);
        e.set_injector(Box::new(DelayOrDup(FaultAction::Duplicate(
            SimDuration::from_millis(5),
        ))));
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        assert_eq!(e.actor(b).pings, vec![(10_000, 0), (15_000, 0)]);
        assert_eq!(e.fault_stats().duplicated, 1);
    }

    #[test]
    fn injector_corrupt_mutates_in_flight_and_counts() {
        let (mut e, a, b) = two_actor_engine(1);
        e.set_injector(Box::new(DelayOrDup(FaultAction::Corrupt(
            crate::CorruptionMode::HugeScale,
        ))));
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        // Delivered on time, but the payload was scaled by 1000... of zero.
        assert_eq!(e.actor(b).pings, vec![(10_000, 0)]);
        assert_eq!(e.fault_stats().corrupted, 1);
    }

    #[test]
    fn injector_corrupt_noop_mode_counts_nothing() {
        let (mut e, a, b) = two_actor_engine(1);
        e.set_injector(Box::new(DelayOrDup(FaultAction::Corrupt(
            crate::CorruptionMode::Nan,
        ))));
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        // TestMsg has nothing NaN-able: delivered verbatim, not counted.
        assert_eq!(e.actor(b).pings, vec![(10_000, 0)]);
        assert_eq!(e.fault_stats().corrupted, 0);
        assert_eq!(e.fault_stats().total(), 0);
    }

    #[test]
    fn metrics_registry_mirrors_engine_tallies() {
        let (mut e, a, b) = two_actor_engine(1);
        e.post(b, a, TestMsg::Ping(2), SimDuration::ZERO);
        e.run_to_quiescence();
        assert_eq!(e.metrics().counter_value("engine/events"), Some(3));
        assert_eq!(e.metrics().counter_value("engine/deliveries"), Some(3));
        assert_eq!(e.metrics().counter_value("engine/faults/dropped"), Some(0));
        assert!(e.queue_peak() >= 1);
        assert_eq!(e.queue_depth(), 0);
        assert_eq!(
            e.metrics().gauge_value("engine/queue_peak"),
            Some(e.queue_peak() as f64)
        );
        let json = e.metrics().to_json();
        assert!(json.contains("\"engine/events\": 3"), "{json}");
    }

    #[test]
    fn flight_recorder_captures_deliveries_and_faults() {
        let (mut e, a, b) = two_actor_engine(1);
        e.enable_flight_recorder(64);
        e.set_injector(Box::new(DelayOrDup(FaultAction::Duplicate(
            SimDuration::from_millis(5),
        ))));
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        let events = e.flight().snapshot();
        assert!(events.iter().all(|ev| ev.subsystem == Subsystem::Engine));
        assert!(events.iter().any(|ev| ev.kind == &DELIVER), "{events:?}");
        let dup = events
            .iter()
            .find(|ev| ev.kind == &FAULT_DUPLICATE)
            .expect("duplicate recorded");
        assert_eq!(
            (dup.node, dup.a, dup.b),
            (b.index() as u32, a.index() as u64, 5_000)
        );
        e.fail(b);
        assert!(e.flight().snapshot().iter().any(|ev| ev.kind == &FAIL));
        e.restart(b);
        assert!(e.flight().snapshot().iter().any(|ev| ev.kind == &RESTART));
        // A send that bounces off a dead actor is visible at the sender,
        // with the failed target as its operand.
        e.take_injector();
        e.fail(a);
        e.post(a, b, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        let events = e.flight().snapshot();
        let bounce = events
            .iter()
            .find(|ev| ev.kind == &BOUNCE)
            .expect("bounce recorded");
        assert_eq!(bounce.node, b.index() as u32);
        assert_eq!(bounce.a, a.index() as u64, "{bounce:?}");
    }

    #[test]
    fn profiler_observes_hot_path_without_changing_the_run() {
        let baseline = {
            let (mut e, a, b) = two_actor_engine(7);
            e.post(b, a, TestMsg::Ping(4), SimDuration::ZERO);
            e.run_to_quiescence();
            (e.actor(a).pings.clone(), e.events_processed())
        };
        let (mut e, a, b) = two_actor_engine(7);
        e.enable_profiling();
        e.set_injector(Box::new(DelayOrDup(FaultAction::Duplicate(
            SimDuration::from_millis(1),
        ))));
        e.take_injector();
        e.post(b, a, TestMsg::Ping(4), SimDuration::ZERO);
        e.run_to_quiescence();
        assert_eq!((e.actor(a).pings.clone(), e.events_processed()), baseline);
        let profiler = e.profiler().expect("enabled");
        assert!(profiler.stats(HotSection::QueuePop).count > 0);
        assert!(profiler.stats(HotSection::Dispatch).count > 0);
        let report = e.profile_report().expect("enabled");
        assert!(report.contains("dispatch"), "{report}");
    }

    #[test]
    fn fifo_between_same_timestamp_events() {
        // Two messages scheduled for the same instant arrive in send order.
        let mut e: Engine<TestMsg, Counter> = Engine::with_seed(9);
        let a = e.add_actor(Counter::default());
        let b = e.add_actor(Counter::default());
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.post(b, a, TestMsg::Ping(0), SimDuration::ZERO);
        e.run_to_quiescence();
        assert_eq!(e.actor(b).pings.len(), 2);
        assert_eq!(e.actor(b).pings[0].0, e.actor(b).pings[1].0);
    }
}

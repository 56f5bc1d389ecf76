//! `engine_gossip` — the bare `vbundle_sim::Engine` under `scale_sweep`'s
//! gossip actor: the engine does all the work and the stack none. The only
//! workload where a queue, prefetch or actor-record change is visible, and
//! the bypass for every stack change.

use std::time::Instant;

use rand::Rng;
use vbundle_sim::{Actor, ActorId, Context, Engine, Message, SimDuration};

use super::{Mode, Params, Rep, FLIGHT_CAPACITY};
use crate::alloc;
use crate::span::Tracer;
use crate::stats::Digest;

/// Messages each actor fans out per gossip tick.
const FANOUT: usize = 4;
const TICK_MS: u64 = 100;
const TICK_TAG: u64 = 1;

fn actors(p: &Params) -> usize {
    p.scaled(100_000) as usize
}

/// The timed phase processes exactly this many events.
fn target_events(p: &Params) -> u64 {
    p.scaled(TARGET_EVENTS)
}

const TARGET_EVENTS: u64 = 10_000_000;

#[derive(Debug, Clone)]
struct Gossip(u64);
impl Message for Gossip {}

/// `scale_sweep`'s synthetic server: every tick, fan [`FANOUT`] messages
/// to uniformly random peers (the worst case for the memory hierarchy),
/// then re-arm the tick.
struct Worker {
    cluster: u32,
    received: u64,
}

impl Actor<Gossip> for Worker {
    fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
        let jitter = ctx.rng().gen_range(0..TICK_MS * 1_000);
        ctx.schedule(SimDuration::from_micros(jitter), TICK_TAG);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Gossip>, _from: ActorId, msg: Gossip) {
        self.received = self.received.wrapping_add(1 + msg.0 % 7);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Gossip>, _tag: u64) {
        for round in 0..FANOUT {
            let peer = ctx.rng().gen_range(0..self.cluster);
            ctx.send(ActorId::new(peer), Gossip(round as u64));
        }
        ctx.schedule(SimDuration::from_millis(TICK_MS), TICK_TAG);
    }
}

pub fn rep(p: &Params, mode: Mode, tr: &mut Tracer) -> Rep {
    let n = actors(p);
    let target = target_events(p);
    let mut rep = Rep::default();

    let setup = Instant::now();
    let open = tr.enter("setup");
    let mut engine: Engine<Gossip, Worker> = Engine::with_seed(p.seed);
    if mode == Mode::Traced {
        engine.enable_flight_recorder(FLIGHT_CAPACITY);
    }
    let add = tr.enter("sim.add_actor");
    for _ in 0..n {
        engine.add_actor(Worker {
            cluster: n as u32,
            received: 0,
        });
    }
    tr.exit(add);
    tr.span("sim.start", || engine.start());
    tr.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    if mode == Mode::Traced {
        engine.enable_profiling();
    }
    let open = tr.enter("run");
    let allocs = alloc::snapshot().allocs;
    let bytes = engine.counter_totals().total_bytes();
    let started = Instant::now();
    while engine.events_processed() < target && engine.step() {}
    rep.run_s = started.elapsed().as_secs_f64();
    rep.events = engine.events_processed();
    rep.run_allocs = alloc::snapshot().allocs - allocs;
    let sent = engine.counter_totals();
    tr.exit_with(open, rep.events, sent.total_msgs());
    rep.nodes = n;

    let open = tr.enter("epilogue");
    let mut d = Digest::default();
    d.word(rep.events);
    d.word(engine.now().as_micros());
    d.word(sent.total_msgs());
    d.word(sent.total_bytes());
    d.word(engine.queue_peak() as u64);
    let received = engine
        .actors()
        .fold(0u64, |acc, (_, w)| acc.wrapping_add(w.received));
    d.word(received);
    rep.digest = d.finish();
    tr.exit(open);

    rep.set(
        "wire_kb_per_server",
        (sent.total_bytes() - bytes) as f64 / 1024.0 / n as f64,
    );
    rep.set("sim.events", rep.events as f64);
    rep.set("sim.queue_peak", engine.queue_peak() as f64);
    if mode == Mode::Traced {
        let flight = engine.flight();
        rep.set(
            "obs.flight_events",
            flight.len() as f64 + flight.dropped() as f64,
        );
        let profiler = engine.profiler().expect("profiling is on");
        super::record_hot_sections(profiler, &mut rep);
    }
    // Every event is one attempted operation; the bare engine has no way
    // to fail one short of stopping early.
    rep.attempted = target;
    rep.failed = target - rep.events.min(target);
    let events = rep.events;
    rep.check(events == target, || {
        format!("engine_gossip: processed {events} events, expected exactly {target}")
    });
    rep
}

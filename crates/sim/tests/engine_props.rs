//! Property tests for the simulation kernel: causal delivery order,
//! determinism and latency accounting under arbitrary message plans.

use proptest::prelude::*;
use vbundle_sim::{Actor, ActorId, Context, Engine, Latency, Message, SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
struct Tagged(u64);
impl Message for Tagged {}

/// Records every arrival with its timestamp.
#[derive(Default)]
struct Recorder {
    arrivals: Vec<(u64, u64)>, // (time µs, tag)
}

impl Actor<Tagged> for Recorder {
    fn on_message(&mut self, ctx: &mut Context<'_, Tagged>, _from: ActorId, msg: Tagged) {
        self.arrivals.push((ctx.now().as_micros(), msg.0));
    }
}

/// Records arrivals, timer firings, bounces and restarts — for pinning
/// down [`Engine::restart`] semantics with traffic in flight.
#[derive(Default)]
struct RestartProbe {
    arrivals: Vec<(u64, u64)>, // (time µs, tag)
    timers: Vec<(u64, u64)>,   // (time µs, tag)
    bounces: Vec<u64>,         // bounced tag
    restarts: u32,
}

impl Actor<Tagged> for RestartProbe {
    fn on_message(&mut self, ctx: &mut Context<'_, Tagged>, _from: ActorId, msg: Tagged) {
        self.arrivals.push((ctx.now().as_micros(), msg.0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Tagged>, tag: u64) {
        self.timers.push((ctx.now().as_micros(), tag));
    }

    fn on_delivery_failure(&mut self, _ctx: &mut Context<'_, Tagged>, _to: ActorId, msg: Tagged) {
        self.bounces.push(msg.0);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Tagged>) {
        self.restarts += 1;
        // Re-arm a periodic timer, as a real protocol stack would.
        ctx.schedule(SimDuration::from_micros(5_000), 99);
    }
}

fn restart_pair() -> (Engine<Tagged, RestartProbe>, ActorId, ActorId) {
    let mut e: Engine<Tagged, RestartProbe> =
        Engine::with_latency(Latency::Constant(SimDuration::from_micros(10_000)), 1);
    let a = e.add_actor(RestartProbe::default());
    let b = e.add_actor(RestartProbe::default());
    (e, a, b)
}

/// A message already in flight toward a node when it crashes — but timed
/// to land after the restart — is delivered (a packet crossing the outage
/// window); one landing *during* the outage bounces to its sender and is
/// gone for good.
#[test]
fn restart_keeps_in_flight_messages_but_not_outage_arrivals() {
    let (mut e, a, b) = restart_pair();
    // Arrives at t = 40ms + 10ms latency = 50ms, after the restart below.
    e.post(b, a, Tagged(1), SimDuration::from_micros(40_000));
    // Arrives at t = 25ms, inside the outage window: bounces.
    e.post(b, a, Tagged(2), SimDuration::from_micros(15_000));
    e.run_until(SimTime::from_micros(20_000));
    e.fail(b);
    e.run_until(SimTime::from_micros(40_000));
    e.restart(b);
    e.run_to_quiescence();
    assert_eq!(e.actor(b).arrivals, vec![(50_000, 1)]);
    assert_eq!(e.actor(b).restarts, 1);
    // The outage-window message bounced back to its sender instead.
    assert_eq!(e.actor(a).bounces, vec![2]);
}

/// Timers armed before the crash are purged — the process that scheduled
/// them is gone — so the restarted node sees only what `on_restart`
/// re-armed, and never a pre-crash timer resurrecting old state.
#[test]
fn restart_purges_pre_crash_timers() {
    let (mut e, _a, b) = restart_pair();
    e.call(b, |_, ctx| {
        ctx.schedule(SimDuration::from_micros(100_000), 7)
    });
    e.run_until(SimTime::from_micros(10_000));
    e.fail(b);
    e.run_until(SimTime::from_micros(20_000));
    e.restart(b);
    e.run_to_quiescence();
    assert_eq!(e.actor(b).timers, vec![(25_000, 99)]);
}

/// Messages a node sent just before crashing stay in flight: the crash
/// kills the process, not packets already on the wire. Replies to those
/// messages then race the outage like any other traffic.
#[test]
fn messages_from_a_crashing_node_still_deliver() {
    let (mut e, a, b) = restart_pair();
    e.call(a, |_, ctx| ctx.send(b, Tagged(3)));
    e.fail(a);
    e.run_to_quiescence();
    assert_eq!(e.actor(b).arrivals, vec![(10_000, 3)]);
    // The sender is dead, so nothing bounced anywhere.
    assert!(e.actor(a).bounces.is_empty());
    // After a restart the revived node exchanges traffic normally again.
    e.restart(a);
    e.call(b, |_, ctx| ctx.send(a, Tagged(4)));
    e.run_to_quiescence();
    assert_eq!(e.actor(a).arrivals, vec![(20_000, 4)]);
}

/// A plan of external messages: (sender, receiver, delay µs, tag).
fn arb_plan(actors: usize) -> impl Strategy<Value = Vec<(u32, u32, u64, u64)>> {
    proptest::collection::vec(
        (
            0..actors as u32,
            0..actors as u32,
            0u64..1_000_000,
            any::<u64>(),
        ),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arrivals at every actor are time-ordered, total arrivals equal
    /// total sends, and each message arrives exactly send-delay + latency
    /// after injection.
    #[test]
    fn delivery_is_causal_and_accounted(
        plan in arb_plan(6),
        latency_us in 0u64..10_000,
    ) {
        let mut engine: Engine<Tagged, Recorder> = Engine::with_latency(
            Latency::Constant(SimDuration::from_micros(latency_us)),
            1,
        );
        for _ in 0..6 {
            engine.add_actor(Recorder::default());
        }
        for &(from, to, delay, tag) in &plan {
            engine.post(
                ActorId::new(to),
                ActorId::new(from),
                Tagged(tag),
                SimDuration::from_micros(delay),
            );
        }
        engine.run_to_quiescence();
        let mut total = 0;
        for i in 0..6u32 {
            let arrivals = &engine.actor(ActorId::new(i)).arrivals;
            total += arrivals.len();
            for w in arrivals.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards at actor {i}");
            }
        }
        prop_assert_eq!(total, plan.len());
        // Expected arrival time of the last-expiring message bounds now().
        let max_expected = plan.iter().map(|p| p.2 + latency_us).max().unwrap();
        prop_assert_eq!(engine.now(), SimTime::from_micros(max_expected));
    }

    /// Runs are deterministic: identical plans and seeds produce
    /// identical event traces.
    #[test]
    fn identical_runs_identical_traces(plan in arb_plan(4), seed in any::<u64>()) {
        let run = || {
            let mut engine: Engine<Tagged, Recorder> = Engine::with_seed(seed);
            for _ in 0..4 {
                engine.add_actor(Recorder::default());
            }
            for &(from, to, delay, tag) in &plan {
                engine.post(
                    ActorId::new(to),
                    ActorId::new(from),
                    Tagged(tag),
                    SimDuration::from_micros(delay),
                );
            }
            engine.run_to_quiescence();
            (0..4u32)
                .map(|i| engine.actor(ActorId::new(i)).arrivals.clone())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// run_until never processes events beyond the deadline, and a later
    /// run_until picks them up exactly.
    #[test]
    fn run_until_is_a_clean_cut(
        plan in arb_plan(3),
        cut_us in 0u64..1_200_000,
    ) {
        let mut engine: Engine<Tagged, Recorder> = Engine::with_seed(1);
        for _ in 0..3 {
            engine.add_actor(Recorder::default());
        }
        for &(from, to, delay, tag) in &plan {
            engine.post(
                ActorId::new(to),
                ActorId::new(from),
                Tagged(tag),
                SimDuration::from_micros(delay),
            );
        }
        engine.run_until(SimTime::from_micros(cut_us));
        for i in 0..3u32 {
            for &(at, _) in &engine.actor(ActorId::new(i)).arrivals {
                prop_assert!(at <= cut_us);
            }
        }
        engine.run_to_quiescence();
        let total: usize = (0..3u32)
            .map(|i| engine.actor(ActorId::new(i)).arrivals.len())
            .sum();
        prop_assert_eq!(total, plan.len());
    }
}

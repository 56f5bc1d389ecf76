//! The sim-time tracing plane: a bounded ring of fixed-size records keyed
//! by `(tick, node, subsystem)` — the flight recorder that turns "a chaos
//! invariant failed at minute 60" into a readable last-N-events story.
//!
//! A record is `Copy` and holds no text: a static [`Kind`] (its label and
//! the names of its two operands, fixed where the kind is defined) plus two
//! integer operands — peer index, VM or lease id, count, delay. Text exists
//! only when the ring is dumped, so recording into a warm ring allocates
//! nothing.
//!
//! The recorder is a shared handle (`Clone` shares the ring), so the
//! engine and every subsystem can append to one ring without plumbing
//! mutable references through the actor stack. A disabled recorder
//! ([`FlightRecorder::disabled`], also the `Default`) costs one `Option`
//! branch per [`FlightRecorder::record`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::rc::Rc;

/// Which layer of the stack recorded an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// The discrete-event engine itself (deliveries, faults, bounces).
    Engine,
    /// The Pastry overlay (routing repair, evictions).
    Pastry,
    /// The Scribe trees (membership, child expiry).
    Scribe,
    /// The v-Bundle controller (placement, shuffling, trading, failover).
    Controller,
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Subsystem::Engine => "engine",
            Subsystem::Pastry => "pastry",
            Subsystem::Scribe => "scribe",
            Subsystem::Controller => "controller",
        };
        f.write_str(s)
    }
}

/// An event kind: its label and the names of its two operands. Each kind
/// is a `const` next to the code that records it; an empty operand name
/// marks an unused operand, which is recorded as 0 and not rendered.
#[derive(Debug, PartialEq, Eq)]
pub struct Kind {
    /// The label (`"deliver"`, `"evict"`, …).
    pub label: &'static str,
    /// The names of operands `a` and `b`.
    pub operands: [&'static str; 2],
}

impl Kind {
    /// A kind labelled `label` whose operands are named `a` and `b`.
    pub const fn new(label: &'static str, a: &'static str, b: &'static str) -> Kind {
        Kind {
            label,
            operands: [a, b],
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy)]
pub struct ObsEvent {
    /// Simulated time of the event in microseconds.
    pub at_us: u64,
    /// The node (actor index) the event happened on.
    pub node: u32,
    /// The recording subsystem.
    pub subsystem: Subsystem,
    /// What happened, and what the operands mean.
    pub kind: &'static Kind,
    /// The first operand (named by `kind.operands[0]`).
    pub a: u64,
    /// The second operand (named by `kind.operands[1]`).
    pub b: u64,
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}us] node#{} {}/{}",
            self.at_us, self.node, self.subsystem, self.kind.label
        )?;
        for (name, value) in self.kind.operands.iter().zip([self.a, self.b]) {
            if !name.is_empty() {
                write!(f, " {name}={value}")?;
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<ObsEvent>,
    capacity: usize,
    dropped: u64,
}

/// The bounded event ring. `Clone` shares the underlying ring; `Default`
/// is a disabled recorder.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Rc<RefCell<Ring>>>,
}

impl FlightRecorder {
    /// A live recorder retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            inner: Some(Rc::new(RefCell::new(Ring {
                events: VecDeque::with_capacity(capacity),
                capacity,
                dropped: 0,
            }))),
        }
    }

    /// A recorder that ignores every append.
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// Whether appends are retained. Callers whose operands cost more
    /// than a field read compute them behind this check.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event of `kind` with operands `a` and `b`, evicting the
    /// oldest record when the ring is full.
    #[inline]
    pub fn record(
        &self,
        at_us: u64,
        node: u32,
        subsystem: Subsystem,
        kind: &'static Kind,
        a: u64,
        b: u64,
    ) {
        if let Some(inner) = &self.inner {
            let mut ring = inner.borrow_mut();
            if ring.events.len() == ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(ObsEvent {
                at_us,
                node,
                subsystem,
                kind,
                a,
                b,
            });
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().events.len(),
            None => 0,
        }
    }

    /// True when nothing is retained (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.borrow().dropped,
            None => 0,
        }
    }

    /// All retained events, oldest first.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        match &self.inner {
            Some(inner) => inner.borrow().events.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Renders the most recent `n` events as lines, oldest first —
    /// the post-mortem dump printed when an invariant fails.
    pub fn dump_tail(&self, n: usize) -> String {
        let mut out = String::new();
        if let Some(inner) = &self.inner {
            let ring = inner.borrow();
            let skip = ring.events.len().saturating_sub(n);
            for (i, ev) in ring.events.iter().skip(skip).enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                let _ = write!(out, "{ev}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Kind = Kind::new("a", "n", "");
    const B: Kind = Kind::new("b", "n", "");
    const C: Kind = Kind::new("c", "n", "");

    fn ev(rec: &FlightRecorder, at: u64, node: u32, kind: &'static Kind) {
        rec.record(at, node, Subsystem::Engine, kind, at, 0);
    }

    #[test]
    fn ring_bounds_and_drop_count() {
        let rec = FlightRecorder::new(2);
        ev(&rec, 1, 0, &A);
        ev(&rec, 2, 0, &B);
        ev(&rec, 3, 0, &C);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        // The ring holds `capacity` records of 40 B each, nothing else.
        assert_eq!(std::mem::size_of::<ObsEvent>(), 40);
        let labels: Vec<_> = rec.snapshot().iter().map(|e| e.kind.label).collect();
        assert_eq!(labels, vec!["b", "c"]);
    }

    #[test]
    fn clone_shares_the_ring() {
        let rec = FlightRecorder::new(8);
        let other = rec.clone();
        ev(&other, 5, 1, &A);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.snapshot()[0].kind, &A);
    }

    #[test]
    fn disabled_recorder_ignores_everything() {
        let rec = FlightRecorder::disabled();
        ev(&rec, 1, 0, &A);
        assert!(rec.is_empty());
        assert!(!rec.is_enabled());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.dump_tail(10), "");
    }

    #[test]
    fn renders_each_record_shape() {
        const NONE: Kind = Kind::new("fail", "", "");
        const ONE: Kind = Kind::new("evict", "peer", "");
        const TWO: Kind = Kind::new("fault-delay", "from", "extra_us");
        let rec = FlightRecorder::new(4);
        rec.record(7, 3, Subsystem::Engine, &NONE, 0, 0);
        rec.record(8, 4, Subsystem::Pastry, &ONE, 12, 0);
        rec.record(9, 5, Subsystem::Engine, &TWO, 1, 2500);
        rec.record(10, 6, Subsystem::Controller, &TWO, u64::MAX, 0);
        assert_eq!(
            rec.dump_tail(4),
            "[7us] node#3 engine/fail\n\
             [8us] node#4 pastry/evict peer=12\n\
             [9us] node#5 engine/fault-delay from=1 extra_us=2500\n\
             [10us] node#6 controller/fault-delay from=18446744073709551615 extra_us=0"
        );
        // The tail keeps the newest records.
        assert_eq!(
            rec.dump_tail(1),
            "[10us] node#6 controller/fault-delay from=18446744073709551615 extra_us=0"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }
}

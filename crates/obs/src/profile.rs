//! The wall-clock profiling plane: scoped timers around the engine hot
//! path, aggregated per [`HotSection`].
//!
//! Wall-clock time is the one quantity this repository's determinism
//! contract cannot tame, so the profiler lives strictly *outside* the
//! simulation state: it reads `Instant`, never the sim clock, and nothing
//! in the engine branches on its numbers. Profile reports are for humans
//! and perf trajectories (`BENCH_scale.json`), never for goldens.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One in this many executions of a section is timed (a power of two).
/// An `Instant` pair costs about as much as a queue pop, so timing every
/// one would weigh on the run it measures; the sampled mean, scaled by
/// the exact execution count, estimates the total.
pub const SAMPLE_EVERY: u64 = 64;

/// The instrumented sections of the engine hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotSection {
    /// Popping the next event off the queue.
    QueuePop,
    /// Dispatching one event into an actor callback (the dominant cost:
    /// protocol logic plus effect application).
    Dispatch,
    /// Consulting the installed [`FaultInjector`] on a send.
    ///
    /// [`FaultInjector`]: https://docs.rs/vbundle-sim
    InjectorConsult,
    /// Cloning a message for a duplicate delivery (the
    /// PastryMsg→ScribeMsg→CtrlMsg clone chain).
    MessageClone,
    /// Nothing records this any more: the event queue never moves a
    /// far-future event (it pops straight off its FIFO or the heap), so
    /// `sim.far_promote_ns` reads 0 and a far key's cost shows inside
    /// [`HotSection::QueuePop`]. Kept because the benchmark names it.
    FarPromote,
}

impl HotSection {
    /// Every section, in display order.
    pub const ALL: [HotSection; 5] = [
        HotSection::QueuePop,
        HotSection::Dispatch,
        HotSection::InjectorConsult,
        HotSection::MessageClone,
        HotSection::FarPromote,
    ];

    fn index(self) -> usize {
        match self {
            HotSection::QueuePop => 0,
            HotSection::Dispatch => 1,
            HotSection::InjectorConsult => 2,
            HotSection::MessageClone => 3,
            HotSection::FarPromote => 4,
        }
    }

    /// The section this one runs inside, if any: the injector consult
    /// and the duplicate's clone happen in `Engine::enqueue_send`, which
    /// the dispatch timer spans when it drains the handler's sends. A
    /// send posted from outside any event (`Engine::post`) is the
    /// exception: its consult is counted in its own row but under no
    /// dispatch.
    fn parent(self) -> Option<HotSection> {
        match self {
            HotSection::InjectorConsult | HotSection::MessageClone => Some(HotSection::Dispatch),
            HotSection::QueuePop | HotSection::Dispatch | HotSection::FarPromote => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            HotSection::QueuePop => "queue_pop",
            HotSection::Dispatch => "dispatch",
            HotSection::InjectorConsult => "injector_consult",
            HotSection::MessageClone => "message_clone",
            HotSection::FarPromote => "far_promote",
        }
    }
}

/// Aggregated wall-clock cost of one section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionStats {
    /// Times the section executed.
    pub count: u64,
    /// Total wall-clock nanoseconds spent.
    pub total_ns: u64,
    /// The single slowest execution, in nanoseconds.
    pub max_ns: u64,
}

impl SectionStats {
    /// Mean nanoseconds per execution (0 when never executed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One section's tallies: every execution counted, a sample timed.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    calls: u64,
    timed: u64,
    timed_ns: u64,
    max_ns: u64,
}

/// Accumulates sampled wall-clock timings per [`HotSection`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    sections: [Tally; HotSection::ALL.len()],
}

impl Profiler {
    /// A fresh profiler with every section at zero.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Counts one execution of `section` and, for the first of every
    /// [`SAMPLE_EVERY`], returns the start to hand to [`Profiler::finish`].
    /// A sampled start reads the clock twice: the first read pulls the
    /// clock's code and data back into cache, which the events since the
    /// last sample evicted, so the timed read does not charge their misses
    /// to the section.
    #[inline]
    pub fn start(&mut self, section: HotSection) -> Option<Instant> {
        let s = &mut self.sections[section.index()];
        let due = s.calls.is_multiple_of(SAMPLE_EVERY);
        s.calls += 1;
        due.then(|| {
            std::hint::black_box(Instant::now());
            Instant::now()
        })
    }

    /// Times the execution [`Profiler::start`] sampled.
    #[inline]
    pub fn finish(&mut self, section: HotSection, started: Instant) {
        self.sample(section, started.elapsed());
    }

    /// Folds one execution of `section`, timed at `elapsed`, into the
    /// aggregate.
    pub fn record(&mut self, section: HotSection, elapsed: Duration) {
        self.sections[section.index()].calls += 1;
        self.sample(section, elapsed);
    }

    fn sample(&mut self, section: HotSection, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let s = &mut self.sections[section.index()];
        s.timed += 1;
        s.timed_ns += ns;
        s.max_ns = s.max_ns.max(ns);
    }

    /// The aggregate for one section: its exact execution count, the
    /// sampled mean scaled to that count, and the slowest sample.
    pub fn stats(&self, section: HotSection) -> SectionStats {
        let s = self.sections[section.index()];
        let total = u128::from(s.timed_ns) * u128::from(s.calls) / u128::from(s.timed.max(1));
        SectionStats {
            count: s.calls,
            total_ns: total.min(u128::from(u64::MAX)) as u64,
            max_ns: s.max_ns,
        }
    }

    /// Total profiled wall-clock nanoseconds: the sum of the top-level
    /// sections, each nested section already inside its parent.
    pub fn total_ns(&self) -> u64 {
        HotSection::ALL
            .iter()
            .filter(|s| s.parent().is_none())
            .map(|&s| self.stats(s).total_ns)
            .sum()
    }

    /// Renders the hot-path profile as a table: the top-level sections
    /// sorted by total time, each with its share of the profiled total
    /// and followed by its nested sections (indented), whose share is of
    /// their parent.
    pub fn report(&self) -> String {
        let by_total = |sections: &mut Vec<(HotSection, SectionStats)>| {
            sections.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
        };
        let mut top: Vec<(HotSection, SectionStats)> = HotSection::ALL
            .iter()
            .filter(|s| s.parent().is_none())
            .map(|&s| (s, self.stats(s)))
            .collect();
        by_total(&mut top);
        let mut out = String::from("hot-path profile (wall clock)\n");
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>14} {:>10} {:>10} {:>6}",
            "section", "count", "total_ns", "mean_ns", "max_ns", "share"
        );
        let mut row = |name: String, s: SectionStats, of: u64| {
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>14} {:>10} {:>10} {:>5.1}%",
                name,
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.max_ns,
                100.0 * s.total_ns as f64 / of.max(1) as f64
            );
        };
        let total = self.total_ns();
        for (parent, stats) in top {
            row(parent.name().to_string(), stats, total);
            let mut nested: Vec<(HotSection, SectionStats)> = HotSection::ALL
                .iter()
                .filter(|s| s.parent() == Some(parent))
                .map(|&s| (s, self.stats(s)))
                .collect();
            by_total(&mut nested);
            for (section, s) in nested {
                row(format!("  {}", section.name()), s, stats.total_ns);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut p = Profiler::new();
        p.record(HotSection::Dispatch, Duration::from_nanos(100));
        p.record(HotSection::Dispatch, Duration::from_nanos(300));
        p.record(HotSection::QueuePop, Duration::from_nanos(50));
        let d = p.stats(HotSection::Dispatch);
        assert_eq!(d.count, 2);
        assert_eq!(d.total_ns, 400);
        assert_eq!(d.mean_ns(), 200);
        assert_eq!(d.max_ns, 300);
        assert_eq!(p.total_ns(), 450);
    }

    #[test]
    fn report_sorts_by_total_and_sums_shares() {
        let mut p = Profiler::new();
        p.record(HotSection::QueuePop, Duration::from_nanos(10));
        p.record(HotSection::Dispatch, Duration::from_nanos(990));
        let report = p.report();
        let dispatch_at = report.find("dispatch").unwrap();
        let pop_at = report.find("queue_pop").unwrap();
        assert!(dispatch_at < pop_at, "biggest section first:\n{report}");
        assert!(report.contains("99.0%"), "{report}");
    }

    #[test]
    fn nested_sections_count_once_and_report_as_shares_of_their_parent() {
        let mut p = Profiler::new();
        p.record(HotSection::QueuePop, Duration::from_nanos(500));
        p.record(HotSection::Dispatch, Duration::from_nanos(1_500));
        p.record(HotSection::InjectorConsult, Duration::from_nanos(300));
        p.record(HotSection::MessageClone, Duration::from_nanos(150));
        assert_eq!(p.total_ns(), 2_000, "nested sections are inside dispatch");
        let report = p.report();
        let line = |name: &str| {
            report
                .lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap_or_else(|| panic!("no {name} row:\n{report}"))
                .to_string()
        };
        assert!(line("dispatch").ends_with("75.0%"), "{report}");
        assert!(line("queue_pop").ends_with("25.0%"), "{report}");
        assert!(line("injector_consult").starts_with("  "), "{report}");
        assert!(line("injector_consult").ends_with("20.0%"), "{report}");
        assert!(line("message_clone").ends_with("10.0%"), "{report}");
        let at = |name: &str| report.find(&line(name)).expect("row");
        assert!(at("dispatch") < at("injector_consult"), "{report}");
        assert!(at("injector_consult") < at("message_clone"), "{report}");
        assert!(
            at("message_clone") < at("queue_pop"),
            "nested rows follow their parent:\n{report}"
        );
    }

    #[test]
    fn sampled_sections_count_every_execution_and_scale_the_time() {
        let mut p = Profiler::new();
        let mut timed = 0;
        for _ in 0..3 * SAMPLE_EVERY {
            if let Some(t) = p.start(HotSection::QueuePop) {
                timed += 1;
                p.finish(HotSection::QueuePop, t);
            }
        }
        assert_eq!(timed, 3, "the first of every {SAMPLE_EVERY} is timed");
        let s = p.stats(HotSection::QueuePop);
        assert_eq!(s.count, 3 * SAMPLE_EVERY);
        assert!(s.total_ns >= SAMPLE_EVERY * s.max_ns, "{s:?}");
    }

    #[test]
    fn empty_profiler_reports_cleanly() {
        let p = Profiler::new();
        assert_eq!(p.stats(HotSection::MessageClone), SectionStats::default());
        assert_eq!(p.stats(HotSection::InjectorConsult).mean_ns(), 0);
        assert!(p.report().contains("section"));
    }
}

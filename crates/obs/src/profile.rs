//! The wall-clock profiling plane: scoped timers around the engine hot
//! path, aggregated per [`HotSection`].
//!
//! Wall-clock time is the one quantity this repository's determinism
//! contract cannot tame, so the profiler lives strictly *outside* the
//! simulation state: it reads `Instant`, never the sim clock, and nothing
//! in the engine branches on its numbers. Profile reports are for humans
//! and perf trajectories (`BENCH_scale.json`), never for goldens.

use std::fmt::Write as _;
use std::time::Duration;

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
    /// Nothing records this any more: the calendar queue no longer
    /// promotes far-future events (they pop straight off its one heap),
    /// so `sim.far_promote_ns` reads 0 and a far key's cost shows inside
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

/// Accumulates scoped wall-clock timings per [`HotSection`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    sections: [SectionStats; HotSection::ALL.len()],
}

impl Profiler {
    /// A fresh profiler with every section at zero.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Folds one timed execution of `section` into the aggregate.
    #[inline]
    pub fn record(&mut self, section: HotSection, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let s = &mut self.sections[section.index()];
        s.count += 1;
        s.total_ns += ns;
        s.max_ns = s.max_ns.max(ns);
    }

    /// The aggregate for one section.
    pub fn stats(&self, section: HotSection) -> SectionStats {
        self.sections[section.index()]
    }

    /// Total profiled wall-clock nanoseconds across all sections.
    pub fn total_ns(&self) -> u64 {
        self.sections.iter().map(|s| s.total_ns).sum()
    }

    /// Renders the hot-path profile as a table sorted by total time,
    /// with each section's share of the profiled total.
    pub fn report(&self) -> String {
        let mut rows: Vec<(HotSection, SectionStats)> = HotSection::ALL
            .iter()
            .map(|&s| (s, self.stats(s)))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
        let total = self.total_ns().max(1);
        let mut out = String::from("hot-path profile (wall clock)\n");
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>14} {:>10} {:>10} {:>6}",
            "section", "count", "total_ns", "mean_ns", "max_ns", "share"
        );
        for (section, s) in rows {
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>14} {:>10} {:>10} {:>5.1}%",
                section.name(),
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.max_ns,
                100.0 * s.total_ns as f64 / total as f64
            );
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
    fn empty_profiler_reports_cleanly() {
        let p = Profiler::new();
        assert_eq!(p.stats(HotSection::MessageClone), SectionStats::default());
        assert_eq!(p.stats(HotSection::InjectorConsult).mean_ns(), 0);
        assert!(p.report().contains("section"));
    }
}

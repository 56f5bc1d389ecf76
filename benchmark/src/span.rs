//! The harness's own span tracer: wall-clock spans recorded around calls
//! into each crate's public functions, kept in memory and written out when
//! the benchmark ends. Nothing inside the crates under measurement knows
//! about it.

use std::time::Instant;

/// One recorded span. `parent` is the span that was open when this one
/// started; roots have none. `events`/`msgs` are the engine's event and
/// message counts over the span where the caller sampled them.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: u64,
    pub msgs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans when enabled; a disabled tracer does nothing, so timed
/// reps run the same harness code with tracing off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            events: 0,
            msgs: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        self.exit_with(open, 0, 0);
    }

    /// Closes `open` and attaches the counts sampled over it.
    pub fn exit_with(&mut self, open: Open, events: u64, msgs: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.events = events;
        span.msgs = msgs;
    }

    /// Times one call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let (ns, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.duration_ns(), n + 1));
        (ns as f64 / 1e9, n)
    }

    /// Seconds spent in spans called `name`, or 0 when none was recorded.
    pub fn secs(&self, name: &str) -> f64 {
        self.total(name).0
    }
}

/// Every span's self time: its duration minus what its direct children
/// cover. Indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_ns();
        }
    }
    out
}

/// For every root span, `(id, sum of self times at and below it)`. The sum
/// equals the root's duration when children nest inside their parents.
pub fn root_self_sums(spans: &[Span]) -> Vec<(usize, u64)> {
    let selfs = self_times(spans);
    // Parents are recorded before their children, so one forward pass
    // resolves every span's root.
    let mut root_of = Vec::with_capacity(spans.len());
    let mut sums: Vec<(usize, u64)> = Vec::new();
    for s in spans {
        let root = s.parent.map_or(s.id, |p| root_of[p]);
        root_of.push(root);
        match sums.iter_mut().find(|(r, _)| *r == root) {
            Some((_, sum)) => *sum += selfs[s.id],
            None => sums.push((root, selfs[s.id])),
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            events: 0,
            msgs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 ⊃ a 10..40 ⊃ a1 15..25 ; root ⊃ b 50..90 (sibling of a)
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 40, 30 - 10, 10, 40]);
        assert_eq!(root_self_sums(&spans), vec![(0, 100)]);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("root");
        tr.span("child", || std::hint::black_box(1 + 1));
        let c2 = tr.enter("child");
        tr.exit_with(c2, 7, 3);
        tr.exit(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[2].events, spans[2].msgs), (7, 3));
        assert_eq!(tr.total("child").1, 2);
        assert_eq!(root_self_sums(spans), vec![(0, spans[0].duration_ns())]);

        let mut off = Tracer::new(false);
        let o = off.enter("x");
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}

//! The metrics plane: named, sharded counter/gauge/histogram handles and
//! deterministic JSON/CSV export.
//!
//! # Handles and shards
//!
//! A metric is registered once by name and manipulated through a *handle*
//! ([`Counter`], [`Gauge`], [`Histogram`]). Handles are `Rc` cells: clone
//! freely, increment from anywhere, no locking (the simulation is
//! single-threaded by design). Registering the **same name again** returns
//! a fresh *shard* of the same logical metric — the per-CPU-counter idiom:
//! each of N controllers owns its own shard (readable on its own for
//! per-server assertions), and export sums the shards into one series.
//!
//! # Determinism
//!
//! Interning order, shard order and export order are all functions of the
//! (deterministic) program, never of wall time or hashing, so two seeded
//! runs export byte-identical reports. Export sorts by metric name.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// What kind of series a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-written `f64` level.
    Gauge,
    /// Fixed-bucket distribution of `f64` samples.
    Histogram,
}

/// A monotonically increasing counter handle.
///
/// `Default` yields a *detached* counter: it counts, but belongs to no
/// registry and is never exported — the zero-configuration state of a
/// subsystem before [`Scope::counter`] attaches a registered shard.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get() + n);
    }

    /// Current value of *this shard* (not the logical metric's sum).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

/// A last-written-value gauge handle. See [`Counter`] for the detached
/// `Default` semantics.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Rc<Cell<f64>>,
}

impl Gauge {
    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.set(v);
    }

    /// Adjusts the level by `delta`.
    #[inline]
    pub fn add(&self, delta: f64) {
        self.cell.set(self.cell.get() + delta);
    }

    /// Current level of this shard.
    #[inline]
    pub fn get(&self) -> f64 {
        self.cell.get()
    }
}

#[derive(Debug)]
struct HistCore {
    /// Ascending upper bounds; bucket `i` counts samples `v` with
    /// `bounds[i-1] < v <= bounds[i]` (inclusive upper edge, Prometheus
    /// `le` convention). One extra overflow bucket counts `v > last`.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

/// A fixed-bucket histogram handle with deterministic bucketing.
///
/// Buckets are fixed at registration — no dynamic resizing, no
/// approximation — so the same samples always land in the same cells and
/// exports are reproducible byte-for-byte.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Rc<RefCell<HistCore>>,
}

impl Histogram {
    /// A detached histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            inner: Rc::new(RefCell::new(HistCore {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                sum: 0.0,
                total: 0,
            })),
        }
    }

    /// Records one sample. A sample equal to an upper bound lands in that
    /// bucket (inclusive upper edge); anything above the last bound lands
    /// in the overflow bucket.
    pub fn record(&self, v: f64) {
        let mut core = self.inner.borrow_mut();
        let idx = core
            .bounds
            .iter()
            .position(|&le| v <= le)
            .unwrap_or(core.bounds.len());
        core.counts[idx] += 1;
        core.sum += v;
        core.total += 1;
    }

    /// Total samples recorded into this shard.
    pub fn count(&self) -> u64 {
        self.inner.borrow().total
    }

    /// Sum of all samples recorded into this shard.
    pub fn sum(&self) -> f64 {
        self.inner.borrow().sum
    }

    /// The configured upper bounds (overflow bucket excluded).
    pub fn bounds(&self) -> Vec<f64> {
        self.inner.borrow().bounds.clone()
    }

    /// Per-bucket counts of this shard; the final entry is the overflow
    /// bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner.borrow().counts.clone()
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Vec<Counter>),
    Gauge(Vec<Gauge>),
    Histogram(Vec<Histogram>),
}

impl Slot {
    fn kind(&self) -> MetricKind {
        match self {
            Slot::Counter(_) => MetricKind::Counter,
            Slot::Gauge(_) => MetricKind::Gauge,
            Slot::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    entries: Vec<(String, Slot)>,
    by_name: BTreeMap<String, usize>,
}

impl RegistryInner {
    fn slot_for(&mut self, name: &str, kind: MetricKind) -> &mut Slot {
        let idx = match self.by_name.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = self.entries.len();
                let slot = match kind {
                    MetricKind::Counter => Slot::Counter(Vec::new()),
                    MetricKind::Gauge => Slot::Gauge(Vec::new()),
                    MetricKind::Histogram => Slot::Histogram(Vec::new()),
                };
                self.entries.push((name.to_string(), slot));
                self.by_name.insert(name.to_string(), idx);
                idx
            }
        };
        let slot = &mut self.entries[idx].1;
        assert!(
            slot.kind() == kind,
            "metric {name:?} already registered as {:?}, not {kind:?}",
            slot.kind()
        );
        slot
    }
}

/// The metric registry: interns names, retains one shard list per logical
/// metric and renders deterministic exports.
///
/// Cloning shares the registry (it is a handle itself). A
/// [`Registry::disabled`] registry hands out detached handles that still
/// count — callers never branch — but retains nothing and exports empty
/// reports: the zero-bookkeeping configuration.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Rc<RefCell<RegistryInner>>>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Rc::new(RefCell::new(RegistryInner::default()))),
        }
    }

    /// A disabled registry: every handle it returns is detached and
    /// nothing is retained or exported.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry retains and exports metrics.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or shards) the counter `name` and returns a new handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let handle = Counter::default();
        if let Some(inner) = &self.inner {
            match inner.borrow_mut().slot_for(name, MetricKind::Counter) {
                Slot::Counter(shards) => shards.push(handle.clone()),
                _ => unreachable!("slot_for checked the kind"),
            }
        }
        handle
    }

    /// Registers (or shards) the gauge `name` and returns a new handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let handle = Gauge::default();
        if let Some(inner) = &self.inner {
            match inner.borrow_mut().slot_for(name, MetricKind::Gauge) {
                Slot::Gauge(shards) => shards.push(handle.clone()),
                _ => unreachable!("slot_for checked the kind"),
            }
        }
        handle
    }

    /// Registers (or shards) the histogram `name` with the given bucket
    /// upper bounds and returns a new handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a different kind, or if a
    /// previous shard used different bounds (shards of one logical
    /// histogram must agree so export can sum buckets cell-wise).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let handle = Histogram::with_bounds(bounds);
        if let Some(inner) = &self.inner {
            match inner.borrow_mut().slot_for(name, MetricKind::Histogram) {
                Slot::Histogram(shards) => {
                    if let Some(first) = shards.first() {
                        assert!(
                            first.bounds() == bounds,
                            "histogram {name:?} shards disagree on bounds"
                        );
                    }
                    shards.push(handle.clone());
                }
                _ => unreachable!("slot_for checked the kind"),
            }
        }
        handle
    }

    /// A scope that prefixes every metric it registers with
    /// `<prefix>/` — one scope per subsystem keeps names collision-free.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Registered metric names in export (sorted) order.
    pub fn names(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner.borrow().by_name.keys().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// The summed value of counter `name` across its shards.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let inner = inner.borrow();
        let &idx = inner.by_name.get(name)?;
        match &inner.entries[idx].1 {
            Slot::Counter(shards) => Some(shards.iter().map(Counter::get).sum()),
            _ => None,
        }
    }

    /// The summed level of gauge `name` across its shards.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let inner = inner.borrow();
        let &idx = inner.by_name.get(name)?;
        match &inner.entries[idx].1 {
            Slot::Gauge(shards) => Some(shards.iter().map(Gauge::get).sum()),
            _ => None,
        }
    }

    /// Renders every metric as a deterministic JSON document: metrics
    /// sorted by name, histogram buckets cell-wise summed across shards.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        if let Some(inner) = &self.inner {
            let inner = inner.borrow();
            for (name, &idx) in &inner.by_name {
                match &inner.entries[idx].1 {
                    Slot::Counter(shards) => {
                        let v: u64 = shards.iter().map(Counter::get).sum();
                        sep(&mut counters);
                        let _ = write!(counters, "\"{name}\": {v}");
                    }
                    Slot::Gauge(shards) => {
                        let v: f64 = shards.iter().map(Gauge::get).sum();
                        sep(&mut gauges);
                        let _ = write!(gauges, "\"{name}\": {}", json_f64(v));
                    }
                    Slot::Histogram(shards) => {
                        let (bounds, counts, sum, total) = merge_hist(shards);
                        sep(&mut hists);
                        let _ = write!(
                            hists,
                            "\"{name}\": {{\"count\": {total}, \"sum\": {}, \"buckets\": [",
                            json_f64(sum)
                        );
                        for (i, c) in counts.iter().enumerate() {
                            if i > 0 {
                                hists.push_str(", ");
                            }
                            let le = match bounds.get(i) {
                                Some(b) => json_f64(*b),
                                None => "\"+inf\"".to_string(),
                            };
                            let _ = write!(hists, "{{\"le\": {le}, \"count\": {c}}}");
                        }
                        hists.push_str("]}");
                    }
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{counters}}},\n  \"gauges\": {{{gauges}}},\n  \"histograms\": {{{hists}}}\n}}"
        )
    }

    /// Renders every metric as `metric,kind,value` CSV rows (histograms
    /// expand into `count`, `sum` and one `le=<bound>` row per bucket),
    /// sorted by metric name.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,kind,value\n");
        if let Some(inner) = &self.inner {
            let inner = inner.borrow();
            for (name, &idx) in &inner.by_name {
                match &inner.entries[idx].1 {
                    Slot::Counter(shards) => {
                        let v: u64 = shards.iter().map(Counter::get).sum();
                        let _ = writeln!(out, "{name},counter,{v}");
                    }
                    Slot::Gauge(shards) => {
                        let v: f64 = shards.iter().map(Gauge::get).sum();
                        let _ = writeln!(out, "{name},gauge,{v}");
                    }
                    Slot::Histogram(shards) => {
                        let (bounds, counts, sum, total) = merge_hist(shards);
                        let _ = writeln!(out, "{name},histogram_count,{total}");
                        let _ = writeln!(out, "{name},histogram_sum,{sum}");
                        for (i, c) in counts.iter().enumerate() {
                            match bounds.get(i) {
                                Some(b) => {
                                    let _ = writeln!(out, "{name},le={b},{c}");
                                }
                                None => {
                                    let _ = writeln!(out, "{name},le=+inf,{c}");
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// A name-prefixing view of a [`Registry`]: metrics registered through a
/// scope are named `<prefix>/<name>`.
#[derive(Debug, Clone)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    /// Registers (or shards) the counter `<prefix>/<name>`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&format!("{}/{name}", self.prefix))
    }

    /// Registers (or shards) the gauge `<prefix>/<name>`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&format!("{}/{name}", self.prefix))
    }

    /// Registers (or shards) the histogram `<prefix>/<name>`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.registry
            .histogram(&format!("{}/{name}", self.prefix), bounds)
    }

    /// A nested scope `<prefix>/<name>`.
    pub fn scope(&self, name: &str) -> Scope {
        self.registry.scope(&format!("{}/{name}", self.prefix))
    }

    /// The owning registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

fn sep(buf: &mut String) {
    if !buf.is_empty() {
        buf.push_str(", ");
    }
}

/// JSON-safe float rendering: shortest round-trip for finite values,
/// `null` for the non-finite ones JSON cannot express.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Cell-wise sum of histogram shards (bounds, counts incl. overflow,
/// sum, total).
fn merge_hist(shards: &[Histogram]) -> (Vec<f64>, Vec<u64>, f64, u64) {
    let bounds = shards.first().map(Histogram::bounds).unwrap_or_default();
    let mut counts = vec![0u64; bounds.len() + 1];
    let mut sum = 0.0;
    let mut total = 0;
    for shard in shards {
        for (acc, c) in counts.iter_mut().zip(shard.bucket_counts()) {
            *acc += c;
        }
        sum += shard.sum();
        total += shard.count();
    }
    (bounds, counts, sum, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum_on_export() {
        let reg = Registry::new();
        let a = reg.counter("x/hits");
        let b = reg.counter("x/hits");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 3, "per-shard reads stay per-shard");
        assert_eq!(reg.counter_value("x/hits"), Some(7));
    }

    #[test]
    fn detached_handles_count_but_export_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        c.inc();
        assert_eq!(c.get(), 1);
        assert!(!reg.is_enabled());
        assert_eq!(reg.counter_value("x"), None);
        assert!(reg.names().is_empty());
        assert_eq!(reg.to_csv(), "metric,kind,value\n");
    }

    #[test]
    fn scope_prefixes_names() {
        let reg = Registry::new();
        let scope = reg.scope("engine").scope("faults");
        let c = scope.counter("dropped");
        c.inc();
        assert_eq!(reg.counter_value("engine/faults/dropped"), Some(1));
        assert!(scope.registry().is_enabled());
    }

    #[test]
    fn ids_are_interned_in_registration_order() {
        let reg = Registry::new();
        reg.counter("b");
        reg.counter("a");
        reg.counter("b");
        let idx = |name: &str| {
            let inner = reg.inner.as_ref().unwrap().borrow();
            inner.by_name.get(name).copied()
        };
        assert_eq!(idx("b"), Some(0));
        assert_eq!(idx("a"), Some(1));
        assert_eq!(idx("missing"), None);
        assert_eq!(reg.inner.as_ref().unwrap().borrow().entries.len(), 2);
        // Export order is by name, not registration.
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_programmer_errors() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_edges_are_inclusive_upper() {
        let h = Histogram::with_bounds(&[1.0, 10.0]);
        h.record(1.0); // == first bound: first bucket (inclusive)
        h.record(1.0000001); // just above: second bucket (exclusive lower)
        h.record(10.0); // == last bound: second bucket
        h.record(10.5); // above all bounds: overflow
        h.record(-3.0); // below first bound: first bucket
        assert_eq!(h.bucket_counts(), vec![2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - (1.0 + 1.0000001 + 10.0 + 10.5 - 3.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_shards_merge_cell_wise() {
        let reg = Registry::new();
        let a = reg.histogram("lat", &[1.0, 2.0]);
        let b = reg.histogram("lat", &[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(99.0);
        let json = reg.to_json();
        assert!(json.contains("\"lat\": {\"count\": 3"), "{json}");
        assert!(
            json.contains("{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 1}, {\"le\": \"+inf\", \"count\": 1}"),
            "{json}"
        );
    }

    #[test]
    #[should_panic(expected = "disagree on bounds")]
    fn histogram_shards_must_agree_on_bounds() {
        let reg = Registry::new();
        reg.histogram("lat", &[1.0]);
        reg.histogram("lat", &[2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_bounds_must_ascend() {
        Histogram::with_bounds(&[2.0, 1.0]);
    }

    #[test]
    fn exports_are_deterministic_and_sorted() {
        let build = || {
            let reg = Registry::new();
            reg.counter("z/late").add(2);
            reg.counter("b/early").add(1);
            reg.gauge("a/level").set(1.5);
            reg.histogram("m/dist", &[1.0]).record(0.5);
            (reg.to_json(), reg.to_csv())
        };
        assert_eq!(build(), build());
        let (json, csv) = build();
        // Within a kind section, metrics are sorted by name regardless of
        // registration order.
        assert!(json.find("\"b/early\"").unwrap() < json.find("\"z/late\"").unwrap());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "metric,kind,value");
        assert_eq!(lines[1], "a/level,gauge,1.5");
        assert_eq!(lines[2], "b/early,counter,1");
        assert!(lines.contains(&"z/late,counter,2"));
        assert!(lines.contains(&"m/dist,le=+inf,0"));
    }

    #[test]
    fn non_finite_gauges_export_as_null() {
        let reg = Registry::new();
        reg.gauge("bad").set(f64::NAN);
        assert!(reg.to_json().contains("\"bad\": null"));
    }
}

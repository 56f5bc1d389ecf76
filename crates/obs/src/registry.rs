//! The metrics plane: counter sets, gauge/histogram handles and
//! deterministic JSON/CSV export.
//!
//! # Counter sets
//!
//! A subsystem declares its counters once, as a struct of [`Counter`]
//! fields generated by [`counters!`](crate::counters): each field is a
//! plain `Cell<u64>` inline in the set, and the owner holds the whole set
//! in one `Rc`. [`Registry::attach`] records that `Rc` under a scope — one
//! 16-B entry per set; the field names are stored once per scope and set
//! type — and export sums `<scope>/<field>` over every set attached there
//! (the per-CPU-counter idiom: each of N controllers owns its set, readable
//! on its own for per-server assertions, and export sums them into one
//! series). An unattached set still counts; it is just never exported.
//!
//! # Gauges and histograms
//!
//! A gauge or histogram is registered by name and manipulated through an
//! `Rc` *handle* ([`Gauge`], [`Histogram`]): clone freely, write from
//! anywhere, no locking (the simulation is single-threaded by design).
//! Registering the **same name again** returns a fresh *shard* of the same
//! logical metric, and export sums the shards.
//!
//! # Determinism
//!
//! Interning order, attach order and export order are all functions of
//! the (deterministic) program, never of wall time or hashing, so two
//! seeded runs export byte-identical reports. Export sorts by metric name.

use std::any::TypeId;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
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

/// A monotonically increasing counter: one field of a [`CounterSet`].
///
/// It is not `Clone`: a clone would copy the count, not share it. Owners
/// share a counter by sharing the `Rc` of its set.
///
/// ```compile_fail
/// let counter = vbundle_obs::Counter::default();
/// let _copy = counter.clone();
/// ```
#[derive(Debug, Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value of *this owner's* counter (not the exported sum).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A named set of [`Counter`]s, the unit [`Registry::attach`] records.
/// Implemented by [`counters!`](crate::counters), not by hand.
pub trait CounterSet: fmt::Debug + 'static {
    /// The field names in declaration order, exported as
    /// `<scope>/<name>`.
    fn names() -> &'static [&'static str]
    where
        Self: Sized;

    /// The counter named `names()[i]`.
    fn counter(&self, i: usize) -> &Counter;
}

/// Declares a [`CounterSet`]: a struct whose fields are all [`Counter`]s,
/// with `Default`, the set's field-name list and a `Debug` that prints
/// each field's value.
///
/// ```
/// vbundle_obs::counters! {
///     /// Requests and their failures.
///     pub struct Tally {
///         /// Requests seen.
///         pub seen: Counter,
///         /// Requests that failed.
///         pub failed: Counter,
///     }
/// }
/// let tally = Tally::default();
/// tally.seen.inc();
/// assert_eq!(format!("{tally:?}"), "Tally { seen: 1, failed: 0 }");
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fattr:meta])* $fvis:vis $field:ident: Counter ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        #[derive(Default)]
        $vis struct $name {
            $( $(#[$fattr])* $fvis $field: $crate::Counter, )*
        }

        impl $crate::CounterSet for $name {
            fn names() -> &'static [&'static str] {
                &[$(stringify!($field)),*]
            }

            fn counter(&self, i: usize) -> &$crate::Counter {
                [$(&self.$field),*][i]
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.debug_struct(stringify!($name))
                    $(.field(stringify!($field), &self.$field.get()))*
                    .finish()
            }
        }
    };
}

/// A last-written-value gauge handle.
///
/// `Default` yields a *detached* gauge: it holds a level, but belongs to
/// no registry and is never exported.
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
    /// Field `field` of every set in group `group`.
    Counter {
        group: usize,
        field: usize,
    },
    Gauge(Vec<Gauge>),
    Histogram(Vec<Histogram>),
}

impl Slot {
    fn kind(&self) -> MetricKind {
        match self {
            Slot::Counter { .. } => MetricKind::Counter,
            Slot::Gauge(_) => MetricKind::Gauge,
            Slot::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Every set of one type attached under one scope.
#[derive(Debug)]
struct SetGroup {
    scope: String,
    set_type: TypeId,
    sets: Vec<Rc<dyn CounterSet>>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    entries: Vec<(String, Slot)>,
    by_name: BTreeMap<String, usize>,
    groups: Vec<SetGroup>,
}

impl RegistryInner {
    /// The slot registered as `name`, created by `make` if there is none.
    fn slot_for(&mut self, name: &str, kind: MetricKind, make: impl FnOnce() -> Slot) -> &mut Slot {
        let idx = match self.by_name.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = self.entries.len();
                self.entries.push((name.to_string(), make()));
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

    /// The summed value of field `field` across the sets of `group`.
    fn counter_sum(&self, group: usize, field: usize) -> u64 {
        self.groups[group]
            .sets
            .iter()
            .map(|s| s.counter(field).get())
            .sum()
    }
}

/// The metric registry: interns names, retains the attached counter sets
/// and one shard list per gauge or histogram, and renders deterministic
/// exports.
///
/// Cloning shares the registry (it is a handle itself). A
/// [`Registry::disabled`] registry ignores [`Registry::attach`] and hands
/// out detached handles that still count — callers never branch — but
/// retains nothing and exports empty reports: the zero-bookkeeping
/// configuration.
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

    /// Attaches `set` under `scope`: export sums each field as
    /// `<scope>/<field>` across every set of its type attached there. The
    /// first set of a type under a scope registers the names; each later
    /// one costs one `Rc` in the group's list.
    ///
    /// # Panics
    ///
    /// Panics if one of the names is already registered with a different
    /// kind, or by another set type.
    pub fn attach<S: CounterSet>(&self, scope: &str, set: &Rc<S>) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut inner = inner.borrow_mut();
        let set_type = TypeId::of::<S>();
        let found = inner
            .groups
            .iter()
            .position(|g| g.set_type == set_type && g.scope == scope);
        let group = match found {
            Some(group) => group,
            None => {
                let group = inner.groups.len();
                for (field, name) in S::names().iter().enumerate() {
                    let name = format!("{scope}/{name}");
                    let slot = inner.slot_for(&name, MetricKind::Counter, || Slot::Counter {
                        group,
                        field,
                    });
                    assert!(
                        matches!(*slot, Slot::Counter { group: g, .. } if g == group),
                        "counter {name:?} is declared by two counter sets"
                    );
                }
                inner.groups.push(SetGroup {
                    scope: scope.to_string(),
                    set_type,
                    sets: Vec::new(),
                });
                group
            }
        };
        let set: Rc<dyn CounterSet> = set.clone();
        inner.groups[group].sets.push(set);
    }

    /// Registers (or shards) the gauge `name` and returns a new handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let handle = Gauge::default();
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            match inner.slot_for(name, MetricKind::Gauge, || Slot::Gauge(Vec::new())) {
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
            let mut inner = inner.borrow_mut();
            match inner.slot_for(name, MetricKind::Histogram, || Slot::Histogram(Vec::new())) {
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

    /// Registered metric names in export (sorted) order.
    pub fn names(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner.borrow().by_name.keys().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// The summed value of counter `name` across its attached sets.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let inner = inner.borrow();
        let &idx = inner.by_name.get(name)?;
        match inner.entries[idx].1 {
            Slot::Counter { group, field } => Some(inner.counter_sum(group, field)),
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
                    &Slot::Counter { group, field } => {
                        let v = inner.counter_sum(group, field);
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
                    &Slot::Counter { group, field } => {
                        let v = inner.counter_sum(group, field);
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

    crate::counters! {
        struct Hits {
            hits: Counter,
            misses: Counter,
        }
    }

    crate::counters! {
        struct Level {
            level: Counter,
        }
    }

    #[test]
    fn counter_sets_sum_on_export() {
        let reg = Registry::new();
        let a = Rc::new(Hits::default());
        let b = Rc::new(Hits::default());
        reg.attach("x", &a);
        reg.attach("x", &b);
        a.hits.add(3);
        b.hits.add(4);
        b.misses.inc();
        assert_eq!(a.hits.get(), 3, "each owner reads its own value");
        assert_eq!(b.hits.get(), 4);
        assert_eq!(reg.counter_value("x/hits"), Some(7));
        assert_eq!(reg.counter_value("x/misses"), Some(1));
        assert_eq!(
            reg.names(),
            vec!["x/hits".to_string(), "x/misses".to_string()]
        );
        assert_eq!(reg.inner.as_ref().unwrap().borrow().groups.len(), 1);
    }

    #[test]
    fn detached_handles_count_but_export_nothing() {
        let reg = Registry::disabled();
        let set = Rc::new(Hits::default());
        reg.attach("x", &set);
        set.hits.inc();
        assert_eq!(set.hits.get(), 1);
        assert_eq!(
            Rc::strong_count(&set),
            1,
            "a disabled registry keeps no set"
        );
        assert!(!reg.is_enabled());
        assert_eq!(reg.counter_value("x/hits"), None);
        assert!(reg.names().is_empty());
        assert_eq!(reg.to_csv(), "metric,kind,value\n");
    }

    #[test]
    fn scope_prefixes_names() {
        let reg = Registry::new();
        let set = Rc::new(Level::default());
        reg.attach("engine/faults", &set);
        set.level.inc();
        assert_eq!(reg.counter_value("engine/faults/level"), Some(1));
    }

    #[test]
    fn ids_are_interned_in_registration_order() {
        let reg = Registry::new();
        reg.gauge("b");
        reg.gauge("a");
        reg.gauge("b");
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
    #[should_panic(expected = "already registered as Gauge, not Counter")]
    fn kind_conflicts_are_programmer_errors() {
        let reg = Registry::new();
        reg.gauge("x/level");
        reg.attach("x", &Rc::new(Level::default()));
    }

    #[test]
    #[should_panic(expected = "already registered as Counter, not Gauge")]
    fn gauge_named_like_a_set_field_is_a_kind_conflict() {
        let reg = Registry::new();
        reg.attach("x", &Rc::new(Level::default()));
        reg.gauge("x/level");
    }

    #[test]
    #[should_panic(expected = "declared by two counter sets")]
    fn two_set_types_cannot_share_a_name() {
        crate::counters! {
            struct OtherHits {
                hits: Counter,
            }
        }
        let reg = Registry::new();
        reg.attach("x", &Rc::new(Hits::default()));
        reg.attach("x", &Rc::new(OtherHits::default()));
    }

    #[test]
    fn set_debug_prints_values() {
        let set = Hits::default();
        set.misses.add(2);
        assert_eq!(format!("{set:?}"), "Hits { hits: 0, misses: 2 }");
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
            let late = Rc::new(Hits::default());
            let early = Rc::new(Level::default());
            reg.attach("z", &late);
            reg.attach("b", &early);
            reg.attach("z", &Rc::new(Hits::default()));
            late.hits.add(2);
            early.level.inc();
            reg.gauge("a/level").set(1.5);
            reg.histogram("m/dist", &[1.0]).record(0.5);
            (reg.to_json(), reg.to_csv())
        };
        assert_eq!(build(), build());
        let (json, csv) = build();
        assert_eq!(
            json,
            "{\n  \"counters\": {\"b/level\": 1, \"z/hits\": 2, \"z/misses\": 0},\n  \
             \"gauges\": {\"a/level\": 1.5},\n  \
             \"histograms\": {\"m/dist\": {\"count\": 1, \"sum\": 0.5, \"buckets\": \
             [{\"le\": 1, \"count\": 1}, {\"le\": \"+inf\", \"count\": 0}]}}\n}"
        );
        assert_eq!(
            csv,
            "metric,kind,value\n\
             a/level,gauge,1.5\n\
             b/level,counter,1\n\
             m/dist,histogram_count,1\n\
             m/dist,histogram_sum,0.5\n\
             m/dist,le=1,1\n\
             m/dist,le=+inf,0\n\
             z/hits,counter,2\n\
             z/misses,counter,0\n"
        );
    }

    #[test]
    fn non_finite_gauges_export_as_null() {
        let reg = Registry::new();
        reg.gauge("bad").set(f64::NAN);
        assert!(reg.to_json().contains("\"bad\": null"));
    }
}

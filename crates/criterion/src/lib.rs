//! Minimal, dependency-free stand-in for the subset of the `criterion`
//! 0.5 API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this stub instead of the real crate. It keeps the same source
//! shape (`criterion_group!` / `criterion_main!`, `Criterion`,
//! `BenchmarkGroup`, `Bencher::iter` / `iter_batched_ref`) but replaces
//! criterion's statistical machinery with a plain wall-clock mean over
//! `sample_size` iterations, printed to stdout. Good enough to keep the
//! benches compiling, runnable and comparable run-to-run; not a rigorous
//! measurement tool. As with criterion, `cargo bench -- <filter>` runs
//! only the benchmarks whose full name contains `<filter>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 100 }
    }
}

impl Criterion {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into(), self.sample_size, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured iterations for benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Declares the per-iteration throughput (recorded for display only).
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_one(&full, self.sample_size, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        run_one(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// A benchmark identifier (here: just its display string).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id naming the benchmark after its parameter value.
    pub fn from_parameter(p: impl Display) -> BenchmarkId {
        BenchmarkId(p.to_string())
    }

    /// An id with a function name and a parameter value.
    pub fn new(function: impl Into<String>, p: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{}/{}", function.into(), p))
    }
}

/// Per-iteration work declared for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batching policy for `iter_batched*` (only the label matters here).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration setup output.
    SmallInput,
    /// Large per-iteration setup output.
    LargeInput,
}

/// Passed to each benchmark closure; runs and times the routine.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` once per sample.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        std::hint::black_box(routine());
        self.elapsed += start.elapsed();
        self.iters += 1;
    }

    /// Times `routine` against a fresh, untimed `setup()` value each
    /// sample, passing it by mutable reference.
    pub fn iter_batched_ref<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(&mut I) -> O,
        _size: BatchSize,
    ) {
        let mut input = setup();
        let start = Instant::now();
        std::hint::black_box(routine(&mut input));
        self.elapsed += start.elapsed();
        self.iters += 1;
        drop(input);
    }

    /// Like [`Bencher::iter_batched_ref`], but passes the value by move.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let input = setup();
        let start = Instant::now();
        std::hint::black_box(routine(input));
        self.elapsed += start.elapsed();
        self.iters += 1;
    }
}

/// Whether `name` passes the command-line filter: the first argument
/// that is not a flag (cargo itself passes `--bench`) must be a substring
/// of the benchmark's full name.
fn selected(name: &str) -> bool {
    std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .is_none_or(|filter| name.contains(&filter))
}

fn run_one(name: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
    if !selected(name) {
        return;
    }
    // One warm-up call, untimed.
    let mut warm = Bencher::default();
    f(&mut warm);

    let mut b = Bencher::default();
    for _ in 0..samples {
        f(&mut b);
    }
    let mean = if b.iters > 0 {
        b.elapsed / b.iters as u32
    } else {
        Duration::ZERO
    };
    println!(
        "bench {name:<40} {mean:>12.3?}/iter over {} iter(s)",
        b.iters
    );
}

/// Declares a benchmark group as a function that runs its targets.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Prevents the compiler from optimizing a value away (shim over
/// `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(c: &mut Criterion) {
        c.bench_function("stub/identity", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("stub/group");
        g.sample_size(5);
        g.throughput(Throughput::Elements(3));
        g.bench_with_input(BenchmarkId::from_parameter(3), &3u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.bench_function("batched", |b| {
            b.iter_batched_ref(|| vec![1u8, 2, 3], |v| v.reverse(), BatchSize::SmallInput)
        });
        g.finish();
    }

    criterion_group!(
        name = stub;
        config = Criterion::default().sample_size(10);
        targets = target
    );

    #[test]
    fn group_runs() {
        stub();
    }
}

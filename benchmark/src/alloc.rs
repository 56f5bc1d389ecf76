//! A counting `#[global_allocator]` that lives in the benchmark binary, so
//! allocation numbers come from outside the crates under measurement.
//!
//! Counting is off during timed reps: the only cost then is one relaxed
//! load per call. The counted rep switches it on, and the harness reads
//! call counts, bytes requested and the peak of live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Live bytes relative to the last `reset`; blocks allocated before it and
// freed after it can push this below zero, hence signed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The allocator installed by `main.rs`.
pub struct Counting;

fn grow(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grow(new_size);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocation calls (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Live bytes relative to the last [`reset`].
    pub live: i64,
    /// Highest `live` seen since the last [`reset`].
    pub peak: i64,
}

/// Zeroes the counters and switches counting on.
pub fn reset_and_enable() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Switches counting off (the counters keep their values).
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Reads the counters; all zeros' worth of change while counting is off.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Runs `f` with counting on and returns what it allocated. Nests inside
/// an already-counted region without disturbing it.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let was_on = ENABLED.swap(true, Relaxed);
    let before = snapshot();
    let out = f();
    let after = snapshot();
    ENABLED.store(was_on, Relaxed);
    (
        out,
        Snapshot {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
            live: after.live - before.live,
            peak: after.peak,
        },
    )
}

/// Pins glibc's mmap threshold at its initial 128 KiB. Left alone, malloc
/// raises the threshold the first time a large block is freed, after which
/// the same allocations are served (and grown, by copying) from the heap:
/// a process's second and later reps then run in a different allocator
/// regime than its first (`engine_gossip` set up in 7 ms or 12 ms
/// depending on which regime a process happened to land in). Pinned, every
/// rep allocates the way a fresh process does — which is how the simulator
/// is used.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's own tuning entry point (std links
    // glibc on this target); it takes two plain ints, touches only
    // malloc's parameters and is called before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) refused");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_mmap_threshold() {}

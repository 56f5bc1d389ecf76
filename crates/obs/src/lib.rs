//! Deterministic observability for the v-Bundle reproduction.
//!
//! Three planes, matching what a production control plane exports, but
//! built so that turning any of them on **cannot change a simulation
//! run**:
//!
//! 1. **Metrics** ([`Registry`]) — interned counters, gauges and
//!    fixed-bucket histograms with per-subsystem [`Scope`]s and
//!    deterministic JSON/CSV export. Handles ([`Counter`], [`Gauge`],
//!    [`Histogram`]) are cheap `Rc` cells: incrementing one is a plain
//!    load/add/store, so subsystems keep their counters *on* registry
//!    handles instead of ad-hoc stat structs.
//! 2. **Sim-time tracing** ([`FlightRecorder`]) — a bounded ring of
//!    fixed-size `Copy` records keyed by `(tick, node, subsystem)`: a
//!    static [`Kind`] and two integer operands, rendered to text only
//!    when the tail is dumped. Disabled by default; when a chaos
//!    invariant fails, the tail is the flight recorder for the
//!    post-mortem.
//! 3. **Wall-clock profiling** ([`Profiler`]) — scoped timers around the
//!    engine hot path, aggregated per [`HotSection`]. Wall-clock readings
//!    never feed back into simulation state, so they are kept strictly
//!    outside the deterministic core and never appear in goldens.
//!
//! The determinism contract: metrics/trace/profile observe a run, they
//! never steer it. No plane draws randomness, advances the clock or
//! reorders events, so a run with every plane enabled is byte-identical
//! to the same seed with everything off — asserted end-to-end by the
//! `obs_determinism` chaos test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profile;
mod recorder;
mod registry;

pub use profile::{HotSection, Profiler, SectionStats, SAMPLE_EVERY};
pub use recorder::{FlightRecorder, Kind, ObsEvent, Subsystem};
pub use registry::{Counter, Gauge, Histogram, MetricKind, Registry, Scope};

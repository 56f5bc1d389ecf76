//! # vbundle-fdetect — adaptive failure detection and reliable delivery
//!
//! Shared liveness primitives for every protocol layer of the v-Bundle
//! stack. The PR-1 chaos suite showed that fixed `3 × interval` silence
//! deadlines are brittle: lossy or slow links evict live nodes, and those
//! false positives cascade into Scribe re-joins and spurious migration
//! rollbacks. This crate replaces them with:
//!
//! - [`PeerDetector`] — a **phi-accrual** detector (one peer's
//!   inter-arrival window, suspicion threshold [`PHI_THRESHOLD`]) with
//!   SWIM-style suspicion: a peer crossing the threshold becomes
//!   *suspect* and gets a confirmation grace during which intermediaries
//!   are asked to ping it, so a lossy direct link alone cannot evict a
//!   live node. A layer embeds one in each per-peer record it keeps.
//!   See [`phi`].
//! - [`Courier`] — retransmission bookkeeping for request/response
//!   exchanges: exponential backoff, deterministic jitter (seeded via the
//!   in-tree `rand` stub), bounded retry budgets. See [`courier`].
//! - [`DedupWindow`] — receive-side message-id dedup making duplicated
//!   deliveries idempotent by construction. See [`dedup`].
//! - [`DomainSuspicion`] — folds per-server death evidence into sticky
//!   whole-failure-domain declarations, the trigger for backup-activated
//!   failover. See [`domain`].
//!
//! All primitives are pure state machines over the simulated clock:
//! deterministic, replayable, and engine-agnostic.

#![warn(missing_docs)]

pub mod courier;
pub mod dedup;
pub mod domain;
pub mod phi;
pub mod probe;

pub use courier::{backoff_rounds, Courier, CourierConfig, RetryDecision};
pub use dedup::DedupWindow;
pub use domain::DomainSuspicion;
pub use phi::{
    ArrivalWindow, PeerDetector, Verdict, FIRST_INTERVAL, MIN_STD_DEV, PHI_THRESHOLD, WINDOW,
};
pub use probe::Probe;

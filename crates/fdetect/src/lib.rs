//! # vbundle-fdetect — adaptive failure detection and reliable delivery
//!
//! Shared liveness primitives for every protocol layer of the v-Bundle
//! stack. The PR-1 chaos suite showed that fixed `3 × interval` silence
//! deadlines are brittle: lossy or slow links evict live nodes, and those
//! false positives cascade into Scribe re-joins and spurious migration
//! rollbacks. This crate replaces them with:
//!
//! - [`PeerDetector`] — a **phi-accrual** detector (one peer's
//!   inter-arrival window, configurable suspicion threshold) with
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
pub use phi::{ArrivalWindow, PeerDetector, PhiConfig, Verdict, FIRST_INTERVAL, WINDOW};
pub use probe::Probe;

/// Silent probe rounds after which [`FailureDetection::FixedInterval`]
/// declares a peer dead: Pastry's leaf-set heartbeats and Scribe's
/// parent-side child links share this one deadline.
pub const FIXED_INTERVAL_ROUNDS: u64 = 3;

/// How a protocol layer decides that a peer is dead.
///
/// Carried inside each layer's config so ablation sweeps (and the
/// `chaos_sweep` false-positive comparison) can flip one layer at a time
/// between the legacy fixed deadline and the adaptive detector.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureDetection {
    /// Legacy behaviour: a peer silent for [`FIXED_INTERVAL_ROUNDS`] probe
    /// intervals is declared dead outright, no second opinion.
    FixedInterval,
    /// Phi-accrual suspicion plus SWIM-style indirect probing before
    /// eviction.
    PhiAccrual(PhiConfig),
}

impl Default for FailureDetection {
    fn default() -> Self {
        FailureDetection::PhiAccrual(PhiConfig::default())
    }
}

impl FailureDetection {
    /// The phi configuration, if adaptive detection is selected.
    pub fn phi_config(&self) -> Option<&PhiConfig> {
        match self {
            FailureDetection::FixedInterval => None,
            FailureDetection::PhiAccrual(c) => Some(c),
        }
    }
}

//! Observable counters of one controller. They stay two flat public
//! structs on [`Controller`] whichever protocol module
//! does the counting: the figure harnesses and the frozen `benchmark/`
//! package read the fields by name.
//!
//! [`Controller`]: super::Controller

use vbundle_obs::Counter;
use vbundle_pastry::NodeHandle;
use vbundle_sim::SimTime;

use crate::VmId;

/// Observable counters of one controller, used by the figure harnesses.
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Results of boot requests this server originated:
    /// `(request, vm, host-or-None)`.
    pub boot_results: Vec<(u64, VmId, Option<NodeHandle>)>,
    /// Boot queries this server examined (admitted or forwarded).
    pub boots_handled: u64,
    /// VMs migrated away.
    pub migrations_out: u64,
    /// VMs migrated in.
    pub migrations_in: u64,
    /// Times at which outbound migrations started.
    pub migration_times: Vec<SimTime>,
    /// Load-balance queries sent.
    pub queries_sent: u64,
    /// Load-balance queries accepted by this server.
    pub accepts_sent: u64,
    /// Anycasts that found no receiver.
    pub anycast_failures: u64,
    /// Migrations skipped by the cost-benefit gate.
    pub migrations_gated: u64,
    /// Migrations whose receiver never acknowledged the transfer; the VM
    /// was reinstalled on this server.
    pub migrations_failed: u64,
    /// Cluster-mean readings rejected by the sanity gate (implausible
    /// range or jump); the controller kept steering on the last-good mean.
    /// An obs shard: detached by default, summed across controllers under
    /// `controller/rejected_aggregates` once [`Controller::attach_obs`] is
    /// called. Read this controller's own share with [`Counter::get`].
    ///
    /// [`Controller::attach_obs`]: super::Controller::attach_obs
    pub rejected_aggregates: Counter,
    /// Sheds skipped because the candidate VM was party to a live lease
    /// (migrating a leased VM would strand the entitlement's other half).
    /// An obs shard like `rejected_aggregates`, exported under
    /// `controller/sheds_lease_blocked`.
    pub sheds_lease_blocked: Counter,
    /// Update intervals this controller spent in conservative mode (mean
    /// gate suspicious: no new sheds, in-flight holds honored).
    pub conservative_intervals: u64,
    /// Wire input counted and dropped: payloads the Scribe-layer poison
    /// screen refused before processing
    /// ([`ScribeClient::validate_payload`]),
    /// and direct messages naming a protocol step that is not legal in
    /// the stage its operation is in (a `LoadAccept` for another VM than
    /// the one offered, with failover on a second `BackupReserve` for a VM
    /// already charged).
    ///
    /// [`ScribeClient::validate_payload`]: vbundle_scribe::ScribeClient::validate_payload
    pub invalid_payloads: u64,
    /// Backup reservations this server carved out on behalf of other
    /// servers' survivable admissions (receiver side of
    /// [`CtrlMsg::BackupReserve`], at most one per VM).
    ///
    /// [`CtrlMsg::BackupReserve`]: crate::CtrlMsg::BackupReserve
    pub backups_reserved: u64,
    /// Survivable admissions on this server whose backup found no known
    /// cross-domain peer with room.
    pub backups_unplaced: u64,
    /// Rack death declarations this backup site made (failover). An obs
    /// shard like `rejected_aggregates`, exported under
    /// `controller/fo_domains_declared`.
    pub fo_domains_declared: Counter,
    /// VMs this site re-materialized onto reserved backup capacity
    /// (successful failover boots). Shard
    /// `controller/fo_rematerialized`.
    pub fo_rematerialized: Counter,
    /// Fence messages sent to stale primaries, first sends and resends.
    /// Shard `controller/fo_fences_sent`.
    pub fo_fences_sent: Counter,
    /// Leases reverted on this server because a fence removed their VM.
    /// Shard `controller/fo_lease_reverts`.
    pub fo_lease_reverts: Counter,
}

/// Observable counters of the spot market on one controller. Obs
/// [`Counter`] shards like the trade stats: detached until
/// [`Controller::attach_obs`] registers them under the `market` scope
/// (only when the spot market is configured, so off-market exports are
/// unchanged).
///
/// [`Controller::attach_obs`]: super::Controller::attach_obs
#[derive(Debug, Clone, Default)]
pub struct MarketStats {
    /// Priced borrow requests anycast into the pod's spot group.
    pub spot_asks: Counter,
    /// Priced leases this server accepted as borrower (cleared trades).
    pub spot_trades: Counter,
    /// Priced grants refused because the ask exceeded `max_price`.
    pub spot_rejected_price: Counter,
    /// Priced grants refused because they would blow the tenant's budget.
    pub spot_rejected_budget: Counter,
    /// Spot lends refused because the isolation cap left under a minimum
    /// lease of headroom.
    pub spot_rejected_cap: Counter,
    /// Renewal probes answered with a replacement lease at the current
    /// spot price.
    pub requotes: Counter,
    /// Revenue entries reversed on provable grant failure.
    pub billing_reversals: Counter,
}

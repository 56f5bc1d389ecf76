//! The per-server v-Bundle controller (§II–§III).
//!
//! Each physical server runs one [`Controller`] as its Scribe client. It
//! implements both halves of v-Bundle:
//!
//! - **Placement** (§II.B): boot queries routed to `hash(customer)` are
//!   admitted if the VM's reservation fits, otherwise forwarded across the
//!   neighbor set, spreading outward from the customer key's root server;
//! - **Resource shuffling** (§III.C): servers publish `(BW_Demand,
//!   BW_Capacity)` into the aggregation trees, self-identify as load
//!   shedders or receivers against `mean + threshold`, and shedders
//!   anycast load-balance queries into the *Less-Loaded* tree; accepting
//!   receivers hold bandwidth until the VM migrates over.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vbundle_aggregation::{AggMsg, AggregationConfig, Aggregator, Robustness, AGG_TICK_TAG};
use vbundle_dcn::{Bandwidth, DomainKind, Topology};
use vbundle_fdetect::{Courier, CourierConfig, DomainSuspicion, RetryDecision};
use vbundle_market::{BillingBook, BillingEntry, EntrySide, PriceIndex};
use vbundle_obs::{Counter, FlightRecorder, Registry, Subsystem};
use vbundle_pastry::{actor_distance, NodeHandle};
use vbundle_scribe::{group_id, GroupId, ScribeClient, ScribeCtx};
use vbundle_sim::{ActorId, SimDuration, SimTime};
use vbundle_trade::{HalfLease, Lease, LeaseId, LeaseRole, ResourceSpec, TradeBook};

use crate::config::SurvivabilityConfig;
use crate::message::{BootQuery, BorrowRequest, CtrlMsg, LoadQuery, SurvCaps};
use crate::placement::survivable_domain_cap;
use crate::{shaper, CustomerId, ResourceVector, VBundleConfig, VmId, VmRecord};

/// Client timer tag for the status-update tick.
pub const UPDATE_TAG: u64 = 0x101;
/// Client timer tag for the rebalancing tick.
pub const REBALANCE_TAG: u64 = 0x102;
/// Client timer tag for the failover tick (probe protected racks, resend
/// fences, retry re-materializations). Armed only when failover is on.
pub const FAILOVER_TAG: u64 = 0x103;
/// Request-id space for failover re-materialization boots (`base | n`).
/// Disjoint from any harness-assigned request id, so a backup site can
/// intercept its own [`CtrlMsg::BootResult`]s instead of surfacing them
/// as tenant boots.
pub const FAILOVER_BOOT_BASE: u64 = 1 << 62;
/// Timer-tag space for per-migration ack timeouts (`base | query id`);
/// sits below the Scribe-reserved space, above the small client tags.
pub const MIGRATE_RETRY_TAG_BASE: u64 = 1 << 61;
/// Timer-tag space for per-lease grant-ack timeouts (`base | lease id`);
/// below the migration space. Lease ids are
/// `(lender server index << 32) | counter`, far under `1 << 60`.
pub const TRADE_RETRY_TAG_BASE: u64 = 1 << 60;
/// Total transmission attempts per migration (first send included) before
/// it is declared failed and the VM is reinstalled on the shedder.
const MIGRATION_ATTEMPTS: u32 = 3;
/// Total transmission attempts per lease grant before the lender stops
/// chasing the ack and leaves its debit to expire.
const TRADE_ATTEMPTS: u32 = 3;
/// Jitter salt for the migration courier ("MIGR").
const MIGRATION_COURIER_SALT: u64 = 0x4d49_4752;
/// Jitter salt for the trade courier ("TRAD").
const TRADE_COURIER_SALT: u64 = 0x5452_4144;
/// Smallest lease worth the protocol traffic, in Mbps.
const MIN_LEASE_MBPS: f64 = 1.0;

/// The aggregation topic carrying every server's NIC capacity.
pub fn bw_capacity_topic() -> GroupId {
    group_id("BW_Capacity")
}

/// The aggregation topic carrying every server's bandwidth demand.
pub fn bw_demand_topic() -> GroupId {
    group_id("BW_Demand")
}

/// The anycast tree of servers advertising spare bandwidth.
pub fn less_loaded_group() -> GroupId {
    group_id("Less-Loaded")
}

/// The per-customer trade tree: every server hosting one of the
/// customer's VMs joins, and starved VMs anycast
/// [`BorrowRequest`]s into it — the same Less-Loaded discipline as load
/// shedding, scoped to one tenant's bundle.
pub fn trade_group(customer: CustomerId) -> GroupId {
    group_id(&format!("Trade-{}", customer.0))
}

/// The per-pod spot-market tree: servers with cross-tenant lendable
/// headroom join their pod's group, and VMs still starved after their own
/// bundle had nothing left anycast priced `BorrowRequest`s into it.
/// Pod-scoped so trades clear close to the borrower and each pod's price
/// index reflects local supply.
pub fn spot_group(pod: u32) -> GroupId {
    group_id(&format!("Spot-{pod}"))
}

/// Aggregation topics carrying capacity for one resource dimension
/// (multi-metric shuffling, §VII).
pub fn capacity_topic(kind: crate::ResourceKind) -> GroupId {
    match kind {
        crate::ResourceKind::Bandwidth => bw_capacity_topic(),
        crate::ResourceKind::Cpu => group_id("CPU_Capacity"),
        crate::ResourceKind::Memory => group_id("MEM_Capacity"),
    }
}

/// Aggregation topics carrying demand for one resource dimension.
pub fn demand_topic(kind: crate::ResourceKind) -> GroupId {
    match kind {
        crate::ResourceKind::Bandwidth => bw_demand_topic(),
        crate::ResourceKind::Cpu => group_id("CPU_Demand"),
        crate::ResourceKind::Memory => group_id("MEM_Demand"),
    }
}

/// A server's self-identified role in the current rebalancing epoch
/// (§III.C step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerStatus {
    /// Utilization above `mean + threshold`: evacuating VMs.
    Shedder,
    /// Utilization below `mean - receiver_margin`: advertising spare
    /// bandwidth in the Less-Loaded tree.
    Receiver,
    /// Neither; not participating in exchanges.
    #[default]
    Neutral,
}

/// Bandwidth a receiver set aside for a VM it accepted, pending migration.
#[derive(Debug, Clone)]
struct Hold {
    query: u64,
    vm: VmRecord,
    expires: SimTime,
}

/// A VM sent to a receiver but not yet acknowledged. The shedder keeps the
/// record so the transfer can be retried (lossy network) or rolled back
/// (receiver never answers) — a migration must never lose the VM. The
/// retransmission schedule (backoff, jitter, retry budget) lives in the
/// controller's [`Courier`], keyed by the query id.
#[derive(Debug, Clone)]
struct InFlight {
    vm: VmRecord,
    receiver: NodeHandle,
}

/// One VM a backup site protects (failover on): enough to re-materialize
/// it when the primary's rack is declared dead, and to release the
/// reserved headroom that backed it.
#[derive(Debug, Clone)]
struct Protection {
    vm: VmRecord,
    primary: NodeHandle,
    amount: ResourceVector,
}

/// A failover re-materialization in flight (or queued for retry): the
/// boot either resolves to a host or comes back rejected and is
/// re-issued next failover tick.
#[derive(Debug, Clone)]
struct FoBoot {
    vm: VmRecord,
    /// The declared-dead rack the VM fell off — drives `visited`
    /// pre-seeding and declaration retraction.
    rack: u32,
}

/// A fence pending ack on a stale primary: the VMs re-materialized away
/// from it that it must drop if (when) it comes back. Resent every
/// failover tick until acked, so even a primary restarting long after
/// the declaration reconciles.
#[derive(Debug, Clone)]
struct Fence {
    primary: NodeHandle,
    vms: BTreeSet<VmId>,
}

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
    /// called. Read this controller's own share with
    /// [`Counter::get`].
    pub rejected_aggregates: Counter,
    /// Sheds skipped because the candidate VM was party to a live lease
    /// (migrating a leased VM would strand the entitlement's other half).
    /// An obs shard like `rejected_aggregates`, exported under
    /// `controller/sheds_lease_blocked`.
    pub sheds_lease_blocked: Counter,
    /// Update intervals this controller spent in conservative mode (mean
    /// gate suspicious: no new sheds, in-flight holds honored).
    pub conservative_intervals: u64,
    /// Inbound aggregation payloads dropped by the Scribe-layer poison
    /// screen ([`ScribeClient::validate_payload`]) before processing.
    pub invalid_payloads: u64,
    /// Backup reservations this server carved out on behalf of other
    /// servers' survivable admissions (receiver side of
    /// [`CtrlMsg::BackupReserve`]).
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

/// One customer's failure-domain occupancy as tracked by its key's root
/// server — the authoritative source of the [`SurvCaps`] stamped onto
/// boot queries. `BTreeMap` so snapshot order is deterministic.
#[derive(Debug, Clone, Default)]
struct SurvLedger {
    total: u32,
    per_rack: BTreeMap<u32, u32>,
    per_pod: BTreeMap<u32, u32>,
}

/// Per-dimension state of the cluster-mean sanity gate.
///
/// The gate sits between the aggregation trees and the shuffling logic:
/// each update tick it samples the freshly aggregated mean and either
/// accepts it as the new `last_good` or — on an implausible range or jump —
/// holds the previous value and starts counting. `streak` consecutive
/// readings that agree *with each other* (a real cluster-wide load change
/// looks the same every round; flapping poison does not) re-anchor the
/// gate on the new level so it cannot wedge forever.
#[derive(Debug, Clone, Copy, Default)]
struct MeanGate {
    /// The last reading that passed the gate; what classification uses.
    last_good: Option<f64>,
    /// The level the current suspect streak agrees on.
    candidate: f64,
    /// Consecutive mutually consistent suspect readings.
    streak: u32,
}

/// The v-Bundle controller running on one server.
#[derive(Debug)]
pub struct Controller {
    capacity: ResourceVector,
    config: VBundleConfig,
    vms: Vec<VmRecord>,
    agg: Aggregator,
    status: ServerStatus,
    in_less_loaded: bool,
    holds: Vec<Hold>,
    /// Outstanding load-balance queries: query id → VM planned to move.
    pending_sheds: HashMap<u64, VmId>,
    /// Migrations sent but not yet acknowledged: query id → transfer.
    in_flight: BTreeMap<u64, InFlight>,
    /// Retransmission state for in-flight migrations: exponential backoff
    /// with deterministic jitter and a bounded retry budget.
    courier: Courier,
    /// VMs whose last query found no receiver, with retry-after times:
    /// the next rounds try *other* (smaller) VMs instead of livelocking on
    /// the largest one.
    shed_cooldown: HashMap<VmId, SimTime>,
    next_query: u64,
    /// Sanity-gate state per managed resource dimension. Only read through
    /// [`Controller::effective_mean_for`]; iteration always follows the
    /// fixed `active_kinds()` order, so the map never affects determinism.
    mean_gates: HashMap<crate::ResourceKind, MeanGate>,
    /// This server's halves of committed entitlement leases.
    trade: TradeBook,
    /// Retransmission state for unacked lease grants, keyed by lease id.
    trade_courier: Courier,
    /// Lease id → the server hosting the opposite half (grants, renewals
    /// and release notices go here; [`HalfLease::peer`] only stores the
    /// `ActorId`, but sends need the full handle).
    lease_peers: BTreeMap<u64, NodeHandle>,
    /// Trade trees this server currently belongs to.
    in_trade_groups: BTreeSet<CustomerId>,
    /// VMs whose last borrow request went unanswered, with retry-after
    /// times.
    trade_cooldown: BTreeMap<VmId, SimTime>,
    /// Local counter minting unique lease ids.
    next_lease: u64,
    /// This pod's spot price index: a seeded EWMA of trades this server
    /// cleared (as lender or borrower). Only consulted with the spot
    /// market on.
    spot_index: PriceIndex,
    /// This server's half of the double-entry money ledger.
    billing: BillingBook,
    /// Whether this server is currently in its pod's spot group.
    in_spot_group: bool,
    /// VMs whose last spot request went unanswered (or is outstanding),
    /// with retry-after times.
    spot_cooldown: BTreeMap<VmId, SimTime>,
    /// Priced leases already re-quoted near expiry: old id → replacement
    /// id, so one lease is never replaced twice.
    renewal_quoted: BTreeMap<u64, u64>,
    /// The pod this server sits in (set by the cluster builder; spot
    /// matching is pod-scoped).
    pod_index: u32,
    /// Observable spot-market counters.
    pub market_stats: MarketStats,
    /// The last simulation instant this controller processed an event at.
    /// Ledger queries from outside a Scribe upcall (harness metrics,
    /// admission checks) use it to time-filter live leases.
    clock: SimTime,
    /// Flight-recorder handle for migration/lease/mean-gate events
    /// (disabled by default; shared via [`Controller::attach_obs`]).
    flight: FlightRecorder,
    /// This server's actor index, for tagging flight events. Set by
    /// [`Controller::attach_obs`]; purely observational.
    obs_node: u32,
    /// Capacity carved out for displaced VMs of survivable customers.
    /// Counted by [`Controller::reserved`] (admission control) and
    /// subtracted from the shaper's borrow pool.
    backup_reserved: ResourceVector,
    /// Per-customer domain occupancy, maintained on each customer key's
    /// root server while survivable admission is on.
    surv_ledger: BTreeMap<u32, SurvLedger>,
    /// VMs this server protects as a backup site (failover on), keyed by
    /// VM id so declaration walks re-materialize in deterministic order.
    protects: BTreeMap<VmId, Protection>,
    /// Per-server death evidence folded into sticky rack declarations.
    suspicion: DomainSuspicion,
    /// Fences pending ack, keyed by the stale primary's actor index.
    fences: BTreeMap<u32, Fence>,
    /// Failover boots awaiting their intercepted [`CtrlMsg::BootResult`],
    /// keyed by request id in the [`FAILOVER_BOOT_BASE`] space.
    fo_pending: BTreeMap<u64, FoBoot>,
    /// Failover boots that came back rejected, re-issued next tick.
    fo_retry: BTreeMap<VmId, FoBoot>,
    /// Known handles of servers in protected racks (probe targets),
    /// keyed by actor index.
    fo_handles: BTreeMap<u32, NodeHandle>,
    /// Local counter minting failover boot request ids.
    next_fo_boot: u64,
    /// Observable counters.
    pub stats: ControllerStats,
}

impl Controller {
    /// Creates a controller for a server with the given physical capacity.
    pub fn new(
        capacity: ResourceVector,
        agg_config: AggregationConfig,
        config: VBundleConfig,
    ) -> Self {
        // First-attempt timeout: the transfer itself plus generous slack
        // for the ack's round trip. Backed-off retries stay capped well
        // inside the receiver's hold window so they still land on reserved
        // bandwidth.
        let courier = Courier::new(CourierConfig {
            base_timeout: config.migration_delay * 2 + config.hold_timeout / 8,
            max_timeout: config.hold_timeout / 2,
            max_attempts: MIGRATION_ATTEMPTS,
            jitter_pct: 10,
            salt: MIGRATION_COURIER_SALT,
        });
        // A grant's ack round trip is just network latency, so the first
        // timeout can be much tighter than a migration's; retries stay
        // well inside the lease lifetime or they would chase an expired
        // debit.
        let trade_courier = Courier::new(CourierConfig {
            base_timeout: config.update_interval / 8,
            max_timeout: (config.lease_duration / 4).max(config.update_interval / 4),
            max_attempts: TRADE_ATTEMPTS,
            jitter_pct: 10,
            salt: TRADE_COURIER_SALT,
        });
        let spot_index = match config.spot_market {
            Some(mc) => PriceIndex::new(mc.base_price, mc.price_alpha),
            None => PriceIndex::new(1.0, 0.0),
        };
        Controller {
            capacity,
            config,
            vms: Vec::new(),
            agg: Aggregator::new(agg_config),
            status: ServerStatus::Neutral,
            in_less_loaded: false,
            holds: Vec::new(),
            pending_sheds: HashMap::new(),
            in_flight: BTreeMap::new(),
            courier,
            shed_cooldown: HashMap::new(),
            next_query: 0,
            mean_gates: HashMap::new(),
            trade: TradeBook::new(),
            trade_courier,
            lease_peers: BTreeMap::new(),
            in_trade_groups: BTreeSet::new(),
            trade_cooldown: BTreeMap::new(),
            next_lease: 0,
            spot_index,
            billing: BillingBook::new(),
            in_spot_group: false,
            spot_cooldown: BTreeMap::new(),
            renewal_quoted: BTreeMap::new(),
            pod_index: 0,
            market_stats: MarketStats::default(),
            clock: SimTime::ZERO,
            flight: FlightRecorder::disabled(),
            obs_node: 0,
            backup_reserved: ResourceVector::ZERO,
            surv_ledger: BTreeMap::new(),
            protects: BTreeMap::new(),
            suspicion: DomainSuspicion::new(),
            fences: BTreeMap::new(),
            fo_pending: BTreeMap::new(),
            fo_retry: BTreeMap::new(),
            fo_handles: BTreeMap::new(),
            next_fo_boot: 0,
            stats: ControllerStats::default(),
        }
    }

    /// Attaches this controller to the shared observability planes: the
    /// mean-gate and lease-block tallies become shards of
    /// `controller/rejected_aggregates` / `controller/sheds_lease_blocked`
    /// in `registry` (summed across servers on export; per-server tests
    /// still read their own shard) and migration/lease/mean-gate events
    /// are recorded on `flight`, tagged with this server's actor index
    /// `node`.
    pub fn attach_obs(&mut self, node: u32, registry: &Registry, flight: &FlightRecorder) {
        let scope = registry.scope("controller");
        self.stats.rejected_aggregates = scope.counter("rejected_aggregates");
        self.stats.sheds_lease_blocked = scope.counter("sheds_lease_blocked");
        self.stats.fo_domains_declared = scope.counter("fo_domains_declared");
        self.stats.fo_rematerialized = scope.counter("fo_rematerialized");
        self.stats.fo_fences_sent = scope.counter("fo_fences_sent");
        self.stats.fo_lease_reverts = scope.counter("fo_lease_reverts");
        let trade = registry.scope("trade");
        self.trade.stats.requests_sent = trade.counter("requests_sent");
        self.trade.stats.grants_sent = trade.counter("grants_sent");
        self.trade.stats.leases_borrowed = trade.counter("leases_borrowed");
        self.trade.stats.grants_rejected = trade.counter("grants_rejected");
        self.trade.stats.leases_expired = trade.counter("leases_expired");
        self.trade.stats.leases_reverted = trade.counter("leases_reverted");
        self.trade.stats.lender_losses = trade.counter("lender_losses");
        // Market counters only exist in the export when the market is
        // configured, so off-market metric exports are byte-identical.
        if self.config.spot_market.is_some() {
            let market = registry.scope("market");
            self.market_stats.spot_asks = market.counter("spot_asks");
            self.market_stats.spot_trades = market.counter("spot_trades");
            self.market_stats.spot_rejected_price = market.counter("spot_rejected_price");
            self.market_stats.spot_rejected_budget = market.counter("spot_rejected_budget");
            self.market_stats.spot_rejected_cap = market.counter("spot_rejected_cap");
            self.market_stats.requotes = market.counter("requotes");
            self.market_stats.billing_reversals = market.counter("billing_reversals");
        }
        self.flight = flight.clone();
        self.obs_node = node;
    }

    /// Tells the controller which pod its server sits in. Called by the
    /// cluster builder; spot-market matching is scoped to this pod's
    /// `Spot-<pod>` group.
    pub fn set_pod(&mut self, pod: u32) {
        self.pod_index = pod;
    }

    /// The server's physical capacity.
    pub fn capacity(&self) -> &ResourceVector {
        &self.capacity
    }

    /// The VMs currently hosted.
    pub fn vms(&self) -> &[VmRecord] {
        &self.vms
    }

    /// VMs this server has sent to a receiver that have not been
    /// acknowledged yet. Until the ack (or the rollback after exhausted
    /// retries), the shedder still owns these records — cluster-wide VM
    /// accounting must count them exactly once, here.
    pub fn in_flight_vms(&self) -> Vec<VmRecord> {
        let mut v: Vec<VmRecord> = self.in_flight.values().map(|e| e.vm).collect();
        v.sort_by_key(|vm| vm.id);
        v
    }

    /// The current self-identified role.
    pub fn status(&self) -> ServerStatus {
        self.status
    }

    /// The embedded aggregation component.
    pub fn aggregator(&self) -> &Aggregator {
        &self.agg
    }

    /// Total (limit-clamped) bandwidth demand of hosted VMs.
    pub fn bw_demand(&self) -> Bandwidth {
        self.vms.iter().map(|vm| vm.effective_bw_demand()).sum()
    }

    /// Bandwidth currently held for accepted-but-not-yet-arrived VMs.
    pub fn bw_held(&self) -> Bandwidth {
        self.holds.iter().map(|h| h.vm.effective_bw_demand()).sum()
    }

    /// Bandwidth utilization: demand over NIC capacity (may exceed 1).
    pub fn utilization(&self) -> f64 {
        self.bw_demand().fraction_of(self.capacity.bandwidth)
    }

    /// Sum of hosted reservations plus held reservations plus survivable
    /// backup reservations — what admission control checks new
    /// reservations against. With bundle trading on, hosted VMs count at
    /// their *live* entitlement: a server whose VMs borrowed heavily
    /// really has less room for newcomers, and a lender's freed
    /// reservation is usable immediately.
    pub fn reserved(&self) -> ResourceVector {
        let hosted: ResourceVector = self
            .vms
            .iter()
            .map(|vm| self.entitled_spec(vm).reservation)
            .sum();
        let held: ResourceVector = self.holds.iter().map(|h| h.vm.spec.reservation).sum();
        hosted + held + self.backup_reserved
    }

    /// Capacity carved out on this server as survivable backup.
    pub fn backup_reserved(&self) -> ResourceVector {
        self.backup_reserved
    }

    /// Carves `amount` out of this server as survivable backup capacity
    /// — the offline seeding counterpart of [`CtrlMsg::BackupReserve`].
    ///
    /// # Panics
    ///
    /// Panics if the amount does not fit the remaining capacity (backup
    /// carve-outs respect admission control like everything else).
    pub fn reserve_backup(&mut self, amount: ResourceVector) {
        assert!(
            (self.reserved() + amount).fits_within(&self.capacity),
            "reserve_backup violates admission control"
        );
        self.backup_reserved += amount;
    }

    /// Releases previously carved-out backup capacity — the recovery
    /// path, when a displaced VM lands on its backup or the fault heals.
    pub fn release_backup(&mut self, amount: ResourceVector) {
        self.backup_reserved = self.backup_reserved.saturating_sub(&amount);
    }

    /// The VMs this server currently protects as a failover backup site.
    pub fn protected_vms(&self) -> Vec<VmId> {
        self.protects.keys().copied().collect()
    }

    /// VMs this site re-materialized whose stale primary has not yet
    /// acknowledged its fence. While a fence is pending, a restarted
    /// primary may transiently still hold the old copy — chaos
    /// conservation checks treat such duplicates as reconciling rather
    /// than as violations.
    pub fn fenced_vms(&self) -> Vec<VmId> {
        self.fences
            .values()
            .flat_map(|f| f.vms.iter().copied())
            .collect()
    }

    /// Registers a protection charge on this server: reserves `amount`
    /// as backup headroom and remembers `vm`/`primary` so a declared
    /// death of the primary's rack re-materializes the VM here — the
    /// offline seeding counterpart of [`CtrlMsg::FoBackupReserve`].
    ///
    /// # Panics
    ///
    /// Panics if the amount does not fit (same admission rule as
    /// [`Controller::reserve_backup`]).
    pub fn install_protection(
        &mut self,
        vm: VmRecord,
        primary: NodeHandle,
        amount: ResourceVector,
    ) {
        self.reserve_backup(amount);
        self.fo_handles
            .insert(primary.actor.index() as u32, primary);
        self.protects.insert(
            vm.id,
            Protection {
                vm,
                primary,
                amount,
            },
        );
    }

    /// `vm`'s effective rate/ceil contract right now: the static spec
    /// shifted by its live leases. With trading off (or an empty book)
    /// this is exactly `vm.spec`.
    pub fn entitled_spec(&self, vm: &VmRecord) -> ResourceSpec {
        if self.config.bundle_trading && !self.trade.is_empty() {
            self.trade.live_spec(vm.id, vm.spec, self.clock)
        } else {
            vm.spec
        }
    }

    /// This server's lease halves (read-only; benches and chaos checks).
    pub fn trade_book(&self) -> &TradeBook {
        &self.trade
    }

    /// This server's half of the double-entry billing ledger (read-only;
    /// benches and chaos checks).
    pub fn billing(&self) -> &BillingBook {
        &self.billing
    }

    /// The current spot price of this server's pod index, per Mbps·s.
    pub fn spot_price(&self) -> f64 {
        self.spot_index.current()
    }

    /// Folds a synthetic cleared price into this server's index — a test
    /// hook for driving the index deterministically (e.g. the stale-price
    /// renewal regression), equivalent to this server having cleared a
    /// trade at `cleared`.
    pub fn observe_spot_price(&mut self, cleared: f64) {
        self.spot_index.observe(cleared);
    }

    /// Live cross-tenant outflow lent out of `customer`'s bundle by VMs
    /// on this server, in Mbps. Counts every unexpired lender half —
    /// including future-dated replacements, which are already committed
    /// capacity — so the isolation cap can never be overshot by renewal
    /// timing.
    fn cross_outflow_mbps(&self, customer: CustomerId, now: SimTime) -> f64 {
        self.trade
            .halves()
            .filter(|h| {
                h.role == LeaseRole::Lender
                    && h.lease.customer == customer
                    && h.lease.cross_tenant()
                    && h.lease.expires > now
            })
            .map(|h| h.lease.amount.bandwidth.as_mbps())
            .sum()
    }

    /// What the isolation cap still lets `customer` lend cross-tenant
    /// from this server: `cap × Σ base reservations − live cross-tenant
    /// outflow`.
    fn spot_cap_room_mbps(&self, customer: CustomerId, cap: f64, now: SimTime) -> f64 {
        let base: f64 = self
            .vms
            .iter()
            .filter(|v| v.customer == customer)
            .map(|v| v.spec.reservation.bandwidth.as_mbps())
            .sum();
        (cap.clamp(0.0, 1.0) * base - self.cross_outflow_mbps(customer, now)).max(0.0)
    }

    /// The cluster-wide mean bandwidth utilization, once the aggregation
    /// trees have converged.
    ///
    /// Computed from the *per-server averages* of the demand and capacity
    /// aggregates rather than their raw sums: while the two trees are
    /// still converging they may cover different subsets of servers, and
    /// `ΣD/ΣC` over mismatched populations would wildly misestimate the
    /// mean (receivers would then accept far past the real
    /// `mean + threshold`).
    pub fn cluster_mean(&self) -> Option<f64> {
        let d = self.agg.global(bw_demand_topic())?;
        let c = self.agg.global(bw_capacity_topic())?;
        let d_avg = d.mean()?;
        let c_avg = c.mean()?;
        if c_avg > 0.0 {
            Some(d_avg / c_avg)
        } else {
            None
        }
    }

    /// The cluster mean utilization along one resource dimension (only
    /// available for CPU/memory when multi-metric shuffling is enabled).
    pub fn cluster_mean_for(&self, kind: crate::ResourceKind) -> Option<f64> {
        let d = self.agg.global(demand_topic(kind))?;
        let c = self.agg.global(capacity_topic(kind))?;
        let d_avg = d.mean()?;
        let c_avg = c.mean()?;
        if c_avg > 0.0 {
            Some(d_avg / c_avg)
        } else {
            None
        }
    }

    /// The mean utilization the shuffling logic actually steers on: the
    /// raw aggregate filtered through the sanity gate. With the gate
    /// disabled this is [`Controller::cluster_mean_for`] verbatim; with it
    /// enabled it is the gate's last-good reading — before the first
    /// update tick seeds the gate, the raw value passes through only if it
    /// clears the absolute plausibility bounds.
    pub fn effective_mean_for(&self, kind: crate::ResourceKind) -> Option<f64> {
        if !self.config.mean_gate {
            return self.cluster_mean_for(kind);
        }
        match self.mean_gates.get(&kind) {
            Some(gate) => gate.last_good,
            None => self
                .cluster_mean_for(kind)
                .filter(|&m| self.mean_in_absolute_bounds(m)),
        }
    }

    /// Whether a mean reading clears the gate's absolute (memoryless)
    /// plausibility bounds.
    fn mean_in_absolute_bounds(&self, mean: f64) -> bool {
        mean.is_finite() && (0.0..=self.config.mean_ceiling).contains(&mean)
    }

    /// Samples the fresh cluster means and advances each dimension's
    /// sanity gate. Called once per update tick, *before* classification.
    fn gate_means(&mut self) {
        if !self.config.mean_gate {
            return;
        }
        for &kind in self.active_kinds() {
            let Some(reading) = self.cluster_mean_for(kind) else {
                // No aggregate (trees converging or cache expired): the
                // gate keeps its state; classification sees last-good.
                continue;
            };
            let in_bounds = self.mean_in_absolute_bounds(reading);
            let gate = self.mean_gates.entry(kind).or_default();
            let plausible = in_bounds
                && match gate.last_good {
                    Some(lg) => (reading - lg).abs() <= self.config.mean_jump_bound,
                    None => true,
                };
            if plausible {
                gate.last_good = Some(reading);
                gate.streak = 0;
                continue;
            }
            self.stats.rejected_aggregates.inc();
            self.flight.event_with(
                self.clock.as_micros(),
                self.obs_node,
                Subsystem::Controller,
                "mean-gate-reject",
                || format!("{kind:?} reading {reading}"),
            );
            // Suspect. Readings agreeing with the current candidate level
            // extend the streak; a genuine load change repeats itself and
            // re-anchors after `mean_recovery_rounds`, while flapping
            // poison keeps resetting. Out-of-bounds values (NaN, negative,
            // huge) can never anchor a candidate.
            if in_bounds {
                if gate.streak > 0
                    && (reading - gate.candidate).abs() <= self.config.mean_jump_bound
                {
                    gate.streak += 1;
                } else {
                    gate.candidate = reading;
                    gate.streak = 1;
                }
                if gate.streak >= self.config.mean_recovery_rounds {
                    gate.last_good = Some(reading);
                    gate.streak = 0;
                }
            } else {
                // Out-of-bounds garbage keeps the gate suspicious (streak
                // stays alive ⇒ conservative mode) but can never anchor a
                // recovery candidate: the NaN candidate guarantees the next
                // in-bounds suspect starts a fresh streak.
                gate.candidate = f64::NAN;
                gate.streak = 1;
            }
        }
    }

    /// True while any dimension's gate is holding a suspect reading — the
    /// conservative mode of §graceful degradation: classification steers
    /// on last-good means, no new sheds are planned, in-flight holds are
    /// honored.
    pub fn conservative_mode(&self) -> bool {
        self.config.mean_gate
            && self
                .active_kinds()
                .iter()
                .any(|k| self.mean_gates.get(k).is_some_and(|g| g.streak > 0))
    }

    /// This server's total demand along one dimension, each VM clamped to
    /// its limit (a zero limit means "untracked" and leaves the demand
    /// unclamped).
    pub fn demand_for(&self, kind: crate::ResourceKind) -> f64 {
        self.vms
            .iter()
            .map(|vm| {
                let d = vm.demand.get(kind);
                let l = self.entitled_spec(vm).limit.get(kind);
                if l > 0.0 {
                    d.min(l)
                } else {
                    d
                }
            })
            .sum()
    }

    /// Utilization along one dimension (0 when the capacity is zero).
    pub fn utilization_for(&self, kind: crate::ResourceKind) -> f64 {
        let cap = self.capacity.get(kind);
        if cap > 0.0 {
            self.demand_for(kind) / cap
        } else {
            0.0
        }
    }

    /// The resource dimensions the controller currently manages.
    fn active_kinds(&self) -> &'static [crate::ResourceKind] {
        if self.config.multi_metric {
            &crate::ResourceKind::ALL
        } else {
            &[crate::ResourceKind::Bandwidth]
        }
    }

    /// Per-VM bandwidth allocations under the HTB shaper right now. With
    /// bundle trading on, every VM's rate/ceil is its live entitlement —
    /// this is the enforcement point where a lease becomes bandwidth.
    /// Survivable backup reservations are held out of the borrow pool.
    pub fn allocations(&self) -> Vec<shaper::Allocation> {
        shaper::allocate_with_backup(
            self.capacity.bandwidth,
            self.backup_reserved.bandwidth,
            &self.vms,
            |vm| self.entitled_spec(vm),
        )
    }

    /// Shuts a hosted VM down, releasing its reservation. Returns its
    /// record, or `None` if it does not live here.
    pub fn remove_vm(&mut self, vm: VmId) -> Option<VmRecord> {
        let pos = self.vms.iter().position(|v| v.id == vm)?;
        // A VM that is mid-shed cannot also be shut down twice: drop any
        // outstanding query bookkeeping for it.
        self.pending_sheds.retain(|_, planned| *planned != vm);
        self.shed_cooldown.remove(&vm);
        // Backstop: drop its lease halves without notifying peers (no ctx
        // here). Callers that can send should use
        // [`Controller::release_vm_leases`] first so the opposite halves
        // do not linger until expiry.
        for id in self.trade.ids_involving(vm) {
            self.trade.revert(id);
            self.lease_peers.remove(&id.0);
            self.trade_courier.forget(id.0);
        }
        self.trade_cooldown.remove(&vm);
        Some(self.vms.remove(pos))
    }

    /// Unwinds every lease a hosted VM is party to, notifying each peer
    /// with [`CtrlMsg::LeaseRelease`] so the opposite half drops too.
    /// Called before a planned shutdown; crashes rely on expiry instead.
    pub fn release_vm_leases(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>, vm: VmId) {
        self.clock = ctx.now();
        for id in self.trade.ids_involving(vm) {
            self.trade.revert(id);
            self.trade_courier.forget(id.0);
            if let Some(peer) = self.lease_peers.remove(&id.0) {
                ctx.send_client(peer, CtrlMsg::LeaseRelease { id });
            }
        }
    }

    /// Updates a hosted VM's demand. Returns `true` if the VM lives here.
    pub fn set_vm_demand(&mut self, vm: VmId, demand: ResourceVector) -> bool {
        match self.vms.iter_mut().find(|v| v.id == vm) {
            Some(v) => {
                v.demand = demand;
                true
            }
            None => false,
        }
    }

    /// Places a VM directly, bypassing the boot protocol — used by offline
    /// placement seeding and tests.
    ///
    /// # Panics
    ///
    /// Panics if the VM's reservation does not fit the server's remaining
    /// capacity (offline placement must respect admission control too).
    pub fn install_vm(&mut self, vm: VmRecord) {
        assert!(
            (self.reserved() + vm.spec.reservation).fits_within(&self.capacity),
            "install_vm violates admission control"
        );
        self.vms.push(vm);
    }

    /// Initiates the boot protocol for `vm`: the query is routed to the
    /// customer's key and the result arrives in
    /// [`ControllerStats::boot_results`] on *this* server.
    pub fn request_boot(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        request: u64,
        key: vbundle_pastry::Key,
        vm: VmRecord,
    ) {
        let me = ctx.self_handle();
        ctx.route_client(
            key,
            CtrlMsg::Boot(Box::new(BootQuery {
                request,
                vm,
                origin: me,
                root: None,
                caps: None,
                visited: Vec::new(),
                ttl: self.config.boot_ttl,
                failover: false,
            })),
        );
    }

    /// Drops lapsed holds. Expiry-at-`now` semantics: a hold is live
    /// strictly *before* its `expires` instant, so at `expires` itself the
    /// bandwidth is already released. Called from the update tick and —
    /// because holds can lapse between ticks — again at accept time, so a
    /// lapsed hold is never double-counted against an arriving query in
    /// the very tick it expires.
    fn expire_holds(&mut self, now: SimTime) {
        self.holds.retain(|h| h.expires > now);
    }

    fn update_tick(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>) {
        let now = ctx.now();
        self.expire_holds(now);
        for &kind in self.active_kinds() {
            let demand = self.demand_for(kind);
            let capacity = self.capacity.get(kind);
            self.agg.set_local(ctx, demand_topic(kind), demand);
            self.agg.set_local(ctx, capacity_topic(kind), capacity);
        }
        // Sample the fresh aggregates through the sanity gate before any
        // classification reads them.
        self.gate_means();
        if self.conservative_mode() {
            self.stats.conservative_intervals += 1;
        }
        // Status: a server sheds when *any* managed dimension exceeds its
        // cluster mean plus the threshold, and receives only when *every*
        // dimension sits below its mean.
        let mut any_over = false;
        let mut all_under = true;
        let mut any_mean_known = false;
        for &kind in self.active_kinds() {
            let Some(mean) = self.effective_mean_for(kind) else {
                all_under = false;
                continue;
            };
            any_mean_known = true;
            let util = self.utilization_for(kind);
            if util > mean + self.config.threshold {
                any_over = true;
            }
            // Strictly above `mean - margin` disqualifies; sitting exactly
            // at the mean (e.g. a dimension that is uniform across the
            // cluster) does not — otherwise one uniform dimension would
            // veto every receiver.
            if util > mean - self.config.receiver_margin + 1e-12 {
                all_under = false;
            }
        }
        if any_mean_known {
            self.status = if any_over {
                ServerStatus::Shedder
            } else if all_under {
                ServerStatus::Receiver
            } else {
                ServerStatus::Neutral
            };
            let should_be_member = self.status == ServerStatus::Receiver;
            if should_be_member && !self.in_less_loaded {
                ctx.join(less_loaded_group());
                self.in_less_loaded = true;
            } else if !should_be_member && self.in_less_loaded {
                ctx.leave(less_loaded_group());
                self.in_less_loaded = false;
            }
        }
        if self.config.bundle_trading {
            self.trade_tick(ctx);
        }
        ctx.schedule(self.config.update_interval, UPDATE_TAG);
    }

    /// The per-update-tick trading pass: sweep expired halves, sync trade
    /// tree membership, renew live borrowings, and anycast borrow requests
    /// for starved VMs.
    fn trade_tick(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>) {
        let now = ctx.now();
        // 1. Expiry is the partition-safe backstop: both halves carry the
        // same expiry, so the sweep needs no coordination.
        for half in self.trade.expire(now) {
            self.lease_peers.remove(&half.lease.id.0);
            self.trade_courier.forget(half.lease.id.0);
            self.renewal_quoted.remove(&half.lease.id.0);
        }
        // 2. Membership: one trade tree per hosted customer.
        let desired: BTreeSet<CustomerId> = self.vms.iter().map(|vm| vm.customer).collect();
        for &c in desired.difference(&self.in_trade_groups.clone()) {
            ctx.join(trade_group(c));
        }
        for &c in self.in_trade_groups.clone().difference(&desired) {
            ctx.leave(trade_group(c));
        }
        self.in_trade_groups = desired;
        // 3. Renew each borrowing: the probe's delivery failure is the
        // borrower's early signal that the lender's host is gone.
        let renewals: Vec<(u64, NodeHandle)> = self
            .trade
            .halves()
            .filter(|h| h.role == LeaseRole::Borrower)
            .filter_map(|h| {
                self.lease_peers
                    .get(&h.lease.id.0)
                    .map(|p| (h.lease.id.0, *p))
            })
            .collect();
        for (id, peer) in renewals {
            ctx.send_client(peer, CtrlMsg::LeaseRenew { id: LeaseId(id) });
        }
        // 4. Borrow scan: a VM is starved when its clamped demand exceeds
        // its live limit. Ask for the gap; lenders answer with what they
        // can actually spare.
        self.trade_cooldown
            .retain(|_, &mut retry_at| retry_at > now);
        // VMs that already tried their own bundle (ask outstanding or
        // unanswered): with the spot market on, these graduate to a priced
        // cross-tenant ask below — intra-bundle trading always gets first
        // refusal.
        let tried_intra: BTreeSet<VmId> = self.trade_cooldown.keys().copied().collect();
        let me = ctx.self_handle();
        let mut asks: Vec<(VmId, f64)> = Vec::new();
        for vm in &self.vms {
            if asks.len() >= self.config.max_trades_per_round {
                break;
            }
            if self.trade_cooldown.contains_key(&vm.id) {
                continue;
            }
            let limit = self.entitled_spec(vm).limit.bandwidth;
            let short = vm.demand.bandwidth.saturating_sub(limit).as_mbps();
            if short >= MIN_LEASE_MBPS {
                asks.push((vm.id, short));
            }
        }
        for (vm_id, short) in asks {
            let customer = match self.vms.iter().find(|v| v.id == vm_id) {
                Some(vm) => vm.customer,
                None => continue,
            };
            self.trade_cooldown
                .insert(vm_id, now + self.config.update_interval * 2);
            self.trade.stats.requests_sent.inc();
            ctx.anycast(
                trade_group(customer),
                CtrlMsg::Borrow(Box::new(BorrowRequest {
                    customer,
                    borrower: vm_id,
                    amount: ResourceVector::bandwidth_only(Bandwidth::from_mbps(short)),
                    origin: me,
                    spot: false,
                })),
            );
        }
        if self.config.spot_market.is_some() {
            self.spot_tick(ctx, now, &tried_intra);
        }
    }

    /// The spot-market slice of the trade tick: sync `Spot-<pod>` group
    /// membership, then issue priced cross-tenant asks for VMs their own
    /// bundle could not help.
    fn spot_tick(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        now: SimTime,
        tried_intra: &BTreeSet<VmId>,
    ) {
        let Some(mc) = self.config.spot_market else {
            return;
        };
        // Membership: sell-side presence. A server joins its pod's spot
        // group while any hosted customer has isolation-capped headroom
        // left to sell.
        let sellable = {
            let customers: BTreeSet<CustomerId> = self.vms.iter().map(|v| v.customer).collect();
            customers
                .iter()
                .any(|&c| self.spot_cap_room_mbps(c, mc.isolation_cap, now) >= MIN_LEASE_MBPS)
        };
        if sellable && !self.in_spot_group {
            ctx.join(spot_group(self.pod_index));
            self.in_spot_group = true;
        } else if !sellable && self.in_spot_group {
            ctx.leave(spot_group(self.pod_index));
            self.in_spot_group = false;
        }
        // Buy side: a VM still short although it already asked its own
        // bundle shops the pod's spot market, budget and price policy
        // enforced at grant time.
        self.spot_cooldown.retain(|_, &mut retry_at| retry_at > now);
        let me = ctx.self_handle();
        let mut asks: Vec<(VmId, CustomerId, f64)> = Vec::new();
        for vm in &self.vms {
            if asks.len() >= self.config.max_trades_per_round {
                break;
            }
            if !tried_intra.contains(&vm.id) || self.spot_cooldown.contains_key(&vm.id) {
                continue;
            }
            let limit = self.entitled_spec(vm).limit.bandwidth;
            let short = vm.demand.bandwidth.saturating_sub(limit).as_mbps();
            if short >= MIN_LEASE_MBPS {
                asks.push((vm.id, vm.customer, short));
            }
        }
        for (vm_id, customer, short) in asks {
            self.spot_cooldown
                .insert(vm_id, now + self.config.update_interval * 2);
            self.market_stats.spot_asks.inc();
            ctx.anycast(
                spot_group(self.pod_index),
                CtrlMsg::Borrow(Box::new(BorrowRequest {
                    customer,
                    borrower: vm_id,
                    amount: ResourceVector::bandwidth_only(Bandwidth::from_mbps(short)),
                    origin: me,
                    spot: true,
                })),
            );
        }
    }

    fn rebalance_tick(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>) {
        // Conservative mode: the mean is in doubt, so plan no *new* sheds
        // this round (in-flight migrations and holds proceed untouched).
        if self.status == ServerStatus::Shedder && !self.conservative_mode() {
            // Shed along the most-overloaded dimension (the bottleneck).
            let kind = self
                .active_kinds()
                .iter()
                .copied()
                .filter_map(|k| {
                    self.effective_mean_for(k)
                        .map(|m| (k, self.utilization_for(k) - m))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(k, _)| k);
            if let Some(kind) = kind {
                if let Some(mean) = self.effective_mean_for(kind) {
                    self.plan_sheds(ctx, kind, mean);
                }
            }
        }
        ctx.schedule(self.config.rebalance_interval, REBALANCE_TAG);
    }

    /// Issues load-balance queries for the largest VMs (along the
    /// bottleneck dimension `kind`) until the projected utilization falls
    /// under `mean + threshold` (§III.C step 1-2), never undershooting
    /// the mean and bounded per round.
    fn plan_sheds(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        kind: crate::ResourceKind,
        mean: f64,
    ) {
        let me = ctx.self_handle();
        let now = ctx.now();
        let cap = self.capacity.get(kind);
        if cap <= 0.0 {
            return;
        }
        self.shed_cooldown.retain(|_, &mut retry_at| retry_at > now);
        let vm_demand = |vm: &VmRecord| -> f64 {
            let d = vm.demand.get(kind);
            let l = vm.spec.limit.get(kind);
            if l > 0.0 {
                d.min(l)
            } else {
                d
            }
        };
        let pending: Vec<VmId> = self.pending_sheds.values().copied().collect();
        let mut projected: f64 = self
            .vms
            .iter()
            .filter(|vm| !pending.contains(&vm.id))
            .map(vm_demand)
            .sum();
        let mut candidates: Vec<VmRecord> = self
            .vms
            .iter()
            .filter(|vm| !pending.contains(&vm.id) && !self.shed_cooldown.contains_key(&vm.id))
            .copied()
            .collect();
        // A VM party to a live lease stays put: migrating it would strand
        // the lease's opposite half on a peer that keeps renewing into the
        // wrong host.
        if self.config.bundle_trading {
            let before = candidates.len();
            candidates.retain(|vm| !self.trade.vm_involved(vm.id));
            let blocked = (before - candidates.len()) as u64;
            if blocked > 0 {
                self.stats.sheds_lease_blocked.add(blocked);
                self.flight.event_with(
                    self.clock.as_micros(),
                    self.obs_node,
                    Subsystem::Controller,
                    "shed-lease-blocked",
                    || format!("{blocked} candidate VMs held by live leases"),
                );
            }
        }
        candidates.sort_by(|a, b| vm_demand(b).total_cmp(&vm_demand(a)));
        let stop_line = mean + self.config.threshold;
        let mut issued = 0;
        for vm in candidates {
            if issued >= self.config.max_sheds_per_round {
                break;
            }
            if projected / cap <= stop_line {
                break;
            }
            // Do not shed below the average line (§III.C step 4).
            let after = (projected - vm_demand(&vm)).max(0.0);
            if after / cap < mean - self.config.threshold {
                continue;
            }
            let query = self.next_query;
            self.next_query += 1;
            self.pending_sheds.insert(query, vm.id);
            self.stats.queries_sent += 1;
            ctx.anycast(
                less_loaded_group(),
                CtrlMsg::Load(Box::new(LoadQuery {
                    query,
                    vm,
                    shedder: me,
                })),
            );
            projected = after;
            issued += 1;
        }
    }

    /// §III.C step 3: the receiver's double check before accepting a VM.
    fn receiver_check(&self, vm: &VmRecord, mean: f64) -> bool {
        // (1) Sufficient reserved bandwidth (and CPU/memory) for the VM.
        if !(self.reserved() + vm.spec.reservation).fits_within(&self.capacity) {
            return false;
        }
        if !self.config.oscillation_guard {
            return true;
        }
        // (2) Post-accept utilization stays under mean + threshold along
        // every managed dimension, which avoids back-and-forth
        // shedding/receiving oscillation.
        for &kind in self.active_kinds() {
            let dim_mean = if kind == crate::ResourceKind::Bandwidth {
                mean
            } else {
                match self.effective_mean_for(kind) {
                    Some(m) => m,
                    None => continue,
                }
            };
            let cap = self.capacity.get(kind);
            if cap <= 0.0 {
                continue;
            }
            let held: f64 = self.holds.iter().map(|h| h.vm.demand.get(kind)).sum();
            let post = self.demand_for(kind) + held + vm.demand.get(kind);
            if post / cap > dim_mean + self.config.threshold {
                return false;
            }
        }
        true
    }

    /// Advances the root-side failure-domain ledger by one admitted VM.
    fn record_surv_commit(&mut self, customer: CustomerId, rack: u32, pod: u32) {
        let ledger = self.surv_ledger.entry(customer.0).or_default();
        ledger.total += 1;
        *ledger.per_rack.entry(rack).or_insert(0) += 1;
        *ledger.per_pod.entry(pod).or_insert(0) += 1;
    }

    /// The root's current view of `customer`'s domain occupancy, in the
    /// wire shape stamped onto boot queries.
    fn surv_caps_snapshot(&self, customer: CustomerId) -> SurvCaps {
        match self.surv_ledger.get(&customer.0) {
            Some(l) => SurvCaps {
                total: l.total,
                per_rack: l.per_rack.iter().map(|(&r, &n)| (r, n)).collect(),
                per_pod: l.per_pod.iter().map(|(&p, &n)| (p, n)).collect(),
            },
            None => SurvCaps::default(),
        }
    }

    /// Whether admitting one more of the customer's VMs *here* keeps
    /// every failure domain under the survivable cap — the online mirror
    /// of the offline model's per-rack/per-pod check, sharing
    /// [`survivable_domain_cap`]. Domains with only one instance (e.g.
    /// the single pod of the paper testbed) are exempt, as offline.
    fn survivable_spread_ok(
        &self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        sc: &SurvivabilityConfig,
        caps: &SurvCaps,
        me: NodeHandle,
    ) -> bool {
        let topo = ctx.pastry_state().topology().clone();
        if me.actor.index() >= topo.num_servers() {
            return true;
        }
        let sid = topo.server(me.actor.index());
        let cap = survivable_domain_cap(sc.max_frac_per_domain, caps.total + 1);
        let rack_ok =
            topo.num_racks() < 2 || caps.rack_count(topo.rack_of(sid).index() as u32) < cap;
        let pod_ok = topo.num_pods() < 2 || caps.pod_count(topo.pod_of(sid).index() as u32) < cap;
        rack_ok && pod_ok
    }

    /// Post-admission survivability bookkeeping: report the new VM's
    /// domain to the customer key's root (or record it directly when we
    /// are the root) and ask a known cross-domain peer to carve out the
    /// backup share. The backup request is best-effort — a receiver
    /// without room simply drops it, mirroring the offline model's
    /// `backups_unplaced` accounting.
    fn after_survivable_admit(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        sc: SurvivabilityConfig,
        vm: VmRecord,
        root: NodeHandle,
        failover: bool,
    ) {
        let me = ctx.self_handle();
        let topo = ctx.pastry_state().topology().clone();
        if me.actor.index() >= topo.num_servers() {
            return;
        }
        let sid = topo.server(me.actor.index());
        let (rack, pod) = (
            topo.rack_of(sid).index() as u32,
            topo.pod_of(sid).index() as u32,
        );
        if root.actor == me.actor {
            self.record_surv_commit(vm.customer, rack, pod);
        } else {
            ctx.send_client(
                root,
                CtrlMsg::SurvCommit {
                    customer: vm.customer,
                    rack,
                    pod,
                },
            );
        }
        if sc.backup <= 0.0 {
            return;
        }
        if failover {
            // A re-materialized VM consumed the protection that
            // re-admitted it; carving a fresh backup here would grow the
            // overhead with every failover. Protection is single-shot.
            return;
        }
        let amount = vm.spec.reservation.scale(sc.backup);
        let site = ctx
            .pastry_state()
            .known_iter()
            .filter(|h| h.actor != me.actor && h.actor.index() < topo.num_servers())
            .filter(|h| {
                let hs = topo.server(h.actor.index());
                if topo.num_pods() > 1 {
                    topo.pod_of(hs) != topo.pod_of(sid)
                } else {
                    topo.rack_of(hs) != topo.rack_of(sid)
                }
            })
            .min_by_key(|h| {
                (
                    topo.distance(topo.server(h.actor.index()), sid),
                    h.actor.index(),
                )
            });
        match site {
            Some(peer) => {
                // With failover on, the charge carries the VM and its
                // primary, so the site can do more than shrink its
                // borrow pool: it can bring the VM back.
                let msg = if self.config.failover.is_some() {
                    CtrlMsg::FoBackupReserve {
                        vm: Box::new(vm),
                        primary: me,
                        amount,
                    }
                } else {
                    CtrlMsg::BackupReserve {
                        customer: vm.customer,
                        amount,
                    }
                };
                ctx.send_client(peer, msg);
            }
            None => self.stats.backups_unplaced += 1,
        }
    }

    /// One hop of a boot walk. The query arrives and leaves in the box its
    /// origin allocated: a walk of any length costs one `BootQuery`
    /// allocation.
    fn handle_boot(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>, mut q: Box<BootQuery>) {
        self.stats.boots_handled += 1;
        let me = ctx.self_handle();
        let at_root = q.root.is_none();
        let root = *q.root.get_or_insert(me);
        if self.vms.iter().any(|v| v.id == q.vm.id) {
            // Duplicate delivery of a Boot we already admitted: installing
            // again would double-count the VM. Re-ack instead — the earlier
            // BootResult may have been the casualty.
            ctx.send_client(
                q.origin,
                CtrlMsg::BootResult {
                    request: q.request,
                    vm: q.vm.id,
                    host: Some(me),
                },
            );
            return;
        }
        let surv = self.config.survivability;
        if surv.is_some() && at_root {
            // We are the customer key's root: stamp the ledger snapshot
            // so every walk server enforces the same spreading caps.
            q.caps = Some(self.surv_caps_snapshot(q.vm.customer));
        }
        let spread_ok = match (surv, q.caps.as_ref()) {
            (Some(sc), Some(caps)) => self.survivable_spread_ok(ctx, &sc, caps, me),
            _ => true,
        };
        if spread_ok && (self.reserved() + q.vm.spec.reservation).fits_within(&self.capacity) {
            self.vms.push(q.vm);
            ctx.send_client(
                q.origin,
                CtrlMsg::BootResult {
                    request: q.request,
                    vm: q.vm.id,
                    host: Some(me),
                },
            );
            if let Some(sc) = surv {
                self.after_survivable_admit(ctx, sc, q.vm, root, q.failover);
            }
            return;
        }
        // Full: walk outward. Prefer servers physically closest to the
        // key's root so the customer's footprint stays contiguous.
        q.visited.push(me.actor);
        let reject = |ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>, q: &BootQuery| {
            ctx.send_client(
                q.origin,
                CtrlMsg::BootResult {
                    request: q.request,
                    vm: q.vm.id,
                    host: None,
                },
            );
        };
        if q.ttl == 0 {
            reject(ctx, &q);
            return;
        }
        q.ttl -= 1;
        let state = ctx.pastry_state();
        let topo = state.topology();
        let next = boot_next_hop(state.known_iter(), &q.visited, topo.num_servers(), |h| {
            (
                actor_distance(topo, h.actor, root.actor),
                actor_distance(topo, h.actor, me.actor),
                h.id.ring_distance(root.id),
            )
        });
        match next {
            Some(n) => ctx.send_client(n, CtrlMsg::Boot(q)),
            None => reject(ctx, &q),
        }
    }

    fn handle_accept(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        query: u64,
        vm_id: VmId,
        receiver: NodeHandle,
    ) {
        let Some(expected) = self.pending_sheds.remove(&query) else {
            return; // stale or duplicate accept
        };
        debug_assert_eq!(expected, vm_id);
        let Some(pos) = self.vms.iter().position(|v| v.id == vm_id) else {
            return; // VM already moved; the receiver's hold will expire
        };
        // A lease may have been committed after this shed was planned;
        // re-check so the migration never strands a live half.
        if self.config.bundle_trading && self.trade.vm_involved(vm_id) {
            self.stats.sheds_lease_blocked.inc();
            self.flight.event_with(
                self.clock.as_micros(),
                self.obs_node,
                Subsystem::Controller,
                "shed-lease-blocked",
                || format!("vm {vm_id:?} re-leased while query was in flight"),
            );
            return;
        }
        if self.config.cost_benefit && !self.migration_worthwhile(&self.vms[pos]) {
            self.stats.migrations_gated += 1;
            return;
        }
        let vm = self.vms.remove(pos);
        self.stats.migrations_out += 1;
        self.flight.event_with(
            ctx.now().as_micros(),
            self.obs_node,
            Subsystem::Controller,
            "migrate-out",
            || format!("vm {:?} to node#{}", vm.id, receiver.actor.index()),
        );
        self.stats.migration_times.push(ctx.now());
        self.in_flight.insert(query, InFlight { vm, receiver });
        let timeout = self.courier.register(query);
        self.send_migrate(ctx, query, vm, receiver, timeout);
    }

    /// Sends (or resends) an in-flight VM and arms its ack timeout.
    fn send_migrate(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        query: u64,
        vm: VmRecord,
        receiver: NodeHandle,
        timeout: SimDuration,
    ) {
        let me = ctx.self_handle();
        ctx.send_client_after(
            receiver,
            CtrlMsg::Migrate {
                query,
                vm: Box::new(vm),
                from: me,
            },
            self.config.migration_delay,
        );
        debug_assert!(query < MIGRATE_RETRY_TAG_BASE);
        ctx.schedule(timeout, MIGRATE_RETRY_TAG_BASE | query);
    }

    /// The ack timeout for `query` fired. Resend with backed-off timeout,
    /// or — once the courier's budget is spent — declare the migration
    /// failed and take the VM back.
    fn migrate_retry_tick(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>, query: u64) {
        match self.courier.on_timeout(query) {
            RetryDecision::Settled => {} // acked (or rolled back) in the meantime
            RetryDecision::GiveUp => {
                if let Some(entry) = self.in_flight.remove(&query) {
                    self.stats.migrations_failed += 1;
                    self.reinstall_failed_migration(entry.vm);
                }
            }
            RetryDecision::Retry { timeout } => {
                let Some(entry) = self.in_flight.get(&query) else {
                    self.courier.forget(query);
                    return;
                };
                let (vm, receiver) = (entry.vm, entry.receiver);
                self.send_migrate(ctx, query, vm, receiver, timeout);
            }
        }
    }

    /// Brings a VM home after its transfer could not be completed.
    fn reinstall_failed_migration(&mut self, vm: VmRecord) {
        if !self.vms.iter().any(|v| v.id == vm.id) {
            self.vms.push(vm);
            self.stats.migrations_out = self.stats.migrations_out.saturating_sub(1);
        }
    }

    /// The predictive cost-benefit module (§VII future work): compares the
    /// bandwidth-deficit relief expected over one rebalancing interval
    /// against the migration's own transfer volume.
    fn migration_worthwhile(&self, vm: &VmRecord) -> bool {
        let deficit = self
            .bw_demand()
            .saturating_sub(self.capacity.bandwidth)
            .min(vm.effective_bw_demand());
        let benefit_mbit = deficit.as_mbps() * self.config.rebalance_interval.as_secs_f64();
        // Live migration transfers roughly the VM's memory footprint.
        let mem_mb = vm.spec.limit.memory_mb.max(vm.demand.memory_mb);
        let cost_mbit = mem_mb * 8.0;
        benefit_mbit > cost_mbit
    }

    fn handle_migrate_arrival(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        query: u64,
        vm: VmRecord,
        from: NodeHandle,
    ) {
        self.holds.retain(|h| h.query != query);
        // Retries and duplicated packets can deliver the same transfer
        // more than once; install the VM exactly once but always re-ack —
        // the earlier ack may have been the casualty.
        if !self.vms.iter().any(|v| v.id == vm.id) {
            self.vms.push(vm);
            self.stats.migrations_in += 1;
        }
        ctx.send_client(from, CtrlMsg::MigrateAck { query });
    }

    /// A [`BorrowRequest`] walked the customer's trade tree to this
    /// server. Accepting means committing as lender on the spot: pick the
    /// hosted sibling with the most room, debit it, and chase the
    /// borrower's ack via the trade courier.
    fn try_lend(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        q: &BorrowRequest,
    ) -> bool {
        let me = ctx.self_handle();
        if q.origin.actor == me.actor {
            return false; // intra-server imbalance is the shaper's job
        }
        let now = ctx.now();
        let ask = q.amount.bandwidth.as_mbps();
        // A lender's offer is bounded by two different ceilings:
        //  - `spare`: live entitlement its VM is not using (minus the
        //    self-insurance margin), so lending never starves the lender;
        //  - `lendable`: base reservation minus what the VM already lent
        //    out. Borrowed entitlement is deliberately NOT re-lendable —
        //    re-lending would let a released upstream lease drive the
        //    middle row negative and mint phantom credit.
        let margin = (1.0 - self.config.trade_margin).max(0.0);
        let best = self
            .vms
            .iter()
            .filter(|vm| vm.customer == q.customer && vm.id != q.borrower)
            .filter(|vm| !self.pending_sheds.values().any(|&p| p == vm.id))
            .map(|vm| {
                let spec = self.entitled_spec(vm);
                let used = vm.demand.bandwidth.min(spec.limit.bandwidth).as_mbps();
                let spare = (spec.reservation.bandwidth.as_mbps() - used).max(0.0) * margin;
                let (_, outflow) = self.trade.delta(vm.id, now);
                let lendable = (vm.spec.reservation.bandwidth - outflow.bandwidth)
                    .as_mbps()
                    .max(0.0);
                (vm.id, spare.min(lendable))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        let Some((lender, room)) = best else {
            return false;
        };
        let give = room.min(ask);
        if give < MIN_LEASE_MBPS {
            return false;
        }
        let raw = ((me.actor.index() as u64) << 32) | self.next_lease;
        self.next_lease += 1;
        debug_assert!(raw < TRADE_RETRY_TAG_BASE);
        let lease = Lease::free(
            LeaseId(raw),
            q.customer,
            lender,
            q.borrower,
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(give)),
            now,
            now + self.config.lease_duration,
        );
        self.trade.record(lease, LeaseRole::Lender, q.origin.actor);
        self.lease_peers.insert(raw, q.origin);
        self.trade.stats.grants_sent.inc();
        self.flight.event_with(
            now.as_micros(),
            self.obs_node,
            Subsystem::Controller,
            "lease-grant",
            || {
                format!(
                    "lease {raw:#x}: {give} Mbps to node#{}",
                    q.origin.actor.index()
                )
            },
        );
        let timeout = self.trade_courier.register(raw);
        ctx.send_client(
            q.origin,
            CtrlMsg::BorrowGrant {
                lease: Box::new(lease),
            },
        );
        ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
        true
    }

    /// A priced [`BorrowRequest`] walked the pod's spot group to this
    /// server. Like [`Controller::try_lend`], but the candidate lenders
    /// are *other tenants'* VMs, the offer is additionally bounded by the
    /// per-customer isolation cap, and the minted lease carries the
    /// quoted spot price — booked as revenue the moment it is debited
    /// (prepaid; reversed only on provable delivery failure).
    fn try_lend_spot(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        q: &BorrowRequest,
    ) -> bool {
        let Some(mc) = self.config.spot_market else {
            return false;
        };
        let me = ctx.self_handle();
        if q.origin.actor == me.actor {
            return false; // a server never sells to itself
        }
        let now = ctx.now();
        let ask = q.amount.bandwidth.as_mbps();
        let margin = (1.0 - self.config.trade_margin).max(0.0);
        let mut capped = false;
        let best = self
            .vms
            .iter()
            .filter(|vm| vm.customer != q.customer)
            .filter(|vm| !self.pending_sheds.values().any(|&p| p == vm.id))
            .map(|vm| {
                let spec = self.entitled_spec(vm);
                let used = vm.demand.bandwidth.min(spec.limit.bandwidth).as_mbps();
                let spare = (spec.reservation.bandwidth.as_mbps() - used).max(0.0) * margin;
                let (_, outflow) = self.trade.delta(vm.id, now);
                let lendable = (vm.spec.reservation.bandwidth - outflow.bandwidth)
                    .as_mbps()
                    .max(0.0);
                let cap_room = self.spot_cap_room_mbps(vm.customer, mc.isolation_cap, now);
                let uncapped = spare.min(lendable);
                if uncapped >= MIN_LEASE_MBPS && cap_room < MIN_LEASE_MBPS {
                    capped = true;
                }
                (vm.id, vm.customer, uncapped.min(cap_room))
            })
            .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)));
        let Some((lender, seller, room)) = best else {
            return false;
        };
        let give = room.min(ask);
        if give < MIN_LEASE_MBPS {
            if capped {
                self.market_stats.spot_rejected_cap.inc();
            }
            return false;
        }
        let raw = ((me.actor.index() as u64) << 32) | self.next_lease;
        self.next_lease += 1;
        debug_assert!(raw < TRADE_RETRY_TAG_BASE);
        let mut lease = Lease::free(
            LeaseId(raw),
            seller,
            lender,
            q.borrower,
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(give)),
            now,
            now + self.config.lease_duration,
        );
        lease.buyer = q.customer;
        lease.price = self.spot_index.quote(mc.ask_markup);
        self.trade.record(lease, LeaseRole::Lender, q.origin.actor);
        self.lease_peers.insert(raw, q.origin);
        self.trade.stats.grants_sent.inc();
        if let Some(entry) = BillingEntry::for_lease(&lease, EntrySide::Revenue, mc.fee_rate) {
            self.billing.record(entry);
        }
        // The lender observes its own clearing optimistically at mint —
        // once per lease, whatever the ack path does. The rare reversal
        // leaves a slightly stale index, never a corrupt ledger.
        self.spot_index.observe(lease.price);
        self.flight.event_with(
            now.as_micros(),
            self.obs_node,
            Subsystem::Controller,
            "spot-grant",
            || {
                format!(
                    "lease {raw:#x}: {give} Mbps at {:.4}/Mbps·s to customer {}",
                    lease.price, q.customer.0
                )
            },
        );
        let timeout = self.trade_courier.register(raw);
        ctx.send_client(
            q.origin,
            CtrlMsg::BorrowGrant {
                lease: Box::new(lease),
            },
        );
        ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
        true
    }

    /// Answers a renewal probe for a priced lease near expiry with a
    /// *replacement* grant at the current spot price — never a silent
    /// extension at the original terms. The replacement starts exactly
    /// when its predecessor expires, so entitlement is continuous but
    /// every window is re-priced; the borrower applies the same
    /// max-price/budget policy as any other grant and simply lets the old
    /// lease lapse if the new price is unacceptable.
    fn maybe_requote(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        id: LeaseId,
        from: NodeHandle,
    ) {
        let Some(mc) = self.config.spot_market else {
            return;
        };
        let now = ctx.now();
        let Some(h) = self.trade.get(id).copied() else {
            return;
        };
        if h.role != LeaseRole::Lender
            || !h.lease.is_priced()
            || self.renewal_quoted.contains_key(&id.0)
        {
            return;
        }
        // Only near expiry (within two update ticks): earlier probes are
        // plain liveness checks.
        let window = (self.config.update_interval * 2).as_micros();
        if h.lease.expires.as_micros().saturating_sub(now.as_micros()) > window {
            return;
        }
        // The replacement must still clear the isolation cap; the old
        // lease is still counted (conservative — it overlaps the check,
        // not the window).
        if self.spot_cap_room_mbps(h.lease.customer, mc.isolation_cap, now)
            < h.lease.amount.bandwidth.as_mbps()
        {
            return;
        }
        let me = ctx.self_handle();
        let raw = ((me.actor.index() as u64) << 32) | self.next_lease;
        self.next_lease += 1;
        debug_assert!(raw < TRADE_RETRY_TAG_BASE);
        let mut lease = Lease::free(
            LeaseId(raw),
            h.lease.customer,
            h.lease.lender,
            h.lease.borrower,
            h.lease.amount,
            h.lease.expires,
            h.lease.expires + self.config.lease_duration,
        );
        lease.buyer = h.lease.buyer;
        lease.price = self.spot_index.quote(mc.ask_markup);
        self.trade.record(lease, LeaseRole::Lender, from.actor);
        self.lease_peers.insert(raw, from);
        self.trade.stats.grants_sent.inc();
        if let Some(entry) = BillingEntry::for_lease(&lease, EntrySide::Revenue, mc.fee_rate) {
            self.billing.record(entry);
        }
        self.spot_index.observe(lease.price);
        self.renewal_quoted.insert(id.0, raw);
        self.market_stats.requotes.inc();
        self.flight.event_with(
            now.as_micros(),
            self.obs_node,
            Subsystem::Controller,
            "spot-requote",
            || {
                format!(
                    "lease {:#x} replaced by {raw:#x} at {:.4}/Mbps·s",
                    id.0, lease.price
                )
            },
        );
        let timeout = self.trade_courier.register(raw);
        ctx.send_client(
            from,
            CtrlMsg::BorrowGrant {
                lease: Box::new(lease),
            },
        );
        ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
    }

    /// A lender's committed offer arrived at the borrower's host.
    fn handle_borrow_grant(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        from: NodeHandle,
        lease: Lease,
    ) {
        let now = ctx.now();
        let id = lease.id;
        // Retried grants re-ack: the earlier ack may have been lost.
        if self.trade.contains(id) {
            ctx.send_client(from, CtrlMsg::LeaseAck { id, accepted: true });
            return;
        }
        // Admission: the borrowed reservation must still fit next to the
        // server's other live entitlements, or the shaper could not honor
        // it. Stale terms (expired in flight) are refused too.
        let hosted = self.vms.iter().any(|v| v.id == lease.borrower);
        let mut accepted = self.config.bundle_trading
            && hosted
            && lease.expires > now
            && lease.starts < lease.expires
            && lease.amount.is_sane()
            && (self.reserved() + lease.amount).fits_within(&self.capacity);
        // Priced grants additionally pass the buyer's market policy: the
        // market must be on, the billed tenant must really be the
        // borrower VM's, the ask must clear max_price, and the prepaid
        // gross must fit the tenant's budget on this host.
        if accepted && lease.is_priced() {
            accepted = match self.config.spot_market {
                None => false,
                Some(mc) => {
                    let buyer_ok = self
                        .vms
                        .iter()
                        .any(|v| v.id == lease.borrower && v.customer == lease.buyer);
                    if !buyer_ok {
                        false
                    } else if lease.price > mc.max_price {
                        self.market_stats.spot_rejected_price.inc();
                        false
                    } else if self.billing.spent_by(lease.buyer.0) + lease.gross() > mc.budget {
                        self.market_stats.spot_rejected_budget.inc();
                        false
                    } else {
                        true
                    }
                }
            };
        }
        if accepted {
            self.trade.record(lease, LeaseRole::Borrower, from.actor);
            self.lease_peers.insert(id.0, from);
            self.trade.stats.leases_borrowed.inc();
            if lease.is_priced() {
                if let Some(mc) = self.config.spot_market {
                    if let Some(entry) =
                        BillingEntry::for_lease(&lease, EntrySide::Spend, mc.fee_rate)
                    {
                        self.billing.record(entry);
                    }
                    // The buyer's side of price discovery: the cleared
                    // price steers this pod's index too.
                    self.spot_index.observe(lease.price);
                    self.market_stats.spot_trades.inc();
                    self.flight.event_with(
                        now.as_micros(),
                        self.obs_node,
                        Subsystem::Controller,
                        "spot-borrowed",
                        || {
                            format!(
                                "lease {:#x} at {:.4}/Mbps·s from node#{}",
                                id.0,
                                lease.price,
                                from.actor.index()
                            )
                        },
                    );
                }
            } else {
                self.flight.event_with(
                    now.as_micros(),
                    self.obs_node,
                    Subsystem::Controller,
                    "lease-borrowed",
                    || format!("lease {:#x} from node#{}", id.0, from.actor.index()),
                );
            }
        }
        ctx.send_client(from, CtrlMsg::LeaseAck { id, accepted });
    }

    /// The grant-ack timeout for lease `raw` fired on the lender.
    fn trade_retry_tick(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>, raw: u64) {
        match self.trade_courier.on_timeout(raw) {
            RetryDecision::Settled => {}
            RetryDecision::GiveUp => {
                // The ack may have been lost AFTER the borrower recorded
                // its half, so reclaiming the debit here could mint credit
                // out of thin air. Keep the half; expiry reconciles. The
                // same logic keeps a priced lease's revenue entry: the
                // borrower may well have paid (spend booked), and revenue
                // without spend is the tolerated direction.
                self.trade.stats.lender_losses.inc();
                self.lease_peers.remove(&raw);
            }
            RetryDecision::Retry { timeout } => {
                let half = self.trade.get(LeaseId(raw)).copied();
                let peer = self.lease_peers.get(&raw).copied();
                match (half, peer) {
                    (Some(h), Some(p)) if h.role == LeaseRole::Lender => {
                        ctx.send_client(
                            p,
                            CtrlMsg::BorrowGrant {
                                lease: Box::new(h.lease),
                            },
                        );
                        ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
                    }
                    _ => self.trade_courier.forget(raw),
                }
            }
        }
    }

    /// Drops a lease half and all bookkeeping attached to it.
    fn drop_lease_half(&mut self, id: LeaseId) -> Option<HalfLease> {
        self.lease_peers.remove(&id.0);
        self.trade_courier.forget(id.0);
        self.trade.revert(id)
    }

    /// The rack index behind an actor, if it maps to a server of the
    /// topology.
    fn rack_of_actor(topo: &Topology, actor: ActorId) -> Option<u32> {
        if actor.index() < topo.num_servers() {
            Some(topo.rack_of(topo.server(actor.index())).index() as u32)
        } else {
            None
        }
    }

    /// The failover tick: refresh probe targets, probe every protected
    /// rack, declare racks whose every known member has standing death
    /// evidence, resend pending fences, re-issue rejected
    /// re-materializations, and retract declarations that have fully
    /// reconciled.
    fn failover_tick(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>) {
        let Some(fc) = self.config.failover else {
            return;
        };
        let me = ctx.self_handle();
        let topo = ctx.pastry_state().topology().clone();
        let racks: BTreeSet<u32> = self
            .protects
            .values()
            .filter_map(|p| Self::rack_of_actor(&topo, p.primary.actor))
            .collect();
        // Refresh the probe-target cache from the overlay's current
        // view: every known node in a protected rack is a probe target,
        // so a declaration needs the *whole rack* silent, not just the
        // charge primaries.
        for h in ctx.pastry_state().known_iter() {
            if Self::rack_of_actor(&topo, h.actor).is_some_and(|r| racks.contains(&r)) {
                self.fo_handles.insert(h.actor.index() as u32, h);
            }
        }
        for &rack in &racks {
            if self.suspicion.is_declared(rack) {
                continue;
            }
            let members: Vec<NodeHandle> = self
                .fo_handles
                .iter()
                .filter(|(&idx, _)| Self::rack_of_actor(&topo, ActorId::new(idx)) == Some(rack))
                .map(|(_, &h)| h)
                .collect();
            // Evidence check first: probes sent this tick answer (or
            // bounce) well before the next one, so a declaration always
            // rests on at least one full probe round.
            if self
                .suspicion
                .declare(rack, members.iter().map(|h| h.actor.index() as u64))
            {
                self.on_rack_declared(ctx, rack, &topo);
                continue;
            }
            for member in members {
                if member.actor != me.actor {
                    ctx.send_client(member, CtrlMsg::FoProbe { rack });
                }
            }
        }
        // Resend pending fences: a stale primary that restarted since
        // the last tick must still learn its copies moved.
        for fence in self.fences.values() {
            self.stats.fo_fences_sent.inc();
            ctx.send_client(
                fence.primary,
                CtrlMsg::FoFence {
                    vms: fence.vms.iter().copied().collect(),
                },
            );
        }
        // Re-issue rejected re-materializations.
        let retries: Vec<FoBoot> = std::mem::take(&mut self.fo_retry).into_values().collect();
        for boot in retries {
            self.issue_failover_boot(ctx, boot, &topo);
        }
        // Retract declarations whose failover has fully reconciled, so a
        // future crash of the (restarted, re-protected) rack starts from
        // fresh evidence instead of being masked by the sticky verdict.
        let declared: Vec<u32> = self.suspicion.declared().collect();
        for rack in declared {
            let busy = self
                .protects
                .values()
                .any(|p| Self::rack_of_actor(&topo, p.primary.actor) == Some(rack))
                || self
                    .fences
                    .keys()
                    .any(|&idx| Self::rack_of_actor(&topo, ActorId::new(idx)) == Some(rack))
                || self.fo_pending.values().any(|b| b.rack == rack)
                || self.fo_retry.values().any(|b| b.rack == rack);
            if !busy {
                self.suspicion.retract(rack);
            }
        }
        ctx.schedule(fc.probe_interval, FAILOVER_TAG);
    }

    /// A protected rack was declared dead: convert every protection
    /// whose primary lived there into a live re-materialization, fence
    /// the stale primary, and release the backing headroom. The
    /// `BTreeMap` walk makes repeated and overlapping declarations
    /// deterministic; each protection is consumed exactly once, so a
    /// VM can never be materialized twice.
    fn on_rack_declared(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        rack: u32,
        topo: &Topology,
    ) {
        self.stats.fo_domains_declared.inc();
        self.flight.event_with(
            ctx.now().as_micros(),
            self.obs_node,
            Subsystem::Controller,
            "fo-domain-dead",
            || format!("rack {rack} declared dead"),
        );
        let victims: Vec<VmId> = self
            .protects
            .iter()
            .filter(|(_, p)| Self::rack_of_actor(topo, p.primary.actor) == Some(rack))
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
            let Some(p) = self.protects.remove(&id) else {
                continue;
            };
            self.release_backup(p.amount);
            let entry = self
                .fences
                .entry(p.primary.actor.index() as u32)
                .or_insert_with(|| Fence {
                    primary: p.primary,
                    vms: BTreeSet::new(),
                });
            entry.vms.insert(p.vm.id);
            // First fence attempt right away: if the primary is racing a
            // restart it reconciles immediately; if it is dead the send
            // just bounces and the tick resends until the ack.
            self.stats.fo_fences_sent.inc();
            ctx.send_client(p.primary, CtrlMsg::FoFence { vms: vec![p.vm.id] });
            self.issue_failover_boot(ctx, FoBoot { vm: p.vm, rack }, topo);
        }
    }

    /// Issues (or re-issues) one re-materialization through the ordinary
    /// boot path. The dead rack's servers are pre-seeded into `visited`
    /// so the walk can never resolve onto a host being fenced, and the
    /// request id lives in the [`FAILOVER_BOOT_BASE`] space so the
    /// result is intercepted rather than surfaced as a tenant boot.
    fn issue_failover_boot(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        boot: FoBoot,
        topo: &Topology,
    ) {
        let me = ctx.self_handle();
        let request = FAILOVER_BOOT_BASE | self.next_fo_boot;
        self.next_fo_boot += 1;
        let visited: Vec<ActorId> = if (boot.rack as usize) < topo.num_racks() {
            topo.domain_servers(DomainKind::Rack, boot.rack as usize)
                .into_iter()
                .map(|s| ActorId::new(s.index() as u32))
                .collect()
        } else {
            Vec::new()
        };
        let q = Box::new(BootQuery {
            request,
            vm: boot.vm,
            origin: me,
            root: None,
            caps: None,
            visited,
            ttl: self.config.boot_ttl,
            failover: true,
        });
        self.fo_pending.insert(request, boot);
        self.handle_boot(ctx, q);
    }

    /// A failover boot resolved. Success is the re-materialization
    /// (the fence keeps chasing the stale primary separately);
    /// rejection queues a retry for the next tick.
    fn on_failover_boot_result(&mut self, request: u64, vm: VmId, host: Option<NodeHandle>) {
        let Some(boot) = self.fo_pending.remove(&request) else {
            return; // duplicate result
        };
        match host {
            Some(h) => {
                self.stats.fo_rematerialized.inc();
                self.flight.event_with(
                    self.clock.as_micros(),
                    self.obs_node,
                    Subsystem::Controller,
                    "fo-rematerialize",
                    || format!("vm {vm:?} onto node#{}", h.actor.index()),
                );
            }
            None => {
                self.fo_retry.insert(boot.vm.id, boot);
            }
        }
    }

    /// A fence arrived from a backup site: this server's copies of
    /// `vms` are stale — they were re-materialized elsewhere while this
    /// rack was declared dead. Drop them, reverting their leases
    /// through the peers first, and ack so the re-materialized copy is
    /// the only one left.
    fn apply_fence(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        from: NodeHandle,
        vms: Vec<VmId>,
    ) {
        if self.config.failover.is_none() {
            return;
        }
        let mut dropped = 0u64;
        for &vm in &vms {
            if self.vms.iter().any(|v| v.id == vm) {
                let leases = self.trade.ids_involving(vm).len() as u64;
                if leases > 0 {
                    self.stats.fo_lease_reverts.add(leases);
                    self.flight.event_with(
                        ctx.now().as_micros(),
                        self.obs_node,
                        Subsystem::Controller,
                        "fo-lease-revert",
                        || format!("{leases} lease(s) of fenced vm {vm:?}"),
                    );
                }
                self.release_vm_leases(ctx, vm);
                self.remove_vm(vm);
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.flight.event_with(
                ctx.now().as_micros(),
                self.obs_node,
                Subsystem::Controller,
                "fo-fence",
                || {
                    format!(
                        "dropped {dropped} stale VM(s) fenced by node#{}",
                        from.actor.index()
                    )
                },
            );
        }
        ctx.send_client(from, CtrlMsg::FoFenceAck { vms });
    }
}

impl ScribeClient for Controller {
    type Msg = CtrlMsg;

    fn on_start(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>) {
        for &kind in self.active_kinds() {
            self.agg.subscribe(ctx, capacity_topic(kind));
            self.agg.subscribe(ctx, demand_topic(kind));
        }
        // Small deterministic stagger so 3000 servers do not tick in
        // lockstep.
        use rand::Rng;
        let jitter_cap = (self.config.update_interval.as_micros() / 10).max(1);
        let jitter = SimDuration::from_micros(ctx.rng().gen_range(0..jitter_cap));
        ctx.schedule(self.config.update_interval + jitter, UPDATE_TAG);
        ctx.schedule(self.config.rebalance_interval + jitter, REBALANCE_TAG);
        if let Some(fc) = self.config.failover {
            ctx.schedule(fc.probe_interval, FAILOVER_TAG);
        }
    }

    fn on_restart(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>) {
        // The crash purged every timer this controller had armed; re-arm
        // the periodic ticks (same stagger logic as on_start) and the ack
        // timeout of every migration that was still in flight, so each of
        // those transfers is eventually acked, retried or rolled back.
        use rand::Rng;
        self.agg.on_restart(ctx);
        let jitter_cap = (self.config.update_interval.as_micros() / 10).max(1);
        let jitter = SimDuration::from_micros(ctx.rng().gen_range(0..jitter_cap));
        ctx.schedule(self.config.update_interval + jitter, UPDATE_TAG);
        ctx.schedule(self.config.rebalance_interval + jitter, REBALANCE_TAG);
        if let Some(fc) = self.config.failover {
            ctx.schedule(fc.probe_interval, FAILOVER_TAG);
        }
        let queries: Vec<u64> = self.in_flight.keys().copied().collect();
        for query in queries {
            // arm() re-covers the current attempt without burning a retry.
            let timeout = self.courier.arm(query);
            ctx.schedule(timeout, MIGRATE_RETRY_TAG_BASE | query);
        }
        // Lease halves survive the crash (client state persists); re-arm
        // the ack chase for every grant still awaiting its LeaseAck.
        for raw in self.trade_courier.outstanding_keys() {
            let timeout = self.trade_courier.arm(raw);
            ctx.schedule(timeout, TRADE_RETRY_TAG_BASE | raw);
        }
    }

    fn on_timer(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>, tag: u64) {
        self.clock = ctx.now();
        match tag {
            AGG_TICK_TAG => self.agg.on_tick(ctx),
            UPDATE_TAG => self.update_tick(ctx),
            REBALANCE_TAG => self.rebalance_tick(ctx),
            FAILOVER_TAG => self.failover_tick(ctx),
            t if t >= MIGRATE_RETRY_TAG_BASE => {
                self.migrate_retry_tick(ctx, t & !MIGRATE_RETRY_TAG_BASE)
            }
            t if t >= TRADE_RETRY_TAG_BASE => self.trade_retry_tick(ctx, t & !TRADE_RETRY_TAG_BASE),
            _ => {}
        }
    }

    /// The poison screen: when the aggregator runs defensively, inbound
    /// aggregation reports are range-checked *before* Scribe processes
    /// them, so a blatantly corrupted value is dropped at the door instead
    /// of entering the combine. Under `TrustAll` everything passes — that
    /// is the ablation the poison bench measures against.
    fn validate_payload(&mut self, msg: &CtrlMsg) -> bool {
        // Trade payloads get an unconditional (cheap, deterministic)
        // sanity screen: an insane amount could only corrupt the ledger.
        match msg {
            CtrlMsg::Borrow(q) if !q.amount.is_sane() => {
                self.stats.invalid_payloads += 1;
                return false;
            }
            CtrlMsg::BorrowGrant { lease }
                if !lease.amount.is_sane() || !lease.price.is_finite() || lease.price < 0.0 =>
            {
                self.stats.invalid_payloads += 1;
                return false;
            }
            _ => {}
        }
        let CtrlMsg::Agg(agg) = msg else { return true };
        let Robustness::Defensive(params) = &self.agg.config().robustness else {
            return true;
        };
        let value = match agg {
            AggMsg::Update { value, .. } => value,
            AggMsg::Result { value, .. } => value,
        };
        if params.check(value).is_err() {
            self.stats.invalid_payloads += 1;
            return false;
        }
        true
    }

    fn deliver_multicast(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        _group: GroupId,
        msg: CtrlMsg,
    ) {
        if let CtrlMsg::Agg(AggMsg::Result {
            topic,
            root,
            version,
            value,
        }) = msg
        {
            self.agg.on_result(topic, root, version, value, ctx.now());
        }
    }

    fn on_direct(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        from: NodeHandle,
        msg: CtrlMsg,
    ) {
        self.clock = ctx.now();
        match msg {
            CtrlMsg::Agg(AggMsg::Update { topic, value }) => {
                self.agg.on_update(ctx, from, topic, value);
            }
            CtrlMsg::Agg(_) => {}
            CtrlMsg::Boot(q) => self.handle_boot(ctx, q),
            // Failover boots are this site's own re-materializations, not
            // tenant boots: intercept before the generic result arm.
            CtrlMsg::BootResult { request, vm, host } if request >= FAILOVER_BOOT_BASE => {
                self.on_failover_boot_result(request, vm, host);
            }
            CtrlMsg::BootResult { request, vm, host } => {
                // A duplicated (or re-acked) result must not double-count.
                if !self.stats.boot_results.iter().any(|(r, ..)| *r == request) {
                    self.stats.boot_results.push((request, vm, host));
                }
            }
            CtrlMsg::LoadAccept {
                query,
                vm,
                receiver,
            } => self.handle_accept(ctx, query, vm, receiver),
            CtrlMsg::Migrate { query, vm, from } => {
                self.handle_migrate_arrival(ctx, query, *vm, from)
            }
            CtrlMsg::MigrateAck { query } => {
                self.courier.ack(query);
                self.in_flight.remove(&query);
            }
            CtrlMsg::BorrowGrant { lease } => self.handle_borrow_grant(ctx, from, *lease),
            CtrlMsg::LeaseAck { id, accepted } => {
                self.trade_courier.ack(id.0);
                if !accepted {
                    // The borrower refused, so it never recorded a half:
                    // reclaiming the debit is safe here (unlike GiveUp) —
                    // and so is reversing the revenue of a priced lease,
                    // since a refusing borrower booked no spend.
                    let dropped = self.drop_lease_half(id);
                    self.trade.stats.grants_rejected.inc();
                    if dropped.is_some_and(|h| h.lease.is_priced()) {
                        if self.billing.reverse(id.0).is_some() {
                            self.market_stats.billing_reversals.inc();
                        }
                        // If this was a renewal replacement, let the old
                        // lease be re-quoted again later.
                        self.renewal_quoted.retain(|_, &mut newer| newer != id.0);
                    }
                }
            }
            CtrlMsg::LeaseRenew { id } => {
                // A renewal for a lease this lender no longer carries
                // (expired, released): tell the borrower to drop its half.
                if !self.trade.contains(id) {
                    ctx.send_client(from, CtrlMsg::LeaseRelease { id });
                } else {
                    // A known priced lease near expiry is answered with a
                    // replacement at the *current* spot price — renewal
                    // must never silently extend stale terms.
                    self.maybe_requote(ctx, id, from);
                }
            }
            CtrlMsg::LeaseRelease { id } => {
                self.drop_lease_half(id);
            }
            CtrlMsg::SurvCommit {
                customer,
                rack,
                pod,
            } => {
                if self.config.survivability.is_some() {
                    self.record_surv_commit(customer, rack, pod);
                }
            }
            CtrlMsg::BackupReserve { amount, .. } => {
                // Best-effort: carve the backup out only when it fits
                // (reserved() already counts earlier carve-outs).
                if self.config.survivability.is_some()
                    && amount.is_sane()
                    && (self.reserved() + amount).fits_within(&self.capacity)
                {
                    self.backup_reserved += amount;
                    self.stats.backups_reserved += 1;
                }
            }
            CtrlMsg::FoBackupReserve {
                vm,
                primary,
                amount,
            } => {
                if self.config.failover.is_some()
                    && amount.is_sane()
                    && (self.reserved() + amount).fits_within(&self.capacity)
                {
                    self.backup_reserved += amount;
                    self.stats.backups_reserved += 1;
                    self.fo_handles
                        .insert(primary.actor.index() as u32, primary);
                    self.protects.insert(
                        vm.id,
                        Protection {
                            vm: *vm,
                            primary,
                            amount,
                        },
                    );
                }
            }
            CtrlMsg::FoProbe { rack } => {
                if self.config.failover.is_some() {
                    ctx.send_client(from, CtrlMsg::FoProbeAck { rack });
                }
            }
            CtrlMsg::FoProbeAck { .. } => {
                self.suspicion.mark_alive(from.actor.index() as u64);
            }
            CtrlMsg::FoFence { vms } => self.apply_fence(ctx, from, vms),
            CtrlMsg::FoFenceAck { vms } => {
                let key = from.actor.index() as u32;
                if let Some(fence) = self.fences.get_mut(&key) {
                    for vm in vms {
                        fence.vms.remove(&vm);
                    }
                    if fence.vms.is_empty() {
                        self.fences.remove(&key);
                    }
                }
            }
            CtrlMsg::Borrow(_) => {} // borrow requests only arrive via anycast
            CtrlMsg::Load(_) => {}   // load queries only arrive via anycast
        }
    }

    fn deliver_routed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        _key: vbundle_pastry::Key,
        msg: CtrlMsg,
        _origin: NodeHandle,
    ) {
        if let CtrlMsg::Boot(q) = msg {
            self.handle_boot(ctx, q);
        }
    }

    fn anycast_accept(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        group: GroupId,
        msg: &CtrlMsg,
        _origin: NodeHandle,
    ) -> bool {
        self.clock = ctx.now();
        if let CtrlMsg::Borrow(q) = msg {
            if q.spot {
                if self.config.bundle_trading
                    && self.config.spot_market.is_some()
                    && group == spot_group(self.pod_index)
                {
                    return self.try_lend_spot(ctx, &q.clone());
                }
                return false;
            }
            if self.config.bundle_trading && group == trade_group(q.customer) {
                return self.try_lend(ctx, &q.clone());
            }
            return false;
        }
        if group != less_loaded_group() {
            return false;
        }
        let CtrlMsg::Load(q) = msg else {
            return false;
        };
        // Holds can lapse between update ticks; release them before the
        // capacity check so an expired hold does not block this accept.
        self.expire_holds(ctx.now());
        let Some(mean) = self.effective_mean_for(crate::ResourceKind::Bandwidth) else {
            return false;
        };
        if !self.receiver_check(&q.vm, mean) {
            return false;
        }
        self.holds.push(Hold {
            query: q.query,
            vm: q.vm,
            expires: ctx.now() + self.config.hold_timeout,
        });
        self.stats.accepts_sent += 1;
        let me = ctx.self_handle();
        ctx.send_client(
            q.shedder,
            CtrlMsg::LoadAccept {
                query: q.query,
                vm: q.vm.id,
                receiver: me,
            },
        );
        true
    }

    fn anycast_failed(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        _group: GroupId,
        msg: CtrlMsg,
    ) {
        if let CtrlMsg::Load(q) = msg {
            self.stats.anycast_failures += 1;
            self.pending_sheds.remove(&q.query);
            // No receiver could take this VM right now: back off on it so
            // the next rounds offer other (smaller) VMs instead.
            self.shed_cooldown
                .insert(q.vm.id, _ctx.now() + self.config.rebalance_interval * 2);
        }
    }

    fn on_child_removed(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        group: GroupId,
        child: NodeHandle,
    ) {
        self.agg.on_child_removed(group, child);
    }

    fn on_send_failure(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        to: ActorId,
        msg: CtrlMsg,
    ) {
        match msg {
            // The receiver died mid-migration: the VM comes back home
            // right away (no point retrying into a dead host).
            CtrlMsg::Migrate { query, vm, .. } => {
                self.courier.forget(query);
                self.in_flight.remove(&query);
                self.reinstall_failed_migration(*vm);
                self.stats.migrations_failed += 1;
            }
            // A boot hop died: continue the walk without it.
            CtrlMsg::Boot(mut q) => {
                if !q.visited.contains(&to) {
                    q.visited.push(to);
                }
                self.handle_boot(ctx, q);
            }
            // The shedder died after accepting: release the hold.
            CtrlMsg::LoadAccept { query, .. } => {
                self.holds.retain(|h| h.query != query);
            }
            // The borrower's host is gone before the grant even arrived:
            // nobody recorded credit, so the lender reclaims its debit —
            // and the revenue of a priced lease, since nobody paid.
            CtrlMsg::BorrowGrant { lease } => {
                self.drop_lease_half(lease.id);
                self.trade.stats.grants_rejected.inc();
                if lease.is_priced() {
                    if self.billing.reverse(lease.id.0).is_some() {
                        self.market_stats.billing_reversals.inc();
                    }
                    self.renewal_quoted
                        .retain(|_, &mut newer| newer != lease.id.0);
                }
            }
            // The renewal bounced: the lender's host is dead, so the
            // borrowed credit has no backing debit. Drop it now rather
            // than ride it to expiry.
            CtrlMsg::LeaseRenew { id } => {
                self.drop_lease_half(id);
            }
            // A bounced probe is death evidence for that member.
            CtrlMsg::FoProbe { .. } => {
                self.suspicion.mark_dead(to.index() as u64);
            }
            // The chosen backup site died before the charge landed.
            CtrlMsg::FoBackupReserve { .. } => {
                self.stats.backups_unplaced += 1;
            }
            _ => {}
        }
    }

    fn on_node_failed(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        failed: NodeHandle,
    ) {
        // A detected peer failure reverts *borrower* halves whose lender
        // lived there — credit without a backing debit is the unsafe
        // direction. Lender halves stay: the borrower may be alive behind
        // a partition, and a kept debit only under-uses the bundle until
        // expiry.
        for id in self.trade.ids_with_peer(failed.actor) {
            if self
                .trade
                .get(id)
                .is_some_and(|h| h.role == LeaseRole::Borrower)
            {
                self.drop_lease_half(id);
            }
        }
        // Overlay-level eviction is death evidence for domain suspicion.
        if self.config.failover.is_some() {
            self.suspicion.mark_dead(failed.actor.index() as u64);
        }
    }
}

/// The boot walk's next hop: the first node of `known` with the smallest
/// `key` that the walk has not visited. `known` may repeat a node — the
/// repeat ties with its first occurrence, which `min_by_key` keeps. The
/// visited servers are marked once in a per-hop bitmap (one bit per
/// server), so the hop costs O(known + visited) instead of a scan of the
/// visited list per known node; actors beyond the server range, which the
/// bitmap does not cover, fall back to that scan.
fn boot_next_hop<K: Ord>(
    known: impl Iterator<Item = NodeHandle>,
    visited: &[ActorId],
    servers: usize,
    key: impl Fn(&NodeHandle) -> K,
) -> Option<NodeHandle> {
    let mut mark = vec![0u64; servers.div_ceil(64)];
    for a in visited {
        if let Some(word) = mark.get_mut(a.index() / 64) {
            *word |= 1 << (a.index() % 64);
        }
    }
    let seen = |a: ActorId| match mark.get(a.index() / 64) {
        Some(word) => word >> (a.index() % 64) & 1 == 1,
        None => visited.contains(&a),
    };
    known.filter(|h| !seen(h.actor)).min_by_key(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CustomerId, ResourceSpec};
    use vbundle_aggregation::AggregationConfig;

    fn controller(threshold: f64) -> Controller {
        Controller::new(
            ResourceVector::new(4.0, 16_384.0, Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_threshold(threshold),
        )
    }

    fn vm(id: u64, res: f64, lim: f64, dem: f64) -> VmRecord {
        let mut vm = VmRecord::new(
            VmId(id),
            CustomerId(0),
            ResourceSpec::bandwidth(Bandwidth::from_mbps(res), Bandwidth::from_mbps(lim)),
        );
        vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(dem));
        vm
    }

    mod boot_walk {
        use super::*;
        use proptest::prelude::*;
        use std::sync::Arc;
        use vbundle_pastry::{Id, PastryState};

        proptest! {
            /// Ids come from a 40-value ring around the local node and the
            /// leaf set holds 4 per side, so most learned nodes sit in the
            /// leaf set (often on both sides), the routing table *and* the
            /// neighbor set: `known_iter` repeats them, `known_nodes` does
            /// not, and the next hop must not care. Distances are coarse
            /// (rack/pod), so equal keys are common too. Actors past the
            /// 16 servers exercise the bitmap's fallback scan.
            #[test]
            fn next_hop_matches_known_nodes_reference(
                peers in proptest::collection::vec(1u128..40, 0..30),
                visited in proptest::collection::vec(0u32..20, 0..16),
                root in 0u32..16,
            ) {
                let topo = Arc::new(
                    Topology::builder().pods(2).racks_per_pod(2).servers_per_rack(4).build(),
                );
                let me = NodeHandle::new(Id::from_u128(20 << 120), ActorId::new(0));
                let mut state = PastryState::new(me, topo.clone(), 4, 8);
                for &id in &peers {
                    // One actor per id, as in any real overlay.
                    let actor = ActorId::new((id * 7 % 20) as u32);
                    state.learn(NodeHandle::new(Id::from_u128(id << 120), actor));
                }
                let visited: Vec<ActorId> = visited.into_iter().map(ActorId::new).collect();
                let root = ActorId::new(root);
                let key = |h: &NodeHandle| {
                    (
                        actor_distance(&topo, h.actor, root),
                        actor_distance(&topo, h.actor, me.actor),
                    )
                };
                let reference = state
                    .known_nodes()
                    .into_iter()
                    .filter(|h| !visited.contains(&h.actor))
                    .min_by_key(key);
                let got = boot_next_hop(state.known_iter(), &visited, topo.num_servers(), key);
                prop_assert_eq!(got, reference);
                prop_assert!(
                    state.known_iter().count() >= state.known_nodes().len(),
                    "known_iter yields every known node at least once"
                );
            }
        }
    }

    #[test]
    fn install_and_remove_track_reservations() {
        let mut c = controller(0.15);
        c.install_vm(vm(1, 400.0, 800.0, 100.0));
        c.install_vm(vm(2, 300.0, 300.0, 200.0));
        assert_eq!(c.reserved().bandwidth.as_mbps(), 700.0);
        assert_eq!(c.bw_demand().as_mbps(), 300.0);
        assert!((c.utilization() - 0.3).abs() < 1e-12);
        let removed = c.remove_vm(VmId(1)).expect("present");
        assert_eq!(removed.id, VmId(1));
        assert_eq!(c.reserved().bandwidth.as_mbps(), 300.0);
        assert!(c.remove_vm(VmId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "admission control")]
    fn install_rejects_overcommit() {
        let mut c = controller(0.15);
        c.install_vm(vm(1, 800.0, 800.0, 0.0));
        c.install_vm(vm(2, 300.0, 300.0, 0.0));
    }

    #[test]
    fn receiver_check_requires_reservation_fit() {
        let mut c = controller(0.5);
        c.install_vm(vm(1, 900.0, 1000.0, 0.0));
        // Reservation 200 does not fit next to 900 on a 1000 NIC.
        assert!(!c.receiver_check(&vm(2, 200.0, 200.0, 10.0), 0.5));
        // Reservation 50 fits and utilization is tiny.
        assert!(c.receiver_check(&vm(3, 50.0, 50.0, 10.0), 0.5));
    }

    #[test]
    fn receiver_check_enforces_oscillation_guard() {
        let mut c = controller(0.1);
        c.install_vm(vm(1, 0.0, 1000.0, 500.0)); // util 0.5
                                                 // mean 0.5 + θ 0.1 = 0.6: a 200 Mbps demand would hit 0.7.
        assert!(!c.receiver_check(&vm(2, 0.0, 1000.0, 200.0), 0.5));
        // 50 Mbps stays at 0.55 ≤ 0.6.
        assert!(c.receiver_check(&vm(3, 0.0, 1000.0, 50.0), 0.5));
    }

    #[test]
    fn receiver_check_skippable_for_ablation() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default()
                .with_threshold(0.1)
                .with_oscillation_guard(false),
        );
        c.install_vm(vm(1, 0.0, 1000.0, 500.0));
        assert!(c.receiver_check(&vm(2, 0.0, 1000.0, 400.0), 0.5));
    }

    #[test]
    fn demand_for_clamps_to_limits() {
        let mut c = controller(0.15);
        let mut v = vm(1, 0.0, 100.0, 400.0); // bw demand 400, limit 100
        v.demand.memory_mb = 9_999.0; // memory limit is 0 = untracked
        c.install_vm(v);
        assert_eq!(c.demand_for(crate::ResourceKind::Bandwidth), 100.0);
        assert_eq!(c.demand_for(crate::ResourceKind::Memory), 9_999.0);
        assert!((c.utilization_for(crate::ResourceKind::Memory) - 9_999.0 / 16_384.0).abs() < 1e-9);
    }

    #[test]
    fn cost_benefit_gates_small_deficits() {
        let mut c = Controller::new(
            ResourceVector::new(4.0, 16_384.0, Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_cost_benefit(true),
        );
        // Tiny deficit (1020 demand on 1000 NIC), giant memory footprint.
        let mut heavy = vm(1, 0.0, 1000.0, 1020.0);
        heavy.spec = ResourceSpec::new(
            ResourceVector::ZERO,
            ResourceVector::new(1.0, 8_000_000.0, Bandwidth::from_gbps(1.0)),
        );
        c.install_vm(heavy);
        assert!(!c.migration_worthwhile(&c.vms()[0]));
        // Large deficit, small footprint: worthwhile.
        let mut c2 = Controller::new(
            ResourceVector::new(4.0, 16_384.0, Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_cost_benefit(true),
        );
        let mut light = vm(2, 0.0, 1000.0, 900.0);
        light.spec = ResourceSpec::new(
            ResourceVector::ZERO,
            ResourceVector::new(1.0, 512.0, Bandwidth::from_gbps(1.0)),
        );
        c2.install_vm(light);
        c2.install_vm(vm(3, 0.0, 1000.0, 600.0));
        assert!(c2.migration_worthwhile(&c2.vms()[0]));
    }

    /// Injects a fresh global pair so `cluster_mean_for(Bandwidth)` reads
    /// `util` (demand mean `util * 1000` over capacity mean `1000`).
    fn feed_mean(c: &mut Controller, version: u64, util: f64) {
        let kind = crate::ResourceKind::Bandwidth;
        c.agg.track(demand_topic(kind));
        c.agg.track(capacity_topic(kind));
        c.agg.on_result(
            demand_topic(kind),
            9,
            version,
            vbundle_aggregation::AggValue::of(util * 1000.0),
            SimTime::ZERO,
        );
        c.agg.on_result(
            capacity_topic(kind),
            9,
            version,
            vbundle_aggregation::AggValue::of(1000.0),
            SimTime::ZERO,
        );
    }

    #[test]
    fn hold_expiry_is_exclusive_at_the_boundary() {
        let mut c = controller(0.15);
        let expires = SimTime::ZERO + SimDuration::from_mins(10);
        c.holds.push(Hold {
            query: 1,
            vm: vm(1, 100.0, 100.0, 100.0),
            expires,
        });
        // Any instant strictly before `expires`: still held.
        c.expire_holds(expires - SimDuration::from_micros(1));
        assert_eq!(c.bw_held().as_mbps(), 100.0);
        // At `expires` itself the bandwidth is already released, so an
        // accept arriving in that very tick is not double-charged.
        c.expire_holds(expires);
        assert_eq!(c.bw_held().as_mbps(), 0.0);
    }

    #[test]
    fn mean_gate_holds_last_good_and_reanchors() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default()
                .with_mean_jump_bound(0.2)
                .with_mean_recovery_rounds(2),
        );
        let bw = crate::ResourceKind::Bandwidth;
        feed_mean(&mut c, 1, 0.5);
        c.gate_means();
        assert_eq!(c.effective_mean_for(bw), Some(0.5));
        assert!(!c.conservative_mode());

        // A poisoned aggregate jumps to 5.0: in absolute bounds but far
        // past the jump bound, so the gate holds 0.5 and goes conservative.
        feed_mean(&mut c, 2, 5.0);
        c.gate_means();
        assert_eq!(c.effective_mean_for(bw), Some(0.5));
        assert!(c.conservative_mode());
        assert_eq!(c.stats.rejected_aggregates.get(), 1);

        // The same level repeating looks like a genuine cluster-wide load
        // change: after `mean_recovery_rounds` consistent readings the gate
        // re-anchors and leaves conservative mode.
        c.gate_means();
        assert_eq!(c.effective_mean_for(bw), Some(5.0));
        assert!(!c.conservative_mode());
        assert_eq!(c.stats.rejected_aggregates.get(), 2);
    }

    #[test]
    fn mean_gate_never_anchors_on_garbage() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default()
                .with_mean_jump_bound(0.2)
                .with_mean_recovery_rounds(2),
        );
        let bw = crate::ResourceKind::Bandwidth;
        feed_mean(&mut c, 1, 0.5);
        c.gate_means();
        // Negative demand sum → negative mean: outside the absolute
        // bounds, so no matter how often it repeats it cannot re-anchor.
        feed_mean(&mut c, 2, -0.5);
        for _ in 0..5 {
            c.gate_means();
            assert_eq!(c.effective_mean_for(bw), Some(0.5));
            assert!(c.conservative_mode());
        }
        assert_eq!(c.stats.rejected_aggregates.get(), 5);
    }

    #[test]
    fn mean_gate_disabled_is_passthrough() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_mean_gate(false),
        );
        let bw = crate::ResourceKind::Bandwidth;
        feed_mean(&mut c, 1, 7.5);
        c.gate_means();
        // No gate: the implausible reading steers classification directly.
        assert_eq!(c.effective_mean_for(bw), Some(7.5));
        assert!(!c.conservative_mode());
        assert_eq!(c.stats.rejected_aggregates.get(), 0);
    }

    #[test]
    fn validate_payload_screens_poison_under_defensive() {
        use vbundle_aggregation::{AggMsg, AggValue, Robustness};
        let defensive = AggregationConfig {
            robustness: Robustness::defensive(),
            ..AggregationConfig::default()
        };
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            defensive,
            VBundleConfig::default(),
        );
        let topic = bw_demand_topic();
        let good = CtrlMsg::Agg(AggMsg::Update {
            topic,
            value: AggValue::of(10.0),
        });
        let poisoned = CtrlMsg::Agg(AggMsg::Update {
            topic,
            value: AggValue::of(f64::NAN),
        });
        assert!(c.validate_payload(&good));
        assert!(!c.validate_payload(&poisoned));
        assert_eq!(c.stats.invalid_payloads, 1);

        // TrustAll is the ablation: everything passes.
        let mut t = controller(0.15);
        assert!(t.validate_payload(&poisoned));
        assert_eq!(t.stats.invalid_payloads, 0);
    }

    #[test]
    fn entitled_spec_follows_the_book() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_bundle_trading(true),
        );
        c.install_vm(vm(1, 300.0, 300.0, 100.0));
        c.install_vm(vm(2, 300.0, 300.0, 400.0));
        // Empty book: entitlements are the static contracts.
        assert_eq!(c.reserved().bandwidth.as_mbps(), 600.0);
        let lease = Lease::free(
            LeaseId(7),
            CustomerId(0),
            VmId(1),
            VmId(2),
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(100.0)),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        // This server hosts both parties only in this test; real clusters
        // hold one half each, but the arithmetic is identical.
        c.trade.record(lease, LeaseRole::Lender, ActorId::new(9));
        let lease2 = Lease {
            id: LeaseId(8),
            ..lease
        };
        c.trade.record(lease2, LeaseRole::Borrower, ActorId::new(9));
        c.clock = SimTime::from_secs(10);
        // Lender's row shrank, borrower's grew; the sum is unchanged.
        let lender = *c.vms().iter().find(|v| v.id == VmId(1)).unwrap();
        let borrower = *c.vms().iter().find(|v| v.id == VmId(2)).unwrap();
        assert_eq!(
            c.entitled_spec(&lender).reservation.bandwidth.as_mbps(),
            200.0
        );
        assert_eq!(c.entitled_spec(&borrower).limit.bandwidth.as_mbps(), 400.0);
        assert_eq!(c.reserved().bandwidth.as_mbps(), 600.0);
        // The shaper now grants the borrower up to its live ceiling.
        let allocs = c.allocations();
        assert_eq!(allocs[1].granted.as_mbps(), 400.0);
        // demand_for clamps against the live limit too.
        assert_eq!(c.demand_for(crate::ResourceKind::Bandwidth), 500.0);
        // Past expiry the contracts revert without any sweep running.
        c.clock = SimTime::from_secs(1000);
        assert_eq!(
            c.entitled_spec(&lender).reservation.bandwidth.as_mbps(),
            300.0
        );
        assert_eq!(c.demand_for(crate::ResourceKind::Bandwidth), 400.0);
    }

    #[test]
    fn remove_vm_drops_lease_halves() {
        let mut c = Controller::new(
            ResourceVector::bandwidth_only(Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_bundle_trading(true),
        );
        c.install_vm(vm(1, 300.0, 300.0, 100.0));
        let lease = Lease::free(
            LeaseId(3),
            CustomerId(0),
            VmId(1),
            VmId(99),
            ResourceVector::bandwidth_only(Bandwidth::from_mbps(50.0)),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        c.trade.record(lease, LeaseRole::Lender, ActorId::new(9));
        c.lease_peers.insert(
            3,
            NodeHandle::new(vbundle_pastry::Id::from_u128(9), ActorId::new(9)),
        );
        assert!(c.trade.vm_involved(VmId(1)));
        c.remove_vm(VmId(1));
        assert!(c.trade.is_empty());
        assert!(c.lease_peers.is_empty());
        assert_eq!(c.trade.stats.leases_reverted.get(), 1);
    }

    #[test]
    fn validate_payload_screens_insane_trade_amounts() {
        let mut c = controller(0.15);
        let mut insane = ResourceVector::ZERO;
        insane.cpu = f64::NAN; // Bandwidth's constructor rejects NaN itself
        let bad = CtrlMsg::Borrow(Box::new(BorrowRequest {
            customer: CustomerId(0),
            borrower: VmId(1),
            amount: insane,
            origin: NodeHandle::new(vbundle_pastry::Id::from_u128(1), ActorId::new(1)),
            spot: false,
        }));
        assert!(!c.validate_payload(&bad));
        let good = CtrlMsg::Borrow(Box::new(BorrowRequest {
            customer: CustomerId(0),
            borrower: VmId(1),
            amount: ResourceVector::bandwidth_only(Bandwidth::from_mbps(25.0)),
            origin: NodeHandle::new(vbundle_pastry::Id::from_u128(1), ActorId::new(1)),
            spot: false,
        }));
        assert!(c.validate_payload(&good));
        assert_eq!(c.stats.invalid_payloads, 1);
    }

    #[test]
    fn trade_group_is_per_customer() {
        assert_ne!(trade_group(CustomerId(0)), trade_group(CustomerId(1)));
        assert_ne!(trade_group(CustomerId(0)), less_loaded_group());
    }

    #[test]
    fn topics_are_distinct_per_kind() {
        let kinds = crate::ResourceKind::ALL;
        for i in 0..kinds.len() {
            for j in (i + 1)..kinds.len() {
                assert_ne!(capacity_topic(kinds[i]), capacity_topic(kinds[j]));
                assert_ne!(demand_topic(kinds[i]), demand_topic(kinds[j]));
            }
            assert_ne!(capacity_topic(kinds[i]), demand_topic(kinds[i]));
        }
        assert_eq!(
            capacity_topic(crate::ResourceKind::Bandwidth),
            bw_capacity_topic()
        );
    }
}

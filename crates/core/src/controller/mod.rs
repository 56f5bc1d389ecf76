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
//!
//! The controller itself is the host — capacity, VMs, aggregator, ledgers,
//! clock, counters — and a dispatcher: every protocol is a plain struct in its
//! own module that owns its tables, timers and couriers and is handed the
//! host by `&mut`. Optional protocols are `Option`s built once from the
//! configuration, so a disabled feature is absent state and a `None` arm
//! in the dispatch, not a flag read inside every handler.
//!
//! | module | protocol | messages | timer tags |
//! |---|---|---|---|
//! | `boot` | boot walk (§II.B) | `Boot`, tenant `BootResult` | — |
//! | `surv` | survivable admission | `SurvCommit`, sends `BackupReserve` (receives it with failover off) | — |
//! | `shuffle` | shed/receive + migration (§III.C) | `Load`, `LoadAccept`, `Migrate`, `MigrateAck` | `REBALANCE_TAG`, `MIGRATE_RETRY_TAG_BASE \| query` |
//! | `gate` | cluster-mean sanity gate (owned by `shuffle`, its only reader) | — | — |
//! | `trade` + `market` | bundle trading, spot market | `Borrow`, `BorrowGrant`, `LeaseAck`, `LeaseRenew`, `LeaseRelease` | `TRADE_RETRY_TAG_BASE \| lease` |
//! | `failover` | backup-activated failover | `BackupReserve` (failover on), `FoProbe`, `FoProbeAck`, `FoFenceAck`, failover `BootResult` | `FAILOVER_TAG` |
//! | `dispatch` | the `ScribeClient` impl | `Agg`, `FoFence` | `UPDATE_TAG`, `AGG_TICK_TAG` |

mod boot;
mod dispatch;
mod failover;
mod gate;
mod host;
mod market;
mod shuffle;
mod stats;
mod surv;
mod trade;

use std::rc::Rc;

use vbundle_aggregation::{AggregationConfig, Aggregator};
use vbundle_dcn::Bandwidth;
use vbundle_market::BillingBook;
use vbundle_obs::{FlightRecorder, Registry};
use vbundle_pastry::NodeHandle;
use vbundle_scribe::{group_id, GroupId, ScribeCtx};
use vbundle_trade::{ResourceSpec, TradeBook};

use crate::message::{BootQuery, CtrlMsg, Visited};
use crate::{shaper, CustomerId, ResourceKind, ResourceVector, VBundleConfig, VmId, VmRecord};
use failover::Failover;
use host::Host;
use market::SpotMarket;
use shuffle::Shuffle;
use surv::Survivability;
use trade::Trade;

pub use shuffle::ServerStatus;
pub use stats::{ControllerCounters, ControllerStats, MarketStats};

/// The capabilities a Scribe upcall hands the controller.
type Ctx<'a, 'b, 'c, 'd> = ScribeCtx<'a, 'b, 'c, 'd, CtrlMsg>;

/// Client timer tag for the status-update tick.
pub const UPDATE_TAG: u64 = 0x101;
/// Client timer tag for the rebalancing tick.
pub const REBALANCE_TAG: u64 = 0x102;
/// Client timer tag for the failover tick (probe protected racks, resend
/// fences, retry re-materializations). Armed only when failover is on.
pub const FAILOVER_TAG: u64 = 0x103;
/// Timer-tag space for per-migration ack timeouts (`base | query id`);
/// sits below the Scribe-reserved space, above the small client tags.
pub const MIGRATE_RETRY_TAG_BASE: u64 = 1 << 61;
/// Timer-tag space for per-lease grant-ack timeouts (`base | lease id`);
/// below the migration space. Query and lease ids are op ids
/// (`Host::next_op`), far under `1 << 60`.
pub const TRADE_RETRY_TAG_BASE: u64 = 1 << 60;

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
/// [`BorrowRequest`](crate::BorrowRequest)s into it — the same Less-Loaded
/// discipline as load shedding, scoped to one tenant's bundle.
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
pub fn capacity_topic(kind: ResourceKind) -> GroupId {
    match kind {
        ResourceKind::Bandwidth => bw_capacity_topic(),
        ResourceKind::Cpu => group_id("CPU_Capacity"),
        ResourceKind::Memory => group_id("MEM_Capacity"),
    }
}

/// Aggregation topics carrying demand for one resource dimension.
pub fn demand_topic(kind: ResourceKind) -> GroupId {
    match kind {
        ResourceKind::Bandwidth => bw_demand_topic(),
        ResourceKind::Cpu => group_id("CPU_Demand"),
        ResourceKind::Memory => group_id("MEM_Demand"),
    }
}

/// What [`Controller::billing`] hands out while there is no spot market.
static NO_BILLING: BillingBook = BillingBook::new();

/// The v-Bundle controller running on one server.
#[derive(Debug)]
pub struct Controller {
    host: Host,
    shuffle: Shuffle,
    /// `None` with `VBundleConfig::bundle_trading` off. The spot market
    /// (`VBundleConfig::spot_market`) lives inside. The optional
    /// protocols are boxed: every server carries the controller, and a
    /// subsystem that is off then costs it one pointer, not its tables.
    trade: Option<Box<Trade>>,
    /// `None` with `VBundleConfig::survivability` unset.
    surv: Option<Box<Survivability>>,
    /// `None` with `VBundleConfig::failover` unset.
    failover: Option<Box<Failover>>,
    /// Observable spot-market counters.
    pub market_stats: Rc<MarketStats>,
    /// Observable counters.
    pub stats: ControllerStats,
}

impl Controller {
    /// Creates a controller for a server with the given physical capacity.
    /// Either configuration may be passed by value or as an `Rc` shared
    /// with the other servers of a cluster.
    pub fn new(
        capacity: ResourceVector,
        agg_config: impl Into<Rc<AggregationConfig>>,
        config: impl Into<Rc<VBundleConfig>>,
    ) -> Self {
        let config = config.into();
        let market_stats = Rc::new(MarketStats::default());
        let trade = config.bundle_trading.then(|| {
            let market = config
                .spot_market
                .map(|mc| SpotMarket::new(mc, Rc::clone(&market_stats)));
            Box::new(Trade::new(&config, market))
        });
        Controller {
            shuffle: Shuffle::new(&config),
            trade,
            surv: config.survivability.map(Survivability::new).map(Box::new),
            failover: config.failover.map(Failover::new).map(Box::new),
            market_stats,
            stats: ControllerStats::default(),
            host: Host::new(capacity, agg_config, config),
        }
    }

    fn market(&self) -> Option<&SpotMarket> {
        self.trade.as_ref()?.market.as_ref()
    }

    fn market_mut(&mut self) -> Option<&mut SpotMarket> {
        self.trade.as_mut()?.market.as_mut()
    }

    /// Attaches this controller to the shared observability planes: its
    /// counter sets join the `controller`, `trade` and (with the spot
    /// market configured) `market` scopes of `registry`, summed across
    /// servers on export while per-server tests still read their own
    /// values, and migration/lease/mean-gate events are recorded on
    /// `flight`, tagged with this server's actor index `node`.
    pub fn attach_obs(&mut self, node: u32, registry: &Registry, flight: &FlightRecorder) {
        registry.attach("controller", &self.stats.counters);
        registry.attach("trade", &self.host.book.stats);
        // Market counters only exist in the export when the market is
        // configured, so off-market metric exports name no `market/` metric.
        if self.market().is_some() {
            registry.attach("market", &self.market_stats);
        }
        self.host.flight = flight.clone();
        self.host.node = node;
    }

    /// Tells the controller which pod its server sits in. Called by the
    /// cluster builder; spot-market matching is scoped to this pod's
    /// `Spot-<pod>` group.
    pub fn set_pod(&mut self, pod: u32) {
        if let Some(m) = self.market_mut() {
            m.group = spot_group(pod);
        }
    }

    /// The server's physical capacity.
    pub fn capacity(&self) -> &ResourceVector {
        &self.host.capacity
    }

    /// The VMs currently hosted.
    pub fn vms(&self) -> &[VmRecord] {
        &self.host.vms
    }

    /// VMs this server has sent to a receiver that have not been
    /// acknowledged yet. Until the ack (or the rollback after exhausted
    /// retries), the shedder still owns these records — cluster-wide VM
    /// accounting must count them exactly once, here.
    pub fn in_flight_vms(&self) -> Vec<VmRecord> {
        self.shuffle.in_flight_vms()
    }

    /// The current self-identified role.
    pub fn status(&self) -> ServerStatus {
        self.shuffle.status
    }

    /// The embedded aggregation component.
    pub fn aggregator(&self) -> &Aggregator {
        &self.host.agg
    }

    /// Total (limit-clamped) bandwidth demand of hosted VMs.
    pub fn bw_demand(&self) -> Bandwidth {
        self.host.bw_demand()
    }

    /// Bandwidth utilization: demand over NIC capacity (may exceed 1).
    pub fn utilization(&self) -> f64 {
        self.bw_demand().fraction_of(self.host.capacity.bandwidth)
    }

    /// What this server has promised — hosted reservations, live
    /// borrowed entitlement, held reservations and the survivable backup
    /// carve — and what admission control checks new reservations
    /// against. Reservation a hosted VM lent out stays counted: it comes
    /// back at the lease's expiry.
    pub fn reserved(&self) -> ResourceVector {
        self.host.reserved()
    }

    /// Capacity carved out on this server as survivable backup.
    pub fn backup_reserved(&self) -> ResourceVector {
        self.host.backup_reserved
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
            self.host.carve_backup(amount),
            "reserve_backup violates admission control"
        );
    }

    /// Releases previously carved-out backup capacity — the recovery
    /// path, when a displaced VM lands on its backup or the fault heals.
    pub fn release_backup(&mut self, amount: ResourceVector) {
        self.host.release_backup(amount);
    }

    /// The VMs this server currently protects as a failover backup site.
    pub fn protected_vms(&self) -> Vec<VmId> {
        self.failover
            .as_ref()
            .map_or_else(Vec::new, |fo| fo.protected_vms())
    }

    /// VMs this site re-materialized whose stale primary has not yet
    /// acknowledged its fence. While a fence is pending, a restarted
    /// primary may transiently still hold the old copy — chaos
    /// conservation checks treat such duplicates as reconciling rather
    /// than as violations.
    pub fn fenced_vms(&self) -> Vec<VmId> {
        self.failover
            .as_ref()
            .map_or_else(Vec::new, |fo| fo.fenced_vms())
    }

    /// Registers a protection charge on this server: reserves `amount`
    /// as backup headroom and remembers `vm`/`primary` so a declared
    /// death of the primary's rack re-materializes the VM here — the
    /// offline seeding counterpart of [`CtrlMsg::BackupReserve`]. With
    /// failover off only the headroom is reserved.
    ///
    /// # Panics
    ///
    /// Panics if the amount does not fit (same admission rule as
    /// [`Controller::reserve_backup`]) or the VM already has a charge
    /// here.
    pub fn install_protection(
        &mut self,
        vm: VmRecord,
        primary: NodeHandle,
        amount: ResourceVector,
    ) {
        let armed = match &mut self.failover {
            Some(fo) => fo.arm(&mut self.host, &mut self.stats, vm, primary, amount),
            None => self.host.carve_backup(amount),
        };
        assert!(armed, "install_protection violates admission control");
    }

    /// `vm`'s effective rate/ceil contract right now: the static spec
    /// shifted by its live leases. With trading off (or an empty book)
    /// this is exactly `vm.spec`.
    pub fn entitled_spec(&self, vm: &VmRecord) -> ResourceSpec {
        self.host.entitled_spec(vm)
    }

    /// This server's lease halves (read-only; benches and chaos checks).
    pub fn trade_book(&self) -> &TradeBook {
        &self.host.book
    }

    /// This server's half of the double-entry billing ledger (read-only;
    /// benches and chaos checks). Empty without a spot market.
    pub fn billing(&self) -> &BillingBook {
        self.market().map_or(&NO_BILLING, |m| &m.billing)
    }

    /// The current spot price of this server's pod index, per Mbps·s
    /// (1.0 without a spot market).
    pub fn spot_price(&self) -> f64 {
        self.market().map_or(1.0, |m| m.index.current())
    }

    /// Folds a synthetic cleared price into this server's index — a test
    /// hook for driving the index deterministically (e.g. the stale-price
    /// renewal regression), equivalent to this server having cleared a
    /// trade at `cleared`.
    pub fn observe_spot_price(&mut self, cleared: f64) {
        if let Some(m) = self.market_mut() {
            m.index.observe(cleared);
        }
    }

    /// The cluster-wide mean bandwidth utilization, once the aggregation
    /// trees have converged.
    pub fn cluster_mean(&self) -> Option<f64> {
        self.cluster_mean_for(ResourceKind::Bandwidth)
    }

    /// The cluster mean utilization along one resource dimension (only
    /// available for CPU/memory when multi-metric shuffling is enabled).
    pub fn cluster_mean_for(&self, kind: ResourceKind) -> Option<f64> {
        self.host.cluster_mean_for(kind)
    }

    /// The mean utilization the shuffling logic actually steers on: the
    /// raw aggregate filtered through the sanity gate. With the gate
    /// disabled this is [`Controller::cluster_mean_for`] verbatim; with it
    /// enabled it is the gate's last-good reading — before the first
    /// update tick seeds the gate, the raw value passes through only if it
    /// clears the absolute plausibility bounds.
    pub fn effective_mean_for(&self, kind: ResourceKind) -> Option<f64> {
        self.shuffle.effective_mean(&self.host, kind)
    }

    /// True while any dimension's gate is holding a suspect reading — the
    /// conservative mode of §graceful degradation: classification steers
    /// on last-good means, no new sheds are planned, in-flight holds are
    /// honored.
    pub fn conservative_mode(&self) -> bool {
        self.shuffle.conservative(&self.host)
    }

    /// This server's total demand along one dimension, each VM clamped to
    /// its limit (a zero limit means "untracked" and leaves the demand
    /// unclamped).
    pub fn demand_for(&self, kind: ResourceKind) -> f64 {
        self.host.demand_for(kind)
    }

    /// Utilization along one dimension (0 when the capacity is zero).
    pub fn utilization_for(&self, kind: ResourceKind) -> f64 {
        self.host.utilization_for(kind)
    }

    /// Per-VM bandwidth allocations under the HTB shaper right now. With
    /// bundle trading on, every VM's rate/ceil is its live entitlement —
    /// this is the enforcement point where a lease becomes bandwidth.
    /// Survivable backup reservations are held out of the borrow pool.
    pub fn allocations(&self) -> Vec<shaper::Allocation> {
        shaper::allocate_with_backup(
            self.host.capacity.bandwidth,
            self.host.backup_reserved.bandwidth,
            &self.host.vms,
            |vm| self.host.entitled_spec(vm),
        )
    }

    /// Shuts a hosted VM down, releasing its reservation. Returns its
    /// record, or `None` if it does not live here.
    pub fn remove_vm(&mut self, vm: VmId) -> Option<VmRecord> {
        let pos = self.host.vms.iter().position(|v| v.id == vm)?;
        // A VM that is mid-shed cannot also be shut down twice: drop any
        // outstanding query bookkeeping for it.
        self.shuffle.forget_vm(vm);
        // Backstop: drop its lease halves without notifying peers (no ctx
        // here). Callers that can send should use
        // [`Controller::release_vm_leases`] first so the opposite halves
        // do not linger until expiry.
        if let Some(trade) = &mut self.trade {
            trade.forget_vm(&mut self.host, vm);
        }
        Some(self.host.evict(pos))
    }

    /// Unwinds every lease a hosted VM is party to, notifying each peer
    /// with [`CtrlMsg::LeaseRelease`] so the opposite half drops too.
    /// Called before a planned shutdown; crashes rely on expiry instead.
    pub fn release_vm_leases(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>, vm: VmId) {
        self.host.clock = ctx.now();
        if let Some(trade) = &mut self.trade {
            trade.release_vm(&mut self.host, Some(ctx), vm);
        }
        self.announce(ctx);
    }

    /// Whether what this server could lend has moved since its trade trees
    /// last heard — which [`Controller::announce`], given a context,
    /// takes care of. Always `false` with trading off.
    pub fn has_lending_news(&self) -> bool {
        self.trade.is_some() && self.host.lendable_moved
    }

    /// Updates a hosted VM's demand. Returns `true` if the VM lives here.
    pub fn set_vm_demand(&mut self, vm: VmId, demand: ResourceVector) -> bool {
        match self.host.vms.iter_mut().find(|v| v.id == vm) {
            Some(v) => {
                v.demand = demand;
                self.host.lendable_moved = true;
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
            self.host.admits(vm.spec.reservation),
            "install_vm violates admission control"
        );
        self.host.install(vm);
    }

    /// Initiates the boot protocol for `vm` and returns its op id: the
    /// query is routed to the customer's key and the result arrives in
    /// [`ControllerStats::boot_results`] on *this* server.
    pub fn request_boot(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, CtrlMsg>,
        key: vbundle_pastry::Key,
        vm: VmRecord,
    ) -> u64 {
        let me = ctx.self_handle();
        let request = self.host.next_op(me.actor);
        ctx.route_client(
            key,
            CtrlMsg::Boot(Box::new(BootQuery {
                request,
                vm,
                origin: me,
                root: None,
                caps: None,
                visited: Visited::default(),
                ttl: boot::BOOT_TTL,
                failover: false,
            })),
        );
        request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CustomerId, ResourceSpec};

    pub(super) fn controller(threshold: f64) -> Controller {
        Controller::new(
            ResourceVector::new(4.0, 16_384.0, Bandwidth::from_gbps(1.0)),
            AggregationConfig::default(),
            VBundleConfig::default().with_threshold(threshold),
        )
    }

    pub(super) fn vm(id: u64, res: f64, lim: f64, dem: f64) -> VmRecord {
        let mut vm = VmRecord::new(
            VmId(id),
            CustomerId(0),
            ResourceSpec::bandwidth(Bandwidth::from_mbps(res), Bandwidth::from_mbps(lim)),
        );
        vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(dem));
        vm
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
    fn trade_group_is_per_customer() {
        assert_ne!(trade_group(CustomerId(0)), trade_group(CustomerId(1)));
        assert_ne!(trade_group(CustomerId(0)), less_loaded_group());
    }

    #[test]
    fn topics_are_distinct_per_kind() {
        let kinds = ResourceKind::ALL;
        for i in 0..kinds.len() {
            for j in (i + 1)..kinds.len() {
                assert_ne!(capacity_topic(kinds[i]), capacity_topic(kinds[j]));
                assert_ne!(demand_topic(kinds[i]), demand_topic(kinds[j]));
            }
            assert_ne!(capacity_topic(kinds[i]), demand_topic(kinds[i]));
        }
        assert_eq!(capacity_topic(ResourceKind::Bandwidth), bw_capacity_topic());
    }
}

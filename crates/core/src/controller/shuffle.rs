//! Resource shuffling (§III.C): shedder/receiver classification, the
//! Less-Loaded anycast, and the migration of one VM per accepted query.
//!
//! Owns `CtrlMsg::{Load, LoadAccept, Migrate, MigrateAck}`, the
//! `REBALANCE_TAG` tick and the `MIGRATE_RETRY_TAG_BASE | query` timers.
//!
//! A query's life on the shedder is one row of `Shuffle::sheds`:
//!
//! ```text
//!   plan_sheds ──► Offered ──LoadAccept (gates pass)──► Sent ──MigrateAck──► done
//!                     │  └──LoadAccept (VM gone / leased / not worth it)──► done
//!                     └──no receiver──► done (VM cools down)
//!                                       Sent ──give-up / bounce──► done (VM reinstalled)
//! ```
//!
//! Every other (stage, event) pair is illegal: counted into
//! `invalid_payloads` and dropped by `Shuffle::step`.

mod sheds;

use vbundle_fdetect::{Courier, CourierConfig, RetryDecision};
use vbundle_obs::Kind;
use vbundle_pastry::NodeHandle;
use vbundle_sim::{SimDuration, SimTime};

use super::gate::MeanGates;
use super::host::{clamped, Cooldown, Hold, Host};
use super::stats::ControllerStats;
use super::{less_loaded_group, Ctx, MIGRATE_RETRY_TAG_BASE};
use crate::message::{CtrlMsg, LoadQuery};
use crate::{ResourceKind, VBundleConfig, VmId, VmRecord};
use sheds::Sheds;

/// Total transmission attempts per migration (first send included) before
/// it is declared failed and the VM is reinstalled on the shedder.
const MIGRATION_ATTEMPTS: u32 = 3;
/// Jitter salt for the migration courier ("MIGR").
const MIGRATION_COURIER_SALT: u64 = 0x4d49_4752;
/// A server joins the Less-Loaded tree (as a potential receiver) when its
/// utilization is below `mean - RECEIVER_MARGIN`.
const RECEIVER_MARGIN: f64 = 0.0;
/// Upper bound on load-balance queries a shedder issues per rebalancing
/// round.
const MAX_SHEDS_PER_ROUND: usize = 8;
/// Simulated duration of one (live) VM migration.
const MIGRATION_DELAY: SimDuration = SimDuration::from_secs(10);
/// How long a receiver holds reserved bandwidth for an accepted VM before
/// the hold expires.
const HOLD_TIMEOUT: SimDuration = SimDuration::from_mins(10);

// Flight records: shed candidates held back by live leases, a planned
// migration stopped because its VM was leased since, a VM leaving.
const SHED_LEASE_BLOCKED: Kind = Kind::new("shed-lease-blocked", "vms", "");
const MIGRATE_LEASE_BLOCKED: Kind = Kind::new("migrate-lease-blocked", "vm", "");
const MIGRATE_OUT: Kind = Kind::new("migrate-out", "vm", "to");

/// A server's self-identified role in the current rebalancing epoch
/// (§III.C step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerStatus {
    /// Utilization above `mean + threshold`: evacuating VMs.
    Shedder,
    /// Utilization below `mean - RECEIVER_MARGIN`: advertising spare
    /// bandwidth in the Less-Loaded tree.
    Receiver,
    /// Neither; not participating in exchanges.
    #[default]
    Neutral,
}

/// The stage of one load-balance query on the shedder.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shed {
    /// Anycast into the Less-Loaded tree; the VM still runs here.
    Offered(VmId),
    /// A receiver accepted and the VM left. The shedder keeps the record
    /// until the ack so the transfer can be retried (lossy network) or
    /// rolled back (receiver never answers) — a migration must never lose
    /// the VM. The retransmission schedule lives in the courier.
    Sent { vm: VmRecord, receiver: NodeHandle },
}

/// What can happen to a query.
#[derive(Debug, Clone, Copy)]
enum ShedEvent {
    /// A `LoadAccept` naming `vm` arrived from `receiver`.
    Accept { vm: VmId, receiver: NodeHandle },
    /// The anycast found no receiver.
    NoReceiver,
    /// The receiver acknowledged the transfer.
    Ack,
    /// The retry budget ran out or the transfer bounced off a dead host.
    RollBack,
}

/// Shuffling state of one server, both roles.
#[derive(Debug)]
pub(super) struct Shuffle {
    pub status: ServerStatus,
    in_less_loaded: bool,
    /// Shedder side: outstanding queries in ascending id, so restart
    /// re-arms the ack timers in query order.
    sheds: Sheds,
    /// Retransmission state for `Sent` queries: exponential backoff with
    /// deterministic jitter and a bounded retry budget.
    courier: Courier,
    /// VMs whose last query found no receiver.
    cooldown: Cooldown,
    /// The sanity gate between the aggregated cluster means and everything
    /// above that steers on them; `None` with `VBundleConfig::mean_gate`
    /// off, when the raw means steer.
    gate: Option<MeanGates>,
}

impl Shuffle {
    pub fn new(config: &VBundleConfig) -> Self {
        // First-attempt timeout: the transfer itself plus generous slack
        // for the ack's round trip. Backed-off retries stay capped well
        // inside the receiver's hold window so they still land on reserved
        // bandwidth.
        let courier = Courier::new(CourierConfig {
            base_timeout: MIGRATION_DELAY * 2 + HOLD_TIMEOUT / 8,
            max_timeout: HOLD_TIMEOUT / 2,
            max_attempts: MIGRATION_ATTEMPTS,
            salt: MIGRATION_COURIER_SALT,
        });
        Shuffle {
            status: ServerStatus::Neutral,
            in_less_loaded: false,
            sheds: Sheds::default(),
            courier,
            cooldown: Cooldown::default(),
            gate: config.mean_gate.then(MeanGates::default),
        }
    }

    /// The mean utilization the shuffle steers on along `kind`: the raw
    /// aggregate, filtered through the sanity gate when there is one.
    pub fn effective_mean(&self, host: &Host, kind: ResourceKind) -> Option<f64> {
        match &self.gate {
            Some(gate) => gate.effective(host, kind),
            None => host.cluster_mean_for(kind),
        }
    }

    /// True while any dimension's gate is holding a suspect reading: the
    /// mean is in doubt, so no *new* sheds are planned (in-flight
    /// migrations and holds proceed untouched).
    pub fn conservative(&self, host: &Host) -> bool {
        let kinds = host.active_kinds();
        self.gate.as_ref().is_some_and(|g| g.suspicious(kinds))
    }

    /// Runs the fresh cluster means through the gate. Called once per
    /// update tick, *before* classification.
    pub fn sample_means(&mut self, host: &Host, stats: &mut ControllerStats) {
        if let Some(gate) = &mut self.gate {
            for &kind in host.active_kinds() {
                gate.sample(host, stats, kind);
            }
            if gate.suspicious(host.active_kinds()) {
                stats.conservative_intervals += 1;
            }
        }
    }

    /// Whether `vm` is the subject of a query still out in the tree — the
    /// "mid-shed" view trading reads before lending from a VM.
    pub fn offered(&self, vm: VmId) -> bool {
        self.sheds.values().any(|s| *s == Shed::Offered(vm))
    }

    /// VMs sent to a receiver but not yet acknowledged, by VM id.
    pub fn in_flight_vms(&self) -> Vec<VmRecord> {
        let mut v: Vec<VmRecord> = self
            .sheds
            .values()
            .filter_map(|s| match s {
                Shed::Sent { vm, .. } => Some(*vm),
                Shed::Offered(_) => None,
            })
            .collect();
        v.sort_by_key(|vm| vm.id);
        v
    }

    /// `vm` was shut down: it can no longer be shed.
    pub fn forget_vm(&mut self, vm: VmId) {
        self.sheds.retain(|s| *s != Shed::Offered(vm));
        self.cooldown.clear(vm);
    }

    /// §III.C step 1: a server sheds when *any* managed dimension exceeds
    /// its cluster mean plus the threshold, and receives only when *every*
    /// dimension sits below its mean. Receivers sit in the Less-Loaded
    /// tree.
    pub fn classify(&mut self, host: &Host, ctx: &mut Ctx<'_, '_, '_, '_>) {
        let mut any_over = false;
        let mut all_under = true;
        let mut any_mean_known = false;
        for &kind in host.active_kinds() {
            let Some(mean) = self.effective_mean(host, kind) else {
                all_under = false;
                continue;
            };
            any_mean_known = true;
            let util = host.utilization_for(kind);
            if util > mean + host.config.threshold {
                any_over = true;
            }
            // Strictly above `mean - margin` disqualifies; sitting exactly
            // at the mean (e.g. a dimension that is uniform across the
            // cluster) does not — otherwise one uniform dimension would
            // veto every receiver.
            if util > mean - RECEIVER_MARGIN + 1e-12 {
                all_under = false;
            }
        }
        if !any_mean_known {
            return;
        }
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
        } else if !should_be_member && self.in_less_loaded {
            ctx.leave(less_loaded_group());
        }
        self.in_less_loaded = should_be_member;
    }

    /// The rebalancing round of a shedder: shed along the most-overloaded
    /// dimension (the bottleneck).
    pub fn rebalance(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
    ) {
        if self.status != ServerStatus::Shedder || self.conservative(host) {
            return;
        }
        let bottleneck = host
            .active_kinds()
            .iter()
            .filter_map(|&k| {
                let mean = self.effective_mean(host, k)?;
                Some((k, mean, host.utilization_for(k) - mean))
            })
            .max_by(|a, b| a.2.total_cmp(&b.2));
        if let Some((kind, mean, _)) = bottleneck {
            self.plan_sheds(host, stats, ctx, kind, mean);
        }
    }

    /// Issues load-balance queries for the largest VMs (along the
    /// bottleneck dimension `kind`) until the projected utilization falls
    /// under `mean + threshold` (§III.C step 1-2), never undershooting
    /// the mean and bounded per round.
    fn plan_sheds(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        kind: ResourceKind,
        mean: f64,
    ) {
        let me = ctx.self_handle();
        let cap = host.capacity.get(kind);
        if cap <= 0.0 {
            return;
        }
        self.cooldown.sweep(ctx.now());
        let vm_demand = |vm: &VmRecord| clamped(vm.demand.get(kind), vm.spec.limit.get(kind));
        let mut projected: f64 = host
            .vms
            .iter()
            .filter(|vm| !self.offered(vm.id))
            .map(vm_demand)
            .sum();
        let mut candidates: Vec<VmRecord> = host
            .vms
            .iter()
            .filter(|vm| !self.offered(vm.id) && !self.cooldown.covers(vm.id))
            .copied()
            .collect();
        // A VM party to a live lease stays put: migrating it would strand
        // the lease's opposite half on a peer that keeps renewing into the
        // wrong host.
        let before = candidates.len();
        candidates.retain(|vm| !host.book.vm_involved(vm.id));
        let blocked = (before - candidates.len()) as u64;
        if blocked > 0 {
            stats.sheds_lease_blocked.add(blocked);
            host.event(&SHED_LEASE_BLOCKED, blocked, 0);
        }
        candidates.sort_by(|a, b| vm_demand(b).total_cmp(&vm_demand(a)));
        let stop_line = mean + host.config.threshold;
        let mut issued = 0;
        for vm in candidates {
            if issued >= MAX_SHEDS_PER_ROUND || projected / cap <= stop_line {
                break;
            }
            // Do not shed below the average line (§III.C step 4).
            let after = (projected - vm_demand(&vm)).max(0.0);
            if after / cap < mean - host.config.threshold {
                continue;
            }
            let query = host.next_op(me.actor);
            self.sheds.insert(query, Shed::Offered(vm.id));
            host.lendable_moved = true;
            stats.queries_sent += 1;
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
    fn receiver_check(&self, host: &Host, vm: &VmRecord, bw_mean: f64) -> bool {
        // (1) Sufficient reserved bandwidth (and CPU/memory) for the VM.
        if !host.admits(vm.spec.reservation) {
            return false;
        }
        if !host.config.oscillation_guard {
            return true;
        }
        // (2) Post-accept utilization stays under mean + threshold along
        // every managed dimension, which avoids back-and-forth
        // shedding/receiving oscillation.
        for &kind in host.active_kinds() {
            let mean = match kind {
                ResourceKind::Bandwidth => bw_mean,
                _ => match self.effective_mean(host, kind) {
                    Some(m) => m,
                    None => continue,
                },
            };
            let cap = host.capacity.get(kind);
            if cap <= 0.0 {
                continue;
            }
            let held: f64 = host.holds.iter().map(|h| h.vm.demand.get(kind)).sum();
            let post = host.demand_for(kind) + held + vm.demand.get(kind);
            if post / cap > mean + host.config.threshold {
                return false;
            }
        }
        true
    }

    /// A [`LoadQuery`] walked the Less-Loaded tree to this server. Accepting
    /// holds the VM's reservation on the host until it arrives (or the
    /// hold lapses).
    pub fn on_query(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        q: &LoadQuery,
    ) -> bool {
        // Holds can lapse between update ticks; release them before the
        // capacity check so an expired hold does not block this accept.
        host.expire_holds(ctx.now());
        let fits = self
            .effective_mean(host, ResourceKind::Bandwidth)
            .is_some_and(|mean| self.receiver_check(host, &q.vm, mean));
        if !fits {
            return false;
        }
        host.holds.push(Hold {
            query: q.query,
            vm: q.vm,
            expires: ctx.now() + HOLD_TIMEOUT,
        });
        stats.accepts_sent += 1;
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

    /// The single writer of a query's stage (creation in `plan_sheds` and
    /// VM shutdown aside): applies `event` to `query`'s row and returns the
    /// stage it left. `None` means nothing moved: either there is no such
    /// query (any more) — a stale or duplicate message, ignored — or the
    /// event is not legal in the row's stage, which is counted into
    /// `invalid_payloads`.
    fn step(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        query: u64,
        event: ShedEvent,
    ) -> Option<Shed> {
        let from = *self.sheds.get(&query)?;
        let to = match (from, event) {
            (Shed::Offered(planned), ShedEvent::Accept { vm, receiver }) if planned == vm => {
                take_for_migration(host, stats, vm).map(|vm| Shed::Sent { vm, receiver })
            }
            (Shed::Offered(_), ShedEvent::NoReceiver) => None,
            (Shed::Sent { .. }, ShedEvent::Ack | ShedEvent::RollBack) => None,
            _ => {
                stats.invalid_payloads += 1;
                return None;
            }
        };
        match to {
            Some(next) => self.sheds.insert(query, next),
            None => self.sheds.remove(&query),
        };
        host.lendable_moved = true;
        Some(from)
    }

    /// The shuffle's direct messages: an accept for a query of ours, a
    /// migrating VM arriving, or the ack for one we sent.
    pub fn on_direct(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        msg: CtrlMsg,
    ) {
        match msg {
            CtrlMsg::LoadAccept {
                query,
                vm,
                receiver,
            } => {
                // If the accept matches what was offered and the VM may
                // still leave, the migration starts.
                let left = self.step(host, stats, query, ShedEvent::Accept { vm, receiver });
                let (Some(_), Some(&Shed::Sent { vm, receiver })) = (left, self.sheds.get(&query))
                else {
                    return;
                };
                stats.migrations_out += 1;
                host.event(&MIGRATE_OUT, vm.id.0, receiver.actor.index() as u64);
                stats.migration_times.push(ctx.now());
                let timeout = self.courier.register(query);
                self.send_migrate(ctx, query, vm, receiver, timeout);
            }
            // Retries and duplicated packets can deliver the same transfer
            // more than once; install the VM exactly once but always
            // re-ack — the earlier ack may have been the casualty.
            CtrlMsg::Migrate { query, vm, from } => {
                host.holds.retain(|h| h.query != query);
                if !host.hosts(vm.id) {
                    host.install(*vm);
                    stats.migrations_in += 1;
                }
                ctx.send_client(from, CtrlMsg::MigrateAck { query });
            }
            CtrlMsg::MigrateAck { query } => {
                self.courier.ack(query);
                self.step(host, stats, query, ShedEvent::Ack);
            }
            _ => {}
        }
    }

    /// Sends (or resends) an in-flight VM and arms its ack timeout.
    fn send_migrate(
        &mut self,
        ctx: &mut Ctx<'_, '_, '_, '_>,
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
            MIGRATION_DELAY,
        );
        ctx.schedule(timeout, MIGRATE_RETRY_TAG_BASE | query);
    }

    /// The ack timeout for `query` fired. Resend with backed-off timeout,
    /// or — once the courier's budget is spent — declare the migration
    /// failed and take the VM back.
    pub fn on_retry(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        query: u64,
    ) {
        match self.courier.on_timeout(query) {
            RetryDecision::Settled => {} // acked (or rolled back) in the meantime
            RetryDecision::GiveUp => self.roll_back(host, stats, query),
            RetryDecision::Retry { timeout } => match self.sheds.get(&query) {
                Some(&Shed::Sent { vm, receiver }) => {
                    self.send_migrate(ctx, query, vm, receiver, timeout)
                }
                _ => self.courier.forget(query),
            },
        }
    }

    /// One of the shuffle's direct messages bounced off a dead host.
    pub fn on_bounce(&mut self, host: &mut Host, stats: &mut ControllerStats, msg: CtrlMsg) {
        match msg {
            // The receiver died mid-migration: the VM comes back home
            // right away (no point retrying into a dead host).
            CtrlMsg::Migrate { query, .. } => {
                self.courier.forget(query);
                self.roll_back(host, stats, query);
            }
            // The shedder died after we accepted: release the hold.
            CtrlMsg::LoadAccept { query, .. } => host.holds.retain(|h| h.query != query),
            _ => {}
        }
    }

    /// Ends a `Sent` query without an ack: the migration failed and the VM
    /// is reinstalled here.
    fn roll_back(&mut self, host: &mut Host, stats: &mut ControllerStats, query: u64) {
        if let Some(Shed::Sent { vm, .. }) = self.step(host, stats, query, ShedEvent::RollBack) {
            stats.migrations_failed += 1;
            if !host.hosts(vm.id) {
                host.install(vm);
                stats.migrations_out = stats.migrations_out.saturating_sub(1);
            }
        }
    }

    /// The anycast for `q` found no receiver: back off on its VM so the
    /// next rounds offer other (smaller) VMs instead.
    pub fn on_no_receiver(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        now: SimTime,
        q: &LoadQuery,
    ) {
        stats.anycast_failures += 1;
        self.step(host, stats, q.query, ShedEvent::NoReceiver);
        self.cooldown
            .start(q.vm.id, now + host.config.rebalance_interval * 2);
    }

    /// The crash purged every timer: re-arm the ack timeout of every
    /// migration still in flight, so each of those transfers is eventually
    /// acked, retried or rolled back. `schedule(after, tag)` arms one
    /// timer.
    pub fn rearm(&mut self, mut schedule: impl FnMut(SimDuration, u64)) {
        for (query, stage) in self.sheds.iter() {
            if matches!(stage, Shed::Sent { .. }) {
                // arm() re-covers the current attempt without burning a retry.
                let timeout = self.courier.arm(query);
                schedule(timeout, MIGRATE_RETRY_TAG_BASE | query);
            }
        }
    }
}

/// The gates between an accepted offer and the VM leaving: the VM must
/// still be here, must not have been leased since the shed was planned
/// (the migration would strand the live half), and — with the cost-benefit
/// module on — must be worth moving. Removes and returns the record when
/// the VM goes.
fn take_for_migration(host: &mut Host, stats: &mut ControllerStats, vm: VmId) -> Option<VmRecord> {
    // VM already moved: the receiver's hold will expire.
    let pos = host.vms.iter().position(|v| v.id == vm)?;
    if host.book.vm_involved(vm) {
        stats.sheds_lease_blocked.inc();
        host.event(&MIGRATE_LEASE_BLOCKED, vm.0, 0);
        return None;
    }
    if host.config.cost_benefit && !migration_worthwhile(host, &host.vms[pos]) {
        stats.migrations_gated += 1;
        return None;
    }
    Some(host.evict(pos))
}

/// The predictive cost-benefit module (§VII future work): compares the
/// bandwidth-deficit relief expected over one rebalancing interval
/// against the migration's own transfer volume.
fn migration_worthwhile(host: &Host, vm: &VmRecord) -> bool {
    let deficit = host
        .bw_demand()
        .saturating_sub(host.capacity.bandwidth)
        .min(vm.effective_bw_demand());
    let benefit_mbit = deficit.as_mbps() * host.config.rebalance_interval.as_secs_f64();
    // Live migration transfers roughly the VM's memory footprint.
    let mem_mb = vm.spec.limit.memory_mb.max(vm.demand.memory_mb);
    let cost_mbit = mem_mb * 8.0;
    benefit_mbit > cost_mbit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{controller, vm};
    use crate::controller::Controller;
    use crate::{ResourceSpec, ResourceVector};
    use vbundle_aggregation::AggregationConfig;
    use vbundle_dcn::Bandwidth;
    use vbundle_pastry::Id;
    use vbundle_sim::ActorId;

    fn check(c: &Controller, vm: &VmRecord, mean: f64) -> bool {
        c.shuffle.receiver_check(&c.host, vm, mean)
    }

    #[test]
    fn receiver_check_requires_reservation_fit() {
        let mut c = controller(0.5);
        c.install_vm(vm(1, 900.0, 1000.0, 0.0));
        // Reservation 200 does not fit next to 900 on a 1000 NIC.
        assert!(!check(&c, &vm(2, 200.0, 200.0, 10.0), 0.5));
        // Reservation 50 fits and utilization is tiny.
        assert!(check(&c, &vm(3, 50.0, 50.0, 10.0), 0.5));
    }

    #[test]
    fn receiver_check_enforces_oscillation_guard() {
        let mut c = controller(0.1);
        c.install_vm(vm(1, 0.0, 1000.0, 500.0)); // util 0.5
                                                 // mean 0.5 + θ 0.1 = 0.6: a 200 Mbps demand would hit 0.7.
        assert!(!check(&c, &vm(2, 0.0, 1000.0, 200.0), 0.5));
        // 50 Mbps stays at 0.55 ≤ 0.6.
        assert!(check(&c, &vm(3, 0.0, 1000.0, 50.0), 0.5));
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
        assert!(check(&c, &vm(2, 0.0, 1000.0, 400.0), 0.5));
    }

    #[test]
    fn cost_benefit_gates_small_deficits() {
        let cost_benefit = || {
            Controller::new(
                ResourceVector::new(4.0, 16_384.0, Bandwidth::from_gbps(1.0)),
                AggregationConfig::default(),
                VBundleConfig::default().with_cost_benefit(true),
            )
        };
        let mut c = cost_benefit();
        // Tiny deficit (1020 demand on 1000 NIC), giant memory footprint.
        let mut heavy = vm(1, 0.0, 1000.0, 1020.0);
        heavy.spec = ResourceSpec::new(
            ResourceVector::ZERO,
            ResourceVector::new(1.0, 8_000_000.0, Bandwidth::from_gbps(1.0)),
        );
        c.install_vm(heavy);
        assert!(!migration_worthwhile(&c.host, &c.vms()[0]));
        // Large deficit, small footprint: worthwhile.
        let mut c2 = cost_benefit();
        let mut light = vm(2, 0.0, 1000.0, 900.0);
        light.spec = ResourceSpec::new(
            ResourceVector::ZERO,
            ResourceVector::new(1.0, 512.0, Bandwidth::from_gbps(1.0)),
        );
        c2.install_vm(light);
        c2.install_vm(vm(3, 0.0, 1000.0, 600.0));
        assert!(migration_worthwhile(&c2.host, &c2.vms()[0]));
    }

    #[test]
    fn hold_expiry_is_exclusive_at_the_boundary() {
        let mut c = controller(0.15);
        let expires = SimTime::ZERO + SimDuration::from_mins(10);
        c.host.holds.push(Hold {
            query: 1,
            vm: vm(1, 100.0, 100.0, 100.0),
            expires,
        });
        // Any instant strictly before `expires`: still held.
        c.host.expire_holds(expires - SimDuration::from_micros(1));
        assert_eq!(c.reserved().bandwidth.as_mbps(), 100.0);
        // At `expires` itself the reservation is already released, so an
        // accept arriving in that very tick is not double-charged.
        c.host.expire_holds(expires);
        assert_eq!(c.reserved().bandwidth.as_mbps(), 0.0);
    }

    /// Two shedders shed into one receiver: the first VM to arrive releases
    /// only its own hold (numbered per shedder, both queries were 0).
    #[test]
    fn a_migrate_releases_only_its_own_hold() {
        let topo = vbundle_dcn::Topology::builder().racks_per_pod(1).build(); // 4 servers
        let config = VBundleConfig::default().with_update_interval(SimDuration::from_secs(10));
        let mut cluster = crate::Cluster::builder(topo.into()).vbundle(config).build();
        // 100 Mbps VMs `server × 100 + i`: shedders 0 and 1 at 0.9, server 2
        // just above the mean of 0.65, and the one receiver, 3, at 0.1.
        for (server, vms) in [(0u64, 9), (1, 9), (2, 7), (3, 1)] {
            for i in 0..vms {
                let sid = cluster.topo.server(server as usize);
                cluster.install_vm(sid, vm(server * 100 + i, 0.0, 1000.0, 100.0));
            }
        }
        cluster.reindex();
        let mut most = 0;
        while cluster.controller(3).stats.migrations_in == 0 {
            assert!(cluster.engine.step(), "no VM migrated");
            let holds = &cluster.controller(3).host.holds;
            let held_for = |s| holds.iter().any(|h| h.vm.id.0 / 100 == s);
            if held_for(0) && held_for(1) {
                most = most.max(holds.len());
            }
        }
        assert!(most >= 2, "the receiver never held for both shedders");
        let left = cluster.controller(3).host.holds.len();
        assert_eq!(left, most - 1, "a Migrate released another hold");
    }

    /// Every (stage, event) pair of a shed query: a legal pair moves the
    /// row to the stated stage (`None` = the query is over), an illegal one
    /// leaves the row alone and counts one invalid payload. This covers the
    /// forged `LoadAccept` that names a VM other than the one offered: the
    /// VM stays, nothing migrates.
    #[test]
    fn shed_stage_table() {
        let receiver = NodeHandle::new(Id::from_u128(7), ActorId::new(7));
        let (here, gone) = (vm(1, 100.0, 200.0, 150.0), vm(2, 100.0, 200.0, 150.0));
        let offered = Shed::Offered(here.id);
        let sent = Shed::Sent { vm: gone, receiver };
        let accept = |vm: VmId| ShedEvent::Accept { vm, receiver };
        let moved_here = Shed::Sent { vm: here, receiver };
        use ShedEvent::{Ack, NoReceiver, RollBack};
        let table = [
            (offered, accept(here.id), Ok(Some(moved_here))),
            (offered, accept(gone.id), Err(())),
            (offered, NoReceiver, Ok(None)),
            (offered, Ack, Err(())),
            (offered, RollBack, Err(())),
            (sent, accept(gone.id), Err(())),
            (sent, accept(here.id), Err(())),
            (sent, NoReceiver, Err(())),
            (sent, Ack, Ok(None)),
            (sent, RollBack, Ok(None)),
        ];
        for (stage, event, expected) in table {
            let mut c = controller(0.15);
            c.install_vm(here);
            c.shuffle.sheds.insert(5, stage);
            let left = c.shuffle.step(&mut c.host, &mut c.stats, 5, event);
            let case = format!("{stage:?} + {event:?}");
            match expected {
                Ok(to) => {
                    assert_eq!(left, Some(stage), "{case}");
                    assert_eq!(c.shuffle.sheds.get(&5).copied(), to, "{case}");
                    assert_eq!(c.stats.invalid_payloads, 0, "{case}");
                    assert_eq!(c.host.hosts(here.id), to != Some(moved_here), "{case}");
                }
                Err(()) => {
                    assert_eq!(left, None, "{case}");
                    assert_eq!(c.shuffle.sheds.get(&5), Some(&stage), "{case}");
                    assert_eq!(c.stats.invalid_payloads, 1, "{case}");
                    assert!(c.host.hosts(here.id), "{case}");
                }
            }
            // A query this server never issued (or already closed) is
            // stale: ignored, not counted.
            let counted = c.stats.invalid_payloads;
            assert_eq!(c.shuffle.step(&mut c.host, &mut c.stats, 6, event), None);
            assert_eq!(c.stats.invalid_payloads, counted, "{case}");
        }
    }
}

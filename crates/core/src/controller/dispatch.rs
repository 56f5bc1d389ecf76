//! The controller as a Scribe client: every upcall is forwarded to the
//! protocol module that owns the message variant or timer tag. What is
//! handled here directly is what belongs to no single module — the update
//! tick's sequencing, aggregation plumbing, the poison screen, and the
//! fence that drops a VM from every module at once.

use rand::Rng;
use vbundle_aggregation::{AggMsg, AGG_TICK_TAG};
use vbundle_obs::Kind;
use vbundle_pastry::NodeHandle;
use vbundle_scribe::{GroupId, ScribeClient, Summary};
use vbundle_sim::{ActorId, SimDuration, SimTime};

use super::boot::{self, Admission};
use super::trade;
use super::{
    capacity_topic, demand_topic, less_loaded_group, Controller, Ctx, FAILOVER_TAG,
    MIGRATE_RETRY_TAG_BASE, REBALANCE_TAG, TRADE_RETRY_TAG_BASE, UPDATE_TAG,
};
use crate::message::{BootQuery, CtrlMsg};
use crate::VmId;

// Flight records of a fence arriving at a stale primary.
const FO_LEASE_REVERT: Kind = Kind::new("fo-lease-revert", "leases", "vm");
const FO_FENCE: Kind = Kind::new("fo-fence", "dropped", "by");

impl Controller {
    /// One hop of a boot walk on this server.
    fn boot(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, q: Box<BootQuery>) {
        let mut adm = Admission {
            host: &mut self.host,
            stats: &mut self.stats,
            surv: &mut self.surv,
        };
        boot::handle(&mut adm, ctx, q);
    }

    /// Arms the periodic ticks, with a small deterministic stagger so 3000
    /// servers do not tick in lockstep.
    fn arm_ticks(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        let config = &self.host.config;
        let jitter_cap = (config.update_interval.as_micros() / 10).max(1);
        let jitter = SimDuration::from_micros(ctx.rng().gen_range(0..jitter_cap));
        ctx.schedule(config.update_interval + jitter, UPDATE_TAG);
        ctx.schedule(config.rebalance_interval + jitter, REBALANCE_TAG);
        if let Some(fo) = &self.failover {
            fo.arm_tick(ctx);
        }
    }

    /// The update tick: publish this server's samples, re-read the cluster
    /// means through the gate, re-classify, then let trading run its pass.
    fn update_tick(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        let (host, stats) = (&mut self.host, &mut self.stats);
        host.expire_holds(ctx.now());
        for &kind in host.active_kinds() {
            let (demand, capacity) = (host.demand_for(kind), host.capacity.get(kind));
            host.agg.set_local(ctx, demand_topic(kind), demand);
            host.agg.set_local(ctx, capacity_topic(kind), capacity);
        }
        self.shuffle.sample_means(host, stats);
        self.shuffle.classify(host, ctx);
        if let Some(trade) = &mut self.trade {
            trade.tick(host, ctx);
        }
        ctx.schedule(host.config.update_interval, UPDATE_TAG);
    }

    /// Has Scribe re-read the trade trees' anycast summaries if what this
    /// server could lend has moved since they were last computed, so that
    /// a parent that believes too little hears now, not with the next
    /// probe. Every upcall that can move it ends here.
    pub fn announce(&self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        if let Some(trade) = self.trade.as_ref().filter(|_| self.host.lendable_moved) {
            trade.announce(ctx);
        }
    }

    /// A fence arrived from a backup site: this server's copies of
    /// `vms` are stale — they were re-materialized elsewhere while this
    /// rack was declared dead. Drop them, reverting their leases
    /// through the peers first, and ack so the re-materialized copy is
    /// the only one left.
    fn apply_fence(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, from: NodeHandle, vms: Vec<VmId>) {
        let mut dropped = 0u64;
        for &vm in &vms {
            if self.host.hosts(vm) {
                let leases = self.host.book.ids_involving(vm).len() as u64;
                if leases > 0 {
                    self.stats.counters.fo_lease_reverts.add(leases);
                    self.host.event(&FO_LEASE_REVERT, leases, vm.0);
                }
                self.release_vm_leases(ctx, vm);
                self.remove_vm(vm);
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.host
                .event(&FO_FENCE, dropped, from.actor.index() as u64);
        }
        ctx.send_client(from, CtrlMsg::FoFenceAck { vms });
    }
}

impl ScribeClient for Controller {
    type Msg = CtrlMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        for &kind in self.host.active_kinds() {
            self.host.agg.subscribe(ctx, capacity_topic(kind));
            self.host.agg.subscribe(ctx, demand_topic(kind));
        }
        self.arm_ticks(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        // The crash purged every timer this controller had armed; re-arm
        // the periodic ticks and every per-operation ack timeout.
        self.host.agg.on_restart(ctx);
        self.arm_ticks(ctx);
        self.shuffle.rearm(|after, tag| ctx.schedule(after, tag));
        if let Some(trade) = &mut self.trade {
            trade.rearm(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, tag: u64) {
        self.host.clock = ctx.now();
        let (host, stats) = (&mut self.host, &mut self.stats);
        match tag {
            AGG_TICK_TAG => host.agg.on_tick(ctx),
            UPDATE_TAG => self.update_tick(ctx),
            REBALANCE_TAG => {
                self.shuffle.rebalance(host, stats, ctx);
                ctx.schedule(host.config.rebalance_interval, REBALANCE_TAG);
            }
            FAILOVER_TAG => {
                if let Some(fo) = &mut self.failover {
                    let mut adm = Admission {
                        host,
                        stats,
                        surv: &mut self.surv,
                    };
                    fo.tick(&mut adm, ctx);
                }
            }
            t if t >= MIGRATE_RETRY_TAG_BASE => {
                let query = t & !MIGRATE_RETRY_TAG_BASE;
                self.shuffle.on_retry(host, stats, ctx, query);
            }
            t if t >= TRADE_RETRY_TAG_BASE => {
                if let Some(trade) = &mut self.trade {
                    trade.on_retry(host, ctx, t & !TRADE_RETRY_TAG_BASE);
                }
            }
            _ => {}
        }
        self.announce(ctx);
    }

    /// The poison screen: when the aggregator runs defensively, inbound
    /// aggregation reports are range-checked *before* Scribe processes
    /// them, so a blatantly corrupted value is dropped at the door instead
    /// of entering the combine. Under `TrustAll` everything passes — that
    /// is the ablation the poison bench measures against.
    fn validate_payload(&mut self, msg: &CtrlMsg) -> bool {
        let valid = match msg {
            // Trade payloads get an unconditional (cheap, deterministic)
            // sanity screen: an insane amount could only corrupt the
            // ledger.
            CtrlMsg::Borrow(q) => q.amount.is_sane(),
            CtrlMsg::BorrowGrant { lease } => {
                lease.amount.is_sane() && lease.price.is_finite() && lease.price >= 0.0
            }
            CtrlMsg::Agg(AggMsg::Update { value, .. } | AggMsg::Result { value, .. }) => {
                self.host.agg.config().robustness.check(value).is_ok()
            }
            _ => true,
        };
        if !valid {
            self.stats.invalid_payloads += 1;
        }
        valid
    }

    fn deliver_multicast(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, _group: GroupId, msg: CtrlMsg) {
        if let CtrlMsg::Agg(AggMsg::Result {
            topic,
            root,
            version,
            value,
        }) = msg
        {
            self.host
                .agg
                .on_result(topic, root, version, value, ctx.now());
        }
    }

    fn on_direct(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, from: NodeHandle, msg: CtrlMsg) {
        self.host.clock = ctx.now();
        let (host, stats) = (&mut self.host, &mut self.stats);
        match msg {
            CtrlMsg::Agg(AggMsg::Update { topic, value }) => {
                host.agg.on_update(ctx, from, topic, value);
            }
            // Load queries and borrow requests only arrive via anycast.
            CtrlMsg::Agg(_) | CtrlMsg::Load(_) | CtrlMsg::Borrow(_) => {}
            CtrlMsg::Boot(q) => self.boot(ctx, q),
            // A failover-flagged result is a backup site's own
            // re-materialization, not a tenant boot.
            CtrlMsg::BootResult {
                request,
                vm,
                host,
                failover: false,
            } => {
                // A duplicated (or re-acked) result must not double-count.
                if !stats.boot_results.iter().any(|(r, ..)| *r == request) {
                    stats.boot_results.push((request, vm, host));
                }
            }
            CtrlMsg::LoadAccept { .. } | CtrlMsg::Migrate { .. } | CtrlMsg::MigrateAck { .. } => {
                self.shuffle.on_direct(host, stats, ctx, msg)
            }
            CtrlMsg::BorrowGrant { .. }
            | CtrlMsg::LeaseAck { .. }
            | CtrlMsg::LeaseRenew { .. }
            | CtrlMsg::LeaseRelease { .. } => {
                if let Some(trade) = &mut self.trade {
                    trade.on_direct(host, ctx, from, msg);
                }
            }
            CtrlMsg::SurvCommit {
                customer,
                rack,
                pod,
                op,
            } => {
                if let Some(surv) = &mut self.surv {
                    surv.commit(customer, op, rack, pod, from);
                }
            }
            // Best-effort: the backup is carved out only when it fits, and
            // at most once per VM.
            CtrlMsg::BackupReserve {
                vm,
                primary,
                amount,
            } => {
                let carved = match (&mut self.failover, &mut self.surv) {
                    (Some(fo), _) => fo.arm(host, stats, *vm, primary, amount),
                    (None, Some(surv)) => {
                        surv.carved.insert(vm.id, ()).is_none() && host.carve_backup(amount)
                    }
                    (None, None) => false,
                };
                stats.backups_reserved += u64::from(carved);
            }
            CtrlMsg::FoFence { vms } => {
                if self.failover.is_some() {
                    self.apply_fence(ctx, from, vms);
                }
            }
            CtrlMsg::BootResult { .. }
            | CtrlMsg::FoProbe { .. }
            | CtrlMsg::FoProbeAck { .. }
            | CtrlMsg::FoFenceAck { .. } => {
                if let Some(fo) = &mut self.failover {
                    fo.on_direct(host, stats, ctx, from, msg);
                }
            }
        }
        self.announce(ctx);
    }

    fn deliver_routed(
        &mut self,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        _key: vbundle_pastry::Key,
        msg: CtrlMsg,
        _origin: NodeHandle,
    ) {
        if let CtrlMsg::Boot(q) = msg {
            self.boot(ctx, q);
            self.announce(ctx);
        }
    }

    fn anycast_accept(
        &mut self,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        group: GroupId,
        msg: &CtrlMsg,
        _origin: NodeHandle,
    ) -> bool {
        self.host.clock = ctx.now();
        // Neither answer lets this server lend more: a grant debits it, a
        // hold does not touch the lease book. Nothing to announce.
        match msg {
            CtrlMsg::Borrow(q) => match &mut self.trade {
                Some(trade) => {
                    let shuffle = &self.shuffle;
                    trade.lend(&mut self.host, ctx, group, q, |vm| shuffle.offered(vm))
                }
                None => false,
            },
            CtrlMsg::Load(q) if group == less_loaded_group() => {
                self.shuffle
                    .on_query(&mut self.host, &mut self.stats, ctx, q)
            }
            _ => false,
        }
    }

    /// The two trade trees summarize what `Trade::lend` would
    /// accept; the Less-Loaded and aggregation trees make no claim.
    fn anycast_summary(&mut self, group: GroupId, now: SimTime, until: SimTime) -> Option<Summary> {
        let shuffle = &self.shuffle;
        let mid_shed = |vm| shuffle.offered(vm);
        self.trade
            .as_mut()?
            .summary(&mut self.host, group, now, until, mid_shed)
    }

    fn summary_join(a: Summary, b: Summary) -> Summary {
        trade::summary_join(a, b)
    }

    fn summary_admits(summary: Summary, msg: &CtrlMsg) -> bool {
        match msg {
            CtrlMsg::Borrow(q) => trade::summary_admits(summary, q),
            _ => true,
        }
    }

    fn anycast_failed(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, _group: GroupId, msg: CtrlMsg) {
        if let CtrlMsg::Load(q) = msg {
            self.shuffle
                .on_no_receiver(&mut self.host, &mut self.stats, ctx.now(), &q);
            self.announce(ctx);
        }
    }

    fn on_child_removed(
        &mut self,
        _ctx: &mut Ctx<'_, '_, '_, '_>,
        group: GroupId,
        child: NodeHandle,
    ) {
        self.host.agg.on_child_removed(group, child);
    }

    fn on_send_failure(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, to: ActorId, msg: CtrlMsg) {
        match msg {
            CtrlMsg::Migrate { .. } | CtrlMsg::LoadAccept { .. } => {
                self.shuffle.on_bounce(&mut self.host, &mut self.stats, msg)
            }
            // A boot hop died: continue the walk without it.
            CtrlMsg::Boot(mut q) => {
                boot::mark_bounced(&mut q.visited, to);
                self.boot(ctx, q);
            }
            CtrlMsg::BorrowGrant { .. } | CtrlMsg::LeaseRenew { .. } => {
                if let Some(trade) = &mut self.trade {
                    trade.on_bounce(&mut self.host, msg);
                }
            }
            CtrlMsg::FoProbe { .. } => {
                if let Some(fo) = &mut self.failover {
                    fo.mark_dead(to);
                }
            }
            // The chosen backup site died before the charge landed.
            CtrlMsg::BackupReserve { .. } => self.stats.backups_unplaced += 1,
            _ => {}
        }
        self.announce(ctx);
    }

    fn on_node_failed(&mut self, ctx: &mut Ctx<'_, '_, '_, '_>, failed: NodeHandle) {
        if let Some(trade) = &mut self.trade {
            trade.on_peer_failed(&mut self.host, failed);
        }
        if let Some(fo) = &mut self.failover {
            fo.mark_dead(failed.actor);
        }
        self.announce(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::controller;
    use crate::message::BorrowRequest;
    use crate::{bw_demand_topic, CustomerId, ResourceVector, VBundleConfig};
    use vbundle_aggregation::{AggValue, AggregationConfig, Robustness};
    use vbundle_dcn::Bandwidth;

    #[test]
    fn validate_payload_screens_poison_under_defensive() {
        let defensive = AggregationConfig {
            robustness: Robustness::Defensive,
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
}

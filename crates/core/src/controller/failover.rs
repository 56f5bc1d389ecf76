//! Backup-activated failover: a server holding protection charges probes
//! the racks it protects, declares a rack dead once every known member
//! has standing death evidence, re-materializes the rack's VMs through
//! the ordinary boot path and fences the stale primaries. Present only
//! when `VBundleConfig::failover` is set.
//!
//! Owns `CtrlMsg::{FoProbe, FoProbeAck, FoFenceAck}`, the receiving side
//! of `CtrlMsg::BackupReserve` with failover on, the `FAILOVER_TAG` tick
//! and the results of its own boots (`BootResult::failover`).
//! (`FoFence` is applied by the controller itself: dropping a VM touches
//! every module.)
//!
//! One protected VM is one row of `Failover::charges`:
//!
//! ```text
//!   BackupReserve ──► Armed ──rack declared──► Booting ──placed──► done
//!   (carve fits)                                  │   ▲
//!                                        rejected ▼   │ next tick
//!                                                Retry
//! ```
//!
//! with the fence for its stale primary pending alongside in
//! `Failover::fences` from the declaration until the primary acks. Every
//! other (stage, event) pair is illegal: counted into `invalid_payloads`
//! and dropped by `Failover::step`.

use vbundle_dcn::{DomainKind, Topology};
use vbundle_fdetect::DomainSuspicion;
use vbundle_obs::Kind;
use vbundle_pastry::NodeHandle;
use vbundle_sim::{ActorId, FlatMap};

use super::boot::{self, Admission};
use super::host::Host;
use super::stats::ControllerStats;
use super::{Ctx, FAILOVER_TAG};
use crate::config::FailoverConfig;
use crate::message::{BootQuery, CtrlMsg, Visited};
use crate::{ResourceVector, VmId, VmRecord};

// Flight records of a backup site: a rack declared dead, a VM restored.
const FO_DOMAIN_DEAD: Kind = Kind::new("fo-domain-dead", "rack", "");
const FO_REMATERIALIZE: Kind = Kind::new("fo-rematerialize", "vm", "onto");

/// The stage of one protection charge.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FoStage {
    /// `amount` of backup headroom is reserved; the primary's rack is
    /// being probed.
    Armed { amount: ResourceVector },
    /// The rack was declared dead and boot `request` is re-materializing
    /// the VM.
    Booting { request: u64 },
    /// The boot came back rejected; it is re-issued next failover tick.
    Retry,
}

/// One VM this site protects: enough to re-materialize it when the
/// primary's rack is declared dead.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Charge {
    vm: VmRecord,
    primary: NodeHandle,
    stage: FoStage,
}

/// What can happen to a charge once it is armed.
#[derive(Debug, Clone, Copy)]
enum FoEvent {
    /// Boot `request` was issued for the VM.
    Boot { request: u64 },
    /// Boot `request` found the VM a host.
    Placed { request: u64 },
    /// Boot `request` found no host.
    Rejected { request: u64 },
}

/// A fence pending ack on a stale primary: the VMs re-materialized away
/// from it that it must drop if (when) it comes back. Resent every
/// failover tick until acked, so even a primary restarting long after
/// the declaration reconciles.
#[derive(Debug, Clone)]
struct Fence {
    primary: NodeHandle,
    vms: FlatMap<VmId, ()>,
}

#[derive(Debug)]
pub(super) struct Failover {
    cfg: FailoverConfig,
    /// Protected VMs by id, so declaration walks and retries run in
    /// deterministic order.
    charges: FlatMap<VmId, Charge>,
    /// Fences pending ack, keyed by the stale primary's actor index.
    fences: FlatMap<u32, Fence>,
    /// Per-server death evidence folded into sticky rack declarations.
    suspicion: DomainSuspicion,
    /// Known handles of servers in protected racks (probe targets),
    /// keyed by actor index.
    handles: FlatMap<u32, NodeHandle>,
}

/// The rack index behind an actor, if it maps to a server of the
/// topology.
fn rack_of(topo: &Topology, actor: ActorId) -> Option<u32> {
    (actor.index() < topo.num_servers())
        .then(|| topo.rack_of(topo.server(actor.index())).index() as u32)
}

impl Failover {
    pub fn new(cfg: FailoverConfig) -> Self {
        Failover {
            cfg,
            charges: FlatMap::new(),
            fences: FlatMap::new(),
            suspicion: DomainSuspicion::new(),
            handles: FlatMap::new(),
        }
    }

    /// Arms the periodic failover tick.
    pub fn arm_tick(&self, ctx: &mut Ctx<'_, '_, '_, '_>) {
        ctx.schedule(self.cfg.probe_interval, FAILOVER_TAG);
    }

    /// The VMs whose backup headroom is still reserved here.
    pub fn protected_vms(&self) -> Vec<VmId> {
        self.charges
            .values()
            .filter(|c| matches!(c.stage, FoStage::Armed { .. }))
            .map(|c| c.vm.id)
            .collect()
    }

    /// VMs re-materialized whose stale primary has not yet acknowledged
    /// its fence.
    pub fn fenced_vms(&self) -> Vec<VmId> {
        self.fences
            .values()
            .flat_map(|f| f.vms.keys().copied())
            .collect()
    }

    /// Registers a protection charge: reserves `amount` as backup
    /// headroom and remembers `vm`/`primary` so a declared death of the
    /// primary's rack re-materializes the VM here. The carve is idempotent
    /// per VM: a second charge for a VM that already has a row — a
    /// twice-delivered `BackupReserve` — is counted into
    /// `invalid_payloads` and carves nothing. Returns whether the charge
    /// is now armed (false: duplicate, or no room).
    pub fn arm(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        vm: VmRecord,
        primary: NodeHandle,
        amount: ResourceVector,
    ) -> bool {
        if self.charges.contains_key(&vm.id) {
            stats.invalid_payloads += 1;
            return false;
        }
        let armed = host.carve_backup(amount);
        if armed {
            self.handles.insert(primary.actor.index() as u32, primary);
            let stage = FoStage::Armed { amount };
            self.charges.insert(vm.id, Charge { vm, primary, stage });
        }
        armed
    }

    /// The single writer of an armed charge's stage: applies `event` to
    /// `vm`'s row and returns the charge as it was. `None` means nothing
    /// moved: either the VM has no charge (any more) — the result of a
    /// boot long settled, ignored — or the event is not legal in the row's
    /// stage, which is counted into `invalid_payloads`.
    fn step(&mut self, stats: &mut ControllerStats, vm: VmId, event: FoEvent) -> Option<Charge> {
        let from = *self.charges.get(&vm)?;
        let to = match (from.stage, event) {
            (FoStage::Armed { .. } | FoStage::Retry, FoEvent::Boot { request }) => {
                Some(FoStage::Booting { request })
            }
            (FoStage::Booting { request: r }, FoEvent::Placed { request }) if r == request => None,
            (FoStage::Booting { request: r }, FoEvent::Rejected { request }) if r == request => {
                Some(FoStage::Retry)
            }
            _ => {
                stats.invalid_payloads += 1;
                return None;
            }
        };
        match to {
            Some(stage) => self.charges.insert(vm, Charge { stage, ..from }),
            None => self.charges.remove(&vm),
        };
        Some(from)
    }

    /// The failover tick: refresh probe targets, probe every protected
    /// rack, declare racks whose every known member has standing death
    /// evidence, resend pending fences, re-issue rejected
    /// re-materializations, and retract declarations that have fully
    /// reconciled. `adm` is what the local first hop of a
    /// re-materialization boot works on.
    pub fn tick(&mut self, adm: &mut Admission<'_>, ctx: &mut Ctx<'_, '_, '_, '_>) {
        let me = ctx.self_handle();
        let topo = ctx.pastry_state().topology().clone();
        let mut racks: Vec<u32> = self
            .charges
            .values()
            .filter(|c| matches!(c.stage, FoStage::Armed { .. }))
            .filter_map(|c| rack_of(&topo, c.primary.actor))
            .collect();
        racks.sort_unstable();
        racks.dedup();
        // Refresh the probe-target cache from the overlay's current
        // view: every known node in a protected rack is a probe target,
        // so a declaration needs the *whole rack* silent, not just the
        // charge primaries.
        for h in ctx.pastry_state().known_iter() {
            if rack_of(&topo, h.actor).is_some_and(|r| racks.binary_search(&r).is_ok()) {
                self.handles.insert(h.actor.index() as u32, h);
            }
        }
        for &rack in &racks {
            if self.suspicion.is_declared(rack) {
                continue;
            }
            let members: Vec<NodeHandle> = self
                .handles
                .values()
                .filter(|h| rack_of(&topo, h.actor) == Some(rack))
                .copied()
                .collect();
            // Evidence check first: probes sent this tick answer (or
            // bounce) well before the next one, so a declaration always
            // rests on at least one full probe round.
            if self
                .suspicion
                .declare(rack, members.iter().map(|h| h.actor.index() as u64))
            {
                self.on_rack_declared(adm, ctx, rack, &topo);
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
            adm.stats.counters.fo_fences_sent.inc();
            ctx.send_client(
                fence.primary,
                CtrlMsg::FoFence {
                    vms: fence.vms.keys().copied().collect(),
                },
            );
        }
        // Re-issue rejected re-materializations.
        let retries: Vec<VmId> = self
            .charges
            .values()
            .filter(|c| c.stage == FoStage::Retry)
            .map(|c| c.vm.id)
            .collect();
        for vm in retries {
            self.issue_boot(adm, ctx, vm, &topo);
        }
        // Retract declarations whose failover has fully reconciled, so a
        // future crash of the (restarted, re-protected) rack starts from
        // fresh evidence instead of being masked by the sticky verdict.
        let declared: Vec<u32> = self.suspicion.declared().collect();
        for rack in declared {
            let busy = self
                .charges
                .values()
                .any(|c| rack_of(&topo, c.primary.actor) == Some(rack))
                || self
                    .fences
                    .values()
                    .any(|f| rack_of(&topo, f.primary.actor) == Some(rack));
            if !busy {
                self.suspicion.retract(rack);
            }
        }
        self.arm_tick(ctx);
    }

    /// A protected rack was declared dead: convert every armed charge
    /// whose primary lived there into a live re-materialization, fence
    /// the stale primary, and release the backing headroom. The
    /// key-ordered walk makes repeated and overlapping declarations
    /// deterministic; each charge leaves `Armed` exactly once, so a VM can
    /// never be materialized twice.
    fn on_rack_declared(
        &mut self,
        adm: &mut Admission<'_>,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        rack: u32,
        topo: &Topology,
    ) {
        adm.stats.counters.fo_domains_declared.inc();
        adm.host.event(&FO_DOMAIN_DEAD, u64::from(rack), 0);
        let victims: Vec<(VmId, NodeHandle, ResourceVector)> = self
            .charges
            .values()
            .filter(|c| rack_of(topo, c.primary.actor) == Some(rack))
            .filter_map(|c| match c.stage {
                FoStage::Armed { amount } => Some((c.vm.id, c.primary, amount)),
                _ => None,
            })
            .collect();
        for (vm, primary, amount) in victims {
            adm.host.release_backup(amount);
            self.fences
                .get_or_insert_with(primary.actor.index() as u32, || Fence {
                    primary,
                    vms: FlatMap::new(),
                })
                .vms
                .insert(vm, ());
            // First fence attempt right away: if the primary is racing a
            // restart it reconciles immediately; if it is dead the send
            // just bounces and the tick resends until the ack.
            adm.stats.counters.fo_fences_sent.inc();
            ctx.send_client(primary, CtrlMsg::FoFence { vms: vec![vm] });
            self.issue_boot(adm, ctx, vm, topo);
        }
    }

    /// Issues (or re-issues) one re-materialization through the ordinary
    /// boot path. The dead rack's servers are pre-seeded into `visited`
    /// so the walk can never resolve onto a host being fenced, and its
    /// result echoes the `failover` flag so it is intercepted rather than
    /// surfaced as a tenant boot.
    fn issue_boot(
        &mut self,
        adm: &mut Admission<'_>,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        vm: VmId,
        topo: &Topology,
    ) {
        let request = adm.host.next_op(ctx.self_handle().actor);
        let Some(charge) = self.step(adm.stats, vm, FoEvent::Boot { request }) else {
            return;
        };
        let visited = match rack_of(topo, charge.primary.actor) {
            Some(rack) => topo
                .domain_servers(DomainKind::Rack, rack as usize)
                .into_iter()
                .map(|s| ActorId::new(s.index() as u32))
                .collect(),
            None => Visited::default(),
        };
        let q = Box::new(BootQuery {
            request,
            vm: charge.vm,
            origin: ctx.self_handle(),
            root: None,
            caps: None,
            visited,
            ttl: boot::BOOT_TTL,
            failover: true,
        });
        boot::handle(adm, ctx, q);
    }

    /// Failover's direct messages.
    pub fn on_direct(
        &mut self,
        host: &mut Host,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        from: NodeHandle,
        msg: CtrlMsg,
    ) {
        match msg {
            // A failover boot resolved. Success is the re-materialization
            // (the fence keeps chasing the stale primary separately);
            // rejection queues a retry for the next tick.
            CtrlMsg::BootResult {
                request,
                vm,
                host: placed_on,
                ..
            } => {
                let event = match placed_on {
                    Some(_) => FoEvent::Placed { request },
                    None => FoEvent::Rejected { request },
                };
                if let (Some(_), Some(to)) = (self.step(stats, vm, event), placed_on) {
                    stats.counters.fo_rematerialized.inc();
                    host.event(&FO_REMATERIALIZE, vm.0, to.actor.index() as u64);
                }
            }
            CtrlMsg::FoProbe { rack } => ctx.send_client(from, CtrlMsg::FoProbeAck { rack }),
            CtrlMsg::FoProbeAck { .. } => self.suspicion.mark_alive(from.actor.index() as u64),
            // A stale primary confirmed it dropped `vms`.
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
            _ => {}
        }
    }

    /// A bounced probe or an overlay-level eviction is death evidence for
    /// that member.
    pub fn mark_dead(&mut self, actor: ActorId) {
        self.suspicion.mark_dead(actor.index() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{controller, vm};
    use vbundle_dcn::Bandwidth;
    use vbundle_pastry::Id;

    /// Every (stage, event) pair of a protection charge: a legal pair
    /// moves the row to the stated stage (`None` = no row), an illegal one
    /// leaves the row alone and counts one invalid payload; without a row
    /// nothing moves and nothing is counted.
    #[test]
    fn charge_stage_table() {
        let primary = NodeHandle::new(Id::from_u128(3), ActorId::new(3));
        let protected = vm(1, 100.0, 100.0, 50.0);
        let amount = ResourceVector::bandwidth_only(Bandwidth::from_mbps(25.0));
        let armed = FoStage::Armed { amount };
        let (booting, rebooting) = (
            FoStage::Booting { request: 7 },
            FoStage::Booting { request: 9 },
        );
        use FoEvent::{Boot, Placed, Rejected};
        use FoStage::Retry;
        let table = [
            (Some(armed), Boot { request: 9 }, Ok(Some(rebooting))),
            (Some(booting), Boot { request: 9 }, Err(())),
            (Some(Retry), Boot { request: 9 }, Ok(Some(rebooting))),
            (Some(armed), Placed { request: 7 }, Err(())),
            (Some(booting), Placed { request: 7 }, Ok(None)),
            (Some(booting), Placed { request: 8 }, Err(())),
            (Some(Retry), Placed { request: 7 }, Err(())),
            (Some(armed), Rejected { request: 7 }, Err(())),
            (Some(booting), Rejected { request: 7 }, Ok(Some(Retry))),
            (Some(booting), Rejected { request: 8 }, Err(())),
            (Some(Retry), Rejected { request: 7 }, Err(())),
            // No row: results of boots long settled are stale, not illegal.
            (None, Boot { request: 9 }, Ok(None)),
            (None, Placed { request: 7 }, Ok(None)),
            (None, Rejected { request: 7 }, Ok(None)),
            (None, Rejected { request: 8 }, Ok(None)),
        ];
        for (stage, event, expected) in table {
            let mut stats = ControllerStats::default();
            let mut fo = Failover::new(FailoverConfig::default());
            if let Some(stage) = stage {
                let seeded = Charge {
                    vm: protected,
                    primary,
                    stage,
                };
                fo.charges.insert(protected.id, seeded);
            }
            let left = fo.step(&mut stats, protected.id, event);
            let case = format!("{stage:?} + {event:?}");
            let after = fo.charges.get(&protected.id).map(|c| c.stage);
            match expected {
                Ok(to) => {
                    assert_eq!(left.map(|c| c.stage), stage, "{case}");
                    assert_eq!(after, to, "{case}");
                    assert_eq!(stats.invalid_payloads, 0, "{case}");
                }
                Err(()) => {
                    assert_eq!(left, None, "{case}");
                    assert_eq!(after, stage, "{case}");
                    assert_eq!(stats.invalid_payloads, 1, "{case}");
                }
            }
        }
    }

    /// Arming is idempotent per VM, whatever stage the existing row is in:
    /// a twice-delivered `BackupReserve` carves the headroom once, and a
    /// charge that does not fit carves nothing.
    #[test]
    fn arming_carves_once_per_vm() {
        let primary = NodeHandle::new(Id::from_u128(3), ActorId::new(3));
        let protected = vm(1, 100.0, 100.0, 50.0);
        let amount = ResourceVector::bandwidth_only(Bandwidth::from_mbps(25.0));
        let mut c = controller(0.15);
        let mut fo = Failover::new(FailoverConfig::default());
        let mut arm = |fo: &mut Failover, amount| {
            fo.arm(&mut c.host, &mut c.stats, protected, primary, amount)
        };
        let too_big = ResourceVector::bandwidth_only(Bandwidth::from_gbps(2.0));
        assert!(!arm(&mut fo, too_big));
        assert!(fo.charges.is_empty());
        assert!(arm(&mut fo, amount));
        for stage in [
            FoStage::Armed { amount },
            FoStage::Booting { request: 7 },
            FoStage::Retry,
        ] {
            fo.charges.get_mut(&protected.id).expect("armed").stage = stage;
            assert!(!arm(&mut fo, amount), "{stage:?}");
            assert_eq!(fo.charges.get(&protected.id).expect("armed").stage, stage);
        }
        assert_eq!(c.host.backup_reserved, amount);
        assert_eq!(c.stats.invalid_payloads, 3);
    }
}

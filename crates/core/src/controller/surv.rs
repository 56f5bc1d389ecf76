//! Survivable admission for the protocol boot path: the failure-domain
//! ledger a customer key's root keeps, the spreading check every walk
//! server applies against it, and the choice of a cross-domain backup site
//! after an admission. Present only when `VBundleConfig::survivability` is
//! set. The carve itself is `Host::carve_backup`: the headroom is host
//! state because offline seeding carves it with survivability off.
//!
//! Owns `CtrlMsg::SurvCommit` and the sending side of
//! `CtrlMsg::{BackupReserve, FoBackupReserve}`.

use std::collections::BTreeMap;

use vbundle_pastry::NodeHandle;

use super::stats::ControllerStats;
use super::Ctx;
use crate::config::SurvivabilityConfig;
use crate::message::{CtrlMsg, SurvCaps};
use crate::placement::survivable_domain_cap;
use crate::{CustomerId, VmRecord};

/// One customer's failure-domain occupancy as tracked by its key's root
/// server — the authoritative source of the [`SurvCaps`] stamped onto
/// boot queries. `BTreeMap` so snapshot order is deterministic.
#[derive(Debug, Clone, Default)]
struct Occupancy {
    total: u32,
    per_rack: BTreeMap<u32, u32>,
    per_pod: BTreeMap<u32, u32>,
}

#[derive(Debug)]
pub(super) struct Survivability {
    cfg: SurvivabilityConfig,
    /// Per-customer domain occupancy, maintained on each customer key's
    /// root server.
    ledger: BTreeMap<u32, Occupancy>,
}

impl Survivability {
    pub fn new(cfg: SurvivabilityConfig) -> Self {
        Survivability {
            cfg,
            ledger: BTreeMap::new(),
        }
    }

    /// Advances the root-side ledger by one admitted VM.
    pub fn commit(&mut self, customer: CustomerId, rack: u32, pod: u32) {
        let occ = self.ledger.entry(customer.0).or_default();
        occ.total += 1;
        *occ.per_rack.entry(rack).or_insert(0) += 1;
        *occ.per_pod.entry(pod).or_insert(0) += 1;
    }

    /// The root's current view of `customer`'s domain occupancy, in the
    /// wire shape stamped onto boot queries.
    pub fn caps(&self, customer: CustomerId) -> SurvCaps {
        match self.ledger.get(&customer.0) {
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
    pub fn spread_ok(&self, ctx: &Ctx<'_, '_, '_, '_>, caps: &SurvCaps, me: NodeHandle) -> bool {
        let topo = ctx.pastry_state().topology();
        if me.actor.index() >= topo.num_servers() {
            return true;
        }
        let sid = topo.server(me.actor.index());
        let cap = survivable_domain_cap(self.cfg.max_frac_per_domain, caps.total + 1);
        let rack_ok =
            topo.num_racks() < 2 || caps.rack_count(topo.rack_of(sid).index() as u32) < cap;
        let pod_ok = topo.num_pods() < 2 || caps.pod_count(topo.pod_of(sid).index() as u32) < cap;
        rack_ok && pod_ok
    }

    /// Post-admission bookkeeping: report the new VM's domain to the
    /// customer key's root (or record it directly when we are the root)
    /// and ask the nearest known cross-domain peer to carve out the backup
    /// share — with `protect` (failover on) as a charge that names the VM
    /// and its primary, so the site can bring the VM back. The request is
    /// best-effort — a receiver without room simply drops it, mirroring
    /// the offline model's `backups_unplaced` accounting. A VM that was
    /// itself `rematerialized` consumed the protection that re-admitted
    /// it; carving a fresh backup would grow the overhead with every
    /// failover, so protection is single-shot.
    pub fn after_admit(
        &mut self,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        vm: VmRecord,
        root: NodeHandle,
        rematerialized: bool,
        protect: bool,
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
            self.commit(vm.customer, rack, pod);
        } else {
            let customer = vm.customer;
            ctx.send_client(
                root,
                CtrlMsg::SurvCommit {
                    customer,
                    rack,
                    pod,
                },
            );
        }
        if self.cfg.backup <= 0.0 || rematerialized {
            return;
        }
        let amount = vm.spec.reservation.scale(self.cfg.backup);
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
        let Some(site) = site else {
            stats.backups_unplaced += 1;
            return;
        };
        let msg = if protect {
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
        ctx.send_client(site, msg);
    }
}

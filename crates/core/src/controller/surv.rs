//! Survivable admission for the protocol boot path: the failure-domain
//! ledger a customer key's root keeps, the spreading check every walk
//! server applies against it, and the choice of a cross-domain backup site
//! after an admission. Present only when `VBundleConfig::survivability` is
//! set. The carve itself is `Host::carve_backup`: the headroom is host
//! state because offline seeding carves it with survivability off.
//!
//! Owns `CtrlMsg::SurvCommit`, the sending side of `CtrlMsg::BackupReserve`
//! and its receiving side with failover off.

use vbundle_pastry::NodeHandle;
use vbundle_sim::FlatMap;

use super::stats::ControllerStats;
use super::Ctx;
use crate::config::SurvivabilityConfig;
use crate::message::{BootQuery, CtrlMsg, SurvCaps};
use crate::placement::survivable_domain_cap;
use crate::{CustomerId, VmId};

#[derive(Debug)]
pub(super) struct Survivability {
    cfg: SurvivabilityConfig,
    /// Per customer, on each customer key's root server: the `(rack, pod,
    /// host)` of every admitted boot by op id, so a twice-delivered commit
    /// counts once — the source of the [`SurvCaps`] stamped onto boots.
    ledger: FlatMap<u32, FlatMap<u64, (u32, u32, NodeHandle)>>,
    /// VMs carved for with failover off: one carve per VM, the rule the
    /// failover charge table keeps with it on.
    pub carved: FlatMap<VmId, ()>,
}

impl Survivability {
    pub fn new(cfg: SurvivabilityConfig) -> Self {
        Survivability {
            cfg,
            ledger: FlatMap::new(),
            carved: FlatMap::new(),
        }
    }

    /// Records boot `op` of `customer` as admitted on `host` in
    /// `(rack, pod)`; a commit already recorded changes nothing.
    pub fn commit(&mut self, customer: CustomerId, op: u64, rack: u32, pod: u32, host: NodeHandle) {
        let ops = self.ledger.get_or_insert_with(customer.0, FlatMap::new);
        ops.get_or_insert_with(op, || (rack, pod, host));
    }

    /// The server boot `op` of `customer` was admitted on, if this root
    /// has recorded it.
    pub fn placed(&self, customer: CustomerId, op: u64) -> Option<NodeHandle> {
        Some(self.ledger.get(&customer.0)?.get(&op)?.2)
    }

    /// The root's current view of `customer`'s domain occupancy, in the
    /// wire shape stamped onto boot queries.
    pub fn caps(&self, customer: CustomerId) -> SurvCaps {
        let mut caps = SurvCaps::default();
        let placed = self.ledger.get(&customer.0).into_iter();
        for &(rack, pod, _) in placed.flat_map(FlatMap::values) {
            caps.total += 1;
            for (counts, domain) in [(&mut caps.per_rack, rack), (&mut caps.per_pod, pod)] {
                match counts.binary_search_by_key(&domain, |&(d, _)| d) {
                    Ok(i) => counts[i].1 += 1,
                    Err(i) => counts.insert(i, (domain, 1)),
                }
            }
        }
        caps
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

    /// Post-admission bookkeeping for boot `q`: report the new VM's
    /// domain to the customer key's `root` (or record it directly when we
    /// are the root) and ask the nearest known cross-domain peer to carve
    /// out the backup share for the VM and its primary, so that with
    /// failover on the site can bring the VM back. The request is
    /// best-effort — a receiver without room simply drops it, mirroring
    /// the offline model's `backups_unplaced` accounting. A VM that was
    /// itself re-materialized (`q.failover`) consumed the protection that
    /// re-admitted it; carving a fresh backup would grow the overhead with
    /// every failover, so protection is single-shot.
    pub fn after_admit(
        &mut self,
        stats: &mut ControllerStats,
        ctx: &mut Ctx<'_, '_, '_, '_>,
        q: &BootQuery,
        root: NodeHandle,
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
        let (vm, op) = (q.vm, q.request);
        if root.actor == me.actor {
            self.commit(vm.customer, op, rack, pod, me);
        } else {
            let commit = CtrlMsg::SurvCommit {
                customer: vm.customer,
                rack,
                pod,
                op,
            };
            ctx.send_client(root, commit);
        }
        if self.cfg.backup <= 0.0 || q.failover {
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
        let reserve = CtrlMsg::BackupReserve {
            vm: Box::new(vm),
            primary: me,
            amount,
        };
        ctx.send_client(site, reserve);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vbundle_dcn::Topology;
    use vbundle_scribe::ScribeClient;
    use vbundle_sim::ActorId;

    use crate::{Cluster, CtrlMsg, CustomerId, SurvivabilityConfig, VBundleConfig};

    /// The root's ledger is keyed by op: a `SurvCommit` delivered twice
    /// advances it once, and only another op advances it again.
    #[test]
    fn twice_delivered_commit_advances_the_ledger_once() {
        let topo = Topology::builder()
            .pods(1)
            .racks_per_pod(2)
            .servers_per_rack(2)
            .build();
        let config = VBundleConfig::default().with_survivability(SurvivabilityConfig::default());
        let mut cluster = Cluster::builder(Arc::new(topo)).vbundle(config).build();
        let (from, customer) = (cluster.handles[3], CustomerId(4));
        let mut deliver = |op| {
            let commit = CtrlMsg::SurvCommit {
                customer,
                rack: 1,
                pod: 0,
                op,
            };
            cluster.engine.call(ActorId::new(0), |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |c, sctx| c.on_direct(sctx, from, commit));
                });
            });
            let surv = cluster.controller(0).surv.as_ref().expect("survivable");
            let caps = surv.caps(customer);
            (caps.total, caps.rack_count(1), surv.placed(customer, op))
        };
        assert_eq!(deliver(7), (1, 1, Some(from)));
        assert_eq!(
            deliver(7),
            (1, 1, Some(from)),
            "a duplicate commit moved the ledger"
        );
        assert_eq!(deliver(8), (2, 2, Some(from)));
    }
}

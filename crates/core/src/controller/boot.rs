//! The boot walk (§II.B): a query routed to `hash(customer)` is admitted
//! if the VM's reservation fits, otherwise forwarded across the neighbor
//! set, spreading outward from the customer key's root server.
//!
//! Owns `CtrlMsg::Boot` (routed, direct and bounced; `Controller::request_boot`
//! originates it). The query carries the walk's state from hop to hop:
//! its root and the servers it visited. Each server picks the next hop
//! with [`PastryState::nearest`], which keeps its ranking of the known
//! nodes by nearness to the last root it was asked about, so this
//! module is functions over the host, with the survivability ledger
//! handed in.
//!
//! [`PastryState::nearest`]: vbundle_pastry::PastryState::nearest

use vbundle_pastry::NodeHandle;
use vbundle_sim::ActorId;

use super::host::Host;
use super::stats::ControllerStats;
use super::surv::Survivability;
use super::Ctx;
use crate::message::{BootQuery, CtrlMsg, Visited};

/// Hop budget for boot queries walking the neighbor sets.
pub(super) const BOOT_TTL: u32 = 4096;

/// What one hop of a boot walk works on: the host, and what the
/// survivability and failover modules contribute to an admission decision.
pub(super) struct Admission<'a> {
    pub host: &'a mut Host,
    pub stats: &'a mut ControllerStats,
    pub surv: &'a mut Option<Box<Survivability>>,
}

/// One hop of a boot walk. The query arrives and leaves in the box its
/// origin allocated, and picking the next hop allocates only a server's
/// first ranking (and a growth when it knows more nodes than ever
/// before): a walk of any length costs one `BootQuery` allocation plus
/// `visited` growth.
pub(super) fn handle(
    adm: &mut Admission<'_>,
    ctx: &mut Ctx<'_, '_, '_, '_>,
    mut q: Box<BootQuery>,
) {
    adm.stats.boots_handled += 1;
    let me = ctx.self_handle();
    let at_root = q.root.is_none();
    let root = *q.root.get_or_insert(me);
    let answer = |ctx: &mut Ctx<'_, '_, '_, '_>, q: &BootQuery, host: Option<NodeHandle>| {
        ctx.send_client(
            q.origin,
            CtrlMsg::BootResult {
                request: q.request,
                vm: q.vm.id,
                host,
                failover: q.failover,
            },
        );
    };
    if adm.host.hosts(q.vm.id) {
        // Duplicate delivery of a Boot we already admitted: installing
        // again would double-count the VM. Re-ack instead — the earlier
        // BootResult may have been the casualty.
        answer(ctx, &q, Some(me));
        return;
    }
    let spread_ok = match adm.surv {
        Some(surv) => {
            if at_root {
                // We are the customer key's root: answer a copy of a boot
                // already admitted, or stamp the ledger snapshot so every
                // walk server enforces the same spreading caps.
                if let Some(host) = surv.placed(q.vm.customer, q.request) {
                    answer(ctx, &q, Some(host));
                    return;
                }
                q.caps = Some(surv.caps(q.vm.customer));
            }
            q.caps
                .as_ref()
                .is_none_or(|caps| surv.spread_ok(ctx, caps, me))
        }
        None => true,
    };
    if spread_ok && adm.host.admits(q.vm.spec.reservation) {
        adm.host.install(q.vm);
        answer(ctx, &q, Some(me));
        if let Some(surv) = adm.surv {
            surv.after_admit(adm.stats, ctx, &q, root);
        }
        return;
    }
    // Full: walk outward. Prefer servers physically closest to the
    // key's root so the customer's footprint stays contiguous.
    q.visited.push(me.actor);
    if q.ttl == 0 {
        answer(ctx, &q, None);
        return;
    }
    q.ttl -= 1;
    match ctx.pastry_state().nearest(root, |a| q.visited.contains(a)) {
        Some(n) => ctx.send_client(n, CtrlMsg::Boot(q)),
        None => answer(ctx, &q, None),
    }
}

/// A hop to `to` bounced: the walk goes on without it. A server that
/// bounces twice is still listed once.
pub(super) fn mark_bounced(visited: &mut Visited, to: ActorId) {
    if !visited.contains(to) {
        visited.push(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vbundle_dcn::Topology;
    use vbundle_pastry::{Id, PastryState};

    /// The hop `handle` picks, from `state` towards `root`.
    fn next_hop(state: &PastryState, visited: &Visited, root: NodeHandle) -> Option<NodeHandle> {
        state.nearest(root, |a| visited.contains(a))
    }

    /// A full server lists itself and forwards to its best candidate,
    /// which is dead: the send bounces and the walk resumes here, listing
    /// this server again. A second bounce report for the same server
    /// adds nothing. The dead server is listed once and never picked
    /// again, below the bitset's end and past it.
    #[test]
    fn bounced_hop_is_marked_once_and_never_revisited() {
        let topo = Arc::new(
            Topology::builder()
                .pods(2)
                .racks_per_pod(65)
                .servers_per_rack(32)
                .build(),
        );
        let n = topo.num_servers() as u32;
        for base in [0, n - 8] {
            let actor = |i: u32| ActorId::new(base + i);
            let me = NodeHandle::new(Id::from_u128(20 << 120), actor(0));
            let mut state = PastryState::new(me, topo.clone(), 4, 8);
            for i in 1..8u32 {
                state.learn(NodeHandle::new(
                    Id::from_u128(u128::from(20 + i) << 120),
                    actor(i),
                ));
            }
            let mut visited = Visited::default();
            visited.push(me.actor);
            let dead = next_hop(&state, &visited, me).expect("a candidate");
            mark_bounced(&mut visited, dead.actor);
            visited.push(me.actor);
            mark_bounced(&mut visited, dead.actor);
            assert_eq!(visited.len(), 3, "me twice, the dead server once");
            assert!(visited.contains(dead.actor));
            let mut hops = 0;
            while let Some(h) = next_hop(&state, &visited, me) {
                assert_ne!(h, dead, "the walk revisits a bounced server");
                visited.push(h.actor);
                hops += 1;
                assert!(hops <= 6, "the walk picks a visited server");
            }
            assert_eq!(hops, 6, "every other server is still reached");
        }
    }
}

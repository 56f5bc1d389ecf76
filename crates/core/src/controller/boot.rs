//! The boot walk (§II.B): a query routed to `hash(customer)` is admitted
//! if the VM's reservation fits, otherwise forwarded across the neighbor
//! set, spreading outward from the customer key's root server.
//!
//! Owns `CtrlMsg::Boot` (routed, direct and bounced; `Controller::request_boot`
//! originates it). The walk keeps no
//! state of its own between hops — the query carries it — so this module
//! is functions over the host, with the survivability ledger handed in.

use vbundle_pastry::{actor_distance, NodeHandle};
use vbundle_sim::ActorId;

use super::host::Host;
use super::stats::ControllerStats;
use super::surv::Survivability;
use super::Ctx;
use crate::message::{BootQuery, CtrlMsg};

/// What one hop of a boot walk works on: the host, and what the
/// survivability and failover modules contribute to an admission decision.
pub(super) struct Admission<'a> {
    pub host: &'a mut Host,
    pub stats: &'a mut ControllerStats,
    pub surv: &'a mut Option<Survivability>,
    /// Whether backups are requested as failover charges.
    pub protect: bool,
}

/// One hop of a boot walk. The query arrives and leaves in the box its
/// origin allocated: a walk of any length costs one `BootQuery`
/// allocation.
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
                // We are the customer key's root: stamp the ledger snapshot
                // so every walk server enforces the same spreading caps.
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
            surv.after_admit(adm.stats, ctx, q.vm, root, q.failover, adm.protect);
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
    let state = ctx.pastry_state();
    let topo = state.topology();
    let next = next_hop(state.known_iter(), &q.visited, topo.num_servers(), |h| {
        (
            actor_distance(topo, h.actor, root.actor),
            actor_distance(topo, h.actor, me.actor),
            h.id.ring_distance(root.id),
        )
    });
    match next {
        Some(n) => ctx.send_client(n, CtrlMsg::Boot(q)),
        None => answer(ctx, &q, None),
    }
}

/// The boot walk's next hop: the first node of `known` with the smallest
/// `key` that the walk has not visited. `known` may repeat a node — the
/// repeat ties with its first occurrence, which `min_by_key` keeps. The
/// visited servers are marked once in a per-hop bitmap (one bit per
/// server), so the hop costs O(known + visited) instead of a scan of the
/// visited list per known node; actors beyond the server range, which the
/// bitmap does not cover, fall back to that scan.
fn next_hop<K: Ord>(
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
    use proptest::prelude::*;
    use std::sync::Arc;
    use vbundle_dcn::Topology;
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
            let got = next_hop(state.known_iter(), &visited, topo.num_servers(), key);
            prop_assert_eq!(got, reference);
            prop_assert!(
                state.known_iter().count() >= state.known_nodes().len(),
                "known_iter yields every known node at least once"
            );
        }
    }
}

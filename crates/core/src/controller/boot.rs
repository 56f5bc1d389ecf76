//! The boot walk (§II.B): a query routed to `hash(customer)` is admitted
//! if the VM's reservation fits, otherwise forwarded across the neighbor
//! set, spreading outward from the customer key's root server.
//!
//! Owns `CtrlMsg::Boot` (routed, direct and bounced; `Controller::request_boot`
//! originates it). The walk keeps no
//! state of its own between hops — the query carries it — so this module
//! is functions over the host, with the survivability ledger handed in.

use vbundle_pastry::{site_distance, NodeHandle, PastryState, Site};
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
    /// Whether backups are requested as failover charges.
    pub protect: bool,
}

/// One hop of a boot walk. The query arrives and leaves in the box its
/// origin allocated, and picking the next hop allocates nothing: a walk
/// of any length costs one `BootQuery` allocation plus `visited` growth.
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
    match next_hop(ctx.pastry_state(), &q.visited, root) {
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

/// The boot walk's next hop: the first node of `state.known_iter()` that
/// the walk has not visited with the smallest key `(distance to root,
/// distance to this node, ring distance to root)`. `known_iter` may
/// repeat a node; a repeat ties with its first occurrence and never
/// replaces it.
///
/// Each candidate's [`Site`] is read once and both distances follow from
/// it ([`site_distance`]); a candidate farther from the root than the
/// best so far is dropped before the second, and the ring distance is
/// computed only on a tie of both. Whether a candidate was visited is one
/// bit of the query's [`Visited`](crate::Visited) set, so a hop costs
/// O(known).
fn next_hop(state: &PastryState, visited: &Visited, root: NodeHandle) -> Option<NodeHandle> {
    let topo = state.topology();
    let me = state.handle();
    let root_at = (root.actor, Site::of(topo, root.actor));
    let me_at = (me.actor, Site::of(topo, me.actor));
    // The best candidate so far with its distances to the root and to me.
    let mut best: Option<(NodeHandle, u32, u32)> = None;
    for h in state.known_iter().filter(|h| !visited.contains(h.actor)) {
        let at = (h.actor, Site::of(topo, h.actor));
        let to_root = site_distance(at, root_at);
        if best.is_some_and(|(_, r, _)| to_root > r) {
            continue;
        }
        let to_me = site_distance(at, me_at);
        let wins = match best {
            Some((b, r, m)) if (to_root, to_me) == (r, m) => {
                h.id.ring_distance(root.id) < b.id.ring_distance(root.id)
            }
            Some((_, r, m)) => (to_root, to_me) < (r, m),
            None => true,
        };
        if wins {
            best = Some((h, to_root, to_me));
        }
    }
    best.map(|(h, ..)| h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use vbundle_dcn::Topology;
    use vbundle_pastry::{actor_distance, Id};

    proptest! {
        /// Ids come from a 40-value ring around the local node and the
        /// leaf set holds 4 per side, so most learned nodes sit in the
        /// leaf set (often on both sides), the routing table *and* the
        /// neighbor set: `known_iter` repeats them, `known_nodes` does
        /// not, and the next hop must not care. The actors are the last
        /// 16 servers of the topology and 8 past it, so distances are
        /// coarse and equal keys common: same-rack ties, ring ties on
        /// both sides of the root, and `u32::MAX` ties when the root or
        /// the local node is off the topology. The large topology has
        /// 4 160 servers, so its actors straddle the end of the query's
        /// bitset and the list lookup past it.
        #[test]
        fn next_hop_matches_known_nodes_reference(
            peers in proptest::collection::vec(1u128..40, 0..30),
            visited in proptest::collection::vec(0u32..24, 0..16),
            me_at in 0u32..24,
            root in (1u128..40, 0u32..24),
            large in any::<bool>(),
        ) {
            let topo = Arc::new(if large {
                Topology::builder().pods(2).racks_per_pod(65).servers_per_rack(32).build()
            } else {
                Topology::builder().pods(2).racks_per_pod(2).servers_per_rack(4).build()
            });
            let base = topo.num_servers() as u32 - 16;
            let actor = |i: u32| ActorId::new(base + i);
            let me = NodeHandle::new(Id::from_u128(20 << 120), actor(me_at));
            let mut state = PastryState::new(me, topo.clone(), 4, 8);
            for &id in &peers {
                // One actor per id, as in any real overlay.
                state.learn(NodeHandle::new(Id::from_u128(id << 120), actor((id * 7 % 24) as u32)));
            }
            let visited: Vec<ActorId> = visited.into_iter().map(actor).collect();
            let root = NodeHandle::new(Id::from_u128(root.0 << 120), actor(root.1));
            let key = |h: &NodeHandle| {
                (
                    actor_distance(&topo, h.actor, root.actor),
                    actor_distance(&topo, h.actor, me.actor),
                    h.id.ring_distance(root.id),
                )
            };
            let reference = state
                .known_nodes()
                .into_iter()
                .filter(|h| !visited.contains(&h.actor))
                .min_by_key(key);
            let marked: Visited = visited.iter().copied().collect();
            prop_assert_eq!(next_hop(&state, &marked, root), reference);
            prop_assert!(
                state.known_iter().count() >= state.known_nodes().len(),
                "known_iter yields every known node at least once"
            );
        }
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

//! Group identity and per-group tree state.

use std::collections::hash_map::{Entry, HashMap};

use vbundle_fdetect::{PeerDetector, PhiConfig};
use vbundle_pastry::{Id, NodeHandle};
use vbundle_sim::SimTime;

/// Identifies a Scribe group: a pseudo-random Pastry key, usually the hash
/// of the group's textual name (optionally concatenated with its creator,
/// as the paper describes).
pub type GroupId = Id;

/// Derives a group id from a textual name.
///
/// ```
/// use vbundle_scribe::group_id;
/// assert_eq!(group_id("BW_Demand"), group_id("BW_Demand"));
/// assert_ne!(group_id("BW_Demand"), group_id("BW_Capacity"));
/// ```
pub fn group_id(name: &str) -> GroupId {
    Id::from_name(name)
}

/// Derives a group id from a name and its creator, matching the paper's
/// `hash(name ++ creator)` convention.
pub fn group_id_with_creator(name: &str, creator: &str) -> GroupId {
    Id::from_name(&format!("{name}\u{1f}{creator}"))
}

/// One grafted child: the tree link with the parent-side liveness state
/// that decides when it is dropped. Held in the link record, that state
/// cannot outlive the graft or be missing for one — nothing sweeps it.
#[derive(Debug, Clone)]
pub struct ChildLink {
    /// The child node.
    pub handle: NodeHandle,
    /// When the link last proved itself alive (a Join, re-Join or
    /// ParentProbe from the child); fixed-interval mode expires on it.
    pub heard: SimTime,
    /// Phi-accrual state of the link; `None` in fixed-interval mode.
    pub detector: Option<PeerDetector>,
}

/// The children grafted below a node in one tree: a sequence in graft
/// order (dissemination, probing and anycast tie-breaks follow it) with an
/// id → slot index, so graft, refresh and removal are O(1).
#[derive(Debug, Clone, Default)]
pub struct Children {
    /// Links in graft order. A removed link leaves a hole, so the others
    /// keep their slots and their order; holes are squeezed out once they
    /// outnumber the links.
    slots: Vec<Option<ChildLink>>,
    /// Child id → slot in `slots`. Never iterated.
    index: HashMap<u128, u32>,
}

impl Children {
    /// Number of children.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if there are no children.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if the node with this id is a child.
    pub fn contains(&self, id: Id) -> bool {
        self.index.contains_key(&id.as_u128())
    }

    /// The children, in graft order.
    pub fn iter(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.links().map(|link| link.handle)
    }

    /// The link records, in graft order.
    pub fn links(&self) -> impl Iterator<Item = &ChildLink> {
        self.slots.iter().flatten()
    }

    /// The link records, mutably, in graft order.
    pub(crate) fn links_mut(&mut self) -> impl Iterator<Item = &mut ChildLink> {
        self.slots.iter_mut().flatten()
    }

    /// Grafts `child` if it is not a child yet and records proof of life
    /// for the link at `now`. `phi` selects the link's liveness state:
    /// a phi-accrual window under `Some`, the bare `heard` stamp otherwise.
    /// Returns `true` if the child was newly added.
    pub fn graft(&mut self, child: NodeHandle, now: SimTime, phi: Option<&PhiConfig>) -> bool {
        let (slot, added) = match self.index.entry(child.id.as_u128()) {
            Entry::Occupied(e) => (*e.get() as usize, false),
            Entry::Vacant(e) => {
                let slot = self.slots.len();
                e.insert(u32::try_from(slot).expect("fewer than 2^32 children"));
                self.slots.push(Some(ChildLink {
                    handle: child,
                    heard: now,
                    detector: phi.map(|cfg| PeerDetector::new(cfg, cfg.first_interval, now)),
                }));
                (slot, true)
            }
        };
        let link = self.slots[slot].as_mut().expect("indexed slot is filled");
        link.heard = now;
        if let Some(det) = link.detector.as_mut() {
            det.heartbeat(now);
        }
        added
    }

    /// Removes the child with this id, dropping the link's liveness state
    /// with it. Returns `true` if it was present.
    pub fn remove(&mut self, id: Id) -> bool {
        let Some(slot) = self.index.remove(&id.as_u128()) else {
            return false;
        };
        self.slots[slot as usize] = None;
        while matches!(self.slots.last(), Some(None)) {
            self.slots.pop();
        }
        if self.slots.len() > 2 * self.index.len() {
            self.slots.retain(Option::is_some);
            for (slot, link) in self.slots.iter().flatten().enumerate() {
                self.index.insert(link.handle.id.as_u128(), slot as u32);
            }
        }
        true
    }
}

/// One node's state for one group tree.
#[derive(Debug, Clone, Default)]
pub struct GroupState {
    /// The node's parent in the tree (`None` at the root or while joining).
    pub parent: Option<NodeHandle>,
    /// Children grafted below this node, each with its link liveness.
    pub children: Children,
    /// Whether the local node subscribed to the group (vs. acting as a
    /// pure forwarder on other members' join routes).
    pub member: bool,
    /// Whether the local node is the group's rendezvous root.
    pub root: bool,
    /// Root-only: sequence number of the next multicast published.
    pub next_seq: u64,
    /// Member-only: `(root id, seq)` of the last multicast delivered —
    /// duplicates (e.g. after transient double-grafting during repair)
    /// are suppressed; the window resets when the rendezvous root moves.
    pub last_delivered: Option<(u128, u64)>,
}

impl GroupState {
    /// True if the node participates in the tree at all.
    pub fn in_tree(&self) -> bool {
        self.member || self.root || self.parent.is_some() || !self.children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vbundle_sim::ActorId;

    fn h(v: u128) -> NodeHandle {
        NodeHandle::new(Id::from_u128(v), ActorId::new(v as u32))
    }

    #[test]
    fn group_ids_stable_and_distinct() {
        assert_eq!(group_id("less-loaded"), group_id("less-loaded"));
        assert_ne!(
            group_id_with_creator("g", "alice"),
            group_id_with_creator("g", "bob")
        );
        // Separator prevents ambiguity between (name, creator) splits.
        assert_ne!(
            group_id_with_creator("ab", "c"),
            group_id_with_creator("a", "bc")
        );
    }

    #[test]
    fn children_are_a_set() {
        let mut st = GroupState::default();
        assert!(!st.in_tree());
        assert!(st.children.graft(h(1), SimTime::ZERO, None));
        assert!(!st.children.graft(h(1), SimTime::ZERO, None));
        assert!(st.in_tree());
        assert!(st.children.remove(Id::from_u128(1)));
        assert!(!st.children.remove(Id::from_u128(1)));
        assert!(!st.in_tree());
    }

    proptest! {
        /// The indexed sequence behaves like a plain `Vec` of
        /// `(handle, heard)` under any mix of grafts, removals and bulk
        /// takes: same order, same membership answers, same stamps, and
        /// `in_tree` agrees — across hole-leaving removals and the
        /// compactions that squeeze the holes out.
        #[test]
        fn children_match_vec_model(
            ops in proptest::collection::vec((0u8..8, 1u128..24), 1..200),
            phi in any::<bool>(),
        ) {
            let cfg = PhiConfig::default();
            let phi = phi.then_some(&cfg);
            let mut st = GroupState::default();
            let mut model: Vec<(NodeHandle, SimTime)> = Vec::new();
            for (step, &(kind, v)) in ops.iter().enumerate() {
                let now = SimTime::from_secs(step as u64);
                let pos = model.iter().position(|(c, _)| c.id == h(v).id);
                match kind {
                    0..=3 => {
                        prop_assert_eq!(st.children.graft(h(v), now, phi), pos.is_none());
                        match pos {
                            Some(p) => model[p].1 = now,
                            None => model.push((h(v), now)),
                        }
                    }
                    4..=6 => {
                        prop_assert_eq!(st.children.remove(h(v).id), pos.is_some());
                        if let Some(p) = pos {
                            model.remove(p);
                        }
                    }
                    _ => {
                        let taken: Vec<NodeHandle> = std::mem::take(&mut st.children).iter().collect();
                        let expect: Vec<NodeHandle> = model.drain(..).map(|(c, _)| c).collect();
                        prop_assert_eq!(taken, expect);
                    }
                }
                let got: Vec<(NodeHandle, SimTime)> =
                    st.children.links().map(|l| (l.handle, l.heard)).collect();
                prop_assert_eq!(&got, &model);
                prop_assert_eq!(st.children.len(), model.len());
                prop_assert_eq!(st.children.is_empty(), model.is_empty());
                prop_assert_eq!(st.in_tree(), !model.is_empty());
                prop_assert!(st.children.links().all(|l| l.detector.is_some() == phi.is_some()));
                for id in 1..24 {
                    let id = Id::from_u128(id);
                    prop_assert_eq!(
                        st.children.contains(id),
                        model.iter().any(|(c, _)| c.id == id)
                    );
                }
            }
        }
    }

    #[test]
    fn membership_marks_in_tree() {
        let st = GroupState {
            member: true,
            ..GroupState::default()
        };
        assert!(st.in_tree());
        let st = GroupState {
            root: true,
            ..GroupState::default()
        };
        assert!(st.in_tree());
    }
}

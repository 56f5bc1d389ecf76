//! Group identity and per-group tree state.

use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hasher};

use vbundle_fdetect::{PeerDetector, PhiConfig, FIRST_INTERVAL};
use vbundle_pastry::{Id, NodeHandle, Site};
use vbundle_sim::{ActorId, SimTime};

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

/// What a subtree of a group tree could still accept from an anycast: one
/// word whose meaning belongs to the [`ScribeClient`](crate::ScribeClient)
/// (it joins two with `summary_join` and tests one against a request with
/// `summary_admits`). `0` is the join's identity — nothing below here
/// accepts anything. Where a summary is optional, `None` is the lattice's
/// top: no claim, so never a reason to skip the subtree.
pub type Summary = u32;

/// One grafted child: the tree link with the parent-side liveness state
/// that decides when it is dropped. Held in the link record, that state
/// cannot outlive the graft or be missing for one — nothing sweeps it.
#[derive(Debug, Clone)]
pub struct ChildLink {
    /// The child node.
    pub handle: NodeHandle,
    /// The child's site, stamped at graft: the anycast order is keyed on
    /// it.
    pub site: Site,
    /// When the link last proved itself alive (a Join, re-Join or
    /// ParentProbe from the child); fixed-interval mode expires on it.
    pub heard: SimTime,
    /// Phi-accrual state of the link; `None` in fixed-interval mode.
    pub detector: Option<PeerDetector>,
    /// The subtree summary last heard from the child (in its Join, a
    /// ParentProbe or a Summary). Anycast skips the subtree when the
    /// client says this does not admit the request.
    pub summary: Option<Summary>,
}

/// The anycast order of a node's children: per proximity class — rack,
/// pod, everything — the slot numbers sorted by `(domain, tie, slot)`.
/// The domain is the child's rack, its pod, or whether it is off the
/// topology; the tie is its ring distance to the parent; the slot is its
/// place in graft order. An origin's same-rack (same-pod, remaining)
/// children are then one contiguous run, best first.
#[derive(Debug, Clone)]
struct AnycastOrder {
    /// The node the children are grafted under.
    parent: Id,
    lists: [Vec<u32>; 3],
}

/// A child's domain in proximity class `class`.
fn domain(class: usize, site: Site) -> u32 {
    match class {
        0 => site.rack,
        1 => site.pod,
        _ => u32::from(site == Site::OFF),
    }
}

/// Whether the walk has entered `actor`. Out of line on purpose: inlined
/// into the pick's closure next to the admit test, the scan loses its
/// vectorized form (`perf/anycast_step/4096` 196 → 248 µs).
#[inline(never)]
fn seen(visited: &[ActorId], actor: ActorId) -> bool {
    visited.contains(&actor)
}

fn link(slots: &[Option<ChildLink>], slot: u32) -> &ChildLink {
    slots[slot as usize]
        .as_ref()
        .expect("listed slot is filled")
}

/// The sort key of the child in `slot` in proximity class `class`. Ties
/// are at least 1 so that the local member, at 0, goes first.
fn key(slots: &[Option<ChildLink>], parent: Id, class: usize, slot: u32) -> (u32, u128, u32) {
    let link = link(slots, slot);
    let tie = link.handle.id.ring_distance(parent).max(1);
    (domain(class, link.site), tie, slot)
}

/// Hashes a child's 128-bit id with one multiply: XOR the id's two 64-bit
/// halves, multiply by a fixed odd constant into 128 bits, XOR the
/// product's halves. Pastry ids are pseudo-random already, so this spreads
/// them as well as SipHash at a fraction of the cost, and with no
/// per-process seed a table's probe sequence is the same in every run.
/// Unlike SipHash it does not resist chosen keys: a peer that picked
/// colliding ids could lengthen the probe chains of the node it joins.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl IdHasher {
    fn fold(x: u128) -> u64 {
        let half = (x as u64) ^ ((x >> 64) as u64);
        let product = u128::from(half) * 0x9e37_79b9_7f4a_7c15;
        (product as u64) ^ ((product >> 64) as u64)
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u128(&mut self, id: u128) {
        self.0 = Self::fold(id ^ u128::from(self.0));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(16) {
            let mut word = [0u8; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u128(u128::from_le_bytes(word));
        }
    }
}

/// Child id → slot, hashed with [`IdHasher`]. A hash table rather than a
/// sorted vector because a star tree's hub looks up ~1 800 children on
/// every child message.
#[allow(clippy::disallowed_types)] // Fixed hasher: no per-process seed, never iterated.
type IdIndex = std::collections::HashMap<u128, u32, BuildHasherDefault<IdHasher>>;

/// The children grafted below a node in one tree: a sequence in graft
/// order (dissemination and probing follow it) with an id → slot index, so
/// graft, refresh and removal are O(1), and the order anycast descends in.
#[derive(Debug, Clone, Default)]
pub struct Children {
    /// Links in graft order. A removed link leaves a hole, so the others
    /// keep their slots and their order; holes are squeezed out once they
    /// outnumber the links.
    slots: Vec<Option<ChildLink>>,
    /// Child id → slot in `slots`. Never iterated.
    index: IdIndex,
    /// Allocated with the first child, and boxed: a `GroupState` sits in
    /// a B-tree leaf that reserves room for eleven of them on every node,
    /// with or without children.
    order: Option<Box<AnycastOrder>>,
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

    /// Grafts `child`, a node at `site()`, below `parent` if it is not a
    /// child yet and records proof of life for the link at `now`. `site` is
    /// called only for a new link, the one place it is stored. `phi`
    /// selects the link's liveness state: a phi-accrual window under
    /// `Some`, the bare `heard` stamp otherwise. The link's stored summary
    /// becomes `summary`, what the child said with this proof of life.
    /// Returns whether the child was newly added, and whether the stored
    /// summary changed (a new link starts out unknown).
    pub fn graft(
        &mut self,
        child: NodeHandle,
        site: impl FnOnce() -> Site,
        parent: Id,
        now: SimTime,
        phi: Option<&PhiConfig>,
        summary: Option<Summary>,
    ) -> (bool, bool) {
        let (slot, added) = match self.index.entry(child.id.as_u128()) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 children");
                e.insert(slot);
                self.slots.push(Some(ChildLink {
                    handle: child,
                    site: site(),
                    heard: now,
                    detector: phi.map(|_| PeerDetector::new(FIRST_INTERVAL, now)),
                    summary: None,
                }));
                let order = self.order.get_or_insert_with(|| {
                    Box::new(AnycastOrder {
                        parent,
                        lists: Default::default(),
                    })
                });
                debug_assert_eq!(order.parent, parent, "one parent per tree node");
                for (class, list) in order.lists.iter_mut().enumerate() {
                    let new = key(&self.slots, parent, class, slot);
                    let at = list.partition_point(|&s| key(&self.slots, parent, class, s) < new);
                    list.insert(at, slot);
                }
                (slot, true)
            }
        };
        let link = self.slots[slot as usize]
            .as_mut()
            .expect("indexed slot is filled");
        link.heard = now;
        if let Some(det) = link.detector.as_mut() {
            det.heartbeat(now);
        }
        let changed = link.summary != summary;
        link.summary = summary;
        (added, changed)
    }

    /// Stores `summary` on the link to the child with this id. Returns
    /// `true` if there is such a child and its stored summary changed.
    pub(crate) fn set_summary(&mut self, id: Id, summary: Option<Summary>) -> bool {
        let link = self
            .index
            .get(&id.as_u128())
            .and_then(|&slot| self.slots[slot as usize].as_mut());
        link.is_some_and(|link| std::mem::replace(&mut link.summary, summary) != summary)
    }

    /// Removes the child with this id, dropping the link's liveness state
    /// with it. Returns `true` if it was present.
    pub fn remove(&mut self, id: Id) -> bool {
        let Some(slot) = self.index.remove(&id.as_u128()) else {
            return false;
        };
        let order = self.order.as_mut().expect("grafted with the first child");
        for (class, list) in order.lists.iter_mut().enumerate() {
            let old = key(&self.slots, order.parent, class, slot);
            let at = list.partition_point(|&s| key(&self.slots, order.parent, class, s) < old);
            debug_assert_eq!(list[at], slot);
            list.remove(at);
        }
        self.slots[slot as usize] = None;
        while matches!(self.slots.last(), Some(None)) {
            self.slots.pop();
        }
        if self.slots.len() > 2 * self.index.len() {
            // Squeeze the holes out. The links keep their order, so each
            // list stays sorted under the new slot numbers.
            for (slot, link) in self.slots.iter().flatten().enumerate() {
                self.index.insert(link.handle.id.as_u128(), slot as u32);
            }
            for slot in order.lists.iter_mut().flatten() {
                *slot = self.index[&link(&self.slots, *slot).handle.id.as_u128()];
            }
            self.slots.retain(Option::is_some);
        }
        true
    }

    /// The child subtree an anycast issued by `origin`, a node at `site`,
    /// descends into from here, with its physical distance to the origin:
    /// among the open children — those whose stored summary `admits` the
    /// request and whose actor is not in `visited` — the first in graft
    /// order with the smallest `(distance, ring distance to the parent)`.
    /// A child that is not admitted is passed over like a visited one, but
    /// `visited` is the caller's and does not learn of it.
    ///
    /// The classes are tried nearest first — the origin itself, its rack's
    /// run, its pod's, all servers, actors off the topology. A run also
    /// holds the children of every nearer class, but a farther run is only
    /// looked at once the nearer ones hold nothing open, so none of those
    /// is open and skipping closed entries skips exactly them: the first
    /// entry left is the best of its class, and the walk is bounded by the
    /// number of closed children, not by the number of children. (A node
    /// has one id: the child with the origin's actor is looked up under
    /// the origin's id.)
    pub fn nearest_unvisited(
        &self,
        origin: NodeHandle,
        site: Site,
        visited: &[ActorId],
        admits: impl Fn(Option<Summary>) -> bool,
    ) -> Option<(u32, NodeHandle)> {
        let order = self.order.as_deref()?;
        let handle = |slot: u32| link(&self.slots, slot).handle;
        let open = |&slot: &u32| {
            let link = link(&self.slots, slot);
            admits(link.summary) && !seen(visited, link.handle.actor)
        };
        // The best unvisited child of one domain's run.
        let first = |class: usize, run: u32| {
            let list = &order.lists[class];
            let domain = |slot: u32| domain(class, link(&self.slots, slot).site);
            let start = list.partition_point(|&s| domain(s) < run);
            let mut run = list[start..].iter().take_while(|&&s| domain(s) == run);
            run.find(|&s| open(s)).copied()
        };
        if site == Site::OFF {
            // Everything is equally far from an origin off the topology:
            // the two global runs compete on the tie alone.
            let tie = |&slot: &u32| {
                let (_, tie, slot) = key(&self.slots, order.parent, 2, slot);
                (tie, slot)
            };
            let best = first(2, 0).into_iter().chain(first(2, 1)).min_by_key(tie);
            return best.map(|slot| (u32::MAX, handle(slot)));
        }
        let own = self.index.get(&origin.id.as_u128());
        if let Some(&slot) = own.filter(|&s| handle(*s).actor == origin.actor && open(s)) {
            return Some((0, handle(slot)));
        }
        let runs = [
            (0, site.rack, 1),
            (1, site.pod, 2),
            (2, 0, 3),
            (2, 1, u32::MAX),
        ];
        runs.into_iter()
            .find_map(|(class, run, distance)| Some((distance, handle(first(class, run)?))))
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
    /// (The root as an [`Id`], which is 8-aligned where a `u128` would pad
    /// the whole record out by the word `reported` takes.)
    pub last_delivered: Option<(Id, u64)>,
    /// The subtree summary — the local member's joined with every child
    /// link's — this node last sent toward its parent, in a Join, a
    /// ParentProbe or a Summary. A summary the parent's copy does not
    /// cover is sent at once; a lower one waits for the next probe.
    pub reported: Option<Summary>,
}

impl GroupState {
    /// True if the node participates in the tree at all.
    pub fn in_tree(&self) -> bool {
        self.member || self.root || self.parent.is_some() || !self.children.is_empty()
    }
}

/// A node's per-group tree states, sorted by group key. A node is in a
/// handful of trees, so a scanned vector allocates for exactly those where
/// a B-tree map pays a whole 11-slot leaf per node; iteration is in key
/// order either way.
#[derive(Debug, Default)]
pub(crate) struct Groups(Vec<(u128, GroupState)>);

impl Groups {
    pub fn get(&self, group: GroupId) -> Option<&GroupState> {
        let key = group.as_u128();
        self.0.iter().find(|&&(k, _)| k == key).map(|(_, st)| st)
    }

    pub fn get_mut(&mut self, group: GroupId) -> Option<&mut GroupState> {
        let key = group.as_u128();
        self.0
            .iter_mut()
            .find(|&&mut (k, _)| k == key)
            .map(|(_, st)| st)
    }

    /// The state for `group`, created empty if the node had none.
    pub fn entry(&mut self, group: GroupId) -> &mut GroupState {
        let key = group.as_u128();
        let at = match self.0.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => at,
            Err(at) => {
                self.0.reserve_exact(1);
                self.0.insert(at, (key, GroupState::default()));
                at
            }
        };
        &mut self.0[at].1
    }

    pub fn remove(&mut self, group: GroupId) {
        let key = group.as_u128();
        self.0.retain(|&(k, _)| k != key);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The groups held, in key order.
    pub fn keys(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.0.iter().map(|&(k, _)| GroupId::from_u128(k))
    }

    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &GroupState)> {
        self.0.iter().map(|(k, st)| (GroupId::from_u128(*k), st))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (GroupId, &mut GroupState)> {
        self.0
            .iter_mut()
            .map(|(k, st)| (GroupId::from_u128(*k), st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vbundle_dcn::Topology;
    use vbundle_pastry::actor_distance;

    fn h(v: u128) -> NodeHandle {
        NodeHandle::new(Id::from_u128(v), ActorId::new(v as u32))
    }

    /// The parent every test grafts under.
    const PARENT: Id = Id::from_u128(100);

    /// An arbitrary but fixed site per child; every seventh is off the
    /// topology.
    fn site(v: u128) -> Site {
        if v.is_multiple_of(7) {
            return Site::OFF;
        }
        Site {
            rack: (v % 5) as u32,
            pod: (v % 2) as u32,
        }
    }

    /// Each anycast list holds exactly the filled slots, in key order.
    fn order_is_consistent(children: &Children) -> bool {
        let slots = &children.slots;
        let filled: Vec<u32> = (0..slots.len() as u32)
            .filter(|&s| slots[s as usize].is_some())
            .collect();
        let Some(order) = &children.order else {
            return filled.is_empty();
        };
        order.lists.iter().enumerate().all(|(class, list)| {
            let mut listed = list.clone();
            listed.sort_unstable();
            let key = |slot| key(slots, order.parent, class, slot);
            listed == filled && list.windows(2).all(|w| key(w[0]) < key(w[1]))
        })
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
        let mut graft = |summary| {
            st.children
                .graft(h(1), || site(1), PARENT, SimTime::ZERO, None, summary)
        };
        assert_eq!(graft(None), (true, false));
        assert_eq!(graft(None), (false, false));
        assert_eq!(graft(Some(0)), (false, true));
        assert_eq!(graft(Some(0)), (false, false));
        assert!(st.in_tree());
        assert!(st.children.remove(Id::from_u128(1)));
        assert!(!st.children.remove(Id::from_u128(1)));
        assert!(!st.in_tree());
    }

    proptest! {
        /// The indexed sequence behaves like a plain `Vec` of
        /// `(handle, heard, summary)` under any mix of grafts, removals,
        /// summary updates and bulk takes: same order, same membership
        /// answers, same stamps and summaries, and `in_tree` agrees —
        /// across hole-leaving removals and the compactions that squeeze
        /// the holes out, which renumber the slots the anycast lists
        /// refer to.
        #[test]
        fn children_match_vec_model(
            ops in proptest::collection::vec((0u8..10, 1u128..24, 0u32..4), 1..200),
            phi in any::<bool>(),
        ) {
            let cfg = PhiConfig::default();
            let phi = phi.then_some(&cfg);
            let mut st = GroupState::default();
            let mut model: Vec<(NodeHandle, SimTime, Option<Summary>)> = Vec::new();
            for (step, &(kind, v, summary)) in ops.iter().enumerate() {
                let now = SimTime::from_secs(step as u64);
                let summary = summary.checked_sub(1);
                let pos = model.iter().position(|(c, ..)| c.id == h(v).id);
                let held = pos.and_then(|p| model[p].2);
                match kind {
                    0..=3 => {
                        let grafted = st.children.graft(h(v), || site(v), PARENT, now, phi, summary);
                        prop_assert_eq!(grafted, (pos.is_none(), held != summary));
                        match pos {
                            Some(p) => model[p] = (h(v), now, summary),
                            None => model.push((h(v), now, summary)),
                        }
                    }
                    4..=6 => {
                        prop_assert_eq!(st.children.remove(h(v).id), pos.is_some());
                        if let Some(p) = pos {
                            model.remove(p);
                        }
                    }
                    7..=8 => {
                        let changed = st.children.set_summary(h(v).id, summary);
                        prop_assert_eq!(changed, pos.is_some() && held != summary);
                        if let Some(p) = pos {
                            model[p].2 = summary;
                        }
                    }
                    _ => {
                        let taken: Vec<NodeHandle> = std::mem::take(&mut st.children).iter().collect();
                        let expect: Vec<NodeHandle> = model.drain(..).map(|(c, ..)| c).collect();
                        prop_assert_eq!(taken, expect);
                    }
                }
                let got: Vec<(NodeHandle, SimTime, Option<Summary>)> =
                    st.children.links().map(|l| (l.handle, l.heard, l.summary)).collect();
                prop_assert_eq!(&got, &model);
                prop_assert_eq!(st.children.len(), model.len());
                prop_assert_eq!(st.children.is_empty(), model.is_empty());
                prop_assert_eq!(st.in_tree(), !model.is_empty());
                prop_assert!(st.children.links().all(|l| l.detector.is_some() == phi.is_some()));
                prop_assert!(order_is_consistent(&st.children), "after op {step}: {:?}", st.children);
                for id in 1..24 {
                    let id = Id::from_u128(id);
                    prop_assert_eq!(
                        st.children.contains(id),
                        model.iter().any(|(c, ..)| c.id == id)
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

    /// What an anycast step at `me` tries, in order, found by scanning
    /// every child: whether the local member (eligible iff `local` carries
    /// its distance) is offered first, and the child subtree the search
    /// descends into otherwise or on decline. That child is, among those
    /// `admitted` and not yet visited, the first in graft order with the
    /// smallest `(distance, ring distance to me)` — what a stable sort of
    /// all candidates would put first among children. Ring ties are at
    /// least 1 and the local member's is 0, so it goes first at equal
    /// distance.
    fn anycast_choice(
        me: NodeHandle,
        local: Option<u32>,
        children: impl Iterator<Item = NodeHandle>,
        visited: &[ActorId],
        admitted: impl Fn(ActorId) -> bool,
        dist: impl Fn(ActorId) -> u32,
    ) -> (bool, Option<NodeHandle>) {
        let best = children
            .filter(|c| admitted(c.actor) && !visited.contains(&c.actor))
            .map(|c| (dist(c.actor), c.id.ring_distance(me.id).max(1), c))
            .min_by_key(|&(d, tie, _)| (d, tie));
        let local_first = local.is_some_and(|l| best.is_none_or(|(d, _, _)| l <= d));
        (local_first, best.map(|(_, _, c)| c))
    }

    /// The walk the scan stands for: collect every candidate, stable-sort
    /// by `(distance, tie)`, try them in order — a local member that
    /// declines hands over to the next, the first child ends the step. A
    /// child that is not admitted is no candidate.
    fn sorted_walk(
        me: NodeHandle,
        local: Option<u32>,
        children: &[NodeHandle],
        visited: &[ActorId],
        admitted: impl Fn(ActorId) -> bool,
        dist: impl Fn(ActorId) -> u32,
    ) -> (bool, Option<NodeHandle>) {
        let mut candidates: Vec<(u32, u128, Option<NodeHandle>)> = Vec::new();
        if let Some(d) = local {
            candidates.push((d, 0, None));
        }
        for c in children {
            if admitted(c.actor) && !visited.contains(&c.actor) {
                candidates.push((dist(c.actor), c.id.ring_distance(me.id).max(1), Some(*c)));
            }
        }
        candidates.sort_by_key(|&(d, tie, _)| (d, tie));
        let mut local_first = false;
        for (_, _, cand) in candidates {
            match cand {
                None => local_first = true,
                Some(c) => return (local_first, Some(c)),
            }
        }
        (local_first, None)
    }

    /// Node `a` of the anycast tests: actor `a`, ids paired up at equal
    /// ring distance on either side of the parent's.
    fn node(a: u32) -> NodeHandle {
        let step = u128::from(a / 2 + 1);
        let id = if a.is_multiple_of(2) {
            100 + step
        } else {
            100 - step
        };
        NodeHandle::new(Id::from_u128(id), ActorId::new(a))
    }

    proptest! {
        /// Child ids cluster around the local id (equal ring distances on
        /// both sides) and distances come from a four-value table, so
        /// equal keys — where only graft order decides — are the norm.
        #[test]
        fn anycast_choice_matches_sorted_walk(
            ids in proptest::collection::vec(90u128..111, 0..16),
            dists in proptest::collection::vec(0u32..4, 24),
            visited in proptest::collection::vec(0u32..24, 0..12),
            pruned in any::<u32>(),
            local in (any::<bool>(), 0u32..4),
        ) {
            let me = NodeHandle::new(PARENT, ActorId::new(23));
            let mut children: Vec<NodeHandle> = Vec::new();
            for (i, &id) in ids.iter().enumerate() {
                if id != 100 && !children.iter().any(|c| c.id == Id::from_u128(id)) {
                    children.push(NodeHandle::new(Id::from_u128(id), ActorId::new(i as u32)));
                }
            }
            let visited: Vec<ActorId> = visited.into_iter().map(ActorId::new).collect();
            let local = local.0.then_some(local.1);
            let dist = |a: ActorId| dists[a.index()];
            let admitted = |a: ActorId| pruned >> a.index() & 1 == 0;
            let choice = anycast_choice(me, local, children.iter().copied(), &visited, admitted, dist);
            prop_assert_eq!(choice, sorted_walk(me, local, &children, &visited, admitted, dist));
            // A pruned child counts like a visited one.
            let closed: Vec<ActorId> = children
                .iter()
                .map(|c| c.actor)
                .filter(|&a| !admitted(a) || visited.contains(&a))
                .collect();
            let all = |_| true;
            prop_assert_eq!(choice, anycast_choice(me, local, children.iter().copied(), &closed, all, dist));
        }

        /// The indexed pick is the scan's pick, after every step of any
        /// graft / remove / take sequence (removals leave holes, enough of
        /// them compact and renumber). Twelve servers in 2 pods × 2 racks
        /// plus four actors off the topology, any of them a child, the
        /// origin, or both; two more origins that are never children.
        /// Distances are the topology's own, so whole racks tie on
        /// `(distance, tie)` and only graft order separates them. Each
        /// graft leaves the link a summary — unknown, or one of three
        /// words of which the request (a new one every step) admits some:
        /// a link that is not admitted is passed over exactly as if its
        /// actor were in `visited`, and an unknown one never is.
        #[test]
        fn indexed_pick_matches_anycast_choice(
            ops in proptest::collection::vec(
                (0u8..8, 0u32..16, 0u32..18, any::<u32>(), (any::<bool>(), 0u32..5), (0u32..4, 0u32..8)),
                1..150,
            ),
        ) {
            let topo = Topology::builder().pods(2).racks_per_pod(2).servers_per_rack(3).build();
            let me = NodeHandle::new(PARENT, ActorId::new(23));
            let mut children = Children::default();
            let mut model: Vec<NodeHandle> = Vec::new();
            let mut summaries = [None; 18];
            for (step, &op) in ops.iter().enumerate() {
                let (kind, a, origin, visited, (local, local_distance), (summary, wanted)) = op;
                let child = node(a);
                match kind {
                    0..=3 => {
                        let site = Site::of(&topo, child.actor);
                        let summary = summary.checked_sub(1);
                        summaries[a as usize] = summary;
                        if children.graft(child, || site, me.id, SimTime::ZERO, None, summary).0 {
                            model.push(child);
                        }
                    }
                    4..=6 => {
                        children.remove(child.id);
                        model.retain(|c| c.id != child.id);
                    }
                    _ => {
                        std::mem::take(&mut children);
                        model.clear();
                    }
                }
                let origin = node(origin);
                let visited: Vec<ActorId> =
                    (0..18).filter(|a| visited >> a & 1 == 1).map(ActorId::new).collect();
                let local = local.then_some([0, 1, 2, 3, u32::MAX][local_distance as usize]);
                let dist = |a| actor_distance(&topo, a, origin.actor);
                let admits = |summary: Option<Summary>| summary.is_none_or(|s| wanted >> s & 1 == 1);
                let site = Site::of(&topo, origin.actor);
                let best = children.nearest_unvisited(origin, site, &visited, admits);
                prop_assert!(best.is_none_or(|(d, c)| d == dist(c.actor)), "{best:?} at op {step}");
                let local_first = local.is_some_and(|l| best.is_none_or(|(d, _)| l <= d));
                let admitted = |a: ActorId| admits(summaries[a.index()]);
                prop_assert_eq!(
                    (local_first, best.map(|(_, c)| c)),
                    anycast_choice(me, local, model.iter().copied(), &visited, admitted, dist),
                    "op {} origin {} visited {:?} children {:?}", step, origin, visited, model
                );
                let closed: Vec<ActorId> =
                    (0..18).map(ActorId::new).filter(|&a| !admitted(a) || visited.contains(&a)).collect();
                prop_assert_eq!(best, children.nearest_unvisited(origin, site, &closed, |_| true));
            }
        }
    }
}

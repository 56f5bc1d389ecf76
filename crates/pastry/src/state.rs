//! Pastry routing state: leaf set, routing table and neighbor set (§II.A
//! of the v-Bundle paper, after Rowstron & Druschel).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use vbundle_dcn::Topology;
use vbundle_sim::ActorId;

use crate::id::{DIGIT_BASE, NUM_DIGITS};
use crate::{Key, NodeHandle, NodeId};

/// The ids of one overlay's nodes, indexed by actor. The certificate
/// authority assigns a node its id once (§II.B), so the tables of a
/// [`PastryState`] store 4-byte [`ActorId`]s and read each 16-byte id
/// here. The states [`build_states`] returns share one roster, and a
/// clone shares its original's. An actor's entry is set by the first
/// handle that names it — at the build, or in
/// [`learn`](PastryState::learn) for a node that joined later — and
/// never changes: `learn` refuses a handle that contradicts it.
///
/// [`build_states`]: crate::overlay::build_states
#[derive(Debug, Default)]
pub struct Roster(RefCell<Vec<Option<NodeId>>>);

impl Roster {
    /// A roster holding exactly `handles`.
    ///
    /// # Panics
    ///
    /// Panics if two handles give one actor different ids.
    pub(crate) fn of(handles: &[NodeHandle]) -> Roster {
        let len = handles.iter().map(|h| h.actor.index() + 1).max();
        let roster = Roster(RefCell::new(vec![None; len.unwrap_or(0)]));
        for &h in handles {
            assert!(roster.admit(h), "{} has a second id {}", h.actor, h.id);
        }
        roster
    }

    /// The id on record for `actor`, if any.
    pub fn get(&self, actor: ActorId) -> Option<NodeId> {
        self.0.borrow().get(actor.index()).copied().flatten()
    }

    /// Records `h`'s id for its actor unless the actor has one already.
    /// Returns `false` if the actor's id differs from `h`'s: `h` is
    /// forged.
    pub fn admit(&self, h: NodeHandle) -> bool {
        let mut ids = self.0.borrow_mut();
        let at = h.actor.index();
        if at >= ids.len() {
            ids.resize(at + 1, None);
        }
        *ids[at].get_or_insert(h.id) == h.id
    }

    /// The id of an actor a table stores: every stored actor was
    /// admitted first.
    #[inline]
    fn id(&self, actor: ActorId) -> NodeId {
        self.get(actor).expect("a stored actor is on the roster")
    }

    #[inline]
    fn handle(&self, actor: ActorId) -> NodeHandle {
        NodeHandle::new(self.id(actor), actor)
    }
}

/// A table of a [`PastryState`] read through the roster that decodes its
/// actor references: every reader answers in [`NodeHandle`]s. Tables take
/// the roster where they change and are read through a `View`, so none
/// stores it.
#[derive(Debug)]
pub struct View<'a, T> {
    table: &'a T,
    ids: &'a Roster,
}

// By hand: a derive would ask for `T: Copy`.
impl<T> Clone for View<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for View<'_, T> {}

/// The leaf set: the `L/2` numerically closest nodes clockwise and
/// counter-clockwise of the local node. It completes the last routing hop
/// and anchors repair after failures.
///
/// The set does not store the local id: [`PastryState`] owns it and
/// passes it as `self_id` to the methods that measure distances from it.
#[derive(Debug, Clone)]
pub struct LeafSet {
    half: usize,
    /// Sorted by clockwise distance from `self_id`, ascending.
    cw: Vec<ActorId>,
    /// Sorted by counter-clockwise distance from `self_id`, ascending.
    ccw: Vec<ActorId>,
}

impl LeafSet {
    /// Creates an empty leaf set holding up to `half` entries per side
    /// (`L = 2 × half`).
    ///
    /// # Panics
    ///
    /// Panics if `half` is zero.
    pub fn new(half: usize) -> Self {
        assert!(half > 0, "leaf set half-size must be positive");
        LeafSet {
            half,
            cw: Vec::with_capacity(half),
            ccw: Vec::with_capacity(half),
        }
    }

    /// Offers a handle, whose id `ids` holds, to the leaf set of node
    /// `self_id`; it is kept if it ranks among the `half` closest on
    /// either side. Returns `true` if the set changed.
    pub fn insert(&mut self, ids: &Roster, self_id: NodeId, h: NodeHandle) -> bool {
        if h.id == self_id {
            return false;
        }
        let half = self.half;
        let cw = Self::insert_side(&mut self.cw, ids, h, half, |x| self_id.cw_distance(x));
        let ccw = Self::insert_side(&mut self.ccw, ids, h, half, |x| x.cw_distance(self_id));
        cw | ccw
    }

    fn insert_side(
        side: &mut Vec<ActorId>,
        ids: &Roster,
        h: NodeHandle,
        half: usize,
        dist: impl Fn(NodeId) -> u128,
    ) -> bool {
        if side.iter().any(|&e| ids.id(e) == h.id) {
            return false;
        }
        let key = dist(h.id);
        let pos = side
            .binary_search_by(|&e| dist(ids.id(e)).cmp(&key))
            .unwrap_or_else(|p| p);
        if pos >= half {
            return false;
        }
        // Make room first: inserting into a full side would double its
        // allocation for one entry that is dropped again.
        if side.len() == half {
            side.pop();
        }
        side.insert(pos, h.actor);
        true
    }

    /// Removes a (failed) node from both sides. Returns `true` if present.
    pub fn remove(&mut self, ids: &Roster, id: NodeId) -> bool {
        let before = self.cw.len() + self.ccw.len();
        self.cw.retain(|&e| ids.id(e) != id);
        self.ccw.retain(|&e| ids.id(e) != id);
        before != self.cw.len() + self.ccw.len()
    }
}

impl<'a> View<'a, LeafSet> {
    /// Entries per side.
    pub fn half(self) -> usize {
        self.table.half
    }

    /// True if both sides are full and `id` lies beyond both extremes as
    /// seen from `self_id`: it is not a member and
    /// [`LeafSet::insert`] would reject it. Most senders (tree peers
    /// from anywhere on the ring) are.
    pub fn out_of_reach(self, self_id: NodeId, id: NodeId) -> bool {
        let (Some(cw), Some(ccw)) = (self.cw_extreme(), self.ccw_extreme()) else {
            return false;
        };
        self.table.cw.len() == self.table.half
            && self.table.ccw.len() == self.table.half
            && self_id.cw_distance(id) > self_id.cw_distance(cw.id)
            && id.cw_distance(self_id) > ccw.id.cw_distance(self_id)
    }

    /// True if `id` is in the leaf set.
    pub fn contains(self, id: NodeId) -> bool {
        self.sides().any(|e| e.id == id)
    }

    /// Both sides, clockwise first, each closest first. A node that sits
    /// on both sides (small rings) appears twice.
    pub fn sides(self) -> impl Iterator<Item = NodeHandle> + 'a {
        let ids = self.ids;
        let (cw, ccw) = (&self.table.cw, &self.table.ccw);
        cw.iter().chain(ccw).map(move |&a| ids.handle(a))
    }

    /// All distinct members (a node may sit on both sides in small rings).
    pub fn members(self) -> Vec<NodeHandle> {
        let mut out: Vec<NodeHandle> =
            Vec::with_capacity(self.table.cw.len() + self.table.ccw.len());
        for e in self.sides() {
            if !out.iter().any(|o| o.id == e.id) {
                out.push(e);
            }
        }
        out
    }

    /// Number of distinct members: a side holds no duplicates, so only a
    /// counter-clockwise entry that also sits clockwise is counted twice.
    pub fn len(self) -> usize {
        let (cw, ccw) = (&self.table.cw, &self.table.ccw);
        let on_cw = |id: NodeId| cw.iter().any(|&c| self.ids.id(c) == id);
        let both = ccw.iter().filter(|&&e| on_cw(self.ids.id(e))).count();
        cw.len() + ccw.len() - both
    }

    /// True if no members are known.
    pub fn is_empty(self) -> bool {
        self.table.cw.is_empty() && self.table.ccw.is_empty()
    }

    /// The farthest member clockwise, if any.
    pub fn cw_extreme(self) -> Option<NodeHandle> {
        self.table.cw.last().map(|&a| self.ids.handle(a))
    }

    /// The farthest member counter-clockwise, if any.
    pub fn ccw_extreme(self) -> Option<NodeHandle> {
        self.table.ccw.last().map(|&a| self.ids.handle(a))
    }

    /// True if `key` falls within the leaf-set range of node `self_id`,
    /// i.e. between the counter-clockwise and clockwise extremes (through
    /// the local node). A side that is not yet full means the node knows
    /// its entire neighborhood on that side, so coverage extends to
    /// everything.
    pub fn covers(self, self_id: NodeId, key: Key) -> bool {
        let half = self.table.half;
        if self.table.cw.len() < half || self.table.ccw.len() < half {
            return true;
        }
        let lo = self.ccw_extreme().expect("side full").id;
        let hi = self.cw_extreme().expect("side full").id;
        // If the local id is not on the clockwise arc lo -> hi, the two
        // sides have wrapped past each other: the leaf set spans the whole
        // ring and covers every key.
        if !self_id.in_cw_arc(lo, hi) {
            return true;
        }
        key == lo || key.in_cw_arc(lo, hi)
    }

    /// The member (or the local node, represented by `self_handle`)
    /// numerically closest to `key`.
    pub fn closest(self, key: Key, self_handle: NodeHandle) -> NodeHandle {
        let mut best = self_handle;
        for e in self.sides() {
            if key.closer_of(e.id, best.id) == e.id && e.id != best.id {
                best = e;
            }
        }
        best
    }
}

/// The prefix-routing table: row `r` holds nodes sharing exactly `r` digits
/// with the local id, indexed by their digit at position `r`. Like
/// [`LeafSet`], the table does not store the local id; the methods that
/// need it take it as `self_id`.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    /// Rows up to the deepest one that ever held an entry; later rows are
    /// allocated on first use (a table fills about log16(n) of its 32
    /// rows) and read as empty until then.
    rows: Vec<Row>,
}

/// One routing-table row: sixteen actor references and a bit per filled
/// slot. The mask takes the place of an `Option` tag per slot, which
/// would cost 4 bytes each (a row is 68 bytes instead of 128), and lets
/// readers visit filled slots only.
#[derive(Debug, Clone, Copy)]
struct Row {
    slots: [ActorId; DIGIT_BASE],
    /// Bit `c` set: `slots[c]` holds an entry.
    filled: u16,
}

impl Row {
    /// A row with no slot filled; a vacant slot's actor is never read.
    const EMPTY: Row = Row {
        slots: [ActorId::new(0); DIGIT_BASE],
        filled: 0,
    };

    fn get(&self, col: usize) -> Option<ActorId> {
        (self.filled & (1 << col) != 0).then(|| self.slots[col])
    }

    /// Columns of the filled slots, lowest first.
    fn cols(&self) -> impl Iterator<Item = usize> {
        let mut left = self.filled;
        std::iter::from_fn(move || {
            let col = left.trailing_zeros() as usize;
            left &= left.wrapping_sub(1);
            (col < DIGIT_BASE).then_some(col)
        })
    }
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Offers a handle, whose id `ids` holds, to the table of node
    /// `self_id`; it lands in the row given by its shared prefix with
    /// `self_id`. An occupied slot is replaced only by a physically closer
    /// node (`proximity` = smaller is closer), which is how Pastry builds
    /// locality-aware tables. Returns `true` if the table changed.
    pub fn insert(
        &mut self,
        ids: &Roster,
        self_id: NodeId,
        h: NodeHandle,
        proximity: impl Fn(ActorId) -> u32,
    ) -> bool {
        if h.id == self_id {
            return false;
        }
        let row = self_id.shared_prefix_len(h.id);
        debug_assert!(row < NUM_DIGITS);
        let col = h.id.digit(row);
        if row >= self.rows.len() {
            self.rows.reserve_exact(row + 1 - self.rows.len());
            self.rows.resize(row + 1, Row::EMPTY);
        }
        let row = &mut self.rows[row];
        match row.get(col) {
            None => {
                row.slots[col] = h.actor;
                row.filled |= 1 << col;
                true
            }
            Some(existing) if ids.id(existing) == h.id => false,
            Some(existing) => {
                if proximity(h.actor) < proximity(existing) {
                    row.slots[col] = h.actor;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes a (failed) node wherever it appears. Returns `true` if it
    /// was present.
    pub fn remove(&mut self, ids: &Roster, id: NodeId) -> bool {
        let mut removed = false;
        for row in &mut self.rows {
            for col in 0..DIGIT_BASE {
                if row.get(col).is_some_and(|a| ids.id(a) == id) {
                    row.filled &= !(1 << col);
                    removed = true;
                }
            }
        }
        removed
    }
}

impl<'a> View<'a, RoutingTable> {
    /// The entry at (`row`, `col`), if any.
    ///
    /// # Panics
    ///
    /// Panics if `col >= 16`.
    pub fn entry(self, row: usize, col: usize) -> Option<NodeHandle> {
        assert!(col < DIGIT_BASE, "column {col} out of range");
        let actor = self.table.rows.get(row).and_then(|r| r.get(col));
        actor.map(|a| self.ids.handle(a))
    }

    /// The next hop the prefix rule of node `self_id` proposes for `key`,
    /// if the slot is filled.
    pub fn next_hop(self, self_id: NodeId, key: Key) -> Option<NodeHandle> {
        let row = self_id.shared_prefix_len(key);
        if row >= NUM_DIGITS {
            return None; // key == self id
        }
        self.entry(row, key.digit(row))
    }

    /// All filled entries, row by row, lowest column first.
    pub fn entries(self) -> impl Iterator<Item = NodeHandle> + 'a {
        let ids = self.ids;
        (self.table.rows.iter())
            .flat_map(|row| row.cols().map(|col| row.slots[col]))
            .map(move |a| ids.handle(a))
    }

    /// The contents of row `row` (used by the join protocol, where each
    /// node along the join route contributes one row).
    pub fn row(self, row: usize) -> Vec<NodeHandle> {
        self.table.rows.get(row).map_or_else(Vec::new, |r| {
            r.cols().map(|col| self.ids.handle(r.slots[col])).collect()
        })
    }

    /// Number of filled slots.
    pub fn len(self) -> usize {
        (self.table.rows.iter())
            .map(|r| r.filled.count_ones() as usize)
            .sum()
    }

    /// Number of rows allocated: one past the deepest row that was ever
    /// offered an entry.
    pub fn num_rows(self) -> usize {
        self.table.rows.len()
    }

    /// True if no slots are filled.
    pub fn is_empty(self) -> bool {
        self.table.rows.iter().all(|r| r.filled == 0)
    }
}

/// The neighbor set `M`: the physically closest nodes regardless of id —
/// the set v-Bundle's placement algorithm walks when the target server
/// cannot host a new VM (§II.B). Like [`LeafSet`], the set does not store
/// the owner's id; [`insert`](NeighborSet::insert) takes it as `self_id`.
#[derive(Debug, Clone)]
pub struct NeighborSet {
    capacity: usize,
    /// Sorted by (proximity, ring distance to owner), ascending.
    items: Vec<(u32, ActorId)>,
}

impl NeighborSet {
    /// Creates an empty neighbor set holding up to `capacity` nodes.
    pub fn new(capacity: usize) -> Self {
        NeighborSet {
            capacity,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offers a handle, whose id `ids` holds, with the given physical
    /// proximity (smaller = closer) to the neighbor set of node `self_id`.
    /// Returns `true` if the set changed.
    pub fn insert(&mut self, ids: &Roster, self_id: NodeId, h: NodeHandle, proximity: u32) -> bool {
        if h.id == self_id {
            return false;
        }
        let sort_key = (proximity, self_id.ring_distance(h.id));
        // A full set rejects anything sorting after its last member, and a
        // member would be rejected as a duplicate: no scan either way.
        let rank = |&(p, e): &(u32, ActorId)| (p, self_id.ring_distance(ids.id(e)));
        if self.items.len() == self.capacity
            && self.items.last().is_some_and(|l| sort_key > rank(l))
        {
            return false;
        }
        if self.items.iter().any(|&(_, e)| ids.id(e) == h.id) {
            return false;
        }
        let pos = self
            .items
            .binary_search_by(|item| rank(item).cmp(&sort_key))
            .unwrap_or_else(|p| p);
        if pos >= self.capacity {
            return false;
        }
        if self.items.len() == self.capacity {
            self.items.pop();
        }
        self.items.insert(pos, (proximity, h.actor));
        true
    }

    /// Removes a (failed) node. Returns `true` if present.
    pub fn remove(&mut self, ids: &Roster, id: NodeId) -> bool {
        let before = self.items.len();
        self.items.retain(|&(_, e)| ids.id(e) != id);
        before != self.items.len()
    }
}

impl<'a> View<'a, NeighborSet> {
    /// Members, physically closest first.
    pub fn members(self) -> impl Iterator<Item = NodeHandle> + 'a {
        let ids = self.ids;
        self.table.items.iter().map(move |&(_, a)| ids.handle(a))
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.table.items.len()
    }

    /// True if there are no members.
    pub fn is_empty(self) -> bool {
        self.table.items.is_empty()
    }
}

/// Physical distance between two actors under `topo`, `u32::MAX` when
/// either actor lies outside the server range.
pub fn actor_distance(topo: &Topology, a: ActorId, b: ActorId) -> u32 {
    if a.index() < topo.num_servers() && b.index() < topo.num_servers() {
        topo.distance(topo.server(a.index()), topo.server(b.index()))
    } else {
        u32::MAX
    }
}

/// [`actor_distance`] from two `(actor, site)` pairs, without the
/// topology: a caller that compares many actors against the same one
/// looks each [`Site`] up once instead of once per comparison.
#[inline]
pub fn site_distance(a: (ActorId, Site), b: (ActorId, Site)) -> u32 {
    if a.1 == Site::OFF || b.1 == Site::OFF {
        u32::MAX
    } else if a.0 == b.0 {
        0
    } else if a.1.rack == b.1.rack {
        1
    } else if a.1.pod == b.1.pod {
        2
    } else {
        3
    }
}

/// Where an actor sits in the datacenter. [`actor_distance`] between two
/// actors follows from their identities and sites alone, so a structure
/// keyed on sites can rank by distance without the topology at hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Dense rack index.
    pub rack: u32,
    /// Dense pod index.
    pub pod: u32,
}

impl Site {
    /// The site of an actor that is not a server of the topology: in no
    /// rack or pod, at distance `u32::MAX` from everything.
    pub const OFF: Site = Site {
        rack: u32::MAX,
        pod: u32::MAX,
    };

    /// The site of `actor` under `topo`.
    #[inline]
    pub fn of(topo: &Topology, actor: ActorId) -> Site {
        if actor.index() >= topo.num_servers() {
            return Site::OFF;
        }
        let server = topo.server(actor.index());
        Site {
            rack: topo.rack_of(server).index() as u32,
            pod: topo.pod_of(server).index() as u32,
        }
    }
}

/// Where a routed message should go next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The local node is (as far as it knows) numerically closest: deliver.
    DeliverHere,
    /// Forward to this node.
    Forward(NodeHandle),
}

/// Slots in [`PastryState`]'s settled-peer memo (84 bytes per node).
const SETTLED_SLOTS: usize = 21;

/// A known node's place in [`PastryState`]: the top two bits name the
/// structure, the low 14 bits the index in it.
type Slot = u16;
const SLOT_CW: Slot = 0;
const SLOT_CCW: Slot = 1 << 14;
/// Index `row * 16 + column`: at most 32 × 16 = 512.
const SLOT_ROW: Slot = 2 << 14;
const SLOT_NEIGHBOR: Slot = 3 << 14;
const SLOT_INDEX: Slot = (1 << 14) - 1;

/// The known nodes ranked by nearness to one target, nearest first.
struct Ranking {
    target: NodeHandle,
    /// Every distinct known node once; empty when the state changed
    /// since it was ranked (or no node is known), which a query takes
    /// as a miss.
    order: Vec<Slot>,
}

/// [`PastryState::nearest`]'s memo, boxed on the first query: a node
/// that never answers one carries 8 bytes for it. Cloning a state
/// leaves the clone's memo empty.
#[derive(Default)]
struct RankMemo(Cell<Option<Box<Ranking>>>);

impl Clone for RankMemo {
    fn clone(&self) -> Self {
        RankMemo::default()
    }
}

impl fmt::Debug for RankMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RankMemo")
    }
}

impl RankMemo {
    /// Marks the ranking stale, keeping its allocation for the next one.
    fn invalidate(&mut self) {
        if let Some(ranking) = self.0.get_mut() {
            ranking.order.clear();
        }
    }
}

/// The heap a [`PastryState`]'s tables hold, in bytes, as allocated
/// (see [`PastryState::table_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableBytes {
    /// Both sides of the leaf set.
    pub leaf_set: usize,
    /// The neighbor set.
    pub neighbor_set: usize,
    /// The routing table's rows.
    pub routing_rows: usize,
}

// Layout guards for what every server carries inline: its state holds
// actor references, its ids live in the roster.
const _: () = assert!(std::mem::size_of::<Row>() <= 68);
const _: () = assert!(std::mem::size_of::<PastryState>() <= 240);

/// The complete routing state of one Pastry node.
#[derive(Debug, Clone)]
pub struct PastryState {
    handle: NodeHandle,
    leaf_set: LeafSet,
    routing_table: RoutingTable,
    neighbor_set: NeighborSet,
    topology: Arc<Topology>,
    /// The ids of the actors the three structures hold, shared with the
    /// overlay's other states.
    roster: Rc<Roster>,
    /// Actors whose last [`learn`](PastryState::learn) changed nothing,
    /// direct-mapped by actor index. `learn` is a pure function of the
    /// three structures and the handle, and a handle that passed the
    /// roster check is named by its actor alone, so until a structure
    /// changes — which wipes the memo — offering the same actor again is
    /// a no-op, and the steady-state ring neighbours (one heartbeat each,
    /// every round) cost one compare per message instead of three scans.
    /// Senders out of the leaf set's reach are rejected without a scan
    /// anyway and are not admitted, so a tree hub's many children cannot
    /// evict its ring neighbours. A vacant slot holds the local actor,
    /// for which `learn` is a no-op by definition.
    settled: [ActorId; SETTLED_SLOTS],
    /// The last [`nearest`](PastryState::nearest) ranking, wiped with
    /// `settled`: both hold only while the three structures do not change.
    ranking: RankMemo,
}

impl PastryState {
    /// Creates empty state for a node, on a roster of its own that holds
    /// its id (a node that joins by protocol; see
    /// [`build_states`](crate::overlay::build_states) for states that
    /// share one).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_half` or `neighbor_capacity` exceeds 16 384.
    pub fn new(
        handle: NodeHandle,
        topology: Arc<Topology>,
        leaf_half: usize,
        neighbor_capacity: usize,
    ) -> Self {
        let roster = Rc::new(Roster::of(&[handle]));
        PastryState::on_roster(handle, roster, topology, leaf_half, neighbor_capacity)
    }

    /// Creates empty state for a node whose id `roster` holds.
    ///
    /// # Panics
    ///
    /// Panics as [`new`](PastryState::new) does, or if `roster` gives
    /// the node's actor another id.
    pub(crate) fn on_roster(
        handle: NodeHandle,
        roster: Rc<Roster>,
        topology: Arc<Topology>,
        leaf_half: usize,
        neighbor_capacity: usize,
    ) -> Self {
        assert!(
            leaf_half.max(neighbor_capacity) <= usize::from(SLOT_INDEX) + 1,
            "leaf set half {leaf_half} or neighbor set {neighbor_capacity} too large"
        );
        assert!(roster.admit(handle), "the roster gives {handle} another id");
        PastryState {
            handle,
            leaf_set: LeafSet::new(leaf_half),
            routing_table: RoutingTable::new(),
            neighbor_set: NeighborSet::new(neighbor_capacity),
            topology,
            roster,
            settled: [handle.actor; SETTLED_SLOTS],
            ranking: RankMemo::default(),
        }
    }

    /// This node's own handle.
    pub fn handle(&self) -> NodeHandle {
        self.handle
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.handle.id
    }

    /// The shared datacenter topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The roster that holds the ids of the nodes this state stores.
    pub fn roster(&self) -> &Rc<Roster> {
        &self.roster
    }

    /// The leaf set.
    pub fn leaf_set(&self) -> View<'_, LeafSet> {
        View {
            table: &self.leaf_set,
            ids: &self.roster,
        }
    }

    /// The routing table.
    pub fn routing_table(&self) -> View<'_, RoutingTable> {
        View {
            table: &self.routing_table,
            ids: &self.roster,
        }
    }

    /// The neighbor set.
    pub fn neighbor_set(&self) -> View<'_, NeighborSet> {
        View {
            table: &self.neighbor_set,
            ids: &self.roster,
        }
    }

    /// The heap each table holds: its allocation, full or not. The rank
    /// memo and the roster shared with the overlay are not counted.
    pub fn table_bytes(&self) -> TableBytes {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let (leaf, table) = (&self.leaf_set, &self.routing_table);
        TableBytes {
            leaf_set: bytes(&leaf.cw) + bytes(&leaf.ccw),
            neighbor_set: bytes(&self.neighbor_set.items),
            routing_rows: bytes(&table.rows),
        }
    }

    /// Physical distance from this node to another actor (0 same server …
    /// 3 cross-pod; `u32::MAX` for actors outside the topology).
    pub fn proximity(&self, actor: ActorId) -> u32 {
        actor_distance(&self.topology, self.handle.actor, actor)
    }

    /// Learns about a node: offered to the leaf set, routing table and
    /// neighbor set. Returns `true` if any structure changed. A handle
    /// whose id contradicts the roster's entry for its actor is a forged
    /// certificate: it changes nothing and returns `false`.
    pub fn learn(&mut self, h: NodeHandle) -> bool {
        let me = self.handle.id;
        if h.id == me || !self.roster.admit(h) {
            return false;
        }
        let slot = h.actor.index() % SETTLED_SLOTS;
        if self.settled[slot] == h.actor {
            return false;
        }
        let ids = &*self.roster;
        let far = self.leaf_set().out_of_reach(me, h.id);
        let prox = self.proximity(h.actor);
        let mut changed = !far && self.leaf_set.insert(ids, me, h);
        let (topo, my_actor) = (&self.topology, self.handle.actor);
        changed |= (self.routing_table).insert(ids, me, h, |c| actor_distance(topo, my_actor, c));
        changed |= self.neighbor_set.insert(ids, me, h, prox);
        if changed {
            self.settled.fill(self.handle.actor);
            self.ranking.invalidate();
        } else if !far {
            self.settled[slot] = h.actor;
        }
        changed
    }

    /// Forgets a (failed) node everywhere. Returns `true` if it was known.
    pub fn forget(&mut self, id: NodeId) -> bool {
        let ids = &*self.roster;
        let a = self.leaf_set.remove(ids, id);
        let b = self.routing_table.remove(ids, id);
        let c = self.neighbor_set.remove(ids, id);
        let changed = a || b || c;
        if changed {
            self.settled.fill(self.handle.actor);
            self.ranking.invalidate();
        }
        changed
    }

    /// Every node this state knows about, without allocating: leaf set
    /// clockwise then counter-clockwise, routing-table entries row by row,
    /// then neighbor-set members — the order of [`known_nodes`], except
    /// that a node held by several structures is yielded once per
    /// structure. Fine for first-minimum searches (`min_by_key` keeps the
    /// first of equal keys, and a repeat can only tie with its own first
    /// occurrence); use [`known_nodes`] where each node must appear once.
    ///
    /// [`known_nodes`]: PastryState::known_nodes
    pub fn known_iter(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        (self.leaf_set().sides())
            .chain(self.routing_table().entries())
            .chain(self.neighbor_set().members())
    }

    /// Every distinct node this state knows about, each at its first
    /// occurrence in [`known_iter`](PastryState::known_iter) order.
    pub fn known_nodes(&self) -> Vec<NodeHandle> {
        let leaf = &self.leaf_set;
        let mut out = Vec::with_capacity(leaf.cw.len() + leaf.ccw.len());
        out.extend(self.distinct_slots().map(|slot| self.at(slot)));
        out
    }

    /// The known node nearest `target` that `skip` does not reject, by
    /// the key `(distance to target, distance to this node, ring distance
    /// to target)`, the first in [`known_iter`] order on equal keys.
    /// Distances are [`actor_distance`]s. This is v-Bundle's boot walk
    /// (§II.B): a full server forwards to the known server physically
    /// closest to the customer key's root.
    ///
    /// The known nodes are ranked by that key once per target and kept:
    /// until the target changes or [`learn`](PastryState::learn) or
    /// [`forget`](PastryState::forget) changes a structure, a query walks
    /// the ranking and stops at the first node not skipped. A new ranking
    /// reuses the memo's allocation, which grows only when more nodes
    /// are known than ever before.
    ///
    /// [`known_iter`]: PastryState::known_iter
    pub fn nearest(
        &self,
        target: NodeHandle,
        mut skip: impl FnMut(ActorId) -> bool,
    ) -> Option<NodeHandle> {
        let mut ranking = self.ranking.0.take().unwrap_or_else(|| {
            Box::new(Ranking {
                target,
                order: Vec::new(),
            })
        });
        if ranking.target != target || ranking.order.is_empty() {
            ranking.target = target;
            self.rank(target, &mut ranking.order);
        }
        let found = (ranking.order.iter())
            .map(|&slot| self.actor_at(slot))
            .find(|&a| !skip(a));
        self.ranking.0.set(Some(ranking));
        found.map(|a| self.roster.handle(a))
    }

    /// Fills `order` with every distinct known node, nearest `target`
    /// first (the key of [`nearest`](PastryState::nearest)). Before the
    /// stable sort the nodes stand in [`known_iter`] order, each at its
    /// first occurrence, so equal keys keep that order.
    ///
    /// [`known_iter`]: PastryState::known_iter
    fn rank(&self, target: NodeHandle, order: &mut Vec<Slot>) {
        order.clear();
        order.reserve_exact(self.distinct_slots().count());
        order.extend(self.distinct_slots());
        let topo = &*self.topology;
        let target_at = (target.actor, Site::of(topo, target.actor));
        let me_at = (self.handle.actor, Site::of(topo, self.handle.actor));
        order.sort_by_key(|&slot| {
            let h = self.at(slot);
            let at = (h.actor, Site::of(topo, h.actor));
            (
                site_distance(at, target_at),
                site_distance(at, me_at),
                h.id.ring_distance(target.id),
            )
        });
    }

    /// The slot of each distinct known node at its first occurrence in
    /// [`known_iter`](PastryState::known_iter) order. A side of the leaf
    /// set, the routing table and the neighbor set hold no repeats of
    /// their own, and a node the table holds sits in the slot its id
    /// names, so a repeat is found without a scan of the table.
    fn distinct_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        let (leaf, table, ids) = (self.leaf_set(), self.routing_table(), &*self.roster);
        let me = self.handle.id;
        let in_table = move |id: NodeId| {
            let row = me.shared_prefix_len(id);
            table.entry(row, id.digit(row)).is_some_and(|e| e.id == id)
        };
        let (cw, ccw) = (&self.leaf_set.cw, &self.leaf_set.ccw);
        let on_cw = move |id: NodeId| cw.iter().any(|&c| ids.id(c) == id);
        let cw_slots = (0..cw.len()).map(|i| SLOT_CW | i as Slot);
        let ccw_slots = (ccw.iter().enumerate())
            .filter(move |&(_, &a)| !on_cw(ids.id(a)))
            .map(|(i, _)| SLOT_CCW | i as Slot);
        let rows = self.routing_table.rows.iter().enumerate();
        let rows = rows.flat_map(move |(r, row)| {
            row.cols()
                .filter(move |&col| !leaf.contains(ids.id(row.slots[col])))
                .map(move |col| SLOT_ROW | (r * DIGIT_BASE + col) as Slot)
        });
        let neighbors = (self.neighbor_set.items.iter().enumerate())
            .filter(move |&(_, &(_, a))| {
                let id = ids.id(a);
                !leaf.contains(id) && !in_table(id)
            })
            .map(|(i, _)| SLOT_NEIGHBOR | i as Slot);
        cw_slots.chain(ccw_slots).chain(rows).chain(neighbors)
    }

    /// The actor of the known node at `slot`.
    #[inline]
    fn actor_at(&self, slot: Slot) -> ActorId {
        let i = usize::from(slot & SLOT_INDEX);
        match slot & !SLOT_INDEX {
            SLOT_CW => self.leaf_set.cw[i],
            SLOT_CCW => self.leaf_set.ccw[i],
            SLOT_ROW => self.routing_table.rows[i / DIGIT_BASE].slots[i % DIGIT_BASE],
            _ => self.neighbor_set.items[i].1,
        }
    }

    /// The known node at `slot`.
    #[inline]
    fn at(&self, slot: Slot) -> NodeHandle {
        self.roster.handle(self.actor_at(slot))
    }

    /// The Pastry routing rule (§II.A): leaf set if the key is in range,
    /// else the routing-table prefix rule, else any known node that is both
    /// no worse in prefix length and numerically closer ("rare case").
    pub fn route_decision(&self, key: Key) -> RouteDecision {
        if key == self.handle.id {
            return RouteDecision::DeliverHere;
        }
        // (1) Leaf-set rule.
        let leaf = self.leaf_set();
        if leaf.covers(self.handle.id, key) {
            let closest = leaf.closest(key, self.handle);
            return if closest.id == self.handle.id {
                RouteDecision::DeliverHere
            } else {
                RouteDecision::Forward(closest)
            };
        }
        // (2) Prefix rule.
        if let Some(next) = self.routing_table().next_hop(self.handle.id, key) {
            return RouteDecision::Forward(next);
        }
        // (3) Rare case: improve numerically without losing prefix length.
        let own_prefix = self.handle.id.shared_prefix_len(key);
        let own_dist = self.handle.id.ring_distance(key);
        let mut best: Option<(usize, u128, NodeHandle)> = None;
        for h in self.known_iter() {
            let p = h.id.shared_prefix_len(key);
            let d = h.id.ring_distance(key);
            if p >= own_prefix && d < own_dist {
                let candidate = (p, d, h);
                let better = match &best {
                    None => true,
                    Some((bp, bd, _)) => (p, std::cmp::Reverse(d)) > (*bp, std::cmp::Reverse(*bd)),
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        match best {
            Some((_, _, h)) => RouteDecision::Forward(h),
            None => RouteDecision::DeliverHere,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Id;

    fn h(v: u128, actor: u32) -> NodeHandle {
        NodeHandle::new(Id::from_u128(v), ActorId::new(actor))
    }

    /// One table with a roster of its own, offered handles the way
    /// [`PastryState::learn`] offers them: admitted to the roster first.
    struct Bare<T> {
        table: T,
        ids: Roster,
    }

    impl<T> Bare<T> {
        fn new(table: T) -> Self {
            Bare {
                table,
                ids: Roster::default(),
            }
        }

        fn view(&self) -> View<'_, T> {
            View {
                table: &self.table,
                ids: &self.ids,
            }
        }

        fn admit(&self, h: NodeHandle) -> NodeHandle {
            assert!(self.ids.admit(h), "{h} contradicts the roster");
            h
        }
    }

    impl Bare<LeafSet> {
        fn insert(&mut self, me: NodeId, h: NodeHandle) -> bool {
            let h = self.admit(h);
            self.table.insert(&self.ids, me, h)
        }

        fn remove(&mut self, id: NodeId) -> bool {
            self.table.remove(&self.ids, id)
        }
    }

    impl Bare<RoutingTable> {
        fn insert(&mut self, me: NodeId, h: NodeHandle, prox: impl Fn(ActorId) -> u32) -> bool {
            let h = self.admit(h);
            self.table.insert(&self.ids, me, h, prox)
        }

        fn remove(&mut self, id: NodeId) -> bool {
            self.table.remove(&self.ids, id)
        }
    }

    impl Bare<NeighborSet> {
        fn insert(&mut self, me: NodeId, h: NodeHandle, prox: u32) -> bool {
            let h = self.admit(h);
            self.table.insert(&self.ids, me, h, prox)
        }

        fn remove(&mut self, id: NodeId) -> bool {
            self.table.remove(&self.ids, id)
        }
    }

    /// The neighbor-set insert as it was before the pop-first change:
    /// a full duplicate scan, a binary search, insert, then truncate.
    fn neighbors_reference(
        items: &mut Vec<(u32, NodeHandle)>,
        me: NodeId,
        h: NodeHandle,
        prox: u32,
        capacity: usize,
    ) -> bool {
        if items.iter().any(|(_, e)| e.id == h.id) {
            return false;
        }
        let key = (prox, me.ring_distance(h.id));
        let pos = items
            .binary_search_by(|(p, e)| (*p, me.ring_distance(e.id)).cmp(&key))
            .unwrap_or_else(|p| p);
        if pos >= capacity {
            return false;
        }
        items.insert(pos, (prox, h));
        items.truncate(capacity);
        true
    }

    /// The leaf-set side rule before the pop-first change: insert, then
    /// cut back to `half`.
    fn side_reference(
        side: &mut Vec<NodeHandle>,
        h: NodeHandle,
        half: usize,
        dist: impl Fn(NodeId) -> u128,
    ) -> bool {
        if side.iter().any(|e| e.id == h.id) {
            return false;
        }
        let pos = side
            .binary_search_by(|e| dist(e.id).cmp(&dist(h.id)))
            .unwrap_or_else(|p| p);
        if pos >= half {
            return false;
        }
        side.insert(pos, h);
        side.truncate(half);
        true
    }

    /// The routing table as it was stored before the occupancy masks and
    /// the actor references: one `Option<NodeHandle>` per slot.
    struct TableModel {
        self_id: NodeId,
        rows: Vec<[Option<NodeHandle>; DIGIT_BASE]>,
    }

    impl TableModel {
        fn insert(&mut self, h: NodeHandle, proximity: impl Fn(&NodeHandle) -> u32) -> bool {
            if h.id == self.self_id {
                return false;
            }
            let row = self.self_id.shared_prefix_len(h.id);
            let col = h.id.digit(row);
            if row >= self.rows.len() {
                self.rows.resize(row + 1, [None; DIGIT_BASE]);
            }
            match &mut self.rows[row][col] {
                slot @ None => {
                    *slot = Some(h);
                    true
                }
                Some(existing) if existing.id == h.id => false,
                Some(existing) if proximity(&h) < proximity(existing) => {
                    *existing = h;
                    true
                }
                Some(_) => false,
            }
        }

        fn remove(&mut self, id: NodeId) -> bool {
            let mut removed = false;
            for slot in self.rows.iter_mut().flatten() {
                if slot.map(|h| h.id) == Some(id) {
                    *slot = None;
                    removed = true;
                }
            }
            removed
        }

        fn entries(&self) -> Vec<NodeHandle> {
            self.rows.iter().flatten().filter_map(|s| *s).collect()
        }

        fn entry(&self, row: usize, col: usize) -> Option<NodeHandle> {
            self.rows.get(row).and_then(|r| r[col])
        }

        fn row(&self, row: usize) -> Vec<NodeHandle> {
            (0..DIGIT_BASE).filter_map(|c| self.entry(row, c)).collect()
        }

        fn next_hop(&self, key: Key) -> Option<NodeHandle> {
            let row = self.self_id.shared_prefix_len(key);
            if row >= NUM_DIGITS {
                return None;
            }
            self.entry(row, key.digit(row))
        }
    }

    mod leaf_set {
        use super::*;

        #[test]
        fn keeps_closest_per_side() {
            let me = Id::from_u128(100);
            let mut ls = Bare::new(LeafSet::new(2));
            for (v, a) in [(110, 1), (120, 2), (130, 3), (90, 4), (80, 5), (70, 6)] {
                ls.insert(me, h(v, a));
            }
            let view = ls.view();
            assert_eq!(view.cw_extreme().unwrap().id, Id::from_u128(120));
            assert_eq!(view.ccw_extreme().unwrap().id, Id::from_u128(80));
            assert!(view.contains(Id::from_u128(110)));
            assert!(!view.contains(Id::from_u128(130)));
            assert!(!view.contains(Id::from_u128(70)));
        }

        #[test]
        fn rejects_self_and_duplicates() {
            let me = Id::from_u128(100);
            let mut ls = Bare::new(LeafSet::new(2));
            assert!(!ls.insert(me, h(100, 0)));
            assert!(ls.insert(me, h(110, 1)));
            assert!(!ls.insert(me, h(110, 1)));
            assert_eq!(ls.view().len(), 1);
        }

        #[test]
        fn wrap_around_distances() {
            let me = Id::from_u128(5);
            let mut ls = Bare::new(LeafSet::new(1));
            ls.insert(me, h(u128::MAX - 2, 1)); // 8 counter-clockwise of 5
            ls.insert(me, h(2, 2)); // 3 counter-clockwise
            ls.insert(me, h(10, 3)); // 5 clockwise

            // The wrap-around id at distance 8 loses the single ccw slot to
            // the id at distance 3; the cw slot goes to the nearest cw id.
            assert_eq!(ls.view().ccw_extreme().unwrap().id, Id::from_u128(2));
            assert_eq!(ls.view().cw_extreme().unwrap().id, Id::from_u128(10));
        }

        #[test]
        fn small_ring_node_on_both_sides() {
            let me = Id::from_u128(100);
            let mut ls = Bare::new(LeafSet::new(4));
            ls.insert(me, h(200, 1));
            // Only two nodes in the ring: 200 is both cw and ccw neighbor.
            assert_eq!(ls.view().members().len(), 1);
            assert!(ls.view().covers(me, Id::from_u128(u128::MAX)));
        }

        #[test]
        fn coverage_when_full() {
            let me = Id::from_u128(100);
            let mut ls = Bare::new(LeafSet::new(1));
            ls.insert(me, h(120, 1));
            ls.insert(me, h(80, 2));
            let view = ls.view();
            assert!(view.covers(me, Id::from_u128(100)));
            assert!(view.covers(me, Id::from_u128(80)));
            assert!(view.covers(me, Id::from_u128(120)));
            assert!(view.covers(me, Id::from_u128(95)));
            assert!(!view.covers(me, Id::from_u128(121)));
            assert!(!view.covers(me, Id::from_u128(79)));
        }

        #[test]
        fn closest_prefers_nearest() {
            let self_h = h(100, 0);
            let me = self_h.id;
            let mut ls = Bare::new(LeafSet::new(2));
            ls.insert(me, h(120, 1));
            ls.insert(me, h(80, 2));
            let closest = |key| ls.view().closest(Id::from_u128(key), self_h).id;
            assert_eq!(closest(118), Id::from_u128(120));
            assert_eq!(closest(101), Id::from_u128(100));
            assert_eq!(closest(82), Id::from_u128(80));
        }

        #[test]
        fn remove_both_sides() {
            let me = Id::from_u128(100);
            let mut ls = Bare::new(LeafSet::new(4));
            ls.insert(me, h(110, 1));
            assert!(ls.remove(Id::from_u128(110)));
            assert!(ls.view().is_empty());
            assert!(!ls.remove(Id::from_u128(110)));
        }
    }

    mod routing_table {
        use super::*;

        #[test]
        fn places_by_prefix_row() {
            let self_id = Id::from_u128(0x1234 << 112);
            let mut rt = Bare::new(RoutingTable::new());
            // Shares 0 digits: row 0, col = first digit.
            let far = h(0xF000 << 112, 1);
            assert!(rt.insert(self_id, far, |_| 3));
            assert_eq!(rt.view().entry(0, 0xF), Some(far));
            // Shares 2 digits (0x12..): row 2, col 7.
            let near = h(0x127F << 112, 2);
            assert!(rt.insert(self_id, near, |_| 3));
            assert_eq!(rt.view().entry(2, 7), Some(near));
            assert_eq!(rt.view().len(), 2);
        }

        #[test]
        fn keeps_physically_closer_on_conflict() {
            let self_id = Id::from_u128(0);
            let mut rt = Bare::new(RoutingTable::new());
            let a = h(0xF000 << 112, 1);
            let b = h(0xF111 << 112, 2);
            let prox = |x: ActorId| if x.index() == 2 { 1 } else { 3 };
            assert!(rt.insert(self_id, a, |_| 3));
            // Same slot (row 0, col F), b is closer -> replaces.
            assert!(rt.insert(self_id, b, prox));
            assert_eq!(rt.view().entry(0, 0xF), Some(b));
            // a is farther -> rejected.
            assert!(!rt.insert(self_id, a, prox));
        }

        #[test]
        fn next_hop_follows_prefix() {
            let self_id = Id::from_u128(0x1000 << 112);
            let mut rt = Bare::new(RoutingTable::new());
            let target = h(0x1200 << 112, 1);
            rt.insert(self_id, target, |_| 0);
            let key = Id::from_u128(0x12FF << 112);
            assert_eq!(rt.view().next_hop(self_id, key), Some(target));
            assert_eq!(rt.view().next_hop(self_id, self_id), None);
        }

        #[test]
        fn remove_clears_all_occurrences() {
            let self_id = Id::from_u128(0);
            let mut rt = Bare::new(RoutingTable::new());
            let a = h(0xF000 << 112, 1);
            rt.insert(self_id, a, |_| 0);
            assert!(rt.remove(a.id));
            assert!(rt.view().is_empty());
            assert!(!rt.remove(a.id));
        }

        #[test]
        fn row_lists_entries() {
            let self_id = Id::from_u128(0);
            let mut rt = Bare::new(RoutingTable::new());
            rt.insert(self_id, h(0x1000 << 112, 1), |_| 0);
            rt.insert(self_id, h(0x2000 << 112, 2), |_| 0);
            assert_eq!(rt.view().row(0).len(), 2);
            assert!(rt.view().row(1).is_empty());
        }
    }

    mod neighbor_set {
        use super::*;

        #[test]
        fn orders_by_proximity() {
            let me = Id::from_u128(0);
            let mut ns = Bare::new(NeighborSet::new(2));
            assert!(ns.insert(me, h(1, 1), 3));
            assert!(ns.insert(me, h(2, 2), 1));
            assert!(ns.insert(me, h(3, 3), 2));
            let members: Vec<_> = ns.view().members().collect();
            assert_eq!(members.len(), 2);
            assert_eq!(members[0].id, Id::from_u128(2));
            assert_eq!(members[1].id, Id::from_u128(3));
            // Farther node rejected when full.
            assert!(!ns.insert(me, h(4, 4), 5));
        }

        #[test]
        fn remove_and_duplicates() {
            let me = Id::from_u128(0);
            let mut ns = Bare::new(NeighborSet::new(4));
            ns.insert(me, h(1, 1), 1);
            assert!(!ns.insert(me, h(1, 1), 1));
            assert!(ns.remove(Id::from_u128(1)));
            assert!(ns.view().is_empty());
        }
    }

    mod decisions {
        use super::*;

        fn state_with(
            topology: Arc<Topology>,
            self_v: u128,
            others: &[(u128, u32)],
        ) -> PastryState {
            let mut st = PastryState::new(h(self_v, 0), topology, 2, 4);
            for &(v, a) in others {
                st.learn(h(v, a));
            }
            st
        }

        fn topo4() -> Arc<Topology> {
            Arc::new(
                Topology::builder()
                    .pods(1)
                    .racks_per_pod(2)
                    .servers_per_rack(2)
                    .build(),
            )
        }

        #[test]
        fn delivers_own_key() {
            let st = state_with(topo4(), 100, &[(200, 1)]);
            assert_eq!(
                st.route_decision(Id::from_u128(100)),
                RouteDecision::DeliverHere
            );
        }

        #[test]
        fn leaf_set_rule_delivers_or_forwards() {
            let st = state_with(topo4(), 100, &[(140, 1), (60, 2)]);
            // Leaf set not full -> covers everything; closest wins.
            assert_eq!(
                st.route_decision(Id::from_u128(110)),
                RouteDecision::DeliverHere
            );
            match st.route_decision(Id::from_u128(135)) {
                RouteDecision::Forward(n) => assert_eq!(n.id, Id::from_u128(140)),
                other => panic!("expected forward, got {other:?}"),
            }
        }

        #[test]
        fn prefix_rule_fires_outside_leaf_range() {
            let topo = Arc::new(
                Topology::builder()
                    .pods(1)
                    .racks_per_pod(4)
                    .servers_per_rack(4)
                    .build(),
            );
            // Fill the leaf set (half=2) with near ids so distant keys are
            // out of range, then verify the routing table proposes the hop.
            let self_v = 0x8000_0000_0000_0000_0000_0000_0000_0000u128;
            let near = [
                (self_v + 1, 1),
                (self_v + 2, 2),
                (self_v - 1, 3),
                (self_v - 2, 4),
            ];
            let mut st = PastryState::new(h(self_v, 0), topo, 2, 4);
            for (v, a) in near {
                st.learn(h(v, a));
            }
            let far = h(0x1000_0000_0000_0000_0000_0000_0000_0000, 5);
            st.learn(far);
            let key = Id::from_u128(0x1FFF_0000_0000_0000_0000_0000_0000_0000);
            assert_eq!(st.route_decision(key), RouteDecision::Forward(far));
        }

        #[test]
        fn rare_case_moves_numerically_closer() {
            let topo = topo4();
            let self_v = 0x8000_0000_0000_0000_0000_0000_0000_0000u128;
            let mut st = PastryState::new(h(self_v, 0), topo, 1, 4);
            // Fill leaf set with immediate neighbors so coverage is tight.
            st.learn(h(self_v + 1, 1));
            st.learn(h(self_v - 1, 2));
            // A node numerically closer to the key but whose routing-table
            // slot collides with an existing entry is still reachable via
            // the rare-case scan.
            let key = Id::from_u128(0x9000_0000_0000_0000_0000_0000_0000_0000);
            let closer = h(0x8FFF_0000_0000_0000_0000_0000_0000_0000, 3);
            st.learn(closer);
            match st.route_decision(key) {
                RouteDecision::Forward(n) => assert_eq!(n.id, closer.id),
                other => panic!("expected forward, got {other:?}"),
            }
        }

        #[test]
        fn isolated_node_delivers_everything() {
            let st = state_with(topo4(), 100, &[]);
            assert_eq!(
                st.route_decision(Id::from_u128(u128::MAX)),
                RouteDecision::DeliverHere
            );
        }

        #[test]
        fn forget_purges_everywhere() {
            let mut st = state_with(topo4(), 100, &[(140, 1), (60, 2)]);
            assert!(st.forget(Id::from_u128(140)));
            assert!(!st.forget(Id::from_u128(140)));
            assert!(st.known_nodes().iter().all(|n| n.id != Id::from_u128(140)));
        }

        #[test]
        fn learn_feeds_all_structures() {
            let mut st = state_with(topo4(), 0x8000 << 112, &[]);
            assert!(st.learn(h(0xF000 << 112, 1)));
            assert!(!st.learn(h(0x8000 << 112, 0))); // self
            assert_eq!(st.known_nodes().len(), 1);
            assert_eq!(st.leaf_set().len(), 1);
            assert_eq!(st.routing_table().len(), 1);
            assert_eq!(st.neighbor_set().len(), 1);
        }

        #[test]
        fn proximity_uses_topology() {
            let st = state_with(topo4(), 100, &[]);
            assert_eq!(st.proximity(ActorId::new(0)), 0);
            assert_eq!(st.proximity(ActorId::new(1)), 1);
            assert_eq!(st.proximity(ActorId::new(2)), 2);
            assert_eq!(st.proximity(ActorId::new(99)), u32::MAX);
        }

        #[test]
        fn site_distance_is_actor_distance() {
            let topo = Topology::builder()
                .pods(2)
                .racks_per_pod(2)
                .servers_per_rack(2)
                .build();
            let at = |a: u32| (ActorId::new(a), Site::of(&topo, ActorId::new(a)));
            for a in 0..10 {
                for b in 0..10 {
                    let (x, y) = (ActorId::new(a), ActorId::new(b));
                    assert_eq!(site_distance(at(a), at(b)), actor_distance(&topo, x, y));
                }
            }
        }
    }

    mod settled_memo {
        use super::*;
        use proptest::prelude::*;

        /// Everything the three structures hold, as handles and in order.
        type Contents = (
            Vec<NodeHandle>,
            Vec<NodeHandle>,
            Vec<Vec<NodeHandle>>,
            Vec<(u32, NodeHandle)>,
        );

        fn contents(st: &PastryState) -> Contents {
            let ids = &*st.roster;
            let decode = |side: &[ActorId]| side.iter().map(|&a| ids.handle(a)).collect();
            (
                decode(&st.leaf_set.cw),
                decode(&st.leaf_set.ccw),
                (0..NUM_DIGITS).map(|r| st.routing_table().row(r)).collect(),
                (st.neighbor_set.items.iter())
                    .map(|&(p, a)| (p, ids.handle(a)))
                    .collect(),
            )
        }

        /// [`PastryState`] as it was before its tables held actor
        /// references and before the memo and the out-of-reach
        /// shortcuts: handles in every table, each handle offered to all
        /// three — a leaf side by insert-then-truncate, the table by its
        /// option model, the neighbor set by a full duplicate scan and
        /// binary search — once the roster, kept here as the first handle
        /// seen per actor, admits it.
        struct Model {
            me: NodeHandle,
            topo: Arc<Topology>,
            half: usize,
            capacity: usize,
            roster: Vec<NodeHandle>,
            cw: Vec<NodeHandle>,
            ccw: Vec<NodeHandle>,
            table: TableModel,
            items: Vec<(u32, NodeHandle)>,
        }

        impl Model {
            fn new(me: NodeHandle, topo: Arc<Topology>, half: usize, capacity: usize) -> Self {
                Model {
                    me,
                    topo,
                    half,
                    capacity,
                    roster: vec![me],
                    cw: Vec::new(),
                    ccw: Vec::new(),
                    table: TableModel {
                        self_id: me.id,
                        rows: Vec::new(),
                    },
                    items: Vec::new(),
                }
            }

            fn learn(&mut self, h: NodeHandle) -> bool {
                let me = self.me;
                if h.id == me.id {
                    return false;
                }
                match self.roster.iter().find(|r| r.actor == h.actor) {
                    Some(r) if r.id != h.id => return false,
                    Some(_) => {}
                    None => self.roster.push(h),
                }
                let topo = &self.topo;
                let prox = |a: ActorId| actor_distance(topo, me.actor, a);
                let cw = side_reference(&mut self.cw, h, self.half, |x| me.id.cw_distance(x));
                let ccw = side_reference(&mut self.ccw, h, self.half, |x| x.cw_distance(me.id));
                let row = self.table.insert(h, |c| prox(c.actor));
                let items = &mut self.items;
                let near = neighbors_reference(items, me.id, h, prox(h.actor), self.capacity);
                cw | ccw | row | near
            }

            fn forget(&mut self, id: NodeId) -> bool {
                let held = |m: &Model| m.cw.len() + m.ccw.len() + m.items.len();
                let before = held(self);
                self.cw.retain(|e| e.id != id);
                self.ccw.retain(|e| e.id != id);
                self.items.retain(|(_, e)| e.id != id);
                let row = self.table.remove(id);
                row || before != held(self)
            }

            fn contents(&self) -> Contents {
                (
                    self.cw.clone(),
                    self.ccw.clone(),
                    (0..NUM_DIGITS).map(|r| self.table.row(r)).collect(),
                    self.items.clone(),
                )
            }
        }

        /// Sixteen ids: half cluster around the local id (leaf-set churn
        /// on both sides), half spread over the ring (routing-table rows
        /// and slot conflicts). All move by `shift`.
        fn id_of(i: u32, shift: u128) -> Id {
            let local = 0x8000u128 << 112;
            let v = match i % 4 {
                0 => local + 1 + u128::from(i),
                1 => local - 1 - u128::from(i),
                2 => (u128::from(i) * 0x0123_4567_89ab_cdef) << 64,
                _ => local ^ (1 << (124 - i)),
            };
            Id::from_u128(v.wrapping_add(shift))
        }

        proptest! {
            /// Id `i` is normally offered by actor `i`, over and over, so
            /// the memo stays warm between the forgets that must wipe it.
            /// Now and then it arrives under actor `i + 21` or `i + 42` —
            /// the same memo slot, another rack or no server at all (the
            /// topology has 32) — the local id under a foreign actor, or
            /// id `i + 1` under actor `i`: forged, unless actor `i` has not
            /// been seen yet, in which case it takes the roster entry and
            /// id `i` under actor `i` is the forgery from then on. With
            /// `wrap` the local id is zero, so the counter-clockwise side
            /// wraps through the top of the ring.
            #[test]
            fn memoised_learn_matches_reference(
                half in 1usize..4,
                capacity in 0usize..5,
                wrap in any::<bool>(),
                ops in proptest::collection::vec((0u32..16, 0u32..16), 1..300),
            ) {
                let topo = Arc::new(
                    Topology::builder().pods(2).racks_per_pod(4).servers_per_rack(4).build(),
                );
                let shift = if wrap { 0x8000 << 112 } else { 0 };
                let id = |i: u32| id_of(i, shift);
                let me = NodeHandle::new(Id::from_u128((0x8000u128 << 112).wrapping_add(shift)), ActorId::new(0));
                let mut fast = PastryState::new(me, Arc::clone(&topo), half, capacity);
                let mut model = Model::new(me, topo, half, capacity);
                for (kind, i) in ops {
                    let offer = |id: Id, actor: u32| NodeHandle::new(id, ActorId::new(actor));
                    let (got, want) = match kind {
                        0 | 1 => (fast.forget(id(i)), model.forget(id(i))),
                        _ => {
                            let h = match kind {
                                2 => offer(me.id, i % 2 * 21),
                                3 => offer(id(i), i + 21),
                                4 => offer(id(i), i + 42),
                                5 => offer(id((i + 1) % 16), i),
                                _ => offer(id(i), i),
                            };
                            (fast.learn(h), model.learn(h))
                        }
                    };
                    prop_assert_eq!(got, want, "return values diverged at op ({}, {})", kind, i);
                    prop_assert_eq!(contents(&fast), model.contents());
                }
            }
        }

        /// A handle whose id contradicts the roster — a known actor under
        /// a new id, under another node's id, the local actor under a
        /// foreign id — returns `false` and leaves the three structures
        /// and the memo as they were, whether the memo holds its actor
        /// or not.
        #[test]
        fn a_contradicting_handle_is_never_stored() {
            let topo = Arc::new(
                Topology::builder()
                    .pods(1)
                    .racks_per_pod(2)
                    .servers_per_rack(4)
                    .build(),
            );
            let me = h(0x8000 << 112, 0);
            let peer = |i: u32| h((0x8000 << 112) + u128::from(i) * 0x100, i);
            let mut st = PastryState::new(me, topo, 2, 4);
            for i in 1..6 {
                st.learn(peer(i));
            }
            // Actors 1 and 2 are settled; the rest have vacant memo slots.
            assert!(!st.learn(peer(1)) && !st.learn(peer(2)));
            let settled = st.settled;
            assert!(settled.contains(&ActorId::new(1)) && !settled.contains(&ActorId::new(3)));
            let before = contents(&st);
            let forged = [
                h((0x8000 << 112) + 1, 1),
                h((0x8000 << 112) + 1, 3),
                h((0x8000 << 112) - 1, 4),
                h(peer(5).id.as_u128(), 2),
                h(0xF000 << 112, 3),
                h((0x8000 << 112) + 2, 0),
            ];
            for bad in forged {
                assert!(!st.learn(bad), "{bad} was taken in");
                assert_eq!(contents(&st), before, "{bad} changed a structure");
                assert_eq!(st.settled, settled, "{bad} changed the memo");
                let honest = if bad.actor == me.actor {
                    me
                } else {
                    peer(bad.actor.index() as u32)
                };
                assert_eq!(
                    st.roster.get(bad.actor),
                    Some(honest.id),
                    "{bad} moved the roster"
                );
            }
            assert!(st.known_nodes().iter().all(|k| !forged.contains(k)));
        }
    }

    mod nearest {
        use super::*;
        use proptest::prelude::*;

        /// The query by its definition: the least key over the distinct
        /// known nodes not visited, the first of equal keys in
        /// `known_nodes` order.
        fn reference(
            st: &PastryState,
            target: NodeHandle,
            visited: &[ActorId],
        ) -> Option<NodeHandle> {
            let (topo, me) = (st.topology(), st.handle());
            st.known_nodes()
                .into_iter()
                .filter(|h| !visited.contains(&h.actor))
                .min_by_key(|h| {
                    (
                        actor_distance(topo, h.actor, target.actor),
                        actor_distance(topo, h.actor, me.actor),
                        h.id.ring_distance(target.id),
                    )
                })
        }

        /// `known_nodes` as it was before it walked `distinct_slots`: the
        /// distinct leaf-set members, then each table entry and neighbor
        /// not yet listed, by a scan of the list.
        fn known_reference(st: &PastryState) -> Vec<NodeHandle> {
            let mut out = st.leaf_set().members();
            for h in st
                .routing_table()
                .entries()
                .chain(st.neighbor_set().members())
            {
                if !out.iter().any(|o| o.id == h.id) {
                    out.push(h);
                }
            }
            out
        }

        proptest! {
            /// Ids come from a 40-value ring around the local node and
            /// the leaf set holds 4 per side, so most learned
            /// nodes sit in the leaf set (often on both sides), the
            /// routing table *and* the neighbor set: `known_iter` repeats
            /// them, `known_nodes` does not, and the answer must not
            /// care. Each id has its own actor among 40: the last 24
            /// servers of the large topology, all 16 of the small one,
            /// and the rest past its end, so distances are coarse and
            /// equal keys common: same-rack ties, ring ties on both sides
            /// of the target, and `u32::MAX` ties when the target or the
            /// local node is off the topology. After the first query,
            /// `ops` interleaves learns, forgets and growth of the
            /// visited set with queries towards two or three targets, so
            /// the ranking is reused, made stale by a change and replaced
            /// by another target's. The wide ring ranks 20–40 nodes, past
            /// the length below which an unstable sort happens to keep
            /// ties in order. After every op `known_nodes` is what the
            /// scan it replaced lists.
            #[test]
            fn next_hop_matches_known_nodes_reference(
                shape in (any::<bool>(), any::<bool>(), 0u32..40),
                peers in proptest::collection::vec(1u128..40, 0..60),
                visited in proptest::collection::vec(0u32..40, 0..16),
                targets in proptest::collection::vec((1u128..40, 0u32..40), 2..4),
                ops in proptest::collection::vec((0usize..8, 1u128..40, 0u32..40), 0..80),
            ) {
                let (large, wide, turn) = shape;
                let topo = Arc::new(if large {
                    Topology::builder().pods(2).racks_per_pod(65).servers_per_rack(32).build()
                } else {
                    Topology::builder().pods(2).racks_per_pod(2).servers_per_rack(4).build()
                });
                let base = (topo.num_servers() as u32).saturating_sub(24);
                let actor = |i: u32| ActorId::new(base + i);
                // The wide ring spreads its ids over the first digit's
                // 16 values, and its sets hold twice as many nodes.
                let (step, half, capacity) = if wide { (6, 8, 16) } else { (1, 4, 8) };
                let id = |i: u128| Id::from_u128((i * step) << 120);
                // One actor per id and one id per actor, as in any real
                // overlay; `turn` moves the local node (id 20) among them.
                let node = |i: u128| NodeHandle::new(id(i), actor(((i * 7) as u32 + turn) % 40));
                let me = node(20);
                let mut state = PastryState::new(me, topo.clone(), half, capacity);
                for &i in &peers {
                    state.learn(node(i));
                }
                let mut visited: Vec<ActorId> = visited.into_iter().map(actor).collect();
                let targets: Vec<NodeHandle> = targets
                    .into_iter()
                    .map(|(i, a)| NodeHandle::new(id(i), actor(a)))
                    .collect();
                let target = targets[0];
                prop_assert_eq!(
                    state.nearest(target, |a| visited.contains(&a)),
                    reference(&state, target, &visited)
                );
                for (op, i, a) in ops {
                    match op {
                        0 => {
                            state.learn(node(i));
                        }
                        1 => {
                            state.forget(id(i));
                        }
                        2 => visited.push(actor(a)),
                        _ => {
                            let target = targets[op % targets.len()];
                            prop_assert_eq!(
                                state.nearest(target, |a| visited.contains(&a)),
                                reference(&state, target, &visited),
                                "op {} towards {:?}", op, target
                            );
                        }
                    }
                    prop_assert_eq!(state.known_nodes(), known_reference(&state));
                }
                prop_assert!(
                    state.known_iter().count() >= state.known_nodes().len(),
                    "known_iter yields every known node at least once"
                );
            }
        }

        /// A clone starts without the memo, and the memo's ranking is
        /// sized to the distinct known nodes.
        #[test]
        fn ranking_holds_each_known_node_once() {
            let topo = Arc::new(
                Topology::builder()
                    .pods(2)
                    .racks_per_pod(2)
                    .servers_per_rack(4)
                    .build(),
            );
            let me = h(20 << 120, 0);
            let mut state = PastryState::new(me, topo, 4, 8);
            for i in 1..16u32 {
                state.learn(h(u128::from(20 + i) << 120, i));
            }
            assert!(state.nearest(me, |_| false).is_some());
            let ranking = state.ranking.0.take().expect("memo after a query");
            assert_eq!(ranking.order.len(), state.known_nodes().len());
            assert_eq!(ranking.order.capacity(), ranking.order.len());
            state.ranking.0.set(Some(ranking));
            let clone = state.clone();
            assert!(clone.ranking.0.take().is_none());
            assert!(
                Rc::ptr_eq(clone.roster(), state.roster()),
                "a clone shares the roster"
            );
        }
    }

    mod bounded_sets {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A full leaf side or neighbor set keeps the allocation it
            /// was created with, and holds what insert-then-truncate held.
            #[test]
            fn bounded_sets_hold_their_bound(
                half in 1usize..5,
                capacity in 0usize..6,
                ops in proptest::collection::vec((0u32..4, 0u32..24), 1..300),
            ) {
                let topo = Arc::new(
                    Topology::builder().pods(2).racks_per_pod(4).servers_per_rack(4).build(),
                );
                let me = h(0x8000 << 112, 0);
                let mut st = PastryState::new(me, topo, half, capacity);
                let (mut cw, mut ccw, mut items) = (Vec::new(), Vec::new(), Vec::new());
                for (kind, i) in ops {
                    // 24 ids, twelve on each side of the local one.
                    let d = (u128::from(i / 2) + 1) * 0x1111;
                    let id = if i % 2 == 0 { me.id.as_u128() + d } else { me.id.as_u128() - d };
                    let offer = NodeHandle::new(Id::from_u128(id), ActorId::new(i + 1));
                    if kind == 0 {
                        st.forget(offer.id);
                        cw.retain(|e: &NodeHandle| e.id != offer.id);
                        ccw.retain(|e: &NodeHandle| e.id != offer.id);
                        items.retain(|(_, e): &(u32, NodeHandle)| e.id != offer.id);
                    } else {
                        st.learn(offer);
                        side_reference(&mut cw, offer, half, |x| me.id.cw_distance(x));
                        side_reference(&mut ccw, offer, half, |x| x.cw_distance(me.id));
                        let prox = st.proximity(offer.actor);
                        neighbors_reference(&mut items, me.id, offer, prox, capacity);
                    }
                    let (ls, ns) = (&st.leaf_set, &st.neighbor_set);
                    prop_assert_eq!(ls.cw.capacity(), half);
                    prop_assert_eq!(ls.ccw.capacity(), half);
                    prop_assert_eq!(ns.items.capacity(), capacity);
                    let actors = |side: &[NodeHandle]| side.iter().map(|e| e.actor).collect::<Vec<_>>();
                    prop_assert_eq!(&ls.cw, &actors(&cw));
                    prop_assert_eq!(&ls.ccw, &actors(&ccw));
                    let neighbors: Vec<_> = items.iter().map(|&(p, e)| (p, e.actor)).collect();
                    prop_assert_eq!(&ns.items, &neighbors);
                    prop_assert_eq!(st.leaf_set().len(), st.leaf_set().members().len());
                }
            }
        }
    }

    mod masked_rows {
        use super::*;
        use proptest::prelude::*;

        /// An id sharing `row` leading digits with `me`, then `col`, then
        /// a small tail: rows 0-3 fill, and slots collide.
        fn id_at(me: NodeId, row: u32, col: u32, tail: u32) -> Id {
            let kept = me.as_u128() & !(u128::MAX >> (4 * row));
            Id::from_u128(kept | (u128::from(col) << (124 - 4 * row)) | (u128::from(tail) * 0x1111))
        }

        proptest! {
            /// Each id may arrive under any of 8 actors of its own, at
            /// the proximity drawn for that actor's rank among the 8.
            #[test]
            fn masked_rows_match_option_model(
                proximity in proptest::collection::vec(0u32..4, 8),
                ops in proptest::collection::vec((0u32..4, 0u32..4, 0u32..16, 0u32..4, 0u32..8), 1..200),
            ) {
                let me = Id::from_u128(0x8000 << 112);
                let mut table = Bare::new(RoutingTable::new());
                let mut model = TableModel { self_id: me, rows: Vec::new() };
                let prox = |a: ActorId| proximity[a.index() % 8];
                for (kind, row, col, tail, rank) in ops {
                    let id = id_at(me, row, col, tail);
                    let changed = if kind == 0 {
                        (table.remove(id), model.remove(id))
                    } else {
                        let actor = ((row * 16 + col) * 4 + tail) * 8 + rank;
                        let offer = NodeHandle::new(id, ActorId::new(actor));
                        (table.insert(me, offer, prox), model.insert(offer, |c| prox(c.actor)))
                    };
                    prop_assert_eq!(changed.0, changed.1);
                    let view = table.view();
                    prop_assert_eq!(view.entries().collect::<Vec<_>>(), model.entries());
                    prop_assert_eq!(view.len(), model.entries().len());
                    prop_assert_eq!(view.is_empty(), model.entries().is_empty());
                    prop_assert_eq!(view.num_rows(), model.rows.len());
                    for r in 0..view.num_rows() + 1 {
                        prop_assert_eq!(view.row(r), model.row(r));
                        for c in 0..DIGIT_BASE {
                            prop_assert_eq!(view.entry(r, c), model.entry(r, c));
                        }
                    }
                    let key = id_at(me, col % 4, tail * 4 + row, rank);
                    prop_assert_eq!(view.next_hop(me, key), model.next_hop(key));
                    prop_assert_eq!(view.next_hop(me, me), None);
                }
            }
        }
    }
}

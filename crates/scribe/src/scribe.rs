//! The Scribe layer: a [`PastryApp`] that maintains per-group multicast
//! trees and offers multicast + anycast to a [`ScribeClient`].
//!
//! Trees are built exactly as published: a JOIN is routed toward the group
//! id, and every node on the route grafts the previous hop as a child,
//! becoming a forwarder if it was not already in the tree. The node whose
//! id is numerically closest to the group id is the rendezvous root.
//! Anycast performs a depth-first search of the tree, preferring
//! topologically close children — the property v-Bundle's Less-Loaded tree
//! relies on to find *nearby* load receivers (§III.C).

use std::rc::Rc;

use vbundle_fdetect::{DedupWindow, Verdict};
use vbundle_obs::{counters, FlightRecorder, Kind, Registry, Subsystem};
use vbundle_pastry::{
    actor_distance, AppCtx, Id, Key, NodeHandle, PastryApp, RouteDecision, Signal, Site,
};
use vbundle_sim::{ActorId, Message, SimDuration, SimTime};

use crate::group::Groups;
use crate::message::{AnycastEnvelope, ScribeMsg};
use crate::{GroupId, GroupState, Summary};

/// Timer tags at or above this value (and below the Pastry tag base) are
/// reserved for Scribe; clients must schedule with smaller tags.
pub const SCRIBE_TAG_BASE: u64 = 1 << 62;

const PROBE_TAG: u64 = SCRIBE_TAG_BASE + 1;

/// Tree-depth guard for multicast dissemination.
const DISSEMINATE_TTL: u32 = 64;

/// Flight record: a silent child dropped from a tree (the group id's top
/// 64 bits name the tree).
const CHILD_EXPIRED: Kind = Kind::new("child-expired", "child", "group_top64");

/// Flight record: a message dropped for arriving by a path its variant
/// never takes — routed (`routed` = 1) when it travels direct only, or
/// direct when it travels routed only. No honest peer sends either.
const MISDELIVERED: Kind = Kind::new("misdelivered", "from", "routed");

/// Tunables of the Scribe layer.
#[derive(Debug, Clone)]
pub struct ScribeConfig {
    /// Anycast DFS step budget before the search reports failure.
    pub anycast_ttl: u32,
    /// If set, every in-tree node probes its parent at this interval; a
    /// bounce (dead parent) or a nack (parent pruned its state) triggers a
    /// re-join. This is Scribe's tree-repair mechanism driven from the
    /// child side. `None` disables probing — repair then relies on bounced
    /// application traffic alone.
    /// With probing on, the parent side runs phi-accrual on each child
    /// link, adapting to its observed probe cadence, and sends the child
    /// a [`ScribeMsg::ChildProbe`] before dropping the graft.
    pub probe_interval: Option<SimDuration>,
}

impl Default for ScribeConfig {
    fn default() -> Self {
        ScribeConfig {
            anycast_ttl: 4096,
            probe_interval: None,
        }
    }
}

impl ScribeConfig {
    /// Enables child→parent tree probing at `interval`.
    pub fn with_probe_interval(mut self, interval: SimDuration) -> Self {
        self.probe_interval = Some(interval);
        self
    }
}

/// An application layered over Scribe (for v-Bundle: the aggregation
/// service and the resource-shuffling controller).
pub trait ScribeClient: Sized {
    /// The client's message type.
    type Msg: Message + Clone;

    /// The node started.
    fn on_start(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>) {
        let _ = ctx;
    }

    /// The hosting node was revived after a crash. Client state survived
    /// but all pending timers were purged; re-arm periodic timers here.
    /// Defaults to [`ScribeClient::on_start`].
    fn on_restart(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>) {
        self.on_start(ctx);
    }

    /// Screens an inbound client payload before Scribe processes it — the
    /// poison gate: called on direct client messages (the aggregation
    /// tree's upward reports), on Publishes reaching a root, and on
    /// Disseminates before they are delivered locally or forwarded to
    /// children. Returning `false` drops the message at the Scribe layer,
    /// so a poisoned report is neither combined upward nor fanned out
    /// downward. The default accepts everything.
    fn validate_payload(&mut self, msg: &Self::Msg) -> bool {
        let _ = msg;
        true
    }

    /// A multicast published to a group this node subscribes to arrived.
    fn deliver_multicast(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        msg: Self::Msg,
    );

    /// An anycast reached this group member. Return `true` to accept it
    /// (ending the search — the client is responsible for any reply to
    /// `origin`), `false` to pass it on.
    fn anycast_accept(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        msg: &Self::Msg,
        origin: NodeHandle,
    ) -> bool {
        let _ = (ctx, group, msg, origin);
        false
    }

    /// What this node itself could still accept from an anycast into
    /// `group`, asked of members only. Scribe joins it with the summaries
    /// heard from the node's children, passes the result up the tree with
    /// every Join and ParentProbe, and lets an anycast skip a subtree
    /// whose summary does not admit it. `None`, the default, makes no
    /// claim: nothing below is computed or pruned on its account.
    ///
    /// The answer is a promise from `now` until `until`, when Scribe is
    /// sure to have asked again: whatever the clock alone will do before
    /// then that lets the node accept more counts as done. A change the
    /// clock does not bring — one that may let the node accept more — is
    /// announced with [`ScribeCtx::summary_changed`]. Erring high costs a
    /// wasted step ([`ScribeClient::anycast_accept`] stays authoritative);
    /// erring low turns away a request that would have fit.
    fn anycast_summary(&mut self, group: GroupId, now: SimTime, until: SimTime) -> Option<Summary> {
        let _ = (group, now, until);
        None
    }

    /// The summary of two subtrees taken together: associative,
    /// commutative and idempotent, with `0` as its identity.
    fn summary_join(a: Summary, b: Summary) -> Summary {
        a | b
    }

    /// Whether a subtree with this summary may hold a member accepting
    /// `msg`. Must hold for every summary that covers an accepting
    /// member's own.
    fn summary_admits(summary: Summary, msg: &Self::Msg) -> bool {
        let _ = msg;
        summary != 0
    }

    /// An anycast this node issued exhausted the tree without an acceptor.
    fn anycast_failed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, group, msg);
    }

    /// A direct client message arrived.
    fn on_direct(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        from: NodeHandle,
        msg: Self::Msg,
    ) {
        let _ = (ctx, from, msg);
    }

    /// A routed client message (sent with [`ScribeCtx::route_client`])
    /// arrived at this node — the one numerically closest to `key`.
    fn deliver_routed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        key: vbundle_pastry::Key,
        msg: Self::Msg,
        origin: NodeHandle,
    ) {
        let _ = (ctx, key, msg, origin);
    }

    /// A client timer fired.
    fn on_timer(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// The overlay declared a node dead.
    fn on_node_failed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        failed: NodeHandle,
    ) {
        let _ = (ctx, failed);
    }

    /// A direct client message could not be delivered.
    fn on_send_failure(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        to: ActorId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, to, msg);
    }

    /// A child was grafted below this node in `group`'s tree.
    fn on_child_added(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        child: NodeHandle,
    ) {
        let _ = (ctx, group, child);
    }

    /// A child was removed from `group`'s tree below this node.
    fn on_child_removed(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, Self::Msg>,
        group: GroupId,
        child: NodeHandle,
    ) {
        let _ = (ctx, group, child);
    }
}

enum Command<M> {
    Join(GroupId),
    Leave(GroupId),
    Multicast(GroupId, M),
    Anycast(GroupId, M),
    SummaryChanged(GroupId),
}

/// Capabilities handed to [`ScribeClient`] upcalls.
///
/// Group mutations (join/leave/multicast/anycast) are queued and applied
/// after the upcall returns; reads reflect the state at upcall time.
pub struct ScribeCtx<'a, 'b, 'c, 'd, M: Message + Clone> {
    pastry: &'a mut AppCtx<'b, 'c, ScribeMsg<M>>,
    groups: &'a Groups,
    commands: &'d mut Vec<Command<M>>,
}

impl<'a, 'b, 'c, 'd, M: Message + Clone> ScribeCtx<'a, 'b, 'c, 'd, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.pastry.now()
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.pastry.rng()
    }

    /// The local node's handle.
    pub fn self_handle(&self) -> NodeHandle {
        self.pastry.self_handle()
    }

    /// Read access to the local Pastry routing state.
    pub fn pastry_state(&self) -> &vbundle_pastry::PastryState {
        self.pastry.state()
    }

    /// Physical proximity to another node (smaller = closer).
    pub fn proximity(&self, h: &NodeHandle) -> u32 {
        self.pastry.proximity(h)
    }

    /// Subscribes the local node to `group` (building tree state as
    /// needed).
    pub fn join(&mut self, group: GroupId) {
        self.commands.push(Command::Join(group));
    }

    /// Unsubscribes from `group`; pure forwarders prune themselves.
    pub fn leave(&mut self, group: GroupId) {
        self.commands.push(Command::Leave(group));
    }

    /// Multicasts `msg` to all members of `group`.
    pub fn multicast(&mut self, group: GroupId, msg: M) {
        self.commands.push(Command::Multicast(group, msg));
    }

    /// Anycasts `msg` into `group`: a DFS of the tree that stops at the
    /// first member accepting it, preferring physically close members.
    pub fn anycast(&mut self, group: GroupId, msg: M) {
        self.commands.push(Command::Anycast(group, msg));
    }

    /// Announces that the local [`ScribeClient::anycast_summary`] of
    /// `group` may have risen: if the subtree summary now exceeds what the
    /// parent was last told, the parent hears at once instead of with the
    /// next probe.
    pub fn summary_changed(&mut self, group: GroupId) {
        self.commands.push(Command::SummaryChanged(group));
    }

    /// Sends a direct client message to a known node.
    pub fn send_client(&mut self, to: NodeHandle, msg: M) {
        self.pastry.send_direct(to, ScribeMsg::Client(msg));
    }

    /// Routes a client message toward `key` through Pastry; it is
    /// delivered via [`ScribeClient::deliver_routed`] at the node
    /// numerically closest to the key. This is how v-Bundle's VM boot
    /// queries reach `hash(customer)` (§II.B).
    pub fn route_client(&mut self, key: vbundle_pastry::Key, msg: M) {
        self.pastry.route(key, ScribeMsg::Client(msg));
    }

    /// Sends a direct client message after an extra local delay (modelling
    /// per-node processing time, e.g. the 1–2 ms aggregation cost of
    /// Fig. 14).
    pub fn send_client_after(&mut self, to: NodeHandle, msg: M, extra: SimDuration) {
        self.pastry
            .send_direct_after(to, ScribeMsg::Client(msg), extra);
    }

    /// Arms a client timer.
    ///
    /// # Panics
    ///
    /// Panics if `tag` collides with the reserved Scribe/Pastry tag space.
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        assert!(tag < SCRIBE_TAG_BASE, "timer tag collides with Scribe");
        self.pastry.schedule(delay, tag);
    }

    /// Whether the local node subscribed to `group`.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.groups.get(group).is_some_and(|g| g.member)
    }

    /// Whether the local node is `group`'s rendezvous root.
    pub fn is_root(&self, group: GroupId) -> bool {
        self.groups.get(group).is_some_and(|g| g.root)
    }

    /// The local node's parent in `group`'s tree, if any.
    pub fn parent(&self, group: GroupId) -> Option<NodeHandle> {
        self.groups.get(group).and_then(|g| g.parent)
    }

    /// Whether the node with this id is grafted below the local node in
    /// `group`'s tree.
    pub fn is_child(&self, group: GroupId, id: Id) -> bool {
        self.groups
            .get(group)
            .is_some_and(|g| g.children.contains(id))
    }

    /// Whether the local node participates in `group`'s tree at all.
    pub fn in_tree(&self, group: GroupId) -> bool {
        self.groups.get(group).is_some_and(|g| g.in_tree())
    }
}

/// The Scribe layer hosting a client of type `C`.
pub struct Scribe<C: ScribeClient> {
    /// Per-group tree state. Each grafted child's link record carries its
    /// own liveness state (last proof of life, phi window): links silent
    /// for too long are dropped on the probe tick, so a child that
    /// re-parented elsewhere (or died without a Leave) cannot stay grafted
    /// under a stale parent.
    groups: Groups,
    /// `(origin, nonce)` pairs of Publishes already disseminated by this
    /// root: a Publish duplicated in flight must not fan out twice under
    /// two sequence numbers. Only a root reads it, so it is created when
    /// the first valid Publish reaches this node and non-roots hold none.
    pub_seen: Option<Box<DedupWindow<(u128, u64)>>>,
    /// Nonce for the next Publish this node sends toward a root.
    next_pub_nonce: u64,
    /// This node's obs counters, summed across nodes under `scribe/` once
    /// [`Scribe::attach_obs`] is called.
    counters: Rc<ScribeCounters>,
    /// Flight-recorder handle for expiry and misdelivery events (disabled
    /// by default).
    flight: FlightRecorder,
    client: C,
    /// Immutable and the same on every node, so the v-Bundle cluster
    /// builder hands each node a clone of one `Rc`.
    config: Rc<ScribeConfig>,
}

counters! {
    /// The obs counter set of one Scribe node.
    struct ScribeCounters {
        /// Tree links dropped by parent-side expiry.
        children_expired: Counter,
        /// Anycast steps taken at this node: walks that knock on every door
        /// show up here.
        anycast_steps: Counter,
    }
}

/// Root-side memory of recently disseminated Publish nonces.
const PUB_DEDUP_WINDOW: usize = 128;

impl<C: ScribeClient> Scribe<C> {
    /// Creates a Scribe layer around `client`.
    pub fn new(client: C) -> Self {
        Scribe::with_config(client, ScribeConfig::default())
    }

    /// Creates a Scribe layer with explicit tunables: a [`ScribeConfig`]
    /// or an `Rc` of one shared with other nodes.
    pub fn with_config(client: C, config: impl Into<Rc<ScribeConfig>>) -> Self {
        Scribe {
            groups: Groups::default(),
            pub_seen: None,
            next_pub_nonce: 0,
            counters: Rc::default(),
            flight: FlightRecorder::disabled(),
            client,
            config: config.into(),
        }
    }

    /// Attaches this layer to the shared observability planes: its
    /// counter set joins the `scribe` scope of `registry` (summed across
    /// nodes on export) and expiry and misdelivery events are recorded on
    /// `flight`.
    pub fn attach_obs(&mut self, registry: &Registry, flight: &FlightRecorder) {
        registry.attach("scribe", &self.counters);
        self.flight = flight.clone();
    }

    /// Tree links this node has dropped by parent-side expiry so far.
    pub fn children_expired(&self) -> u64 {
        self.counters.children_expired.get()
    }

    /// Grafts `child` below this node in `group`'s tree — or, if it is
    /// grafted already, refreshes the link's proof of life (the stamp and
    /// window that guard parent-side expiry) — and notes the subtree
    /// summary it came with.
    fn graft(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        group: GroupId,
        child: NodeHandle,
        summary: Option<Summary>,
    ) {
        let st = self.groups.entry(group);
        let grafted = link_child(st, pastry, child, summary);
        self.grafted(pastry, group, child, grafted);
    }

    /// Drops a message that came by a path its variant never takes, with
    /// one flight record naming the sender.
    fn drop_misdelivered(
        &self,
        ctx: &AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        from: NodeHandle,
        routed: bool,
    ) {
        let at = ctx.now().as_micros();
        let me = ctx.self_handle().actor.index() as u32;
        let (who, routed) = (from.actor.index() as u64, u64::from(routed));
        self.flight
            .record(at, me, Subsystem::Scribe, &MISDELIVERED, who, routed);
    }

    /// What follows a graft: the client hears of a new child, and the
    /// parent of a subtree summary the link raised. `(added, changed)` is
    /// [`Children::graft`](crate::Children::graft)'s answer.
    fn grafted(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        group: GroupId,
        child: NodeHandle,
        (added, changed): (bool, bool),
    ) {
        if added {
            self.with_client(pastry, |c, ctx| c.on_child_added(ctx, group, child));
        }
        if added || changed {
            self.report_rise(pastry, group);
        }
    }

    /// How long a summary computed at `now` has to hold: one probe
    /// interval until the next probe leaves, and as much again for it —
    /// and the rises it sets off on the way up — to arrive.
    fn promise_until(&self, now: SimTime) -> SimTime {
        self.config
            .probe_interval
            .map_or(SimTime::MAX, |interval| now + interval * 2)
    }

    /// This node's subtree summary in `group`'s tree.
    fn subtree_summary(
        &mut self,
        pastry: &AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        group: GroupId,
    ) -> Option<Summary> {
        let now = pastry.now();
        let until = self.promise_until(now);
        let st = self.groups.get(group)?;
        subtree_summary(&mut self.client, group, st, now, until)
    }

    /// The same, noted as what the parent is being told: for the message
    /// about to carry it there.
    fn summary_to_report(
        &mut self,
        pastry: &AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        group: GroupId,
    ) -> Option<Summary> {
        let summary = self.subtree_summary(pastry, group);
        if let Some(st) = self.groups.get_mut(group) {
            st.reported = summary;
        }
        summary
    }

    /// Tells the parent at once if this node's subtree summary in `group`
    /// is no longer covered by what the parent was last told. With
    /// nothing told (`reported` unknown, as in every tree whose client
    /// makes no claim) the parent assumes everything and there is nothing
    /// to compute.
    fn report_rise(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, group: GroupId) {
        let Some((parent, reported)) = self
            .groups
            .get(group)
            .and_then(|st| st.parent.zip(st.reported))
        else {
            return;
        };
        let summary = self.subtree_summary(pastry, group);
        if summary.is_some_and(|s| C::summary_join(reported, s) == reported) {
            return;
        }
        if let Some(st) = self.groups.get_mut(group) {
            st.reported = summary;
        }
        send_tree(pastry, parent, ScribeMsg::Summary { group, summary });
    }

    /// Routes a JOIN toward `group`'s rendezvous root under the local
    /// node's own name.
    fn route_join(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, group: GroupId) {
        let child = pastry.self_handle();
        let summary = self.summary_to_report(pastry, group);
        let join = ScribeMsg::Join {
            group,
            child,
            summary,
        };
        pastry.route(group, join);
    }

    /// The hosted client.
    pub fn client(&self) -> &C {
        &self.client
    }

    /// Mutable access to the hosted client (prefer
    /// [`Scribe::client_call`] when it needs to send).
    pub fn client_mut(&mut self) -> &mut C {
        &mut self.client
    }

    /// This node's state for `group`, if it participates in the tree.
    pub fn group(&self, group: GroupId) -> Option<&GroupState> {
        self.groups.get(group)
    }

    /// Ids of all groups this node holds state for.
    pub fn group_ids(&self) -> Vec<GroupId> {
        let mut ids: Vec<GroupId> = self.groups.keys().collect();
        ids.sort();
        ids
    }

    /// Runs `f` against the client with a full [`ScribeCtx`] — the harness
    /// entry point (e.g. "subscribe this server to BW_Demand").
    pub fn client_call<R>(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        f: impl FnOnce(&mut C, &mut ScribeCtx<'_, '_, '_, '_, C::Msg>) -> R,
    ) -> R {
        let mut commands = Vec::new();
        let out = {
            let mut ctx = ScribeCtx {
                pastry,
                groups: &self.groups,
                commands: &mut commands,
            };
            f(&mut self.client, &mut ctx)
        };
        self.apply_all(pastry, commands);
        out
    }

    fn with_client<R>(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        f: impl FnOnce(&mut C, &mut ScribeCtx<'_, '_, '_, '_, C::Msg>) -> R,
    ) -> R {
        self.client_call(pastry, f)
    }

    fn apply_all(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        commands: Vec<Command<C::Msg>>,
    ) {
        for cmd in commands {
            match cmd {
                Command::Join(g) => self.apply_join(pastry, g),
                Command::Leave(g) => self.apply_leave(pastry, g),
                Command::Multicast(g, m) => self.apply_multicast(pastry, g, m),
                Command::Anycast(g, m) => self.apply_anycast(pastry, g, m),
                Command::SummaryChanged(g) => self.report_rise(pastry, g),
            }
        }
    }

    fn apply_join(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let st = self.groups.entry(g);
        if st.member {
            return;
        }
        st.member = true;
        if st.root || st.parent.is_some() || !st.children.is_empty() {
            // Already grafted as root or forwarder; the new member may
            // raise what the subtree admits.
            self.report_rise(pastry, g);
            return;
        }
        self.route_join(pastry, g);
    }

    fn apply_leave(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let Some(st) = self.groups.get_mut(g) else {
            return;
        };
        if !st.member {
            return;
        }
        st.member = false;
        self.prune(pastry, g);
    }

    /// Drops tree state (telling the parent) if the node is a childless
    /// non-member non-root.
    fn prune(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let Some(st) = self.groups.get(g) else {
            return;
        };
        if st.member || st.root || !st.children.is_empty() {
            return;
        }
        let parent = st.parent;
        self.groups.remove(g);
        if let Some(p) = parent {
            send_tree(pastry, p, ScribeMsg::Leave { group: g });
        }
    }

    fn apply_multicast(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        msg: C::Msg,
    ) {
        if self.groups.get(g).is_some_and(|st| st.root) {
            // A node that became root while the true root was down is
            // superseded once the true root returns: routing then points
            // away from us. Demote instead of publishing a second stream
            // of sequence numbers under our own name.
            if self.is_stale_root(pastry, g) {
                self.demote_stale_root(pastry, g);
            } else {
                self.disseminate_as_root(pastry, g, msg);
                return;
            }
        }
        let origin = pastry.self_handle().id.as_u128();
        let nonce = self.next_pub_nonce;
        self.next_pub_nonce += 1;
        pastry.route(
            g,
            ScribeMsg::Publish {
                group: g,
                payload: msg,
                origin,
                nonce,
            },
        );
    }

    /// Whether this node holds root state for `g` although routing now
    /// resolves the group id to a different node.
    fn is_stale_root(&self, pastry: &AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) -> bool {
        self.groups.get(g).is_some_and(|st| st.root)
            && matches!(pastry.state().route_decision(g), RouteDecision::Forward(_))
    }

    /// Steps down as root: re-enter the tree as an ordinary node (keeping
    /// any children, so the whole subtree reconnects through us) or prune
    /// if nothing keeps us in the group.
    fn demote_stale_root(&mut self, pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>, g: GroupId) {
        let mut rejoin = false;
        if let Some(st) = self.groups.get_mut(g) {
            st.root = false;
            st.parent = None;
            rejoin = st.member || !st.children.is_empty();
        }
        if rejoin {
            self.route_join(pastry, g);
        } else {
            self.prune(pastry, g);
        }
    }

    /// Root-side entry: stamp the next sequence number and fan out.
    fn disseminate_as_root(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        msg: C::Msg,
    ) {
        let me = pastry.self_handle().id.as_u128();
        let seq = {
            let st = self.groups.entry(g);
            st.root = true;
            let seq = st.next_seq;
            st.next_seq += 1;
            seq
        };
        self.handle_disseminate(pastry, g, msg, DISSEMINATE_TTL, seq, me);
    }

    fn apply_anycast(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        msg: C::Msg,
    ) {
        let me = pastry.self_handle();
        let env = Box::new(AnycastEnvelope {
            group: g,
            payload: msg,
            origin: me,
            visited: Vec::new(),
            offered: Vec::new(),
            ttl: self.config.anycast_ttl,
        });
        if self.groups.get(g).is_some_and(|st| st.in_tree()) {
            self.anycast_step(pastry, env);
        } else {
            pastry.route(g, ScribeMsg::Anycast(env));
        }
    }

    fn handle_disseminate(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        g: GroupId,
        payload: C::Msg,
        ttl: u32,
        seq: u64,
        root: u128,
    ) {
        // Screen before delivering *or* forwarding: a Disseminate poisoned
        // on the link above us must not propagate to the whole subtree.
        if !self.client.validate_payload(&payload) {
            return;
        }
        let Some(st) = self.groups.get_mut(g) else {
            return; // stale: we pruned since
        };
        // Duplicate suppression: repair can transiently double-graft a
        // node; sequence numbers are scoped to the publishing root.
        let root_id = Id::from_u128(root);
        let duplicate = matches!(st.last_delivered, Some((r, s)) if r == root_id && s >= seq);
        if duplicate {
            return;
        }
        st.last_delivered = Some((root_id, seq));
        let member = st.member;
        if ttl > 0 {
            let down = |payload| ScribeMsg::Disseminate {
                group: g,
                payload,
                ttl: ttl - 1,
                seq,
                root,
            };
            let mut children = st.children.iter().peekable();
            while let Some(child) = children.next() {
                if !member && children.peek().is_none() {
                    // A pure forwarder has no further use for the payload.
                    pastry.send_direct(child, down(payload));
                    return;
                }
                pastry.send_direct(child, down(payload.clone()));
            }
        }
        if member {
            self.with_client(pastry, |c, ctx| c.deliver_multicast(ctx, g, payload));
        }
    }

    fn anycast_step(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        mut env: Box<AnycastEnvelope<C::Msg>>,
    ) {
        let me = pastry.self_handle();
        let g = env.group;
        self.counters.anycast_steps.inc();
        if env.ttl == 0 {
            self.anycast_fail(pastry, *env);
            return;
        }
        let Some(st) = self.groups.get(g) else {
            // We pruned since the sender saw us; re-enter through routing.
            env.ttl -= 1;
            pastry.route(g, ScribeMsg::Anycast(env));
            return;
        };
        // Candidates at this node: the local member (if eligible) competes
        // with unvisited child subtrees, ordered by physical distance to
        // the *origin* — the paper's "prefers topologically closest
        // candidates among the target candidates", which keeps receivers
        // near the shedder and thus preserves the placement's locality.
        // Only the best candidate is ever tried (a child ends the step, a
        // declining local member hands over to the best child), and the
        // children keep themselves in that order. A child whose subtree
        // summary does not admit the request is no candidate: nobody below
        // it would accept. The local member is offered regardless — its
        // own answer is the authority.
        let topo = pastry.state().topology();
        let best_child = st.children.nearest_unvisited(
            env.origin,
            Site::of(topo, env.origin.actor),
            &env.visited,
            |summary| summary.is_none_or(|s| C::summary_admits(s, &env.payload)),
        );
        let self_eligible = st.member && !env.offered.contains(&me.actor) && me.id != env.origin.id;
        let local_first = self_eligible && {
            let local = actor_distance(topo, me.actor, env.origin.actor);
            best_child.is_none_or(|(distance, _)| local <= distance)
        };
        if !env.visited.contains(&me.actor) {
            env.visited.push(me.actor);
        }
        if local_first {
            let origin = env.origin;
            env.offered.push(me.actor);
            let accepted = self.with_client(pastry, |c, ctx| {
                c.anycast_accept(ctx, g, &env.payload, origin)
            });
            if accepted {
                return;
            }
            // Declined: fall through to the best child.
        }
        if let Some((_, child)) = best_child {
            env.ttl -= 1;
            pastry.send_direct(child, ScribeMsg::AnycastStep(env));
            return;
        }
        // Exhausted here: backtrack to the parent, which scans its
        // remaining branches. The offer ran client code, which may have
        // left the group and so pruned this node out of the tree: then
        // the walk re-enters through routing, like one sent to a node
        // that pruned while it was in flight.
        env.ttl -= 1;
        let Some(st) = self.groups.get(g) else {
            pastry.route(g, ScribeMsg::Anycast(env));
            return;
        };
        match st.parent {
            Some(p) => pastry.send_direct(p, ScribeMsg::AnycastStep(env)),
            None => self.anycast_fail(pastry, *env),
        }
    }

    fn anycast_fail(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        env: AnycastEnvelope<C::Msg>,
    ) {
        let me = pastry.self_handle();
        if env.origin.id == me.id {
            self.with_client(pastry, |c, ctx| {
                c.anycast_failed(ctx, env.group, env.payload)
            });
        } else {
            pastry.send_direct(
                env.origin,
                ScribeMsg::AnycastFail {
                    group: env.group,
                    payload: env.payload,
                },
            );
        }
    }

    /// Drops every reference to a dead node and repairs trees: children are
    /// removed; a lost parent triggers a re-join for nodes still in the
    /// tree.
    fn repair_after_failure(
        &mut self,
        pastry: &mut AppCtx<'_, '_, ScribeMsg<C::Msg>>,
        failed_actor: ActorId,
    ) {
        let groups: Vec<GroupId> = self.groups.keys().collect();
        for g in groups {
            let mut removed_children = Vec::new();
            let mut lost_parent = false;
            if let Some(st) = self.groups.get_mut(g) {
                if st.parent.is_some_and(|p| p.actor == failed_actor) {
                    st.parent = None;
                    lost_parent = true;
                }
                removed_children.extend(st.children.iter().filter(|c| c.actor == failed_actor));
                for d in &removed_children {
                    st.children.remove(d.id);
                }
            }
            for d in removed_children {
                self.with_client(pastry, |c, ctx| c.on_child_removed(ctx, g, d));
            }
            if lost_parent {
                // The upcall above may have left the group and pruned it.
                let keep = self
                    .groups
                    .get(g)
                    .map(|st| st.member || !st.children.is_empty());
                match keep {
                    Some(true) => self.route_join(pastry, g),
                    Some(false) => self.prune(pastry, g),
                    None => {}
                }
            }
        }
    }
}

/// Grafts `child` into `st` or refreshes its link (see [`Scribe::graft`]).
/// The child's site is read from the topology only for a new link, the one
/// place it is stored.
fn link_child<M: Message + Clone>(
    st: &mut GroupState,
    pastry: &AppCtx<'_, '_, ScribeMsg<M>>,
    child: NodeHandle,
    summary: Option<Summary>,
) -> (bool, bool) {
    let site = || Site::of(pastry.state().topology(), child.actor);
    let me = pastry.self_handle().id;
    st.children.graft(child, site, me, pastry.now(), summary)
}

/// Sends a tree-maintenance message — `ParentProbe`, `Summary`, `Leave`,
/// `ProbeNack` or `ChildProbe` — the one way those travel: inline, as a
/// [`Signal`](vbundle_pastry::Signal), so a probe round allocates nothing.
#[inline]
fn send_tree<M: Message + Clone>(
    pastry: &mut AppCtx<'_, '_, ScribeMsg<M>>,
    to: NodeHandle,
    msg: ScribeMsg<M>,
) {
    let signal = msg.signal().expect("tree maintenance has a signal form");
    pastry.send_signal(to, signal);
}

/// A node's subtree summary in one tree: its own, if it is a member, joined
/// with what each child link last heard. Unknown as soon as any part is.
fn subtree_summary<C: ScribeClient>(
    client: &mut C,
    group: GroupId,
    st: &GroupState,
    now: SimTime,
    until: SimTime,
) -> Option<Summary> {
    let local = match st.member {
        true => client.anycast_summary(group, now, until)?,
        false => 0,
    };
    st.children
        .links()
        .try_fold(local, |all, link| Some(C::summary_join(all, link.summary?)))
}

impl<C: ScribeClient> PastryApp for Scribe<C> {
    type Msg = ScribeMsg<C::Msg>;

    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        if let Some(interval) = self.config.probe_interval {
            ctx.schedule(interval, PROBE_TAG);
        }
        self.with_client(ctx, |c, sctx| c.on_start(sctx));
    }

    fn on_joined(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        // Re-issue joins for groups subscribed before the overlay join
        // completed.
        let orphaned: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, st)| st.member && st.parent.is_none() && !st.root)
            .map(|(g, _)| g)
            .collect();
        for g in orphaned {
            self.route_join(ctx, g);
        }
    }

    fn on_restart(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>) {
        if let Some(interval) = self.config.probe_interval {
            ctx.schedule(interval, PROBE_TAG);
        }
        // While we were down our parents pruned us and our children
        // re-parented elsewhere; both ends of every remembered tree link
        // are untrustworthy. Drop all children (live ones re-graft through
        // their own probes or re-joins), forget the parent, and re-join
        // every group we subscribe to; forwarder-only state is surrendered
        // with a Leave. Root state is kept: if another node took over as
        // root in the meantime, the stale-root check demotes whichever of
        // the two routing no longer favors.
        let mut dropped = Vec::new();
        let mut rejoins = Vec::new();
        let mut leaves = Vec::new();
        let mut gone = Vec::new();
        for (g, st) in self.groups.iter_mut() {
            for child in std::mem::take(&mut st.children).iter() {
                dropped.push((g, child));
            }
            let parent = st.parent.take();
            if st.root {
                continue;
            }
            if st.member {
                rejoins.push(g);
            } else {
                if let Some(p) = parent {
                    leaves.push((p, g));
                }
                gone.push(g);
            }
        }
        for g in gone {
            self.groups.remove(g);
        }
        for (g, child) in dropped {
            self.with_client(ctx, |c, sctx| c.on_child_removed(sctx, g, child));
        }
        for (p, g) in leaves {
            send_tree(ctx, p, ScribeMsg::Leave { group: g });
        }
        for g in rejoins {
            self.route_join(ctx, g);
        }
        self.with_client(ctx, |c, sctx| c.on_restart(sctx));
    }

    fn deliver(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        key: Key,
        msg: Self::Msg,
        origin: NodeHandle,
    ) {
        match msg {
            ScribeMsg::Join {
                group,
                child,
                summary,
            } if key == group => {
                // We are (numerically closest to) the rendezvous point.
                let me = ctx.self_handle();
                let st = self.groups.entry(group);
                st.root = true;
                st.parent = None;
                if child.id != me.id {
                    self.graft(ctx, group, child, summary);
                }
            }
            ScribeMsg::Publish {
                group,
                payload,
                origin,
                nonce,
            } if key == group => {
                // A Publish duplicated in flight must not fan out twice
                // under two root-assigned sequence numbers. Poisoned
                // payloads are dropped before they can fan out at all.
                if self.client.validate_payload(&payload)
                    && self
                        .pub_seen
                        .get_or_insert_with(|| Box::new(DedupWindow::new(PUB_DEDUP_WINDOW)))
                        .remember((origin, nonce))
                {
                    self.disseminate_as_root(ctx, group, payload);
                }
            }
            ScribeMsg::Anycast(env) => self.anycast_step(ctx, env),
            ScribeMsg::Client(m) => {
                if self.client.validate_payload(&m) {
                    self.with_client(ctx, |c, sctx| c.deliver_routed(sctx, key, m, origin));
                }
            }
            // Direct-only variants never travel routed, and a Join or a
            // Publish only to its group's key: one routed elsewhere would
            // make this node a false root.
            _ => self.drop_misdelivered(ctx, origin, true),
        }
    }

    fn forward(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        _key: Key,
        msg: Self::Msg,
        next: NodeHandle,
    ) -> Option<Self::Msg> {
        match msg {
            ScribeMsg::Join {
                group,
                child,
                summary,
            } => {
                let me = ctx.self_handle();
                let st = self.groups.entry(group);
                if child.id == me.id {
                    // Our own join passing through: remember the parent.
                    st.parent = Some(next);
                    return Some(ScribeMsg::Join {
                        group,
                        child,
                        summary,
                    });
                }
                // Already grafted: adopt the child and stop the join.
                // Otherwise become a forwarder: adopt the child, keep
                // joining toward the root under our own name — and with
                // our own subtree summary, which is the child's.
                let forwarder = !st.in_tree();
                if forwarder {
                    st.parent = Some(next);
                    st.reported = summary;
                }
                self.graft(ctx, group, child, summary);
                forwarder.then_some(ScribeMsg::Join {
                    group,
                    child: me,
                    summary,
                })
            }
            ScribeMsg::Anycast(env) => {
                if self.groups.get(env.group).is_some_and(|st| st.in_tree()) {
                    // First tree node on the route: start the DFS here.
                    self.anycast_step(ctx, env);
                    None
                } else {
                    Some(ScribeMsg::Anycast(env))
                }
            }
            other => Some(other),
        }
    }

    fn on_direct(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, from: NodeHandle, msg: Self::Msg) {
        match msg {
            ScribeMsg::Leave { group } => {
                let Some(st) = self.groups.get_mut(group) else {
                    return;
                };
                if st.children.remove(from.id) {
                    self.with_client(ctx, |c, sctx| c.on_child_removed(sctx, group, from));
                    self.prune(ctx, group);
                }
            }
            ScribeMsg::Disseminate {
                group,
                payload,
                ttl,
                seq,
                root,
            } => self.handle_disseminate(ctx, group, payload, ttl, seq, root),
            ScribeMsg::AnycastStep(env) => self.anycast_step(ctx, env),
            ScribeMsg::AnycastFail { group, payload } => {
                self.with_client(ctx, |c, sctx| c.anycast_failed(sctx, group, payload));
            }
            ScribeMsg::Client(m) => {
                if self.client.validate_payload(&m) {
                    self.with_client(ctx, |c, sctx| c.on_direct(sctx, from, m));
                }
            }
            ScribeMsg::ParentProbe { group, summary } => {
                // Refresh the child link; it may have been dropped by an
                // over-eager repair.
                match self.groups.get_mut(group).filter(|st| st.in_tree()) {
                    Some(st) => {
                        let grafted = link_child(st, ctx, from, summary);
                        self.grafted(ctx, group, from, grafted);
                    }
                    None => send_tree(ctx, from, ScribeMsg::ProbeNack { group }),
                }
            }
            ScribeMsg::Summary { group, summary } => {
                // Only a grafted child's word counts; a stale or stray
                // Summary changes nothing.
                let changed = self
                    .groups
                    .get_mut(group)
                    .is_some_and(|st| st.children.set_summary(from.id, summary));
                if changed {
                    self.report_rise(ctx, group);
                }
            }
            ScribeMsg::ProbeNack { group } => {
                // Our supposed parent has no tree state: re-join.
                let mut action = None;
                if let Some(st) = self.groups.get_mut(group) {
                    if st.parent.is_some_and(|p| p.actor == from.actor) {
                        st.parent = None;
                        action = Some(st.member || !st.children.is_empty());
                    }
                }
                match action {
                    Some(true) => self.route_join(ctx, group),
                    Some(false) => self.prune(ctx, group),
                    None => {}
                }
            }
            ScribeMsg::ChildProbe { group } => {
                // Our parent's detector suspects us. If we still consider
                // the sender our parent, refute with an immediate probe;
                // otherwise confirm the graft is stale with a Leave.
                let still_child = self
                    .groups
                    .get(group)
                    .is_some_and(|st| st.parent.is_some_and(|p| p.actor == from.actor));
                if still_child {
                    let summary = self.summary_to_report(ctx, group);
                    send_tree(ctx, from, ScribeMsg::ParentProbe { group, summary });
                } else {
                    send_tree(ctx, from, ScribeMsg::Leave { group });
                }
            }
            // Routed-only variants never travel direct.
            _ => self.drop_misdelivered(ctx, from, false),
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, tag: u64) {
        if tag < SCRIBE_TAG_BASE {
            self.with_client(ctx, |c, sctx| c.on_timer(sctx, tag));
        } else if tag == PROBE_TAG {
            let now = ctx.now();
            let until = self.promise_until(now);
            for (group, st) in self.groups.iter_mut() {
                if let Some(parent) = st.parent {
                    let summary = subtree_summary(&mut self.client, group, st, now, until);
                    st.reported = summary;
                    send_tree(ctx, parent, ScribeMsg::ParentProbe { group, summary });
                }
            }
            // Parent-side expiry: a child that re-parented elsewhere (or
            // died without a Leave) stops probing us; drop the link so no
            // node stays grafted under two parents. The detector adapts to
            // the link's observed probe cadence and double-checks with a
            // direct ChildProbe before dropping. One pass over this node's
            // link records.
            if self.config.probe_interval.is_some() {
                let mut expired: Vec<(GroupId, NodeHandle)> = Vec::new();
                for (g, st) in self.groups.iter_mut() {
                    for link in st.children.links_mut() {
                        match link.detector.evaluate(now) {
                            Verdict::Alive | Verdict::Suspect => {}
                            Verdict::NewlySuspect => {
                                send_tree(ctx, link.handle, ScribeMsg::ChildProbe { group: g })
                            }
                            Verdict::Dead => expired.push((g, link.handle)),
                        }
                    }
                }
                for (g, child) in expired {
                    let removed = self
                        .groups
                        .get_mut(g)
                        .is_some_and(|st| st.children.remove(child.id));
                    if removed {
                        self.counters.children_expired.inc();
                        let at = ctx.now().as_micros();
                        let me = ctx.self_handle().actor.index() as u32;
                        let (who, top) = (child.actor.index() as u64, (g.as_u128() >> 64) as u64);
                        let sub = Subsystem::Scribe;
                        self.flight.record(at, me, sub, &CHILD_EXPIRED, who, top);
                        self.with_client(ctx, |c, sctx| c.on_child_removed(sctx, g, child));
                        self.prune(ctx, g);
                    }
                }
            }
            // A root superseded while it was down may never multicast again
            // on its own; the probe round also retires stale roots so their
            // orphaned subtrees reconnect to the live tree.
            let stale: Vec<GroupId> = self
                .groups
                .keys()
                .filter(|&g| self.is_stale_root(ctx, g))
                .collect();
            for g in stale {
                self.demote_stale_root(ctx, g);
            }
            if let Some(interval) = self.config.probe_interval {
                ctx.schedule(interval, PROBE_TAG);
            }
        }
    }

    fn decode_signal(signal: Signal) -> Option<Self::Msg> {
        ScribeMsg::from_signal(signal)
    }

    fn on_node_failed(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg>, failed: NodeHandle) {
        self.repair_after_failure(ctx, failed.actor);
        self.with_client(ctx, |c, sctx| c.on_node_failed(sctx, failed));
    }

    fn on_send_failure(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg>,
        to: ActorId,
        msg: Self::Msg,
    ) {
        self.repair_after_failure(ctx, to);
        match msg {
            ScribeMsg::AnycastStep(mut env) => {
                // Resume the DFS from here, skipping the dead node.
                if !env.visited.contains(&to) {
                    env.visited.push(to);
                }
                self.anycast_step(ctx, env);
            }
            ScribeMsg::Client(m) => {
                self.with_client(ctx, |c, sctx| c.on_send_failure(sctx, to, m));
            }
            // Disseminate/Leave/AnycastFail to a dead node: repair above
            // already detached it; nothing further to do.
            _ => {}
        }
    }
}

impl<C: ScribeClient> std::fmt::Debug for Scribe<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scribe")
            .field("groups", &self.groups.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vbundle_dcn::Topology;
    use vbundle_pastry::{overlay, IdAssignment, PastryConfig};
    use vbundle_sim::Latency;

    use super::*;
    use crate::{group_id, CollectClient, TestPayload};

    #[test]
    fn only_the_root_holds_a_publish_window() {
        let topo = Arc::new(Topology::builder().rack_sizes(&[4, 4, 4]).build());
        let (mut net, handles) = overlay::launch(
            &topo,
            IdAssignment::TopologyAware,
            PastryConfig::default(),
            4,
            Latency::Constant(SimDuration::from_micros(100)),
            |_, _| Scribe::new(CollectClient::default()),
        );
        let g = group_id("window");
        for (i, h) in handles.iter().enumerate() {
            net.call(h.actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |_, sctx| {
                        sctx.join(g);
                        if i % 3 == 0 {
                            sctx.multicast(g, TestPayload(i as u64));
                        }
                    });
                });
            });
        }
        net.run_to_quiescence();
        let mut roots = 0;
        for h in &handles {
            let scribe = net.actor(h.actor).app();
            let root = scribe.group(g).is_some_and(|st| st.root);
            assert_eq!(scribe.pub_seen.is_some(), root, "node {h}");
            roots += usize::from(root);
        }
        assert_eq!(roots, 1);
    }
}

//! Wire messages of the Scribe layer (carried as Pastry payloads).

use vbundle_pastry::{NodeHandle, Signal};
use vbundle_sim::{ActorId, CorruptionMode, Message, MsgCategory};

use crate::{GroupId, Summary};

/// State of one anycast traversal: a depth-first search of the group tree
/// (§III.A of the v-Bundle paper).
#[derive(Debug, Clone)]
pub struct AnycastEnvelope<M> {
    /// The group being searched.
    pub group: GroupId,
    /// The application payload (e.g. a v-Bundle load-balance query).
    pub payload: M,
    /// The node that issued the anycast.
    pub origin: NodeHandle,
    /// Nodes the DFS has entered (parents skip these when descending).
    pub visited: Vec<ActorId>,
    /// Members that were offered the payload and declined. Tracked
    /// separately from `visited`: a node may be *entered* (and descend into
    /// a child that is closer to the origin) before its own membership is
    /// offered on backtrack.
    pub offered: Vec<ActorId>,
    /// Remaining traversal budget; the search fails when it reaches zero.
    pub ttl: u32,
}

/// Everything the Scribe layer sends. `M` is the client payload type.
///
/// The anycast traversal state is the one fat, cold part: it travels
/// behind its own `Box`, allocated by the issuer and handed from step to
/// step, so the common variants (probes, publishes, client messages) do
/// not pay its size on every move. The five tree-maintenance variants
/// (`ParentProbe`, `Summary`, `Leave`, `ProbeNack`, `ChildProbe`) are a
/// group id and at most one word: they always travel as a Pastry
/// [`Signal`], inline in the envelope (see [`ScribeMsg::signal`]).
#[derive(Debug, Clone)]
pub enum ScribeMsg<M> {
    /// Routed toward the group id; grafts `child` onto the tree at the
    /// first tree node the route meets.
    Join {
        /// The group being joined.
        group: GroupId,
        /// The node to graft (rewritten hop by hop).
        child: NodeHandle,
        /// `child`'s subtree summary, so that a fresh graft is not an
        /// unknown in its ancestors' summaries.
        summary: Option<Summary>,
    },
    /// Sent directly to the parent by a child that detaches: an empty,
    /// non-member forwarder pruning itself, a restarted node giving up a
    /// forwarder role, a node whose stale parent still probes it.
    Leave {
        /// The group being left.
        group: GroupId,
    },
    /// A multicast payload routed toward the group's root.
    Publish {
        /// The target group.
        group: GroupId,
        /// The payload.
        payload: M,
        /// The publishing node's id: dedup scope for `nonce`.
        origin: u128,
        /// Publisher-assigned nonce; the root drops `(origin, nonce)`
        /// pairs it has already disseminated, so a duplicated-in-flight
        /// Publish cannot fan out twice under two sequence numbers.
        nonce: u64,
    },
    /// A multicast payload flowing down the tree (parent to child).
    Disseminate {
        /// The group.
        group: GroupId,
        /// The payload.
        payload: M,
        /// Loop guard.
        ttl: u32,
        /// Root-assigned sequence number (for duplicate suppression).
        seq: u64,
        /// The publishing root's id (sequence numbers are root-scoped).
        root: u128,
    },
    /// An anycast routed toward the group (intercepted by the first tree
    /// node on the route).
    Anycast(Box<AnycastEnvelope<M>>),
    /// One DFS step of an anycast, sent directly between tree nodes.
    AnycastStep(Box<AnycastEnvelope<M>>),
    /// Anycast exhausted the tree without an acceptor; returned to origin.
    AnycastFail {
        /// The group searched.
        group: GroupId,
        /// The original payload.
        payload: M,
    },
    /// A direct client-to-client message.
    Client(M),
    /// Child → parent liveness probe; a dead parent bounces it (triggering
    /// re-join), a parent that pruned its state answers [`ScribeMsg::ProbeNack`].
    /// The sender is the child.
    ParentProbe {
        /// The group being probed.
        group: GroupId,
        /// The child's subtree summary as of this probe — the periodic
        /// refresh that also carries every fall.
        summary: Option<Summary>,
    },
    /// Child → parent, between probes: the child's subtree summary rose
    /// above what it last reported. (A fall waits for the next probe: a
    /// parent that believes too much wastes a step, one that believes too
    /// little refuses a request that would have fit.)
    Summary {
        /// The group.
        group: GroupId,
        /// The child's subtree summary now.
        summary: Option<Summary>,
    },
    /// Parent's answer to a probe for a group it no longer has state for.
    ProbeNack {
        /// The group.
        group: GroupId,
    },
    /// Parent → child liveness check, sent when the parent's phi-accrual
    /// detector first suspects the child link. A child that still considers
    /// the sender its parent answers with a [`ScribeMsg::ParentProbe`]
    /// (refuting the suspicion); one that re-parented answers
    /// [`ScribeMsg::Leave`] so the stale graft is dropped at once.
    ChildProbe {
        /// The group being checked.
        group: GroupId,
    },
}

/// [`Signal`] kinds of the tree-maintenance variants. Any other kind
/// decodes to nothing.
const PARENT_PROBE: u8 = 0;
const SUMMARY: u8 = 1;
const LEAVE: u8 = 2;
const PROBE_NACK: u8 = 3;
const CHILD_PROBE: u8 = 4;

impl<M: Message> ScribeMsg<M> {
    /// The inline form of a tree-maintenance message: a [`Signal`]
    /// reporting this message's wire size and category. `None` for every
    /// other variant.
    #[inline]
    pub fn signal(&self) -> Option<Signal> {
        let (kind, group, word) = match *self {
            ScribeMsg::ParentProbe { group, summary } => (PARENT_PROBE, group, summary),
            ScribeMsg::Summary { group, summary } => (SUMMARY, group, summary),
            ScribeMsg::Leave { group } => (LEAVE, group, None),
            ScribeMsg::ProbeNack { group } => (PROBE_NACK, group, None),
            ScribeMsg::ChildProbe { group } => (CHILD_PROBE, group, None),
            _ => return None,
        };
        Some(Signal::new(
            kind,
            group,
            word,
            self.wire_size(),
            self.category(),
        ))
    }

    /// The message a [`ScribeMsg::signal`] encodes; `None` for a kind
    /// Scribe never sends.
    pub fn from_signal(signal: Signal) -> Option<Self> {
        let group = signal.key();
        let summary = signal.word();
        Some(match signal.kind() {
            PARENT_PROBE => ScribeMsg::ParentProbe { group, summary },
            SUMMARY => ScribeMsg::Summary { group, summary },
            LEAVE => ScribeMsg::Leave { group },
            PROBE_NACK => ScribeMsg::ProbeNack { group },
            CHILD_PROBE => ScribeMsg::ChildProbe { group },
            _ => return None,
        })
    }
}

const GROUP_BYTES: usize = 16;
const HANDLE_BYTES: usize = 20;

/// A presence byte, then the word.
fn summary_bytes(summary: &Option<Summary>) -> usize {
    1 + summary.map_or(0, |_| 4)
}

impl<M: Message> Message for ScribeMsg<M> {
    fn wire_size(&self) -> usize {
        match self {
            ScribeMsg::Join { summary, .. } => {
                GROUP_BYTES + HANDLE_BYTES + 4 + summary_bytes(summary)
            }
            ScribeMsg::Publish { payload, .. } => GROUP_BYTES + 28 + payload.wire_size(),
            ScribeMsg::Disseminate { payload, .. } => GROUP_BYTES + 32 + payload.wire_size(),
            ScribeMsg::Anycast(env) | ScribeMsg::AnycastStep(env) => {
                GROUP_BYTES
                    + HANDLE_BYTES
                    + 8
                    + 4 * (env.visited.len() + env.offered.len())
                    + env.payload.wire_size()
            }
            ScribeMsg::AnycastFail { payload, .. } => GROUP_BYTES + 4 + payload.wire_size(),
            ScribeMsg::Client(m) => 4 + m.wire_size(),
            ScribeMsg::ParentProbe { summary, .. } | ScribeMsg::Summary { summary, .. } => {
                GROUP_BYTES + 4 + summary_bytes(summary)
            }
            ScribeMsg::Leave { .. }
            | ScribeMsg::ProbeNack { .. }
            | ScribeMsg::ChildProbe { .. } => GROUP_BYTES + 4,
        }
    }

    fn category(&self) -> MsgCategory {
        match self {
            ScribeMsg::Join { .. }
            | ScribeMsg::Leave { .. }
            | ScribeMsg::ParentProbe { .. }
            | ScribeMsg::Summary { .. }
            | ScribeMsg::ProbeNack { .. }
            | ScribeMsg::ChildProbe { .. } => MsgCategory::Maintenance,
            ScribeMsg::Publish { payload, .. }
            | ScribeMsg::Disseminate { payload, .. }
            | ScribeMsg::AnycastFail { payload, .. } => payload.category(),
            ScribeMsg::Anycast(env) | ScribeMsg::AnycastStep(env) => env.payload.category(),
            ScribeMsg::Client(m) => m.category(),
        }
    }

    /// Corruption targets the client payload, not the tree-maintenance
    /// metadata: a poisoned reporter lies about its data, it does not
    /// rewrite group membership.
    fn corrupt(&mut self, mode: CorruptionMode) -> bool {
        match self {
            ScribeMsg::Publish { payload, .. }
            | ScribeMsg::Disseminate { payload, .. }
            | ScribeMsg::AnycastFail { payload, .. }
            | ScribeMsg::Client(payload) => payload.corrupt(mode),
            ScribeMsg::Anycast(env) | ScribeMsg::AnycastStep(env) => env.payload.corrupt(mode),
            ScribeMsg::Join { .. }
            | ScribeMsg::Leave { .. }
            | ScribeMsg::ParentProbe { .. }
            | ScribeMsg::Summary { .. }
            | ScribeMsg::ProbeNack { .. }
            | ScribeMsg::ChildProbe { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbundle_pastry::Id;

    #[derive(Debug, Clone)]
    struct P;
    impl Message for P {
        fn wire_size(&self) -> usize {
            50
        }
    }

    #[test]
    fn sizes_and_categories() {
        let h = NodeHandle::new(Id::from_u128(1), ActorId::new(0));
        let join: ScribeMsg<P> = ScribeMsg::Join {
            group: Id::from_u128(2),
            child: h,
            summary: None,
        };
        assert_eq!(join.wire_size(), 41);
        assert_eq!(join.category(), MsgCategory::Maintenance);

        let pubm: ScribeMsg<P> = ScribeMsg::Publish {
            group: Id::from_u128(2),
            payload: P,
            origin: 7,
            nonce: 0,
        };
        assert_eq!(pubm.wire_size(), 94);
        assert_eq!(pubm.category(), MsgCategory::Payload);

        let any: ScribeMsg<P> = ScribeMsg::Anycast(Box::new(AnycastEnvelope {
            group: Id::from_u128(2),
            payload: P,
            origin: h,
            visited: vec![ActorId::new(1), ActorId::new(2)],
            offered: vec![],
            ttl: 10,
        }));
        assert_eq!(any.wire_size(), 16 + 20 + 8 + 8 + 50);
    }
}

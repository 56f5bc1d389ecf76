//! Wire messages of the Pastry overlay.

use vbundle_sim::{CorruptionMode, Message, MsgCategory};

use crate::{Key, NodeHandle};

/// A message being routed toward `key` through the overlay.
#[derive(Debug, Clone)]
pub struct RouteEnvelope<M> {
    /// Destination key; delivery happens at the live node numerically
    /// closest to it.
    pub key: Key,
    /// The application payload.
    pub payload: M,
    /// Hops taken so far: the loop guard delivers a route past 64 hops
    /// at the node it reached.
    pub hops: u32,
    /// The node that first injected the message.
    pub origin: NodeHandle,
}

/// Everything that travels between Pastry nodes. `M` is the application
/// payload type (for v-Bundle: Scribe messages).
///
/// The engine moves this type by value several times per event, so it is
/// kept to 48 bytes whatever `M` is: Pastry's own maintenance variants and
/// the application's [`Signal`]s are inline, any other application payload
/// sits behind one owning `Box`, allocated where the message originates
/// and carried — not re-allocated — across route hops.
#[derive(Debug, Clone)]
pub enum PastryMsg<M> {
    /// A routed application message.
    Route(Box<RouteEnvelope<M>>),
    /// A direct (un-routed) application message between known nodes.
    Direct {
        /// Sending node.
        from: NodeHandle,
        /// The payload.
        msg: Box<M>,
    },
    /// A direct application message small enough to travel inline: the
    /// application encodes it into a [`Signal`] and decodes it on receipt
    /// ([`PastryApp::decode_signal`](crate::PastryApp::decode_signal)).
    Signal {
        /// Sending node.
        from: NodeHandle,
        /// The encoded payload.
        signal: Signal,
    },
    /// A newcomer's join request, routed toward its own id.
    Join {
        /// The joining node.
        newcomer: NodeHandle,
        /// Hops taken so far.
        hops: u32,
    },
    /// Routing state transferred to a joining node.
    JoinState {
        /// The contributing node.
        from: NodeHandle,
        /// Handles the newcomer should learn (routing rows, neighbor set,
        /// and — from the numerically closest node — the leaf set).
        contacts: Vec<NodeHandle>,
        /// True when sent by the node numerically closest to the newcomer,
        /// which completes the join.
        is_destination: bool,
    },
    /// A (newly joined) node announcing itself.
    Announce(NodeHandle),
    /// Leaf-set liveness: the sender's periodic proof of life to each
    /// member of its leaf set.
    Heartbeat(NodeHandle),
    /// Proof of life on demand: the answer to a [`PastryMsg::Heartbeat`]
    /// from a node the receiver does not heartbeat itself, and to a
    /// [`PastryMsg::RelayPing`].
    HeartbeatAck(NodeHandle),
    /// Request for the receiver's leaf set (repair).
    LeafSetRequest(NodeHandle),
    /// The requested leaf set, including the sender itself.
    LeafSetReply(Vec<NodeHandle>),
    /// Graceful departure announcement: receivers evict the sender
    /// immediately instead of waiting for failure detection.
    Depart(NodeHandle),
    /// SWIM-style indirect probe request: `origin` suspects `subject` and
    /// asks the receiver to ping it on origin's behalf.
    PingReq {
        /// The suspecting node.
        origin: NodeHandle,
        /// The suspected node to be pinged.
        subject: NodeHandle,
    },
    /// An ack demand, relayed for a [`PastryMsg::PingReq`] or sent by a
    /// suspecting `origin` itself: the receiver (the suspect) answers
    /// `origin` directly with a [`PastryMsg::HeartbeatAck`], refuting the
    /// suspicion.
    RelayPing {
        /// The node that originated the suspicion.
        origin: NodeHandle,
    },
    /// Routing-table maintenance: request one row of the receiver's table.
    RowRequest {
        /// The asking node.
        from: NodeHandle,
        /// The row index wanted.
        row: u8,
    },
    /// The requested routing-table row (plus the sender itself).
    RowReply(Vec<NodeHandle>),
}

/// A small direct application message in a fixed inline form: a key, an
/// optional word and the application's tag for what they mean. It records
/// the wire size and category the application's own message would report,
/// so the envelope reports exactly what a boxed
/// [`PastryMsg::Direct`] carrying that message would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signal {
    key: Key,
    word: u32,
    kind: u8,
    wire: u8,
    flags: u8,
}

impl Signal {
    /// Flag: `word` is present.
    const HAS_WORD: u8 = 1;
    /// Flag: the message is [`MsgCategory::Payload`] traffic.
    const PAYLOAD: u8 = 2;

    /// Encodes an application message of kind `kind` about `key`, with an
    /// optional `word`, that reports `wire` bytes in `category`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` exceeds 255 bytes: a message that large is no
    /// signal.
    pub fn new(kind: u8, key: Key, word: Option<u32>, wire: usize, category: MsgCategory) -> Self {
        let wire = u8::try_from(wire).expect("a signal reports at most 255 wire bytes");
        let mut flags = 0;
        if word.is_some() {
            flags |= Self::HAS_WORD;
        }
        if category == MsgCategory::Payload {
            flags |= Self::PAYLOAD;
        }
        Signal {
            key,
            word: word.unwrap_or(0),
            kind,
            wire,
            flags,
        }
    }

    /// The application's tag for the message.
    pub fn kind(&self) -> u8 {
        self.kind
    }

    /// The key the message is about.
    pub fn key(&self) -> Key {
        self.key
    }

    /// The word, if the message carries one.
    pub fn word(&self) -> Option<u32> {
        (self.flags & Self::HAS_WORD != 0).then_some(self.word)
    }

    /// The wire size the application's message reports.
    pub fn wire_size(&self) -> usize {
        usize::from(self.wire)
    }

    /// The traffic category of the application's message.
    pub fn category(&self) -> MsgCategory {
        if self.flags & Self::PAYLOAD != 0 {
            MsgCategory::Payload
        } else {
            MsgCategory::Maintenance
        }
    }
}

const HANDLE_BYTES: usize = 20; // 16-byte id + 4-byte address

// Layout guards: the wire sizes above are explicit constants, the
// in-memory sizes are what every queue slot and every move pays.
const _: () = assert!(std::mem::size_of::<NodeHandle>() == 20);
const _: () = assert!(std::mem::size_of::<Option<NodeHandle>>() == 24);
const _: () = assert!(std::mem::size_of::<Signal>() <= 24);
const _: () = assert!(std::mem::size_of::<PastryMsg<[u64; 64]>>() <= 48);

impl<M: Message> Message for PastryMsg<M> {
    fn wire_size(&self) -> usize {
        match self {
            PastryMsg::Route(env) => 8 + HANDLE_BYTES + 16 + env.payload.wire_size(),
            PastryMsg::Direct { msg, .. } => 4 + HANDLE_BYTES + msg.wire_size(),
            PastryMsg::Signal { signal, .. } => 4 + HANDLE_BYTES + signal.wire_size(),
            PastryMsg::Join { .. } => 8 + HANDLE_BYTES,
            PastryMsg::JoinState { contacts, .. } => 8 + HANDLE_BYTES * (contacts.len() + 1),
            PastryMsg::Announce(_)
            | PastryMsg::Heartbeat(_)
            | PastryMsg::HeartbeatAck(_)
            | PastryMsg::LeafSetRequest(_)
            | PastryMsg::Depart(_)
            | PastryMsg::RelayPing { .. } => 4 + HANDLE_BYTES,
            PastryMsg::PingReq { .. } => 4 + HANDLE_BYTES * 2,
            PastryMsg::RowRequest { .. } => 5 + HANDLE_BYTES,
            PastryMsg::LeafSetReply(v) | PastryMsg::RowReply(v) => 4 + HANDLE_BYTES * v.len(),
        }
    }

    fn category(&self) -> MsgCategory {
        match self {
            PastryMsg::Route(env) => env.payload.category(),
            PastryMsg::Direct { msg, .. } => msg.category(),
            PastryMsg::Signal { signal, .. } => signal.category(),
            _ => MsgCategory::Maintenance,
        }
    }

    /// Corruption passes through to the boxed application payload; overlay
    /// maintenance traffic and signals carry no corruptible data.
    fn corrupt(&mut self, mode: CorruptionMode) -> bool {
        match self {
            PastryMsg::Route(env) => env.payload.corrupt(mode),
            PastryMsg::Direct { msg, .. } => msg.corrupt(mode),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Id;
    use vbundle_sim::ActorId;

    #[derive(Debug, Clone)]
    struct Payload;
    impl Message for Payload {
        fn wire_size(&self) -> usize {
            100
        }
        fn category(&self) -> MsgCategory {
            MsgCategory::Payload
        }
    }

    fn handle() -> NodeHandle {
        NodeHandle::new(Id::from_u128(1), ActorId::new(0))
    }

    #[test]
    fn route_size_includes_payload() {
        let msg: PastryMsg<Payload> = PastryMsg::Route(Box::new(RouteEnvelope {
            key: Id::from_u128(2),
            payload: Payload,
            hops: 0,
            origin: handle(),
        }));
        assert_eq!(msg.wire_size(), 8 + 20 + 16 + 100);
        assert_eq!(msg.category(), MsgCategory::Payload);
    }

    #[test]
    fn signal_reports_what_it_was_given() {
        let key = Id::from_u128(9);
        let probe = Signal::new(3, key, None, 21, MsgCategory::Maintenance);
        assert_eq!((probe.kind(), probe.key(), probe.word()), (3, key, None));
        let msg: PastryMsg<Payload> = PastryMsg::Signal {
            from: handle(),
            signal: probe,
        };
        assert_eq!(msg.wire_size(), 4 + 20 + 21);
        assert_eq!(msg.category(), MsgCategory::Maintenance);
        for word in [0, 7, u32::MAX] {
            let s = Signal::new(0, key, Some(word), 255, MsgCategory::Payload);
            assert_eq!(s.word(), Some(word));
            assert_eq!(s.wire_size(), 255);
            assert_eq!(s.category(), MsgCategory::Payload);
        }
    }

    #[test]
    fn maintenance_messages_categorized() {
        let msg: PastryMsg<Payload> = PastryMsg::Heartbeat(handle());
        assert_eq!(msg.category(), MsgCategory::Maintenance);
        let msg: PastryMsg<Payload> = PastryMsg::LeafSetReply(vec![handle(), handle()]);
        assert_eq!(msg.wire_size(), 4 + 40);
        assert_eq!(msg.category(), MsgCategory::Maintenance);
    }
}

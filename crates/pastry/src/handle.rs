//! Node handles: the (id, address) pairs that messages carry and that
//! routing state answers in.

use vbundle_sim::ActorId;

use crate::NodeId;

/// A reference to a remote Pastry node: its overlay id plus its simulation
/// address (which doubles as the physical server index).
///
/// The real system stores `(nodeId, IP address, latency)` triples; here the
/// [`ActorId`] plays the role of the IP address and latency is derived from
/// the shared [`Topology`](vbundle_dcn::Topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHandle {
    /// The node's Pastry identifier.
    pub id: NodeId,
    /// The node's address in the simulation (= server index).
    pub actor: ActorId,
}

impl NodeHandle {
    /// Creates a handle.
    pub const fn new(id: NodeId, actor: ActorId) -> Self {
        NodeHandle { id, actor }
    }
}

impl std::fmt::Display for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.id, self.actor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Id;

    #[test]
    fn display_combines_id_and_actor() {
        let h = NodeHandle::new(Id::from_u128(0xabcd0000 << 96), ActorId::new(7));
        assert_eq!(format!("{h}"), "abcd0000@actor#7");
    }
}

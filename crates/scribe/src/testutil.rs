//! A recording client used by Scribe's own tests, doctests and the
//! Table I micro-benchmarks.

use vbundle_pastry::NodeHandle;
use vbundle_sim::{Message, SimTime};

use crate::{GroupId, ScribeClient, ScribeCtx, Summary};

/// A small cloneable payload for tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestPayload(pub u64);

impl Message for TestPayload {
    fn wire_size(&self) -> usize {
        8
    }
}

/// A [`ScribeClient`] that records everything it sees and can be told to
/// accept or decline anycasts.
#[derive(Debug, Default, Clone)]
pub struct CollectClient {
    /// Multicasts delivered to this node: `(group, payload)`.
    pub multicasts: Vec<(GroupId, TestPayload)>,
    /// Anycasts offered to this node: `(group, payload, origin)`.
    pub anycast_offers: Vec<(GroupId, TestPayload, NodeHandle)>,
    /// Anycasts this node issued that found no acceptor.
    pub anycast_failures: Vec<(GroupId, TestPayload)>,
    /// Direct client messages received: `(from, payload)`.
    pub directs: Vec<(NodeHandle, TestPayload)>,
    /// Whether this node accepts anycasts offered to it.
    pub accept_anycast: bool,
    /// This node's anycast summary for every group; `None` makes no claim.
    /// The trait's default reading applies: `0` admits nothing, anything
    /// else may admit anything.
    pub summary: Option<Summary>,
    /// Children currently grafted below this node (group, child), added
    /// order.
    pub child_events: Vec<(GroupId, NodeHandle, bool)>, // true = added
}

impl ScribeClient for CollectClient {
    type Msg = TestPayload;

    fn deliver_multicast(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        group: GroupId,
        msg: TestPayload,
    ) {
        self.multicasts.push((group, msg));
    }

    fn anycast_accept(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        group: GroupId,
        msg: &TestPayload,
        origin: NodeHandle,
    ) -> bool {
        self.anycast_offers.push((group, *msg, origin));
        self.accept_anycast
    }

    fn anycast_summary(&mut self, _: GroupId, _: SimTime, _: SimTime) -> Option<Summary> {
        self.summary
    }

    fn anycast_failed(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        group: GroupId,
        msg: TestPayload,
    ) {
        self.anycast_failures.push((group, msg));
    }

    fn on_direct(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        from: NodeHandle,
        msg: TestPayload,
    ) {
        self.directs.push((from, msg));
    }

    fn on_child_added(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        group: GroupId,
        child: NodeHandle,
    ) {
        self.child_events.push((group, child, true));
    }

    fn on_child_removed(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        group: GroupId,
        child: NodeHandle,
    ) {
        self.child_events.push((group, child, false));
    }
}

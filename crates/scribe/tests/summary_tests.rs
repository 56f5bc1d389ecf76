//! Subtree summaries and the pruned anycast: on a tree at rest every link
//! holds exactly what the subtree below it admits, a pruned walk ends
//! where the unpruned one does in no more steps, a walk nobody can accept
//! climbs to the root and fails there, and a member that leaves from
//! inside the offer does not strand the walk.

use std::sync::Arc;

use proptest::prelude::*;
use vbundle_dcn::Topology;
use vbundle_pastry::{overlay, IdAssignment, NodeHandle, PastryConfig, PastryMsg, PastryNode};
use vbundle_scribe::{
    group_id, GroupId, Scribe, ScribeClient, ScribeCtx, ScribeMsg, Summary, TestPayload,
};
use vbundle_sim::{Engine, Latency, SimDuration, SimTime};

/// A member that accepts a request sharing a bit with its mask, and — if
/// it `claims` — says so in its summary: the join is the default bit-or,
/// a subtree admits what some mask below it accepts.
#[derive(Debug, Default)]
struct MaskClient {
    mask: u32,
    claims: bool,
    /// Leaves the group from inside every offer.
    leaves: bool,
    offered: Vec<u64>,
    accepted: Vec<u64>,
    failed: Vec<u64>,
}

impl ScribeClient for MaskClient {
    type Msg = TestPayload;

    fn deliver_multicast(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        _group: GroupId,
        _msg: TestPayload,
    ) {
    }

    fn anycast_accept(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        group: GroupId,
        msg: &TestPayload,
        _origin: NodeHandle,
    ) -> bool {
        self.offered.push(msg.0);
        if self.leaves {
            ctx.leave(group);
        }
        let accept = self.mask & msg.0 as u32 != 0;
        if accept {
            self.accepted.push(msg.0);
        }
        accept
    }

    fn anycast_failed(
        &mut self,
        _ctx: &mut ScribeCtx<'_, '_, '_, '_, TestPayload>,
        _group: GroupId,
        msg: TestPayload,
    ) {
        self.failed.push(msg.0);
    }

    fn anycast_summary(&mut self, _: GroupId, _: SimTime, _: SimTime) -> Option<Summary> {
        self.claims.then_some(self.mask)
    }

    fn summary_admits(summary: Summary, msg: &TestPayload) -> bool {
        summary & msg.0 as u32 != 0
    }
}

type Net = Engine<PastryMsg<ScribeMsg<TestPayload>>, PastryNode<Scribe<MaskClient>>>;

/// `servers` nodes in racks of four; the members join `g` one by one with
/// the tree settling in between, so what the links hold came by Join and
/// by eager Summary alone (there are no probes).
fn launch(
    servers: usize,
    seed: u64,
    g: GroupId,
    client: impl Fn(usize) -> Option<MaskClient>,
) -> (Net, Vec<NodeHandle>) {
    let topo = Arc::new(
        Topology::builder()
            .rack_sizes(&vec![4; servers / 4])
            .build(),
    );
    let (mut net, handles): (Net, _) = overlay::launch(
        &topo,
        IdAssignment::Random { seed },
        PastryConfig::default(),
        seed,
        Latency::Constant(SimDuration::from_micros(100)),
        |i, _| Scribe::new(client(i).unwrap_or_default()),
    );
    for (i, h) in handles.iter().enumerate() {
        if client(i).is_some() {
            call(&mut net, *h, |sctx| sctx.join(g));
            net.run_to_quiescence();
        }
    }
    (net, handles)
}

fn call(
    net: &mut Net,
    at: NodeHandle,
    f: impl FnOnce(&mut ScribeCtx<'_, '_, '_, '_, TestPayload>),
) {
    net.call(at.actor, |node, ctx| {
        node.app_call(ctx, |scribe, actx| {
            scribe.client_call(actx, |_, sctx| f(sctx))
        });
    });
}

/// What the subtree of `at` really admits, from the clients' masks.
fn actual(net: &Net, g: GroupId, at: NodeHandle) -> Summary {
    let scribe = net.actor(at.actor).app();
    let st = scribe.group(g).expect("tree node");
    let own = if st.member { scribe.client().mask } else { 0 };
    st.children
        .iter()
        .fold(own, |all, c| all | actual(net, g, c))
}

/// Anycasts `request` from `origin` and runs the walk out. Returns who
/// accepted (`None`: the origin was told it failed) and the wire sizes of
/// the messages the walk took, in order.
fn walk(
    net: &mut Net,
    handles: &[NodeHandle],
    g: GroupId,
    origin: usize,
    request: u64,
) -> (Option<usize>, Vec<u64>) {
    // Each event of a walk sends at most one message: the next step.
    let mut sizes = Vec::new();
    let mut sent = net.counter_totals().total_bytes();
    let mut tally = |net: &Net| {
        let now = net.counter_totals().total_bytes();
        sizes.extend((now > sent).then_some(now - sent));
        sent = now;
    };
    call(net, handles[origin], |sctx| {
        sctx.anycast(g, TestPayload(request))
    });
    tally(net);
    while net.step() {
        tally(net);
    }
    let client = |i: usize| net.actor(handles[i].actor).app().client();
    let acceptor = (0..handles.len()).find(|&i| client(i).accepted.contains(&request));
    assert_eq!(
        acceptor.is_none(),
        client(origin).failed.contains(&request),
        "a walk ends in exactly one of an acceptor and a failure notice"
    );
    (acceptor, sizes)
}

proptest! {
    /// The same members with the same masks, once claiming and once not:
    /// the claiming tree's links hold exactly what is below them, and
    /// every walk ends at the same acceptor — or fails in both — in no
    /// more messages when pruned.
    #[test]
    fn pruned_walk_ends_where_the_unpruned_one_does(
        seed in 0u64..1000,
        members in any::<u32>(),
        masks in proptest::collection::vec(0u32..8, 32),
        walks in proptest::collection::vec((0usize..32, 1u64..8), 1..6),
    ) {
        let g = group_id("Spot-0");
        let client = |claims: bool| {
            let masks = masks.clone();
            move |i: usize| {
                (members >> i & 1 == 1).then(|| MaskClient { mask: masks[i], claims, ..MaskClient::default() })
            }
        };
        let (mut pruned, handles) = launch(32, seed, g, client(true));
        let (mut plain, _) = launch(32, seed, g, client(false));
        for h in &handles {
            let Some(st) = pruned.actor(h.actor).app().group(g) else { continue };
            for link in st.children.links() {
                prop_assert_eq!(link.summary, Some(actual(&pruned, g, link.handle)), "{} under {}", link.handle, h);
            }
            let plain = plain.actor(h.actor).app().group(g).expect("same tree");
            prop_assert!(plain.children.iter().eq(st.children.iter()));
            prop_assert!(plain.children.links().all(|link| link.summary.is_none()));
        }
        for (k, &(origin, wanted)) in walks.iter().enumerate() {
            // The masks' three bits, under a tag that tells the walks apart.
            let request = (k as u64 + 1) << 3 | wanted;
            let (here, short) = walk(&mut pruned, &handles, g, origin, request);
            let (there, long) = walk(&mut plain, &handles, g, origin, request);
            prop_assert_eq!(here, there, "request {} from {}", request, origin);
            prop_assert!(short.len() <= long.len(), "{} > {} messages", short.len(), long.len());
        }
    }
}

/// Sixty-four members, none of which accepts anything: the unpruned walk
/// knocks on every door, the pruned one climbs from its origin to the root
/// and fails there with next to nothing in its envelope.
#[test]
fn a_walk_nobody_can_accept_fails_at_the_root() {
    let g = group_id("Spot-0");
    let nobody = |claims| {
        move |_| {
            Some(MaskClient {
                claims,
                ..MaskClient::default()
            })
        }
    };
    let (mut pruned, handles) = launch(64, 9, g, nobody(true));
    let (mut plain, _) = launch(64, 9, g, nobody(false));
    let depth_of = |net: &Net, mut at: NodeHandle| {
        let mut depth = 0;
        while let Some(parent) = net.actor(at.actor).app().group(g).and_then(|st| st.parent) {
            (at, depth) = (parent, depth + 1);
        }
        depth
    };
    let deepest = handles
        .iter()
        .map(|&h| depth_of(&pruned, h))
        .max()
        .expect("nodes");
    for origin in [0, 17, 40, 63] {
        let (acceptor, sizes) = walk(&mut pruned, &handles, g, origin, 1);
        assert_eq!(acceptor, None);
        // One step per level climbed, then the failure notice.
        let steps = sizes.len() - 1;
        assert_eq!(steps, depth_of(&pruned, handles[origin]));
        assert!(steps <= deepest + 1);
        let last = sizes[..steps].last().copied().unwrap_or(0);
        assert!(last < 150, "last envelope {last} B");

        let (acceptor, sizes) = walk(&mut plain, &handles, g, origin, 1);
        assert_eq!(acceptor, None);
        assert!(sizes.len() > 64, "the unpruned walk offers every member");
        assert!(sizes[sizes.len() - 2] > 500);
    }
}

/// A member that leaves the group from inside the offer prunes its node
/// out of the tree before the step goes on. The walk re-enters through
/// routing instead of panicking on the missing state, and still ends.
#[test]
fn a_member_leaving_inside_the_offer_does_not_strand_the_walk() {
    let g = group_id("Trade-3");
    let leaver = |_| {
        Some(MaskClient {
            leaves: true,
            ..MaskClient::default()
        })
    };
    let (mut net, handles) = launch(16, 4, g, leaver);
    let (acceptor, _) = walk(&mut net, &handles, g, 5, 1);
    assert_eq!(acceptor, None);
    let client = |i: usize| net.actor(handles[i].actor).app().client();
    let offered = (0..16).filter(|&i| client(i).offered.contains(&1)).count();
    assert_eq!(offered, 15, "everyone but the origin was asked");
    let left = handles
        .iter()
        .filter(|h| net.actor(h.actor).app().group(g).is_none())
        .count();
    assert!(left > 0, "no leaf pruned itself");
}

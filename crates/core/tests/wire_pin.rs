//! Pins `wire_size()` / `category()` of every variant of every message
//! layer to the numbers behind Fig. 15. In-memory layout (what is inline,
//! what is boxed) is free to change; these bytes are not. Nested payloads
//! are built with `.into()` so the table reads the same whether a layer
//! holds its payload inline or behind a `Box`.

use vbundle_aggregation::{AggMsg, AggValue};
use vbundle_core::{
    BootQuery, BorrowRequest, CtrlMsg, CustomerId, LoadQuery, ResourceSpec, ResourceVector,
    SurvCaps, VmId, VmRecord,
};
use vbundle_dcn::Bandwidth;
use vbundle_pastry::{Id, NodeHandle, PastryMsg, RouteEnvelope};
use vbundle_scribe::{AnycastEnvelope, ScribeMsg};
use vbundle_sim::{ActorId, Message, MsgCategory, SimTime};
use vbundle_trade::{Lease, LeaseId};

use MsgCategory::{Maintenance, Payload};

type Scribe = ScribeMsg<CtrlMsg>;
type Wire = PastryMsg<Scribe>;

fn h(n: u32) -> NodeHandle {
    NodeHandle::new(Id::from_u128(u128::from(n) << 100), ActorId::new(n))
}

fn actors(n: u32) -> Vec<ActorId> {
    (0..n).map(ActorId::new).collect()
}

fn amount() -> ResourceVector {
    ResourceVector::bandwidth_only(Bandwidth::from_mbps(10.0))
}

fn vm() -> VmRecord {
    VmRecord::new(VmId(1), CustomerId(0), ResourceSpec::fixed(amount()))
}

fn boot(visited: u32, caps: Option<SurvCaps>, failover: bool) -> CtrlMsg {
    let q = BootQuery {
        request: 1,
        vm: vm(),
        origin: h(1),
        root: Some(h(2)),
        caps,
        visited: (0..visited).map(ActorId::new).collect(),
        ttl: 9,
        failover,
    };
    CtrlMsg::Boot(q.into())
}

fn load() -> CtrlMsg {
    let q = LoadQuery {
        query: 1,
        vm: vm(),
        shedder: h(1),
    };
    CtrlMsg::Load(q.into())
}

fn borrow(spot: bool) -> CtrlMsg {
    let q = BorrowRequest {
        customer: CustomerId(0),
        borrower: VmId(1),
        amount: amount(),
        origin: h(1),
        spot,
    };
    CtrlMsg::Borrow(q.into())
}

fn lease(price: f64) -> Lease {
    let mut lease = Lease::free(
        LeaseId(1),
        CustomerId(0),
        VmId(1),
        VmId(2),
        amount(),
        SimTime::from_secs(0),
        SimTime::from_secs(60),
    );
    lease.price = price;
    lease
}

fn update() -> AggMsg {
    AggMsg::Update {
        topic: Id::from_u128(5),
        value: AggValue::of(1.0),
    }
}

fn result() -> AggMsg {
    AggMsg::Result {
        topic: Id::from_u128(5),
        root: 9,
        version: 2,
        value: AggValue::of(1.0),
    }
}

fn anycast(visited: u32, offered: u32, payload: CtrlMsg) -> AnycastEnvelope<CtrlMsg> {
    AnycastEnvelope {
        group: Id::from_u128(2),
        payload,
        origin: h(1),
        visited: actors(visited),
        offered: actors(offered),
        ttl: 10,
    }
}

/// Variant ordinal with no wildcard arm: a new variant fails to compile
/// here until it has a row in the table.
fn agg_variant(m: &AggMsg) -> usize {
    match m {
        AggMsg::Update { .. } => 0,
        AggMsg::Result { .. } => 1,
    }
}

fn ctrl_variant(m: &CtrlMsg) -> usize {
    match m {
        CtrlMsg::Agg(_) => 0,
        CtrlMsg::Boot(_) => 1,
        CtrlMsg::BootResult { .. } => 2,
        CtrlMsg::Load(_) => 3,
        CtrlMsg::LoadAccept { .. } => 4,
        CtrlMsg::Migrate { .. } => 5,
        CtrlMsg::MigrateAck { .. } => 6,
        CtrlMsg::Borrow(_) => 7,
        CtrlMsg::BorrowGrant { .. } => 8,
        CtrlMsg::LeaseAck { .. } => 9,
        CtrlMsg::LeaseRenew { .. } => 10,
        CtrlMsg::LeaseRelease { .. } => 11,
        CtrlMsg::SurvCommit { .. } => 12,
        CtrlMsg::BackupReserve { .. } => 13,
        CtrlMsg::FoProbe { .. } => 14,
        CtrlMsg::FoProbeAck { .. } => 15,
        CtrlMsg::FoFence { .. } => 16,
        CtrlMsg::FoFenceAck { .. } => 17,
    }
}

fn scribe_variant(m: &Scribe) -> usize {
    match m {
        ScribeMsg::Join { .. } => 0,
        ScribeMsg::Leave { .. } => 1,
        ScribeMsg::Publish { .. } => 2,
        ScribeMsg::Disseminate { .. } => 3,
        ScribeMsg::Anycast(_) => 4,
        ScribeMsg::AnycastStep(_) => 5,
        ScribeMsg::AnycastFail { .. } => 6,
        ScribeMsg::Client(_) => 7,
        ScribeMsg::ParentProbe { .. } => 8,
        ScribeMsg::ProbeNack { .. } => 9,
        ScribeMsg::ChildProbe { .. } => 10,
        ScribeMsg::Summary { .. } => 11,
    }
}

fn pastry_variant(m: &Wire) -> usize {
    match m {
        PastryMsg::Route(_) => 0,
        PastryMsg::Direct { .. } => 1,
        PastryMsg::Join { .. } => 2,
        PastryMsg::JoinState { .. } => 3,
        PastryMsg::Announce(_) => 4,
        PastryMsg::Heartbeat(_) => 5,
        PastryMsg::HeartbeatAck(_) => 6,
        PastryMsg::LeafSetRequest(_) => 7,
        PastryMsg::LeafSetReply(_) => 8,
        PastryMsg::Depart(_) => 9,
        PastryMsg::PingReq { .. } => 10,
        PastryMsg::RelayPing { .. } => 11,
        PastryMsg::RowRequest { .. } => 12,
        PastryMsg::RowReply(_) => 13,
        PastryMsg::Signal { .. } => 14,
    }
}

/// Checks every row and that the rows cover variants `0..variants`.
fn check<M: Message>(
    layer: &str,
    variants: usize,
    ordinal: impl Fn(&M) -> usize,
    rows: Vec<(M, usize, MsgCategory)>,
) {
    let mut seen = vec![false; variants];
    for (msg, size, category) in rows {
        assert_eq!(msg.wire_size(), size, "{layer} wire_size of {msg:?}");
        assert_eq!(msg.category(), category, "{layer} category of {msg:?}");
        // A clone is the same message on the wire.
        assert_eq!(msg.clone().wire_size(), size, "{layer} clone of {msg:?}");
        seen[ordinal(&msg)] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "{layer}: variants without a row: {seen:?}"
    );
}

#[test]
fn agg_wire_sizes_are_pinned() {
    check(
        "AggMsg",
        2,
        agg_variant,
        vec![(update(), 48, Payload), (result(), 72, Payload)],
    );
}

#[test]
fn ctrl_wire_sizes_are_pinned() {
    let caps = SurvCaps {
        total: 3,
        per_rack: vec![(0, 2), (1, 1)],
        per_pod: vec![(0, 3)],
    };
    let rows = vec![
        (CtrlMsg::Agg(update()), 48, Payload),
        (CtrlMsg::Agg(result()), 72, Payload),
        (boot(0, None, false), 140, Payload),
        (boot(3, None, false), 152, Payload),
        (boot(3, Some(caps.clone()), false), 180, Payload),
        (boot(3, Some(SurvCaps::default()), false), 156, Payload),
        (boot(3, None, true), 153, Payload),
        (boot(1, Some(caps), true), 173, Payload),
        (
            CtrlMsg::BootResult {
                request: 1,
                vm: VmId(1),
                host: Some(h(3)),
                failover: false,
            },
            36,
            Payload,
        ),
        (
            CtrlMsg::BootResult {
                request: 1,
                vm: VmId(1),
                host: None,
                failover: false,
            },
            36,
            Payload,
        ),
        (
            // A re-materialization's result echoes its query's failover
            // flag (+1 B, failover runs only) since the failover request-id
            // space is gone; a tenant's result is unchanged.
            CtrlMsg::BootResult {
                request: 1,
                vm: VmId(1),
                host: Some(h(3)),
                failover: true,
            },
            37,
            Payload,
        ),
        (load(), 112, Payload),
        (
            CtrlMsg::LoadAccept {
                query: 1,
                vm: VmId(1),
                receiver: h(3),
            },
            36,
            Payload,
        ),
        (
            CtrlMsg::Migrate {
                query: 1,
                vm: vm().into(),
                from: h(1),
            },
            112,
            Payload,
        ),
        (CtrlMsg::MigrateAck { query: 1 }, 8, Payload),
        (borrow(false), 56, Payload),
        (borrow(true), 57, Payload),
        (
            CtrlMsg::BorrowGrant {
                lease: lease(0.0).into(),
            },
            60,
            Payload,
        ),
        (
            CtrlMsg::BorrowGrant {
                lease: lease(1.5).into(),
            },
            80,
            Payload,
        ),
        (
            CtrlMsg::LeaseAck {
                id: LeaseId(1),
                accepted: true,
            },
            9,
            Payload,
        ),
        (CtrlMsg::LeaseRenew { id: LeaseId(1) }, 8, Payload),
        (CtrlMsg::LeaseRelease { id: LeaseId(1) }, 8, Payload),
        (
            CtrlMsg::SurvCommit {
                customer: CustomerId(1),
                rack: 2,
                pod: 0,
                op: 7,
            },
            // 12 B until the commit carried the boot's op id (+8 B), so the
            // root records a twice-delivered commit once.
            20,
            Payload,
        ),
        (
            // The failover variant's 128 B: the one backup request names
            // its VM with failover on or off, so a site carves once per VM
            // (the anonymous 28-B request it replaced carved per delivery).
            CtrlMsg::BackupReserve {
                vm: vm().into(),
                primary: h(1),
                amount: amount(),
            },
            128,
            Payload,
        ),
        (CtrlMsg::FoProbe { rack: 1 }, 4, Payload),
        (CtrlMsg::FoProbeAck { rack: 1 }, 4, Payload),
        (
            CtrlMsg::FoFence {
                vms: vec![VmId(1), VmId(2)],
            },
            16,
            Payload,
        ),
        (CtrlMsg::FoFenceAck { vms: vec![VmId(1)] }, 8, Payload),
        (CtrlMsg::FoFenceAck { vms: Vec::new() }, 0, Payload),
    ];
    check("CtrlMsg", 18, ctrl_variant, rows);
}

/// One row per `ScribeMsg` shape worth pinning.
fn scribe_rows() -> Vec<(Scribe, usize, MsgCategory)> {
    let group = Id::from_u128(2);
    let child = h(1);
    let join = |summary| ScribeMsg::Join {
        group,
        child,
        summary,
    };
    let probe = |summary| ScribeMsg::ParentProbe { group, summary };
    let summary = |summary| ScribeMsg::Summary { group, summary };
    vec![
        // Re-pinned at PR 24: Join carries the joiner's subtree summary (a
        // presence byte, then the 4-byte word); Leave and ParentProbe no
        // longer name their sender, whom the Direct envelope names already
        // (40 → 20 and 40 → 21), and the probe carries the summary instead.
        (join(None), 41, Maintenance),
        (join(Some(7)), 45, Maintenance),
        (ScribeMsg::Leave { group }, 20, Maintenance),
        (
            ScribeMsg::Publish {
                group,
                payload: CtrlMsg::Agg(update()),
                origin: 7,
                nonce: 0,
            },
            92,
            Payload,
        ),
        (
            ScribeMsg::Disseminate {
                group,
                payload: CtrlMsg::Agg(result()),
                ttl: 3,
                seq: 1,
                root: 7,
            },
            120,
            Payload,
        ),
        (
            ScribeMsg::Anycast(anycast(0, 0, load()).into()),
            156,
            Payload,
        ),
        (
            ScribeMsg::Anycast(anycast(2, 1, load()).into()),
            168,
            Payload,
        ),
        (
            ScribeMsg::AnycastStep(anycast(0, 0, borrow(false)).into()),
            100,
            Payload,
        ),
        (
            ScribeMsg::AnycastStep(anycast(5, 4, borrow(true)).into()),
            137,
            Payload,
        ),
        (
            ScribeMsg::AnycastFail {
                group,
                payload: load(),
            },
            132,
            Payload,
        ),
        (
            ScribeMsg::Client(CtrlMsg::MigrateAck { query: 1 }),
            12,
            Payload,
        ),
        (ScribeMsg::Client(boot(3, None, false)), 156, Payload),
        (probe(None), 21, Maintenance),
        (probe(Some(7)), 25, Maintenance),
        (ScribeMsg::ProbeNack { group }, 20, Maintenance),
        (ScribeMsg::ChildProbe { group }, 20, Maintenance),
        (summary(None), 21, Maintenance),
        (summary(Some(0)), 25, Maintenance),
    ]
}

#[test]
fn scribe_wire_sizes_are_pinned() {
    check("ScribeMsg", 12, scribe_variant, scribe_rows());
}

/// The five tree-maintenance variants travel as a `PastryMsg::Signal`:
/// on the wire it is the same message as a `PastryMsg::Direct` carrying
/// them, and it decodes back to exactly that message. No other variant
/// has a signal form.
#[test]
fn a_tree_signal_is_the_direct_message() {
    let group = Id::from_u128(2);
    let mut tree: Vec<Scribe> = vec![
        ScribeMsg::Leave { group },
        ScribeMsg::ProbeNack { group },
        ScribeMsg::ChildProbe { group },
    ];
    for summary in [None, Some(0), Some(u32::MAX)] {
        tree.push(ScribeMsg::ParentProbe { group, summary });
        tree.push(ScribeMsg::Summary { group, summary });
    }
    for msg in &tree {
        let signal = msg.signal().expect("tree maintenance has a signal form");
        let inline: Wire = PastryMsg::Signal { from: h(1), signal };
        let boxed: Wire = PastryMsg::Direct {
            from: h(1),
            msg: msg.clone().into(),
        };
        assert_eq!(inline.wire_size(), boxed.wire_size(), "{msg:?}");
        assert_eq!(inline.category(), boxed.category(), "{msg:?}");
        let decoded = Scribe::from_signal(signal).expect("Scribe's own signal decodes");
        assert_eq!(format!("{decoded:?}"), format!("{msg:?}"));
    }
    let tree_variants = [1, 8, 9, 10, 11];
    for (msg, ..) in scribe_rows() {
        let is_tree = tree_variants.contains(&scribe_variant(&msg));
        assert_eq!(msg.signal().is_some(), is_tree, "{msg:?}");
    }
}

#[test]
fn pastry_wire_sizes_are_pinned() {
    let route = |payload: Scribe| -> Wire {
        let env = RouteEnvelope {
            key: Id::from_u128(2),
            payload,
            hops: 2,
            origin: h(1),
        };
        PastryMsg::Route(env.into())
    };
    let client = || ScribeMsg::Client(CtrlMsg::MigrateAck { query: 1 });
    let join = || ScribeMsg::Join {
        group: Id::from_u128(2),
        child: h(1),
        summary: None,
    };
    let probe = || Scribe::ParentProbe {
        group: Id::from_u128(2),
        summary: Some(7),
    };
    let rows: Vec<(Wire, usize, MsgCategory)> = vec![
        (route(client()), 56, Payload),
        (route(join()), 85, Maintenance),
        (
            route(ScribeMsg::Anycast(anycast(2, 1, load()).into())),
            212,
            Payload,
        ),
        (
            PastryMsg::Direct {
                from: h(1),
                msg: client().into(),
            },
            36,
            Payload,
        ),
        (
            PastryMsg::Direct {
                from: h(1),
                msg: join().into(),
            },
            65,
            Maintenance,
        ),
        (
            PastryMsg::Join {
                newcomer: h(1),
                hops: 1,
            },
            28,
            Maintenance,
        ),
        (
            PastryMsg::JoinState {
                from: h(1),
                contacts: vec![h(2), h(3), h(4)],
                is_destination: true,
            },
            88,
            Maintenance,
        ),
        (PastryMsg::Announce(h(1)), 24, Maintenance),
        (PastryMsg::Heartbeat(h(1)), 24, Maintenance),
        (PastryMsg::HeartbeatAck(h(1)), 24, Maintenance),
        (PastryMsg::LeafSetRequest(h(1)), 24, Maintenance),
        (PastryMsg::LeafSetReply(vec![h(1), h(2)]), 44, Maintenance),
        (PastryMsg::Depart(h(1)), 24, Maintenance),
        (
            PastryMsg::PingReq {
                origin: h(1),
                subject: h(2),
            },
            44,
            Maintenance,
        ),
        (PastryMsg::RelayPing { origin: h(1) }, 24, Maintenance),
        (
            PastryMsg::RowRequest { from: h(1), row: 3 },
            25,
            Maintenance,
        ),
        (PastryMsg::RowReply(vec![h(1), h(2), h(3)]), 64, Maintenance),
        (PastryMsg::RowReply(Vec::new()), 4, Maintenance),
        (
            PastryMsg::Signal {
                from: h(1),
                signal: probe().signal().expect("a probe is a signal"),
            },
            49,
            Maintenance,
        ),
    ];
    check("PastryMsg", 15, pastry_variant, rows);
}

//! Invariant checkers: snapshot the overlay mid-run and report what is
//! broken *right now*.
//!
//! Each checker returns a list of human-readable [`Violation`]s (empty =
//! healthy). They are meant to be called repeatedly while faults play out:
//! violations immediately after a crash are expected — the interesting
//! questions, answered by [`run_scenario`](crate::run_scenario), are
//! whether they *clear* once the repair protocols run, and how long and
//! how many messages that takes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use vbundle_aggregation::{AggClient, Aggregator};
use vbundle_core::{reconcile, Controller, VbEngine, VmId};
use vbundle_pastry::{NodeId, PastryApp, PastryMsg, PastryNode};
use vbundle_scribe::{GroupId, Scribe, ScribeClient, ScribeMsg};
use vbundle_sim::{ActorId, Engine, SimTime};
use vbundle_trade::{HalfLease, Lease, LeaseId, LeaseRole};

/// A broken invariant, described for a human.
pub type Violation = String;

/// Ring / leaf-set consistency across all live, joined nodes:
///
/// - every live node's ring successor and predecessor (computed from the
///   global set of live ids) appear in its leaf set;
/// - no leaf set still lists a dead node.
pub fn check_leaf_sets<A: PastryApp>(
    engine: &Engine<PastryMsg<A::Msg>, PastryNode<A>>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut ring: Vec<(NodeId, ActorId)> = Vec::new();
    for (id, node) in engine.actors() {
        if engine.is_alive(id) && node.is_joined() {
            ring.push((node.state().id(), id));
        }
    }
    ring.sort();
    if ring.len() < 2 {
        return out;
    }
    for (i, &(node_id, actor)) in ring.iter().enumerate() {
        let leaf = engine.actor(actor).state().leaf_set();
        let succ = ring[(i + 1) % ring.len()].0;
        let pred = ring[(i + ring.len() - 1) % ring.len()].0;
        for (role, neighbor) in [("successor", succ), ("predecessor", pred)] {
            if !leaf.contains(neighbor) {
                out.push(format!(
                    "leaf-set: node {node_id:?} (actor {}) is missing its ring {role} {neighbor:?}",
                    actor.index()
                ));
            }
        }
        for member in leaf.members() {
            if !engine.is_alive(member.actor) {
                out.push(format!(
                    "leaf-set: node {node_id:?} (actor {}) still lists dead node {:?} (actor {})",
                    actor.index(),
                    member.id,
                    member.actor.index()
                ));
            }
        }
    }
    out
}

/// Scribe trees remain spanning trees of the live members: for every group
/// known to any live node, there is exactly one live root, the tree
/// reached from it by child links is acyclic and free of dead links, and
/// every live member is inside it.
pub fn check_scribe_trees<C: ScribeClient>(
    engine: &Engine<PastryMsg<ScribeMsg<C::Msg>>, PastryNode<Scribe<C>>>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut groups: BTreeSet<u128> = BTreeSet::new();
    for (id, node) in engine.actors() {
        if engine.is_alive(id) {
            groups.extend(node.app().group_ids().into_iter().map(|g| g.as_u128()));
        }
    }
    for g in groups {
        let group = GroupId::from_u128(g);
        // Live nodes participating in this group's tree.
        let mut states: BTreeMap<u32, &vbundle_scribe::GroupState> = BTreeMap::new();
        for (id, node) in engine.actors() {
            if !engine.is_alive(id) {
                continue;
            }
            if let Some(st) = node.app().group(group) {
                if st.in_tree() {
                    states.insert(id.index() as u32, st);
                }
            }
        }
        if states.is_empty() {
            continue;
        }
        let roots: Vec<u32> = states
            .iter()
            .filter(|(_, st)| st.root)
            .map(|(&a, _)| a)
            .collect();
        match roots.len() {
            1 => {}
            0 => {
                out.push(format!("scribe: group {group:?} has no live root"));
                continue;
            }
            _ => {
                out.push(format!(
                    "scribe: group {group:?} has {} live roots (actors {roots:?})",
                    roots.len()
                ));
                continue;
            }
        }
        // BFS over child links from the root.
        let mut reached: BTreeSet<u32> = BTreeSet::new();
        let mut queue: VecDeque<u32> = VecDeque::from([roots[0]]);
        reached.insert(roots[0]);
        while let Some(actor) = queue.pop_front() {
            let st = states[&actor];
            for child in st.children.iter() {
                let c = child.actor.index() as u32;
                if !engine.is_alive(child.actor) {
                    out.push(format!(
                        "scribe: group {group:?}: actor {actor} has dead child {c}"
                    ));
                    continue;
                }
                if !reached.insert(c) {
                    out.push(format!(
                        "scribe: group {group:?}: actor {c} reached twice (cycle or double graft)"
                    ));
                    continue;
                }
                if states.contains_key(&c) {
                    queue.push_back(c);
                } else {
                    out.push(format!(
                        "scribe: group {group:?}: actor {actor} links child {c} which is not in the tree"
                    ));
                }
            }
        }
        for (&actor, st) in &states {
            if st.member && !reached.contains(&actor) {
                out.push(format!(
                    "scribe: group {group:?}: live member {actor} unreachable from the root"
                ));
            }
        }
    }
    out
}

/// Access to the aggregation component embedded in a Scribe client, so the
/// aggregation checker can work for both the standalone [`AggClient`] and
/// the full v-Bundle [`Controller`].
pub trait HasAggregator {
    /// The embedded aggregator.
    fn aggregator(&self) -> &Aggregator;
}

impl HasAggregator for AggClient {
    fn aggregator(&self) -> &Aggregator {
        &self.agg
    }
}

impl HasAggregator for Controller {
    fn aggregator(&self) -> &Aggregator {
        self.aggregator()
    }
}

/// Aggregation convergence: every live subscriber's view of the global
/// `Sum` for `topic` matches the ground truth (the sum of live
/// subscribers' local values) within `tolerance`, relative to the truth's
/// magnitude.
pub fn check_aggregation<C>(
    engine: &Engine<PastryMsg<ScribeMsg<C::Msg>>, PastryNode<Scribe<C>>>,
    topic: GroupId,
    tolerance: f64,
) -> Vec<Violation>
where
    C: ScribeClient + HasAggregator,
{
    let mut out = Vec::new();
    let mut truth = 0.0;
    let mut subscribers = Vec::new();
    for (id, node) in engine.actors() {
        if !engine.is_alive(id) {
            continue;
        }
        let agg = node.app().client().aggregator();
        if let Some(local) = agg.local(topic) {
            truth += local.sum;
            subscribers.push((id, agg));
        }
    }
    let bound = tolerance * truth.abs().max(1.0);
    for (id, agg) in subscribers {
        match agg.global(topic) {
            None => out.push(format!(
                "aggregation: actor {} has no global value for topic {topic:?}",
                id.index()
            )),
            Some(global) => {
                if (global.sum - truth).abs() > bound {
                    out.push(format!(
                        "aggregation: actor {} sees sum {:.3} for topic {topic:?}, truth is {truth:.3}",
                        id.index(),
                        global.sum
                    ));
                }
            }
        }
    }
    out
}

/// Poison containment, part 1 — the steering signal: every live server's
/// *effective* cluster-mean bandwidth utilization (what its shuffling
/// logic actually steers on, after the aggregator's robust combine and
/// the controller's sanity gate) stays within `epsilon` of the honest
/// ground truth computed from the servers' actual state. Corrupted
/// *reports* never change a server's real demand, so the truth here is
/// immune to poisoning by construction.
pub fn check_global_mean(engine: &VbEngine, epsilon: f64) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut demand = 0.0;
    let mut capacity = 0.0;
    for (id, node) in engine.actors() {
        if !engine.is_alive(id) {
            continue;
        }
        let ctrl = node.app().client();
        demand += ctrl.demand_for(vbundle_core::ResourceKind::Bandwidth);
        capacity += ctrl.capacity().get(vbundle_core::ResourceKind::Bandwidth);
    }
    if capacity <= 0.0 {
        return out;
    }
    let truth = demand / capacity;
    for (id, node) in engine.actors() {
        if !engine.is_alive(id) {
            continue;
        }
        let ctrl = node.app().client();
        match ctrl.effective_mean_for(vbundle_core::ResourceKind::Bandwidth) {
            None => out.push(format!(
                "global-mean: server {} steers on no mean at all",
                id.index()
            )),
            // NaN compares false against everything, so test non-finite
            // explicitly — a NaN-poisoned mean must not slip through.
            Some(m) if !m.is_finite() || (m - truth).abs() > epsilon => out.push(format!(
                "global-mean: server {} steers on mean {m:.4}, honest truth is {truth:.4}",
                id.index()
            )),
            Some(_) => {}
        }
    }
    out
}

/// Poison containment, part 2 — the blast radius: the cluster started at
/// most `max_migrations` outbound migrations since `since`. A poisoned
/// mean that survives the defenses shows up here as a migration storm
/// (every server suddenly classifying itself as a shedder or receiver).
pub fn check_migration_rate(
    engine: &VbEngine,
    since: vbundle_sim::SimTime,
    max_migrations: u64,
) -> Vec<Violation> {
    let started: u64 = engine
        .actors()
        .map(|(_, node)| {
            node.app()
                .client()
                .stats
                .migration_times
                .iter()
                .filter(|&&t| t >= since)
                .count() as u64
        })
        .sum();
    if started > max_migrations {
        vec![format!(
            "migration-rate: {started} migrations started since {since} (bound {max_migrations})"
        )]
    } else {
        Vec::new()
    }
}

/// VM conservation across migrations: no VM is installed on two servers at
/// once, and every VM in `expected` is accounted for — hosted somewhere
/// (server state survives a warm restart) or sitting in a shedder's
/// in-flight ledger, from which it is either delivered or rolled back.
///
/// One reconciling exception: a VM listed in some *live* controller's
/// pending-fence set ([`Controller::fenced_vms`]) may transiently appear
/// on two servers — its rack was declared dead and the VM was
/// re-materialized, but the stale primary restarted before the fence
/// reached it. The fence is resent every failover tick, so the duplicate
/// is converging, not leaked.
pub fn check_vm_conservation(engine: &VbEngine, expected: &[VmId]) -> Vec<Violation> {
    let hosted = engine
        .actors()
        .map(|(_, node)| node.app().client().vms().len())
        .sum();
    let sites = engine.actors().map(|(id, node)| {
        let ctrl = node.app().client();
        VmSite {
            server: id,
            alive: engine.is_alive(id),
            hosted: ctrl.vms().iter().map(|vm| vm.id),
            in_flight: ctrl.in_flight_vms().into_iter().map(|vm| vm.id),
            fenced: ctrl.fenced_vms(),
        }
    });
    vm_conservation(sites, hosted, expected)
}

/// What [`check_vm_conservation`] reads from one server: the VMs it hosts,
/// those it has sent and not yet seen acked, and its pending fences (read
/// only while the server is alive).
struct VmSite<H, F, G> {
    server: ActorId,
    alive: bool,
    hosted: H,
    in_flight: F,
    fenced: G,
}

/// [`check_vm_conservation`] over per-server inputs. `hosted` is the number
/// of hosted VMs across `sites`, so the one vector of copies is allocated
/// at its final size: 16 B per VM, sorted by (VM, server) and looked up by
/// binary search, as are the in-flight and fenced ids.
fn vm_conservation<H, F, G>(
    sites: impl Iterator<Item = VmSite<H, F, G>>,
    hosted: usize,
    expected: &[VmId],
) -> Vec<Violation>
where
    H: IntoIterator<Item = VmId>,
    F: IntoIterator<Item = VmId>,
    G: IntoIterator<Item = VmId>,
{
    let mut copies: Vec<(VmId, ActorId)> = Vec::with_capacity(hosted);
    let mut in_flight: Vec<VmId> = Vec::new();
    let mut fence_pending: Vec<VmId> = Vec::new();
    for site in sites {
        copies.extend(site.hosted.into_iter().map(|vm| (vm, site.server)));
        in_flight.extend(site.in_flight);
        if site.alive {
            fence_pending.extend(site.fenced);
        }
    }
    copies.sort_unstable();
    in_flight.sort_unstable();
    fence_pending.sort_unstable();
    let mut out = Vec::new();
    for run in copies.chunk_by(|a, b| a.0 == b.0) {
        let vm = run[0].0;
        if run.len() > 1 && fence_pending.binary_search(&vm).is_err() {
            let hosts: Vec<usize> = run.iter().map(|(_, server)| server.index()).collect();
            out.push(format!(
                "conservation: VM {} is installed on {} servers ({hosts:?})",
                vm.0,
                hosts.len()
            ));
        }
    }
    for vm in expected {
        let hosted = copies.binary_search_by_key(vm, |&(id, _)| id).is_ok();
        if !hosted && in_flight.binary_search(vm).is_err() {
            out.push(format!(
                "conservation: VM {} is lost (neither hosted nor in flight)",
                vm.0
            ));
        }
    }
    out
}

/// Entitlement conservation under bundle trading — the ledger's "no
/// phantom credit" guarantee, checked from reassembled per-server books:
///
/// - every *live* borrower half still inside its validity window is
///   backed by a lender half with identical terms somewhere in the
///   cluster (crashed servers keep their state, so a frozen debit still
///   counts — the unsafe direction is credit with no debit anywhere);
/// - per customer, the cluster-wide sum of live entitled reservations
///   never exceeds the sum of purchased (base) reservations. Strict
///   equality is not required: a stranded lender debit under-uses the
///   bundle until expiry, which is tolerated;
/// - on every live server, no VM's shaper grant exceeds its live
///   entitlement ceiling.
///
/// All lease-liveness filtering uses one engine-wide `now`, so the check
/// is independent of each controller's event clock.
pub fn check_entitlement_conservation(engine: &VbEngine) -> Vec<Violation> {
    let now = engine.now();
    let eps = 1e-6;
    let mut out = Vec::new();

    // Reassemble the cluster-wide debit ledger (dead servers included).
    let debits = Debits::new(
        engine
            .actors()
            .flat_map(|(_, node)| node.app().client().trade_book().halves()),
    );

    // Per-customer conservation across ALL servers: client state survives
    // crashes, so the base/entitled sums stay comparable through faults.
    let mut base: BTreeMap<u32, f64> = BTreeMap::new();
    let mut entitled: BTreeMap<u32, f64> = BTreeMap::new();
    for (id, node) in engine.actors() {
        let ctrl = node.app().client();
        let book = ctrl.trade_book();
        for vm in ctrl.vms() {
            *base.entry(vm.customer.0).or_default() += vm.spec.reservation.bandwidth.as_mbps();
            *entitled.entry(vm.customer.0).or_default() += book
                .live_spec(vm.id, vm.spec, now)
                .reservation
                .bandwidth
                .as_mbps();
        }
        if !engine.is_alive(id) {
            continue;
        }
        debits.unbacked_credit(id.index(), book.halves(), now, &mut out);
        // Shaper enforcement: grants follow the live ledger, never the
        // static contract plus phantom credit.
        let allocs =
            vbundle_core::shaper::allocate_entitled(ctrl.capacity().bandwidth, ctrl.vms(), |vm| {
                book.live_spec(vm.id, vm.spec, now)
            });
        for (vm, a) in ctrl.vms().iter().zip(&allocs) {
            let ceil = a
                .demand
                .min(book.live_spec(vm.id, vm.spec, now).limit.bandwidth);
            if a.granted.as_mbps() > ceil.as_mbps() + eps {
                out.push(format!(
                    "entitlement: server {} grants VM {} {:.3} Mbps beyond its live ceiling {:.3}",
                    id.index(),
                    vm.id,
                    a.granted.as_mbps(),
                    ceil.as_mbps()
                ));
            }
        }
    }
    debits.reattribute(now, &mut entitled);
    for (customer, &e) in &entitled {
        let b = base.get(customer).copied().unwrap_or(0.0);
        if e > b + eps {
            out.push(format!(
                "entitlement: customer {customer} holds {e:.6} Mbps of live entitlement against {b:.6} purchased (phantom credit)"
            ));
        }
    }
    out
}

/// Every lender half in the cluster — the debit side of each lease —
/// held by reference and sorted by lease id. An id found on two servers
/// keeps the half met last in server order.
struct Debits<'a>(Vec<&'a Lease>);

impl<'a> Debits<'a> {
    fn new(halves: impl Iterator<Item = &'a HalfLease>) -> Self {
        let mut debits: Vec<&Lease> = halves
            .filter(|h| h.role == LeaseRole::Lender)
            .map(|h| &h.lease)
            .collect();
        // Stable, so equal ids stay in server order; the merge keeps the
        // last of each run.
        debits.sort_by_key(|lease| lease.id);
        debits.dedup_by(|later, kept| {
            later.id == kept.id && {
                *kept = *later;
                true
            }
        });
        Debits(debits)
    }

    fn get(&self, id: LeaseId) -> Option<&'a Lease> {
        let i = self.0.binary_search_by_key(&id, |lease| lease.id).ok()?;
        Some(self.0[i])
    }

    /// Live borrower halves on `server` must pair with a debit somewhere.
    /// The liveness test is starts-aware: a renewal replacement lease is
    /// minted before its validity window opens and must not be scored as
    /// active credit until then.
    fn unbacked_credit<'h>(
        &self,
        server: usize,
        halves: impl Iterator<Item = &'h HalfLease>,
        now: SimTime,
        out: &mut Vec<Violation>,
    ) {
        for h in halves {
            if h.role != LeaseRole::Borrower || !h.lease.live_at(now) {
                continue;
            }
            match self.get(h.lease.id) {
                None => out.push(format!(
                    "entitlement: server {server} holds credit for lease {} with no backing debit anywhere",
                    h.lease.id
                )),
                Some(l) if *l != h.lease => out.push(format!(
                    "entitlement: lease {} terms disagree between lender and borrower halves",
                    h.lease.id
                )),
                Some(_) => {}
            }
        }
    }

    /// Cross-tenant (spot-market) leases legitimately move entitlement
    /// between tenants: the buyer's VMs gained exactly what the seller's
    /// bundle lost. Reattribute each live traded amount back to the seller,
    /// in lease-id order, so the per-tenant sums stay comparable to
    /// purchased capacity — a buyer whose gain has no matching lender debit
    /// anywhere still trips the phantom-credit bound.
    fn reattribute(&self, now: SimTime, entitled: &mut BTreeMap<u32, f64>) {
        for lease in &self.0 {
            if lease.cross_tenant() && lease.live_at(now) {
                let amt = lease.amount.bandwidth.as_mbps();
                *entitled.entry(lease.buyer.0).or_default() -= amt;
                *entitled.entry(lease.customer.0).or_default() += amt;
            }
        }
    }
}

/// Billing conservation under the spot market — the double-entry
/// guarantee, checked from reassembled per-server
/// [`BillingBook`](vbundle_core::BillingBook)s
/// (crashed servers keep their books, exactly like the trade ledger):
/// every `Spend` entry pairs with a `Revenue` entry of identical terms
/// somewhere in the cluster. Revenue without spend is tolerated (a lost
/// grant whose reversal could mint phantom refunds is kept, see
/// [`reconcile`]); spend without revenue — a tenant charged for capacity
/// nobody sold — never is.
pub fn check_billing_conservation(engine: &VbEngine) -> Vec<Violation> {
    reconcile(
        engine
            .actors()
            .map(|(_, node)| node.app().client().billing()),
    )
    .violations
}

/// Per-tenant isolation caps under the spot market: on every live server,
/// each lender customer's committed cross-tenant outflow (priced leases
/// sold out of its bundle, including future-dated renewal replacements)
/// stays within `cap ×` its base reservations on that server. Checked
/// from the raw lender halves, independently of the controller's own
/// admission arithmetic.
pub fn check_isolation_caps(engine: &VbEngine, cap: f64) -> Vec<Violation> {
    let now = engine.now();
    let mut out = Vec::new();
    for (id, node) in engine.actors() {
        if !engine.is_alive(id) {
            continue;
        }
        let ctrl = node.app().client();
        let mut outflow: BTreeMap<u32, f64> = BTreeMap::new();
        for h in ctrl.trade_book().halves() {
            if h.role == LeaseRole::Lender && h.lease.cross_tenant() && h.lease.expires > now {
                *outflow.entry(h.lease.customer.0).or_default() +=
                    h.lease.amount.bandwidth.as_mbps();
            }
        }
        for (&customer, &sold) in &outflow {
            let base: f64 = ctrl
                .vms()
                .iter()
                .filter(|v| v.customer.0 == customer)
                .map(|v| v.spec.reservation.bandwidth.as_mbps())
                .sum();
            if sold > cap.clamp(0.0, 1.0) * base + 1e-6 {
                out.push(format!(
                    "isolation: server {} sold {sold:.3} Mbps of customer {customer}'s bundle \
                     cross-tenant against {base:.3} reserved (cap {:.0}%)",
                    id.index(),
                    100.0 * cap.clamp(0.0, 1.0)
                ));
            }
        }
    }
    out
}

/// Per-customer satisfied bandwidth demand (Mbps) across the *live*
/// servers: each live controller's shaper allocations, summed by the
/// hosting VM's customer. VMs stranded on crashed servers contribute
/// nothing — this is exactly what a tenant experiences mid-fault, and the
/// quantity [`check_bounded_degradation`] bounds.
pub fn customer_satisfaction(engine: &VbEngine) -> BTreeMap<u32, f64> {
    let mut out: BTreeMap<u32, f64> = BTreeMap::new();
    for (id, node) in engine.actors() {
        if !engine.is_alive(id) {
            continue;
        }
        let ctrl = node.app().client();
        for (vm, a) in ctrl.vms().iter().zip(ctrl.allocations()) {
            *out.entry(vm.customer.0).or_default() += a.granted.as_mbps();
        }
    }
    out
}

/// Bounded degradation — the survivability contract: after a fault, every
/// customer who had satisfied demand in `baseline` (a pre-fault
/// [`customer_satisfaction`] snapshot) still gets at least
/// `min_frac × baseline`. The check is per tenant, not aggregate: a
/// cluster that keeps 90% of total bandwidth flowing while zeroing one
/// tenant fails it.
///
/// A baseline customer with zero VMs placed anywhere in the cluster
/// (hosted on any server, live or crashed, or in a migration ledger) is
/// exempt rather than scored 0.0: its workload left the cluster — it was
/// never re-admitted or was deliberately drained — so "satisfaction"
/// is undefined, not violated.
pub fn check_bounded_degradation(
    engine: &VbEngine,
    baseline: &BTreeMap<u32, f64>,
    min_frac: f64,
) -> Vec<Violation> {
    let current = customer_satisfaction(engine);
    let mut placed: BTreeSet<u32> = BTreeSet::new();
    for (_, node) in engine.actors() {
        let ctrl = node.app().client();
        for vm in ctrl.vms() {
            placed.insert(vm.customer.0);
        }
        for vm in ctrl.in_flight_vms() {
            placed.insert(vm.customer.0);
        }
    }
    let mut out = Vec::new();
    for (&customer, &base) in baseline {
        if base <= 1e-9 || !placed.contains(&customer) {
            continue;
        }
        let cur = current.get(&customer).copied().unwrap_or(0.0);
        if cur + 1e-6 < min_frac * base {
            out.push(format!(
                "degradation: customer {customer} down to {cur:.3} of {base:.3} Mbps \
                 ({:.1}% < floor {:.1}%)",
                100.0 * cur / base,
                100.0 * min_frac
            ));
        }
    }
    out
}

/// Capacity safety: no live server's installed reservations exceed its
/// capacity (in particular its NIC bandwidth).
pub fn check_capacity(engine: &VbEngine) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, node) in engine.actors() {
        if !engine.is_alive(id) {
            continue;
        }
        let ctrl = node.app().client();
        let reserved = ctrl.reserved();
        if !reserved.fits_within(ctrl.capacity()) {
            out.push(format!(
                "capacity: server {} reserves {reserved:?} beyond its capacity {:?}",
                id.index(),
                ctrl.capacity()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    //! The flat conservation checks against the `BTreeMap` bodies they
    //! replaced, kept here as references: same strings, same order.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use vbundle_dcn::Bandwidth;
    use vbundle_trade::{CustomerId, ResourceVector};

    /// One server's inputs to the VM check.
    #[derive(Debug, Clone, Default)]
    struct Server {
        alive: bool,
        hosted: Vec<VmId>,
        in_flight: Vec<VmId>,
        fenced: Vec<VmId>,
    }

    fn flat_vm(servers: &[Server], expected: &[VmId]) -> Vec<Violation> {
        let sites = servers.iter().zip(0..).map(|(s, server)| VmSite {
            server: ActorId::new(server),
            alive: s.alive,
            hosted: s.hosted.iter().copied(),
            in_flight: s.in_flight.iter().copied(),
            fenced: s.fenced.iter().copied(),
        });
        let hosted = servers.iter().map(|s| s.hosted.len()).sum();
        vm_conservation(sites, hosted, expected)
    }

    fn btree_vm(servers: &[Server], expected: &[VmId]) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut hosted: BTreeMap<VmId, Vec<usize>> = BTreeMap::new();
        let mut in_flight: BTreeSet<VmId> = BTreeSet::new();
        let mut fence_pending: BTreeSet<VmId> = BTreeSet::new();
        for (server, s) in servers.iter().enumerate() {
            for &vm in &s.hosted {
                hosted.entry(vm).or_default().push(server);
            }
            in_flight.extend(s.in_flight.iter().copied());
            if s.alive {
                fence_pending.extend(s.fenced.iter().copied());
            }
        }
        for (vm, hosts) in &hosted {
            if hosts.len() > 1 && !fence_pending.contains(vm) {
                out.push(format!(
                    "conservation: VM {} is installed on {} servers ({hosts:?})",
                    vm.0,
                    hosts.len()
                ));
            }
        }
        for vm in expected {
            if !hosted.contains_key(vm) && !in_flight.contains(vm) {
                out.push(format!(
                    "conservation: VM {} is lost (neither hosted nor in flight)",
                    vm.0
                ));
            }
        }
        out
    }

    /// One server's inputs to the lease check: alive, and its book.
    type Book = (bool, Vec<HalfLease>);

    /// The lease pairing and the cross-tenant reattribution.
    type LeaseVerdict = (Vec<Violation>, BTreeMap<u32, f64>);

    fn flat_leases(books: &[Book], now: SimTime) -> LeaseVerdict {
        let debits = Debits::new(books.iter().flat_map(|(_, halves)| halves));
        let mut out = Vec::new();
        for (server, (alive, halves)) in books.iter().enumerate() {
            if *alive {
                debits.unbacked_credit(server, halves.iter(), now, &mut out);
            }
        }
        let mut entitled = BTreeMap::new();
        debits.reattribute(now, &mut entitled);
        (out, entitled)
    }

    fn btree_leases(books: &[Book], now: SimTime) -> LeaseVerdict {
        let mut lender_halves: BTreeMap<u64, Lease> = BTreeMap::new();
        for (_, halves) in books {
            for h in halves {
                if h.role == LeaseRole::Lender {
                    lender_halves.insert(h.lease.id.0, h.lease);
                }
            }
        }
        let mut out = Vec::new();
        for (server, (alive, halves)) in books.iter().enumerate() {
            if !alive {
                continue;
            }
            for h in halves {
                if h.role != LeaseRole::Borrower || !h.lease.live_at(now) {
                    continue;
                }
                match lender_halves.get(&h.lease.id.0) {
                    None => out.push(format!(
                        "entitlement: server {server} holds credit for lease {} with no backing debit anywhere",
                        h.lease.id
                    )),
                    Some(l) if *l != h.lease => out.push(format!(
                        "entitlement: lease {} terms disagree between lender and borrower halves",
                        h.lease.id
                    )),
                    Some(_) => {}
                }
            }
        }
        let mut entitled: BTreeMap<u32, f64> = BTreeMap::new();
        for lease in lender_halves.values() {
            if lease.cross_tenant() && lease.live_at(now) {
                let amt = lease.amount.bandwidth.as_mbps();
                *entitled.entry(lease.buyer.0).or_default() -= amt;
                *entitled.entry(lease.customer.0).or_default() += amt;
            }
        }
        (out, entitled)
    }

    fn ids(raw: &[u64]) -> Vec<VmId> {
        raw.iter().copied().map(VmId).collect()
    }

    fn half(
        id: u64,
        lender: bool,
        customer: u32,
        buyer: u32,
        mbps: u32,
        starts: u64,
        expires: u64,
    ) -> HalfLease {
        HalfLease {
            lease: Lease {
                id: LeaseId(id),
                customer: CustomerId(customer),
                buyer: CustomerId(buyer),
                lender: VmId(2 * id),
                borrower: VmId(2 * id + 1),
                amount: ResourceVector::bandwidth_only(Bandwidth::from_mbps(f64::from(mbps))),
                starts: SimTime::from_secs(starts),
                expires: SimTime::from_secs(expires),
                price: 0.0,
            },
            role: if lender {
                LeaseRole::Lender
            } else {
                LeaseRole::Borrower
            },
            peer: ActorId::new(0),
        }
    }

    #[test]
    fn named_vm_cases_match_the_btree_check() {
        let servers = vec![
            // VM 1 on servers 0 and 1 is fenced on live server 2; VM 2 on
            // servers 0 and 3 is fenced only on dead server 3.
            Server {
                alive: true,
                hosted: ids(&[1, 2]),
                ..Server::default()
            },
            Server {
                alive: true,
                hosted: ids(&[1]),
                in_flight: ids(&[3]),
                ..Server::default()
            },
            Server {
                alive: true,
                fenced: ids(&[1]),
                ..Server::default()
            },
            Server {
                alive: false,
                hosted: ids(&[2]),
                fenced: ids(&[2]),
                ..Server::default()
            },
        ];
        // VM 3 is only in flight; VM 4 is nowhere.
        let expected = ids(&[1, 2, 3, 4]);
        let flat = flat_vm(&servers, &expected);
        assert_eq!(
            flat,
            [
                "conservation: VM 2 is installed on 2 servers ([0, 3])",
                "conservation: VM 4 is lost (neither hosted nor in flight)",
            ]
        );
        assert_eq!(flat, btree_vm(&servers, &expected));
        // An empty cluster loses every expected VM and nothing else.
        for expected in [vec![], ids(&[5, 6])] {
            assert_eq!(flat_vm(&[], &expected), btree_vm(&[], &expected));
        }
        assert_eq!(flat_vm(&[], &ids(&[5])).len(), 1);
    }

    #[test]
    fn a_duplicated_debit_keeps_the_last_half() {
        let now = SimTime::from_secs(10);
        let first = half(7, true, 0, 1, 40, 0, 20);
        let last = half(7, true, 0, 1, 60, 0, 20);
        for (borrower_mbps, disagree) in [(60, false), (40, true)] {
            let books: Vec<Book> = vec![
                (true, vec![first]),
                (false, vec![last]),
                (true, vec![half(7, false, 0, 1, borrower_mbps, 0, 20)]),
            ];
            let flat = flat_leases(&books, now);
            assert_eq!(flat, btree_leases(&books, now));
            assert_eq!(flat.0.len(), usize::from(disagree));
            assert_eq!(flat.1[&1], -60.0);
        }
        assert_eq!(flat_leases(&[], now), btree_leases(&[], now));
    }

    fn server() -> impl Strategy<Value = Server> {
        (
            any::<bool>(),
            vec(0u64..12, 0..5),
            vec(0u64..12, 0..3),
            vec(0u64..12, 0..3),
        )
            .prop_map(|(alive, hosted, in_flight, fenced)| Server {
                alive,
                hosted: ids(&hosted),
                in_flight: ids(&in_flight),
                fenced: ids(&fenced),
            })
    }

    fn book() -> impl Strategy<Value = Book> {
        let half = (
            0u64..6,
            any::<bool>(),
            0u32..3,
            0u32..3,
            1u32..100,
            0u64..12,
        )
            .prop_flat_map(|(id, lender, customer, buyer, mbps, starts)| {
                (starts + 1..starts + 12).prop_map(move |expires| {
                    half(id, lender, customer, buyer, mbps, starts, expires)
                })
            });
        (any::<bool>(), vec(half, 0..5))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn flat_vm_check_says_what_the_btree_check_said(
            servers in vec(server(), 0..7),
            expected in vec(0u64..16, 0..10),
        ) {
            let expected = ids(&expected);
            prop_assert_eq!(flat_vm(&servers, &expected), btree_vm(&servers, &expected));
        }

        #[test]
        fn flat_lease_check_says_what_the_btree_check_said(
            books in vec(book(), 0..7),
            now in 0u64..20,
        ) {
            let now = SimTime::from_secs(now);
            prop_assert_eq!(flat_leases(&books, now), btree_leases(&books, now));
        }
    }
}

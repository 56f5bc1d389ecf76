//! The cluster harness: assembles the full v-Bundle stack (simulation
//! engine → Pastry → Scribe → controllers) and offers the operations the
//! examples and figure benchmarks drive it with.

use std::rc::Rc;
use std::sync::Arc;

use vbundle_aggregation::{AggregationConfig, UpdateMode};
use vbundle_dcn::{ServerId, Topology, TopologyLatency};
use vbundle_obs::{Gauge, Registry};
use vbundle_pastry::{overlay, NodeHandle, NodeId, PastryConfig, PastryMsg, PastryNode};
use vbundle_scribe::{Scribe, ScribeConfig, ScribeMsg};
use vbundle_sim::{ActorId, Engine, SimDuration, SimTime};

use crate::message::CtrlMsg;
use crate::metrics::SatisfactionTotals;
use crate::{Controller, Customer, ResourceSpec, ResourceVector, VBundleConfig, VmId, VmRecord};

/// The fully composed engine type of a v-Bundle cluster.
pub type VbEngine = Engine<PastryMsg<ScribeMsg<CtrlMsg>>, PastryNode<Scribe<Controller>>>;

/// Builder for a [`Cluster`]. Node ids are always topology-aware (the
/// random-id ablation builds its rings without a cluster). Defaults:
/// topology-derived latency, 30 s tree probes, periodic aggregation at
/// the v-Bundle update interval, paper-default v-Bundle parameters.
pub struct ClusterBuilder {
    topo: Arc<Topology>,
    pastry: PastryConfig,
    scribe: ScribeConfig,
    vbundle: VBundleConfig,
    agg: Option<AggregationConfig>,
    capacity_fn: Option<Box<dyn Fn(usize) -> ResourceVector>>,
    seed: u64,
    flight_capacity: Option<usize>,
}

impl ClusterBuilder {
    /// Starts building a cluster over `topo`.
    pub fn new(topo: Arc<Topology>) -> Self {
        ClusterBuilder {
            topo,
            pastry: PastryConfig::default(),
            scribe: ScribeConfig::default().with_probe_interval(SimDuration::from_secs(30)),
            vbundle: VBundleConfig::default(),
            agg: None,
            capacity_fn: None,
            seed: 42,
            flight_capacity: None,
        }
    }

    /// Enables sim-time flight recording with a bounded ring of
    /// `capacity` events, shared by the engine and every subsystem.
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.flight_capacity = Some(capacity);
        self
    }

    /// Sets the v-Bundle controller configuration.
    pub fn vbundle(mut self, config: VBundleConfig) -> Self {
        self.vbundle = config;
        self
    }

    /// Sets the Scribe configuration.
    pub fn scribe(mut self, config: ScribeConfig) -> Self {
        self.scribe = config;
        self
    }

    /// Sets the Pastry configuration.
    pub fn pastry(mut self, config: PastryConfig) -> Self {
        self.pastry = config;
        self
    }

    /// Overrides the full aggregation configuration — e.g. to run the
    /// robust (`Defensive`) combine for the poison benches. The update
    /// mode is always periodic at the v-Bundle update interval, whatever
    /// `config.mode` says.
    pub fn aggregation(mut self, config: AggregationConfig) -> Self {
        self.agg = Some(config);
        self
    }

    /// Gives each server its own capacity (heterogeneous hardware). The
    /// closure receives the server index; the default is the topology's
    /// uniform capacity.
    pub fn capacity_fn(mut self, f: impl Fn(usize) -> ResourceVector + 'static) -> Self {
        self.capacity_fn = Some(Box::new(f));
        self
    }

    /// Sets the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Launches the cluster: builds the overlay, starts every controller.
    /// Each layer's configuration is built once and shared by every
    /// server through an `Rc`.
    pub fn build(self) -> Cluster {
        let latency = TopologyLatency::new(Arc::clone(&self.topo)).devirtualize();
        let agg_config = Rc::new(AggregationConfig {
            mode: UpdateMode::Periodic(self.vbundle.update_interval),
            ..self.agg.unwrap_or_default()
        });
        let default_capacity: ResourceVector = self.topo.capacity().into();
        let vb = Rc::new(self.vbundle);
        let scribe_config = Rc::new(self.scribe);
        let ids = overlay::topology_aware_ids(&self.topo);
        let handles = overlay::handles_for(&ids);
        let states = overlay::build_states(&self.topo, &handles, &self.pastry);
        let pastry_config = Rc::new(self.pastry);
        let mut engine: VbEngine = Engine::with_latency(latency, self.seed);
        if let Some(capacity) = self.flight_capacity {
            engine.enable_flight_recorder(capacity);
        }
        let registry = engine.metrics().clone();
        let flight = engine.flight().clone();
        let mirror = StatMirror::register(&registry);
        engine.reserve_actors(states.len());
        for (i, state) in states.into_iter().enumerate() {
            let capacity = match &self.capacity_fn {
                Some(f) => f(i),
                None => default_capacity,
            };
            let mut controller = Controller::new(capacity, Rc::clone(&agg_config), Rc::clone(&vb));
            controller.attach_obs(i as u32, &registry, &flight);
            controller.set_pod(self.topo.pod_of(self.topo.server(i)).index() as u32);
            let mut scribe = Scribe::with_config(controller, Rc::clone(&scribe_config));
            scribe.attach_obs(&registry, &flight);
            let mut node = PastryNode::with_state(state, scribe, Rc::clone(&pastry_config));
            node.attach_obs(&registry, &flight);
            engine.add_actor(node);
        }
        engine.start();
        Cluster {
            engine,
            handles,
            ids,
            topo: self.topo,
            vm_index: VmIndex::default(),
            next_vm: 0,
            mirror,
        }
    }
}

/// Gauges mirroring the stack's remaining ad-hoc stat structs
/// (controller u64 counters, cluster-level totals) into the obs
/// registry. Registered once at build time — gauges shard per
/// registration, so re-registering on every export would double-count —
/// and refreshed by [`Cluster::refresh_metrics`]. Trade tallies need no
/// mirror anymore: [`TradeStats`](vbundle_trade::TradeStats) fields are
/// obs [`Counter`](vbundle_obs::Counter) handles registered per
/// controller by `attach_obs`.
struct StatMirror {
    ctrl_migrations_out: Gauge,
    ctrl_migrations_in: Gauge,
    ctrl_migrations_failed: Gauge,
    ctrl_migrations_gated: Gauge,
    ctrl_queries_sent: Gauge,
    ctrl_accepts_sent: Gauge,
    ctrl_anycast_failures: Gauge,
    ctrl_conservative_intervals: Gauge,
    ctrl_invalid_payloads: Gauge,
    cluster_vms: Gauge,
    cluster_active_leases: Gauge,
}

impl StatMirror {
    fn register(registry: &Registry) -> Self {
        let ctrl = registry.scope("controller");
        let cluster = registry.scope("cluster");
        StatMirror {
            ctrl_migrations_out: ctrl.gauge("migrations_out"),
            ctrl_migrations_in: ctrl.gauge("migrations_in"),
            ctrl_migrations_failed: ctrl.gauge("migrations_failed"),
            ctrl_migrations_gated: ctrl.gauge("migrations_gated"),
            ctrl_queries_sent: ctrl.gauge("queries_sent"),
            ctrl_accepts_sent: ctrl.gauge("accepts_sent"),
            ctrl_anycast_failures: ctrl.gauge("anycast_failures"),
            ctrl_conservative_intervals: ctrl.gauge("conservative_intervals"),
            ctrl_invalid_payloads: ctrl.gauge("invalid_payloads"),
            cluster_vms: cluster.gauge("vms"),
            cluster_active_leases: cluster.gauge("active_leases"),
        }
    }
}

/// The server hosting each VM, indexed by [`VmId`]: ids come dense from
/// [`Cluster::alloc_vm_id`], so a slot costs 4 B per id where a hash
/// table paid ~22 B per VM and a per-process seed.
#[derive(Debug, Default)]
struct VmIndex(Vec<u32>);

impl VmIndex {
    /// The slot value of an id no server hosts.
    const NONE: u32 = u32::MAX;

    fn get(&self, vm: VmId) -> Option<usize> {
        let &server = self.0.get(usize::try_from(vm.0).ok()?)?;
        (server != Self::NONE).then_some(server as usize)
    }

    fn set(&mut self, vm: VmId, server: usize) {
        let i = usize::try_from(vm.0).expect("VM ids fit in usize");
        if i >= self.0.len() {
            self.0.resize(i + 1, Self::NONE);
        }
        self.0[i] = u32::try_from(server).expect("fewer than 2^32 servers");
    }

    fn unset(&mut self, vm: VmId) {
        if let Some(slot) = usize::try_from(vm.0).ok().and_then(|i| self.0.get_mut(i)) {
            *slot = Self::NONE;
        }
    }

    fn clear(&mut self) {
        self.0.fill(Self::NONE);
    }
}

/// A running v-Bundle cluster: engine + per-server handles + bookkeeping.
pub struct Cluster {
    /// The simulation engine (exposed for advanced harnesses).
    pub engine: VbEngine,
    /// Node handles, indexed by server.
    pub handles: Vec<NodeHandle>,
    /// Node ids, indexed by server.
    pub ids: Vec<NodeId>,
    /// The datacenter topology.
    pub topo: Arc<Topology>,
    vm_index: VmIndex,
    next_vm: u64,
    mirror: StatMirror,
}

impl Cluster {
    /// Starts a builder.
    pub fn builder(topo: Arc<Topology>) -> ClusterBuilder {
        ClusterBuilder::new(topo)
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.handles.len()
    }

    /// Allocates a fresh VM id.
    pub fn alloc_vm_id(&mut self) -> VmId {
        let id = VmId(self.next_vm);
        self.next_vm += 1;
        id
    }

    /// The controller of `server`.
    pub fn controller(&self, server: usize) -> &Controller {
        self.engine
            .actor(ActorId::new(server as u32))
            .app()
            .client()
    }

    /// Mutable access to the controller of `server` — test scaffolding
    /// (e.g. steering a lender's spot-price index between runs).
    pub fn controller_mut(&mut self, server: usize) -> &mut Controller {
        self.engine
            .actor_mut(ActorId::new(server as u32))
            .app_mut()
            .client_mut()
    }

    /// Runs the simulation for `span`.
    pub fn run_for(&mut self, span: SimDuration) {
        self.engine.run_for(span);
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.engine.run_until(deadline);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Issues a boot request through the protocol (§II.B) from `entry`'s
    /// server; returns the request id, which `entry`'s controller mints
    /// as an op id. The result appears in `entry`'s
    /// controller stats once routing completes.
    pub fn request_boot(
        &mut self,
        entry: usize,
        customer: &Customer,
        spec: ResourceSpec,
        demand: ResourceVector,
    ) -> (u64, VmId) {
        let vm_id = self.alloc_vm_id();
        let mut vm = VmRecord::new(vm_id, customer.id, spec);
        vm.demand = demand;
        let key = customer.key;
        let request = self.engine.call(ActorId::new(entry as u32), |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| c.request_boot(sctx, key, vm))
            })
        });
        (request, vm_id)
    }

    /// Boots a VM and runs the simulation until its result arrives (or
    /// `timeout` simulated time passes). Returns the hosting server.
    pub fn boot_and_run(
        &mut self,
        entry: usize,
        customer: &Customer,
        spec: ResourceSpec,
        demand: ResourceVector,
        timeout: SimDuration,
    ) -> Option<ServerId> {
        let (request, _vm) = self.request_boot(entry, customer, spec, demand);
        let deadline = self.engine.now() + timeout;
        loop {
            if let Some(host) = self.boot_result(entry, request) {
                return host.map(|h| self.topo.server(h.actor.index()));
            }
            if self.engine.now() >= deadline {
                return None;
            }
            self.engine.run_for(SimDuration::from_millis(50));
        }
    }

    /// Looks up the outcome of boot `request` at `entry`'s controller:
    /// `None` = still in flight, `Some(None)` = rejected,
    /// `Some(Some(handle))` = placed.
    pub fn boot_result(&self, entry: usize, request: u64) -> Option<Option<NodeHandle>> {
        self.controller(entry)
            .stats
            .boot_results
            .iter()
            .find(|(r, _, _)| *r == request)
            .map(|(_, _, host)| *host)
    }

    /// Installs a VM directly on `server`, bypassing the protocol (offline
    /// seeding for the large scenarios).
    ///
    /// # Panics
    ///
    /// Panics if the VM's reservation does not fit the server.
    pub fn install_vm(&mut self, server: ServerId, vm: VmRecord) {
        self.engine
            .actor_mut(ActorId::new(server.index() as u32))
            .app_mut()
            .client_mut()
            .install_vm(vm);
        self.vm_index.set(vm.id, server.index());
    }

    /// Carves `amount` out of `server` as survivable backup capacity,
    /// bypassing the protocol — the seeding counterpart of
    /// [`ClusterModel::backup_reserved`](crate::ClusterModel::backup_reserved),
    /// for mirroring an offline survivable placement into the live stack.
    ///
    /// # Panics
    ///
    /// Panics if the amount does not fit the server's remaining capacity.
    pub fn install_backup(&mut self, server: ServerId, amount: ResourceVector) {
        self.engine
            .actor_mut(ActorId::new(server.index() as u32))
            .app_mut()
            .client_mut()
            .reserve_backup(amount);
    }

    /// Installs a per-VM failover protection on `site`, bypassing the
    /// protocol: carves the backup headroom *and* records which VM it
    /// covers and where its primary copy lives, so the site can probe the
    /// primary's rack and re-materialize the VM when the rack is declared
    /// dead. The seeding counterpart of
    /// [`ClusterModel::backup_charges`](crate::ClusterModel::backup_charges).
    ///
    /// # Panics
    ///
    /// Panics if the amount does not fit the site's remaining capacity.
    pub fn install_backup_charge(
        &mut self,
        site: ServerId,
        vm: VmRecord,
        primary: ServerId,
        amount: ResourceVector,
    ) {
        let primary_handle = self.handles[primary.index()];
        self.engine
            .actor_mut(ActorId::new(site.index() as u32))
            .app_mut()
            .client_mut()
            .install_protection(vm, primary_handle, amount);
    }

    /// Rebuilds the VM → server index by walking every controller (needed
    /// after migrations).
    pub fn reindex(&mut self) {
        let mut index = std::mem::take(&mut self.vm_index);
        index.clear();
        for i in 0..self.num_servers() {
            for vm in self.controller(i).vms() {
                index.set(vm.id, i);
            }
        }
        self.vm_index = index;
    }

    /// The server currently hosting `vm` (after the latest
    /// [`Cluster::reindex`]).
    pub fn host_of(&self, vm: VmId) -> Option<ServerId> {
        self.vm_index.get(vm).map(|i| self.topo.server(i))
    }

    /// Shuts a VM down wherever it currently lives, releasing its
    /// reservation. Returns its final record, or `None` if the VM is
    /// unknown (call [`Cluster::reindex`] first if it may have migrated).
    pub fn shutdown_vm(&mut self, vm: VmId) -> Option<VmRecord> {
        let server = self.vm_index.get(vm)?;
        // A planned shutdown unwinds the VM's leases first, with peer
        // notification — only a crash should leave halves to expiry.
        self.engine.call(ActorId::new(server as u32), |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| c.release_vm_leases(sctx, vm));
            });
        });
        let record = self
            .engine
            .actor_mut(ActorId::new(server as u32))
            .app_mut()
            .client_mut()
            .remove_vm(vm)?;
        self.vm_index.unset(vm);
        Some(record)
    }

    /// Updates a VM's demand in place. Returns `false` if the VM is not
    /// where the index says (call [`Cluster::reindex`] first). A live
    /// trading server gets to tell its trade trees at once that it may
    /// have more to lend now.
    pub fn set_vm_demand(&mut self, vm: VmId, demand: ResourceVector) -> bool {
        let Some(server) = self.vm_index.get(vm) else {
            return false;
        };
        let actor = ActorId::new(server as u32);
        let controller = self.engine.actor_mut(actor).app_mut().client_mut();
        let found = controller.set_vm_demand(vm, demand);
        if controller.has_lending_news() && self.engine.is_alive(actor) {
            self.engine.call(actor, |node, ctx| {
                node.app_call(ctx, |scribe, actx| {
                    scribe.client_call(actx, |c, sctx| c.announce(sctx));
                });
            });
        }
        found
    }

    /// Per-server bandwidth utilization snapshot.
    pub fn utilizations(&self) -> Vec<f64> {
        (0..self.num_servers())
            .map(|i| self.controller(i).utilization())
            .collect()
    }

    /// Cluster-wide demand vs. satisfied bandwidth under the shaper,
    /// using each controller's own NIC capacity (which may be
    /// heterogeneous).
    pub fn satisfaction(&self) -> SatisfactionTotals {
        let mut totals = SatisfactionTotals::default();
        for i in 0..self.num_servers() {
            // allocations() is entitlement-aware: with bundle trading on,
            // Fig. 11's satisfied series reflects the live ledger.
            totals.add_allocations(&self.controller(i).allocations());
        }
        totals
    }

    /// Live committed leases cluster-wide, counted once (borrower halves).
    pub fn active_leases(&self) -> usize {
        let now = self.now();
        (0..self.num_servers())
            .map(|i| {
                self.controller(i)
                    .trade_book()
                    .halves()
                    .filter(|h| {
                        h.role == vbundle_trade::LeaseRole::Borrower && h.lease.live_at(now)
                    })
                    .count()
            })
            .sum()
    }

    /// All placements as `(vm, customer, server)` triples.
    pub fn placements(&self) -> Vec<(VmId, crate::CustomerId, ServerId)> {
        let mut out = Vec::new();
        for i in 0..self.num_servers() {
            for vm in self.controller(i).vms() {
                out.push((vm.id, vm.customer, self.topo.server(i)));
            }
        }
        out
    }

    /// Total VMs hosted across the cluster.
    pub fn num_vms(&self) -> usize {
        (0..self.num_servers())
            .map(|i| self.controller(i).vms().len())
            .sum()
    }

    /// Total migrations completed so far (arrivals counted).
    pub fn total_migrations(&self) -> u64 {
        (0..self.num_servers())
            .map(|i| self.controller(i).stats.migrations_in)
            .sum()
    }

    /// Refreshes the mirror gauges from the stack's stat structs so the
    /// registry export reflects the cluster's current totals. Counters
    /// migrated onto registry handles (engine events/faults, pastry
    /// evictions, scribe expiries, controller gate/lease-block tallies)
    /// need no mirroring; this covers the remaining ad-hoc structs.
    pub fn refresh_metrics(&self) {
        let (mut out, mut inc, mut failed, mut gated) = (0u64, 0u64, 0u64, 0u64);
        let (mut queries, mut accepts, mut anycast) = (0u64, 0u64, 0u64);
        let (mut conservative, mut invalid) = (0u64, 0u64);
        for i in 0..self.num_servers() {
            let c = self.controller(i);
            out += c.stats.migrations_out;
            inc += c.stats.migrations_in;
            failed += c.stats.migrations_failed;
            gated += c.stats.migrations_gated;
            queries += c.stats.queries_sent;
            accepts += c.stats.accepts_sent;
            anycast += c.stats.anycast_failures;
            conservative += c.stats.conservative_intervals;
            invalid += c.stats.invalid_payloads;
        }
        let m = &self.mirror;
        m.ctrl_migrations_out.set(out as f64);
        m.ctrl_migrations_in.set(inc as f64);
        m.ctrl_migrations_failed.set(failed as f64);
        m.ctrl_migrations_gated.set(gated as f64);
        m.ctrl_queries_sent.set(queries as f64);
        m.ctrl_accepts_sent.set(accepts as f64);
        m.ctrl_anycast_failures.set(anycast as f64);
        m.ctrl_conservative_intervals.set(conservative as f64);
        m.ctrl_invalid_payloads.set(invalid as f64);
        m.cluster_vms.set(self.num_vms() as f64);
        m.cluster_active_leases.set(self.active_leases() as f64);
    }

    /// The full metrics export as deterministic JSON (after a
    /// [`Cluster::refresh_metrics`]).
    pub fn metrics_json(&self) -> String {
        self.refresh_metrics();
        self.engine.metrics().to_json()
    }

    /// The full metrics export as deterministic CSV (after a
    /// [`Cluster::refresh_metrics`]).
    pub fn metrics_csv(&self) -> String {
        self.refresh_metrics();
        self.engine.metrics().to_csv()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.num_servers())
            .field("vms", &self.num_vms())
            .field("now", &self.engine.now())
            .finish()
    }
}

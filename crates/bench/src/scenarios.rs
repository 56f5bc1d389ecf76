//! Reusable scenario assembly: the large-scale placements of Figs. 7–8,
//! the skewed-load clusters of Figs. 9–11, the SIPp testbed of
//! Figs. 12–13 and the bare-engine gossip cluster of `scale_sweep` and
//! `perf/engine_gossip`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_core::{
    Cluster, ClusterModel, Customer, CustomerId, PlacementPolicy, ResourceSpec, ResourceVector,
    VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, ServerId, Topology};
use vbundle_pastry::overlay;
use vbundle_sim::{Actor, ActorId, Context, Engine, Message, SimDuration, SimTime};
use vbundle_workloads::{SippGenerator, SkewedLoad};

/// Places `per_customer` VMs for each of the paper's five customers with
/// the given policy and returns the model (Figs. 7–8). VMs arrive
/// interleaved round-robin across customers, as a shared cloud would see
/// them.
pub fn five_customer_placement(
    topo: &Arc<Topology>,
    policy: PlacementPolicy,
    per_customer: usize,
    reservation: Bandwidth,
    seed: u64,
) -> (ClusterModel, Vec<Customer>) {
    let ids = overlay::topology_aware_ids(topo);
    let capacity: ResourceVector = topo.capacity().into();
    let mut model = ClusterModel::new(Arc::clone(topo), ids, capacity);
    let customers = Customer::paper_five();
    place_wave(
        &mut model,
        policy,
        &customers,
        0,
        per_customer,
        reservation,
        seed,
    );
    (model, customers)
}

/// Adds one interleaved wave of `per_customer` VMs per customer to an
/// existing model (the second 5000 of Fig. 8). `first_id` is the starting
/// VM id.
pub fn place_wave(
    model: &mut ClusterModel,
    policy: PlacementPolicy,
    customers: &[Customer],
    first_id: u64,
    per_customer: usize,
    reservation: Bandwidth,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = ResourceSpec::bandwidth(reservation, reservation * 2.0);
    let mut id = first_id;
    for round in 0..per_customer {
        for customer in customers {
            let vm = VmRecord::new(VmId(id), customer.id, spec);
            id += 1;
            let placed = model.place(policy, customer.key, vm, &mut rng);
            assert!(
                placed.is_some(),
                "VM {round} of {} failed to place under {policy:?}",
                customer.name
            );
        }
    }
}

/// A cluster seeded with the skewed per-server load of Figs. 9–11:
/// each server's target utilization is split into `vms_per_server`
/// zero-reservation VMs so the shuffler can move them freely. Returns the
/// cluster and the per-server initial utilizations.
pub fn skewed_cluster(
    topo: Arc<Topology>,
    config: VBundleConfig,
    load: &SkewedLoad,
    vms_per_server: usize,
    seed: u64,
) -> (Cluster, Vec<f64>) {
    let utils = load.draw(topo.num_servers());
    let nic = topo.capacity().bandwidth;
    let mut cluster = Cluster::builder(topo).vbundle(config).seed(seed).build();
    for (server, &util) in utils.iter().enumerate() {
        let per_vm = nic * util / vms_per_server as f64;
        for _ in 0..vms_per_server {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(0),
                ResourceSpec::bandwidth(Bandwidth::ZERO, nic),
            );
            vm.demand = ResourceVector::bandwidth_only(per_vm);
            let sid = cluster.topo.server(server);
            cluster.install_vm(sid, vm);
        }
    }
    cluster.reindex();
    (cluster, utils)
}

/// The SIPp + Iperf testbed of Figs. 12–13: the paper's 15 servers with
/// one SIPp VM co-located with saturating Iperf VMs, plus light background
/// VMs everywhere.
pub struct SippTestbed {
    /// The running cluster.
    pub cluster: Cluster,
    /// The SIPp call generator.
    pub sipp: SippGenerator,
    /// The SIPp VM's id.
    pub sipp_vm: VmId,
    /// Driver RNG (deterministic).
    pub rng: StdRng,
}

impl SippTestbed {
    /// Builds the testbed. `vms_per_host` background VMs land on each
    /// server (the paper instantiates 225–300 total); Iperf VMs saturate
    /// the SIPp host.
    pub fn new(vms_per_host: usize, seed: u64) -> SippTestbed {
        let topo = Arc::new(Topology::paper_testbed());
        let nic = topo.capacity().bandwidth;
        // Control intervals chosen so detection + rebalancing land around
        // the 300 s mark, as in the paper's Fig. 12 timeline (their 5 min
        // update / 25 min rebalance would react on the same relative
        // scale).
        let config = VBundleConfig::default()
            .with_update_interval(SimDuration::from_secs(75))
            .with_rebalance_interval(SimDuration::from_secs(150))
            .with_threshold(0.15);
        let mut cluster = Cluster::builder(Arc::clone(&topo))
            .vbundle(config)
            .seed(seed)
            .build();

        // Background VMs: light 10 Mbps services across all hosts.
        for server in 0..topo.num_servers() {
            for _ in 0..vms_per_host {
                let id = cluster.alloc_vm_id();
                let mut vm = VmRecord::new(
                    id,
                    CustomerId(1),
                    ResourceSpec::bandwidth(Bandwidth::ZERO, nic),
                );
                vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(10.0));
                let sid = topo.server(server);
                cluster.install_vm(sid, vm);
            }
        }
        // The SIPp VM on host 0 …
        let sipp_vm = cluster.alloc_vm_id();
        let vm = VmRecord::new(
            sipp_vm,
            CustomerId(0),
            ResourceSpec::bandwidth(Bandwidth::ZERO, nic),
        );
        cluster.install_vm(topo.server(0), vm);
        // … co-located with six Iperf pairs that saturate the 1 Gbps NIC
        // (continuous Iperf streams per §V.A).
        for _ in 0..6 {
            let id = cluster.alloc_vm_id();
            let mut vm = VmRecord::new(
                id,
                CustomerId(0),
                ResourceSpec::bandwidth(Bandwidth::ZERO, nic),
            );
            vm.demand = ResourceVector::bandwidth_only(Bandwidth::from_mbps(160.0));
            cluster.install_vm(topo.server(0), vm);
        }
        cluster.reindex();

        // Calls start at t=100 s as in Fig. 12.
        let sipp = SippGenerator::new(SimTime::from_secs(100));
        SippTestbed {
            cluster,
            sipp,
            sipp_vm,
            rng: StdRng::seed_from_u64(seed ^ 0x5199),
        }
    }

    /// Advances one second: runs the simulation, refreshes the SIPp VM's
    /// demand, reads its granted bandwidth and steps the call generator.
    /// Returns `(cumulative failed calls, granted, demand)`.
    pub fn tick_1s(&mut self) -> (u64, Bandwidth, Bandwidth) {
        self.cluster.run_for(SimDuration::from_secs(1));
        let now = self.cluster.now();
        let demand = self.sipp.bw_demand_at(now);
        self.cluster.reindex();
        self.cluster
            .set_vm_demand(self.sipp_vm, ResourceVector::bandwidth_only(demand));
        let host = self
            .cluster
            .host_of(self.sipp_vm)
            .expect("SIPp VM exists somewhere");
        let granted = self.granted_at(host);
        self.sipp
            .step(now, SimDuration::from_secs(1), granted, &mut self.rng);
        (self.sipp.cumulative_failed(), granted, demand)
    }

    fn granted_at(&self, host: ServerId) -> Bandwidth {
        let controller = self.cluster.controller(host.index());
        let allocs = controller.allocations();
        controller
            .vms()
            .iter()
            .zip(&allocs)
            .find(|(vm, _)| vm.id == self.sipp_vm)
            .map(|(_, a)| a.granted)
            .unwrap_or(Bandwidth::ZERO)
    }
}

/// Messages each gossip actor fans out per tick.
pub const GOSSIP_FANOUT: usize = 4;
/// Gossip tick interval, in milliseconds.
pub const GOSSIP_TICK_MS: u64 = 100;
const GOSSIP_TICK_TAG: u64 = 1;

/// The gossip actors' wire message.
#[derive(Debug, Clone)]
pub struct Gossip(u64);
impl Message for Gossip {}

/// An engine-core synthetic server: every tick, fan [`GOSSIP_FANOUT`]
/// messages to uniformly random peers — drawn from the engine's seeded
/// RNG, so the run replays byte-identically — then re-arm the tick.
/// Uniform fanout is the worst case for the memory hierarchy: no
/// destination locality for the cache to exploit.
pub struct GossipWorker {
    cluster: u32,
    received: u64,
}

impl Actor<Gossip> for GossipWorker {
    fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
        // Stagger first ticks across one interval so 100k timers do not
        // land on a single instant.
        let jitter = ctx.rng().gen_range(0..GOSSIP_TICK_MS * 1_000);
        ctx.schedule(SimDuration::from_micros(jitter), GOSSIP_TICK_TAG);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Gossip>, _from: ActorId, msg: Gossip) {
        self.received = self.received.wrapping_add(1 + msg.0 % 7);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Gossip>, _tag: u64) {
        for round in 0..GOSSIP_FANOUT {
            let peer = ctx.rng().gen_range(0..self.cluster);
            ctx.send(ActorId::new(peer), Gossip(round as u64));
        }
        ctx.schedule(SimDuration::from_millis(GOSSIP_TICK_MS), GOSSIP_TICK_TAG);
    }
}

/// A bare engine of `servers` [`GossipWorker`]s, not yet started.
pub fn gossip_engine(servers: usize, seed: u64) -> Engine<Gossip, GossipWorker> {
    let mut engine = Engine::with_seed(seed);
    for _ in 0..servers {
        engine.add_actor(GossipWorker {
            cluster: servers as u32,
            received: 0,
        });
    }
    engine
}

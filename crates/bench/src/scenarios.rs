//! Reusable scenario assembly: the large-scale placements of Figs. 7–8,
//! the skewed-load clusters of Figs. 9–11, the SIPp testbed of
//! Figs. 12–13 and the bare-engine gossip cluster of `scale_sweep` and
//! `perf/engine_gossip`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_core::{
    metrics, Cluster, ClusterModel, Customer, CustomerId, PlacementPolicy, ResourceSpec,
    ResourceVector, VBundleConfig, VmId, VmRecord,
};
use vbundle_dcn::{Bandwidth, ServerId, Topology};
use vbundle_pastry::overlay;
use vbundle_sim::{Actor, ActorId, Context, Engine, Message, SimDuration, SimTime};
use vbundle_workloads::{SippGenerator, SkewedLoad};

use crate::Figure;

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

/// One placement's locality, each a mean over customers except the
/// racks of the widest customer and the bisection share of all chatting
/// traffic.
pub struct Locality {
    /// Racks spanned by the customer that spans the most.
    pub max_racks: usize,
    /// Racks spanned per customer.
    pub racks: f64,
    /// Fraction of same-customer VM pairs that share a rack.
    pub same_rack: f64,
    /// Physical distance (0–3) between same-customer VM pairs.
    pub dist: f64,
    /// Share of the chatting traffic that crosses the bisection.
    pub bisection: f64,
}

/// Claims the locality of `model`'s placement of the paper's five
/// customers under the prefix `p`: per customer
/// `<p>.<name>.{vms,racks,same_rack_pct,pair_dist}`, the means over
/// customers, and the chatting traffic (every same-customer pair at
/// 50 Mbps) with the share of it that crosses the bisection.
pub fn claim_locality(fig: &mut Figure, p: &str, model: &ClusterModel) -> Locality {
    let (topo, customers) = (model.topology(), Customer::paper_five());
    let placements: Vec<_> = model
        .placements()
        .iter()
        .map(|(vm, s)| (vm.customer, *s))
        .collect();
    let locality = metrics::customer_locality(topo, &placements);
    let (mut max_racks, mut racks, mut same_rack, mut dist) = (0, 0.0, 0.0, 0.0);
    for l in &locality {
        let name = format!("{p}.{}", customers[l.customer.0 as usize].name);
        let (same_pct, d) = (l.same_rack_pair_fraction * 100.0, l.mean_pair_distance);
        fig.claim(format!("{name}.vms"), l.vms);
        fig.claim(format!("{name}.racks"), l.racks_spanned);
        fig.claim(format!("{name}.same_rack_pct"), format!("{same_pct:.1}"));
        fig.claim(format!("{name}.pair_dist"), format!("{d:.3}"));
        max_racks = max_racks.max(l.racks_spanned);
        racks += l.racks_spanned as f64;
        same_rack += l.same_rack_pair_fraction;
        dist += d;
    }
    let n = locality.len() as f64;
    let (racks, same_rack, dist) = (racks / n, same_rack / n, dist / n);
    let traffic = metrics::chatting_traffic(topo, &placements, Bandwidth::from_mbps(50.0));
    let report = traffic.bisection_report(topo);
    let bisection = report.bisection_fraction();
    let (same_pct, bisection_pct) = (same_rack * 100.0, bisection * 100.0);
    fig.claim(format!("{p}.mean_racks"), format!("{racks:.1}"));
    fig.claim(format!("{p}.mean_same_rack_pct"), format!("{same_pct:.1}"));
    fig.claim(format!("{p}.mean_pair_dist"), format!("{dist:.3}"));
    fig.claim(format!("{p}.bisection_pct"), format!("{bisection_pct:.2}"));
    let [cross, total] = [report.bisection_traffic(), report.total()].map(|b| b.as_mbps());
    fig.claim(format!("{p}.cross_rack_mbps"), format!("{cross:.0}"));
    fig.claim(format!("{p}.chatting_mbps"), format!("{total:.0}"));
    Locality {
        max_racks,
        racks,
        same_rack,
        dist,
        bisection,
    }
}

/// A uniform fabric: `pods` × `racks_per_pod` racks of `servers_per_rack`
/// servers each.
pub fn fabric(pods: u32, racks_per_pod: u32, servers_per_rack: u32) -> Arc<Topology> {
    let mut builder = Topology::builder();
    builder.pods(pods).racks_per_pod(racks_per_pod);
    Arc::new(builder.servers_per_rack(servers_per_rack).build())
}

/// The control loop of the paper's simulations (§IV): `threshold`, a
/// 5-minute updating interval and a 25-minute rebalancing interval.
pub fn paper_config(threshold: f64) -> VBundleConfig {
    VBundleConfig::default()
        .with_threshold(threshold)
        .with_update_interval(SimDuration::from_mins(5))
        .with_rebalance_interval(SimDuration::from_mins(25))
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
    /// VMs the SIPp host (server 0) held when built.
    built_vms: usize,
    /// First second at whose end the SIPp host held fewer VMs than it
    /// was built with: when its contention ends.
    pub shed_at: Option<u64>,
    /// First second at whose end `Cluster::total_migrations` read
    /// non-zero. The counter moves when a migration lands, seconds after
    /// the host has shed.
    pub counted_at: Option<u64>,
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
            built_vms: cluster.controller(0).vms().len(),
            cluster,
            sipp,
            sipp_vm,
            rng: StdRng::seed_from_u64(seed ^ 0x5199),
            shed_at: None,
            counted_at: None,
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
        let second = now.as_millis() / 1000;
        if self.shed_at.is_none() && self.cluster.controller(0).vms().len() < self.built_vms {
            self.shed_at = Some(second);
        }
        if self.counted_at.is_none() && self.cluster.total_migrations() > 0 {
            self.counted_at = Some(second);
        }
        (self.sipp.cumulative_failed(), granted, demand)
    }

    /// Claims `shed_s` and `counted_s` ([`SippTestbed::shed_at`],
    /// [`SippTestbed::counted_at`]; `none` if not yet seen) and returns
    /// the shed second.
    pub fn claim_relief(&self, fig: &mut Figure) -> Option<u64> {
        let second = |s: Option<u64>| s.map_or("none".to_string(), |s| s.to_string());
        fig.claim("shed_s", second(self.shed_at));
        fig.claim("counted_s", second(self.counted_at));
        self.shed_at
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

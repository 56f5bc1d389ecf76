//! The per-node aggregation component (the paper's "topic manager").
//!
//! Each server stores local `(topic, value)` data and subscribes to one
//! Scribe tree per topic. Periodically (or immediately, in event-driven
//! mode) every node merges its local value with its children's *reduction
//! information bases* and pushes the subtree summary to its parent; the
//! root publishes the global aggregate back down the tree (§III.D).

use vbundle_fdetect::{ArrivalWindow, PhiConfig, FIRST_INTERVAL};
use vbundle_pastry::{Id, NodeHandle};
use vbundle_scribe::{GroupId, ScribeCtx};
use vbundle_sim::{FlatMap, Message, SimDuration, SimTime};

use crate::robust::{winsorized_combine, Robustness};
use crate::{AggMsg, AggValue};

/// Timer tag the embedding client must route to [`Aggregator::on_tick`].
pub const AGG_TICK_TAG: u64 = 0x5641_0001;

/// When subtree summaries travel up the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Leaves push on a fixed period (the paper's 5-minute updating
    /// interval); convergence takes `tree height × interval`.
    Periodic(SimDuration),
    /// Push as soon as the subtree summary changes; convergence takes
    /// `tree height × (hop latency + processing delay)` — the "without
    /// adding updating interval" line of Fig. 14.
    Immediate,
}

/// Tunables of the aggregation service.
#[derive(Debug, Clone)]
pub struct AggregationConfig {
    /// Update propagation mode.
    pub mode: UpdateMode,
    /// Per-node processing time added before each upward push (the paper
    /// measures 1–2 ms per tree level; default 1.5 ms).
    pub processing_delay: SimDuration,
    /// If set, each node tracks the arrival cadence of global results with
    /// a phi-accrual window and expires its cached aggregate once the
    /// publishing root has been silent implausibly long — so a dead root's
    /// last value cannot steer rebalancing forever. `None` keeps cached
    /// aggregates until a newer result supersedes them.
    pub staleness: Option<PhiConfig>,
    /// How incoming contributions are screened and combined. Defaults to
    /// [`Robustness::TrustAll`] — exact, lossless aggregation — because
    /// honest-network tests and the Fig. 14 measurements assert exact sums;
    /// poison-facing deployments opt into [`Robustness::Defensive`].
    pub robustness: Robustness,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            mode: UpdateMode::Periodic(SimDuration::from_mins(5)),
            processing_delay: SimDuration::from_micros(1500),
            staleness: Some(PhiConfig::default()),
            robustness: Robustness::TrustAll,
        }
    }
}

/// Marker for client message types able to carry [`AggMsg`]s.
///
/// The embedding client (v-Bundle's controller) defines one message enum
/// wrapping both aggregation and shuffling traffic; implementing
/// `From<AggMsg>` + [`TryInto<AggMsg>`] lets the aggregator send through
/// the shared [`ScribeCtx`].
pub trait AggCarrier: Message + Clone + From<AggMsg> {}
impl<M: Message + Clone + From<AggMsg>> AggCarrier for M {}

#[derive(Debug, Default)]
struct TopicState {
    local: AggValue,
    /// Child id → last reported subtree summary (the information base).
    info_base: FlatMap<u128, AggValue>,
    /// Last summary pushed to the parent (suppresses no-op pushes in
    /// immediate mode).
    last_pushed: Option<AggValue>,
    /// Latest global aggregate received (publishing root, version, value).
    /// Versions are only comparable within one root's publication stream.
    global: Option<(u128, u64, AggValue)>,
    /// Root-only publish counter.
    version: u64,
    /// Last global value this node published as root.
    last_published: Option<AggValue>,
    /// Arrival cadence of accepted global results, for staleness expiry.
    /// Boxed, so a topic that has heard no result yet (every topic at
    /// build time) pays a pointer rather than the window's inline ring.
    results: Option<Box<ArrivalWindow>>,
}

/// A node's subscribed topics, sorted by key. A node subscribes to a
/// handful (a controller to two), so a scanned vector allocates for
/// exactly those where a B-tree map pays a whole 11-slot leaf per node.
#[derive(Debug, Default)]
struct Topics(Vec<(u128, TopicState)>);

impl Topics {
    fn get(&self, topic: GroupId) -> Option<&TopicState> {
        let key = topic.as_u128();
        self.0.iter().find(|&&(k, _)| k == key).map(|(_, st)| st)
    }

    fn get_mut(&mut self, topic: GroupId) -> Option<&mut TopicState> {
        let key = topic.as_u128();
        self.0
            .iter_mut()
            .find(|&&mut (k, _)| k == key)
            .map(|(_, st)| st)
    }

    fn insert(&mut self, topic: GroupId) {
        let key = topic.as_u128();
        if let Err(at) = self.0.binary_search_by_key(&key, |&(k, _)| k) {
            self.0.reserve_exact(1);
            self.0.insert(at, (key, TopicState::default()));
        }
    }
}

/// The aggregation component one server embeds in its Scribe client.
///
/// The embedding client must:
/// - call [`Aggregator::subscribe`] for each topic,
/// - schedule [`AGG_TICK_TAG`] and route it to [`Aggregator::on_tick`]
///   (periodic mode),
/// - route direct [`AggMsg::Update`]s to [`Aggregator::on_update`],
/// - route multicast [`AggMsg::Result`]s to [`Aggregator::on_result`],
/// - route child-removal events to [`Aggregator::on_child_removed`].
#[derive(Debug)]
pub struct Aggregator {
    topics: Topics,
    config: AggregationConfig,
    rejected: u64,
}

impl Aggregator {
    /// Creates an aggregator with the given configuration.
    pub fn new(config: AggregationConfig) -> Self {
        Aggregator {
            topics: Topics::default(),
            config,
            rejected: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AggregationConfig {
        &self.config
    }

    /// Contributions (child updates or published results) rejected by
    /// [`Robustness::Defensive`] validation. Always zero under
    /// [`Robustness::TrustAll`].
    pub fn rejected_contributions(&self) -> u64 {
        self.rejected
    }

    /// Subscribes this node to `topic`: joins the Scribe tree and starts
    /// the tick timer (first caller only).
    pub fn subscribe<M: AggCarrier>(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, M>,
        topic: GroupId,
    ) {
        let first_topic = self.topics.0.is_empty();
        self.track(topic);
        ctx.join(topic);
        if first_topic {
            if let UpdateMode::Periodic(interval) = self.config.mode {
                ctx.schedule(interval, AGG_TICK_TAG);
            }
        }
    }

    /// Registers a topic locally without joining its Scribe group or
    /// arming the tick timer — for offline harnesses and tests that inject
    /// globals directly through [`Aggregator::on_result`].
    pub fn track(&mut self, topic: GroupId) {
        self.topics.insert(topic);
    }

    /// Topics this node subscribed to.
    pub fn topics(&self) -> Vec<GroupId> {
        let keys = self.topics.0.iter().map(|&(k, _)| GroupId::from_u128(k));
        let mut v: Vec<GroupId> = keys.collect();
        v.sort();
        v
    }

    /// Sets the node's local sample for `topic` (e.g. its bandwidth
    /// demand in Mbps). In immediate mode this may push an update at once.
    ///
    /// # Panics
    ///
    /// Panics if the topic was never subscribed.
    pub fn set_local<M: AggCarrier>(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, M>,
        topic: GroupId,
        value: f64,
    ) {
        let st = self.topics.get_mut(topic);
        let st = st.expect("set_local on unsubscribed topic");
        st.local = AggValue::of(value);
        if self.config.mode == UpdateMode::Immediate {
            self.push_subtree(ctx, topic);
        }
    }

    /// The node's current local sample for `topic`.
    pub fn local(&self, topic: GroupId) -> Option<AggValue> {
        self.topics.get(topic).map(|t| t.local)
    }

    /// The subtree summary this node would currently report.
    pub fn subtree(&self, topic: GroupId) -> AggValue {
        match self.topics.get(topic) {
            Some(st) => st.info_base.values().fold(st.local, |acc, v| acc.merge(v)),
            None => AggValue::EMPTY,
        }
    }

    /// The latest global aggregate this node has heard for `topic`.
    pub fn global(&self, topic: GroupId) -> Option<AggValue> {
        self.topics
            .get(topic)
            .and_then(|t| t.global.map(|(_, _, v)| v))
    }

    /// Periodic tick: expire stale cached aggregates, push every topic's
    /// subtree summary to the parent (or publish, at the root), then
    /// re-arm the timer.
    pub fn on_tick<M: AggCarrier>(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, M>) {
        self.expire_stale(ctx.now());
        for i in 0..self.topics.0.len() {
            self.push_subtree(ctx, GroupId::from_u128(self.topics.0[i].0));
        }
        if let UpdateMode::Periodic(interval) = self.config.mode {
            ctx.schedule(interval, AGG_TICK_TAG);
        }
    }

    /// Drops cached global aggregates whose publishing root has been silent
    /// implausibly long per the phi fit of its past publication cadence.
    /// One missed round is always tolerated (the pause grace covers a full
    /// periodic interval); sustained silence — a dead or partitioned root —
    /// expires the cache so rebalancing falls back to local knowledge
    /// instead of steering on a ghost value.
    fn expire_stale(&mut self, now: SimTime) {
        let Some(phi) = &self.config.staleness else {
            return;
        };
        let pause = match self.config.mode {
            UpdateMode::Periodic(interval) => phi.acceptable_pause.max(interval),
            UpdateMode::Immediate => phi.acceptable_pause.max(FIRST_INTERVAL),
        };
        for (_, st) in &mut self.topics.0 {
            let stale = st
                .results
                .as_ref()
                .is_some_and(|w| w.phi(now, phi.min_std_dev, pause) > phi.threshold);
            if stale {
                st.global = None;
                st.results = None;
            }
        }
    }

    /// Re-arms the periodic tick after a node restart: the crash purged
    /// every pending timer, including the one [`Aggregator::subscribe`]
    /// armed. Call from the embedding client's `on_restart` hook.
    pub fn on_restart<M: AggCarrier>(&mut self, ctx: &mut ScribeCtx<'_, '_, '_, '_, M>) {
        if !self.topics.0.is_empty() {
            if let UpdateMode::Periodic(interval) = self.config.mode {
                ctx.schedule(interval, AGG_TICK_TAG);
            }
        }
    }

    /// A child pushed its subtree summary.
    pub fn on_update<M: AggCarrier>(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, M>,
        from: NodeHandle,
        topic: GroupId,
        value: AggValue,
    ) {
        if self.topics.get(topic).is_none() {
            return; // not subscribed (e.g. pure forwarder); drop
        }
        let robustness = self.config.robustness;
        if robustness.check(&value).is_err() {
            // Reject: keep the child's last accepted contribution (its
            // last-good snapshot) instead of overwriting.
            self.rejected += 1;
            return;
        }
        let value = robustness.clamp(value);
        let st = self.topics.get_mut(topic).expect("presence checked above");
        st.info_base.insert(from.id.as_u128(), value);
        if self.config.mode == UpdateMode::Immediate {
            self.push_subtree(ctx, topic);
        }
    }

    /// The root published a new global aggregate.
    ///
    /// `root` scopes `version`: results from a root we have not heard
    /// before (a failover successor, or the old root returning) are always
    /// accepted — their version counter is unrelated to the previous
    /// root's, so comparing across roots would wedge the topic on whichever
    /// root happened to have published more rounds.
    ///
    /// `now` feeds the staleness window: accepted results are proof the
    /// publishing root is alive, and their cadence calibrates how much
    /// silence [`Aggregator::on_tick`] tolerates before expiring the cache.
    pub fn on_result(
        &mut self,
        topic: GroupId,
        root: u128,
        version: u64,
        value: AggValue,
        now: SimTime,
    ) {
        if self.topics.get(topic).is_none() {
            return;
        }
        if self.config.robustness.check(&value).is_err() {
            // A poisoned global: keep the last-good cached result.
            self.rejected += 1;
            return;
        }
        let st = self.topics.get_mut(topic).expect("presence checked above");
        match st.global {
            Some((r, v, _)) if r == root && v >= version => {}
            _ => {
                st.global = Some((root, version, value));
                Self::record_result(&self.config, st, now);
            }
        }
    }

    /// Records an accepted global result in the topic's arrival window.
    fn record_result(config: &AggregationConfig, st: &mut TopicState, now: SimTime) {
        if config.staleness.is_none() {
            return;
        }
        let estimate = match config.mode {
            UpdateMode::Periodic(interval) => interval,
            UpdateMode::Immediate => FIRST_INTERVAL,
        };
        st.results
            .get_or_insert_with(|| Box::new(ArrivalWindow::new(estimate)))
            .record(now);
    }

    /// A child left the tree: forget its contribution.
    pub fn on_child_removed(&mut self, topic: GroupId, child: NodeHandle) {
        if let Some(st) = self.topics.get_mut(topic) {
            st.info_base.remove(&child.id.as_u128());
        }
    }

    fn push_subtree<M: AggCarrier>(
        &mut self,
        ctx: &mut ScribeCtx<'_, '_, '_, '_, M>,
        topic: GroupId,
    ) {
        let me = ctx.self_handle();
        // Prune info-base entries from nodes that are no longer children
        // (tree churn) so stale contributions do not linger.
        let Some(st) = self.topics.get_mut(topic) else {
            return;
        };
        st.info_base
            .retain(|&id, _| ctx.is_child(topic, Id::from_u128(id)));
        let subtree = match &self.config.robustness {
            Robustness::TrustAll => st.info_base.values().fold(st.local, |acc, v| acc.merge(v)),
            Robustness::Defensive => {
                // Winsorized trimmed-mean combine: clamp the extreme
                // contributions (local value included) to the crowd.
                let mut contribs = Vec::with_capacity(1 + st.info_base.len());
                contribs.push(st.local);
                contribs.extend(st.info_base.values().copied());
                winsorized_combine(&contribs)
            }
        };
        if ctx.is_root(topic) {
            // The root's subtree is the global value: publish down. In
            // periodic mode the root re-publishes every round even when
            // unchanged — the downward traffic doubles as tree liveness
            // (a dead child bounces the dissemination, detaching it).
            // Defensive roots additionally bound how far each publication
            // may move the mean versus the last published (epoch-stamped
            // by `version`) value, so surviving poison crawls, not jumps.
            let publish = self
                .config
                .robustness
                .bound_step(st.last_published, subtree);
            if self.config.mode == UpdateMode::Immediate
                && st
                    .last_published
                    .map(|p| p.approx_eq(&publish))
                    .unwrap_or(false)
            {
                return;
            }
            st.version += 1;
            st.last_published = Some(publish);
            st.global = Some((me.id.as_u128(), st.version, publish));
            // The root's own publication is proof of its own liveness.
            Self::record_result(&self.config, st, ctx.now());
            let msg = AggMsg::Result {
                topic,
                root: me.id.as_u128(),
                version: st.version,
                value: publish,
            };
            ctx.multicast(topic, M::from(msg));
        } else if let Some(parent) = ctx.parent(topic) {
            if self.config.mode == UpdateMode::Immediate
                && st
                    .last_pushed
                    .map(|p| p.approx_eq(&subtree))
                    .unwrap_or(false)
            {
                return;
            }
            st.last_pushed = Some(subtree);
            debug_assert_ne!(parent.id, me.id);
            let msg = AggMsg::Update {
                topic,
                value: subtree,
            };
            ctx.send_client_after(parent, M::from(msg), self.config.processing_delay);
        }
        // No parent and not root: still joining; the next tick retries.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPIC: u128 = 42;

    fn topic() -> GroupId {
        GroupId::from_u128(TOPIC)
    }

    fn periodic(secs: u64) -> Aggregator {
        let mut a = Aggregator::new(AggregationConfig {
            mode: UpdateMode::Periodic(SimDuration::from_secs(secs)),
            ..AggregationConfig::default()
        });
        a.track(topic());
        a
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn silent_root_expires_cached_global() {
        let mut a = periodic(10);
        for (v, s) in [(1, 0), (2, 10), (3, 20)] {
            a.on_result(topic(), 5, v, AggValue::of(v as f64), t(s));
        }
        // One missed round is tolerated (pause grace = interval).
        a.expire_stale(t(35));
        assert!(a.global(topic()).is_some());
        // Sustained silence on a 10 s cadence: the ghost value goes.
        a.expire_stale(t(70));
        assert!(a.global(topic()).is_none());
    }

    #[test]
    fn single_result_uses_interval_estimate() {
        let mut a = periodic(10);
        a.on_result(topic(), 5, 1, AggValue::of(1.0), t(0));
        a.expire_stale(t(15));
        assert!(a.global(topic()).is_some(), "within estimate + pause");
        a.expire_stale(t(60));
        assert!(a.global(topic()).is_none(), "way past any plausible round");
    }

    #[test]
    fn disabled_staleness_keeps_ghost_values() {
        let mut a = Aggregator::new(AggregationConfig {
            mode: UpdateMode::Periodic(SimDuration::from_secs(10)),
            staleness: None,
            ..AggregationConfig::default()
        });
        a.track(topic());
        a.on_result(topic(), 5, 1, AggValue::of(1.0), t(0));
        a.expire_stale(t(100_000));
        assert!(a.global(topic()).is_some());
    }

    #[test]
    fn defensive_on_result_keeps_last_good_under_poison() {
        let mut a = Aggregator::new(AggregationConfig {
            mode: UpdateMode::Periodic(SimDuration::from_secs(10)),
            robustness: Robustness::Defensive,
            ..AggregationConfig::default()
        });
        a.track(topic());
        a.on_result(topic(), 5, 1, AggValue::of(100.0), t(0));

        // A NaN-poisoned publication is rejected; the cached global stays.
        let mut nan = AggValue::of(100.0);
        nan.sum = f64::NAN;
        a.on_result(topic(), 5, 2, nan, t(10));
        assert_eq!(a.global(topic()).unwrap().sum, 100.0);
        assert_eq!(a.rejected_contributions(), 1);

        // A later honest publication is accepted normally.
        a.on_result(topic(), 5, 3, AggValue::of(110.0), t(20));
        assert_eq!(a.global(topic()).unwrap().sum, 110.0);
        assert_eq!(a.rejected_contributions(), 1);
    }

    #[test]
    fn trust_all_accepts_poisoned_results() {
        let mut a = periodic(10);
        let mut nan = AggValue::of(100.0);
        nan.sum = f64::NAN;
        a.on_result(topic(), 5, 1, nan, t(0));
        assert!(a.global(topic()).unwrap().sum.is_nan());
        assert_eq!(a.rejected_contributions(), 0);
    }

    #[test]
    fn new_root_resets_the_cadence_window() {
        let mut a = periodic(10);
        for (v, s) in [(1, 0), (2, 10)] {
            a.on_result(topic(), 5, v, AggValue::of(v as f64), t(s));
        }
        // Failover successor publishes with an unrelated version counter;
        // its arrivals keep feeding the same per-topic window.
        a.on_result(topic(), 9, 1, AggValue::of(7.0), t(30));
        a.expire_stale(t(45));
        assert!(a.global(topic()).is_some());
    }
}

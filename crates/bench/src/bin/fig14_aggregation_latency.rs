//! Figure 14 — latency of aggregating a message from the leaves to the
//! root versus the number of servers (16 → 1024).
//!
//! Reproduces the paper's setup: a flat ~10 ms LAN hop (their JVM
//! testbed), 1–2 ms per-node processing, and two series — the raw
//! leaves-to-root latency, and the same plus one updating interval (their
//! red line sits ~30 000 ms above the blue one). Latency grows linearly
//! while the server count grows exponentially, because only the tree
//! height (⌈log₁₆ N⌉-ish) adds hops.
//!
//! The wait for the root's aggregate is bounded in simulated time
//! ([`WAIT`] after the leaves publish), not in events: immediate-mode
//! aggregation costs a number of events that grows faster than the
//! servers (≈ 585 000 at 1 024 servers). Checks at each size that the
//! root aggregates at all, that the raw latency is at most height ×
//! (10 ms hop + 1.5 ms processing), and that the tree is at most
//! ⌈log₁₆ N⌉ + 1 tall.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig14_aggregation_latency`

use vbundle_aggregation::{AggClient, AggregationConfig, Aggregator, UpdateMode};
use vbundle_bench::scenarios::fabric;
use vbundle_bench::{run_figure, CliSpec, Figure};
use vbundle_pastry::{overlay, IdAssignment, PastryConfig};
use vbundle_scribe::{group_id, Scribe};
use vbundle_sim::{ActorId, Latency, SimDuration, SimTime};

const CLI: CliSpec = CliSpec::figure(
    "fig14_aggregation_latency",
    "Figure 14: leaves-to-root aggregation latency vs number of servers",
);

const UPDATE_INTERVAL_MS: u64 = 30_000; // the paper's red-line offset
/// One LAN hop plus one node's processing: what each tree level adds.
const LEVEL_MS: f64 = 10.0 + 1.5;
/// How long after the leaves publish the root's aggregate may take.
const WAIT: SimDuration = SimDuration::from_secs(10);

/// Measures one size, claims its events and checks its latency and tree
/// height; returns its CSV row.
fn measure(fig: &mut Figure, servers: usize, seed: u64) -> String {
    let topo = fabric(1, servers.div_ceil(16) as u32, 16);
    let config = AggregationConfig {
        mode: UpdateMode::Immediate,
        processing_delay: SimDuration::from_micros(1500),
        ..AggregationConfig::default()
    };
    let (mut net, handles) = overlay::launch(
        &topo,
        IdAssignment::Random { seed },
        PastryConfig::default(),
        seed,
        Latency::Constant(SimDuration::from_millis(10)),
        |_, _| Scribe::new(AggClient::new(Aggregator::new(config.clone()))),
    );
    let t = group_id("BW_Demand");
    for h in &handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| c.agg.subscribe(sctx, t));
            });
        });
    }
    net.run_until(SimTime::from_secs(30));

    // All leaves publish a fresh value at t0; measure when the root's
    // global aggregate covers every contribution.
    let t0 = net.now();
    for h in &handles {
        net.call(h.actor, |node, ctx| {
            node.app_call(ctx, |scribe, actx| {
                scribe.client_call(actx, |c, sctx| c.agg.set_local(sctx, t, 1.0));
            });
        });
    }
    let root = handles
        .iter()
        .position(|h| net.actor(h.actor).app().group(t).is_some_and(|st| st.root))
        .expect("root exists");
    // Leaves-to-root latency; NaN if the root never saw every leaf.
    let mut raw = f64::NAN;
    let events_before = net.events_processed();
    while net.step_before(t0 + WAIT) {
        let g = net
            .actor(ActorId::new(root as u32))
            .app()
            .client()
            .agg
            .subtree(t);
        if g.count as usize == servers && (g.sum - servers as f64).abs() < 1e-6 {
            raw = (net.now() - t0).as_millis_f64();
            break;
        }
    }
    // Tree height: longest parent chain.
    let mut height = 0usize;
    for h in &handles {
        let mut cur = *h;
        let mut depth = 0;
        while let Some(p) = net.actor(cur.actor).app().group(t).and_then(|s| s.parent) {
            depth += 1;
            cur = p;
            if depth > 64 {
                break;
            }
        }
        height = height.max(depth);
    }
    let p = format!("servers_{servers}");
    fig.claim(
        format!("{p}.events"),
        net.events_processed() - events_before,
    );
    let detail = format!("within {} s of the publish", WAIT.as_secs_f64());
    fig.check(format!("{p}.aggregated"), !raw.is_nan(), detail);
    let detail = format!("{raw:.2} <= height {height} × {LEVEL_MS} ms");
    let holds = raw <= height as f64 * LEVEL_MS + 1e-9;
    fig.check(format!("{p}.latency_le_height_x_level"), holds, detail);
    // ⌈log₁₆ n⌉ + 1: one tree level per digit a Pastry route resolves, plus one.
    let levels = (servers - 1).ilog(16) as usize + 2;
    let detail = format!("{height} <= ⌈log16 n⌉ + 1 = {levels}");
    fig.check(
        format!("{p}.height_le_log16_plus_1"),
        height <= levels,
        detail,
    );
    let with_interval = raw + UPDATE_INTERVAL_MS as f64;
    format!("{servers},{raw:.2},{with_interval:.2},{height}")
}

fn main() {
    run_figure(&CLI, |_| figure());
}

fn figure() -> Figure {
    let mut fig = Figure::default();
    let rows = [16, 32, 64, 128, 256, 512, 1024]
        .map(|n| measure(&mut fig, n, 14))
        .to_vec();
    fig.table(
        "fig14_aggregation_latency.csv",
        "servers,raw_ms,with_interval_ms,tree_height",
        rows,
    );
    fig
}

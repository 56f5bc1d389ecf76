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
//! servers (≈ 585 000 at 1 024 servers). Exits 1 when a size yields no
//! latency, when the raw latency exceeds height × (10 ms hop + 1.5 ms
//! processing), or when the tree is taller than ⌈log₁₆ N⌉ + 1.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig14_aggregation_latency`

use std::sync::Arc;

use vbundle_aggregation::{AggClient, AggregationConfig, Aggregator, UpdateMode};
use vbundle_bench::write_csv;
use vbundle_dcn::Topology;
use vbundle_pastry::{overlay, IdAssignment, PastryConfig};
use vbundle_scribe::{group_id, Scribe};
use vbundle_sim::{ActorId, Latency, SimDuration, SimTime};

const UPDATE_INTERVAL_MS: u64 = 30_000; // the paper's red-line offset
/// One LAN hop plus one node's processing: what each tree level adds.
const LEVEL_MS: f64 = 10.0 + 1.5;
/// How long after the leaves publish the root's aggregate may take.
const WAIT: SimDuration = SimDuration::from_secs(10);

/// One size's outcome.
struct Point {
    /// Leaves-to-root latency; NaN if the root never saw every leaf.
    raw_ms: f64,
    /// Longest parent chain of the tree.
    height: usize,
    /// Events processed between the publish and the full aggregate.
    events: u64,
}

/// ⌈log₁₆ n⌉: the digits a Pastry route resolves, one tree level each.
fn log16_ceil(n: usize) -> usize {
    let mut levels = 0;
    while 16usize.pow(levels as u32) < n {
        levels += 1;
    }
    levels
}

fn measure(servers: usize, seed: u64) -> Point {
    let racks = servers.div_ceil(16) as u32;
    let topo = Arc::new(
        Topology::builder()
            .pods(1)
            .racks_per_pod(racks)
            .servers_per_rack(16)
            .build(),
    );
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
    let mut latency_ms = f64::NAN;
    let events_before = net.events_processed();
    while net.step_before(t0 + WAIT) {
        let g = net
            .actor(ActorId::new(root as u32))
            .app()
            .client()
            .agg
            .subtree(t);
        if g.count as usize == servers && (g.sum - servers as f64).abs() < 1e-6 {
            latency_ms = (net.now() - t0).as_millis_f64();
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
    Point {
        raw_ms: latency_ms,
        height,
        events: net.events_processed() - events_before,
    }
}

fn main() {
    println!("# Figure 14: leaves-to-root aggregation latency vs number of servers");
    println!(
        "{:>8} {:>12} {:>20} {:>8} {:>10}",
        "servers", "raw (ms)", "with interval (ms)", "height", "events"
    );
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    for &n in &[16usize, 32, 64, 128, 256, 512, 1024] {
        let Point {
            raw_ms: raw,
            height,
            events,
        } = measure(n, 14);
        let with_interval = raw + UPDATE_INTERVAL_MS as f64;
        println!(
            "{:>8} {:>12.1} {:>20.1} {:>8} {:>10}",
            n, raw, with_interval, height, events
        );
        rows.push(format!("{n},{raw:.2},{with_interval:.2},{height}"));
        if raw.is_nan() {
            broken.push(format!(
                "{n} servers: no aggregate within {} s",
                WAIT.as_secs_f64()
            ));
        } else if raw > height as f64 * LEVEL_MS + 1e-9 {
            broken.push(format!(
                "{n} servers: {raw:.2} ms exceeds height {height} × {LEVEL_MS} ms"
            ));
        }
        if height > log16_ceil(n) + 1 {
            broken.push(format!(
                "{n} servers: height {height} exceeds ⌈log16 n⌉ + 1 = {}",
                log16_ceil(n) + 1
            ));
        }
    }
    write_csv(
        "fig14_aggregation_latency.csv",
        "servers,raw_ms,with_interval_ms,tree_height",
        &rows,
    );
    println!("\n(latency grows linearly as servers grow exponentially: only the");
    println!(" tree height adds 10 ms hops + 1.5 ms per-node processing)");
    if !broken.is_empty() {
        for line in &broken {
            eprintln!("{line}");
        }
        std::process::exit(1);
    }
}

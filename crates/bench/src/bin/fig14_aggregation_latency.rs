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
//! Run: `cargo run --release -p vbundle-bench --bin fig14_aggregation_latency`

use std::sync::Arc;

use vbundle_aggregation::{AggClient, AggregationConfig, Aggregator, UpdateMode};
use vbundle_bench::write_csv;
use vbundle_dcn::Topology;
use vbundle_pastry::{overlay, IdAssignment, PastryConfig};
use vbundle_scribe::{group_id, Scribe};
use vbundle_sim::{ActorId, Latency, SimDuration, SimTime};

const UPDATE_INTERVAL_MS: u64 = 30_000; // the paper's red-line offset

fn measure(servers: usize, seed: u64) -> (f64, usize) {
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
    for _ in 0..400_000 {
        if !net.step() {
            break;
        }
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
    (latency_ms, height)
}

fn main() {
    println!("# Figure 14: leaves-to-root aggregation latency vs number of servers");
    println!(
        "{:>8} {:>12} {:>20} {:>8}",
        "servers", "raw (ms)", "with interval (ms)", "height"
    );
    let mut rows = Vec::new();
    for &n in &[16usize, 32, 64, 128, 256, 512, 1024] {
        let (raw, height) = measure(n, 14);
        let with_interval = raw + UPDATE_INTERVAL_MS as f64;
        println!(
            "{:>8} {:>12.1} {:>20.1} {:>8}",
            n, raw, with_interval, height
        );
        rows.push(format!("{n},{raw:.2},{with_interval:.2},{height}"));
    }
    write_csv(
        "fig14_aggregation_latency.csv",
        "servers,raw_ms,with_interval_ms,tree_height",
        &rows,
    );
    println!("\n(latency grows linearly as servers grow exponentially: only the");
    println!(" tree height adds 10 ms hops + 1.5 ms per-node processing)");
}

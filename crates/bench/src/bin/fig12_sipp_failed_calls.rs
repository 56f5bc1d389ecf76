//! Figure 12 — number of failed SIPp calls before, during and after
//! v-Bundle's instance rebalancing (15 hosts, ~225 VMs).
//!
//! The SIPp VM shares its host with saturating Iperf VMs; failed calls
//! accumulate while the NIC is contended, v-Bundle moves Iperf VMs off
//! the SIPp host around the 300 s mark, and afterwards the failure curve
//! flattens. Checks that no call fails after the second the SIPp host
//! first sheds a VM.
//!
//! Run: `cargo run --release -p vbundle-bench --bin fig12_sipp_failed_calls`

use vbundle_bench::scenarios::SippTestbed;
use vbundle_bench::{run_figure, CliSpec, Figure};

const CLI: CliSpec = CliSpec::figure(
    "fig12_sipp_failed_calls",
    "Figure 12: SIPp failed calls over time (15 hosts, 225 VMs)",
);

fn main() {
    run_figure(&CLI, |_| figure());
}

fn figure() -> Figure {
    let mut testbed = SippTestbed::new(14, 12); // 15×14 background + SIPp + 6 Iperf
    let mut fig = Figure::default();
    fig.claim("vms", testbed.cluster.num_vms());
    let mut rows = Vec::new();
    let mut last_failed = 0;
    let mut last_failure_s = 0;
    for second in 1..=500u64 {
        let (failed, granted, demand) = testbed.tick_1s();
        if failed > last_failed {
            last_failure_s = second;
        }
        rows.push(format!(
            "{second},{failed},{:.2},{:.2},{}",
            granted.as_mbps(),
            demand.as_mbps(),
            failed - last_failed
        ));
        last_failed = failed;
    }
    fig.table(
        "fig12_failed_calls.csv",
        "time_s,cumulative_failed,granted_mbps,demand_mbps,failed_in_second",
        rows,
    );
    let shed = testbed.claim_relief(&mut fig);
    fig.claim("last_failure_s", last_failure_s);
    fig.claim("failed_calls", last_failed);
    fig.claim("migrations", testbed.cluster.total_migrations());
    fig.claim("placed_calls", testbed.sipp.placed());
    let holds = shed.is_some_and(|s| last_failure_s <= s);
    let detail = format!("last failure at {last_failure_s} s <= shed second");
    fig.check("no_failure_after_shed", holds, detail);
    fig
}

#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests — in the same order a
# hosted pipeline would run them. Fails fast on the cheapest check.
set -euo pipefail
cd "$(dirname "$0")"

# vbundle-core stays split: no source file may grow back into a
# controller.rs. Cheapest check, so it runs first.
echo "==> crates/core/src file size (<= 800 lines each)"
oversize=$(find crates/core/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 800')
if [ -n "$oversize" ]; then
    echo "$oversize" >&2
    echo "source file over 800 lines: split it by protocol (see DESIGN.md, vbundle-core)" >&2
    exit 1
fi

# The long docs grow only on purpose: each has a line budget, set at its
# length when the budget was last raised. Cut the file (ROADMAP item 1 (e),
# the docs diet) or raise its budget here, deliberately.
echo "==> EXPERIMENTS.md / DESIGN.md line budgets"
for budget in EXPERIMENTS.md:1762 DESIGN.md:1496; do
    doc=${budget%%:*} max=${budget##*:}
    lines=$(wc -l < "$doc")
    if [ "$lines" -gt "$max" ]; then
        echo "$doc has $lines lines, over its budget of $max" >&2
        exit 1
    fi
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo bench --no-run (Criterion benches must keep compiling)"
cargo bench --workspace --no-run --quiet

echo "==> cargo test"
cargo test --workspace

# Each sweep binary's --smoke mode replays a fixed seeded subset and
# byte-compares its report against results/<name>_smoke.golden. Any
# drift prints a unified diff of the blessed golden vs the fresh run.
for sweep in chaos_sweep poison_sweep bundle_market scale_sweep survivability_sweep market_sweep; do
    echo "==> ${sweep} smoke (deterministic golden)"
    cargo run --release -q -p vbundle-bench --bin "${sweep}" -- --smoke
done

# The same smoke with the flight recorder and profiler on: obs observes,
# never steers, so it must pass the unmodified golden. It is the one step
# that records into (and renders) a live recorder.
echo "==> chaos_sweep --smoke --obs (same golden, obs on)"
cargo run --release -q -p vbundle-bench --bin chaos_sweep -- --smoke --obs

# The full chaos sweep (a few seconds) carries the detection-quality guard
# every message-diet step has to pass: per-scenario repair ceilings, no
# open invariant, no false eviction under the adaptive detector. It
# asserts them in-process and exits 1 otherwise; its CSVs are tracked, so
# a moved number also shows up in `git status`.
echo "==> chaos_sweep full (detection-quality guard)"
cargo run --release -q -p vbundle-bench --bin chaos_sweep > /dev/null

# The crash-only failover variant has its own golden: backup sites must
# re-materialize dead domains' VMs without a single Restart event.
echo "==> survivability_sweep --failover smoke (deterministic golden)"
cargo run --release -q -p vbundle-bench --bin survivability_sweep -- --smoke --failover

# The paper's figures: each fig*/ablation_* binary runs once (seconds in
# all) and gates its figure's claim through the one figure driver: it
# exits 1 when a check fails, so a broken claim fails CI as a panic does.
# Each runs in its own scratch directory, so the tracked results/fig*.csv
# stay as they are.
root=$(pwd)
for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/ablation_*.rs; do
    bin=$(basename "$src" .rs)
    echo "==> ${bin} (every check of its claim holds)"
    scratch=$(mktemp -d)
    if ! (cd "$scratch" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
            -p vbundle-bench --bin "$bin" > run.log 2>&1); then
        cat "$scratch/run.log" >&2
        rm -rf "$scratch"
        exit 1
    fi
    rm -rf "$scratch"
done

# The failure-recovery walkthrough doubles as a smoke: pinned seed, hard
# asserts inside, and a known final line that must survive refactors.
echo "==> failure_recovery example smoke (pinned seed)"
cargo run --release -q --example failure_recovery \
    | grep -q "no central manager, nothing to restart: the overlay repaired itself."

# Likewise the spot-market walkthrough: a priced cross-tenant lease must
# clear, bill both sides and reconcile, all under a pinned seed.
echo "==> bandwidth_trading example smoke (pinned seed)"
cargo run --release -q --example bandwidth_trading \
    | grep -q "priced spot lease settled: buyer paid, seller earned, books reconcile"

# The README's entry point walks the boot protocol: every boot must be
# placed, and the bundle must not spread over more racks than it does.
echo "==> quickstart example smoke (pinned seed)"
cargo run --release -q --example quickstart \
    | grep -q "6 of 6 boots placed, the bundle in 1 rack(s)"

# The full-stack benchmark is a standalone package (own workspace and
# lock file) that calls this workspace's public API from outside; an API
# change under crates/ that breaks it must fail here, not in the
# acceptance run. --quick exits 1 on any failed self-check or digest
# mismatch between counted, timed and traced reps.
echo "==> benchmark package tests"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark run --quick (self-checks + outcome digests)"
benchmark/run.sh run --quick > /dev/null

# The sampling profiler and heap census (C + Python, no tests of their
# own) rot silently unless something builds and runs them: one quick
# run through each entry point, report included. Skipped where there
# is no C compiler.
if command -v cc > /dev/null; then
    echo "==> tools/sigprof smoke (frame-pointer build, profiled --quick run, report)"
    SIGPROF_ARGS="--quick --seconds 1" tools/sigprof/run.sh steady_agg > /dev/null
    echo "==> tools/sigprof --heap smoke (heap census of a --quick run, report)"
    SIGPROF_ARGS="--quick --seconds 1" tools/sigprof/run.sh --heap steady_agg > /dev/null
    # Long enough for a few dozen samples: the report exits 1 on none.
    echo "==> tools/sigprof --bin smoke (a workspace binary instead of a benchmark workload)"
    tools/sigprof/run.sh --bin vbundle_sim -- --servers=500 --minutes=90 > /dev/null
fi

echo "==> golden files unchanged"
if ! git diff --quiet -- results/*.golden BENCH_surv.json BENCH_market.json; then
    git --no-pager diff -- results/*.golden BENCH_surv.json BENCH_market.json
    echo "golden drift: inspect the diff, then regen with" \
         "'cargo run --release -p vbundle-bench --bin <sweep> -- --smoke --bless'" >&2
    exit 1
fi

echo "CI green."

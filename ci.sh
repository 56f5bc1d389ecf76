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
for budget in EXPERIMENTS.md:1757 DESIGN.md:1494; do
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

# Every fig*/ablation_*/sweep binary runs through one driver (`run_figure`,
# crates/bench/src/lib.rs), and a failed check prints `check <name>
# FAILED` and exits 1. `--smoke` renders a binary's deterministic text
# twice and byte-compares it with its golden under results/ (regenerate
# with `--smoke --bless` after an intended change, reason in CHANGES.md).
bench() { bin=$1; shift; cargo run --release -q -p vbundle-bench --bin "$bin" -- "$@"; }
bins=$(ls crates/bench/src/bin | sed -n 's/\.rs$//p' | grep -vx vbundle_sim)
for run in $bins "survivability_sweep --failover"; do
    echo "==> ${run} --smoke (deterministic, equal to its golden)"
    bench $run --smoke
done

# The default mode of each, in the repo root: it rewrites its tracked
# CSVs (and BENCH_{surv,market}.json), which must come out byte for byte
# as committed. scale_sweep measures wall clock and sleeps, so it is left
# out, and so is its CSV.
for run in $bins "survivability_sweep --failover"; do
    [ "$run" = scale_sweep ] && continue
    echo "==> ${run} (every check holds)"
    bench $run
done
echo "==> a fresh run rewrites every tracked CSV, golden and BENCH json"
outputs=('results/*.csv' 'results/*.golden' BENCH_surv.json BENCH_market.json)
if ! git diff --exit-code -- "${outputs[@]}" ':!results/scale_sweep.csv' ||
    [ -n "$(git ls-files --others --exclude-standard -- "${outputs[@]}")" ]; then
    git status --short -- "${outputs[@]}" >&2
    echo "a fresh run moved a tracked output: inspect it, regenerate on purpose" >&2
    exit 1
fi

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

echo "CI green."

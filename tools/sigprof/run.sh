#!/bin/sh
# Profiles one benchmark workload: frame-pointer build into its own target
# directory, a run under the CPU sampler (or, with --heap, the heap
# census), then the report.
#   tools/sigprof/run.sh [--heap] <workload> [seed]
# SIGPROF_ARGS overrides the run length (default: --seconds 10).
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/../.."
lib=samp mode=
if [ "${1:-}" = --heap ]; then
    lib=heap mode=--heap
    shift
fi
workload="${1:?usage: tools/sigprof/run.sh [--heap] <workload> [seed]}"
seed="${2:-7}"
out="${CARGO_TARGET_DIR:-target}/sigprof"
mkdir -p "$out"
cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$out/$lib.so" "$here/$lib.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# shellcheck disable=SC2086
SIGPROF_OUT="$out/$workload.raw" LD_PRELOAD="$out/$lib.so" \
    "$out/release/benchmark" --workload "$workload" --seed "$seed" \
    ${SIGPROF_ARGS:---seconds 10} --trace 0 > /dev/null 2> "$out/$workload.log" ||
    { cat "$out/$workload.log" >&2; exit 1; }
python3 "$here/report.py" $mode "$out/$workload.raw"

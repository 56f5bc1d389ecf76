#!/bin/sh
# Profiles one benchmark workload, or any binary of the workspace:
# frame-pointer build into its own target directory, a run under the CPU
# sampler (or, with --heap, the heap census), then the report.
#   tools/sigprof/run.sh [--heap] <workload> [seed]
#   tools/sigprof/run.sh [--heap] --bin <workspace-bin> -- <args...>
# SIGPROF_ARGS overrides a workload's run length (default: --seconds 10).
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/../.."
usage="usage: tools/sigprof/run.sh [--heap] <workload> [seed] | --bin <workspace-bin> -- <args...>"
lib=samp mode=
if [ "${1:-}" = --heap ]; then
    lib=heap mode=--heap
    shift
fi
out="${CARGO_TARGET_DIR:-target}/sigprof"
mkdir -p "$out"
cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$out/$lib.so" "$here/$lib.c"
build() {
    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
        cargo build --release --offline --quiet "$@"
}
if [ "${1:-}" = --bin ]; then
    name="${2:?$usage}"
    [ "${3:-}" = -- ] || { echo "$usage" >&2; exit 2; }
    shift 3
    build --workspace --bin "$name"
    set -- "$out/release/$name" "$@"
else
    name="${1:?$usage}"
    build --manifest-path benchmark/Cargo.toml
    # shellcheck disable=SC2086
    set -- "$out/release/benchmark" --workload "$name" --seed "${2:-7}" \
        ${SIGPROF_ARGS:---seconds 10} --trace 0
fi
SIGPROF_OUT="$out/$name.raw" LD_PRELOAD="$out/$lib.so" "$@" > /dev/null 2> "$out/$name.log" ||
    { cat "$out/$name.log" >&2; exit 1; }
python3 "$here/report.py" $mode "$out/$name.raw"

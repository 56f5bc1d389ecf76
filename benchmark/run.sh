#!/bin/sh
# Builds the benchmark offline and runs it from the repository root.
# No arguments: all five workloads (`run`). Anything else is passed on,
# e.g. `benchmark/run.sh run --seed 7`, `benchmark/run.sh run --quick`,
# `benchmark/run.sh compare A.json B.json`.
set -eu
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    set -- run
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"

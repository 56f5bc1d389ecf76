#!/bin/sh
# A/B timing of two revisions on one benchmark workload, one workload per
# process as benchmark/README.md gives it. Each revision is checked out in
# its own git worktree and built into its own fresh target directory:
# cargo judges freshness by mtime, so a target directory shared across
# checkouts can keep running a stale binary.
#   tools/abpairs.sh <rev-a> <rev-b> <workload> <pairs> [seconds] [first-seed]
# rev-a is the baseline (side "parent"), rev-b the candidate ("change").
# Pair i runs seed first-seed+i (default 3001): a timed --trace 0 run of
# `seconds` (default 3) per side, the side that goes first alternating,
# then one --trace 1 run per side for the simulated counts. The CSV
# (results/boot_walk_ab.csv's columns) goes to stdout; progress and the
# median run_s of each side go to stderr.
set -eu
usage="usage: tools/abpairs.sh <rev-a> <rev-b> <workload> <pairs> [seconds] [first-seed]"
[ $# -ge 4 ] && [ $# -le 6 ] || { echo "$usage" >&2; exit 2; }
workload=$3 pairs=$4 seconds=${5:-3} seed0=${6:-3001}
repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev_parent="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
rev_change="$(git -C "$repo" rev-parse --verify "$2^{commit}")"
work="$(mktemp -d)"
cleanup() {
    for side in parent change; do
        if [ -d "$work/$side" ]; then
            git -C "$repo" worktree remove --force "$work/$side"
        fi
    done
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for side in parent change; do
    eval "rev=\$rev_$side"
    echo "building $side at $rev" >&2
    git -C "$repo" worktree add --quiet --detach "$work/$side" "$rev"
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
done

# run <side> <seed> <trace>: the benchmark's one JSON line.
run() {
    (cd "$work/$1" && "$work/$1-target/release/benchmark" --workload "$workload" \
        --seed "$2" --seconds "$seconds" --trace "$3" 2> /dev/null | tail -n 1)
}
# metric <name> <json>: a metric's value, empty when the line lacks it.
metric() {
    printf '%s\n' "$2" | sed -n "s/.*\"$1\":{\"unit\":\"[^\"]*\",\"value\":\([^}]*\)}.*/\1/p"
}
# count <name> <json>: a top-level integer field.
count() {
    printf '%s\n' "$2" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}
# row <seed> <trace> <first> <side>: one run, one CSV line.
row() {
    json="$(run "$4" "$1" "$2")"
    case $json in
        *'"correct":true'*) ;;
        *) echo "$4 failed or miscomputed at seed $1, --trace $2: $json" >&2; exit 1 ;;
    esac
    line="$workload,$1,$2,$3,$4,$(count attempted "$json"),$(count failed "$json")"
    for m in run_s setup_s heap_peak_mb wire_kb_per_server sim.events \
        core.allocs_per_event core.controller.boots_handled_per_boot \
        boot_p50_sim_ms boot_p99_sim_ms; do
        line="$line,$(metric "$m" "$json")"
    done
    echo "$line" >> "$work/ab.csv"
}

echo "workload,seed,trace,first,side,attempted,failed,run_s,setup_s,heap_peak_mb,wire_kb_per_server,sim.events,core.allocs_per_event,core.controller.boots_handled_per_boot,boot_p50_sim_ms,boot_p99_sim_ms" > "$work/ab.csv"
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 0 ]; then first=parent second=change; else first=change second=parent; fi
    echo "pair $((i + 1))/$pairs seed $seed ($first first)" >&2
    for trace in 0 1; do
        row "$seed" "$trace" "$first" "$first"
        row "$seed" "$trace" "$first" "$second"
    done
    i=$((i + 1))
done
cat "$work/ab.csv"

# Median run_s per side, and the pairs where the change ran faster.
for side in parent change; do
    awk -F, -v s="$side" '$3 == 0 && $5 == s { print $8 }' "$work/ab.csv" | sort -g |
        awk -v s="$side" '{ v[NR] = $1 } END { if (NR) printf "%s median run_s %s\n", s, (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2 }' >&2
done
awk -F, '$3 == 0 { t[$2, $5] = $8; seeds[$2] } END {
    for (s in seeds) { n++; if (t[s, "change"] < t[s, "parent"]) w++ }
    printf "change lower on %d of %d pairs\n", w, n }' "$work/ab.csv" >&2

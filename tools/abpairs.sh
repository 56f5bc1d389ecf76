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
# (results/boot_walk_ab.csv's columns) goes to stdout. Progress goes to
# stderr, then, for run_s, setup_s and heap_peak_mb, each side's
# q1/median/q3 over the --trace 0 runs and the verdict: the pairs where
# the change read lower and the gap between the medians against the
# parent's interquartile range, labelled "holds" only when the change won
# at least nine in ten pairs and the gap exceeds that range. Then each
# side's median core.allocs_per_event (--trace 1 runs) and every run whose
# counts (attempted, failed, wire_kb_per_server, sim.events) differ
# between the sides.
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

# quartiles <side> <column> <trace>: "q1 median q3" of one side's runs,
# linearly interpolated between the sorted values.
quartiles() {
    awk -F, -v s="$1" -v c="$2" -v t="$3" '$3 == t && $5 == s { print $c }' "$work/ab.csv" | sort -g |
        awk '{ v[NR] = $1 } END {
            if (!NR) exit
            for (k = 1; k <= 3; k++) {
                h = 1 + (NR - 1) * k / 4; i = int(h); j = (i < NR) ? i + 1 : NR
                printf "%s%.6g", (k > 1) ? " " : "", v[i] + (h - i) * (v[j] - v[i])
            }
            print "" }'
}
# verdict <column> <name>: each side's quartiles over the --trace 0 runs,
# then the pairs the change read lower (ties count for neither side) and
# the parent's median minus the change's against the parent's q3 - q1.
verdict() {
    parent_q="$(quartiles parent "$1" 0)" change_q="$(quartiles change "$1" 0)"
    echo "parent $2 q1/median/q3 $parent_q" >&2
    echo "change $2 q1/median/q3 $change_q" >&2
    awk -F, -v c="$1" -v m="$2" -v p="$parent_q" -v x="$change_q" '$3 == 0 { t[$2, $5] = $c; seeds[$2] } END {
        for (s in seeds) { n++; if (t[s, "change"] < t[s, "parent"]) w++ }
        split(p, P, " "); split(x, X, " ")
        gap = P[2] - X[2]; iqr = P[3] - P[1]
        printf "%s: change lower on %d of %d pairs, median gap %.6g vs parent IQR %.6g: %s\n", m, w, n, gap, iqr,
            (w >= 0.9 * n && gap > iqr) ? "holds" : "does not hold" }' "$work/ab.csv" >&2
}
verdict 8 run_s
verdict 9 setup_s
verdict 10 heap_peak_mb
for side in parent change; do
    echo "$side median core.allocs_per_event $(quartiles "$side" 13 1 | cut -d' ' -f2)" >&2
done
# The simulated counts must match run for run; a time or memory delta
# between runs that did different work is not a gain.
awk -F, 'NR > 1 {
    k = "seed " $2 " --trace " $3; x = $6 "," $7 "," $11 "," $12
    if (k in seen) { n++; if (seen[k] != x) { d++; printf "counts differ at %s: %s %s, %s %s\n", k, side[k], seen[k], $5, x } }
    else { seen[k] = x; side[k] = $5 } }
    END { printf "attempted,failed,wire_kb_per_server,sim.events equal on %d of %d paired runs\n", n - d, n }' "$work/ab.csv" >&2

#!/usr/bin/env bash
# ab.sh BASE HEAD WORKLOAD [PAIRS] [SEED]
#
# Alternating A/B comparison of two commits on one perfbench workload.
# Run it from anywhere inside the repository:
#
#   scripts/ab.sh HEAD~1 HEAD serve-cold 10 1
#
# It checks out BASE and HEAD as detached git worktrees, builds each
# side's perfbench through perfbench/run.sh (offline, its Go cache and
# binary in the side's own CARGO_TARGET_DIR) with a 1-second smoke run,
# then runs PAIRS (default 10) pairs of timed runs on seed SEED
# (default 1) in ABBA order: base-head, head-base, base-head, ... Each
# timed run takes perfbench's own run length, the same on both sides.
# Host
# drift moves consecutive runs together, so each pair's ratio cancels
# most of it, and alternating the order cancels a first-or-second bias.
#
# Every run's last stdout line (the JSON result) goes to
# $AB_DIR/ab-WORKLOAD-seedSEED.jsonl. A run that does not report
# "correct":true with "failed":0 fails the script. The report, from
# scripts/ab_stats.go, gives for each end-to-end metric of
# BENCHMARK.json each side's median and quartiles, HEAD's wins, and the
# median paired ratio HEAD/BASE with a bootstrap 95% interval.
#
# AB_DIR is the working directory (default .ab_build at the
# repository root). The worktrees are removed on exit; the build caches
# stay for the next comparison.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/ab.sh BASE HEAD WORKLOAD [PAIRS] [SEED]" >&2
    exit 2
fi
workload=$3
pairs=${4:-10}
seed=${5:-1}
case "$pairs$seed" in
*[!0-9]*)
    echo "ab: PAIRS and SEED must be non-negative integers" >&2
    exit 2
    ;;
esac
if [ "$pairs" -lt 1 ]; then
    echo "ab: PAIRS must be at least 1" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
work=${AB_DIR:-$root/.ab_build}
case "$work" in
/*) ;;
*) work="$PWD/$work" ;;
esac
declare -A sha
sha[base]=$(git -C "$root" rev-parse --verify "$1^{commit}")
sha[head]=$(git -C "$root" rev-parse --verify "$2^{commit}")
mkdir -p "$work"

cleanup() {
    for side in base head; do
        if [ -d "$work/$side-src" ]; then
            git -C "$root" worktree remove --force "$work/$side-src" || true
        fi
    done
    git -C "$root" worktree prune
}
trap cleanup EXIT

# run SIDE [ARGS...]: one perfbench run of the side's checkout with
# any extra perfbench arguments; prints the JSON result line, and fails
# unless the run was correct.
run() {
    local side=$1 line
    shift
    line=$(cd "$work/$side-src" &&
        CARGO_TARGET_DIR="$work/$side-build" bash perfbench/run.sh \
            --workload "$workload" --seed "$seed" "$@" 2> "$work/$side-stderr.log" | tail -n 1) || {
        echo "ab: $side run failed; see $work/$side-stderr.log" >&2
        return 1
    }
    case "$line" in
    '{"correct":true,'*'"failed":0,'*) printf '%s\n' "$line" ;;
    *)
        echo "ab: $side run incorrect: $line" >&2
        return 1
        ;;
    esac
}

for side in base head; do
    dir="$work/$side-src"
    if [ -d "$dir" ]; then
        git -C "$root" worktree remove --force "$dir"
    fi
    git -C "$root" worktree add --detach --quiet "$dir" "${sha[$side]}"
    echo "ab: building $side (${sha[$side]:0:12}) and running a 1 s smoke" >&2
    run "$side" --seconds 1 > /dev/null
done

log="$work/ab-$workload-seed$seed.jsonl"
: > "$log"
for ((k = 0; k < pairs; k++)); do
    if ((k % 2 == 0)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
        line=$(run "$side")
        printf '%s %s\n' "$side" "$line" >> "$log"
        echo "ab: pair $((k + 1))/$pairs $side done" >&2
    done
done

echo "ab: $workload seed=$seed pairs=$pairs base=${sha[base]:0:12} head=${sha[head]:0:12}"
GOCACHE="$work/gocache" GOTOOLCHAIN=local GOFLAGS= go run "$root/scripts/ab_stats.go" -spec "$root/BENCHMARK.json" < "$log"

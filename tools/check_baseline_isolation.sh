#!/usr/bin/env bash
# mtrap_sim --baseline isolation check: the extra Baseline run shares
# only the run lengths, the seed and the workload source with the main
# run, never its snapshot, trace or sampling outputs. For each source
# (single workload, time-shared mix, open-system arrivals):
#   1. --snapshot-out F is byte-identical with and without --baseline;
#   2. --snapshot-in F --baseline restores the main run and exits 0.
#
# Usage: check_baseline_isolation.sh path/to/mtrap_sim
set -u
sim=${1:?usage: $0 path/to/mtrap_sim}
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

fail=0
check() {
    local name=$1
    shift
    local run=("$sim" --scheme muontrap "$@")
    "${run[@]}" --snapshot-out "$dir/$name.snap" > /dev/null \
        || { echo "$name: plain run failed"; fail=1; return; }
    "${run[@]}" --snapshot-out "$dir/$name-base.snap" --baseline \
        > /dev/null \
        || { echo "$name: --baseline run failed"; fail=1; return; }
    cmp -s "$dir/$name.snap" "$dir/$name-base.snap" \
        || { echo "$name: --baseline changed --snapshot-out"; fail=1; }
    "${run[@]}" --snapshot-in "$dir/$name.snap" --baseline > /dev/null \
        || { echo "$name: --snapshot-in with --baseline failed"; fail=1; }
}

check single --workload mcf --instructions 4000 --warmup 1000
check mix --workload mcf --timeshare gcc --cores 2 --quantum 5000 \
    --instructions 4000 --warmup 1000
check server --arrivals 4 --arrival-mean 2000 --service-min 1000 \
    --service-max 2000

if [ "$fail" -ne 0 ]; then
    echo "check_baseline_isolation: FAILED"
    exit 1
fi
echo "check_baseline_isolation: OK"

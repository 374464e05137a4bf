#!/bin/sh
# The committed fleet spec must render the pinned CSV and Markdown
# goldens byte for byte: cold at --jobs 1, cold at --jobs 4 (worker
# count must not leak into the reduction), and warm from the result
# cache with --require-warm (a cache replay executes nothing and
# reproduces the same bytes).
#
# Usage: fleet_smoke.sh <wlcache_explore> <source-dir>
set -eu

EXPLORE="$1"
SPEC="$2/examples/sweeps/fleet_smoke.json"
GOLDEN="$2/tests/golden/fleet_smoke"
HEADER="=== fleet-smoke: 6 nodes x 4 points, 1 on the frontier ==="

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

check() {  # check <run name>
    for f in csv md; do
        cmp "$GOLDEN.$f" "$WORK/$1.$f" || {
            echo "FAIL: $1 run differs from the golden .$f"; exit 1; }
    done
    [ "$(head -n 1 "$WORK/$1.out")" = "$HEADER" ] || {
        echo "FAIL: $1 run summary header differs"; exit 1; }
}

for jobs in 1 4; do
    "$EXPLORE" --spec "$SPEC" --jobs "$jobs" --cache-dir "$WORK/cache$jobs" \
        --csv "$WORK/cold$jobs.csv" --report "$WORK/cold$jobs.md" \
        > "$WORK/cold$jobs.out"
    check "cold$jobs"
done

"$EXPLORE" --spec "$SPEC" --jobs 4 --cache-dir "$WORK/cache1" \
    --csv "$WORK/warm.csv" --report "$WORK/warm.md" --require-warm \
    > "$WORK/warm.out" || {
    echo "FAIL: warm replay missed the result cache"; exit 1; }
check warm

echo "PASS"

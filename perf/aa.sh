#!/usr/bin/env bash
# A/A check: two sets of five untraced runs of the same build, compared
# with the benchmark's own bounds. Exits non-zero when the benchmark
# disagrees with itself. About 17 minutes.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${OUT:-$here/out}"
bin="${CARGO_TARGET_DIR:-$here/target}/release/axml-perf"

seed=1
for set in a b; do
    rm -rf "$out/$set"
    for _ in 1 2 3 4 5; do
        SEED=$seed OUT="$out/$set" TRACED=0 "$here/run.sh" "$@" > /dev/null
        seed=$((seed + 1))
    done
    cat "$out/$set"/*.t0.json > "$out/$set.json"
done
"$bin" compare "$out/a.json" "$out/b.json"

#!/usr/bin/env bash
# Build the benchmark and run all four workloads once, untraced then
# traced; reports land in perf/out/ (or $OUT). Extra arguments go to
# every run: `perf/run.sh --small` is the <30 s smoke a CI step can call.
#
#   SEED=7 perf/run.sh            # one full set, ~4 min
#   perf/run.sh --small           # smoke
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${OUT:-$here/out}"
seed="${SEED:-1}"
traced="${TRACED:-1}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/axml-perf"

for workload in wire_small scan_large fixpoint_write mixed_subscribe; do
    for trace in 0 1; do
        [ "$trace" = 1 ] && [ "$traced" != 1 ] && continue
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" \
            --out "$out" "$@" | grep -v '^{'
    done
done

#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one workload:
#
#   benchmark/run.sh --workload warm_zoo --seed 1 --seconds 20 --trace 0
#
# Every metric is printed as `name unit value`; the last line of standard
# output is the result object BENCHMARK.json's contract asks for. Exits
# non-zero, without a result, when the build or a correctness check fails.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

# Fixed environment: two pool threads (the box has two cores), native
# kernels, no logging, no fault injection.
export PDDL_THREADS=2
unset PDDL_FORCE_SCALAR PDDL_LOG PDDL_FAULT_PLAN

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
bash "$here/cargo.sh" build --release --quiet >&2
exec "$CARGO_TARGET_DIR/release/pddl-benchmark" --out-dir "$here/out" "$@"

#!/usr/bin/env bash
# Offline compile-check harness.
#
# In containers without network access or a cargo registry cache, the
# workspace cannot resolve its crates.io dependencies, so `cargo check`
# fails before compiling anything. This script temporarily patches the
# external deps to the type-check stubs in stubs/ (see stubs/README.md),
# runs the requested cargo command, and restores Cargo.toml.
#
# Usage:
#   scripts/offline_check.sh check            # cargo check, lib/bin/example targets
#   scripts/offline_check.sh clippy           # cargo clippy -D warnings on the same
#   scripts/offline_check.sh doc              # cargo doc with -D warnings (CI doc gate)
#   scripts/offline_check.sh test-telemetry   # run pddl-telemetry's real tests
#   scripts/offline_check.sh test-faults      # run pddl-faults' real tests
#   scripts/offline_check.sh test-par         # run pddl-par's real tests (queue, pool)
#   scripts/offline_check.sh test-zoo         # run the zoo resolver tests (pddl-zoo + core's resolver tier)
#   scripts/offline_check.sh test-golden      # run the golden-trace fixture test
#   scripts/offline_check.sh test-bench       # run pddl-bench's tests (report schema)
#   scripts/offline_check.sh test-tensor      # run the GEMM equivalence/determinism suite
#   scripts/offline_check.sh test-simd        # tensor suite twice: native kernels + forced scalar
#   scripts/offline_check.sh test-trace       # trace unit tests + type-check the trace tier
#   scripts/offline_check.sh test-shard       # router unit tests + type-check the shard tier
#   scripts/offline_check.sh metrics-expo     # exposition + golden trace/metrics shape tests
#   scripts/offline_check.sh bench-serve      # run the inproc serving benchmark
#   scripts/offline_check.sh bench-shard      # run the in-proc sharded-fleet benchmark
#   scripts/offline_check.sh bench-tensor     # run the GEMM benchmark (BENCH_tensor.json)
#   scripts/offline_check.sh gate-unwrap      # no-unwrap grep gate on the wire parser
#   scripts/offline_check.sh gate-protocol-docs # every WIRE_OPS op documented in PROTOCOL.md
#   scripts/offline_check.sh <any cargo args> # e.g. "check -p predictddl --tests"
#
# test-telemetry / test-faults / test-par / test-golden / test-bench /
# test-tensor actually *run*: those paths use no external crate at runtime (pure std
# + the in-tree JSON parser). bench-serve runs `pddl-loadgen --transport
# inproc` — the mode that produces the committed BENCH_serve.json
# baseline (the tcp transport needs serde at runtime and stays in CI).
# Everything else is type-check only — the serde_json stub errors at
# runtime, so networked CI remains the place where the full wire-layer
# suites (soak, load, wire_fuzz, controller_tcp, ...) execute.
#
# Proptest-based test targets are excluded from the aggregate targets
# (the proptest stub is an empty crate).

set -euo pipefail
cd "$(dirname "$0")/.."

# The peer-facing wire parser must stay panic-free: any unwrap() outside
# its #[cfg(test)] module fails this gate (and the same gate in CI).
gate_unwrap() {
  local file=crates/cluster/src/protocol.rs
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$file" | grep -n 'unwrap()'; then
    echo "error: unwrap() in non-test code of $file — return WireError instead" >&2
    return 1
  fi
  echo "gate-unwrap: $file clean"
}

# Doc-coverage gate: every op named in the controller's WIRE_OPS registry
# must have a `### `op`` section in PROTOCOL.md, so the wire reference
# cannot silently fall behind the code.
gate_protocol_docs() {
  local src=crates/core/src/protocol.rs doc=PROTOCOL.md missing=0
  local ops
  ops=$(awk '/pub const WIRE_OPS/,/\];/' "$src" | grep -o '"[a-z_]*"' | tr -d '"')
  if [ -z "$ops" ]; then
    echo "error: could not extract WIRE_OPS from $src" >&2
    return 1
  fi
  for op in $ops; do
    if ! grep -q "^### \`$op\`" "$doc"; then
      echo "error: wire op '$op' has no '### \`$op\`' section in $doc" >&2
      missing=1
    fi
  done
  [ "$missing" -eq 0 ] || return 1
  echo "gate-protocol-docs: $doc covers $(echo "$ops" | wc -w) wire ops"
}

if [ "${1:-}" = "gate-unwrap" ]; then
  gate_unwrap
  exit 0
fi

if [ "${1:-}" = "gate-protocol-docs" ]; then
  gate_protocol_docs
  exit 0
fi

if grep -q '^\[patch.crates-io\]' Cargo.toml; then
  echo "Cargo.toml already contains a patch section; refusing" >&2
  exit 1
fi

cp Cargo.toml Cargo.toml.offline-check.bak
cleanup() {
  mv Cargo.toml.offline-check.bak Cargo.toml
  rm -f Cargo.lock
}
trap cleanup EXIT

cat >> Cargo.toml <<'EOF'

[patch.crates-io]
serde = { path = "stubs/serde" }
serde_json = { path = "stubs/serde_json" }
parking_lot = { path = "stubs/parking_lot" }
proptest = { path = "stubs/proptest" }
criterion = { path = "stubs/criterion" }
EOF

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/offline-check}"

# Integration/unit test targets that do not use proptest and therefore
# type-check against the stubs.
NON_PROPTEST_TESTS=(
  --test controller_tcp
  --test end_to_end
  --test reusability
  --test ernest_pipeline
  --test live_cluster
  --test dataset_extension
  --test wire_fuzz
  --test soak
  --test load
  --test golden_traces
  --test trace
  --test shard
  --test registry
  --test sched
  --test zoo_resolver
)

case "${1:-check}" in
  check)
    gate_unwrap
    gate_protocol_docs
    cargo check --workspace --offline --lib --bins --examples --benches
    cargo check -p predictddl --offline "${NON_PROPTEST_TESTS[@]}"
    cargo check -p pddl-bench --offline --tests
    cargo check -p pddl-tensor --offline --test gemm_equivalence
    ;;
  clippy)
    cargo clippy --workspace --offline --lib --bins --examples --benches -- -D warnings
    cargo clippy -p predictddl --offline "${NON_PROPTEST_TESTS[@]}" -- -D warnings
    cargo clippy -p pddl-bench --offline --tests -- -D warnings
    cargo clippy -p pddl-tensor --offline --test gemm_equivalence -- -D warnings
    ;;
  doc)
    # Same gate as CI: rustdoc warnings (missing docs, broken intra-doc
    # links) fail the build. Stub deps keep their own docs out of scope
    # via --no-deps.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --offline --no-deps
    ;;
  test-telemetry)
    cargo test -p pddl-telemetry --offline
    ;;
  test-faults)
    cargo test -p pddl-faults --offline
    ;;
  test-par)
    cargo test -p pddl-par --offline
    ;;
  test-zoo)
    # The resolver table and everything that reads it run for real: the
    # zoo crate's own suite (table == build_model for all 62 slots, the
    # first-touch race), the simulator's by-name paths, and core's
    # task-checker / keyed-cache unit tests plus the bit-identity and
    # allocation-count tier. None of it needs serde at runtime.
    cargo test -p pddl-zoo --offline --lib --test resolve_race --test fidelity
    cargo test -p pddl-ddlsim --offline --lib -- workload:: simulate::
    cargo test -p predictddl --offline --lib -- task_checker:: embeddings::
    cargo test -p predictddl --offline --test zoo_resolver
    ;;
  test-golden)
    cargo test -p predictddl --offline --test golden_traces
    ;;
  test-bench)
    cargo test -p pddl-bench --offline
    ;;
  test-tensor)
    # Lib tests plus the equivalence/determinism/pack-reuse suite; the
    # proptest target is excluded (stubbed offline).
    cargo test -p pddl-tensor --offline --lib --test gemm_equivalence
    ;;
  test-simd)
    # The dispatch-layer gate: the whole tensor suite on whatever
    # microkernel the host dispatches to, then again pinned to the
    # portable scalar fallback via PDDL_FORCE_SCALAR=1 — so a kernel bug
    # that only one backend exhibits cannot hide behind the other.
    cargo test -p pddl-tensor --offline --lib --test gemm_equivalence
    PDDL_FORCE_SCALAR=1 cargo test -p pddl-tensor --offline --lib --test gemm_equivalence
    ;;
  test-trace)
    # The flight-recorder/span/waterfall unit tests run for real (pure
    # std); the TCP trace tier needs serde at runtime, so offline it is
    # type-checked only and executes in networked CI.
    cargo test -p pddl-telemetry --offline trace
    cargo check -p predictddl --offline --test trace
    ;;
  test-shard)
    # The router's ring/key/membership unit tests run for real (the
    # route table and routing key are hand-rolled, serde-free at
    # runtime); the TCP fleet tier needs serde, so offline it is
    # type-checked only and executes in networked CI.
    cargo test -p pddl-router --offline
    cargo check -p predictddl --offline --test shard
    ;;
  test-registry)
    # The crash-safe store is plain std, so its seeded torn-write /
    # recovery / retention unit suite runs for real offline, as do the
    # tier's serde-free tests (the seeded crash sweep over raw artifacts,
    # the golden manifest fixture, and the old-manifest `precision`
    # handling). The checkpoint/TCP-reload tests need serde at runtime,
    # so offline they are type-checked only and execute in networked CI.
    cargo test -p pddl-registry --offline
    cargo test -p predictddl --offline --test registry -- \
      open_recovers_newest_verifiable_version_for_every_seed \
      manifest_format_matches_golden_fixture \
      parent_format_f32_precision_round_trips \
      unsupported_precision_is_refused_with_reason \
      open_quarantines_version_published_at_unsupported_precision
    cargo check -p predictddl --offline --test registry
    ;;
  test-sched)
    # The whole sched tier is serde-free at runtime (engine, live
    # predictor, and golden trace fixtures are pure std), so it runs for
    # real offline — in release, because it drives a 10⁵-job engine run.
    # The crate's proptest target is excluded (stubbed offline).
    cargo test -p pddl-sched --offline --release --lib
    cargo test -p predictddl --offline --release --test sched
    ;;
  metrics-expo)
    # Prometheus exposition renderer + the golden fixtures pinning the
    # exposition, trace-dump, and waterfall shapes byte-for-byte.
    cargo test -p pddl-telemetry --offline expo
    cargo test -p pddl-telemetry --offline --test golden_shapes
    ;;
  bench-serve)
    shift
    cargo run -p pddl-bench --offline --release --bin pddl-loadgen -- \
      --transport inproc "$@"
    ;;
  bench-shard)
    # The sharded-fleet benchmark: in-process shard pools behind the
    # real consistent-hash ring — scaling sweep, rebalance accounting,
    # and the mid-load shard-kill phase (produces BENCH_shard.json).
    shift
    cargo run -p pddl-bench --offline --release --bin pddl-loadgen -- \
      --transport fleet "$@"
    ;;
  bench-tensor)
    shift
    cargo run -p pddl-bench --offline --release --bin pddl-tensorbench -- "$@"
    ;;
  bench-sched)
    # The scheduling/continual-refit benchmark: burst-load policy
    # comparison plus the mid-run cost-shift frozen-vs-online scenario
    # (produces BENCH_sched.json).
    shift
    cargo run -p pddl-bench --offline --release --bin pddl-schedbench -- "$@"
    ;;
  *)
    cargo --offline "$@"
    ;;
esac

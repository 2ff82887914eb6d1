#!/usr/bin/env bash
# cargo, offline, on the benchmark package: `benchmark/cargo.sh test`,
# `benchmark/cargo.sh build --release`.
#
# The workspace's crates.io dependencies cannot resolve without a
# network. While the repo ships `stubs/`, the five stand-ins are patched
# in on the command line; no manifest is edited, so deleting `stubs/`
# needs no change here.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"

sub="$1"
shift
args=("$sub" --offline --manifest-path "$here/Cargo.toml")
if [ -d "$root/stubs" ]; then
  for dep in serde serde_json parking_lot proptest criterion; do
    args+=(--config "patch.crates-io.$dep.path='$root/stubs/$dep'")
  done
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
exec cargo "${args[@]}" "$@"

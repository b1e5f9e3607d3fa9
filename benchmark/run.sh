#!/usr/bin/env bash
# The rpav benchmark's one command. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--trace] [--selfcheck] [--smoke] [--list]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the benchmark crate and the root workspace's `rpavd`, both from
# source and offline, then hands every argument to the benchmark binary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# Cargo finds `.cargo/config.toml` (target-cpu=native) by walking up from
# the working directory, so both builds run from the repository root.
cd "$root"

# Everything the benchmark leaves behind stays under its own directory
# (or where the caller points CARGO_TARGET_DIR).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in
/*) ;;
*) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac

build_started=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p rpav-daemon >&2
build_ms=$(( ($(date +%s%N) - build_started) / 1000000 ))
echo "   info build_ms: $build_ms ms (benchmark crate + rpavd; near 0 when already built)" >&2

exec "$CARGO_TARGET_DIR/release/rpav-benchmark" \
    --manifest "$root/BENCHMARK.json" \
    --rpavd "$CARGO_TARGET_DIR/release/rpavd" \
    --out "$here/out" \
    "$@"

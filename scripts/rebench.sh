#!/usr/bin/env bash
# Rebuild the `repro` benchmark binary from scratch before benching.
#
# The stale-binary footgun: `cargo build --release` can leave an old
# `target/release/repro` in place when the rebuild fails or when the
# binary was produced by a different checkout — and benchmark numbers
# from a stale binary silently describe code that no longer exists.
# This script deletes every cached copy of the binary first, rebuilds,
# and prints the fingerprint (build git hash + content hash) that every
# `repro bench-*` command also prints, so the JSON artifact and the
# binary that produced it can be cross-checked.
#
# Usage: scripts/rebench.sh [repro args...]
#   scripts/rebench.sh                      # rebuild only, print fingerprint
#   scripts/rebench.sh bench-train --scale tiny --out BENCH_train.json
#   scripts/rebench.sh bench-kernels --out BENCH_kernels.json
#
# bench-train also emits the "kvsall" section (k-vs-all full-softmax
# candidate-scores/sec, cross-thread parity, kill-and-resume) in the same
# BENCH_train.json artifact; at --scale full expect a few extra minutes
# for the full-|E| GEMM arms.

set -euo pipefail
cd "$(dirname "$0")/.."

rm -f target/release/repro target/release/deps/repro-*

cargo build --release -p mei-bench --bin repro

echo "rebuilt target/release/repro from git $(git rev-parse --short=12 HEAD)"

if [ "$#" -gt 0 ]; then
    exec target/release/repro "$@"
fi

#!/usr/bin/env bash
# The one command of the benchmark: builds the package in release mode, then
# runs it.  See README.md in this directory.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--smoke]
#       every workload (or NAME), untraced then traced; prints every metric,
#       writes benchmark/out/result.json and benchmark/out/trace-<workload>.jsonl,
#       exits non-zero if any operation failed
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   benchmark/run.sh --compare A.json B.json
#       applies every metric's bound per workload
#
# Runs from any directory and never changes it, so a relative
# CARGO_TARGET_DIR means what the caller meant.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Offline: every dependency is a path dependency of this repository.  Cargo's
# progress goes to stderr, so stdout stays the benchmark's own.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

bin="${CARGO_TARGET_DIR:-$here/target}/release/wcq-benchmark"

out=("--out" "$here/out")
for arg in "$@"; do
    case "$arg" in
        --out | --compare | --print-benchmark-json) out=() ;;
    esac
done

exec "$bin" "${out[@]}" "$@"

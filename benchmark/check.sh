#!/usr/bin/env bash
# Runs two full sets of the same build and fails unless every workload x
# metric row of their comparison is `ok`: the benchmark's own steadiness
# check.  Arguments (e.g. --seconds 5, --seed 2) go to both sets.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

"$here/run.sh" --out "$here/out/check-a" "$@"
"$here/run.sh" --out "$here/out/check-b" "$@"
"$here/run.sh" --compare "$here/out/check-a/result.json" "$here/out/check-b/result.json"

#!/usr/bin/env bash
# A/A check: measure this commit as two interleaved sets of `bench all`
# (>= 3 runs each, another seed per run) and print, per end-to-end metric
# and workload, both medians, both spreads and the bound. Exits non-zero
# when a spread or the B-vs-A difference breaches a bound.
#   benchmark/aa.sh [--runs R] [--seconds S] [--smoke]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec bash "$here/run.sh" aa "$@"

#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build `bench` from source in this
# checkout, then hand it the driver's arguments
#   --workload W --seed N --seconds S --trace 0|1
# The build is offline and touches only this package's own target
# directory (or CARGO_TARGET_DIR when the driver sets one); its output
# goes to stderr so the last stdout line stays the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/bench" "$@"

#!/usr/bin/env sh
# The CI gate, in dependency order: formatting, rustdoc links, a clean
# release build, the full test suite, the functional smokes, and a smoke
# run of the one benchmark (benchmark/ — 1 s per workload; checks the
# driver and its in-run correctness checks, not the numbers).
set -eu
cd "$(dirname "$0")/.."

echo "ci: cargo fmt --check"
cargo fmt --check

echo "ci: rustdoc"
# Every intra-doc link resolves and none points from public docs at a
# private item — a deleted item cannot leave a link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "ci: no environment knobs"
# A run is configured by its config and a command by its flags: no
# program code reads an environment variable.
if grep -rn 'env::var' crates/*/src; then
    echo "environment read in program code"
    exit 1
fi

echo "ci: one copy of a trace"
# A run keeps one trace and re-bases it in place (`adjust::rebase`);
# `adjust::apply`, which re-bases a copy, is for callers outside the
# program (tests, examples, the benchmark's own decomposition).
if grep -rn 'adjust::apply' crates/*/src; then
    echo "program code copies a trace to adjust it"
    exit 1
fi

echo "ci: one FNV-1a, one JSON"
# Every persisted or compared hash is `obs::fnv` (`cluster::ring` keeps a
# pinned copy: that crate has no dependencies by design), and every JSON
# string is escaped and every JSON document parsed by `obs::json`.
if grep -rniE '0x[0-9a-f_]*01b3|1099511628211' crates/*/src |
    grep -v -e '^crates/obs/src/fnv\.rs:' -e '^crates/cluster/src/ring\.rs:'; then
    echo "an FNV-1a body outside obs::fnv"
    exit 1
fi
if grep -rnF 'u{:04x}' crates/*/src | grep -v '^crates/obs/src/json\.rs:'; then
    echo "a JSON string escaper outside obs::json"
    exit 1
fi
if grep -rnE 'enum JsonVal|fn json_u64_field|fn json_u32_array|fn json_escape' crates/*/src; then
    echo "a second JSON value type, reader or escaper"
    exit 1
fi

echo "ci: one HTTP head reader"
# Requests and responses are framed by one reader: `http::ConnReader`'s
# bounded line reader and the one header-block loop, under `HttpLimits`.
# A second framing (a blank-line search, its own fill loop) anywhere else
# is a second, unbounded HTTP parser.
if grep -rnE 'fn (fill_until|find_subslice|read_response)\b' crates/*/src |
    grep -v '^crates/serve/src/http\.rs:'; then
    echo "an HTTP framing function outside serve::http"
    exit 1
fi
if grep -rnF '"\r\n\r\n"' crates/*/src | grep -v '^crates/serve/src/http\.rs:'; then
    echo "a search for the end of an HTTP head outside serve::http"
    exit 1
fi

echo "ci: cargo build --release"
cargo build --release

echo "ci: cargo test -q"
cargo test -q

echo "ci: fault smoke"
# Reduced campaign: 2 seeds per (app, fault-kind) cell plus the FLASH
# crash sweep. Exit 1 on any panic or if the commit-verdict flip fails
# to reproduce; `report fault-campaign --out DIR` (8 seeds per cell by
# default) is the full campaign.
./target/release/report fault-campaign --camp-seeds 2 --out target/fault_smoke

echo "ci: profiled smoke"
# A profiled run must produce a valid Chrome trace covering every
# instrumented layer; tracetool validate-trace exits 1 on a malformed
# artifact. The run itself doubles as a check that --profile/--metrics
# do not change the exit status.
./target/release/report table4 --ranks 8 --profile target/ci_trace.json \
    --metrics target/ci_metrics.json > /dev/null
./target/release/tracetool validate-trace target/ci_trace.json

echo "ci: process gates (release binary)"
# The three process-level gates of crates/report/tests/process.rs —
# warm == cold + observability surface + SIGTERM drain, SIGKILL recovery
# from the store, two-process fleet byte identity across a decommission /
# join — ran above against the debug binary; this runs them against the
# release one.
cargo test --release -q -p report-gen --test process

echo "ci: streaming equivalence smoke"
# The streaming incremental analyzer must stay byte-identical to its
# reference, the at-rest functions (detect_conflicts x2, local_pattern,
# global_pattern, highlevel::classify) over the finished trace. The
# debug suite above already ran the full matrix
# (every app x every semantics model x fault campaigns); this re-checks
# a 3-app x 2-model slice in release mode — optimizer-sensitive
# ordering bugs would surface here.
cargo test --release -q -p report-gen --test incremental_identity \
    smoke_three_apps_two_models

echo "ci: allocation budget"
# Heap allocations per cold request are deterministic, so they gate where
# wall-clock cannot: FLASH-fbs and ENZO-HDF5 at 64 ranks under checked-in
# budgets, every task stack of a second request served by the stack pool,
# and FLASH-fbs growing < 2.3x from 64 to 128 ranks (a per-rank-squared
# collective shows up here first). Release mode: debug builds allocate
# differently. The run prints one `alloc-budget:` line per check; on a
# miss it prints the census by call site.
cargo test --release -q -p report-gen --test alloc_budget -- --nocapture

echo "ci: rank-scale smoke"
# One 1024-rank world end to end — simulation, streaming analysis,
# verdict, rendered report — under 120 s.
timeout 120 ./target/release/report app-report --config FLASH-fbs \
    --ranks 1024 > /dev/null

echo "ci: benchmark smoke"
# The one measurement path: every workload for 1 s, each run asserting
# its own correctness checks (paper verdicts, reports/table4.txt bytes,
# warm == cold bytes), then the benchmark package's own tests.
bash benchmark/run.sh all --smoke
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
# The benchmark builds against the workspace crates with its own lock
# file; a `[dependencies]` edit anywhere rewrites it, and a program PR
# must leave benchmark/ untouched.
git diff --quiet -- benchmark/Cargo.lock || { echo "benchmark/Cargo.lock rewritten"; exit 1; }

echo "ci: non-test lines per crate (printed, not gated)"
sh scripts/loc.sh

echo "ci: OK"

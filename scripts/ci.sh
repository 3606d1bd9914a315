#!/usr/bin/env sh
# The CI gate, in dependency order: formatting, a clean release build,
# the full test suite, the functional smokes, and a smoke run of the one
# benchmark (benchmark/ — 1 s per workload; checks the driver and its
# in-run correctness checks, not the numbers).
set -eu
cd "$(dirname "$0")/.."

echo "ci: cargo fmt --check"
cargo fmt --check

echo "ci: cargo build --release"
cargo build --release

echo "ci: cargo test -q"
cargo test -q

echo "ci: fault smoke"
# Reduced campaign: 2 seeds per (app, fault-kind) cell plus the FLASH
# crash sweep. Exit 1 on any panic or if the commit-verdict flip fails
# to reproduce; scripts/faultcamp.sh runs the full campaign.
./target/release/report fault-campaign --camp-seeds 2 --out target/fault_smoke

echo "ci: profiled smoke"
# A profiled run must produce a valid Chrome trace covering every
# instrumented layer; tracetool validate-trace exits 1 on a malformed
# artifact. The run itself doubles as a check that --profile/--metrics
# do not change the exit status.
./target/release/report table4 --ranks 8 --profile target/ci_trace.json \
    --metrics target/ci_metrics.json > /dev/null
./target/release/tracetool validate-trace target/ci_trace.json

echo "ci: serve smoke"
# Start the analysis service on an OS-assigned port, drive it with the
# load generator (cold + warm phases, byte-identity asserted inside
# loadgen), exercise the observability surface (flight-recorder dump,
# /metricsz scraped and re-parsed by the from-scratch exposition
# parser; the retired JSON metrics endpoint must stay a 404), then
# check SIGTERM drains to a clean exit 0 and writes the postmortem
# flight-ring dump.
rm -f target/serve_postmortem.jsonl
./target/release/report serve --port 0 --workers 2 --cache-entries 32 \
    --postmortem target/serve_postmortem.jsonl \
    > target/serve_smoke.log 2>&1 &
SERVE_PID=$!
i=0
until grep -q "listening on" target/serve_smoke.log 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "serve never came up"; cat target/serve_smoke.log; exit 1; }
    sleep 0.1
done
SERVE_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' target/serve_smoke.log)
./target/release/loadgen --smoke --addr "127.0.0.1:${SERVE_PORT}" \
    --out-json target/loadgen_run.json
./target/release/report get --addr "127.0.0.1:${SERVE_PORT}" \
    --path /v1/debug/flightrec > /dev/null
./target/release/report slo --addr "127.0.0.1:${SERVE_PORT}" \
    --raw target/metricsz.txt
./target/release/tracetool validate-prom target/metricsz.txt
if ./target/release/report get --addr "127.0.0.1:${SERVE_PORT}" \
    --path /v1/metrics > /dev/null 2>&1; then
    echo "/v1/metrics answered 200; /metricsz is the one metrics surface"; exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "shutdown complete" target/serve_smoke.log || {
    echo "serve did not drain cleanly"; cat target/serve_smoke.log; exit 1;
}
grep -q "sigterm-drain" target/serve_postmortem.jsonl || {
    echo "SIGTERM drain wrote no postmortem flight dump"; exit 1;
}

echo "ci: cluster smoke"
# The sharded serving fleet end-to-end across real processes: two nodes
# on ephemeral ports with separate store dirs, cold through node A, the
# same queries warm through node B (forwarded to their owners — byte
# identity across entry nodes is asserted inside loadgen), ring status
# rendered through the CLI, node B decommissioned and rejoined through
# the CLI (store segments handed off and back over the peer client,
# epoch 1 -> 2 -> 3) with byte identity re-asserted afterwards, then
# SIGTERM both and require clean drains.
rm -rf target/ci_cluster_a target/ci_cluster_b
CLUSTER_PORTS=$(./target/release/report pick-ports --count 2)
PORT_A=$(echo "$CLUSTER_PORTS" | sed -n 1p)
PORT_B=$(echo "$CLUSTER_PORTS" | sed -n 2p)
PEERS="1=127.0.0.1:${PORT_A},2=127.0.0.1:${PORT_B}"
./target/release/report serve --port "$PORT_A" --workers 2 --cluster-id 1 \
    --peers "$PEERS" --store-dir target/ci_cluster_a \
    > target/cluster_a.log 2>&1 &
NODE_A=$!
./target/release/report serve --port "$PORT_B" --workers 2 --cluster-id 2 \
    --peers "$PEERS" --store-dir target/ci_cluster_b \
    > target/cluster_b.log 2>&1 &
NODE_B=$!
i=0
until grep -q "listening on" target/cluster_a.log 2>/dev/null \
   && grep -q "listening on" target/cluster_b.log 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "cluster nodes never came up"; \
        cat target/cluster_a.log target/cluster_b.log; exit 1; }
    sleep 0.1
done
# Cold through A, then every query re-fetched through B (and A) with
# bodies asserted identical regardless of entry node.
./target/release/loadgen --smoke \
    --cluster "127.0.0.1:${PORT_B},127.0.0.1:${PORT_A}"
./target/release/report cluster status --addr "127.0.0.1:${PORT_A}" \
    > target/cluster_status.txt
grep -q "epoch" target/cluster_status.txt || {
    echo "cluster status did not render"; cat target/cluster_status.txt; exit 1;
}
./target/release/report cluster decommission --addr "127.0.0.1:${PORT_B}" \
    > target/cluster_decommission.txt
grep -q '"moved"' target/cluster_decommission.txt || {
    echo "decommission reported no handoff"; cat target/cluster_decommission.txt; exit 1;
}
./target/release/report cluster join --addr "127.0.0.1:${PORT_B}" \
    > target/cluster_join.txt
grep -q '"epoch": 3' target/cluster_join.txt || {
    echo "rejoin did not reach epoch 3"; cat target/cluster_join.txt; exit 1;
}
./target/release/loadgen --smoke \
    --cluster "127.0.0.1:${PORT_B},127.0.0.1:${PORT_A}"
kill -TERM "$NODE_A" "$NODE_B"
wait "$NODE_A"
wait "$NODE_B"
grep -q "shutdown complete" target/cluster_a.log || {
    echo "node A did not drain cleanly"; cat target/cluster_a.log; exit 1;
}
grep -q "shutdown complete" target/cluster_b.log || {
    echo "node B did not drain cleanly"; cat target/cluster_b.log; exit 1;
}

echo "ci: store crash-recovery smoke"
# The persistent verdict store end-to-end: loadgen spawns a real
# `report serve --store-dir`, loads it cold, SIGKILLs it mid-traffic,
# restarts it on the same directory, and asserts the restarted process
# answers warm — recovered records >= configs, responses byte-identical
# to the pre-kill cold bytes, and served from the store (store.hits),
# not recomputed.
rm -rf target/ci_store
./target/release/loadgen --restart --smoke --store-dir target/ci_store

echo "ci: streaming equivalence smoke"
# The streaming incremental analyzer must stay byte-identical to the
# batch oracle. The debug suite above already ran the full matrix
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
# One 1024-rank application end-to-end through the streaming pipeline
# (--keep-going routes through analyze_isolated -> analyze_incremental),
# verdict included, under a wall budget.
timeout 120 ./target/release/report app-report --config FLASH-fbs \
    --ranks 1024 --keep-going > /dev/null

echo "ci: benchmark smoke"
# The one measurement path: every workload for 1 s, each run asserting
# its own correctness checks (paper verdicts, reports/table4.txt bytes,
# warm == cold bytes), then the benchmark package's own tests.
bash benchmark/run.sh all --smoke
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "ci: OK"

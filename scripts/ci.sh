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
# A run streams or records, never both: a trace is kept only by a run
# without a sink. The cold path and the tables stream and read the
# streamed results, so neither may grow a trace back.
if grep -nE '\.trace\b' crates/report/src/serve_backend.rs crates/report/src/tables.rs; then
    echo "the serve cold path or a table reads a trace"
    exit 1
fi
# No sink keeps the trace as well: a run that streams and records costs
# more than either, and a reader of a trace runs the at-rest pipeline,
# `analyze_with_faults`.
if grep -rnE 'Recording|fn records\b' crates/iolibs/src crates/report/src; then
    echo "a sink that records: a run streams or records, never both"
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

echo "ci: one happens-before pass"
# Happens-before is one engine, `core::hb::HbEdges`: a time-ordered edge
# list and one forward pass per pair, fed by the stream and, at rest, by
# `validate_conflicts`. The index, fixpoint and barrier shortcut it
# replaced stay gone, and the report crate validates a trace at rest only
# in the at-rest pipeline, `runner::analyze_with_faults`, whose analysis
# half is `runner::analyze_at_rest` (trace readers and the semantics
# matrix's prediction come through it).
if grep -rnE 'HbIndex|fixpoint_reach|barrier_separates' crates/*/src; then
    echo "a second happens-before engine"
    exit 1
fi
if awk 'FNR == 1 { f = "" }
        match($0, /^[[:space:]]*(pub[^ ]* )?fn [a-z_0-9]+/) {
            f = $0; sub(/^.*fn /, "", f); sub(/[^a-z_0-9].*$/, "", f)
        }
        /validate_conflicts\(/ && f != "analyze_at_rest" {
            print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit !bad }' $(find crates/report/src -name '*.rs' | sort); then
    echo "validate_conflicts called outside runner::analyze_at_rest"
    exit 1
fi

echo "ci: one engine per model"
# What open, write, read, fsync and close do under each consistency model
# is decided in one module, `pfssim::engine`: no other non-test code of
# pfssim (but `config.rs`, which defines the models, and `lib.rs`, which
# documents them) or of iolibs names a model variant. The non-test part
# of a file is what `scripts/loc.sh` counts: the lines before its first
# `#[cfg(test)]`.
for f in crates/pfssim/src/*.rs crates/iolibs/src/*.rs; do
    case "$f" in
    crates/pfssim/src/engine.rs | crates/pfssim/src/config.rs | crates/pfssim/src/lib.rs) continue ;;
    esac
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /SemanticsModel::/ { print FILENAME ":" FNR ": " $0; bad = 1 }
            END { exit !bad }' "$f"; then
        echo "a consistency model decided outside pfssim::engine"
        exit 1
    fi
done

echo "ci: one copy in pfssim"
# The simulators keep no second copy of what they already hold: a write
# lock's holder is read off the published image (no lock map beside it),
# the buffered-extent gauge is counted from the buffers when `Pfs::stats`
# takes its snapshot (no hand-kept count), and a barrier's exit time is
# the participant's own clock (no per-epoch release table). The non-test
# part of a file is what `scripts/loc.sh` counts.
if grep -rnE 'SegMap|write_locks|drop_buffered' crates/pfssim/src; then
    echo "a second copy of the published image's writers or of the buffered-extent count in pfssim"
    exit 1
fi
for f in crates/pfssim/src/*.rs; do
    case "$f" in
    crates/pfssim/src/stats.rs | crates/pfssim/src/state.rs) continue ;;
    esac
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /pending_extents/ { print FILENAME ":" FNR ": " $0; bad = 1 }
            END { exit !bad }' "$f"; then
        echo "PfsStats::pending_extents kept outside Pfs::stats"
        exit 1
    fi
done
if grep -rn 'barrier_release' crates/mpisim/src; then
    echo "a per-epoch barrier release table in mpisim"
    exit 1
fi

echo "ci: one grant policy"
# Per-op grants are burst grants with one-op turns: how long a granted
# rank keeps the turn is `mpisim::sched::Grants`, crate-private and read
# only in `sched.rs` (`SimState::end_op`), and a message to a parked
# receiver always joins the one deferral list. Every fault site fires by
# one rule there too (`take_due`). The non-test part of a file is what
# `scripts/loc.sh` counts. Beside it: condition 4 of the session model
# reads the writer's next close, with no variant flag (the paper's
# combined-`tc` variant moved no verdict), and obs has one sim-event path,
# mpisim's world buffer flushed by `push_bulk`.
if grep -rn 'SchedMode' crates src tests examples; then
    echo "a public schedule mode: the grant policy is private to mpisim"
    exit 1
fi
for f in crates/mpisim/src/*.rs; do
    [ "$f" = crates/mpisim/src/sched.rs ] && continue
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /[=!]= *Grants::|matches!\(.*Grants/ { print FILENAME ":" FNR ": " $0; bad = 1 }
            END { exit !bad }' "$f"; then
        echo "the grant policy read outside mpisim::sched"
        exit 1
    fi
done
if grep -rnE 'ConflictOptions|detect_conflicts_opt|session_uses_commit_as_close' \
    crates src tests examples; then
    echo "a session-model variant flag"
    exit 1
fi
if grep -rnE 'fn sim_(instant|span)\b' crates/obs/src; then
    echo "a second sim-event path in obs"
    exit 1
fi

echo "ci: one lock per telemetry structure"
# The telemetry takes a lock: the flight ring, the SLO window and the
# metrics registry each sit behind one `Mutex` around plain data (no
# atomics, no `Arc` cells), the span collector is one locked `Vec`, and
# nothing is sharded. So obs hand-rolls no lock-free protocol (no CAS
# loop, fence or spin), and every obs histogram files a value by one
# log2 bucket rule, `metrics::bucket_index`, the one `leading_zeros` of
# the crate. The non-test part of a file is what `scripts/loc.sh` counts.
log2_rules=0
for f in crates/obs/src/*.rs; do
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /compare_exchange|fence\(|spin_loop/ { print FILENAME ":" FNR ": " $0; bad = 1 }
            END { exit !bad }' "$f"; then
        echo "a hand-rolled lock-free protocol in obs"
        exit 1
    fi
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             /leading_zeros/ { n++ }
             END { print n + 0 }' "$f")
    log2_rules=$((log2_rules + n))
done
if [ "$log2_rules" -gt 1 ]; then
    grep -n 'leading_zeros' crates/obs/src/*.rs
    echo "$log2_rules log2 bucket rules in obs: metrics::bucket_index is the one"
    exit 1
fi
for f in crates/obs/src/flight.rs crates/obs/src/slo.rs crates/obs/src/metrics.rs; do
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /Atomic|Arc</ { print FILENAME ":" FNR ": " $0; bad = 1 }
            END { exit !bad }' "$f"; then
        echo "an atomic or a shared cell in the flight ring, the SLO window or the registry: each sits behind one lock"
        exit 1
    fi
done
if grep -n 'SHARDS' crates/obs/src/*.rs; then
    echo "a sharded obs collector: each is one lock around plain data"
    exit 1
fi

echo "ci: one way to stop a server"
# A server stops by one rule. `serve` makes one `stopping` flag and the
# handle is the one way to set it: its drop sets the flag and makes one
# loopback connect, which wakes the accept loop out of a blocking
# `accept`. Only then does the loop go nonblocking, to admit what the
# kernel still holds (until `WouldBlock`) before the drain. A signal
# reaches a server only through `report serve`'s main thread, which
# blocks on the signal pipe (`signal::wait_for_shutdown`, no flag, no
# sleep loop) and calls the handle; the prober, every handler and every
# handler's reader read only `stopping`. Connections queue on one std
# bounded channel of `TcpStream`s, so a full queue hands the stream back
# for the 503 and a drain answers what is queued: no pool of boxed jobs
# (`pool.rs`, `WorkerPool`, a `Condvar`) and no shared stream slot. The one
# `thread::sleep` is the back-off after an accept error. The store's
# single-writer lock is the kernel's, so nothing probes `/proc`. The
# non-test part of a file is what `scripts/loc.sh` counts; comments are
# not calls.
if [ -e crates/serve/src/pool.rs ]; then
    echo "crates/serve/src/pool.rs exists: connections queue on serve::server's channel"
    exit 1
fi
if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /Condvar|WorkerPool|Mutex<Option<TcpStream>>|Mutex::new\(Some\(/ {
            print FILENAME ":" FNR ": a second queue or a shared stream slot: " $0; bad = 1 }
        /listener\.accept\(\)/ { accepts++ }
        /set_nonblocking/ {
            if (accepts) drain = 1
            else { print FILENAME ":" FNR ": the listener polls: " $0; bad = 1 } }
        /drop\(tx\)/ { drain = 0 }
        /WouldBlock/ && !drain {
            print FILENAME ":" FNR ": WouldBlock outside the stop-time drain: " $0; bad = 1 }
        /thread::sleep/ { sleeps++; where = where " " FNR }
        END {
            if (sleeps > 1) { print FILENAME ":" where ": " sleeps " sleeps, the accept back-off is the one"; bad = 1 }
            exit !bad }' crates/serve/src/server.rs; then
    exit 1
fi
if grep -rn 'shutdown_requested' crates/*/src crates/*/tests; then
    echo "a polled signal flag: report serve's main thread blocks on the signal pipe"
    exit 1
fi
if grep -n 'thread::sleep' crates/report/src/cmd/service.rs; then
    echo "report serve sleeps: its main thread blocks on the signal pipe"
    exit 1
fi
if grep -rn 'pid_alive\|/proc/' crates/store/src; then
    echo "the store probes pids: its lock is the kernel's (File::try_lock)"
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

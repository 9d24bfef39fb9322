#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. External crates resolve to
# the shims under vendor/ (see vendor/README.md), so no registry access is
# needed — CARGO_NET_OFFLINE just makes any accidental network use fail fast.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
# --no-fail-fast: one aborting test binary must not hide every later one.
cargo test --workspace -q --no-fail-fast

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors: stale links to removed names fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> storage arithmetic lint (warn-only: the decode path should prefer checked math)"
cargo clippy -p waterwheel-storage -- -W clippy::arithmetic_side_effects || true

echo "==> ingest bench smoke (batched path must beat per-tuple)"
rm -f BENCH_ingest.json
WW_BENCH_REQUIRE_WIN=1 WW_INGEST_BENCH_N=20000 \
    cargo bench -p waterwheel-bench --bench ingest_throughput
test -s BENCH_ingest.json || { echo "BENCH_ingest.json missing"; exit 1; }

echo "==> query bench smoke (parallel read path must beat serial)"
rm -f BENCH_query.json
WW_BENCH_REQUIRE_WIN=1 WW_QUERY_BENCH_N=60000 \
    cargo bench -p waterwheel-bench --bench query_latency
test -s BENCH_query.json || { echo "BENCH_query.json missing"; exit 1; }

echo "==> transport bench smoke (in-proc beats TCP small RPCs; batching pays the TCP tax back)"
rm -f BENCH_net.json
WW_BENCH_REQUIRE_WIN=1 WW_NET_BENCH_N=20000 \
    cargo bench -p waterwheel-bench --bench transport_overhead
test -s BENCH_net.json || { echo "BENCH_net.json missing"; exit 1; }

echo "==> saturation smoke (256 concurrent connections on flat threads; 2x overload sheds, not crashes)"
rm -f BENCH_saturation.json
WW_BENCH_REQUIRE_WIN=1 WW_SAT_CONNS=256 timeout 300 \
    cargo bench -p waterwheel-bench --bench saturation
test -s BENCH_saturation.json || { echo "BENCH_saturation.json missing"; exit 1; }
# Stray-thread sweep: the bench asserts its own process returned to its
# thread baseline after teardown; here we also make sure no helper
# process outlived it.
if pgrep -f "deps/saturation-" > /dev/null; then
    echo "stray saturation bench processes after teardown"; pgrep -af "deps/saturation-"; exit 1
fi

echo "==> columnar chunk bench smoke (v2 <= 0.6x v1 bytes/tuple; hot decoded-cache scan >= 1.0x v1)"
rm -f BENCH_columnar.json
WW_BENCH_REQUIRE_WIN=1 WW_COLUMNAR_BENCH_N=60000 \
    cargo bench -p waterwheel-bench --bench chunk_compression
test -s BENCH_columnar.json || { echo "BENCH_columnar.json missing"; exit 1; }

echo "==> durability bench smoke (WAL ingest overhead + replay timing)"
rm -f BENCH_durability.json
WW_RECOVERY_BENCH_N=20000 \
    cargo bench -p waterwheel-bench --bench recovery_overhead
test -s BENCH_durability.json || { echo "BENCH_durability.json missing"; exit 1; }

echo "==> kill-9 recovery smoke (scaled-down oracle: SIGKILL mid-ingest, replay, byte-exact answers)"
# The full oracle runs in the default test gate above; this scaled-down
# rerun keeps the crash path exercised even if the gate's filters change,
# under a hard timeout so a hung replay cannot wedge CI.
WW_RECOVERY_N=800 timeout 120 \
    cargo test --release -q -p waterwheel-node --test recovery
if pgrep -f waterwheel-node > /dev/null; then
    echo "stray waterwheel-node processes after kill-9 smoke"; pgrep -af waterwheel-node; exit 1
fi

echo "==> scale-out bench smoke (1/2/4/8-process clusters; 2->4 ingest scaling >= 1.6x on the basis series)"
rm -f BENCH_scale.json
WW_BENCH_REQUIRE_WIN=1 WW_SCALE_BENCH_N=2000 timeout 420 \
    cargo bench -p waterwheel-bench --bench scale_out
test -s BENCH_scale.json || { echo "BENCH_scale.json missing"; exit 1; }
if pgrep -f "deps/scale_out-" > /dev/null; then
    echo "stray scale-out bench processes after teardown"; pgrep -af "deps/scale_out-"; exit 1
fi

echo "==> elastic cluster smoke (grow 2->4 indexing processes mid-ingest, byte-exact vs an unmigrated twin)"
timeout 300 cargo test --release -q -p waterwheel-node --test elastic
if pgrep -f "deps/elastic-" > /dev/null; then
    echo "stray elastic test processes after teardown"; pgrep -af "deps/elastic-"; exit 1
fi

echo "==> multi-process loopback smoke (4 node processes, exact answers, clean shutdown)"
timeout 120 cargo run --release -p waterwheel-node -- smoke
# The smoke's clean-shutdown check already fails on stragglers; this is a
# belt-and-braces sweep so a regression can't leak processes into CI.
if pgrep -f waterwheel-node > /dev/null; then
    echo "stray waterwheel-node processes after smoke"; pgrep -af waterwheel-node; exit 1
fi

echo "==> examples smoke pass"
for example in adaptive_skew aggregate_dashboard fault_tolerance \
               multi_process network_monitor quickstart taxi_tracking; do
    echo "--> example: ${example}"
    cargo run --release --example "${example}" > /dev/null
done

echo "CI OK"

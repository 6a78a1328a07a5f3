#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails
# fastest. Run from the repository root (or anywhere inside it).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test (perfbench, --locked)"
# perfbench is a package outside the workspace, so the workspace build
# never compiles it against changed public APIs. --locked fails if its
# pinned crate graph (perfbench/Cargo.lock) would have to change.
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q -p system-tests --test recovery (crash recovery)"
cargo test -q -p system-tests --test recovery

echo "==> bench smoke (query hot path, writes BENCH_query_smoke.json)"
# Exits nonzero and prints REGRESSION if the pruned top-k ranking ever
# differs from the exhaustive ranking.
cargo run -q -p coupling-bench --release --bin bench_query -- --smoke

echo "==> bench smoke (serve front-end, writes BENCH_serve_smoke.json)"
# Exits nonzero and prints REGRESSION if 8 concurrent clients fail to
# beat 1 client by more than 2x throughput, or if any request fails.
cargo run -q -p coupling-bench --release --bin bench_serve -- --smoke

echo "==> loopback smoke (wire protocol over real sockets)"
cargo test -q -p system-tests --test net --test wire

echo "==> chaos pass (replica failover under seeded network faults)"
# Fixed-seed chaos: black-holed/reset/truncated/delayed connections via
# the in-process ChaosProxy. Deterministic — a failure here reproduces.
cargo test -q -p system-tests --test failover

echo "==> bench smoke (replica fan-out, writes BENCH_replica_smoke.json)"
# Exits nonzero and prints REGRESSION if any hedged read fails, the
# degraded-phase p99 exceeds hedge_delay + attempt_timeout (+slack), or
# black-holing the preferred replica never fires a hedge.
cargo run -q -p coupling-bench --release --bin bench_replica -- --smoke

echo "==> bench smoke (partitioned scatter/gather, writes BENCH_shard_smoke.json)"
# Exits nonzero and prints REGRESSION if any merged result diverges
# bit-for-bit from a single-node evaluation, any scattered read fails,
# or losing a partition fails warmed queries instead of serving stale.
cargo run -q -p coupling-bench --release --bin bench_shard -- --smoke

echo "==> bench smoke (wire protocol, writes BENCH_net_smoke.json)"
# Exits nonzero and prints REGRESSION if any request fails over the
# wire, any response has the wrong shape, or loopback throughput falls
# below 10% of in-process (catching protocol-level stalls).
cargo run -q -p coupling-bench --release --bin bench_net -- --smoke

echo "==> bench smoke (task batching, writes BENCH_tasks_smoke.json)"
# Exits nonzero and prints REGRESSION if batched ingest fails to beat
# the unbatched drain by more than 2x, any task fails, or the batched
# drain merges nothing.
cargo run -q -p coupling-bench --release --bin bench_tasks -- --smoke

echo "==> committed bench results untouched"
# Smoke runs write BENCH_<name>_smoke.json (gitignored); the committed
# full-run BENCH_<name>.json files must come out unchanged.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git diff --exit-code -- 'BENCH_*.json'
else
    echo "not a git checkout; skipped"
fi

echo "==> task-queue pass (batching, crash replay, torn ledgers)"
cargo test -q -p system-tests --test tasks

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."

#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test run.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: build --release =="
cargo build --release

echo "== tests (tier-1 + workspace, incl. the deterministic bench gates) =="
cargo test --workspace -q

echo "== crypto tests, optimised build (the SHA-1 kernel as perfbench compiles it) =="
cargo test --release -q -p proverguard-crypto

echo "== cached-verify allocation, digest-count and fleet-footprint tests, optimised build (allocation elision differs by profile) =="
cargo test --release -q --test cached_verify

echo "== gateway scale (event-driven reactor concurrency gate, emits BENCH_gateway_scale.json) =="
cargo run --release -q -p proverguard-bench --bin gateway_scale -- --ci

echo "== fleet verify bench (shared digest cache >= 5x wall-clock gate; its deterministic checks run in tier-1), emits BENCH_fleet_verify.json =="
cargo run --release -q -p proverguard-bench --bin fleet_verify_bench

echo "== perfbench build (standalone benchmark package) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench smoke (each workload, 2 s, exits non-zero on any correctness violation) =="
for workload in oneshot_whole session_history segmented_under_attack; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0
done

echo "== perfbench traced smoke (the layer probes, which verify a real Segmented report against segcache::combined_input) =="
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload segmented_under_attack --seed 1 --seconds 2 --trace 1

echo "CI green."

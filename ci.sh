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

echo "== tier-1: test =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== attest pipeline conformance (segcache / imagecache / golden vectors / session model) =="
cargo test -q --test segcache_coherence --test imagecache_coherence --test golden_vectors --test session_state_machine

echo "== chaos soak (short deterministic gate) =="
cargo run --release -q -p proverguard-bench --bin fleet_soak -- --ci

echo "== telemetry trace report (phase table vs cycle model) =="
cargo run --release -q -p proverguard-bench --bin trace_report -- --ci

echo "== segcache bench (incremental attestation gate, emits BENCH_segcache.json) =="
cargo run --release -q -p proverguard-bench --bin segcache_bench -- --ci

echo "== campaign soak (staged OTA rollout gate, emits BENCH_campaign.json) =="
cargo run --release -q -p proverguard-bench --bin campaign_soak -- --ci

echo "== toctou bench (epoch-log transient-malware gate, emits BENCH_toctou.json) =="
cargo run --release -q -p proverguard-bench --bin toctou_bench -- --ci

echo "== session bench (attested-session amortization + adversary gauntlet, emits BENCH_session.json) =="
cargo run --release -q -p proverguard-bench --bin session_bench -- --ci

echo "== gateway scale (event-driven reactor concurrency gate, emits BENCH_gateway_scale.json) =="
cargo run --release -q -p proverguard-bench --bin gateway_scale -- --ci

echo "== fleet verify bench (shared digest cache gate, emits BENCH_fleet_verify.json) =="
cargo run --release -q -p proverguard-bench --bin fleet_verify_bench -- --ci

echo "== perfbench build (standalone benchmark package) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench smoke (each workload, 2 s, exits non-zero on any correctness violation) =="
for workload in oneshot_whole session_history segmented_under_attack; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0
done

echo "CI green."

#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test run.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# Ratchet: the non-test gateway code may not gain panic sites. Lower the
# bound when a change removes some.
echo "== gateway panic sites (expect( / unwrap() / panic! above #[cfg(test)], at most 15) =="
panic_sites=0
for f in crates/attest/src/gateway/*.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { c += gsub(/expect\(|unwrap\(\)|panic!/, "") } END { print c + 0 }' "$f")
    echo "$f: $n"
    panic_sites=$((panic_sites + n))
done
if [ "$panic_sites" -gt 15 ]; then
    echo "gateway panic sites: $panic_sites, more than 15" >&2
    exit 1
fi

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

# The device rows are modelled cycle counts, so the smoke runs pin them.
# perfbench prints its JSON result as the last line of each run's log.
run_log=$(mktemp)
trap 'rm -f "$run_log"' EXIT
# expect_metric <result line> <metric> <awk expression> <tolerance>
# reads the metric off a result line and fails unless it is within the
# tolerance of the expression.
expect_metric() {
    local value
    value=$(grep -o "\"$2\": {\"value\": [^,}]*" <<<"$1" | sed 's/.*: //')
    if [ -z "$value" ] || ! awk -v v="$value" -v t="$4" "BEGIN { d = v - ($3); exit !(d <= t && -d <= t) }"; then
        echo "perfbench: $2 = ${value:-missing}, expected $3 (within $4)" >&2
        exit 1
    fi
}

echo "== perfbench smoke (each workload, 2 s, exits non-zero on any correctness violation) =="
for workload in oneshot_whole session_history segmented_under_attack; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tee "$run_log"
    result=$(tail -n 1 "$run_log")
    # prover_active_ms is device cycles per verified round at 24 MHz. The
    # segmented_under_attack row also carries a hostile-mix share that
    # depends on the window, so it is not pinned.
    case "$workload" in
        oneshot_whole) expect_metric "$result" prover_active_ms "18098872 / 24000" 1e-6 ;;
        session_history) expect_metric "$result" prover_active_ms "36208 / 24000" 1e-6 ;;
    esac
done

echo "== perfbench traced smoke (the layer probes, which verify a real Segmented report against segcache::combined_input) =="
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload segmented_under_attack --seed 1 --seconds 2 --trace 1 | tee "$run_log"
result=$(tail -n 1 "$run_log")
expect_metric "$result" prover.response_cycles 15312 0

echo "CI green."

//! Measures what the fleet-wide expected-image cache buys the verifier:
//! cost per verification as fleet size grows at a fixed number of
//! firmware versions (E15, DESIGN §17).
//!
//! Drives `proverguard_bench::fleet_verify::run_fleet` at 64, 256 and
//! 1 000 devices on 3 images of 128 KiB, prints the cost-per-device
//! curve, writes `BENCH_fleet_verify.json`, and exits 1 on any violated
//! invariant or unless the cached path is ≥ 5× cheaper than the uncached
//! reference at 1 000 devices. The deterministic checks (honest devices
//! accepted, a tampered response rejected, one interned key per image,
//! the conservation law, the hit rate) also run in tier-1
//! (`tests/bench_gates.rs::fleet_verify_gate_holds`); the speedup is a
//! wall-clock ratio, so only this release binary in `ci.sh` gates it.
//!
//! ```sh
//! cargo run --release -p proverguard-bench --bin fleet_verify_bench
//! ```

use proverguard_bench::fleet_verify::{
    self, Fleet, CACHED_ROUNDS, CHECK_DEVICES, IMAGES, IMAGE_LEN, MIN_HIT_RATE, SEED,
    UNCACHED_ROUNDS,
};
use proverguard_bench::{finish, render_table, Rows};

/// Gate: cached cost per verification must be at most 1/5 of the
/// uncached cost at the largest fleet size.
const MIN_SPEEDUP: f64 = 5.0;

fn bench_rows(fleets: &[Fleet], violations: usize) -> Rows {
    let mut rows = Rows::new("fleet_verify", SEED);
    for (metric, value, unit) in [
        ("images", IMAGES as f64, "images"),
        ("image_len", IMAGE_LEN as f64, "bytes"),
        ("cached_rounds", CACHED_ROUNDS as f64, "rounds"),
        ("uncached_rounds", UNCACHED_ROUNDS as f64, "rounds"),
        ("min_speedup", MIN_SPEEDUP, "ratio"),
        ("min_hit_rate", MIN_HIT_RATE, "ratio"),
        ("violations", violations as f64, "count"),
    ] {
        rows.push(metric, value, unit);
    }
    for r in fleets {
        let name = |field: &str| format!("devices[{}].{field}", r.devices);
        rows.push(name("cached_ns_per_verify"), r.cached_ns, "ns");
        rows.push(name("uncached_ns_per_verify"), r.uncached_ns, "ns");
        rows.push(name("speedup"), r.speedup(), "ratio");
        rows.push(name("hit_rate"), r.hit_rate, "ratio");
        rows.push(name("digest_sweeps"), r.digest_sweeps as f64, "count");
        rows.push(name("scratch_rebuilds"), r.scratch_rebuilds as f64, "count");
    }
    rows
}

fn main() {
    let mut violations = Vec::new();
    let mut rows = Vec::new();
    for devices in [CHECK_DEVICES, 256, 1000] {
        let report = fleet_verify::run_fleet(devices, IMAGE_LEN);
        violations.extend(report.violations);
        rows.push(report.fleet);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.devices),
                format!("{:.1}", r.uncached_ns / 1000.0),
                format!("{:.1}", r.cached_ns / 1000.0),
                format!("{:.1}x", r.speedup()),
                format!("{:.2}%", r.hit_rate * 100.0),
                format!("{}", r.digest_sweeps),
            ]
        })
        .collect();
    println!(
        "fleet verification cost per device ({IMAGES} firmware images, \
         {IMAGE_LEN} B expected images)\n"
    );
    println!(
        "{}",
        render_table(
            &[
                "devices",
                "uncached us",
                "cached us",
                "speedup",
                "hit rate",
                "sweeps"
            ],
            &table,
            &[8, 12, 10, 8, 9, 7],
        )
    );
    println!(
        "verifying N same-image devices costs N outer MACs + {IMAGES} digest sweeps\n\
         total — the per-device curve flattens instead of re-sweeping per attempt."
    );

    // The wall-clock gate judges the largest fleet.
    let largest = rows.last().expect("at least one fleet size");
    if largest.speedup() < MIN_SPEEDUP {
        violations.push(format!(
            "cached path only {:.2}x cheaper than uncached at {} devices (gate {MIN_SPEEDUP}x)",
            largest.speedup(),
            largest.devices
        ));
    }

    finish(
        Some(&bench_rows(&rows, violations.len())),
        violations,
        "FLEET VERIFY INVARIANT VIOLATION",
        "all fleet-verify invariants held",
    );
}

//! Chaos soak across a simulated fleet: N provers behind seeded faulty
//! channels, a per-round forgery flood at every device, verifier-side
//! circuit breakers + bounded-concurrency scheduling, prover-side
//! admission control — the fleet-scale version of the paper's Table 1
//! DoS economics.
//!
//! Compares defence configurations and prints fleet-level throughput and
//! energy burn per configuration. The short deterministic liveness gate
//! (`SoakConfig::ci()`, seed recorded in EXPERIMENTS.md) is the tier-1
//! test `tests/chaos_soak.rs::ci_soak_holds_every_liveness_invariant`.

use proverguard_adversary::soak::{run_soak, SoakConfig, SoakReport};
use proverguard_bench::render_table;

/// The comparison ladder: each rung strips one defence layer.
fn configurations() -> Vec<SoakConfig> {
    let base = SoakConfig {
        label: "auth + admission (defended)".to_string(),
        devices: 6,
        compromised_devices: 1,
        faulty_devices: 2,
        rounds: 15,
        ..SoakConfig::ci()
    };
    let auth_only = SoakConfig {
        label: "auth only (no admission)".to_string(),
        admission: None,
        ..base.clone()
    };
    let undefended = SoakConfig {
        label: "undefended (open prover)".to_string(),
        admission: None,
        config: proverguard_attest::prover::ProverConfig::unprotected(),
        ..base.clone()
    };
    vec![base, auth_only, undefended]
}

fn summarize(report: &SoakReport) -> Vec<String> {
    let min_battery = report
        .devices
        .iter()
        .map(|d| d.min_battery_fraction)
        .fold(1.0f64, f64::min);
    let throttled: u64 = report.devices.iter().map(|d| d.throttled).sum();
    let trips: u64 = report.devices.iter().map(|d| d.breaker_trips).sum();
    vec![
        report.label.clone(),
        format!("{}/{}", report.total_successes, report.total_sessions),
        format!("{}", report.total_flood),
        format!("{throttled}"),
        format!("{:.3}", report.fleet_energy_joules),
        format!("{:.0} %", min_battery * 100.0),
        format!("{trips}"),
        format!("{}", report.violations.len()),
    ]
}

fn main() {
    println!("fleet chaos soak — defence-configuration comparison\n");
    let mut rows = Vec::new();
    let mut all_violations = Vec::new();
    for cfg in configurations() {
        let report = run_soak(&cfg).expect("soak provisions");
        rows.push(summarize(&report));
        for v in &report.violations {
            all_violations.push(format!("[{}] {v}", report.label));
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "configuration",
                "attested",
                "forgeries",
                "shed",
                "J burned",
                "min battery",
                "trips",
                "violations"
            ],
            &rows,
            &[28, 10, 10, 8, 10, 12, 6, 10],
        )
    );
    println!("reading the table:");
    println!("  - the defended fleet sheds the flood before MAC work and keeps");
    println!("    every battery above the floor while honest devices attest;");
    println!("  - stripping auth turns every forgery into a ~754 ms memory MAC,");
    println!("    so the open fleet burns orders of magnitude more energy and");
    println!("    breaches the energy floor — the Table 1 economics, fleet-wide.");
    if !all_violations.is_empty() {
        println!("\nliveness violations observed (expected for undefended rungs):");
        for v in &all_violations {
            println!("  - {v}");
        }
    }
}

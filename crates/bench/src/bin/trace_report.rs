//! The prover pipeline's per-phase cycle table (parse → admission → auth
//! → freshness → attest-MAC), cross-checked against the cycle model by
//! [`proverguard_bench::trace_report`]; exits 1 on any violated
//! telemetry invariant. `--jsonl PATH` / `--chrome PATH` also export the
//! trace.

use proverguard_bench::finish;
use proverguard_bench::trace_report::{self, FORGERIES, GARBAGE, SESSIONS};
use proverguard_mcu::CLOCK_HZ;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let report = trace_report::run();
    let stats = report.stats;

    if let Some(path) = path_after("--jsonl") {
        std::fs::write(&path, proverguard_telemetry::to_jsonl(&report.events))
            .expect("write jsonl");
        println!("wrote {} events to {path}", report.events.len());
    }
    if let Some(path) = path_after("--chrome") {
        std::fs::write(
            &path,
            proverguard_telemetry::to_chrome_trace(&report.events, CLOCK_HZ),
        )
        .expect("write chrome trace");
        println!("wrote Chrome trace to {path} (open in chrome://tracing)");
    }

    println!(
        "trace report — {SESSIONS} sessions, {FORGERIES} forgeries, {GARBAGE} garbage blobs \
         ({} requests seen, {} accepted)\n",
        stats.requests_seen, stats.accepted
    );
    println!(
        "prover pipeline phases (device cycles @ {} MHz):",
        CLOCK_HZ / 1_000_000
    );
    println!("{}", report.prover_phases.render(CLOCK_HZ));
    println!("host crypto primitives (call counts; spans ride the device clock):");
    println!("{}", report.crypto_phases.render(CLOCK_HZ));
    println!("metrics:");
    println!("{}", report.metrics.render());

    if let Some((measured, model)) = report.attest_mac {
        println!(
            "attest-MAC cross-check: measured {measured} cycles/call vs model {model} \
             ({:.4} % deviation)",
            trace_report::deviation((measured, model)) * 100.0
        );
    }
    if report.quiet_cycles == stats.attestation_cycles {
        println!(
            "disabled-tracer overhead: 0 cycles ({} == {})",
            stats.attestation_cycles, report.quiet_cycles
        );
    }

    println!();
    finish(
        None,
        report.violations,
        "TELEMETRY VIOLATION",
        "all telemetry invariants held",
    );
}

//! E12 table ([`proverguard_bench::toctou`]): the transient-malware
//! detection matrix per attestation scope and the History round costs.
//! Writes `BENCH_toctou.json`; exits 1 on any violated invariant.
//!
//! ```sh
//! cargo run --release -p proverguard-bench --bin toctou_bench
//! ```

use proverguard_bench::{finish, fmt_ms, render_table, toctou};

fn main() {
    let report = toctou::run();
    let costs = &report.costs;

    let rows: Vec<Vec<String>> = report
        .matrix
        .iter()
        .map(|r| {
            vec![
                r.scope.to_string(),
                if r.verified_after_strike {
                    "pass"
                } else {
                    "FAIL"
                }
                .to_string(),
                if r.detected { "DETECTED" } else { "missed" }.to_string(),
            ]
        })
        .collect();
    println!("transient malware (infect / act / restore between rounds)\n");
    println!(
        "{}",
        render_table(&["scope", "verifies", "strike"], &rows, &[12, 10, 10],)
    );
    println!(
        "history round cost: bootstrap (full coverage) {} cycles ({}), quiescent\n\
         {} cycles ({}) = {:.2}% of full; post-strike {} cycles.",
        costs.bootstrap.response_cycles,
        fmt_ms(costs.bootstrap.total_ms()),
        costs.quiescent.response_cycles,
        fmt_ms(costs.quiescent.total_ms()),
        costs.ratio() * 100.0,
        costs.strike.response_cycles,
    );

    finish(
        Some(&report.rows()),
        report.violations,
        "TOCTOU INVARIANT VIOLATION",
        "all toctou invariants held",
    );
}

//! E10 table ([`proverguard_bench::segcache`]): device cycles per
//! attestation vs dirty fraction, next to the whole-memory baseline.
//! Writes `BENCH_segcache.json`; exits 1 on any violated invariant.
//!
//! ```sh
//! cargo run --release -p proverguard-bench --bin segcache_bench
//! ```

use proverguard_bench::{finish, fmt_ms, render_table, segcache};

fn main() {
    let report = segcache::run();
    let full_cycles = report.full_cycles;
    let whole_cycles = report.whole_cycles;

    let rows: Vec<Vec<String>> = report
        .rounds
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}", r.cost.mac_recomputed_segments),
                format!("{}", r.cost.mac_cached_segments),
                format!("{}", r.cost.response_cycles),
                fmt_ms(r.cost.total_ms()),
                format!(
                    "{:.1}%",
                    r.cost.response_cycles as f64 / full_cycles as f64 * 100.0
                ),
            ]
        })
        .collect();
    println!("incremental segmented attestation: cycles vs dirty fraction\n");
    println!(
        "{}",
        render_table(
            &[
                "round",
                "recomputed",
                "cached",
                "cycles",
                "resp ms",
                "vs full"
            ],
            &rows,
            &[18, 10, 8, 12, 10, 8],
        )
    );
    println!(
        "whole-memory MAC baseline (no cache possible): {whole_cycles} cycles — the\n\
         segmented full sweep costs {:.1}% of it; a quiescent warm round costs {:.2}%.",
        full_cycles as f64 / whole_cycles as f64 * 100.0,
        report.rounds[1].cost.response_cycles as f64 / whole_cycles as f64 * 100.0,
    );

    finish(
        Some(&report.rows()),
        report.violations,
        "SEGCACHE INVARIANT VIOLATION",
        "all segcache invariants held",
    );
}

//! E13 table ([`proverguard_bench::session`]): prover cycles of a cold
//! one-shot, the attested handshake and sealed in-session rounds, plus
//! the adversary gauntlet against a loopback gateway. Writes
//! `BENCH_session.json`; exits 1 on any violated invariant.
//!
//! ```sh
//! cargo run --release -p proverguard-bench --bin session_bench
//! ```

use proverguard_bench::session;
use proverguard_bench::{finish, fmt_ms, render_table};
use proverguard_mcu::cycles::cycles_to_ms;

fn main() {
    let report = session::run();
    let costs = &report.costs;

    let pct = |cycles: u64| format!("{:.2}%", cycles as f64 / costs.cold_cycles as f64 * 100.0);
    let rows = vec![
        vec![
            "cold one-shot (full)".to_string(),
            costs.cold_cycles.to_string(),
            fmt_ms(cycles_to_ms(costs.cold_cycles)),
            "100%".to_string(),
        ],
        vec![
            "handshake (attested)".to_string(),
            costs.handshake_cycles.to_string(),
            fmt_ms(cycles_to_ms(costs.handshake_cycles)),
            pct(costs.handshake_cycles),
        ],
        vec![
            "round 1 (bootstrap)".to_string(),
            costs.bootstrap_cycles.to_string(),
            fmt_ms(cycles_to_ms(costs.bootstrap_cycles)),
            pct(costs.bootstrap_cycles),
        ],
        vec![
            "round 2+ (quiescent)".to_string(),
            costs.quiescent_cycles.to_string(),
            fmt_ms(cycles_to_ms(costs.quiescent_cycles)),
            pct(costs.quiescent_cycles),
        ],
    ];
    println!("attested session amortization (prover cycles, 24 MHz device)\n");
    println!(
        "{}",
        render_table(&["leg", "cycles", "ms", "vs cold"], &rows, &[22, 12, 10, 9])
    );
    println!(
        "{} sealed rounds, rekey cadence {}: {} lockstep rekeys, ratchet never desynced.",
        session::ROUNDS,
        session::REKEY_AFTER,
        costs.rekeys
    );
    let s = &report.attacks;
    println!(
        "adversary gauntlet: {} attack dials, {} rejected, {} accepted, {} key\n\
         derivations under attack; honest device re-converged {}/{}.",
        s.attempts,
        s.rejected,
        s.accepted,
        s.derives_during_attack,
        s.honest_recovered,
        session::SUITE_PROBES
    );

    finish(
        Some(&report.rows()),
        report.violations,
        "SESSION INVARIANT VIOLATION",
        "all session invariants held",
    );
}

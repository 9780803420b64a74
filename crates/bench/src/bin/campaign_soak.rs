//! E11 table ([`proverguard_bench::campaign`]): a lossy 2,000-device
//! OTA rollout and a bad-canary rollback, deterministic from the seed.
//! Writes `BENCH_campaign.json`; exits 1 on any violated invariant.
//!
//! ```sh
//! cargo run --release -p proverguard-bench --bin campaign_soak
//! ```

use proverguard_bench::{campaign, finish, render_table};

fn main() {
    let report = campaign::run();
    let (lossy, bad) = (&report.lossy, &report.bad);

    let rows: Vec<Vec<String>> = [lossy, bad]
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}", r.devices),
                format!("{:?}", r.phase),
                format!("{}", r.ticks),
                format!("{}", r.stats.waves_started),
                format!("{}", r.stats.healthy),
                format!("{}", r.stats.rolled_back),
                format!("{}", r.stats.quarantined),
                format!("{}", r.stats.failed),
                format!("{}", r.stats.torn_events),
                format!("{}", r.stats.parked_events),
            ]
        })
        .collect();
    println!(
        "attestation-gated OTA campaign soak (seed {:#x})\n",
        campaign::SEED
    );
    println!(
        "{}",
        render_table(
            &[
                "scenario", "devices", "phase", "ticks", "waves", "healthy", "rolledbk", "quarant",
                "failed", "torn", "parked",
            ],
            &rows,
            &[18, 8, 12, 6, 6, 8, 9, 8, 7, 5, 7],
        )
    );
    println!(
        "lossy rollout: {} update + {} attest actions, {} fresh command counters minted \
         (zero reuse); phase spans partition all {} ticks.",
        lossy.stats.update_actions, lossy.stats.attest_actions, lossy.counters_minted, lossy.ticks
    );
    println!(
        "bad canary: halted in wave 1 and re-attested the old image on {} of {} devices \
         ({} exhausted their retry budget).",
        bad.stats.rolled_back, bad.devices, bad.stats.failed
    );

    finish(
        Some(&report.rows()),
        report.violations,
        "CAMPAIGN INVARIANT VIOLATION",
        "all campaign invariants held",
    );
}

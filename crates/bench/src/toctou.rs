//! E12: the epoch-log defence against transient (TOCTOU) malware — the
//! detection matrix across attestation scopes, and what a `History`
//! round costs relative to a full sweep.
//!
//! The adversary infects a segment of the application image, acts, and
//! restores the original bytes between rounds. Content sweeps (`Whole`,
//! `Segmented`) see pristine memory and verify — time-of-check vs
//! time-of-use. A `History` round reports the authenticated set of
//! segments *written* since the last verified round, so the restore
//! cannot hide the write event — and because it ships a bitmap plus
//! fresh digests only for modified segments, a quiescent round costs a
//! tiny fraction of a full sweep.
//!
//! The gate: the transient strike defeats `Whole` and `Segmented` but is
//! flagged by `History`, and a quiescent History round costs < 3 % of
//! the cold full sweep.

use proverguard_adversary::toctou::{toctou_alarm, TransientMalware};
use proverguard_adversary::world::World;
use proverguard_attest::prover::{CostBreakdown, ProverConfig};
use proverguard_attest::verifier::ScopePolicy;
use proverguard_mcu::DEFAULT_SEGMENT_LEN;

use crate::Rows;

/// Acceptance threshold: a quiescent History round must cost less than
/// this fraction of the cold full sweep (recorded in EXPERIMENTS.md E12).
pub const MAX_RATIO: f64 = 0.03;

/// One scope's fate against the infect/act/restore adversary.
#[derive(Debug)]
pub struct MatrixRow {
    /// `whole`, `segmented` or `history`.
    pub scope: &'static str,
    /// Whether the round after the strike verified.
    pub verified_after_strike: bool,
    /// Whether the TOCTOU alarm fired.
    pub detected: bool,
}

/// The prover's cost breakdown of each measured History round.
#[derive(Debug)]
pub struct Costs {
    /// The cold bootstrap round (full coverage).
    pub bootstrap: CostBreakdown,
    /// A quiescent warm round.
    pub quiescent: CostBreakdown,
    /// A warm round right after a strike.
    pub strike: CostBreakdown,
}

impl Costs {
    /// Quiescent round cost as a fraction of the full sweep.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.quiescent.response_cycles as f64 / self.bootstrap.response_cycles as f64
    }
}

/// The detection matrix, the costs and every violated invariant.
#[derive(Debug)]
pub struct Report {
    /// One row per scope.
    pub matrix: Vec<MatrixRow>,
    /// History-round costs.
    pub costs: Costs,
    /// Every invariant that failed; empty when the gate holds.
    pub violations: Vec<String>,
}

impl Report {
    /// The `BENCH_toctou.json` rows.
    #[must_use]
    pub fn rows(&self) -> Rows {
        let cycles = |cost: &CostBreakdown| cost.response_cycles as f64;
        let c = &self.costs;
        let mut rows = Rows::new("toctou", 0);
        for (metric, value, unit) in [
            ("threshold_ratio", MAX_RATIO, "ratio"),
            ("full_sweep_cycles", cycles(&c.bootstrap), "cycles"),
            ("quiescent_history_cycles", cycles(&c.quiescent), "cycles"),
            ("quiescent_ratio_vs_full", c.ratio(), "ratio"),
            ("post_strike_history_cycles", cycles(&c.strike), "cycles"),
        ] {
            rows.push(metric, value, unit);
        }
        for row in &self.matrix {
            let name = |field: &str| format!("detection[{}].{field}", row.scope);
            let verified = row.verified_after_strike;
            rows.push(name("verified_after_strike"), verified.into(), "bool");
            rows.push(name("detected"), row.detected.into(), "bool");
        }
        rows
    }
}

/// Drives one attestation round end to end, including the verifier-side
/// bookkeeping hooks a session link would call.
fn round(world: &mut World) -> bool {
    let request = world.verifier.make_request().expect("request");
    let Ok(response) = world.prover.handle_request(&request) else {
        world.verifier.note_failed(&request);
        return false;
    };
    let expected = world.prover.expected_memory().to_vec();
    let ok = world
        .verifier
        .check_response(&request, &response, &expected);
    if ok {
        world.verifier.note_verified(&request, &response, &expected);
    } else {
        world.verifier.note_failed(&request);
    }
    ok
}

/// Runs baseline round → strike → post-strike round under `config`, and
/// reports whether the post-strike round verified and whether the TOCTOU
/// alarm fired.
fn matrix_row(
    scope: &'static str,
    config: ProverConfig,
    policy: Option<ScopePolicy>,
    violations: &mut Vec<String>,
) -> MatrixRow {
    let mut world = World::new(config).expect("provision");
    if let Some(policy) = policy {
        world.verifier.set_scope_policy(policy);
    }
    if !round(&mut world) {
        violations.push(format!("{scope}: baseline round failed"));
    }
    let mut malware = TransientMalware::default();
    malware.strike(&mut world).expect("strike");
    let verified = round(&mut world);
    let detected = world
        .verifier
        .last_history()
        .is_some_and(|outcome| toctou_alarm(outcome, seg_len(&world)));
    MatrixRow {
        scope,
        verified_after_strike: verified,
        detected,
    }
}

fn seg_len(world: &World) -> u32 {
    world
        .prover
        .segment_cache()
        .map_or(DEFAULT_SEGMENT_LEN, |c| c.segment_len() as u32)
}

/// Measures History-round costs: the cold bootstrap (full coverage), a
/// quiescent warm round, and a warm round right after a strike.
fn measure_costs(violations: &mut Vec<String>) -> Costs {
    let mut world = World::new(ProverConfig::recommended_segmented()).expect("provision");
    world
        .verifier
        .set_scope_policy(ScopePolicy::History { full_every: 0 });

    // Bootstrap: History { since_round: 0 } recomputes every segment —
    // this is the full sweep every later round is judged against.
    if !round(&mut world) {
        violations.push("history bootstrap round failed".to_string());
    }
    let bootstrap = *world.prover.last_cost();

    // Quiescent: nothing wrote app RAM since; only the freshness-commit
    // segment re-digests.
    if !round(&mut world) {
        violations.push("quiescent history round failed".to_string());
    }
    let quiescent = *world.prover.last_cost();

    // Post-strike: one more segment in the modified set.
    TransientMalware::default()
        .strike(&mut world)
        .expect("strike");
    if !round(&mut world) {
        violations.push("post-strike history round failed".to_string());
    }
    Costs {
        bootstrap,
        quiescent,
        strike: *world.prover.last_cost(),
    }
}

/// Runs the detection matrix and the History cost rounds.
#[must_use]
pub fn run() -> Report {
    let mut violations = Vec::new();

    let matrix = vec![
        matrix_row("whole", ProverConfig::recommended(), None, &mut violations),
        matrix_row(
            "segmented",
            ProverConfig::recommended_segmented(),
            None,
            &mut violations,
        ),
        matrix_row(
            "history",
            ProverConfig::recommended_segmented(),
            Some(ScopePolicy::History { full_every: 0 }),
            &mut violations,
        ),
    ];
    let costs = measure_costs(&mut violations);

    // The matrix is the point: every scope verifies the restored memory,
    // only History sees the write events.
    for row in &matrix {
        if !row.verified_after_strike {
            violations.push(format!(
                "{}: restored memory failed verification (content is pristine)",
                row.scope
            ));
        }
        let should_detect = row.scope == "history";
        if row.detected != should_detect {
            violations.push(format!(
                "{}: detected={} (expected {})",
                row.scope, row.detected, should_detect
            ));
        }
    }
    let ratio = costs.ratio();
    if ratio >= MAX_RATIO {
        violations.push(format!(
            "quiescent history round cost {:.2}% of a full sweep (budget {:.0}%)",
            ratio * 100.0,
            MAX_RATIO * 100.0
        ));
    }

    Report {
        matrix,
        costs,
        violations,
    }
}

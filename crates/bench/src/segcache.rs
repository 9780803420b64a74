//! E10: what the segment cache buys — device cycles per attestation as a
//! function of how much RAM changed since the last round.
//!
//! The paper's §3.1 whole-memory MAC costs ~754 ms on the reference MCU
//! *every* round, even when nothing changed. The segmented prover
//! re-digests only dirty segments, so a mostly-idle device answers in a
//! small fraction of that.
//!
//! The gate: repeat attestation with 1/16 of the segments dirty must
//! cost < 15 % of a full sweep, and on every round (including seeded
//! random write storms) the served digests must equal a from-scratch
//! recomputation.

use proverguard_attest::prover::{CostBreakdown, Prover, ProverConfig};
use proverguard_attest::segcache::segment_digests;
use proverguard_attest::verifier::Verifier;
use proverguard_mcu::map;

use crate::{splitmix64, Rows};

const KEY: [u8; 16] = [0x42; 16];

/// Acceptance threshold: a 1/16-dirty round must cost less than this
/// fraction of the cold full sweep (recorded in EXPERIMENTS.md E10).
pub const MAX_RATIO: f64 = 0.15;

/// Seed for the randomized write-storm rounds.
pub const SEED: u64 = 0x5E6C_AC4E;

/// Write-storm rounds after the dirty-fraction sweep.
const STORM_ROUNDS: usize = 24;

/// One measured round of the dirty-fraction sweep.
#[derive(Debug)]
pub struct Round {
    /// Row label (`cold (full sweep)`, `k/N dirty`).
    pub label: String,
    /// App segments scribbled on before the round.
    pub dirty_segments: usize,
    /// The prover's cost breakdown for the round.
    pub cost: CostBreakdown,
}

/// The sweep, the whole-memory baseline and every violated invariant.
#[derive(Debug)]
pub struct Report {
    /// Cold round, then the warm rounds at increasing dirty fractions.
    pub rounds: Vec<Round>,
    /// Response cycles of the cold full sweep.
    pub full_cycles: u64,
    /// Response cycles of the paper's whole-memory MAC on the same image.
    pub whole_cycles: u64,
    /// Every invariant that failed; empty when the gate holds.
    pub violations: Vec<String>,
}

impl Report {
    /// The `BENCH_segcache.json` rows.
    #[must_use]
    pub fn rows(&self) -> Rows {
        let full = self.full_cycles as f64;
        let mut rows = Rows::new("segcache", SEED);
        rows.push("threshold_ratio", MAX_RATIO, "ratio");
        rows.push("full_sweep_cycles", full, "cycles");
        rows.push(
            "whole_memory_mac_cycles",
            self.whole_cycles as f64,
            "cycles",
        );
        for r in &self.rounds {
            let name = |field: &str| format!("round[{}].{field}", r.label);
            let cost = &r.cost;
            let cycles = cost.response_cycles as f64;
            rows.push(name("dirty_segments"), r.dirty_segments as f64, "segments");
            rows.push(
                name("recomputed"),
                cost.mac_recomputed_segments.into(),
                "segments",
            );
            rows.push(name("cached"), cost.mac_cached_segments.into(), "segments");
            rows.push(name("cycles"), cycles, "cycles");
            rows.push(name("ratio_vs_full"), cycles / full, "ratio");
        }
        rows
    }
}

fn pair() -> (Prover, Verifier) {
    let config = ProverConfig::recommended_segmented();
    let prover = Prover::provision(config.clone(), &KEY, b"segcache bench app").expect("provision");
    let verifier = Verifier::new(&config, &KEY).expect("verifier");
    (prover, verifier)
}

/// One attestation with the coherence oracle: the verifier must accept
/// and the cache must match a from-scratch recomputation.
fn attest(prover: &mut Prover, verifier: &mut Verifier, violations: &mut Vec<String>) -> u64 {
    let request = verifier.make_request().expect("request");
    let response = prover.handle_request(&request).expect("accepted");
    if !verifier.check_response(&request, &response, prover.expected_memory()) {
        violations.push("segmented response failed verification".to_string());
    }
    let cache = prover.segment_cache().expect("segmented prover");
    let oracle = segment_digests(prover.expected_memory(), cache.segment_len());
    match cache.all() {
        Some(cached) if cached == oracle => {}
        Some(_) => violations.push("cached digests diverge from from-scratch oracle".to_string()),
        None => violations.push("cache incomplete after attestation".to_string()),
    }
    let cost = prover.last_cost();
    if cost.mac_recomputed_segments as usize + cost.mac_cached_segments as usize
        != cache.segment_count()
    {
        violations.push(format!(
            "cost partition broken: {} recomputed + {} cached != {} segments",
            cost.mac_recomputed_segments,
            cost.mac_cached_segments,
            cache.segment_count()
        ));
    }
    cost.response_cycles
}

/// Dirties `count` distinct app-RAM segments (never the reserved head,
/// whose freshness segment the commit dirties on every round anyway).
fn dirty_segments(prover: &mut Prover, count: usize) {
    let layout = prover.mcu().segment_layout();
    let first = layout.index_of((map::APP_RAM.start - map::RAM.start) as usize);
    assert!(first + count <= layout.count(), "app-RAM segments only");
    for i in 0..count {
        let addr = map::RAM.start + layout.span(first + i).start as u32 + 64;
        prover
            .mcu_mut()
            .bus_write(addr, &[0xA5], map::APP_CODE)
            .expect("app write");
    }
}

/// Runs the sweep, the whole-memory baseline and the seeded write storms.
#[must_use]
pub fn run() -> Report {
    let mut violations = Vec::new();
    let (mut prover, mut verifier) = pair();
    let segment_count = prover.segment_cache().expect("segmented").segment_count();

    // Round 0: cold cache — the full sweep every later round is judged
    // against.
    let full_cycles = attest(&mut prover, &mut verifier, &mut violations);
    let mut rounds = vec![Round {
        label: "cold (full sweep)".to_string(),
        dirty_segments: segment_count,
        cost: *prover.last_cost(),
    }];

    // Warm rounds at increasing dirty fractions. `k` counts app segments
    // scribbled on; the counter segment recomputes on top of that.
    for k in [
        0usize,
        segment_count / 16,
        segment_count / 4,
        segment_count / 2,
    ] {
        dirty_segments(&mut prover, k);
        attest(&mut prover, &mut verifier, &mut violations);
        rounds.push(Round {
            label: format!("{k}/{segment_count} dirty"),
            dirty_segments: k,
            cost: *prover.last_cost(),
        });
    }

    // The whole-memory baseline: the same image under the paper's
    // construction, which has no cache to warm.
    let whole_config = ProverConfig::recommended();
    let mut whole_prover =
        Prover::provision(whole_config.clone(), &KEY, b"segcache bench app").expect("provision");
    let mut whole_verifier = Verifier::new(&whole_config, &KEY).expect("verifier");
    let wreq = whole_verifier.make_request().expect("request");
    let wresp = whole_prover.handle_request(&wreq).expect("accepted");
    if !whole_verifier.check_response(&wreq, &wresp, whole_prover.expected_memory()) {
        violations.push("whole-memory baseline failed verification".to_string());
    }
    let whole_cycles = whole_prover.last_cost().response_cycles;

    // Gate 1: the 1/16-dirty warm round beats the threshold.
    let sparse = &rounds[2];
    assert_eq!(sparse.dirty_segments, segment_count / 16);
    let ratio = sparse.cost.response_cycles as f64 / full_cycles as f64;
    if ratio >= MAX_RATIO {
        violations.push(format!(
            "1/16-dirty round cost {:.1}% of a full sweep (budget {:.0}%)",
            ratio * 100.0,
            MAX_RATIO * 100.0
        ));
    }
    // Gate 2: seeded random write storms — arbitrary offsets, lengths
    // and straddled boundaries — never desynchronize cache and RAM.
    let mut rng = SEED;
    for _ in 0..STORM_ROUNDS {
        let word = splitmix64(&mut rng);
        match word % 5 {
            4 => {
                prover.reboot().expect("reboot");
            }
            _ => {
                let span = u64::from(map::RAM.end - map::APP_RAM.start - 600);
                let off = map::APP_RAM.start + ((word >> 8) % span) as u32;
                let len = 1 + (word >> 40) as usize % 512;
                prover
                    .mcu_mut()
                    .bus_write(off, &vec![word as u8; len], map::APP_CODE)
                    .expect("app write");
            }
        }
        attest(&mut prover, &mut verifier, &mut violations);
    }

    Report {
        rounds,
        full_cycles,
        whole_cycles,
        violations,
    }
}

//! E11: the attestation-gated OTA campaign engine soaked at fleet
//! scale — a staged rollout over thousands of simulated devices behind
//! the lossy-radio fault schedule, with torn flashes, roaming devices
//! and a few compromised provers mixed in.
//!
//! Two scenarios run, both fully deterministic from the seed:
//!
//! 1. **Lossy rollout** — 2,000 devices under 300 ‰ drops / 200 ‰
//!    delays, 5 ‰ torn flashes, 10 ‰ roaming, four compromised devices.
//!    The campaign must converge within the tick budget, no device may
//!    be `Healthy` without actually holding the new image, every
//!    compromised device must end quarantined, and every `UpdateFirmware`
//!    retry must have minted a *fresh* command counter from the real
//!    verifier (zero reuse).
//! 2. **Bad canary image** — the new image attests as neither image.
//!    The campaign must auto-halt before the second wave ever starts and
//!    roll the whole admitted fleet back to a re-attested old image.
//!
//! Both scenarios also check the telemetry contract: the campaign's
//! phase spans must partition the campaign's total tick span exactly —
//! every tick is attributed to exactly one phase.

use std::collections::HashSet;

use proverguard_adversary::campaign::{CampaignSimConfig, SimFlash, SimFleet};
use proverguard_attest::campaign::{
    CampaignAction, CampaignConfig, CampaignController, CampaignPhase, CampaignStats,
    DeviceOutcome, DeviceState,
};
use proverguard_attest::prover::ProverConfig;
use proverguard_attest::services::Command;
use proverguard_attest::verifier::Verifier;
use proverguard_telemetry::trace::{self, TraceEvent};

use crate::Rows;

/// The fixed seed (recorded in EXPERIMENTS.md E11): change it and the
/// deterministic campaign gate is a different experiment.
pub const SEED: u64 = 0xC0DE_07A5;

/// Fleet size for the lossy rollout.
const DEVICES: usize = 2_000;

/// Convergence budget, in campaign ticks.
const TICK_BUDGET: u64 = 400;

const KEY: [u8; 16] = [0x42; 16];

/// Campaign tuning shared by both scenarios: an 8-device canary growing
/// 4× per wave; per-device budgets sized for a 44 % per-action timeout
/// rate; a sluggish failure EWMA (α = 0.1) so scattered losses never
/// halt, while a failing canary (≥ 8 consecutive settlements) does.
fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        canary_size: 8,
        wave_growth: 4,
        max_attempts: 6,
        halt_failure_ewma: 0.5,
        ewma_alpha: 0.1,
        min_halt_samples: 8,
        breaker_trip_halt: u64::MAX, // EWMA is the halt signal under soak
        wave_deadline: 10,
        max_inflight: 4_096,
        ..CampaignConfig::default()
    }
}

/// One campaign's outcome.
#[derive(Debug)]
pub struct Run {
    /// Scenario label.
    pub label: String,
    /// Fleet size.
    pub devices: usize,
    /// Terminal phase (or the phase at the tick budget).
    pub phase: CampaignPhase,
    /// Ticks the campaign ran.
    pub ticks: u64,
    /// The controller's counters at the end of the run.
    pub stats: CampaignStats,
    /// Distinct command counters the verifier minted.
    pub counters_minted: usize,
    /// Ticks per campaign phase, in order.
    pub phase_spans: Vec<(String, u64)>,
}

/// Both scenarios and every violated invariant.
#[derive(Debug)]
pub struct Report {
    /// Scenario 1: the lossy rollout at fleet scale.
    pub lossy: Run,
    /// Scenario 2: the canary flashes a bad image.
    pub bad: Run,
    /// Every invariant that failed; empty when the gate holds.
    pub violations: Vec<String>,
}

impl Report {
    /// The `BENCH_campaign.json` rows.
    #[must_use]
    pub fn rows(&self) -> Rows {
        let mut rows = Rows::new("campaign", SEED);
        rows.push("tick_budget", TICK_BUDGET as f64, "ticks");
        for r in [&self.lossy, &self.bad] {
            let name = |field: &str| format!("{}.{field}", r.label);
            let st = &r.stats;
            for (field, value, unit) in [
                ("devices", r.devices as u64, "devices"),
                ("ticks", r.ticks, "ticks"),
                ("healthy", st.healthy, "devices"),
                ("failed", st.failed, "devices"),
                ("quarantined", st.quarantined, "devices"),
                ("rolled_back", st.rolled_back, "devices"),
                ("torn_events", st.torn_events, "events"),
                ("parked_events", st.parked_events, "events"),
                ("update_actions", st.update_actions, "actions"),
                ("attest_actions", st.attest_actions, "actions"),
                ("waves_started", st.waves_started, "waves"),
                ("counters_minted", r.counters_minted as u64, "counters"),
            ] {
                rows.push(name(field), value as f64, unit);
            }
            for (i, (phase, ticks)) in r.phase_spans.iter().enumerate() {
                let metric = name(&format!("phase_span[{i}].{phase}"));
                rows.push(metric, *ticks as f64, "ticks");
            }
        }
        rows
    }
}

/// Drives one campaign to a terminal phase (or the tick budget) against
/// a simulated fleet, minting a real verifier command counter for every
/// `SendUpdate` and recording violations of the gate invariants.
fn run_campaign(
    label: &str,
    sim: CampaignSimConfig,
    config: CampaignConfig,
    violations: &mut Vec<String>,
) -> Run {
    let devices = sim.devices;
    let mut fleet = SimFleet::new(sim);
    let mut controller = CampaignController::new(devices, config);

    // The real verifier mints the freshness counter for every firmware
    // command; the gate below proves retries never reuse one.
    let vconfig = ProverConfig::recommended();
    let mut verifier = Verifier::new(&vconfig, &KEY).expect("verifier");
    let mut counters: HashSet<u64> = HashSet::new();

    trace::reset();
    trace::enable();

    let mut now = 0u64;
    loop {
        for i in fleet.poll_returns(now) {
            controller.report(i, DeviceOutcome::CameOnline, now);
        }
        let actions = controller.tick(now);
        if controller.phase().is_terminal() {
            break;
        }
        for action in actions {
            if let CampaignAction::SendUpdate { .. } = action {
                let request = verifier.make_command(Command::UpdateFirmware {
                    image: b"campaign soak image".to_vec(),
                });
                if !counters.insert(request.counter) {
                    violations.push(format!(
                        "{label}: command counter {} reused across retries",
                        request.counter
                    ));
                }
            }
            let outcome = fleet.perform(action, now);
            controller.report(action.device(), outcome, now);
        }
        now += 1;
        if now > TICK_BUDGET {
            violations.push(format!(
                "{label}: campaign did not reach a terminal phase within {TICK_BUDGET} ticks \
                 (phase {:?})",
                controller.phase()
            ));
            break;
        }
    }
    controller.finish(now);

    // Telemetry contract: the campaign phase spans partition [0, now).
    let mut spans: Vec<(u64, u64, &'static str)> = trace::drain()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Span {
                name,
                start_cycles,
                end_cycles,
                ..
            } if name.starts_with("campaign.phase.") => Some((start_cycles, end_cycles, name)),
            _ => None,
        })
        .collect();
    spans.sort_unstable();
    let mut cursor = 0u64;
    for &(start, end, name) in &spans {
        if start != cursor {
            violations.push(format!(
                "{label}: phase span {name} starts at {start}, expected {cursor} — \
                 spans do not partition the campaign"
            ));
        }
        cursor = end;
    }
    if cursor != now {
        violations.push(format!(
            "{label}: phase spans cover [0, {cursor}) but the campaign ran [0, {now})"
        ));
    }

    // Oracle: nothing the controller called Healthy may hold anything
    // but the new image, and compromised devices are never Healthy.
    for i in 0..devices {
        if controller.device_state(i) == DeviceState::Healthy {
            if fleet.flash_of(i) != SimFlash::New {
                violations.push(format!(
                    "{label}: device {i} is Healthy but its flash holds {:?}",
                    fleet.flash_of(i)
                ));
            }
            if fleet.is_compromised(i) {
                violations.push(format!("{label}: compromised device {i} marked Healthy"));
            }
        }
        if fleet.is_compromised(i)
            && controller.phase() == CampaignPhase::Complete
            && controller.device_state(i) != DeviceState::Quarantined
        {
            violations.push(format!(
                "{label}: compromised device {i} ended {:?}, not Quarantined",
                controller.device_state(i)
            ));
        }
    }

    Run {
        label: label.to_string(),
        devices,
        phase: controller.phase(),
        ticks: now,
        stats: controller.stats(),
        counters_minted: counters.len(),
        phase_spans: spans
            .iter()
            .map(|&(s, e, n)| (n.trim_start_matches("campaign.phase.").to_string(), e - s))
            .collect(),
    }
}

/// Runs both scenarios.
#[must_use]
pub fn run() -> Report {
    let mut violations = Vec::new();
    // Scenario 1: the lossy rollout at fleet scale.
    let lossy = run_campaign(
        "lossy rollout",
        CampaignSimConfig::lossy(SEED, DEVICES),
        campaign_config(),
        &mut violations,
    );
    if lossy.phase != CampaignPhase::Complete {
        violations.push(format!(
            "lossy rollout: expected Complete, ended {:?}",
            lossy.phase
        ));
    }
    if lossy.stats.quarantined != (DEVICES / 500) as u64 {
        violations.push(format!(
            "lossy rollout: {} devices quarantined, expected {}",
            lossy.stats.quarantined,
            DEVICES / 500
        ));
    }

    // Scenario 2: the canary flashes a bad image — auto-halt + rollback.
    let mut bad_sim = CampaignSimConfig::lossy(SEED ^ 0xBAD, 256);
    bad_sim.bad_image = true;
    bad_sim.compromised = 0;
    let bad = run_campaign(
        "bad canary image",
        bad_sim,
        campaign_config(),
        &mut violations,
    );
    if bad.phase != CampaignPhase::RolledBack {
        violations.push(format!(
            "bad canary: expected RolledBack, ended {:?}",
            bad.phase
        ));
    }
    if bad.stats.waves_started != 1 {
        violations.push(format!(
            "bad canary: {} waves started — the halt must land before wave 2",
            bad.stats.waves_started
        ));
    }
    if bad.stats.healthy != 0 {
        violations.push(format!(
            "bad canary: {} devices Healthy on a bad image",
            bad.stats.healthy
        ));
    }

    Report {
        lossy,
        bad,
        violations,
    }
}

//! Chaos soak: a simulated fleet under combined fault + flood pressure.
//!
//! The single-channel experiments grade one defence at a time. A real
//! deployment faces everything at once: honest devices behind lossy
//! radios, a compromised device that will never verify again, and a
//! forgery flood grinding at every prover's battery — all while the
//! verifier keeps the rest of the fleet attested. This module wires the
//! whole stack together and *soaks* it:
//!
//! - each device is a [`World`] behind a seeded [`FaultyLink`], with its
//!   own battery and (optionally) a prover-side
//!   [`proverguard_attest::AdmissionPolicy`] bucket;
//! - the verifier side runs a [`FleetController`]: per-device circuit
//!   breakers, health scores, round-robin bounded concurrency;
//! - every round, every device is flooded with forged requests before
//!   the scheduled attestation sessions run.
//!
//! The run is fully deterministic from [`SoakConfig::seed`] (all
//! per-device fault schedules are derived from it), so a soak is a
//! reproducible regression gate, not a flake generator. At the end the
//! report checks the **liveness invariants**:
//!
//! 1. no device's battery ever fell below the configured energy floor;
//! 2. every honest device (faulty channels included) attested at least
//!    once;
//! 3. once faults cleared, every faulty-but-honest device's breaker
//!    re-closed;
//! 4. every compromised device was quarantined: zero successes and a
//!    tripped breaker.
//!
//! A defended configuration (MAC auth + admission control) passes all
//! four under flood; an undefended one burns through its batteries —
//! that contrast is the fleet-scale version of the paper's Table 1
//! economics, and what `proverguard-bench`'s `fleet_soak` binary prints.

use proverguard_attest::error::AttestError;
use proverguard_attest::fleet::{BreakerState, FleetController, FleetPolicy};
use proverguard_attest::freshness::FreshnessKind;
use proverguard_attest::message::{AttestRequest, AttestScope, FreshnessField};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::session::{RetryPolicy, SessionDriver};
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_attest::AdmissionPolicy;
use proverguard_mcu::energy::{Battery, DEFAULT_NJ_PER_CYCLE};
use proverguard_telemetry::metrics;

use crate::fault::{FaultConfig, FaultyLink};
use crate::toctou::{toctou_alarm, TransientMalware};
use crate::world::{World, DEFAULT_IMAGE, DEFAULT_KEY};

/// Key provisioned into compromised devices: `Adv_roam` re-flashed the
/// prover, so its `K_Attest` no longer matches the verifier's.
const COMPROMISED_KEY: [u8; 16] = [0xA5; 16];

/// What kind of device slot `i` of the fleet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRole {
    /// Correct key, clean channel.
    Honest,
    /// Correct key, faulty channel (until the faults clear).
    Faulty,
    /// Wrong key: attestation can never verify.
    Compromised,
    /// Correct key, clean channel — but transient malware runs an
    /// infect/act/restore cycle between rounds. Every digest verifies;
    /// only a `History`-scope policy sees the write events.
    Transient,
}

/// One soak scenario. Device slots are laid out deterministically:
/// indices `[0, compromised_devices)` are compromised, the next
/// `faulty_devices` slots are honest-but-faulty, the next
/// `transient_devices` slots run transient malware, and the rest are
/// honest with clean channels.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Human-readable label for reports.
    pub label: String,
    /// Master seed; every per-device fault schedule derives from it.
    pub seed: u64,
    /// Fleet size.
    pub devices: usize,
    /// How many devices are compromised (wrong `K_Attest`).
    pub compromised_devices: usize,
    /// How many devices sit behind a faulty channel.
    pub faulty_devices: usize,
    /// How many devices run transient malware between rounds.
    pub transient_devices: usize,
    /// Scope policy installed into every device's verifier. With
    /// [`ScopePolicy::History`], transient devices must be flagged by the
    /// TOCTOU alarm; with [`ScopePolicy::Full`] their strikes are
    /// invisible (the contrast `toctou_bench` measures).
    pub scope_policy: ScopePolicy,
    /// Scheduling rounds to run.
    pub rounds: u64,
    /// Idle wall time per round (simulated ms) — this is also what the
    /// admission buckets refill on.
    pub round_ms: u64,
    /// Forged requests delivered to *each* device, every round.
    pub flood_per_round: u64,
    /// Round at which faulty channels become clean (set ≥ `rounds` to
    /// never clear).
    pub faults_clear_at_round: u64,
    /// Battery capacity each device starts with, in joules.
    pub battery_capacity_j: f64,
    /// Liveness floor: no battery may ever drop below this fraction.
    pub energy_floor_fraction: f64,
    /// Fault template for the faulty devices (its `seed` is replaced by
    /// a per-device derivation of [`SoakConfig::seed`]).
    pub fault: FaultConfig,
    /// Retry/backoff policy for every driven session.
    pub retry: RetryPolicy,
    /// Verifier-side fleet policy (breakers, concurrency, EWMA).
    pub fleet: FleetPolicy,
    /// Prover-side admission policy (`None` = no admission control).
    pub admission: Option<AdmissionPolicy>,
    /// Prover configuration for every device.
    pub config: ProverConfig,
}

impl SoakConfig {
    /// The fixed CI seed (also recorded in EXPERIMENTS.md): change it and
    /// the deterministic soak gate is a different experiment.
    pub const CI_SEED: u64 = 0xC0DE_50AC;

    /// The short, deterministic gate run by `ci.sh` and the integration
    /// tests: 4 devices (1 compromised, 1 behind a lossy radio that heals
    /// at round 5), 10 rounds, a 10-forgery flood per device per round,
    /// full defences on.
    #[must_use]
    pub fn ci() -> Self {
        let round_ms = 20_000;
        SoakConfig {
            label: "ci defended".to_string(),
            seed: Self::CI_SEED,
            devices: 4,
            compromised_devices: 1,
            faulty_devices: 1,
            transient_devices: 0,
            scope_policy: ScopePolicy::Full,
            rounds: 10,
            round_ms,
            flood_per_round: 10,
            faults_clear_at_round: 5,
            battery_capacity_j: 2.0,
            energy_floor_fraction: 0.5,
            fault: FaultConfig::lossy(0),
            retry: RetryPolicy {
                timeout_ms: 1000,
                max_retries: 2,
                backoff_base_ms: 100,
                backoff_factor: 2,
                ..RetryPolicy::default()
            },
            fleet: FleetPolicy {
                breaker: proverguard_attest::fleet::BreakerPolicy {
                    failure_threshold: 3,
                    open_cooldown_ms: 2 * round_ms,
                    half_open_successes: 1,
                },
                max_concurrent: 2,
                ewma_alpha: 0.3,
            },
            admission: Some(AdmissionPolicy::recommended()),
            config: ProverConfig::recommended(),
        }
    }

    /// The same scenario with every prover defence stripped: no request
    /// authentication, no admission control. The flood lands.
    #[must_use]
    pub fn ci_undefended() -> Self {
        SoakConfig {
            label: "ci undefended".to_string(),
            admission: None,
            config: ProverConfig::unprotected(),
            ..Self::ci()
        }
    }

    /// The CI scenario with the epoch-log defence exercised: segmented
    /// provers, a `History`-mostly scope policy (one full re-anchor every
    /// 4 rounds), and one device running transient malware. The grade
    /// adds invariant 5: the transient device must trip the TOCTOU alarm.
    #[must_use]
    pub fn ci_history() -> Self {
        SoakConfig {
            label: "ci history".to_string(),
            devices: 5,
            transient_devices: 1,
            scope_policy: ScopePolicy::History { full_every: 4 },
            config: ProverConfig::recommended_segmented(),
            ..Self::ci()
        }
    }
}

/// Per-device outcome of a soak.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Fleet slot.
    pub index: usize,
    /// What the device was.
    pub role: DeviceRole,
    /// Sessions the fleet controller scheduled against it.
    pub sessions: u64,
    /// Sessions that verified.
    pub successes: u64,
    /// Lowest battery fraction ever observed.
    pub min_battery_fraction: f64,
    /// Battery fraction at the end of the soak.
    pub final_battery_fraction: f64,
    /// Requests the prover's admission controller shed.
    pub throttled: u64,
    /// Times the device's breaker tripped open.
    pub breaker_trips: u64,
    /// Verified History rounds whose modified set touched the immutable
    /// image-mirror segments (the TOCTOU alarm).
    pub toctou_flags: u64,
    /// Whether the breaker ended the soak closed.
    pub breaker_closed: bool,
    /// Final EWMA health score.
    pub health_score: f64,
}

/// Everything a soak run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// The scenario label.
    pub label: String,
    /// Rounds run.
    pub rounds: u64,
    /// Sessions driven across the fleet.
    pub total_sessions: u64,
    /// Sessions that verified.
    pub total_successes: u64,
    /// Forged requests delivered across the fleet.
    pub total_flood: u64,
    /// Battery energy the whole fleet burned, in joules.
    pub fleet_energy_joules: f64,
    /// Per-device summaries, in slot order.
    pub devices: Vec<DeviceSummary>,
    /// Liveness-invariant violations (empty = the soak passed).
    pub violations: Vec<String>,
}

impl SoakReport {
    /// `true` iff every liveness invariant held.
    #[must_use]
    pub fn liveness_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Derives device `i`'s fault seed from the master seed (SplitMix64-style
/// mixing so neighbouring slots get unrelated schedules).
fn derive_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// A forged request matching the fleet's freshness discipline (the
/// adversary controls the unauthenticated header, so it always *looks*
/// fresh; only the auth/admission stages can shed it cheaply).
fn forged_request(kind: FreshnessKind, sequence: u64, now_ms: u64) -> AttestRequest {
    let freshness = match kind {
        FreshnessKind::None => FreshnessField::None,
        FreshnessKind::NonceHistory => {
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&sequence.to_be_bytes());
            FreshnessField::Nonce(nonce)
        }
        FreshnessKind::Counter => FreshnessField::Counter(sequence),
        FreshnessKind::Timestamp => FreshnessField::Timestamp(now_ms),
    };
    AttestRequest {
        scope: AttestScope::Whole,
        freshness,
        challenge: [0xbb; 16],
        auth: vec![0u8; 8],
    }
}

fn role_of(cfg: &SoakConfig, index: usize) -> DeviceRole {
    if index < cfg.compromised_devices {
        DeviceRole::Compromised
    } else if index < cfg.compromised_devices + cfg.faulty_devices {
        DeviceRole::Faulty
    } else if index < cfg.compromised_devices + cfg.faulty_devices + cfg.transient_devices {
        DeviceRole::Transient
    } else {
        DeviceRole::Honest
    }
}

/// Runs one soak scenario to completion and grades the invariants.
///
/// # Errors
///
/// [`AttestError`] if any device fails to provision.
///
/// # Panics
///
/// Panics if the config asks for more compromised + faulty devices than
/// fleet slots, or for zero devices/rounds.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, AttestError> {
    assert!(cfg.devices > 0 && cfg.rounds > 0, "soak must do something");
    assert!(
        cfg.compromised_devices + cfg.faulty_devices + cfg.transient_devices <= cfg.devices,
        "more special devices than fleet slots"
    );

    // ---- provision the fleet ------------------------------------------
    let mut links = Vec::with_capacity(cfg.devices);
    let mut roles = Vec::with_capacity(cfg.devices);
    for i in 0..cfg.devices {
        let role = role_of(cfg, i);
        let key = match role {
            DeviceRole::Compromised => &COMPROMISED_KEY,
            _ => &DEFAULT_KEY,
        };
        let mut prover = Prover::provision(cfg.config.clone(), key, DEFAULT_IMAGE)?;
        // The verifier always holds the *genuine* fleet key; a compromised
        // prover is exactly one whose key no longer matches it.
        let mut verifier = Verifier::new(&cfg.config, &DEFAULT_KEY)?;
        verifier.set_scope_policy(cfg.scope_policy);
        prover
            .mcu_mut()
            .set_battery(Battery::new(cfg.battery_capacity_j, DEFAULT_NJ_PER_CYCLE));
        prover.set_admission_policy(cfg.admission);
        let fault = match role {
            DeviceRole::Faulty => FaultConfig {
                seed: derive_seed(cfg.seed, i),
                ..cfg.fault
            },
            _ => FaultConfig::none(derive_seed(cfg.seed, i)),
        };
        links.push(FaultyLink::new(World { prover, verifier }, fault));
        roles.push(role);
    }

    let mut fleet = FleetController::new(cfg.devices, cfg.fleet);
    let driver = SessionDriver::new(cfg.retry);
    let mut sessions = vec![0u64; cfg.devices];
    let mut successes = vec![0u64; cfg.devices];
    let mut min_fraction = vec![1.0f64; cfg.devices];
    let mut toctou_flags = vec![0u64; cfg.devices];
    let mut malware: Vec<Option<TransientMalware>> = roles
        .iter()
        .map(|r| (*r == DeviceRole::Transient).then(TransientMalware::default))
        .collect();
    let seg_len = cfg
        .config
        .segmented
        .map_or(proverguard_mcu::DEFAULT_SEGMENT_LEN, |p| p.segment_len);
    let mut total_flood = 0u64;
    let mut flood_sequence = 0u64;

    // ---- soak ---------------------------------------------------------
    for round in 0..cfg.rounds {
        let now_ms = round * cfg.round_ms;
        if round == cfg.faults_clear_at_round {
            for (i, link) in links.iter_mut().enumerate() {
                if roles[i] == DeviceRole::Faulty {
                    link.set_fault_config(FaultConfig::none(derive_seed(cfg.seed, i)));
                }
            }
        }

        // The flood hits every device, every round, before any honest
        // traffic — worst case for the admission bucket.
        for link in links.iter_mut() {
            for _ in 0..cfg.flood_per_round {
                flood_sequence = flood_sequence.saturating_add(1);
                let bogus = forged_request(
                    cfg.config.freshness,
                    flood_sequence,
                    link.world.verifier.now_ms(),
                );
                let _ = link.world.prover.handle_wire_request(&bogus.to_bytes());
                total_flood = total_flood.saturating_add(1);
            }
        }
        metrics::counter_add(
            "soak.flood.requests",
            cfg.flood_per_round * cfg.devices as u64,
        );

        // Transient malware strikes between rounds: infect, act, restore.
        // By the time any sweep runs, memory content is pristine — only
        // the epoch log holds the write events.
        for (i, slot) in malware.iter_mut().enumerate() {
            if let Some(m) = slot {
                m.strike(&mut links[i].world)?;
            }
        }

        // Bounded-concurrency attestation round.
        for idx in fleet.schedule(now_ms) {
            let report = driver.run(&mut links[idx]);
            sessions[idx] = sessions[idx].saturating_add(1);
            if report.succeeded() {
                successes[idx] = successes[idx].saturating_add(1);
                // TOCTOU policy: a verified History round whose modified
                // set touched the immutable image mirror raises the alarm.
                if let Some(outcome) = links[idx].world.verifier.last_history() {
                    if toctou_alarm(outcome, seg_len) {
                        toctou_flags[idx] = toctou_flags[idx].saturating_add(1);
                        metrics::counter_add("soak.toctou.alarms", 1);
                    }
                }
            }
            fleet.record(idx, &report, now_ms);
        }

        // Idle out the rest of the round; track the battery floor and
        // publish the per-tick device metrics the soak dashboards read.
        for (i, link) in links.iter_mut().enumerate() {
            let _ = link.world.advance_ms(cfg.round_ms);
            let fraction = link.world.prover.mcu().battery().remaining_fraction();
            if fraction < min_fraction[i] {
                min_fraction[i] = fraction;
            }
            let stats = link.world.prover.stats();
            metrics::histogram_record(
                "soak.device.battery_permille",
                (fraction * 1000.0).clamp(0.0, 1000.0) as u64,
            );
            metrics::histogram_record(
                "soak.device.requests_seen_per_round",
                stats.requests_seen / round.saturating_add(1),
            );
            metrics::gauge_set("soak.round", round);
        }
    }

    // ---- grade --------------------------------------------------------
    let mut devices = Vec::with_capacity(cfg.devices);
    let mut violations = Vec::new();
    let mut fleet_energy = 0.0;
    for (i, link) in links.iter().enumerate() {
        let battery = link.world.prover.mcu().battery();
        fleet_energy += cfg.battery_capacity_j - battery.remaining_joules();
        let health = fleet.device(i);
        let summary = DeviceSummary {
            index: i,
            role: roles[i],
            sessions: sessions[i],
            successes: successes[i],
            min_battery_fraction: min_fraction[i],
            final_battery_fraction: battery.remaining_fraction(),
            throttled: link
                .world
                .prover
                .admission()
                .map_or(0, |a| a.stats().throttled + a.stats().degraded_refused),
            breaker_trips: health.breaker.trips(),
            toctou_flags: toctou_flags[i],
            breaker_closed: health.breaker.state() == BreakerState::Closed,
            health_score: health.score,
        };

        // Accounting invariant: every request the prover saw was either
        // accepted or counted by exactly one rejection statistic.
        let stats = link.world.prover.stats();
        if stats.requests_seen != stats.accepted.saturating_add(stats.rejected_total()) {
            violations.push(format!(
                "device {i} stats do not partition: {} seen != {} accepted + {} rejected",
                stats.requests_seen,
                stats.accepted,
                stats.rejected_total()
            ));
        }

        if summary.min_battery_fraction < cfg.energy_floor_fraction {
            violations.push(format!(
                "device {i} ({:?}) fell to {:.0} % battery, floor is {:.0} %",
                roles[i],
                summary.min_battery_fraction * 100.0,
                cfg.energy_floor_fraction * 100.0
            ));
        }
        match roles[i] {
            DeviceRole::Honest | DeviceRole::Faulty => {
                if summary.successes == 0 {
                    violations.push(format!(
                        "honest device {i} ({:?}) never attested in {} rounds",
                        roles[i], cfg.rounds
                    ));
                }
                if roles[i] == DeviceRole::Faulty
                    && cfg.faults_clear_at_round < cfg.rounds
                    && !summary.breaker_closed
                {
                    violations.push(format!(
                        "device {i}'s breaker still open after its faults cleared"
                    ));
                }
                if summary.toctou_flags > 0 {
                    violations.push(format!(
                        "false TOCTOU alarm on honest device {i} ({:?}): {} flags",
                        roles[i], summary.toctou_flags
                    ));
                }
            }
            DeviceRole::Transient => {
                // Invariant 5: the infect/act/restore device keeps
                // verifying (every digest matches), but under a History
                // policy the epoch log must expose the write events.
                if summary.successes == 0 {
                    violations.push(format!(
                        "transient device {i} never attested in {} rounds",
                        cfg.rounds
                    ));
                }
                match cfg.scope_policy {
                    ScopePolicy::History { .. } => {
                        if summary.toctou_flags == 0 {
                            violations.push(format!(
                                "transient malware on device {i} went undetected \
                                 under a History scope policy"
                            ));
                        }
                    }
                    ScopePolicy::Full => {
                        if summary.toctou_flags > 0 {
                            violations.push(format!(
                                "device {i} raised {} TOCTOU flags under a Full \
                                 scope policy, which never runs History rounds",
                                summary.toctou_flags
                            ));
                        }
                    }
                }
            }
            DeviceRole::Compromised => {
                if summary.successes > 0 {
                    violations.push(format!(
                        "compromised device {i} attested {} times",
                        summary.successes
                    ));
                }
                if summary.breaker_trips == 0 {
                    violations.push(format!("compromised device {i} was never quarantined"));
                }
            }
        }
        devices.push(summary);
    }

    Ok(SoakReport {
        label: cfg.label.clone(),
        rounds: cfg.rounds,
        total_sessions: sessions.iter().sum(),
        total_successes: successes.iter().sum(),
        total_flood,
        fleet_energy_joules: fleet_energy,
        devices,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scenario for fast unit checks (the full CI scenario runs in
    /// `tests/chaos_soak.rs`).
    fn mini() -> SoakConfig {
        SoakConfig {
            label: "mini".to_string(),
            devices: 2,
            compromised_devices: 1,
            faulty_devices: 0,
            rounds: 4,
            flood_per_round: 3,
            faults_clear_at_round: 0,
            ..SoakConfig::ci()
        }
    }

    #[test]
    fn mini_soak_is_deterministic() {
        let a = run_soak(&mini()).unwrap();
        let b = run_soak(&mini()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mini_soak_separates_honest_from_compromised() {
        let report = run_soak(&mini()).unwrap();
        assert!(report.liveness_ok(), "violations: {:?}", report.violations);
        let compromised = &report.devices[0];
        let honest = &report.devices[1];
        assert_eq!(compromised.successes, 0);
        assert!(compromised.breaker_trips >= 1);
        assert!(honest.successes >= 1);
        assert!(honest.health_score > compromised.health_score);
    }

    /// A tiny History-policy scenario: one transient device, two honest.
    fn mini_history() -> SoakConfig {
        SoakConfig {
            label: "mini history".to_string(),
            devices: 3,
            compromised_devices: 0,
            faulty_devices: 0,
            transient_devices: 1,
            rounds: 6,
            flood_per_round: 2,
            faults_clear_at_round: 0,
            ..SoakConfig::ci_history()
        }
    }

    #[test]
    fn mini_history_soak_flags_only_the_transient_device() {
        let report = run_soak(&mini_history()).unwrap();
        assert!(report.liveness_ok(), "violations: {:?}", report.violations);
        let transient = &report.devices[0];
        assert_eq!(transient.role, DeviceRole::Transient);
        assert!(transient.successes >= 1, "every digest still verifies");
        assert!(
            transient.toctou_flags >= 1,
            "epoch log must expose the strikes"
        );
        for honest in &report.devices[1..] {
            assert_eq!(honest.role, DeviceRole::Honest);
            assert_eq!(honest.toctou_flags, 0, "no false alarms");
        }
    }

    #[test]
    fn mini_history_soak_is_deterministic() {
        let a = run_soak(&mini_history()).unwrap();
        let b = run_soak(&mini_history()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn derived_seeds_differ_per_device() {
        let seeds: Vec<u64> = (0..16).map(|i| derive_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    #[should_panic(expected = "more special devices")]
    fn overfull_roles_rejected() {
        let cfg = SoakConfig {
            compromised_devices: 3,
            faulty_devices: 3,
            devices: 4,
            ..SoakConfig::ci()
        };
        let _ = run_soak(&cfg);
    }
}

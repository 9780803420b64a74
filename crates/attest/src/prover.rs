//! The prover: `Code_Attest` running on the simulated device.
//!
//! [`Prover::handle_request`] implements the full §4/§5 pipeline in the
//! order that makes the defences effective: **authenticate first, check
//! freshness second, and only then** pay the ~754 ms whole-memory MAC. A
//! rejected request costs the prover at most one primitive-block check
//! (0.017–0.43 ms, or 170.9 ms for the ruled-out ECDSA variant), which is
//! the entire DoS-mitigation argument in measurable form.

use proverguard_crypto::mac::{MacAlgorithm, MacKey};
use proverguard_crypto::sha1::DIGEST_SIZE;
use proverguard_mcu::boot::{image_digest, SecureBoot};
use proverguard_mcu::device::Mcu;
use proverguard_mcu::map;
use proverguard_mcu::rtc::HwRtc;
use proverguard_mcu::timer::TIMER_WRAP_VECTOR;
use proverguard_mcu::{SegmentLayout, CLOCK_HZ};

use crate::admission::{
    AdmissionController, AdmissionDecision, AdmissionPolicy, AdmissionSnapshot,
};
use crate::auth::{AuthMethod, RequestChecker, RequestSigner};
use crate::clock::{ClockKind, ProverClock, CLOCK_HANDLER_ADDR};
use crate::clocksync::{self, SyncOutcome, SyncParams, SyncRequest};
use crate::error::{AttestError, RejectReason};
use crate::freshness::{FreshnessKind, FreshnessPolicy};
use crate::message::AttestScope;
use crate::message::{AttestRequest, AttestResponse, FreshnessField};
use crate::persist::{
    EpochLogRecord, FreshnessRecord, PersistedState, RecoveryOutcome, UpdateJournal,
};
use crate::profile::{rules_for, Protection};
use crate::segcache::{self, HistoryReport, SegmentCache, SegmentedParams};
use crate::services::{self, Command, CommandReceipt, CommandRequest};

/// How the device last came up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootHealth {
    /// Secure boot verified the flash image against a trusted reference.
    #[default]
    Healthy,
    /// The flash digest matched neither the active nor the target image
    /// (torn update); the device came up through recovery boot with its
    /// protections armed but no application image. It attests — as
    /// neither image — and accepts `UpdateFirmware` retries.
    Recovery,
}

/// Static configuration of a prover deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProverConfig {
    /// How requests are authenticated (§4.1).
    pub auth: AuthMethod,
    /// Which freshness mechanism is used (§4.2).
    pub freshness: FreshnessKind,
    /// Which clock the device has (§6.2).
    pub clock: ClockKind,
    /// Whether EA-MAC rules protect the critical state (§5/§6).
    pub protection: Protection,
    /// The MAC used for the attestation *response* over memory.
    pub response_mac: MacAlgorithm,
    /// Incremental segmented attestation: when `Some`, the device's
    /// dirty-tracking hardware is strapped to the given granularity and
    /// the prover serves [`AttestScope::Segmented`] requests from its
    /// per-segment digest cache. `None` provers reject segmented requests
    /// with [`RejectReason::ScopeUnsupported`].
    pub segmented: Option<SegmentedParams>,
}

impl ProverConfig {
    /// The paper's recommended lightweight deployment: Speck-authenticated
    /// requests, a monotonic counter, EA-MAC protection (replay + reorder
    /// mitigation at 0.017 ms per bogus request).
    #[must_use]
    pub fn recommended() -> Self {
        ProverConfig {
            auth: AuthMethod::Mac(MacAlgorithm::Speck64Cbc),
            freshness: FreshnessKind::Counter,
            clock: ClockKind::None,
            protection: Protection::EaMac,
            response_mac: MacAlgorithm::HmacSha1,
            segmented: None,
        }
    }

    /// The recommended deployment with incremental segmented attestation
    /// enabled at the default 8 KiB granularity: repeat attestations cost
    /// only the dirty segments plus one short combine MAC.
    #[must_use]
    pub fn recommended_segmented() -> Self {
        ProverConfig {
            segmented: Some(SegmentedParams::default()),
            ..Self::recommended()
        }
    }

    /// The fully protected timestamp deployment on the Figure 1a 64-bit
    /// hardware clock (also mitigates delay attacks).
    #[must_use]
    pub fn timestamp_hw64() -> Self {
        ProverConfig {
            auth: AuthMethod::Mac(MacAlgorithm::Speck64Cbc),
            freshness: FreshnessKind::Timestamp,
            clock: ClockKind::Hw64,
            protection: Protection::EaMac,
            response_mac: MacAlgorithm::HmacSha1,
            segmented: None,
        }
    }

    /// The Figure 1b deployment: timestamps on the SW-clock.
    #[must_use]
    pub fn timestamp_sw_clock() -> Self {
        ProverConfig {
            clock: ClockKind::Software,
            ..Self::timestamp_hw64()
        }
    }

    /// The vulnerable strawman of §3.1: no authentication, no freshness,
    /// no protection. Every bogus request costs the full memory MAC.
    #[must_use]
    pub fn unprotected() -> Self {
        ProverConfig {
            auth: AuthMethod::None,
            freshness: FreshnessKind::None,
            clock: ClockKind::None,
            protection: Protection::Open,
            response_mac: MacAlgorithm::HmacSha1,
            segmented: None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`AttestError::BadConfig`] if timestamps are configured without a
    /// clock.
    pub fn validate(&self) -> Result<(), AttestError> {
        if self.freshness == FreshnessKind::Timestamp && self.clock == ClockKind::None {
            return Err(AttestError::BadConfig {
                reason: "timestamp freshness requires a clock".to_string(),
            });
        }
        if let Some(params) = &self.segmented {
            params.validate()?;
        }
        Ok(())
    }
}

/// Cycle cost of the last handled request, by pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBreakdown {
    /// Wire-parsing cycles (0 when the request arrived pre-parsed).
    pub parse_cycles: u64,
    /// Admission-control cycles (0 when no controller is installed).
    pub admission_cycles: u64,
    /// Request-authentication cycles.
    pub auth_cycles: u64,
    /// Freshness-check cycles (bus accesses + comparison).
    pub freshness_cycles: u64,
    /// Response MAC cycles (0 when the request was rejected). For a
    /// whole-memory response this is the full sweep; for a segmented one
    /// it is the dirty-bit scan + recomputed segment digests + the body
    /// digest when recomputed + combine MAC.
    pub response_cycles: u64,
    /// Segments whose digest had to be recomputed (segmented scope only).
    pub mac_recomputed_segments: u32,
    /// Segments served from the digest cache (segmented scope only).
    pub mac_cached_segments: u32,
}

impl CostBreakdown {
    /// Total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.parse_cycles
            + self.admission_cycles
            + self.auth_cycles
            + self.freshness_cycles
            + self.response_cycles
    }

    /// Total milliseconds on the 24 MHz device.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total() as f64 / CLOCK_HZ as f64 * 1e3
    }
}

/// Cumulative prover statistics (for DoS experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProverStats {
    /// Requests received.
    pub requests_seen: u64,
    /// Requests that passed all checks and were answered.
    pub accepted: u64,
    /// Requests dropped by authentication.
    pub rejected_auth: u64,
    /// Requests dropped by the freshness policy.
    pub rejected_freshness: u64,
    /// Wire requests dropped because the bytes did not parse at all.
    pub rejected_malformed: u64,
    /// Requests shed by the admission controller (budget exhausted).
    pub rejected_throttled: u64,
    /// Requests shed by low-battery degraded mode (no fresh counter).
    pub rejected_degraded: u64,
    /// Segmented-scope requests rejected because the prover has no
    /// segment cache configured.
    pub rejected_scope: u64,
    /// Segment digests recomputed across all segmented responses.
    pub seg_mac_recomputed: u64,
    /// Segment digests served from the cache across all segmented
    /// responses.
    pub seg_mac_cached: u64,
    /// Body digests recomputed across all segmented responses: one per
    /// round that found the cached body digest dropped, i.e. where some
    /// segment after the head was re-digested since it was last computed.
    pub seg_body_recomputed: u64,
    /// Wholesale segment-cache invalidations (reboot, EA-MPU fault,
    /// explicit clear).
    pub segcache_invalidations: u64,
    /// Accepted `History`-scope rounds (the cheap TOCTOU-detecting kind).
    pub history_rounds: u64,
    /// Reboots survived ([`Prover::reboot`]).
    pub reboots: u64,
    /// Reboots where an attached store's record failed validation and the
    /// prover fell back to zeroed freshness state.
    pub recovery_failures: u64,
    /// Reboots where the sealed epoch-log record failed validation
    /// (rollback or forgery) and `History` scope was suspended until the
    /// next full-scope round.
    pub epoch_recovery_failures: u64,
    /// Total attestation-related cycles spent.
    pub attestation_cycles: u64,
}

impl ProverStats {
    /// Requests rejected by any pipeline stage. Together with
    /// [`ProverStats::accepted`] this partitions
    /// [`ProverStats::requests_seen`]: the invariant
    /// `requests_seen == accepted + rejected_total()` holds at every
    /// quiescent point and is asserted by the fault-matrix tests and the
    /// soak gate.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.rejected_auth
            .saturating_add(self.rejected_freshness)
            .saturating_add(self.rejected_malformed)
            .saturating_add(self.rejected_throttled)
            .saturating_add(self.rejected_degraded)
            .saturating_add(self.rejected_scope)
    }
}

/// Nominal cycles for the freshness bookkeeping itself (a few bus words).
const FRESHNESS_OVERHEAD_CYCLES: u64 = 64;

/// Nominal cycles for the wire-format parse (length/tag checks and a few
/// copies — deliberately tiny, so garbage is the cheapest thing to reject).
const PARSE_OVERHEAD_CYCLES: u64 = 96;

/// Nominal cycles for the admission decision (a bucket compare plus, in
/// degraded mode, one protected-word read) — cheaper than even the
/// Speck block check, so shed traffic is the next-cheapest thing to
/// reject after garbage.
const ADMISSION_OVERHEAD_CYCLES: u64 = 32;

/// Cycles to test one hardware dirty bit during the segmented scan (a
/// load, a mask and a branch).
const SEG_SCAN_CYCLES: u64 = 8;

/// The prover device plus its trust anchor.
#[derive(Debug, Clone)]
pub struct Prover {
    mcu: Mcu,
    config: ProverConfig,
    checker: RequestChecker,
    policy: FreshnessPolicy,
    clock: ProverClock,
    response_key: MacKey,
    sync_params: SyncParams,
    stats: ProverStats,
    last_cost: CostBreakdown,
    /// Reference image digest secure boot verifies against — kept so
    /// [`Prover::reboot`] can re-run boot without re-provisioning.
    boot_reference: [u8; DIGEST_SIZE],
    /// Optional non-volatile store for the freshness record.
    nv: Option<Box<dyn PersistedState>>,
    /// Optional admission controller gating the whole pipeline.
    admission: Option<AdmissionController>,
    /// Per-segment digest cache (only with `config.segmented`). Volatile
    /// `Code_Attest` state: never sealed into the freshness record, and
    /// dropped wholesale on reboot or on an observed EA-MPU violation.
    segcache: Option<SegmentCache>,
    /// Length of the device fault log when the cache was last known good;
    /// growth means an EA-MPU violation happened and the cache is dropped.
    fault_mark: usize,
    /// Optional non-volatile slot for the firmware-update journal
    /// (separate from the freshness record; OTA torn-flash recovery).
    journal_nv: Option<Box<dyn PersistedState>>,
    /// How the last boot concluded.
    boot_health: BootHealth,
    /// One-shot fault injection: cut power after this many image bytes of
    /// the next `UpdateFirmware`.
    tear_next_update: Option<usize>,
    /// Optional non-volatile slot for the sealed epoch-log record
    /// (`History` scope rollback detection across reboots).
    epoch_nv: Option<Box<dyn PersistedState>>,
    /// Set when the epoch log cannot vouch for rounds before the current
    /// boot (no sealed record, or one that failed its seal — a rollback
    /// or forgery signal). While set, `History` requests are refused with
    /// [`RejectReason::ScopeUnsupported`]; any accepted full-scope round
    /// re-establishes ground truth and clears it.
    history_suspended: bool,
}

impl Prover {
    /// Manufactures, provisions and boots a prover device.
    ///
    /// Provisioning burns `key` (`K_Attest`) into ROM and programs
    /// `app_image` into flash. With [`Protection::EaMac`] the device then
    /// secure-boots: the image hash is verified, the
    /// [`profile`](crate::profile) rules are installed, and the EA-MPU is
    /// locked. With [`Protection::Open`] the device boots straight into
    /// the application with no protections — the vulnerable baseline.
    ///
    /// # Errors
    ///
    /// - [`AttestError::BadConfig`] for inconsistent configurations.
    /// - [`AttestError::Device`] if provisioning or boot fails.
    /// - [`AttestError::Crypto`] if `key` does not fit the configured
    ///   algorithms.
    pub fn provision(
        config: ProverConfig,
        key: &[u8; 16],
        app_image: &[u8],
    ) -> Result<Self, AttestError> {
        config.validate()?;
        let mut mcu = Mcu::new();
        mcu.provision_attest_key(key)?;
        mcu.program_flash(app_image)?;

        match config.clock {
            ClockKind::None => {}
            ClockKind::Hw64 => mcu.install_rtc(HwRtc::wide64()),
            ClockKind::Hw32Div => mcu.install_rtc(HwRtc::divided32()),
            ClockKind::Software => {
                mcu.install_idt_entry(TIMER_WRAP_VECTOR, CLOCK_HANDLER_ADDR)?;
            }
        }

        let boot_reference = image_digest(mcu.physical_memory().flash());
        if config.protection == Protection::EaMac {
            // §6.2: runtime attacks on the trust anchors are addressed by
            // limiting code entry points.
            mcu.install_entry_point(map::ATTEST_CODE, map::ATTEST_CODE.start);
            mcu.install_entry_point(map::CLOCK_CODE, CLOCK_HANDLER_ADDR);
            let rules = rules_for(config.protection, config.clock);
            SecureBoot::new(boot_reference).run(&mut mcu, &rules)?;
        }

        // Code_Attest reads K_Attest through the bus — with EA-MAC this
        // only works because the rule names ATTEST_CODE.
        let device_key = mcu.read_attest_key(map::ATTEST_PC)?;
        let response_key = MacKey::new(config.response_mac, &device_key)?;
        let checker = RequestSigner::new(config.auth, key)?.checker()?;
        let policy = FreshnessPolicy::new(config.freshness);
        let clock = ProverClock::new(config.clock);

        // Strap the dirty-tracking hardware and allocate the (empty)
        // digest cache. Every segment starts dirty, so the first segmented
        // attestation after provisioning does a full recomputation.
        let segcache = match &config.segmented {
            Some(params) => {
                mcu.set_segment_len(params.segment_len)?;
                Some(SegmentCache::new(
                    params.segment_len as usize,
                    map::RAM.len() as usize,
                ))
            }
            None => None,
        };
        let fault_mark = mcu.fault_log().len();

        Ok(Prover {
            mcu,
            config,
            checker,
            policy,
            clock,
            response_key,
            sync_params: SyncParams::default(),
            stats: ProverStats::default(),
            last_cost: CostBreakdown::default(),
            boot_reference,
            nv: None,
            admission: None,
            segcache,
            fault_mark,
            journal_nv: None,
            boot_health: BootHealth::Healthy,
            tear_next_update: None,
            epoch_nv: None,
            history_suspended: false,
        })
    }

    /// Installs (or removes) the admission controller. The bucket starts
    /// full; after a reboot the persisted budget is restored instead, so
    /// power-cycling is never a way to refill it.
    pub fn set_admission_policy(&mut self, policy: Option<AdmissionPolicy>) {
        let now = self.mcu.clock().cycles();
        self.admission = policy.map(|p| AdmissionController::new(p, now));
    }

    /// The admission controller, if one is installed.
    #[must_use]
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Attaches a non-volatile store for the freshness record and
    /// immediately saves the current state into it. Until a store is
    /// attached, [`Prover::reboot`] loses all freshness state — the
    /// configuration whose rollback the fault-matrix tests demonstrate.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if reading the live freshness words fails.
    pub fn attach_nv_store(&mut self, store: Box<dyn PersistedState>) -> Result<(), AttestError> {
        self.nv = Some(store);
        self.persist_freshness()
    }

    /// `true` when a non-volatile store is attached.
    #[must_use]
    pub fn has_nv_store(&self) -> bool {
        self.nv.is_some()
    }

    /// Attaches a non-volatile slot for the firmware-update journal and
    /// seeds it with the current (provisioned) image as active. With a
    /// journal attached, [`Prover::reboot`] becomes torn-flash aware: a
    /// flash digest matching neither the active nor the in-flight target
    /// image routes through recovery boot instead of refusing to come up.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if the initial journal write fails.
    pub fn attach_update_journal(
        &mut self,
        store: Box<dyn PersistedState>,
    ) -> Result<(), AttestError> {
        self.journal_nv = Some(store);
        let journal = UpdateJournal {
            active_digest: self.boot_reference,
            target_digest: self.boot_reference,
            in_progress: false,
            mirrored: false,
        };
        self.persist_journal(&journal);
        Ok(())
    }

    /// `true` when an update journal is attached.
    #[must_use]
    pub fn has_update_journal(&self) -> bool {
        self.journal_nv.is_some()
    }

    /// Attaches a non-volatile slot for the sealed epoch-log record and
    /// immediately saves the current state into it. With a store attached,
    /// the per-segment last-write epoch log survives [`Prover::reboot`]:
    /// the round register is restored monotonically and every segment is
    /// stamped at the restored round (RAM was wiped, so every byte *was*
    /// rewritten). A missing, rolled-back or forged record suspends
    /// [`AttestScope::History`] until a full-scope round completes.
    pub fn attach_epoch_log_store(&mut self, store: Box<dyn PersistedState>) {
        self.epoch_nv = Some(store);
        self.persist_epoch_log();
    }

    /// `true` when an epoch-log store is attached.
    #[must_use]
    pub fn has_epoch_log_store(&self) -> bool {
        self.epoch_nv.is_some()
    }

    /// The current attestation round — the value the epoch register holds
    /// now, i.e. the round the *next* accepted request will run as.
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.mcu.epoch()
    }

    /// `true` while `History` scope is suspended pending a full-scope
    /// round (epoch log lost or tampered across a reboot).
    #[must_use]
    pub fn history_suspended(&self) -> bool {
        self.history_suspended
    }

    /// How the device last booted.
    #[must_use]
    pub fn boot_health(&self) -> BootHealth {
        self.boot_health
    }

    /// The flash digest secure boot currently trusts (rotates on a
    /// committed firmware update).
    #[must_use]
    pub fn boot_reference(&self) -> &[u8; DIGEST_SIZE] {
        &self.boot_reference
    }

    /// Arms a one-shot power-loss injection: the next `UpdateFirmware`
    /// loses power after `at` image bytes are programmed, leaving the
    /// flash torn. The command returns [`AttestError::PowerLoss`]; the
    /// caller then models the device coming back via [`Prover::reboot`].
    pub fn inject_update_tear(&mut self, at: usize) {
        self.tear_next_update = Some(at);
    }

    fn persist_journal(&mut self, journal: &UpdateJournal) {
        let bytes = match self.config.protection {
            Protection::EaMac => journal.seal(&self.response_key),
            Protection::Open => journal.encode(),
        };
        if let Some(nv) = &mut self.journal_nv {
            nv.save(&bytes);
        }
    }

    fn load_journal(&self) -> Option<UpdateJournal> {
        let bytes = self.journal_nv.as_ref()?.load()?;
        match self.config.protection {
            Protection::EaMac => UpdateJournal::open_sealed(&bytes, &self.response_key),
            Protection::Open => UpdateJournal::decode(&bytes),
        }
    }

    fn persist_epoch_log(&mut self) {
        if self.epoch_nv.is_none() {
            return;
        }
        let record = EpochLogRecord::capture(&self.mcu);
        let bytes = match self.config.protection {
            Protection::EaMac => record.seal(&self.response_key),
            Protection::Open => record.encode(),
        };
        if let Some(nv) = &mut self.epoch_nv {
            nv.save(&bytes);
        }
    }

    fn load_epoch_log(&self) -> Option<EpochLogRecord> {
        let bytes = self.epoch_nv.as_ref()?.load()?;
        match self.config.protection {
            Protection::EaMac => EpochLogRecord::open_sealed(&bytes, &self.response_key),
            Protection::Open => EpochLogRecord::decode(&bytes),
        }
    }

    /// The deployment configuration.
    #[must_use]
    pub fn config(&self) -> &ProverConfig {
        &self.config
    }

    /// The underlying device (read access).
    #[must_use]
    pub fn mcu(&self) -> &Mcu {
        &self.mcu
    }

    /// Mutable device access — **this is the adversary's surface**: code
    /// running on a compromised prover manipulates the device through the
    /// same bus (as `map::APP_CODE`) that the EA-MPU polices.
    pub fn mcu_mut(&mut self) -> &mut Mcu {
        &mut self.mcu
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &ProverStats {
        &self.stats
    }

    /// Cycle breakdown of the most recent request.
    #[must_use]
    pub fn last_cost(&self) -> &CostBreakdown {
        &self.last_cost
    }

    /// The prover-side freshness policy (inspectable for experiments).
    #[must_use]
    pub fn policy(&self) -> &FreshnessPolicy {
        &self.policy
    }

    /// Lets wall-clock time pass on the device (idle), servicing SW-clock
    /// interrupts as hardware would.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if interrupt service hits an MPU fault.
    pub fn advance_time_ms(&mut self, ms: u64) -> Result<(), AttestError> {
        self.mcu.advance_idle(ms.saturating_mul(CLOCK_HZ) / 1000);
        self.clock.service_interrupts(&mut self.mcu)?;
        Ok(())
    }

    /// Reads the prover's current clock (if any) in milliseconds.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if the EA-MPU denies the read.
    pub fn now_ms(&mut self) -> Result<Option<u64>, AttestError> {
        self.clock.now_ms(&mut self.mcu)
    }

    /// The raw clock plus the clock-sync offset maintained by
    /// `Code_Attest` — the time freshness checks actually use.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if the EA-MPU denies a read.
    pub fn synced_now_ms(&mut self) -> Result<Option<u64>, AttestError> {
        let Some(raw) = self.clock.now_ms(&mut self.mcu)? else {
            return Ok(None);
        };
        let offset = clocksync::read_offset_ms(&mut self.mcu)?;
        Ok(Some(clocksync::apply_offset(raw, offset)))
    }

    /// Overrides the clock-sync correction bounds.
    pub fn set_sync_params(&mut self, params: SyncParams) {
        self.sync_params = params;
    }

    /// Handles a clock-synchronization message (§7 future-work item 2):
    /// authenticate, check the sync counter, apply a bounded correction.
    ///
    /// # Errors
    ///
    /// - [`AttestError::Rejected`] on bad authentication or a stale sync
    ///   counter.
    /// - [`AttestError::MissingClock`] if the device has no clock.
    pub fn handle_sync(&mut self, request: &SyncRequest) -> Result<SyncOutcome, AttestError> {
        let cycles = self.checker.check_cycles(self.mcu.cost_table());
        self.mcu.advance_active(cycles);
        if !self.checker.check(&request.signed_bytes(), &request.auth) {
            return Err(AttestError::Rejected(RejectReason::BadAuth));
        }
        self.clock.service_interrupts(&mut self.mcu)?;
        let raw = self
            .clock
            .now_ms(&mut self.mcu)?
            .ok_or(AttestError::MissingClock)?;
        let outcome = clocksync::apply_sync(&mut self.mcu, &self.sync_params, request, raw)?;
        self.persist_freshness()?;
        Ok(outcome)
    }

    /// Handles a gated command (§7 future-work item 3): the same
    /// authenticate-then-freshness gate, generalized beyond attestation.
    ///
    /// # Errors
    ///
    /// - [`AttestError::Rejected`] on bad authentication or a stale
    ///   command counter — rejection costs one block check, never the
    ///   command's (possibly large) execution cost.
    /// - [`AttestError::Device`] on device faults.
    pub fn handle_command(
        &mut self,
        request: &CommandRequest,
    ) -> Result<CommandReceipt, AttestError> {
        let start_cycles = self.mcu.clock().cycles();
        let result = self.handle_command_gated(request);
        if let Some(ctrl) = self.admission.as_mut() {
            let spent = self.mcu.clock().cycles().saturating_sub(start_cycles);
            ctrl.charge(spent);
        }
        result
    }

    fn handle_command_gated(
        &mut self,
        request: &CommandRequest,
    ) -> Result<CommandReceipt, AttestError> {
        // Stage 0: admission — a shed command never pays the auth check,
        // let alone its (possibly flash-sized) execution cost.
        if self.admission.is_some() {
            self.mcu.advance_active(ADMISSION_OVERHEAD_CYCLES);
            let battery_fraction = self.mcu.battery().remaining_fraction();
            let now_cycles = self.mcu.clock().cycles();
            let fresh = services::peek_command_counter(&mut self.mcu)
                .is_some_and(|last| request.counter > last);
            if let Some(ctrl) = self.admission.as_mut() {
                ctrl.refill(now_cycles);
                match ctrl.decide(battery_fraction, fresh) {
                    AdmissionDecision::Admit => {}
                    AdmissionDecision::Throttled => {
                        self.stats.rejected_throttled =
                            self.stats.rejected_throttled.saturating_add(1);
                        return Err(AttestError::Rejected(RejectReason::Throttled));
                    }
                    AdmissionDecision::DegradedRefused => {
                        self.stats.rejected_degraded =
                            self.stats.rejected_degraded.saturating_add(1);
                        return Err(AttestError::Rejected(RejectReason::DegradedMode));
                    }
                }
            }
        }
        let cycles = self.checker.check_cycles(self.mcu.cost_table());
        self.mcu.advance_active(cycles);
        if !self.checker.check(&request.signed_bytes(), &request.auth) {
            return Err(AttestError::Rejected(RejectReason::BadAuth));
        }

        let update_target = match &request.command {
            Command::UpdateFirmware { image } => Some(services::updated_flash_digest(image)),
            _ => None,
        };
        // Write-ahead journal: record the in-flight target *before* the
        // erase starts, so a mid-flash power loss is recoverable.
        if let (Some(target), Some(journal)) = (update_target, self.load_journal()) {
            self.persist_journal(&UpdateJournal {
                target_digest: target,
                in_progress: true,
                ..journal
            });
        }

        let tear = if update_target.is_some() {
            self.tear_next_update.take()
        } else {
            None
        };
        let receipt =
            services::execute_command_with_tear(&mut self.mcu, &self.response_key, request, tear)?;

        if let Some(target) = update_target {
            // The flash controller's DMA installed the new image into the
            // RAM mirror *behind* the dirty tracker; mark the covering
            // segments dirty explicitly, or the next segmented attest
            // would serve stale-trusted digests of the old image.
            self.mcu
                .mark_dirty_region(map::APP_IMAGE_MIRROR.start, map::APP_IMAGE_MIRROR.len())?;
            // Commit: the new image is now what secure boot trusts.
            self.boot_reference = target;
            self.boot_health = BootHealth::Healthy;
            if self.journal_nv.is_some() {
                self.persist_journal(&UpdateJournal {
                    active_digest: target,
                    target_digest: target,
                    in_progress: false,
                    mirrored: true,
                });
            }
        }
        self.persist_freshness()?;
        Ok(receipt)
    }

    /// Handles one attestation request end to end.
    ///
    /// # Errors
    ///
    /// - [`AttestError::Rejected`] when a defence fires (authentication or
    ///   freshness) — the request cost only the check, not the memory MAC.
    /// - [`AttestError::Device`] / [`AttestError::Crypto`] on internal
    ///   faults.
    pub fn handle_request(
        &mut self,
        request: &AttestRequest,
    ) -> Result<AttestResponse, AttestError> {
        self.handle_parsed(request, CostBreakdown::default(), false)
    }

    /// Handles an attestation request that arrived **inside an
    /// established secure session** (`crate::channel`). The session
    /// frame's MAC already authenticated the bytes per-message, so stage
    /// 1 (the outer request authenticator) is skipped — that is the
    /// session amortization win. Every other defence runs unchanged:
    /// admission, scope capability, freshness (the monotonic counter
    /// still advances and persists to the sealed NV record, so a
    /// mid-session reboot resumes safely), and the response is still
    /// MAC'd under the response key exactly as for a one-shot.
    ///
    /// Callers **must** only pass payloads recovered from a verified
    /// session frame ([`crate::channel::SecureChannel::open`]).
    ///
    /// # Errors
    ///
    /// As [`Prover::handle_request`], minus [`RejectReason::BadAuth`]
    /// from stage 1 (History bound checks can still raise it).
    pub fn handle_session_request(
        &mut self,
        request: &AttestRequest,
    ) -> Result<AttestResponse, AttestError> {
        self.handle_parsed(request, CostBreakdown::default(), true)
    }

    /// Wire-bytes variant of [`Prover::handle_session_request`], with the
    /// same cheap malformed-reject ladder as
    /// [`Prover::handle_wire_request`].
    ///
    /// # Errors
    ///
    /// As [`Prover::handle_session_request`], plus
    /// [`RejectReason::Malformed`] when the bytes fail to parse.
    pub fn handle_session_wire_request(&mut self, bytes: &[u8]) -> Result<Vec<u8>, AttestError> {
        self.handle_wire(bytes, true)
    }

    /// The long-term device key as HKDF input keying material for the
    /// attested-channel handshake. Read through the MPU gate exactly like
    /// the signing path — outside ROM attestation code this faults.
    pub(crate) fn session_ikm(&mut self) -> Result<[u8; 16], AttestError> {
        Ok(self.mcu.read_attest_key(map::ATTEST_PC)?)
    }

    /// Handles one attestation request **from raw wire bytes**, the way a
    /// radio ISR would hand it over. Bytes that do not parse are rejected
    /// with [`RejectReason::Malformed`] after only the tiny parse overhead
    /// — cheaper than even the authentication check, so line noise and
    /// fuzz traffic cannot deplete the prover.
    ///
    /// # Errors
    ///
    /// - [`AttestError::Rejected`] with [`RejectReason::Malformed`] when
    ///   the bytes fail to parse; other [`RejectReason`]s when a later
    ///   pipeline stage fires.
    /// - [`AttestError::Device`] / [`AttestError::Crypto`] on internal
    ///   faults.
    pub fn handle_wire_request(&mut self, bytes: &[u8]) -> Result<Vec<u8>, AttestError> {
        self.handle_wire(bytes, false)
    }

    fn handle_wire(&mut self, bytes: &[u8], preauth: bool) -> Result<Vec<u8>, AttestError> {
        let cost = CostBreakdown {
            parse_cycles: PARSE_OVERHEAD_CYCLES,
            ..CostBreakdown::default()
        };
        self.charge_stage("prover.parse", cost.parse_cycles, |_| ());
        match AttestRequest::from_bytes(bytes) {
            Ok(request) => self
                .handle_parsed(&request, cost, preauth)
                .map(|response| response.to_bytes()),
            Err(_) => {
                self.stats.requests_seen = self.stats.requests_seen.saturating_add(1);
                self.stats.rejected_malformed = self.stats.rejected_malformed.saturating_add(1);
                self.finish(cost);
                Err(AttestError::Rejected(RejectReason::Malformed))
            }
        }
    }

    /// The §4/§5 pipeline, shared by the parsed and wire entry points.
    /// `cost` carries cycles already spent upstream (parsing). With
    /// `preauth` the caller vouches that a session-frame MAC already
    /// authenticated the message and stage 1 is skipped.
    fn handle_parsed(
        &mut self,
        request: &AttestRequest,
        mut cost: CostBreakdown,
        preauth: bool,
    ) -> Result<AttestResponse, AttestError> {
        self.stats.requests_seen = self.stats.requests_seen.saturating_add(1);

        // Stage 0: admission control. Shed load before any cryptography —
        // a throttled request costs the bucket compare, nothing more.
        if self.admission.is_some() {
            cost.admission_cycles = ADMISSION_OVERHEAD_CYCLES;
            let decision = self.charge_stage("prover.admission", cost.admission_cycles, |p| {
                let battery_fraction = p.mcu.battery().remaining_fraction();
                let now_cycles = p.mcu.clock().cycles();
                let fresh = p.freshness_peek(&request.freshness);
                p.admission.as_mut().map(|ctrl| {
                    ctrl.refill(now_cycles);
                    ctrl.decide(battery_fraction, fresh)
                })
            });
            match decision {
                None | Some(AdmissionDecision::Admit) => {}
                Some(AdmissionDecision::Throttled) => {
                    self.stats.rejected_throttled = self.stats.rejected_throttled.saturating_add(1);
                    self.finish(cost);
                    return Err(AttestError::Rejected(RejectReason::Throttled));
                }
                Some(AdmissionDecision::DegradedRefused) => {
                    self.stats.rejected_degraded = self.stats.rejected_degraded.saturating_add(1);
                    self.finish(cost);
                    return Err(AttestError::Rejected(RejectReason::DegradedMode));
                }
            }
        }

        let message = request.signed_bytes();

        // Stage 1: authenticate the request (§4.1). The check itself costs
        // cycles whether it passes or not — with ECDSA, enough to be a DoS
        // by itself. Inside a secure session the frame MAC already
        // authenticated these bytes per-message (`preauth`), so the outer
        // check is skipped — the amortization the channel layer exists for.
        if !preauth {
            cost.auth_cycles = self.checker.check_cycles(self.mcu.cost_table());
            let authentic = self.charge_stage("prover.auth", cost.auth_cycles, |p| {
                p.checker.check(&message, &request.auth)
            });
            if !authentic {
                self.stats.rejected_auth = self.stats.rejected_auth.saturating_add(1);
                self.finish(cost);
                return Err(AttestError::Rejected(RejectReason::BadAuth));
            }
        }

        // Stage 1b: scope capability. The scope byte is under the
        // authenticator (checked above), so this is a genuine verifier
        // request for a construction we do not serve — rejected before
        // any freshness state is consumed, so the verifier can re-dial
        // with the same counter at whole-memory scope.
        if request.scope == AttestScope::Segmented && self.segcache.is_none() {
            self.stats.rejected_scope = self.stats.rejected_scope.saturating_add(1);
            self.finish(cost);
            return Err(AttestError::Rejected(RejectReason::ScopeUnsupported));
        }
        if let AttestScope::History { since_round } = request.scope {
            // History needs the segment layout (digest granularity) and a
            // trustworthy epoch log. A suspended log — the sealed record
            // failed its seal at boot, or there was none to restore —
            // cannot vouch for rounds before this boot.
            if self.segcache.is_none() || self.history_suspended {
                self.stats.rejected_scope = self.stats.rejected_scope.saturating_add(1);
                self.finish(cost);
                return Err(AttestError::Rejected(RejectReason::ScopeUnsupported));
            }
            // The register is strictly ahead of every completed round, so
            // `since_round >= register` names a round that never happened:
            // either a desynchronized verifier or a splicing attempt.
            // Rejected before freshness state is consumed or any digest
            // work is done, so the verifier can re-dial the same counter
            // at a wider scope.
            if since_round >= self.mcu.epoch() {
                self.stats.rejected_auth = self.stats.rejected_auth.saturating_add(1);
                self.finish(cost);
                return Err(AttestError::Rejected(RejectReason::BadAuth));
            }
        }

        // Stage 2: freshness (§4.2). Service any outstanding clock
        // interrupts first so the SW-clock is up to date, then read the
        // synced time (raw clock + the clock-sync offset, which is zero
        // unless the §7 synchronization service has run).
        self.clock.service_interrupts(&mut self.mcu)?;
        let now = self.synced_now_ms()?;
        cost.freshness_cycles = FRESHNESS_OVERHEAD_CYCLES;
        let freshness_verdict = self.charge_stage("prover.freshness", cost.freshness_cycles, |p| {
            p.policy
                .check_and_update(&request.freshness, &mut p.mcu, now)
        });
        if let Err(e) = freshness_verdict {
            if e.is_rejection() {
                self.stats.rejected_freshness = self.stats.rejected_freshness.saturating_add(1);
            }
            self.finish(cost);
            return Err(e);
        }

        // Stage 3: the expensive part. Whole scope pays the §3.1 ~754 ms
        // full-memory MAC; segmented scope re-digests only dirty segments
        // and pays one short combine MAC.
        let report = match request.scope {
            AttestScope::Whole => self.respond_whole(&message, &mut cost)?,
            AttestScope::Segmented => self.respond_segmented(&message, &mut cost)?,
            AttestScope::History { since_round } => {
                self.respond_history(&message, since_round, &mut cost)?
            }
        };

        // Round boundary: `Code_Attest` advances the epoch register so any
        // write landing after this response stamps the *next* round, then
        // re-seals the log. A full-scope round hands the verifier complete
        // fresh evidence, which lifts any tamper suspension of History.
        self.mcu.advance_epoch(map::ATTEST_PC)?;
        if !matches!(request.scope, AttestScope::History { .. }) {
            self.history_suspended = false;
        }

        self.stats.accepted = self.stats.accepted.saturating_add(1);
        self.finish(cost);
        self.persist_freshness()?;
        self.persist_epoch_log();
        Ok(AttestResponse { report })
    }

    /// Whole-memory response: MAC over the request header followed by all
    /// of RAM (§3.1's 754 ms), read in place. The MPU span check runs
    /// before any cycle is charged, so a denied read costs nothing.
    fn respond_whole(
        &mut self,
        message: &[u8],
        cost: &mut CostBreakdown,
    ) -> Result<Vec<u8>, AttestError> {
        let ram_len = self.mcu.ram_view(map::ATTEST_PC)?.len();
        cost.response_cycles = self
            .mcu
            .cost_table()
            .mac_cost(self.config.response_mac, ram_len + message.len());
        self.charge_stage("prover.attest_mac", cost.response_cycles, |p| {
            // The view cannot outlive the clock advance, so borrow it again
            // here; the MPU rules have not changed since the check above.
            let ram = p.mcu.ram_view(map::ATTEST_PC)?;
            Ok(p.response_key.compute_parts(&[message, ram]))
        })
    }

    /// Segmented response: scan the hardware dirty bits, re-digest only
    /// the segments that are dirty (or missing from the cache), recompute
    /// the body digest only if one of them lies after the head, then MAC
    /// the request header over the head digest and the body digest. Each
    /// recomputed segment's dirty bit is acknowledged **as `Code_Attest`,
    /// after its digest is taken** — a write landing later marks it dirty
    /// again, so the cache can go stale-conservative but never
    /// stale-trusted.
    fn respond_segmented(
        &mut self,
        message: &[u8],
        cost: &mut CostBreakdown,
    ) -> Result<Vec<u8>, AttestError> {
        // An EA-MPU violation since the cache was last known good means
        // untrusted code probed the trust anchors; drop the cache rather
        // than reason about what it might have influenced.
        if self.mcu.fault_log().len() > self.fault_mark {
            self.invalidate_segcache();
            self.fault_mark = self.mcu.fault_log().len();
        }

        // The MPU check up front: a denied read fails before any cycle is
        // charged.
        self.mcu.ram_view(map::ATTEST_PC)?;
        let layout = self.mcu.segment_layout();
        let seg_count = layout.count();

        // Scan: one dirty-bit test per segment. A segment is served from
        // cache only when its hardware bit is clear AND a digest is live.
        let scan_cycles = SEG_SCAN_CYCLES * seg_count as u64;
        let todo: Vec<usize> = self.charge_stage("prover.attest_mac.cached", scan_cycles, |p| {
            let cache = p.segcache.as_ref().expect("segmented scope requires cache");
            (0..seg_count)
                .filter(|&i| p.mcu.segment_dirty(i) || !cache.has(i))
                .collect()
        });

        // Recompute: SHA-1 over each stale segment, read in place,
        // acknowledging its dirty bit as Code_Attest once the digest is in
        // hand.
        let recompute_cycles = self.recompute_cycles(&todo, layout);
        let ack_result: Result<(), AttestError> =
            self.charge_stage("prover.attest_mac.recomputed", recompute_cycles, |p| {
                for &i in &todo {
                    let digest = p.digest_segment(i, layout)?;
                    p.segcache
                        .as_mut()
                        .expect("segmented scope requires cache")
                        .store(i, digest);
                    p.mcu.acknowledge_segment(i, map::ATTEST_PC)?;
                }
                Ok(())
            });
        ack_result?;

        let cached = seg_count - todo.len();
        cost.mac_recomputed_segments = todo.len() as u32;
        cost.mac_cached_segments = cached as u32;
        self.stats.seg_mac_recomputed = self
            .stats
            .seg_mac_recomputed
            .saturating_add(todo.len() as u64);
        self.stats.seg_mac_cached = self.stats.seg_mac_cached.saturating_add(cached as u64);

        // Body: the digest over d_1 … d_{n-1} survives until a segment
        // after the head is re-digested; only then is it recomputed.
        let cache = self
            .segcache
            .as_ref()
            .expect("segmented scope requires cache");
        let head = cache
            .digest(0)
            .expect("every segment was scanned or recomputed");
        let (body, body_cycles) = match cache.body() {
            Some(body) => (body, 0),
            None => {
                let body_cycles = self.mcu.cost_table().sha1_digest_cost(
                    segcache::BODY_PREFIX_LEN + seg_count.saturating_sub(1) * DIGEST_SIZE,
                );
                let body = self.charge_stage("prover.attest_mac.body", body_cycles, |p| {
                    p.segcache
                        .as_mut()
                        .and_then(SegmentCache::refresh_body)
                        .expect("every segment was scanned or recomputed")
                });
                self.stats.seg_body_recomputed = self.stats.seg_body_recomputed.saturating_add(1);
                (body, body_cycles)
            }
        };

        // Combine: one keyed MAC over header ‖ seg-header ‖ d_0 ‖ b — the
        // only per-request cryptography, two blocks.
        let seg_header = segcache::combine_header(self.mcu.segment_len(), seg_count);
        let combine_cycles = self.mcu.cost_table().mac_cost(
            self.config.response_mac,
            message.len() + segcache::COMBINE_SUFFIX_LEN,
        );
        cost.response_cycles = scan_cycles + recompute_cycles + body_cycles + combine_cycles;
        Ok(self.charge_stage("prover.attest_mac", combine_cycles, |p| {
            p.response_key
                .compute_parts(&[message, &seg_header, &head, &body])
        }))
    }

    /// History response: scan the per-segment last-write epoch log,
    /// re-digest only the segments written since `since_round`, and MAC
    /// the authenticated modified-set bitmap together with those fresh
    /// digests. Unmodified segments ship neither digest nor bytes — the
    /// verifier recomputes expectations from its reference image — so a
    /// quiescent round costs one scan, a couple of segment digests and
    /// one short MAC.
    ///
    /// Soundness: a segment claims "unmodified since round R" iff its
    /// logged epoch is ≤ R, and every write since the round-R response
    /// latched an epoch > R (the register advanced right after round R's
    /// MAC). Transient malware that infects *and restores* a segment
    /// between rounds therefore still lands in the modified set — the
    /// write event is the evidence, even though the restored bytes digest
    /// identically.
    fn respond_history(
        &mut self,
        message: &[u8],
        since_round: u64,
        cost: &mut CostBreakdown,
    ) -> Result<Vec<u8>, AttestError> {
        // Same cache hygiene as the segmented path: an EA-MPU violation
        // since the cache was last known good drops it.
        if self.mcu.fault_log().len() > self.fault_mark {
            self.invalidate_segcache();
            self.fault_mark = self.mcu.fault_log().len();
        }

        // The MPU check up front: a denied read fails before any cycle is
        // charged.
        self.mcu.ram_view(map::ATTEST_PC)?;
        let layout = self.mcu.segment_layout();
        let seg_count = layout.count();
        let round = self.mcu.epoch();

        // Scan: one epoch compare per segment — a load, a compare and a
        // branch, same cost class as the dirty-bit test.
        let scan_cycles = SEG_SCAN_CYCLES * seg_count as u64;
        let modified: Vec<bool> = self.charge_stage("prover.attest_mac.cached", scan_cycles, |p| {
            (0..seg_count)
                .map(|i| p.mcu.segment_epoch(i) > since_round)
                .collect()
        });
        let todo: Vec<usize> = (0..seg_count).filter(|&i| modified[i]).collect();

        // Recompute fresh digests for the modified set only, warming the
        // shared segment cache and acknowledging dirty bits exactly as the
        // segmented path does.
        let recompute_cycles = self.recompute_cycles(&todo, layout);
        let digest_result: Result<Vec<[u8; DIGEST_SIZE]>, AttestError> =
            self.charge_stage("prover.attest_mac.recomputed", recompute_cycles, |p| {
                let mut fresh = Vec::with_capacity(todo.len());
                for &i in &todo {
                    let digest = p.digest_segment(i, layout)?;
                    if let Some(cache) = p.segcache.as_mut() {
                        cache.store(i, digest);
                    }
                    p.mcu.acknowledge_segment(i, map::ATTEST_PC)?;
                    fresh.push(digest);
                }
                Ok(fresh)
            });
        let modified_digests = digest_result?;

        cost.mac_recomputed_segments = todo.len() as u32;
        cost.mac_cached_segments = (seg_count - todo.len()) as u32;
        self.stats.seg_mac_recomputed = self
            .stats
            .seg_mac_recomputed
            .saturating_add(todo.len() as u64);
        self.stats.seg_mac_cached = self
            .stats
            .seg_mac_cached
            .saturating_add((seg_count - todo.len()) as u64);

        // Combine: one keyed MAC binding the round, the modified-set
        // bitmap and the fresh digests to the authenticated request.
        let report = HistoryReport { round, modified };
        let input =
            segcache::history_input(message, self.mcu.segment_len(), &report, &modified_digests);
        let combine_cycles = self
            .mcu
            .cost_table()
            .mac_cost(self.config.response_mac, input.len());
        cost.response_cycles = scan_cycles + recompute_cycles + combine_cycles;
        let mac = self.charge_stage("prover.attest_mac", combine_cycles, |p| {
            p.response_key.compute(&input)
        });
        self.stats.history_rounds = self.stats.history_rounds.saturating_add(1);

        let mut out = report.encode();
        out.extend_from_slice(&mac);
        Ok(out)
    }

    /// Drops every cached segment digest. The next segmented response
    /// recomputes from scratch (correctness is unaffected — only cost).
    pub fn clear_segment_cache(&mut self) {
        self.invalidate_segcache();
    }

    /// The segment cache, if segmented mode is configured.
    #[must_use]
    pub fn segment_cache(&self) -> Option<&SegmentCache> {
        self.segcache.as_ref()
    }

    fn invalidate_segcache(&mut self) {
        if let Some(cache) = self.segcache.as_mut() {
            if cache.cached_count() > 0 {
                self.stats.segcache_invalidations =
                    self.stats.segcache_invalidations.saturating_add(1);
            }
            cache.invalidate_all();
        }
    }

    /// Advances the device clock by `cycles` under a telemetry span named
    /// `name`, then runs `f` (host-side work charged to the same stage:
    /// the actual MAC/signature computation whose *cost* the advance
    /// models). The span measures exactly the cycle-clock delta of the
    /// advance, so the per-phase table sums to
    /// [`ProverStats::attestation_cycles`]; with the tracer disabled this
    /// is one flag check and zero device cycles.
    pub(crate) fn charge_stage<R>(
        &mut self,
        name: &'static str,
        cycles: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        use proverguard_telemetry::trace;
        trace::set_now(self.mcu.clock().cycles());
        let span = trace::span(name);
        self.mcu.advance_active(cycles);
        trace::set_now(self.mcu.clock().cycles());
        let result = f(self);
        drop(span);
        result
    }

    /// Modelled cost of re-digesting the segments in `todo`, each at its
    /// real length (the head and the last segment may be short).
    fn recompute_cycles(&self, todo: &[usize], layout: SegmentLayout) -> u64 {
        todo.iter()
            .map(|&i| {
                self.mcu
                    .cost_table()
                    .sha1_digest_cost(segcache::SEGMENT_PREFIX_LEN + layout.span(i).len())
            })
            .sum()
    }

    /// Digests segment `i` straight from RAM, under the same MPU span
    /// check as every `Code_Attest` read.
    fn digest_segment(
        &mut self,
        i: usize,
        layout: SegmentLayout,
    ) -> Result<[u8; DIGEST_SIZE], AttestError> {
        let ram = self.mcu.ram_view(map::ATTEST_PC)?;
        Ok(segcache::segment_digest(i as u32, &ram[layout.span(i)]))
    }

    fn finish(&mut self, cost: CostBreakdown) {
        self.stats.attestation_cycles = self.stats.attestation_cycles.saturating_add(cost.total());
        // The budget tracks actual spend: accepted requests debit their
        // full MAC cost, rejects only what their check cost.
        if let Some(ctrl) = self.admission.as_mut() {
            ctrl.charge(cost.total());
        }
        self.last_cost = cost;
    }

    /// Cheap pre-auth peek for degraded mode: is the request's freshness
    /// field strictly newer than the protected `counter_R` word? (An
    /// unauthenticated header can of course *claim* freshness — forgeries
    /// still die at the auth check; this gate exists to shed the replayed
    /// and duplicated traffic that dominates storms.)
    fn freshness_peek(&mut self, field: &FreshnessField) -> bool {
        let mut buf = [0u8; 8];
        if self
            .mcu
            .bus_read(map::COUNTER_R.start, &mut buf, map::ATTEST_PC)
            .is_err()
        {
            return false;
        }
        let last = u64::from_le_bytes(buf);
        match field {
            FreshnessField::Counter(c) => *c > last,
            FreshnessField::Timestamp(t) => *t > last,
            FreshnessField::None | FreshnessField::Nonce(_) => false,
        }
    }

    /// Saves the current freshness state into the attached store (no-op
    /// without one). With [`Protection::EaMac`] the record is sealed under
    /// the device key; the [`Protection::Open`] baseline writes it in the
    /// clear — and therefore cannot tell a rollback from the truth.
    fn persist_freshness(&mut self) -> Result<(), AttestError> {
        if self.nv.is_none() {
            return Ok(());
        }
        let synced_ms = self.synced_now_ms()?.unwrap_or(0);
        let mut record = FreshnessRecord::capture(&mut self.mcu, synced_ms)?;
        if let Some(ctrl) = &self.admission {
            let snap = ctrl.snapshot();
            record.admission_tokens = snap.tokens;
            record.admission_refill_mark = snap.refill_mark_cycles;
        }
        let bytes = match self.config.protection {
            Protection::EaMac => record.seal(&self.response_key),
            Protection::Open => record.encode(),
        };
        if let Some(nv) = &mut self.nv {
            nv.save(&bytes);
        }
        Ok(())
    }

    /// Power-cycles the device and re-runs the boot path: volatile state
    /// (RAM, MPU, IRQ, clocks) is lost exactly as [`Mcu::reset`] defines,
    /// secure boot re-verifies the flash image against the provisioning
    /// reference, and the freshness record — if an attached store holds a
    /// valid one — is restored *before* the EA-MPU locks.
    ///
    /// This is the honest-reboot counterpart of `Adv_roam`'s reset attack:
    /// with a sealed record the counter survives and old requests stay
    /// replay-protected; without one (or with the unsealed baseline) the
    /// counter rolls back to whatever the store says, or to zero.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] / [`AttestError::Crypto`] if the boot path
    /// itself fails (e.g. secure boot rejects a modified image).
    pub fn reboot(&mut self) -> Result<RecoveryOutcome, AttestError> {
        // What the store says, judged before anything else: the decision
        // is made on non-volatile data only.
        let outcome = match &self.nv {
            None => RecoveryOutcome::NoStore,
            Some(nv) => match nv.load() {
                None => RecoveryOutcome::Empty,
                Some(bytes) => {
                    let record = match self.config.protection {
                        Protection::EaMac => {
                            FreshnessRecord::open_sealed(&bytes, &self.response_key)
                        }
                        Protection::Open => FreshnessRecord::decode(&bytes),
                    };
                    match record {
                        Some(r) => RecoveryOutcome::Restored(r),
                        None => RecoveryOutcome::TamperDetected,
                    }
                }
            },
        };

        // Power cycle: volatile state is gone.
        self.mcu.reset();

        // The boot loader re-creates what provisioning set up in RAM.
        if self.config.clock == ClockKind::Software {
            self.mcu
                .install_idt_entry(TIMER_WRAP_VECTOR, CLOCK_HANDLER_ADDR)?;
        }
        if let RecoveryOutcome::Restored(record) = &outcome {
            // Restore while the MPU is still unlocked, as boot code.
            record.restore(&mut self.mcu, map::BOOT_PC)?;
        }
        if self.config.protection == Protection::EaMac {
            self.mcu
                .install_entry_point(map::ATTEST_CODE, map::ATTEST_CODE.start);
            self.mcu
                .install_entry_point(map::CLOCK_CODE, CLOCK_HANDLER_ADDR);
            let rules = rules_for(self.config.protection, self.config.clock);
            match self.load_journal() {
                // No journal: the pre-OTA contract — a digest mismatch
                // refuses to boot and the error propagates.
                None => {
                    SecureBoot::new(self.boot_reference).run(&mut self.mcu, &rules)?;
                    self.boot_health = BootHealth::Healthy;
                }
                Some(journal) => {
                    let digest = image_digest(self.mcu.physical_memory().flash());
                    if digest == journal.active_digest {
                        // Committed image in place: a normal boot. If a
                        // completed update was journalled as mirrored,
                        // the boot loader re-kicks the DMA install.
                        SecureBoot::new(journal.active_digest).run(&mut self.mcu, &rules)?;
                        self.boot_reference = journal.active_digest;
                        self.boot_health = BootHealth::Healthy;
                        if journal.mirrored {
                            self.mcu.dma_copy_flash_to_ram(
                                0,
                                map::APP_IMAGE_MIRROR.start,
                                map::APP_IMAGE_MIRROR.len(),
                            )?;
                        }
                    } else if journal.in_progress && digest == journal.target_digest {
                        // Power died between the last programmed byte and
                        // the commit journal write: the image is whole, so
                        // commit it now.
                        SecureBoot::new(journal.target_digest).run(&mut self.mcu, &rules)?;
                        self.boot_reference = journal.target_digest;
                        self.boot_health = BootHealth::Healthy;
                        self.mcu.dma_copy_flash_to_ram(
                            0,
                            map::APP_IMAGE_MIRROR.start,
                            map::APP_IMAGE_MIRROR.len(),
                        )?;
                        self.persist_journal(&UpdateJournal {
                            active_digest: digest,
                            target_digest: digest,
                            in_progress: false,
                            mirrored: true,
                        });
                    } else {
                        // Torn flash: neither image. Recovery boot arms
                        // the protections without the digest check and
                        // still installs the execute-from-RAM shadow of
                        // whatever the flash holds — so the next
                        // attestation covers the *torn* bytes and can
                        // verify as neither the old nor the new image.
                        SecureBoot::new(journal.active_digest)
                            .run_recovery(&mut self.mcu, &rules)?;
                        self.mcu.dma_copy_flash_to_ram(
                            0,
                            map::APP_IMAGE_MIRROR.start,
                            map::APP_IMAGE_MIRROR.len(),
                        )?;
                        self.boot_reference = journal.active_digest;
                        self.boot_health = BootHealth::Recovery;
                    }
                }
            }
        }

        // Epoch-log recovery, judged like the freshness record on
        // non-volatile data only. A valid sealed record restores the round
        // register monotonically — and stamps every segment at the
        // restored round, since the wipe rewrote every byte of RAM — so
        // History claims about pre-reboot rounds stay sound. Anything else
        // (no store, empty, failed seal) means the log cannot vouch for
        // older rounds: History is suspended until a full-scope round
        // re-establishes ground truth, and a failed seal additionally
        // counts as a detected rollback/forgery.
        self.history_suspended = true;
        if self.epoch_nv.as_ref().and_then(|nv| nv.load()).is_some() {
            match self.load_epoch_log() {
                Some(record) => {
                    self.mcu.restore_epoch(record.epoch, map::BOOT_PC)?;
                    self.history_suspended = false;
                    self.persist_epoch_log();
                }
                None => {
                    self.stats.epoch_recovery_failures =
                        self.stats.epoch_recovery_failures.saturating_add(1);
                }
            }
        }

        // Host-side mirrors of volatile state start over too. The segment
        // cache is volatile by design — it is NOT part of the sealed
        // freshness record, so an honest reboot (like Adv_roam's reset)
        // forces a full recomputation on the next segmented attestation.
        self.policy = FreshnessPolicy::new(self.config.freshness);
        self.clock = ProverClock::new(self.config.clock);
        self.last_cost = CostBreakdown::default();
        self.invalidate_segcache();
        self.fault_mark = self.mcu.fault_log().len();

        // The admission budget is restored from the (seal-verified)
        // record; anything else — no store, empty, tampered — reboots
        // into an *empty* bucket so power-cycling never refills it. The
        // cycle clock survives reset, so legitimately elapsed time is
        // still credited at the next refill.
        if let Some(ctrl) = self.admission.as_mut() {
            let now_cycles = self.mcu.clock().cycles();
            if let RecoveryOutcome::Restored(record) = &outcome {
                ctrl.restore(
                    AdmissionSnapshot {
                        tokens: record.admission_tokens,
                        refill_mark_cycles: record.admission_refill_mark,
                    },
                    now_cycles,
                );
            } else {
                ctrl.reset_empty(now_cycles);
            }
        }

        self.stats.reboots = self.stats.reboots.saturating_add(1);
        if outcome == RecoveryOutcome::TamperDetected {
            self.stats.recovery_failures = self.stats.recovery_failures.saturating_add(1);
        }
        Ok(outcome)
    }

    /// The memory image a verifier should expect (test oracle: the
    /// device's actual RAM, via the hardware view). In a real deployment
    /// the verifier derives this from the provisioned software.
    #[must_use]
    pub fn expected_memory(&self) -> &[u8] {
        self.mcu.physical_memory().ram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::Verifier;

    const KEY: [u8; 16] = [0x42; 16];

    fn pair(config: ProverConfig) -> (Prover, Verifier) {
        let prover = Prover::provision(config.clone(), &KEY, b"app v1").unwrap();
        let verifier = Verifier::new(&config, &KEY).unwrap();
        (prover, verifier)
    }

    #[test]
    fn end_to_end_recommended_config() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended());
        for _ in 0..3 {
            let req = verifier.make_request().unwrap();
            let resp = prover.handle_request(&req).unwrap();
            assert!(verifier.check_response(&req, &resp, prover.expected_memory()));
        }
        assert_eq!(prover.stats().accepted, 3);
    }

    #[test]
    fn forged_request_rejected_cheaply() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended());
        let mut req = verifier.make_request().unwrap();
        req.auth = vec![0; req.auth.len()];
        let err = prover.handle_request(&req).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::BadAuth));
        // The rejection cost only the auth check, not the memory MAC.
        assert_eq!(prover.last_cost().response_cycles, 0);
        assert!(prover.last_cost().total_ms() < 1.0);
    }

    #[test]
    fn accepted_request_costs_hundreds_of_ms() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended());
        let req = verifier.make_request().unwrap();
        prover.handle_request(&req).unwrap();
        // §3.1: ~754 ms for the 512 KB memory MAC.
        let ms = prover.last_cost().total_ms();
        assert!((700.0..900.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn replayed_request_rejected_by_counter() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended());
        let req = verifier.make_request().unwrap();
        prover.handle_request(&req).unwrap();
        let err = prover.handle_request(&req).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::StaleCounter));
        assert_eq!(prover.stats().rejected_freshness, 1);
    }

    #[test]
    fn timestamp_config_works_with_hw_clock() {
        let (mut prover, mut verifier) = pair(ProverConfig::timestamp_hw64());
        // Let both clocks advance together.
        prover.advance_time_ms(1000).unwrap();
        verifier.advance_time_ms(1000);
        let req = verifier.make_request().unwrap();
        prover.handle_request(&req).unwrap();
        // A replay a second later is out of the window AND non-monotonic.
        prover.advance_time_ms(1000).unwrap();
        verifier.advance_time_ms(1000);
        let err = prover.handle_request(&req).unwrap_err();
        assert!(err.is_rejection());
    }

    #[test]
    fn timestamp_config_works_with_sw_clock() {
        let (mut prover, mut verifier) = pair(ProverConfig::timestamp_sw_clock());
        prover.advance_time_ms(2000).unwrap();
        verifier.advance_time_ms(2000);
        let req = verifier.make_request().unwrap();
        prover.handle_request(&req).unwrap();
        assert_eq!(prover.stats().accepted, 1);
    }

    #[test]
    fn timestamp_without_clock_is_bad_config() {
        let mut config = ProverConfig::recommended();
        config.freshness = FreshnessKind::Timestamp;
        config.clock = ClockKind::None;
        assert!(matches!(
            Prover::provision(config, &KEY, b"app"),
            Err(AttestError::BadConfig { .. })
        ));
    }

    #[test]
    fn unprotected_prover_answers_anything() {
        let (mut prover, _) = pair(ProverConfig::unprotected());
        // A completely bogus request — no auth, no freshness.
        let bogus = AttestRequest {
            scope: AttestScope::Whole,
            freshness: crate::message::FreshnessField::None,
            challenge: [0; 16],
            auth: Vec::new(),
        };
        // The prover does the full expensive attestation. DoS achieved.
        prover.handle_request(&bogus).unwrap();
        assert_eq!(prover.stats().accepted, 1);
        assert!(prover.last_cost().total_ms() > 700.0);
    }

    #[test]
    fn protected_key_unreadable_by_app_code() {
        let (mut prover, _) = pair(ProverConfig::recommended());
        assert!(prover.mcu_mut().read_attest_key(map::APP_CODE).is_err());
        // But Code_Attest read it fine during provisioning (we got here).
    }

    #[test]
    fn segmented_repeat_attestation_is_cheap_and_verifies() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        // First segmented attestation: everything is dirty, full cost.
        let req = verifier.make_request().unwrap();
        assert_eq!(req.scope, AttestScope::Segmented);
        let resp = prover.handle_request(&req).unwrap();
        assert!(verifier.check_response(&req, &resp, prover.expected_memory()));
        let first = *prover.last_cost();
        assert!(first.mac_recomputed_segments > 0);

        // Nothing written since (the freshness commit dirties only the
        // counter_R segment): the repeat re-digests just that one segment.
        let req = verifier.make_request().unwrap();
        let resp = prover.handle_request(&req).unwrap();
        assert!(verifier.check_response(&req, &resp, prover.expected_memory()));
        let second = *prover.last_cost();
        assert_eq!(second.mac_recomputed_segments, 1);
        assert!(
            second.response_cycles < first.response_cycles / 6,
            "repeat cost {} vs first {}",
            second.response_cycles,
            first.response_cycles
        );
    }

    #[test]
    fn segmented_tracks_app_writes() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        let req = verifier.make_request().unwrap();
        prover.handle_request(&req).unwrap();

        // Application code modifies RAM in a segment well away from
        // counter_R's; the next report must reflect it.
        prover
            .mcu_mut()
            .bus_write(map::RAM.start + 3 * 8192 + 64, &[0xEE; 100], map::APP_CODE)
            .unwrap();
        let req = verifier.make_request().unwrap();
        let resp = prover.handle_request(&req).unwrap();
        assert!(verifier.check_response(&req, &resp, prover.expected_memory()));
        // counter_R segment + the written segment were re-digested.
        assert_eq!(prover.last_cost().mac_recomputed_segments, 2);
    }

    /// Traced segmented rounds — cold, quiescent, one dirty body segment
    /// — charge the body digest in its own phase, once per round that
    /// re-digested a segment after the head, and the `prover.*` phase
    /// table still sums exactly to `attestation_cycles`.
    #[test]
    fn segmented_phases_sum_to_attestation_cycles() {
        use proverguard_telemetry::{export::PhaseTable, trace};
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        trace::reset();
        trace::enable();
        for round in 0..3 {
            if round == 2 {
                prover
                    .mcu_mut()
                    .bus_write(map::RAM.start + 5 * 8192, &[0x5A], map::APP_CODE)
                    .unwrap();
            }
            let req = verifier.make_request().unwrap();
            let resp = prover.handle_request(&req).unwrap();
            assert!(verifier.check_response(&req, &resp, prover.expected_memory()));
        }
        trace::disable();
        let phases = PhaseTable::from_events_with_prefix(&trace::drain(), "prover.");
        assert_eq!(phases.total_cycles(), prover.stats().attestation_cycles);
        let body = phases.row("prover.attest_mac.body").expect("body phase");
        assert_eq!(body.calls, 2);
        assert_eq!(prover.stats().seg_body_recomputed, 2);
        let table = prover.mcu().cost_table();
        assert_eq!(
            body.cycles,
            2 * table.sha1_digest_cost(segcache::BODY_PREFIX_LEN + 64 * DIGEST_SIZE)
        );
        assert_eq!(phases.row("prover.attest_mac").expect("combine").calls, 3);
    }

    #[test]
    fn segmented_scope_rejected_without_cache() {
        let (mut prover, _) = pair(ProverConfig::recommended());
        let (_, mut seg_verifier) = pair(ProverConfig::recommended_segmented());
        let req = seg_verifier.make_request().unwrap();
        let err = prover.handle_request(&req).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::ScopeUnsupported));
        assert_eq!(prover.stats().rejected_scope, 1);
        // Rejected after auth but before freshness: no counter burned, no
        // memory work done.
        assert_eq!(prover.last_cost().response_cycles, 0);
        let s = prover.stats();
        assert_eq!(s.requests_seen, s.accepted + s.rejected_total());
    }

    #[test]
    fn reboot_invalidates_segment_cache() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        let req = verifier.make_request().unwrap();
        prover.handle_request(&req).unwrap();
        assert!(prover.segment_cache().unwrap().cached_count() > 0);

        prover.reboot().unwrap();
        assert_eq!(prover.segment_cache().unwrap().cached_count(), 0);
        assert_eq!(prover.stats().segcache_invalidations, 1);

        // Without an NV store the counter rolled back; redial with a fresh
        // verifier state to confirm the post-reboot full recompute still
        // verifies. (RAM was wiped, so the expected image changed too.)
        let req = verifier.make_request().unwrap();
        let resp = prover.handle_request(&req).unwrap();
        assert!(verifier.check_response(&req, &resp, prover.expected_memory()));
        assert!(prover.last_cost().mac_recomputed_segments as usize > 1);
    }

    #[test]
    fn mpu_violation_invalidates_segment_cache() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        let req = verifier.make_request().unwrap();
        prover.handle_request(&req).unwrap();
        let cached_before = prover.segment_cache().unwrap().cached_count();
        assert!(cached_before > 0);

        // Untrusted code pokes at the protected counter word — EA-MPU
        // fault, logged. The next segmented response drops the cache.
        let _ = prover
            .mcu_mut()
            .bus_write(map::COUNTER_R.start, &[0; 8], map::APP_CODE);
        assert!(!prover.mcu().fault_log().is_empty());

        let req = verifier.make_request().unwrap();
        let resp = prover.handle_request(&req).unwrap();
        assert!(verifier.check_response(&req, &resp, prover.expected_memory()));
        assert_eq!(prover.stats().segcache_invalidations, 1);
        // Everything was recomputed from scratch.
        assert_eq!(
            prover.last_cost().mac_recomputed_segments as usize,
            prover.segment_cache().unwrap().segment_count()
        );
    }

    #[test]
    fn segmented_digest_matches_from_scratch_oracle() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        for _ in 0..3 {
            let req = verifier.make_request().unwrap();
            prover.handle_request(&req).unwrap();
            let oracle = crate::segcache::segment_digests(
                prover.expected_memory(),
                prover.segment_cache().unwrap().segment_len(),
            );
            assert_eq!(prover.segment_cache().unwrap().all().unwrap(), oracle);
            prover
                .mcu_mut()
                .bus_write(map::APP_RAM.start + 64, &[1, 2, 3], map::APP_CODE)
                .unwrap();
        }
    }

    #[test]
    fn bad_segment_len_is_bad_config() {
        let mut config = ProverConfig::recommended_segmented();
        config.segmented = Some(crate::segcache::SegmentedParams { segment_len: 100 });
        assert!(matches!(
            Prover::provision(config, &KEY, b"app"),
            Err(AttestError::BadConfig { .. })
        ));
    }

    #[test]
    fn stats_accumulate() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended());
        let good = verifier.make_request().unwrap();
        prover.handle_request(&good).unwrap();
        let mut forged = verifier.make_request().unwrap();
        forged.auth = vec![0; forged.auth.len()];
        let _ = prover.handle_request(&forged);
        let _ = prover.handle_request(&good); // replay
        let s = prover.stats();
        assert_eq!(s.requests_seen, 3);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.rejected_auth, 1);
        assert_eq!(s.rejected_freshness, 1);
        assert!(s.attestation_cycles > 0);
    }

    /// Runs one round under the verifier's scope policy and asserts it
    /// verifies; returns the request that was used.
    fn round(prover: &mut Prover, verifier: &mut Verifier) -> crate::message::AttestRequest {
        let req = verifier.make_request().unwrap();
        let resp = prover.handle_request(&req).unwrap();
        let expected = prover.expected_memory().to_vec();
        assert!(verifier.check_response(&req, &resp, &expected));
        verifier.note_verified(&req, &resp, &expected);
        req
    }

    #[test]
    fn history_rounds_advance_and_stay_cheap_when_quiescent() {
        use crate::verifier::ScopePolicy;
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });

        // Bootstrap: since_round = 0, every segment reports modified.
        let req = round(&mut prover, &mut verifier);
        assert!(matches!(req.scope, AttestScope::History { since_round: 0 }));
        let seg_count = prover.segment_cache().unwrap().segment_count();
        assert_eq!(
            prover.last_cost().mac_recomputed_segments as usize,
            seg_count
        );
        assert_eq!(verifier.last_verified_round(), Some(1));
        assert_eq!(prover.current_round(), 2);

        // Quiescent follow-up: only the freshness commit's segment was
        // written since round 1, so exactly one digest is recomputed.
        let req = round(&mut prover, &mut verifier);
        assert!(matches!(req.scope, AttestScope::History { since_round: 1 }));
        assert_eq!(prover.last_cost().mac_recomputed_segments, 1);
        assert_eq!(verifier.last_history().unwrap().modified.len(), 1);
        assert_eq!(prover.stats().history_rounds, 2);
    }

    #[test]
    fn history_flags_transiently_restored_segment() {
        use crate::verifier::ScopePolicy;
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
        round(&mut prover, &mut verifier); // bootstrap

        // Transient malware: infect a segment, act, then restore the
        // original bytes before the next round. Content is back, but the
        // writes latched epochs.
        let layout = prover.mcu().segment_layout();
        let addr = map::RAM.start + layout.span(5).start as u32 + 16;
        let mut original = [0u8; 32];
        prover
            .mcu_mut()
            .bus_read(addr, &mut original, map::APP_CODE)
            .unwrap();
        prover
            .mcu_mut()
            .bus_write(addr, &[0xBA; 32], map::APP_CODE)
            .unwrap();
        prover
            .mcu_mut()
            .bus_write(addr, &original, map::APP_CODE)
            .unwrap();

        round(&mut prover, &mut verifier);
        let outcome = verifier.last_history().unwrap();
        assert!(
            outcome.modified.contains(&5),
            "restored segment must appear in the authenticated modified set: {:?}",
            outcome.modified
        );
    }

    #[test]
    fn future_since_round_rejected_before_freshness() {
        use crate::message::AttestRequest;
        let (mut prover, verifier) = pair(ProverConfig::recommended_segmented());
        let signer = RequestSigner::new(verifier.auth_method(), &KEY).unwrap();
        let mut req = AttestRequest {
            scope: AttestScope::History { since_round: 99 },
            freshness: FreshnessField::Counter(1),
            challenge: [7; 16],
            auth: Vec::new(),
        };
        req.auth = signer.sign(&req.signed_bytes());
        let err = prover.handle_request(&req).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::BadAuth));
        // No freshness state burned, no digest work done.
        assert_eq!(prover.last_cost().response_cycles, 0);
        // The same counter re-dials fine at a servable window.
        req.scope = AttestScope::History { since_round: 0 };
        req.auth = signer.sign(&req.signed_bytes());
        prover.handle_request(&req).unwrap();
    }

    #[test]
    fn epoch_log_survives_reboot_via_sealed_record() {
        use crate::persist::InMemoryNvStore;
        use crate::verifier::ScopePolicy;
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        prover.attach_epoch_log_store(Box::new(InMemoryNvStore::default()));
        prover
            .attach_nv_store(Box::new(InMemoryNvStore::default()))
            .unwrap();
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
        round(&mut prover, &mut verifier);
        round(&mut prover, &mut verifier);
        let pre_reboot_round = prover.current_round();

        prover.reboot().unwrap();
        assert!(!prover.history_suspended());
        // Monotonic restore: the register never went backwards, so the
        // verifier's remembered round is still strictly in the past.
        assert!(prover.current_round() >= pre_reboot_round);

        // The verifier's next History round self-heals: everything was
        // stamped at the restored round, so it is a full-coverage round.
        round(&mut prover, &mut verifier);
        let seg_count = prover.segment_cache().unwrap().segment_count();
        assert_eq!(
            prover.last_cost().mac_recomputed_segments as usize,
            seg_count
        );
    }

    #[test]
    fn tampered_epoch_log_suspends_history_until_full_round() {
        use crate::persist::{InMemoryNvStore, SharedNvStore};
        use crate::verifier::ScopePolicy;
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        let store = SharedNvStore::new();
        prover.attach_epoch_log_store(Box::new(store.clone()));
        prover
            .attach_nv_store(Box::new(InMemoryNvStore::default()))
            .unwrap();
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
        round(&mut prover, &mut verifier);

        // Flip one bit in the sealed record: the rollback/forgery case.
        let mut raw = store.raw().unwrap();
        *raw.last_mut().unwrap() ^= 1;
        store.overwrite(Some(raw));

        prover.reboot().unwrap();
        assert!(prover.history_suspended());
        assert_eq!(prover.stats().epoch_recovery_failures, 1);

        // The History request is refused; the verifier falls back to a
        // full Segmented round, which lifts the suspension, then History
        // re-bootstraps from zero.
        let req = verifier.make_request().unwrap();
        assert!(matches!(req.scope, AttestScope::History { .. }));
        let err = prover.handle_request(&req).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::ScopeUnsupported));
        verifier.note_failed(&req);

        let req = round(&mut prover, &mut verifier);
        assert_eq!(req.scope, AttestScope::Segmented);
        assert!(!prover.history_suspended());
        let req = round(&mut prover, &mut verifier);
        assert!(matches!(req.scope, AttestScope::History { since_round: 0 }));
    }

    #[test]
    fn reboot_without_epoch_store_suspends_history() {
        use crate::verifier::ScopePolicy;
        let (mut prover, mut verifier) = pair(ProverConfig::recommended_segmented());
        prover
            .attach_nv_store(Box::new(crate::persist::InMemoryNvStore::default()))
            .unwrap();
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
        round(&mut prover, &mut verifier);
        prover.reboot().unwrap();
        // Rounds before this boot are unprovable without the sealed log.
        assert!(prover.history_suspended());
        let req = verifier.make_request().unwrap();
        let err = prover.handle_request(&req).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::ScopeUnsupported));
        assert!(prover.stats().rejected_scope >= 1);
        let s = prover.stats();
        assert_eq!(s.requests_seen, s.accepted + s.rejected_total());
    }
}

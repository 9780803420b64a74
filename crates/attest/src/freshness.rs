//! Freshness policies (§4.2, Table 2).
//!
//! | policy        | replay | reorder | delay | prover cost |
//! |---------------|--------|---------|-------|-------------|
//! | nonce history | ✓      | –       | –     | unbounded non-volatile memory |
//! | counter       | ✓      | ✓       | –     | one protected word (`counter_R`) |
//! | timestamp     | ✓      | ✓       | ✓     | a protected real-time clock |
//!
//! The counter and the timestamp policies keep their persistent word in
//! the device's `counter_R` RAM cell and access it **through the bus as
//! `Code_Attest`**, so the EA-MPU rules of §6 genuinely gate the state
//! that `Adv_roam` wants to roll back.

use proverguard_mcu::device::Mcu;
use proverguard_mcu::map;

use crate::error::{AttestError, RejectReason};
use crate::message::{FreshnessField, NONCE_SIZE};

/// Which freshness mechanism the deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreshnessKind {
    /// Accept everything (vulnerable strawman).
    None,
    /// Verifier nonces, prover keeps a complete history.
    NonceHistory,
    /// Monotonically increasing counter.
    Counter,
    /// Verifier timestamps checked against the prover clock.
    Timestamp,
}

impl std::fmt::Display for FreshnessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreshnessKind::None => write!(f, "none"),
            FreshnessKind::NonceHistory => write!(f, "nonces"),
            FreshnessKind::Counter => write!(f, "counter"),
            FreshnessKind::Timestamp => write!(f, "timestamps"),
        }
    }
}

/// Default acceptance window for timestamps (maximum tolerated delivery
/// delay and clock skew), in milliseconds.
pub const DEFAULT_MAX_DELAY_MS: u64 = 500;

/// Prover-side freshness state.
#[derive(Debug, Clone)]
pub enum FreshnessPolicy {
    /// No freshness checking.
    None,
    /// Complete nonce history (the paper's memory-hungry option).
    NonceHistory {
        /// Every nonce ever accepted.
        seen: Vec<[u8; NONCE_SIZE]>,
    },
    /// Monotonic counter; persistent state lives in `counter_R`.
    Counter,
    /// Timestamp window; the last accepted timestamp lives in `counter_R`.
    Timestamp {
        /// Maximum tolerated `|now - t|` in milliseconds.
        max_delay_ms: u64,
    },
}

impl FreshnessPolicy {
    /// Builds the policy for `kind` with default parameters.
    #[must_use]
    pub fn new(kind: FreshnessKind) -> Self {
        match kind {
            FreshnessKind::None => FreshnessPolicy::None,
            FreshnessKind::NonceHistory => FreshnessPolicy::NonceHistory { seen: Vec::new() },
            FreshnessKind::Counter => FreshnessPolicy::Counter,
            FreshnessKind::Timestamp => FreshnessPolicy::Timestamp {
                max_delay_ms: DEFAULT_MAX_DELAY_MS,
            },
        }
    }

    /// The kind of this policy.
    #[must_use]
    pub fn kind(&self) -> FreshnessKind {
        match self {
            FreshnessPolicy::None => FreshnessKind::None,
            FreshnessPolicy::NonceHistory { .. } => FreshnessKind::NonceHistory,
            FreshnessPolicy::Counter => FreshnessKind::Counter,
            FreshnessPolicy::Timestamp { .. } => FreshnessKind::Timestamp,
        }
    }

    /// Non-volatile bytes the policy state occupies on the prover — the
    /// §4.2 argument against nonce histories ("a lot of non-volatile
    /// memory") made measurable.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match self {
            FreshnessPolicy::None => 0,
            FreshnessPolicy::NonceHistory { seen } => seen.len() * NONCE_SIZE,
            // One 8-byte protected word.
            FreshnessPolicy::Counter | FreshnessPolicy::Timestamp { .. } => 8,
        }
    }

    /// Checks `field` and, if fresh, commits the new state.
    ///
    /// `now_ms` must be `Some` for the timestamp policy (the prover reads
    /// its clock first).
    ///
    /// # Errors
    ///
    /// - [`AttestError::Rejected`] when the request is stale (this is the
    ///   defence working).
    /// - [`AttestError::Device`] if the EA-MPU denies the `counter_R`
    ///   access (misconfigured trust anchor).
    /// - [`AttestError::MissingClock`] for timestamps without `now_ms`.
    pub fn check_and_update(
        &mut self,
        field: &FreshnessField,
        mcu: &mut Mcu,
        now_ms: Option<u64>,
    ) -> Result<(), AttestError> {
        match self {
            FreshnessPolicy::None => Ok(()),
            FreshnessPolicy::NonceHistory { seen } => {
                let FreshnessField::Nonce(nonce) = field else {
                    return Err(AttestError::Rejected(RejectReason::FreshnessKindMismatch));
                };
                if seen.contains(nonce) {
                    return Err(AttestError::Rejected(RejectReason::NonceReused));
                }
                seen.push(*nonce);
                Ok(())
            }
            FreshnessPolicy::Counter => {
                let FreshnessField::Counter(c) = field else {
                    return Err(AttestError::Rejected(RejectReason::FreshnessKindMismatch));
                };
                let stored = read_counter_r(mcu)?;
                if *c <= stored {
                    return Err(AttestError::Rejected(RejectReason::StaleCounter));
                }
                write_counter_r(mcu, *c)?;
                Ok(())
            }
            FreshnessPolicy::Timestamp { max_delay_ms } => {
                let FreshnessField::Timestamp(t) = field else {
                    return Err(AttestError::Rejected(RejectReason::FreshnessKindMismatch));
                };
                let now = now_ms.ok_or(AttestError::MissingClock)?;
                let last = read_counter_r(mcu)?;
                if *t <= last {
                    return Err(AttestError::Rejected(RejectReason::TimestampNotMonotonic));
                }
                let delay = now.abs_diff(*t);
                if delay > *max_delay_ms {
                    return Err(AttestError::Rejected(RejectReason::TimestampOutOfWindow));
                }
                write_counter_r(mcu, *t)?;
                Ok(())
            }
        }
    }
}

/// Patches a verifier-side expected RAM image so its `counter_R` word
/// matches what the prover will have committed by response time: the
/// prover writes the request's counter/timestamp into `counter_R`
/// *before* MACing memory, so every expected image must carry the same
/// value at the same offset. Nonce and no-freshness requests leave
/// `counter_R` untouched and this is a no-op.
///
/// The gateway never patches a copy: its expected view lays the same
/// word over the shared baseline.
pub fn patch_expected_image(image: &mut [u8], field: &FreshnessField) {
    let off = counter_r_offset();
    if let (Some(word), Some(slot)) = (committed_word(field), image.get_mut(off..off + 8)) {
        slot.copy_from_slice(&word);
    }
}

/// The `counter_R` word the prover commits for a request carrying
/// `field` before it MACs memory: the counter or timestamp,
/// little-endian. `None` for nonce and no-freshness requests, which leave
/// the word as it was.
#[must_use]
pub(crate) fn committed_word(field: &FreshnessField) -> Option<[u8; 8]> {
    match field {
        FreshnessField::Counter(v) | FreshnessField::Timestamp(v) => Some(v.to_le_bytes()),
        FreshnessField::None | FreshnessField::Nonce(_) => None,
    }
}

/// Byte offset of the `counter_R` word inside an expected RAM image.
#[must_use]
pub fn counter_r_offset() -> usize {
    (map::COUNTER_R.start - map::RAM.start) as usize
}

/// Patches a verifier-side expected RAM image so its gated-command
/// counter word (third `TRUST_STATE` word) matches what the prover
/// committed when it executed the command. An attestation taken *after*
/// an `UpdateFirmware` must expect the counter that update consumed —
/// the campaign path resolves that per device, per wave.
pub fn patch_expected_command_counter(image: &mut [u8], counter: u64) {
    let off = (map::TRUST_STATE.start + 16 - map::RAM.start) as usize;
    if image.len() >= off + 8 {
        image[off..off + 8].copy_from_slice(&counter.to_le_bytes());
    }
}

/// Reads the protected `counter_R` word as `Code_Attest`.
///
/// # Errors
///
/// [`AttestError::Device`] if the EA-MPU denies the read.
pub fn read_counter_r(mcu: &mut Mcu) -> Result<u64, AttestError> {
    let mut buf = [0u8; 8];
    mcu.bus_read(map::COUNTER_R.start, &mut buf, map::ATTEST_PC)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes the protected `counter_R` word as `Code_Attest`.
///
/// # Errors
///
/// [`AttestError::Device`] if the EA-MPU denies the write.
pub fn write_counter_r(mcu: &mut Mcu, value: u64) -> Result<(), AttestError> {
    mcu.bus_write(map::COUNTER_R.start, &value.to_le_bytes(), map::ATTEST_PC)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mcu() -> Mcu {
        Mcu::new()
    }

    #[test]
    fn none_accepts_any_field() {
        let mut p = FreshnessPolicy::new(FreshnessKind::None);
        let mut m = mcu();
        for field in [
            FreshnessField::None,
            FreshnessField::Counter(0),
            FreshnessField::Timestamp(0),
            FreshnessField::Nonce([0; 16]),
        ] {
            assert!(p.check_and_update(&field, &mut m, None).is_ok());
        }
    }

    #[test]
    fn nonce_history_detects_replay_only() {
        let mut p = FreshnessPolicy::new(FreshnessKind::NonceHistory);
        let mut m = mcu();
        let n1 = FreshnessField::Nonce([1; 16]);
        let n2 = FreshnessField::Nonce([2; 16]);
        assert!(p.check_and_update(&n1, &mut m, None).is_ok());
        assert!(p.check_and_update(&n2, &mut m, None).is_ok());
        // Replay detected.
        let err = p.check_and_update(&n1, &mut m, None).unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::NonceReused));
        // Storage grows linearly — the paper's complaint.
        assert_eq!(p.storage_bytes(), 2 * NONCE_SIZE);
    }

    #[test]
    fn counter_detects_replay_and_reorder() {
        let mut p = FreshnessPolicy::new(FreshnessKind::Counter);
        let mut m = mcu();
        assert!(p
            .check_and_update(&FreshnessField::Counter(5), &mut m, None)
            .is_ok());
        // Replay (same counter).
        let e = p
            .check_and_update(&FreshnessField::Counter(5), &mut m, None)
            .unwrap_err();
        assert_eq!(e.reject_reason(), Some(RejectReason::StaleCounter));
        // Reorder (older counter).
        let e = p
            .check_and_update(&FreshnessField::Counter(3), &mut m, None)
            .unwrap_err();
        assert_eq!(e.reject_reason(), Some(RejectReason::StaleCounter));
        // Progress.
        assert!(p
            .check_and_update(&FreshnessField::Counter(6), &mut m, None)
            .is_ok());
        assert_eq!(read_counter_r(&mut m).unwrap(), 6);
    }

    #[test]
    fn counter_state_lives_in_device_ram() {
        let mut p = FreshnessPolicy::new(FreshnessKind::Counter);
        let mut m = mcu();
        p.check_and_update(&FreshnessField::Counter(9), &mut m, None)
            .unwrap();
        // Roll the device word back — the policy must now accept a replay
        // (this is exactly Adv_roam's counter attack in §5).
        write_counter_r(&mut m, 8).unwrap();
        assert!(p
            .check_and_update(&FreshnessField::Counter(9), &mut m, None)
            .is_ok());
    }

    #[test]
    fn timestamp_detects_replay_reorder_and_delay() {
        let mut p = FreshnessPolicy::new(FreshnessKind::Timestamp);
        let mut m = mcu();
        // Genuine request at t=1000, clock says 1100.
        assert!(p
            .check_and_update(&FreshnessField::Timestamp(1000), &mut m, Some(1100))
            .is_ok());
        // Replay later: not monotonic.
        let e = p
            .check_and_update(&FreshnessField::Timestamp(1000), &mut m, Some(2000))
            .unwrap_err();
        assert_eq!(e.reject_reason(), Some(RejectReason::TimestampNotMonotonic));
        // Delayed request: t=1500 delivered when clock reads 9999.
        let e = p
            .check_and_update(&FreshnessField::Timestamp(1500), &mut m, Some(9999))
            .unwrap_err();
        assert_eq!(e.reject_reason(), Some(RejectReason::TimestampOutOfWindow));
        // Fresh request inside the window.
        assert!(p
            .check_and_update(&FreshnessField::Timestamp(10_000), &mut m, Some(10_100))
            .is_ok());
    }

    #[test]
    fn timestamp_rejects_far_future() {
        let mut p = FreshnessPolicy::new(FreshnessKind::Timestamp);
        let mut m = mcu();
        let e = p
            .check_and_update(&FreshnessField::Timestamp(50_000), &mut m, Some(1000))
            .unwrap_err();
        assert_eq!(e.reject_reason(), Some(RejectReason::TimestampOutOfWindow));
    }

    #[test]
    fn timestamp_requires_clock() {
        let mut p = FreshnessPolicy::new(FreshnessKind::Timestamp);
        let mut m = mcu();
        let e = p
            .check_and_update(&FreshnessField::Timestamp(1), &mut m, None)
            .unwrap_err();
        assert!(matches!(e, AttestError::MissingClock));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut m = mcu();
        let mut counter = FreshnessPolicy::new(FreshnessKind::Counter);
        let e = counter
            .check_and_update(&FreshnessField::Timestamp(1), &mut m, Some(1))
            .unwrap_err();
        assert_eq!(e.reject_reason(), Some(RejectReason::FreshnessKindMismatch));
        let mut nonce = FreshnessPolicy::new(FreshnessKind::NonceHistory);
        let e = nonce
            .check_and_update(&FreshnessField::None, &mut m, None)
            .unwrap_err();
        assert_eq!(e.reject_reason(), Some(RejectReason::FreshnessKindMismatch));
    }

    #[test]
    fn patch_expected_image_matches_device_commit() {
        let mut p = FreshnessPolicy::new(FreshnessKind::Counter);
        let mut m = mcu();
        p.check_and_update(&FreshnessField::Counter(0xDEAD_BEEF), &mut m, None)
            .unwrap();
        let mut image = vec![0u8; map::RAM.len() as usize];
        patch_expected_image(&mut image, &FreshnessField::Counter(0xDEAD_BEEF));
        let off = (map::COUNTER_R.start - map::RAM.start) as usize;
        assert_eq!(image[off..off + 8], 0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(read_counter_r(&mut m).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn patch_expected_image_ignores_nonces_and_short_images() {
        let mut image = vec![0xAAu8; 32];
        patch_expected_image(&mut image, &FreshnessField::Nonce([1; 16]));
        patch_expected_image(&mut image, &FreshnessField::None);
        assert!(image.iter().all(|&b| b == 0xAA));
        // Timestamp patches at the same word.
        patch_expected_image(&mut image, &FreshnessField::Timestamp(7));
        assert_eq!(image[..8], 7u64.to_le_bytes());
        // A too-short image is left alone rather than panicking.
        let mut tiny = vec![0u8; 4];
        patch_expected_image(&mut tiny, &FreshnessField::Counter(1));
        assert_eq!(tiny, vec![0u8; 4]);
    }

    #[test]
    fn patch_expected_command_counter_matches_device_word() {
        let mut m = mcu();
        let k = proverguard_crypto::mac::MacKey::new(
            proverguard_crypto::mac::MacAlgorithm::HmacSha1,
            &[0x42; 16],
        )
        .unwrap();
        crate::services::execute_command(
            &mut m,
            &k,
            &crate::services::CommandRequest {
                counter: 9,
                command: crate::services::Command::Ping,
                auth: Vec::new(),
            },
        )
        .unwrap();
        let mut image = vec![0u8; map::RAM.len() as usize];
        patch_expected_command_counter(&mut image, 9);
        let off = (map::TRUST_STATE.start + 16 - map::RAM.start) as usize;
        assert_eq!(image[off..off + 8], 9u64.to_le_bytes());
        let mut word = [0u8; 8];
        m.bus_read(map::TRUST_STATE.start + 16, &mut word, map::ATTEST_PC)
            .unwrap();
        assert_eq!(word, 9u64.to_le_bytes());
    }

    #[test]
    fn fixed_storage_for_counter_and_timestamp() {
        assert_eq!(
            FreshnessPolicy::new(FreshnessKind::Counter).storage_bytes(),
            8
        );
        assert_eq!(
            FreshnessPolicy::new(FreshnessKind::Timestamp).storage_bytes(),
            8
        );
        assert_eq!(FreshnessPolicy::new(FreshnessKind::None).storage_bytes(), 0);
    }
}

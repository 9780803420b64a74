//! Pluggable non-volatile storage for the prover's freshness state.
//!
//! §5's `Adv_roam` wins by resetting state; the same state is also lost by
//! an honest reboot, because `counter_R` and the trust-state words live in
//! volatile RAM. This module gives the prover a small non-volatile record
//! it can write after every accepted request and re-load during
//! [`Prover::reboot`](crate::prover::Prover::reboot):
//!
//! - with [`Protection::EaMac`](crate::profile::Protection::EaMac) the
//!   record is **sealed** — a MAC under a key derived from `K_Attest`
//!   covers it, so a tampered or rolled-back record is *detected* at boot
//!   (the RATA observation: attestation guarantees hinge on state that
//!   persists correctly across resets);
//! - the [`Protection::Open`](crate::profile::Protection::Open) baseline
//!   stores the record in the clear, so anyone who can touch the store can
//!   roll the counter back — reproducing the §5 rollback as a *recovery*
//!   failure, not just an attack script.
//!
//! The storage medium itself is abstract ([`PersistedState`]): tests use
//! [`InMemoryNvStore`] or the adversary-accessible [`SharedNvStore`].

use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use proverguard_crypto::mac::MacKey;
use proverguard_mcu::device::Mcu;
use proverguard_mcu::{map, SegmentLayout, MIN_SEGMENT_LEN};

use crate::error::AttestError;

/// Domain-separation prefix for the seal MAC (distinct from attestation
/// responses and sync/command authenticators).
const SEAL_DOMAIN: &[u8] = b"proverguard-nv-v1";

/// Magic bytes identifying a freshness record. The trailing digit is the
/// format version: v2 appended the admission-budget words, and a v1
/// record (or any other magic) is refused outright — a downgrade to the
/// budget-free format would itself be a rollback.
const MAGIC: &[u8; 8] = b"PGNVREC2";

/// Byte length of an encoded (unsealed) record.
pub const RECORD_LEN: usize = 8 + 6 * 8;

/// A non-volatile storage cell the prover can save one record into.
///
/// The trait is object-safe and cloneable-through-the-box so that
/// [`Prover`](crate::prover::Prover) can stay `Clone`, and `Send` so a
/// prover (store attached or not) can be moved onto the thread that will
/// serve its socket.
pub trait PersistedState: Debug + Send {
    /// Overwrites the stored record.
    fn save(&mut self, bytes: &[u8]);

    /// Reads the stored record, if any.
    fn load(&self) -> Option<Vec<u8>>;

    /// Clones the store behind a fresh box.
    fn box_clone(&self) -> Box<dyn PersistedState>;
}

impl Clone for Box<dyn PersistedState> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A plain owned in-memory store (each prover clone gets its own copy).
#[derive(Debug, Clone, Default)]
pub struct InMemoryNvStore {
    cell: Option<Vec<u8>>,
}

impl InMemoryNvStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl PersistedState for InMemoryNvStore {
    fn save(&mut self, bytes: &[u8]) {
        self.cell = Some(bytes.to_vec());
    }

    fn load(&self) -> Option<Vec<u8>> {
        self.cell.clone()
    }

    fn box_clone(&self) -> Box<dyn PersistedState> {
        Box::new(self.clone())
    }
}

/// A store whose cell is shared between the prover and whoever else holds
/// the handle — the model of an external flash chip `Adv_roam` can rewrite
/// while the device is off.
#[derive(Debug, Clone, Default)]
pub struct SharedNvStore {
    cell: Arc<Mutex<Option<Vec<u8>>>>,
}

impl SharedNvStore {
    /// An empty shared store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw stored bytes (adversary/test view).
    #[must_use]
    pub fn raw(&self) -> Option<Vec<u8>> {
        self.cell.lock().expect("nv store lock poisoned").clone()
    }

    /// Overwrites the raw stored bytes from outside the prover — the
    /// tamper/rollback surface.
    pub fn overwrite(&self, bytes: Option<Vec<u8>>) {
        *self.cell.lock().expect("nv store lock poisoned") = bytes;
    }
}

impl PersistedState for SharedNvStore {
    fn save(&mut self, bytes: &[u8]) {
        *self.cell.lock().expect("nv store lock poisoned") = Some(bytes.to_vec());
    }

    fn load(&self) -> Option<Vec<u8>> {
        self.cell.lock().expect("nv store lock poisoned").clone()
    }

    fn box_clone(&self) -> Box<dyn PersistedState> {
        Box::new(self.clone())
    }
}

/// The freshness state worth carrying across a reboot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreshnessRecord {
    /// `counter_R`: last accepted request counter or timestamp.
    pub counter_r: u64,
    /// Last accepted clock-sync counter.
    pub sync_counter: u64,
    /// Last accepted gated-command counter.
    pub command_counter: u64,
    /// The prover's synced time (raw clock + offset) when the record was
    /// written — re-seeded as the clock offset after reboot, since the raw
    /// clock restarts from zero.
    pub synced_ms: u64,
    /// Admission-controller tokens (cycles) at the time of writing; zero
    /// when no controller is installed.
    pub admission_tokens: u64,
    /// Cycle-clock reading at the controller's last refill; zero when no
    /// controller is installed.
    pub admission_refill_mark: u64,
}

impl FreshnessRecord {
    /// Reads the live freshness words out of device RAM (as `Code_Attest`).
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if the EA-MPU denies a read.
    pub fn capture(mcu: &mut Mcu, synced_ms: u64) -> Result<Self, AttestError> {
        let mut counter = [0u8; 8];
        mcu.bus_read(map::COUNTER_R.start, &mut counter, map::ATTEST_PC)?;
        // TRUST_STATE layout (see `map`): offset i64 ‖ sync u64 ‖ cmd u64.
        let mut trust = [0u8; 24];
        mcu.bus_read(map::TRUST_STATE.start, &mut trust, map::ATTEST_PC)?;
        Ok(FreshnessRecord {
            counter_r: u64::from_le_bytes(counter),
            sync_counter: u64::from_le_bytes(trust[8..16].try_into().expect("8 bytes")),
            command_counter: u64::from_le_bytes(trust[16..24].try_into().expect("8 bytes")),
            synced_ms,
            admission_tokens: 0,
            admission_refill_mark: 0,
        })
    }

    /// Writes the record back into device RAM as `pc` (the boot loader,
    /// before the MPU locks). The clock-sync offset word is seeded with
    /// `synced_ms` so synced time resumes where it left off.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if the write is denied.
    pub fn restore(&self, mcu: &mut Mcu, pc: u32) -> Result<(), AttestError> {
        mcu.bus_write(map::COUNTER_R.start, &self.counter_r.to_le_bytes(), pc)?;
        let mut trust = [0u8; 24];
        trust[..8].copy_from_slice(&(self.synced_ms as i64).to_le_bytes());
        trust[8..16].copy_from_slice(&self.sync_counter.to_le_bytes());
        trust[16..24].copy_from_slice(&self.command_counter.to_le_bytes());
        mcu.bus_write(map::TRUST_STATE.start, &trust, pc)?;
        Ok(())
    }

    /// Serializes the record (magic ‖ four LE u64 words).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_LEN);
        out.extend_from_slice(MAGIC);
        for word in [
            self.counter_r,
            self.sync_counter,
            self.command_counter,
            self.synced_ms,
            self.admission_tokens,
            self.admission_refill_mark,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parses an unsealed record; `None` on wrong magic or length.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != RECORD_LEN || &bytes[..8] != MAGIC {
            return None;
        }
        let word = |i: usize| {
            u64::from_le_bytes(bytes[8 + 8 * i..16 + 8 * i].try_into().expect("8 bytes"))
        };
        Some(FreshnessRecord {
            counter_r: word(0),
            sync_counter: word(1),
            command_counter: word(2),
            synced_ms: word(3),
            admission_tokens: word(4),
            admission_refill_mark: word(5),
        })
    }

    /// Serializes with an appended MAC tag under `key` (EA-MAC profile).
    #[must_use]
    pub fn seal(&self, key: &MacKey) -> Vec<u8> {
        let mut out = self.encode();
        let tag = key.compute(&[SEAL_DOMAIN, &out].concat());
        out.extend_from_slice(&tag);
        out
    }

    /// Parses and verifies a sealed record; `None` when the bytes are
    /// malformed **or the tag does not verify** — a tampered or
    /// rolled-back store is indistinguishable from a corrupt one and both
    /// are refused.
    #[must_use]
    pub fn open_sealed(bytes: &[u8], key: &MacKey) -> Option<Self> {
        if bytes.len() <= RECORD_LEN {
            return None;
        }
        let (record, tag) = bytes.split_at(RECORD_LEN);
        if !key.verify(&[SEAL_DOMAIN, record].concat(), tag) {
            return None;
        }
        Self::decode(record)
    }
}

/// Magic bytes identifying an update journal (a separate record format —
/// the frozen `PGNVREC2` freshness layout is untouched by OTA support).
const JOURNAL_MAGIC: &[u8; 8] = b"PGUPJRN1";

/// Byte length of an encoded (unsealed) update journal.
pub const JOURNAL_LEN: usize = 8 + 20 + 20 + 2;

/// The firmware-update journal: the tiny non-volatile record that makes
/// a torn flash *detectable and recoverable* instead of a brick.
///
/// Written before the erase starts (`in_progress` set, target recorded)
/// and again after the image commits. On reboot the boot path compares
/// the actual flash digest against `active_digest` and `target_digest`:
/// a match commits or resumes normally; anything else — the torn-flash
/// signature — routes through recovery boot. Sealed with the same
/// EA-MAC-derived key as the freshness record, in its own store slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateJournal {
    /// Whole-flash digest of the currently committed (trusted) image.
    pub active_digest: [u8; 20],
    /// Whole-flash digest the in-flight update is moving to (equal to
    /// `active_digest` when no update is in flight).
    pub target_digest: [u8; 20],
    /// `true` between the pre-erase journal write and the commit.
    pub in_progress: bool,
    /// `true` once the execute-from-RAM mirror of the active image has
    /// been installed (so boot knows to reinstall it after a power
    /// cycle).
    pub mirrored: bool,
}

impl UpdateJournal {
    /// Serializes the journal (magic ‖ digests ‖ flags).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(JOURNAL_LEN);
        out.extend_from_slice(JOURNAL_MAGIC);
        out.extend_from_slice(&self.active_digest);
        out.extend_from_slice(&self.target_digest);
        out.push(u8::from(self.in_progress));
        out.push(u8::from(self.mirrored));
        out
    }

    /// Parses an unsealed journal; `None` on wrong magic or length.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != JOURNAL_LEN || &bytes[..8] != JOURNAL_MAGIC {
            return None;
        }
        Some(UpdateJournal {
            active_digest: bytes[8..28].try_into().expect("20 bytes"),
            target_digest: bytes[28..48].try_into().expect("20 bytes"),
            in_progress: bytes[48] != 0,
            mirrored: bytes[49] != 0,
        })
    }

    /// Serializes with an appended MAC tag under `key`.
    #[must_use]
    pub fn seal(&self, key: &MacKey) -> Vec<u8> {
        let mut out = self.encode();
        let tag = key.compute(&[SEAL_DOMAIN, &out].concat());
        out.extend_from_slice(&tag);
        out
    }

    /// Parses and verifies a sealed journal; `None` when malformed or
    /// the tag does not verify.
    #[must_use]
    pub fn open_sealed(bytes: &[u8], key: &MacKey) -> Option<Self> {
        if bytes.len() <= JOURNAL_LEN {
            return None;
        }
        let (record, tag) = bytes.split_at(JOURNAL_LEN);
        if !key.verify(&[SEAL_DOMAIN, record].concat(), tag) {
            return None;
        }
        Self::decode(record)
    }
}

/// Magic bytes identifying an epoch-log record (its own format; the
/// frozen `PGNVREC2` and `PGUPJRN1` layouts are untouched by history
/// support).
const EPOCH_MAGIC: &[u8; 8] = b"PGEPLOG1";

/// Byte length of the fixed header of an encoded (unsealed) epoch-log
/// record: magic ‖ epoch ‖ segment_len ‖ segment count.
pub const EPOCH_HEADER_LEN: usize = 8 + 8 + 8 + 8;

/// Hard cap on the per-segment list a decoder will accept: the segment
/// count of the RAM at the minimum segment length, the finest layout an
/// honest capture can have. A forged length word must not drive an
/// allocation.
fn epoch_max_segments() -> u64 {
    SegmentLayout::ram(MIN_SEGMENT_LEN).count() as u64
}

/// The last-write epoch log worth carrying across a reboot.
///
/// The epoch *register* is volatile silicon, so without this record every
/// power cycle would restart round numbering — handing `Adv_roam` exactly
/// the rollback the TOCTOU log exists to close (reboot, replay round
/// numbers, and a verifier's `since_round` quietly points at a different
/// interval). The record is sealed under the same EA-MAC-derived key as
/// the freshness record; a rolled-back or forged copy fails the tag and
/// the prover boots with history *suspended* — `History` requests are
/// refused until a full-scope round rebuilds trust.
///
/// The per-segment epochs are recorded for tamper-evident audit (and the
/// golden-vector freeze), but restore deliberately does **not** replay
/// them into the hardware: RAM was wiped, so every segment truly was
/// just written, and the only sound post-boot log is "everything
/// modified at the restored epoch".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochLogRecord {
    /// The epoch register at capture time.
    pub epoch: u64,
    /// Dirty/epoch-tracking granularity the log was recorded under.
    pub segment_len: u32,
    /// Last-write epoch of each RAM segment at capture time.
    pub segment_epochs: Vec<u64>,
}

impl EpochLogRecord {
    /// Reads the live epoch state out of the device.
    #[must_use]
    pub fn capture(mcu: &Mcu) -> Self {
        EpochLogRecord {
            epoch: mcu.epoch(),
            segment_len: mcu.segment_len(),
            segment_epochs: (0..mcu.segment_count())
                .map(|i| mcu.segment_epoch(i))
                .collect(),
        }
    }

    /// Serializes the record (magic ‖ epoch ‖ segment_len ‖ count ‖
    /// per-segment epochs, all LE u64 words).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(EPOCH_HEADER_LEN + 8 * self.segment_epochs.len());
        out.extend_from_slice(EPOCH_MAGIC);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&u64::from(self.segment_len).to_le_bytes());
        out.extend_from_slice(&(self.segment_epochs.len() as u64).to_le_bytes());
        for e in &self.segment_epochs {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out
    }

    /// Parses an unsealed record; `None` on wrong magic, bad length, an
    /// absurd segment count, or a per-segment epoch newer than the
    /// register (an impossible state no honest capture produces).
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < EPOCH_HEADER_LEN || &bytes[..8] != EPOCH_MAGIC {
            return None;
        }
        let word =
            |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let epoch = word(1);
        let segment_len = u32::try_from(word(2)).ok()?;
        let count = word(3);
        if count > epoch_max_segments() || bytes.len() != EPOCH_HEADER_LEN + 8 * count as usize {
            return None;
        }
        let segment_epochs: Vec<u64> = (0..count as usize).map(|i| word(4 + i)).collect();
        if segment_epochs.iter().any(|&e| e > epoch) {
            return None;
        }
        Some(EpochLogRecord {
            epoch,
            segment_len,
            segment_epochs,
        })
    }

    /// Serializes with an appended MAC tag under `key`.
    #[must_use]
    pub fn seal(&self, key: &MacKey) -> Vec<u8> {
        let mut out = self.encode();
        let tag = key.compute(&[SEAL_DOMAIN, &out].concat());
        out.extend_from_slice(&tag);
        out
    }

    /// Parses and verifies a sealed record; `None` when malformed or the
    /// tag does not verify — a rolled-back log is refused, not restored.
    #[must_use]
    pub fn open_sealed(bytes: &[u8], key: &MacKey) -> Option<Self> {
        if bytes.len() < EPOCH_HEADER_LEN + 8 {
            return None;
        }
        let count = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        if count > epoch_max_segments() {
            return None;
        }
        let record_len = EPOCH_HEADER_LEN + 8 * count as usize;
        if bytes.len() <= record_len {
            return None;
        }
        let (record, tag) = bytes.split_at(record_len);
        if !key.verify(&[SEAL_DOMAIN, record].concat(), tag) {
            return None;
        }
        Self::decode(record)
    }
}

/// What [`Prover::reboot`](crate::prover::Prover::reboot) found in the
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Freshness state restored from a valid record.
    Restored(FreshnessRecord),
    /// No store is attached; the prover boots with zeroed freshness state.
    NoStore,
    /// The store is attached but empty (first boot).
    Empty,
    /// The record failed validation (bad seal or corrupt bytes); the
    /// prover refuses it and boots with zeroed freshness state.
    TamperDetected,
}

impl RecoveryOutcome {
    /// `true` iff a record was restored.
    #[must_use]
    pub fn restored(&self) -> bool {
        matches!(self, RecoveryOutcome::Restored(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proverguard_crypto::mac::MacAlgorithm;

    fn key() -> MacKey {
        MacKey::new(MacAlgorithm::HmacSha1, &[0x11; 16]).unwrap()
    }

    fn record() -> FreshnessRecord {
        FreshnessRecord {
            counter_r: 7,
            sync_counter: 3,
            command_counter: 1,
            synced_ms: 42_000,
            admission_tokens: 9_999,
            admission_refill_mark: 123_456,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = record();
        assert_eq!(FreshnessRecord::decode(&r.encode()), Some(r));
        assert_eq!(FreshnessRecord::decode(&[]), None);
        let mut bad_magic = r.encode();
        bad_magic[0] ^= 1;
        assert_eq!(FreshnessRecord::decode(&bad_magic), None);
    }

    #[test]
    fn seal_detects_tampering_and_rollback() {
        let r = record();
        let sealed = r.seal(&key());
        assert_eq!(FreshnessRecord::open_sealed(&sealed, &key()), Some(r));
        // Bit-flip anywhere kills it.
        for i in 0..sealed.len() {
            let mut t = sealed.clone();
            t[i] ^= 0x40;
            assert_eq!(FreshnessRecord::open_sealed(&t, &key()), None, "byte {i}");
        }
        // A stale record re-sealed under the wrong key also fails.
        let other = MacKey::new(MacAlgorithm::HmacSha1, &[0x22; 16]).unwrap();
        assert_eq!(FreshnessRecord::open_sealed(&r.seal(&other), &key()), None);
    }

    #[test]
    fn capture_restore_roundtrip_through_device() {
        let mut mcu = Mcu::new();
        record().restore(&mut mcu, map::BOOT_PC).unwrap();
        let captured = FreshnessRecord::capture(&mut mcu, 42_000).unwrap();
        // The admission words live host-side, not in device RAM: capture
        // leaves them zero for the prover to fill in.
        assert_eq!(
            captured,
            FreshnessRecord {
                admission_tokens: 0,
                admission_refill_mark: 0,
                ..record()
            }
        );
        // The offset word was seeded with synced_ms.
        assert_eq!(
            crate::clocksync::read_offset_ms(&mut mcu).unwrap(),
            42_000_i64
        );
    }

    #[test]
    fn update_journal_roundtrip_and_seal() {
        let j = UpdateJournal {
            active_digest: [0xAA; 20],
            target_digest: [0xBB; 20],
            in_progress: true,
            mirrored: false,
        };
        assert_eq!(UpdateJournal::decode(&j.encode()), Some(j));
        assert_eq!(UpdateJournal::decode(&[]), None);
        // Journal magic and freshness magic are distinct formats.
        assert_eq!(UpdateJournal::decode(&record().encode()), None);
        let sealed = j.seal(&key());
        assert_eq!(UpdateJournal::open_sealed(&sealed, &key()), Some(j));
        let mut tampered = sealed.clone();
        tampered[10] ^= 1;
        assert_eq!(UpdateJournal::open_sealed(&tampered, &key()), None);
    }

    #[test]
    fn epoch_log_roundtrip_and_seal() {
        let r = EpochLogRecord {
            epoch: 9,
            segment_len: 8192,
            segment_epochs: vec![1, 4, 9, 9, 2],
        };
        assert_eq!(EpochLogRecord::decode(&r.encode()), Some(r.clone()));
        assert_eq!(EpochLogRecord::decode(&[]), None);
        assert_eq!(EpochLogRecord::decode(&record().encode()), None);
        let sealed = r.seal(&key());
        assert_eq!(
            EpochLogRecord::open_sealed(&sealed, &key()),
            Some(r.clone())
        );
        for i in 0..sealed.len() {
            let mut t = sealed.clone();
            t[i] ^= 0x40;
            assert_eq!(EpochLogRecord::open_sealed(&t, &key()), None, "byte {i}");
        }
        let other = MacKey::new(MacAlgorithm::HmacSha1, &[0x22; 16]).unwrap();
        assert_eq!(EpochLogRecord::open_sealed(&r.seal(&other), &key()), None);
    }

    #[test]
    fn epoch_log_rejects_impossible_and_absurd_records() {
        // A per-segment epoch newer than the register is unconstructable
        // by honest capture — refuse it rather than restore it.
        let bad = EpochLogRecord {
            epoch: 3,
            segment_len: 8192,
            segment_epochs: vec![2, 4],
        };
        assert_eq!(EpochLogRecord::decode(&bad.encode()), None);
        // A forged segment count must not drive an allocation.
        let mut huge = EpochLogRecord {
            epoch: 1,
            segment_len: 64,
            segment_epochs: vec![],
        }
        .encode();
        huge[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(EpochLogRecord::decode(&huge), None);
        assert_eq!(EpochLogRecord::open_sealed(&huge, &key()), None);
    }

    #[test]
    fn epoch_log_captures_device_state() {
        let mut mcu = Mcu::new();
        mcu.advance_epoch(map::ATTEST_PC).unwrap();
        mcu.bus_write(map::APP_RAM.start, &[1], map::APP_CODE)
            .unwrap();
        let r = EpochLogRecord::capture(&mcu);
        assert_eq!(r.epoch, mcu.epoch());
        assert_eq!(r.segment_len, mcu.segment_len());
        assert_eq!(r.segment_epochs.len(), mcu.segment_count());
        let seg = mcu
            .segment_layout()
            .index_of((map::APP_RAM.start - map::RAM.start) as usize);
        assert_eq!(r.segment_epochs[seg], mcu.epoch());
    }

    #[test]
    fn shared_store_exposes_tamper_surface() {
        let handle = SharedNvStore::new();
        let mut boxed: Box<dyn PersistedState> = Box::new(handle.clone());
        boxed.save(b"state");
        assert_eq!(handle.raw().as_deref(), Some(&b"state"[..]));
        handle.overwrite(Some(b"rolled back".to_vec()));
        assert_eq!(boxed.load().as_deref(), Some(&b"rolled back"[..]));
    }

    #[test]
    fn in_memory_store_is_private_per_clone() {
        let mut a = InMemoryNvStore::new();
        a.save(b"x");
        let mut b = a.clone();
        b.save(b"y");
        assert_eq!(a.load().as_deref(), Some(&b"x"[..]));
    }
}

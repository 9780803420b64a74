//! Property test for the per-segment last-write epoch log: under
//! arbitrary interleavings of application writes, History attestations,
//! EA-MPU probe attempts, clock glitches and sealed-store reboots, a
//! verified History round's modified set must contain **every** segment
//! actually written since the round it quotes — the never-stale-trusted
//! invariant. The bitmap may conservatively over-report (a reboot stamps
//! everything); it must never under-report, because an omitted segment is
//! exactly a TOCTOU blind spot.
//!
//! A second block pins the sealed record itself: capture → seal → open is
//! the identity, and any bit flip (content or tag) refuses to open.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proverguard_attest::persist::{EpochLogRecord, InMemoryNvStore};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::segcache::SegmentedParams;
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_crypto::mac::{MacAlgorithm, MacKey};
use proverguard_mcu::{map, SegmentLayout, MIN_SEGMENT_LEN};

const KEY: [u8; 16] = [0x5A; 16];

/// Segment lengths exercised (same spread as the segcache coherence
/// suite).
const SEGMENT_LENS: [u32; 3] = [4 * 1024, 8 * 1024, 64 * 1024];

fn pair(segment_len: u32) -> (Prover, Verifier) {
    let config = ProverConfig {
        segmented: Some(SegmentedParams { segment_len }),
        ..ProverConfig::recommended()
    };
    let mut prover =
        Prover::provision(config.clone(), &KEY, b"epoch coherence").expect("provision");
    prover.attach_epoch_log_store(Box::new(InMemoryNvStore::new()));
    let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
    verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
    (prover, verifier)
}

/// One History round with the oracle check: every segment in `pending`
/// (written since the last verified round) must land in the authenticated
/// modified set. Clears `pending` on success.
fn attest_and_check(
    prover: &mut Prover,
    verifier: &mut Verifier,
    pending: &mut BTreeSet<usize>,
) -> Result<(), String> {
    let request = verifier.make_request().map_err(|e| e.to_string())?;
    let response = prover.handle_request(&request).map_err(|e| {
        verifier.note_failed(&request);
        e.to_string()
    })?;
    let expected = prover.expected_memory().to_vec();
    if !verifier.check_response(&request, &response, &expected) {
        verifier.note_failed(&request);
        return Err("history response failed verification".to_string());
    }
    verifier.note_verified(&request, &response, &expected);
    if let Some(outcome) = verifier.last_history() {
        let modified: BTreeSet<usize> = outcome.modified.iter().copied().collect();
        if let Some(missing) = pending.difference(&modified).next() {
            return Err(format!(
                "segment {missing} was written after round {} but the modified \
                 set {:?} omits it — stale-trusted",
                outcome.since_round, outcome.modified
            ));
        }
    }
    pending.clear();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn modified_set_never_omits_a_written_segment(
        seg_choice in 0usize..3,
        ops in proptest::collection::vec(any::<u64>(), 4..24),
    ) {
        let seg_len = SEGMENT_LENS[seg_choice];
        let (mut prover, mut verifier) = pair(seg_len);
        let seg_count = prover.segment_cache().expect("segmented").segment_count();
        let mut pending: BTreeSet<usize> = BTreeSet::new();

        for word in &ops {
            match word % 7 {
                // Application writes at arbitrary offsets and lengths,
                // including runs straddling segment boundaries.
                0..=2 => {
                    let span = map::RAM.end - map::APP_RAM.start;
                    let off = map::APP_RAM.start + ((word >> 3) % u64::from(span - 512)) as u32;
                    let len = 1 + ((word >> 40) % 511) as usize;
                    prover
                        .mcu_mut()
                        .bus_write(off, &vec![(word >> 16) as u8; len], map::APP_CODE)
                        .expect("app RAM is open to app code");
                    let layout = prover.mcu().segment_layout();
                    pending.extend(layout.covering((off - map::RAM.start) as usize, len));
                }
                // Attest: the invariant checkpoint.
                3 => prop_assert_eq!(
                    attest_and_check(&mut prover, &mut verifier, &mut pending),
                    Ok(())
                ),
                // Reboot: RAM wiped and rebuilt, so *every* segment was
                // written; the sealed log restores the round register so
                // History keeps working without a full re-anchor.
                4 => {
                    prover.reboot().expect("reboot");
                    prop_assert!(!prover.history_suspended(), "sealed log must restore");
                    pending.extend(0..seg_count);
                }
                // A compromised app probes the protected counter word:
                // EA-MPU fault, no write lands, no epoch moves.
                5 => {
                    let _ = prover
                        .mcu_mut()
                        .bus_write(map::COUNTER_R.start, &[0xFF; 8], map::APP_CODE);
                }
                // Clock glitch.
                _ => prover.advance_time_ms((word >> 8) % 5000).expect("advance"),
            }
        }

        // Always end on an attestation so every generated suffix of
        // writes/faults/reboots is checked at least once.
        prop_assert_eq!(
            attest_and_check(&mut prover, &mut verifier, &mut pending),
            Ok(())
        );
    }

    /// The sealed epoch-log record: capture → seal → open is the
    /// identity, and any single bit flip — in the payload or the tag —
    /// refuses to open. A rolled-back or forged log is indistinguishable
    /// from a corrupt one; both force the conservative full round.
    #[test]
    fn sealed_epoch_record_roundtrips_and_rejects_every_bitflip(
        seg_choice in 0usize..3,
        writes in proptest::collection::vec(any::<u64>(), 0..6,),
        bit_seed in any::<u32>(),
    ) {
        let (mut prover, mut verifier) = pair(SEGMENT_LENS[seg_choice]);
        let mut pending = BTreeSet::new();
        // Advance a couple of rounds and scatter writes so the captured
        // epochs are non-trivial.
        prop_assert_eq!(attest_and_check(&mut prover, &mut verifier, &mut pending), Ok(()));
        for word in &writes {
            let off = map::APP_RAM.start + (word % 0x6000) as u32;
            prover
                .mcu_mut()
                .bus_write(off, &[*word as u8], map::APP_CODE)
                .expect("app write");
        }
        prop_assert_eq!(attest_and_check(&mut prover, &mut verifier, &mut BTreeSet::new()), Ok(()));

        let key = MacKey::new(MacAlgorithm::Speck64Cbc, &KEY).expect("key");
        let record = EpochLogRecord::capture(prover.mcu_mut());
        let sealed = record.seal(&key);
        prop_assert_eq!(EpochLogRecord::open_sealed(&sealed, &key), Some(record));

        let mut tampered = sealed.clone();
        let bit = bit_seed as usize % (tampered.len() * 8);
        tampered[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(EpochLogRecord::open_sealed(&tampered, &key), None);
    }
}

/// The finest legal layout: at 64-byte segments the freshness words end
/// inside the first segment, so the RAM has one segment more than
/// `RAM / 64`. Its sealed log must still open at reboot, so History
/// resumes without a full re-anchor and the next round verifies.
#[test]
fn finest_layout_log_survives_a_reboot() {
    let (mut prover, mut verifier) = pair(MIN_SEGMENT_LEN);
    prover
        .attach_nv_store(Box::new(InMemoryNvStore::new()))
        .expect("nv store");
    let seg_count = prover.segment_cache().expect("segmented").segment_count();
    assert_eq!(seg_count, SegmentLayout::ram(MIN_SEGMENT_LEN).count());
    assert!(seg_count > (map::RAM.len() / MIN_SEGMENT_LEN) as usize);
    let mut pending = BTreeSet::new();
    for _ in 0..2 {
        assert_eq!(
            attest_and_check(&mut prover, &mut verifier, &mut pending),
            Ok(())
        );
    }
    prover.reboot().expect("reboot");
    assert!(!prover.history_suspended(), "sealed log must restore");
    pending.extend(0..seg_count);
    assert_eq!(
        attest_and_check(&mut prover, &mut verifier, &mut pending),
        Ok(())
    );
}

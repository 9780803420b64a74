//! The transient-malware (TOCTOU) adversary: infect, act, restore.
//!
//! Remote attestation is a *sampling* defence — it proves what memory
//! held at the instant of the sweep. Malware that writes itself into the
//! application image, does its work, and restores the original bytes
//! **between** attestation rounds presents pristine content to every
//! `Whole` and `Segmented` sweep: time-of-check vs time-of-use.
//!
//! The per-segment last-write **epoch log** closes the gap at the write
//! event instead of the content: every RAM write latches the current
//! round number next to the dirty bit, and an
//! [`AttestScope::History`](proverguard_attest::message::AttestScope)
//! round reports the authenticated set of segments written since a
//! verified round. Restoring the bytes cannot un-write them — the
//! restore is itself a write — so the infected segment lands in the
//! modified set even though its digest matches the expected image again.
//!
//! [`TransientMalware`] is the scripted adversary; [`toctou_alarm`] is
//! the verifier-side policy: a verified History round whose modified set
//! intersects the segments that hold the (should-be-immutable)
//! application image mirror is TOCTOU evidence.

use proverguard_attest::error::AttestError;
use proverguard_attest::verifier::HistoryOutcome;
use proverguard_mcu::{map, SegmentLayout};

use crate::world::World;

/// A scripted transient infection of one application-image segment.
///
/// Each [`TransientMalware::strike`] performs the full cycle — read the
/// original bytes, overwrite them with a payload (infect), pretend to do
/// damage, write the original bytes back (restore) — leaving memory
/// content exactly as it was. Only the epoch log remembers.
#[derive(Debug, Clone)]
pub struct TransientMalware {
    /// Address the payload lands at (inside [`map::APP_IMAGE_MIRROR`]).
    pub target_addr: u32,
    /// Payload size in bytes.
    pub payload_len: usize,
    /// Strikes performed so far.
    pub strikes: u64,
}

impl Default for TransientMalware {
    fn default() -> Self {
        TransientMalware {
            // Deep inside the image mirror, well away from the protected
            // words at the bottom of RAM.
            target_addr: map::APP_IMAGE_MIRROR.start + 5 * 8192,
            payload_len: 64,
            strikes: 0,
        }
    }
}

impl TransientMalware {
    /// Runs one infect → act → restore cycle against `world`'s prover, as
    /// application code (the malware *is* the compromised application).
    /// Memory content is byte-identical before and after.
    ///
    /// # Errors
    ///
    /// [`AttestError::Device`] if the bus refuses the app-mode accesses.
    pub fn strike(&mut self, world: &mut World) -> Result<(), AttestError> {
        let mcu = world.prover.mcu_mut();
        let mut original = vec![0u8; self.payload_len];
        mcu.bus_read(self.target_addr, &mut original, map::APP_CODE)?;
        // Infect: the payload takes the segment over.
        let payload = vec![0xBAu8; self.payload_len];
        mcu.bus_write(self.target_addr, &payload, map::APP_CODE)?;
        // Act: the malware does its damage here (modelled as a no-op with
        // zero dwell time — the hardest case for a sampling defence).
        // Restore: pristine content for the next sweep.
        mcu.bus_write(self.target_addr, &original, map::APP_CODE)?;
        self.strikes += 1;
        Ok(())
    }

    /// The segment index the strikes land in, at `segment_len` granularity.
    #[must_use]
    pub fn target_segment(&self, segment_len: u32) -> usize {
        SegmentLayout::ram(segment_len).index_of((self.target_addr - map::RAM.start) as usize)
    }
}

/// Indices of the segments that lie entirely inside the application image
/// mirror — the region a healthy application never writes. The mirror
/// starts where the reserved head ends, and that is always a segment
/// boundary ([`SegmentLayout`]), so the mirror's first byte is graded too:
/// only the reserved head (the freshness words, which legitimately change
/// every round, and the IDT and trust state) stays outside, together with
/// any trailing segment that spills past the mirror into application
/// scratch RAM.
#[must_use]
pub fn immutable_segments(segment_len: u32) -> Vec<usize> {
    let layout = SegmentLayout::ram(segment_len);
    let first = (map::APP_IMAGE_MIRROR.start - map::RAM.start) as usize;
    let end = (map::APP_IMAGE_MIRROR.end - map::RAM.start) as usize;
    layout
        .covering(first, end - first)
        .filter(|&i| {
            let span = layout.span(i);
            span.start >= first && span.end <= end
        })
        .collect()
}

/// Verifier-side TOCTOU policy: `true` iff a verified History round's
/// authenticated modified set touches the immutable image-mirror
/// segments. Every digest may verify — the *write event* is the alarm.
///
/// Bootstrap rounds (`since_round == 0`) are exempt: they predate any
/// verified baseline, so every segment legitimately reports modified
/// (provisioning wrote all of RAM) and the round carries no differential
/// information — its recomputed digests already verify the content.
#[must_use]
pub fn toctou_alarm(outcome: &HistoryOutcome, segment_len: u32) -> bool {
    if outcome.since_round == 0 {
        return false;
    }
    let immutable = immutable_segments(segment_len);
    outcome
        .modified
        .iter()
        .any(|i| immutable.binary_search(i).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proverguard_attest::prover::ProverConfig;
    use proverguard_attest::verifier::ScopePolicy;
    use proverguard_mcu::memory::HEAD_LEN;

    fn history_world() -> World {
        let mut world = World::new(ProverConfig::recommended_segmented()).unwrap();
        world
            .verifier
            .set_scope_policy(ScopePolicy::History { full_every: 0 });
        world
    }

    fn run_round(world: &mut World) -> bool {
        let req = world.verifier.make_request().unwrap();
        let Ok(resp) = world.prover.handle_request(&req) else {
            world.verifier.note_failed(&req);
            return false;
        };
        let expected = world.prover.expected_memory().to_vec();
        let ok = world.verifier.check_response(&req, &resp, &expected);
        if ok {
            world.verifier.note_verified(&req, &resp, &expected);
        } else {
            world.verifier.note_failed(&req);
        }
        ok
    }

    #[test]
    fn strike_leaves_memory_identical() {
        let mut world = history_world();
        let before = world.prover.expected_memory().to_vec();
        TransientMalware::default().strike(&mut world).unwrap();
        assert_eq!(world.prover.expected_memory(), &before[..]);
    }

    #[test]
    fn whole_and_segmented_miss_the_strike_history_catches_it() {
        // Full-scope rounds: the restored content verifies — the attack
        // wins against the paper's own construction.
        for config in [
            ProverConfig::recommended(),
            ProverConfig::recommended_segmented(),
        ] {
            let mut world = World::new(config).unwrap();
            let mut malware = TransientMalware::default();
            assert!(run_round(&mut world));
            malware.strike(&mut world).unwrap();
            assert!(
                run_round(&mut world),
                "restored memory must verify under full-scope sweeps"
            );
            assert!(world.verifier.last_history().is_none());
        }

        // History rounds: same strike, caught.
        let mut world = history_world();
        let mut malware = TransientMalware::default();
        assert!(run_round(&mut world)); // bootstrap
        malware.strike(&mut world).unwrap();
        assert!(run_round(&mut world), "digests all match — MAC verifies");
        let seg_len = world.prover.segment_cache().unwrap().segment_len() as u32;
        let outcome = world.verifier.last_history().unwrap();
        assert!(
            outcome.modified.contains(&malware.target_segment(seg_len)),
            "strike segment missing from modified set {:?}",
            outcome.modified
        );
        assert!(
            toctou_alarm(outcome, seg_len),
            "policy must raise the alarm"
        );
    }

    #[test]
    fn quiescent_history_round_raises_no_alarm() {
        let mut world = history_world();
        assert!(run_round(&mut world));
        assert!(run_round(&mut world));
        let seg_len = world.prover.segment_cache().unwrap().segment_len() as u32;
        let outcome = world.verifier.last_history().unwrap();
        assert!(
            !toctou_alarm(outcome, seg_len),
            "false alarm on {:?}",
            outcome.modified
        );
    }

    #[test]
    fn strike_at_the_first_mirror_byte_is_detected() {
        let mut world = history_world();
        let mut malware = TransientMalware {
            target_addr: map::APP_IMAGE_MIRROR.start,
            ..TransientMalware::default()
        };
        assert!(run_round(&mut world)); // bootstrap
        assert!(run_round(&mut world)); // quiescent: only the head moved
        malware.strike(&mut world).unwrap();
        assert!(run_round(&mut world), "digests all match — MAC verifies");
        let seg_len = world.prover.segment_cache().unwrap().segment_len() as u32;
        let outcome = world.verifier.last_history().unwrap();
        assert_ne!(
            malware.target_segment(seg_len),
            0,
            "the mirror must not share the counter's segment"
        );
        assert!(outcome.modified.contains(&malware.target_segment(seg_len)));
        assert!(
            toctou_alarm(outcome, seg_len),
            "a write to the first mirror byte must raise the alarm: {:?}",
            outcome.modified
        );
    }

    #[test]
    fn immutable_segments_exclude_protected_words_and_scratch() {
        let segs = immutable_segments(8192);
        let layout = SegmentLayout::ram(8192);
        // Segment 0 holds counter_R — must not be graded immutable.
        assert!(!segs.contains(&0));
        // Everything from the mirror's first byte on is graded.
        let mirror = (map::APP_IMAGE_MIRROR.start - map::RAM.start) as usize;
        assert_eq!(segs.first(), Some(&layout.index_of(mirror)));
        // No graded segment overlaps the reserved head.
        assert!(segs.iter().all(|&i| layout.span(i).start >= HEAD_LEN));
        // The default strike target is graded.
        assert!(segs.contains(&TransientMalware::default().target_segment(8192)));
        // Sorted, for the binary search in `toctou_alarm`.
        assert!(segs.windows(2).all(|w| w[0] < w[1]));
    }
}

//! Property test for incremental segmented attestation: under arbitrary
//! interleavings of application writes, attestations, reboots, EA-MPU
//! probe attempts, cache clears and clock glitches, the digest list the
//! prover serves from its dirty-bit-invalidated cache must equal a
//! from-scratch recomputation over the device's actual RAM — and the
//! verifier, who always recomputes from scratch, must accept every
//! report. The cached body digest obeys the same law after every step:
//! it is the digest of the cached body digests, and whenever no body
//! segment is dirty (so the next round serves it) it equals the body
//! digest of a from-scratch sweep. On the verifier side, the report
//! computed from an interned baseline must equal the one the uncached
//! check accepts. Caching is an optimization; this is the proof it is
//! *only* an optimization.

use proptest::prelude::*;
use proverguard_attest::imagecache::{CachedImage, ExpectedView};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::segcache::{body_digest, segment_digests, SegmentedParams};
use proverguard_attest::verifier::Verifier;
use proverguard_mcu::map;

const KEY: [u8; 16] = [0x5A; 16];

/// Segment lengths exercised, from the 64-byte hardware minimum's near
/// neighbourhood up to coarse 64 KiB segments.
const SEGMENT_LENS: [u32; 4] = [4 * 1024, 8 * 1024, 16 * 1024, 64 * 1024];

fn pair(segment_len: u32) -> (Prover, Verifier) {
    let config = ProverConfig {
        segmented: Some(SegmentedParams { segment_len }),
        ..ProverConfig::recommended()
    };
    let prover = Prover::provision(config.clone(), &KEY, b"segcache coherence").expect("provision");
    let verifier = Verifier::new(&config, &KEY).expect("verifier");
    (prover, verifier)
}

/// One attestation round plus the coherence oracle: the response must
/// verify, and every digest the prover now caches must equal the
/// from-scratch digest of the same segment of the real RAM.
fn attest_and_check(prover: &mut Prover, verifier: &mut Verifier) -> Result<(), String> {
    let request = verifier.make_request().map_err(|e| e.to_string())?;
    // The interned baseline a gateway would hold: the image before the
    // round, which the view overlays with the request's freshness word.
    let seg_len = prover
        .segment_cache()
        .expect("segmented prover")
        .segment_len();
    let baseline = CachedImage::compute(prover.expected_memory().to_vec(), seg_len as u32);
    let response = prover.handle_request(&request).map_err(|e| e.to_string())?;
    if !verifier.check_response(&request, &response, prover.expected_memory()) {
        return Err("segmented response failed verification".to_string());
    }
    let view = ExpectedView::cached(&baseline, &request.freshness);
    if verifier.expected_report(&request, &view).as_deref() != Some(&response.report[..]) {
        return Err("cached-view report differs from the accepted report".to_string());
    }
    if !verifier.check_response_view(&request, &response, &view) {
        return Err("cached-view check rejected what the uncached check accepted".to_string());
    }
    let cache = prover.segment_cache().expect("segmented prover");
    let oracle = segment_digests(prover.expected_memory(), cache.segment_len());
    let cached = cache
        .all()
        .ok_or_else(|| "cache incomplete after attestation".to_string())?;
    if cached != oracle {
        return Err("cached digests diverge from from-scratch recomputation".to_string());
    }
    if cache.body() != Some(body_digest(&oracle[1..])) {
        return Err("body digest missing or stale after attestation".to_string());
    }
    // Cost accounting must stay partition-exact under every interleaving.
    let cost = prover.last_cost();
    let total = cost.mac_recomputed_segments as usize + cost.mac_cached_segments as usize;
    if total != cache.segment_count() {
        return Err(format!(
            "recomputed {} + cached {} != {} segments",
            cost.mac_recomputed_segments,
            cost.mac_cached_segments,
            cache.segment_count()
        ));
    }
    Ok(())
}

/// The body-digest law, checked after every step: a live body digest is
/// the digest of the cached body digests, and while no body segment is
/// dirty — so the next round would serve it — it equals the body digest
/// of a from-scratch sweep of the real RAM.
fn body_is_coherent(prover: &Prover) -> Result<(), String> {
    let cache = prover.segment_cache().expect("segmented prover");
    let Some(body) = cache.body() else {
        return Ok(());
    };
    let cached = cache
        .all()
        .ok_or_else(|| "body digest live over an incomplete cache".to_string())?;
    if body != body_digest(&cached[1..]) {
        return Err("body digest diverges from the cached body digests".to_string());
    }
    let clean = (1..cache.segment_count()).all(|i| !prover.mcu().segment_dirty(i));
    let oracle = segment_digests(prover.expected_memory(), cache.segment_len());
    if clean && body != body_digest(&oracle[1..]) {
        return Err("clean body digest diverges from a from-scratch sweep".to_string());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_digests_always_match_from_scratch_recomputation(
        seg_choice in 0usize..4,
        ops in proptest::collection::vec(any::<u64>(), 4..24),
    ) {
        let (mut prover, mut verifier) = pair(SEGMENT_LENS[seg_choice]);

        for word in &ops {
            match word % 7 {
                // Application writes at arbitrary offsets and lengths —
                // including runs that straddle segment boundaries.
                0..=2 => {
                    let span = map::RAM.end - map::APP_RAM.start;
                    let off = map::APP_RAM.start + ((word >> 3) % u64::from(span - 512)) as u32;
                    let len = 1 + ((word >> 40) % 511) as usize;
                    let byte = (word >> 16) as u8;
                    prover
                        .mcu_mut()
                        .bus_write(off, &vec![byte; len], map::APP_CODE)
                        .expect("app RAM is open to app code");
                }
                // Attest: the invariant checkpoint.
                3 => prop_assert_eq!(attest_and_check(&mut prover, &mut verifier), Ok(())),
                // Reboot: RAM wiped, cache dropped; the verifier's counter
                // stays monotonic so the next round is still accepted.
                4 => {
                    prover.reboot().expect("reboot");
                }
                // A compromised app probes the protected counter word —
                // EA-MPU fault, which must poison the cache, not the
                // correctness of later reports.
                5 => {
                    let _ = prover
                        .mcu_mut()
                        .bus_write(map::COUNTER_R.start, &[0xFF; 8], map::APP_CODE);
                }
                // Clock glitch / explicit cache clear.
                _ => {
                    if word & 1 == 0 {
                        prover.advance_time_ms((word >> 8) % 5000).expect("advance");
                    } else {
                        prover.clear_segment_cache();
                    }
                }
            }
            prop_assert_eq!(body_is_coherent(&prover), Ok(()));
        }

        // Always end on an attestation so every generated suffix of
        // writes/faults/reboots is checked at least once.
        prop_assert_eq!(attest_and_check(&mut prover, &mut verifier), Ok(()));
    }

    #[test]
    fn repeat_attestation_without_writes_recomputes_only_counter_segment(
        seg_choice in 0usize..4,
        rounds in 2u64..6,
    ) {
        let (mut prover, mut verifier) = pair(SEGMENT_LENS[seg_choice]);
        prop_assert_eq!(attest_and_check(&mut prover, &mut verifier), Ok(()));
        for _ in 1..rounds {
            prop_assert_eq!(attest_and_check(&mut prover, &mut verifier), Ok(()));
            // Only the freshness commit dirtied anything: exactly the
            // counter_R segment is recomputed, everything else is served
            // from cache.
            prop_assert_eq!(prover.last_cost().mac_recomputed_segments, 1);
        }
    }
}

//! Differential property test for the fleet-wide expected-image cache:
//! for arbitrary sequences of {attest at any scope, UpdateFirmware,
//! campaign-wave counter patch, History epoch advance, cache eviction
//! churn}, the cached verifier path (the real `DeviceDirectory` machinery
//! both gateway drivers use) must produce accept/reject verdicts
//! **bit-identical** to an uncached reference verifier fed the same wire
//! transcript. The cache is an optimization; this is the proof it is
//! *only* an optimization.
//!
//! The prover side is fabricated directly from the construction (small
//! synthetic images, no MCU) so thousands of rounds are cheap and every
//! divergence — honest, tampered, wrong-image — is scripted
//! deterministically from the op words.

use std::sync::Arc;

use proptest::prelude::*;
use proverguard_attest::freshness::{
    counter_r_offset, patch_expected_command_counter, patch_expected_image,
};
use proverguard_attest::gateway::DeviceDirectory;
use proverguard_attest::imagecache::ImageCache;
use proverguard_attest::message::{AttestRequest, AttestResponse, AttestScope};
use proverguard_attest::prover::ProverConfig;
use proverguard_attest::segcache::{
    combined_input, history_input, segment_digest, segment_digests, HistoryReport, SegmentedParams,
};
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_crypto::mac::MacKey;
use proverguard_mcu::SegmentLayout;

const KEY: [u8; 16] = [0x3C; 16];
const DEVICES: usize = 3;
const SEGMENT_LEN: u32 = 256;
const IMAGE_LEN: usize = 2048; // 8 segments

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn image_from(seed: u64) -> Vec<u8> {
    let mut rng = seed;
    let mut bytes = vec![0u8; IMAGE_LEN];
    for chunk in bytes.chunks_mut(8) {
        let w = splitmix64(&mut rng).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    bytes
}

fn config() -> ProverConfig {
    ProverConfig {
        segmented: Some(SegmentedParams {
            segment_len: SEGMENT_LEN,
        }),
        ..ProverConfig::recommended()
    }
}

/// The honest device: answers any scope from its actual image, committing
/// the request's freshness word before "MACing" exactly like the real
/// prover (reject-then-MAC ordering), and advancing its epoch-log round
/// register every round.
struct SimDevice {
    image: Vec<u8>,
    /// Per-segment last-write round (the hardware epoch log).
    last_write: Vec<u64>,
    round: u64,
}

impl SimDevice {
    fn new(image: Vec<u8>) -> Self {
        let segs = SegmentLayout::new(image.len(), SEGMENT_LEN as usize).count();
        SimDevice {
            image,
            last_write: vec![0; segs],
            round: 0,
        }
    }

    /// Installs a new firmware image (OTA): every segment's epoch bumps.
    fn install(&mut self, image: Vec<u8>) {
        self.round += 1;
        self.image = image;
        let r = self.round;
        self.last_write.iter_mut().for_each(|w| *w = r);
    }

    fn respond(&mut self, request: &AttestRequest, key: &MacKey) -> AttestResponse {
        self.round += 1;
        // The freshness commit writes counter_R — its segment's epoch moves.
        let layout = SegmentLayout::new(self.image.len(), SEGMENT_LEN as usize);
        self.last_write[layout.index_of(counter_r_offset())] = self.round;
        let mut memory = self.image.clone();
        patch_expected_image(&mut memory, &request.freshness);
        let seg_len = SEGMENT_LEN as usize;
        match request.scope {
            AttestScope::Whole => {
                let mut macced = request.signed_bytes().to_vec();
                macced.extend_from_slice(&memory);
                AttestResponse {
                    report: key.compute(&macced),
                }
            }
            AttestScope::Segmented => {
                let digests = segment_digests(&memory, seg_len);
                let combined = combined_input(&request.signed_bytes(), SEGMENT_LEN, &digests);
                AttestResponse {
                    report: key.compute(&combined),
                }
            }
            AttestScope::History { since_round } => {
                let modified: Vec<bool> =
                    self.last_write.iter().map(|&w| w > since_round).collect();
                let report = HistoryReport {
                    round: self.round,
                    modified,
                };
                let digests: Vec<[u8; 20]> = report
                    .modified_indices()
                    .into_iter()
                    .map(|i| segment_digest(i as u32, &memory[layout.span(i)]))
                    .collect();
                let input = history_input(&request.signed_bytes(), SEGMENT_LEN, &report, &digests);
                let mut bytes = report.encode();
                bytes.extend_from_slice(&key.compute(&input));
                AttestResponse { report: bytes }
            }
        }
    }
}

/// The uncached reference verifier fleet: per-attempt image clone + full
/// from-scratch digest recomputation — the pre-cache gateway semantics.
struct Reference {
    verifiers: Vec<Verifier>,
    baselines: Vec<Vec<u8>>,
}

impl Reference {
    fn verify(&mut self, d: usize, request: &AttestRequest, response: &AttestResponse) -> bool {
        let mut expected = self.baselines[d].clone();
        patch_expected_image(&mut expected, &request.freshness);
        let verifier = &mut self.verifiers[d];
        if verifier.check_response(request, response, &expected) {
            verifier.note_verified(request, response, &expected);
            true
        } else {
            verifier.note_failed(request);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_verdicts_bit_identical_to_uncached_reference(
        history_policy in any::<bool>(),
        ops in proptest::collection::vec(any::<u64>(), 6..40),
    ) {
        let cfg = config();
        let response_key = MacKey::new(cfg.response_mac, &KEY).expect("mac key");
        // Capacity 2 < the 3+ distinct images in play: evictions and
        // refills happen organically on top of the scripted churn op.
        let cache = Arc::new(ImageCache::new(2));
        let mut directory = DeviceDirectory::with_cache(Arc::clone(&cache));
        let mut reference = Reference { verifiers: Vec::new(), baselines: Vec::new() };
        let mut devices: Vec<SimDevice> = Vec::new();

        for d in 0..DEVICES {
            let img = image_from(0xD0 + d as u64);
            let mut v_cached = Verifier::new(&cfg, &KEY).expect("verifier");
            let mut v_ref = Verifier::new(&cfg, &KEY).expect("verifier");
            if history_policy {
                v_cached.set_scope_policy(ScopePolicy::History { full_every: 3 });
                v_ref.set_scope_policy(ScopePolicy::History { full_every: 3 });
            }
            directory.register(v_cached, img.clone());
            reference.verifiers.push(v_ref);
            reference.baselines.push(img.clone());
            devices.push(SimDevice::new(img));
        }

        let attest = |d: usize,
                          directory: &DeviceDirectory,
                          reference: &mut Reference,
                          devices: &mut Vec<SimDevice>,
                          tamper: bool,
                          wrong_image: Option<Vec<u8>>|
         -> Result<(), TestCaseError> {
            // Both verifiers must mint bit-identical requests — their
            // states advanced in lockstep because every prior verdict
            // agreed.
            let req_cached = directory
                .with_verifier(d as u64, |v| v.make_request())
                .expect("registered")
                .expect("request");
            let req_ref = reference.verifiers[d].make_request().expect("request");
            prop_assert_eq!(&req_cached, &req_ref, "request transcripts diverged");

            let response = match wrong_image {
                Some(img) => {
                    // A device secretly running different firmware.
                    let mut impostor = SimDevice::new(img);
                    impostor.round = devices[d].round;
                    devices[d].round += 1; // the real register still moves
                    impostor.respond(&req_cached, &response_key)
                }
                None => devices[d].respond(&req_cached, &response_key),
            };
            let mut response = response;
            if tamper {
                let i = response.report.len() / 2;
                response.report[i] ^= 0x40;
            }

            let cached_verdict = directory
                .verify_response(d as u64, &req_cached, &response)
                .expect("registered");
            let ref_verdict = reference.verify(d, &req_ref, &response);
            prop_assert_eq!(
                cached_verdict, ref_verdict,
                "verdicts diverged (tamper={}, scope={:?})", tamper, req_cached.scope
            );
            Ok(())
        };

        for (n, word) in ops.iter().enumerate() {
            let d = ((word >> 3) % DEVICES as u64) as usize;
            match word % 8 {
                // Honest attestation at whatever scope the policy picks
                // (Segmented, or History with periodic full re-anchors).
                0..=2 => attest(d, &directory, &mut reference, &mut devices, false, None)?,
                // Tampered response: both paths must reject.
                3 => attest(d, &directory, &mut reference, &mut devices, true, None)?,
                // Wrong-image device: the response is honestly built from
                // *different* firmware — a stale cached digest vector
                // accepting it is exactly the bug this test exists for.
                4 => {
                    let img = image_from(0xBAD ^ (*word >> 8));
                    attest(d, &directory, &mut reference, &mut devices, false, Some(img))?;
                }
                // UpdateFirmware: device installs new firmware and both
                // verifier sides re-target their expectation.
                5 => {
                    let img = image_from(0x07A ^ (*word >> 8) ^ n as u64);
                    devices[d].install(img.clone());
                    prop_assert!(directory.set_expected_memory(d as u64, img.clone()));
                    reference.baselines[d] = img;
                }
                // Campaign wave: the gated-command counter word the wave's
                // UpdateFirmware consumed becomes part of the expectation
                // (and of the device image — it committed the counter).
                6 => {
                    let counter = 1 + (*word >> 8) % 1000;
                    let mut img = devices[d].image.clone();
                    patch_expected_command_counter(&mut img, counter);
                    devices[d].install(img.clone());
                    prop_assert!(directory.set_expected_memory(d as u64, img.clone()));
                    reference.baselines[d] = img;
                }
                // Eviction churn: intern an unrelated image into the
                // shared cache so LRU pressure displaces live baselines
                // (their next touch refills them for free).
                7 => {
                    let junk = image_from(0xEE7 ^ *word);
                    let _ = cache.intern(&junk, SEGMENT_LEN);
                }
                _ => unreachable!(),
            }
        }

        // Every device gets a final honest round: after any sequence the
        // cached path must still agree with the reference.
        for d in 0..DEVICES {
            attest(d, &directory, &mut reference, &mut devices, false, None)?;
        }

        let stats = cache.stats();
        prop_assert!(stats.conservation_holds(), "conservation law violated: {:?}", stats);
    }
}

//! E15: what the fleet-wide expected-image cache buys the verifier, and
//! what it must get right.
//!
//! With segmented attestation the per-segment digests depend only on
//! image contents, so every device on the same firmware shares one
//! digest vector (DESIGN §17). The cached path (the real
//! `DeviceDirectory` machinery the gateway uses) pays one
//! freshness-segment digest + one outer MAC per verification; the
//! uncached reference re-clones and re-sweeps the full expected image
//! every time — exactly what the gateway did before the cache.
//!
//! [`run_fleet`] checks, on every fleet it drives: each honest device is
//! accepted on both paths, a tampered response is rejected, the cache
//! interns exactly one key per firmware, its stats obey their
//! conservation law, and the steady-state hit rate is at least
//! [`MIN_HIT_RATE`]. Those checks are deterministic and run in tier-1
//! through [`run`]. The wall-clock speedup it also measures is gated
//! only by the `fleet_verify_bench` release binary.

use std::time::Instant;

use proverguard_attest::freshness::patch_expected_image;
use proverguard_attest::gateway::DeviceDirectory;
use proverguard_attest::message::{AttestRequest, AttestResponse, AttestScope};
use proverguard_attest::prover::ProverConfig;
use proverguard_attest::segcache::{combined_input, segment_digest, segment_digests};
use proverguard_attest::verifier::Verifier;
use proverguard_crypto::mac::MacKey;
use proverguard_mcu::SegmentLayout;

use crate::splitmix64;

const KEY: [u8; 16] = [0x42; 16];

/// Firmware versions in every fleet.
pub const IMAGES: usize = 3;

/// Bytes per expected image in the timed curve (16 segments plus the
/// head at the default 8 KiB granularity — large enough that the sweep
/// dominates, small enough that the uncached reference, which clones
/// the image for every verify, stays quick at 1 000 devices).
pub const IMAGE_LEN: usize = 128 * 1024;

/// Devices in the tier-1 scenario, the smallest fleet of the timed
/// curve (about 1 s in a debug build).
pub const CHECK_DEVICES: usize = 64;

/// Steady-state rounds per device in the cached phase.
pub const CACHED_ROUNDS: usize = 4;

/// Rounds per device in the uncached reference phase.
pub const UNCACHED_ROUNDS: usize = 2;

/// Gate: steady-state cache hit rate.
pub const MIN_HIT_RATE: f64 = 0.99;

/// Seed for the deterministic image contents.
pub const SEED: u64 = 0xF1EE_7CAC_4E01;

/// One firmware version: baseline bytes plus the precomputed digest
/// vector the honest-device fabricator answers from (setup cost, outside
/// every timed region).
struct Firmware {
    bytes: Vec<u8>,
    digests: Vec<[u8; 20]>,
}

fn firmwares(image_len: usize, seg_len: usize) -> Vec<Firmware> {
    let mut rng = SEED;
    (0..IMAGES)
        .map(|_| {
            let mut bytes = vec![0u8; image_len];
            for chunk in bytes.chunks_mut(8) {
                let w = splitmix64(&mut rng).to_le_bytes();
                chunk.copy_from_slice(&w[..chunk.len()]);
            }
            let digests = segment_digests(&bytes, seg_len);
            Firmware { bytes, digests }
        })
        .collect()
}

/// Fabricates the response an honest device on `fw` produces for
/// `request`: patch the freshness word into segment 0 (the freshness
/// words), re-digest that one segment, combine-MAC. This is the prover's
/// (cheap) side — deliberately not part of either timed verifier path.
fn fabricate(
    fw: &Firmware,
    key: &MacKey,
    seg_len: usize,
    request: &AttestRequest,
) -> AttestResponse {
    assert_eq!(request.scope, AttestScope::Segmented);
    let head = SegmentLayout::new(fw.bytes.len(), seg_len).span(0);
    let mut seg0 = fw.bytes[head].to_vec();
    patch_expected_image(&mut seg0, &request.freshness);
    let mut digests = fw.digests.clone();
    digests[0] = segment_digest(0, &seg0);
    let combined = combined_input(&request.signed_bytes(), seg_len as u32, &digests);
    AttestResponse {
        report: key.compute(&combined),
    }
}

/// What one fleet measured.
#[derive(Debug)]
pub struct Fleet {
    /// Registered devices.
    pub devices: usize,
    /// Mean wall-clock nanoseconds per cached verify.
    pub cached_ns: f64,
    /// Mean wall-clock nanoseconds per uncached verify.
    pub uncached_ns: f64,
    /// Cache hit rate over the steady-state rounds.
    pub hit_rate: f64,
    /// Full digest sweeps the cache ran.
    pub digest_sweeps: u64,
    /// Per-device baseline bindings the directory made (one per
    /// registration).
    pub scratch_rebuilds: u64,
}

impl Fleet {
    /// Uncached over cached cost per verify.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.cached_ns > 0.0 {
            self.uncached_ns / self.cached_ns
        } else {
            f64::INFINITY
        }
    }
}

/// One fleet's measurements and every violated invariant.
#[derive(Debug)]
pub struct Report {
    /// The fleet's costs and cache counters.
    pub fleet: Fleet,
    /// Every invariant that failed; empty when the checks hold.
    pub violations: Vec<String>,
}

/// The tier-1 scenario: [`run_fleet`] on [`CHECK_DEVICES`] devices with
/// [`IMAGE_LEN`]-byte images.
#[must_use]
pub fn run() -> Report {
    run_fleet(CHECK_DEVICES, IMAGE_LEN)
}

/// Verifies `devices` devices spread over [`IMAGES`] firmwares of
/// `image_len` bytes, on the cached directory path and on the uncached
/// reference, timing each verify and checking every invariant.
///
/// # Panics
///
/// If the recommended segmented configuration cannot be provisioned.
#[must_use]
pub fn run_fleet(devices: usize, image_len: usize) -> Report {
    let mut violations = Vec::new();
    let config = ProverConfig::recommended_segmented();
    let seg_len = config.segmented.expect("segmented config").segment_len as usize;
    let fw = firmwares(image_len, seg_len);
    let response_key = MacKey::new(config.response_mac, &KEY).expect("response key");

    // Cached fleet: the production DeviceDirectory path.
    let mut directory = DeviceDirectory::new();
    for i in 0..devices {
        let verifier = Verifier::new(&config, &KEY).expect("verifier");
        directory.register(verifier, fw[i % IMAGES].bytes.clone());
    }
    let after_setup = directory.cache().stats();
    if after_setup.distinct_keys != IMAGES as u64 {
        violations.push(format!(
            "expected {IMAGES} distinct interned images, saw {}",
            after_setup.distinct_keys
        ));
    }

    let mut cached_elapsed = 0u128;
    for _ in 0..CACHED_ROUNDS {
        for id in 0..devices as u64 {
            let request = directory
                .with_verifier(id, |v| v.make_request())
                .expect("registered")
                .expect("request");
            let response = fabricate(&fw[id as usize % IMAGES], &response_key, seg_len, &request);
            let t = Instant::now();
            let verified = directory
                .verify_response(id, &request, &response)
                .expect("registered");
            cached_elapsed += t.elapsed().as_nanos();
            if !verified {
                violations.push(format!("cached path rejected honest device {id}"));
            }
        }
    }
    let steady = directory.cache().stats() - after_setup;
    if steady.hit_rate() < MIN_HIT_RATE {
        violations.push(format!(
            "steady-state hit rate {:.4} below {MIN_HIT_RATE}",
            steady.hit_rate()
        ));
    }
    let final_stats = directory.cache().stats();
    if !final_stats.conservation_holds() {
        violations.push(format!("cache conservation law violated: {final_stats:?}"));
    }

    // Differential guard: a tampered response must fail through the
    // cached path exactly like the uncached reference below.
    {
        let request = directory
            .with_verifier(0, |v| v.make_request())
            .expect("registered")
            .expect("request");
        let mut response = fabricate(&fw[0], &response_key, seg_len, &request);
        response.report[0] ^= 1;
        if directory.verify_response(0, &request, &response) != Some(false) {
            violations.push("cached path accepted a tampered response".to_string());
        }
    }

    // Uncached reference: a fresh verifier fleet (same key ⇒ same request
    // sequence shape) paying the original per-attempt clone + full sweep.
    let mut reference: Vec<Verifier> = (0..devices)
        .map(|_| Verifier::new(&config, &KEY).expect("verifier"))
        .collect();
    let mut uncached_elapsed = 0u128;
    for _ in 0..UNCACHED_ROUNDS {
        for (i, verifier) in reference.iter_mut().enumerate() {
            let request = verifier.make_request().expect("request");
            let response = fabricate(&fw[i % IMAGES], &response_key, seg_len, &request);
            let t = Instant::now();
            let mut expected = fw[i % IMAGES].bytes.clone();
            patch_expected_image(&mut expected, &request.freshness);
            let verified = verifier.check_response(&request, &response, &expected);
            if verified {
                verifier.note_verified(&request, &response, &expected);
            } else {
                verifier.note_failed(&request);
            }
            uncached_elapsed += t.elapsed().as_nanos();
            if !verified {
                violations.push(format!("uncached path rejected honest device {i}"));
            }
        }
    }

    Report {
        fleet: Fleet {
            devices,
            cached_ns: cached_elapsed as f64 / (devices * CACHED_ROUNDS) as f64,
            uncached_ns: uncached_elapsed as f64 / (devices * UNCACHED_ROUNDS) as f64,
            hit_rate: steady.hit_rate(),
            digest_sweeps: final_stats.digest_sweeps,
            scratch_rebuilds: final_stats.scratch_rebuilds,
        },
        violations,
    }
}

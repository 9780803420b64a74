//! Measures what the fleet-wide expected-image cache buys the verifier:
//! cost per verification as fleet size grows at a fixed number of
//! firmware versions.
//!
//! With segmented attestation the per-segment digests depend only on
//! image contents, so every device on the same firmware shares one
//! digest vector (DESIGN §17). The cached path (the real
//! `DeviceDirectory` machinery both gateway drivers use) pays one
//! freshness-segment digest + one outer MAC per verification; the
//! uncached reference re-clones and re-sweeps the full expected image
//! every time — exactly what the gateway did before the cache. Prints
//! the cost-per-device curve, writes `BENCH_fleet_verify.json`, and
//! exits 1 unless the curve flattens (cached ≥ 5× cheaper than uncached
//! at 1 000 devices / 3 images, ≥ 99 % steady-state hit rate, stats
//! conservation law). The speedup is a wall-clock ratio, so this gate
//! runs as a release binary in `ci.sh`, not in the debug test suite.
//!
//! ```sh
//! cargo run --release -p proverguard-bench --bin fleet_verify_bench
//! ```

use std::time::Instant;

use proverguard_attest::freshness::patch_expected_image;
use proverguard_attest::gateway::DeviceDirectory;
use proverguard_attest::message::{AttestRequest, AttestResponse, AttestScope};
use proverguard_attest::prover::ProverConfig;
use proverguard_attest::segcache::{combined_input, segment_digest, segment_digests};
use proverguard_attest::verifier::Verifier;
use proverguard_bench::{finish, render_table, splitmix64, Rows};
use proverguard_crypto::mac::MacKey;
use proverguard_mcu::SegmentLayout;

const KEY: [u8; 16] = [0x42; 16];

/// Firmware-version cardinality of every phase (the ISSUE's "handful").
const IMAGES: usize = 3;

/// Bytes per expected image (16 segments at the default 8 KiB
/// granularity — large enough that the sweep dominates, small enough
/// that a 1 000-device fleet's scratch buffers stay cheap).
const IMAGE_LEN: usize = 128 * 1024;

/// Steady-state rounds per device in the cached phase.
const CACHED_ROUNDS: usize = 4;

/// Rounds per device in the uncached reference phase.
const UNCACHED_ROUNDS: usize = 2;

/// Gate: cached cost per verification must be at most 1/5 of the
/// uncached cost at the largest fleet size.
const MIN_SPEEDUP: f64 = 5.0;

/// Gate: steady-state cache hit rate.
const MIN_HIT_RATE: f64 = 0.99;

/// Seed for the deterministic image contents.
const SEED: u64 = 0xF1EE_7CAC_4E01;

/// One firmware version: baseline bytes plus the precomputed digest
/// vector the honest-device fabricator answers from (setup cost, outside
/// every timed region).
struct Firmware {
    bytes: Vec<u8>,
    digests: Vec<[u8; 20]>,
}

fn firmwares(seg_len: usize) -> Vec<Firmware> {
    let mut rng = SEED;
    (0..IMAGES)
        .map(|_| {
            let mut bytes = vec![0u8; IMAGE_LEN];
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
/// `request`: patch the freshness word into segment 0 (the reserved
/// head), re-digest that one segment, combine-MAC. This is the prover's (cheap) side — deliberately
/// not part of either timed verifier path.
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

struct Row {
    devices: usize,
    cached_ns: f64,
    uncached_ns: f64,
    hit_rate: f64,
    digest_sweeps: u64,
    scratch_rebuilds: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.cached_ns > 0.0 {
            self.uncached_ns / self.cached_ns
        } else {
            f64::INFINITY
        }
    }
}

fn run_fleet(devices: usize, violations: &mut Vec<String>) -> Row {
    let config = ProverConfig::recommended_segmented();
    let seg_len = config.segmented.expect("segmented config").segment_len as usize;
    let fw = firmwares(seg_len);
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

    Row {
        devices,
        cached_ns: cached_elapsed as f64 / (devices * CACHED_ROUNDS) as f64,
        uncached_ns: uncached_elapsed as f64 / (devices * UNCACHED_ROUNDS) as f64,
        hit_rate: steady.hit_rate(),
        digest_sweeps: final_stats.digest_sweeps,
        scratch_rebuilds: final_stats.scratch_rebuilds,
    }
}

fn bench_rows(fleets: &[Row], violations: usize) -> Rows {
    let mut rows = Rows::new("fleet_verify", SEED);
    for (metric, value, unit) in [
        ("images", IMAGES as f64, "images"),
        ("image_len", IMAGE_LEN as f64, "bytes"),
        ("cached_rounds", CACHED_ROUNDS as f64, "rounds"),
        ("uncached_rounds", UNCACHED_ROUNDS as f64, "rounds"),
        ("min_speedup", MIN_SPEEDUP, "ratio"),
        ("min_hit_rate", MIN_HIT_RATE, "ratio"),
        ("violations", violations as f64, "count"),
    ] {
        rows.push(metric, value, unit);
    }
    for r in fleets {
        let name = |field: &str| format!("devices[{}].{field}", r.devices);
        rows.push(name("cached_ns_per_verify"), r.cached_ns, "ns");
        rows.push(name("uncached_ns_per_verify"), r.uncached_ns, "ns");
        rows.push(name("speedup"), r.speedup(), "ratio");
        rows.push(name("hit_rate"), r.hit_rate, "ratio");
        rows.push(name("digest_sweeps"), r.digest_sweeps as f64, "count");
        rows.push(name("scratch_rebuilds"), r.scratch_rebuilds as f64, "count");
    }
    rows
}

fn main() {
    let mut violations = Vec::new();

    let fleet_sizes = [64usize, 256, 1000];
    let rows: Vec<Row> = fleet_sizes
        .iter()
        .map(|&n| run_fleet(n, &mut violations))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.devices),
                format!("{:.1}", r.uncached_ns / 1000.0),
                format!("{:.1}", r.cached_ns / 1000.0),
                format!("{:.1}x", r.speedup()),
                format!("{:.2}%", r.hit_rate * 100.0),
                format!("{}", r.digest_sweeps),
            ]
        })
        .collect();
    println!(
        "fleet verification cost per device ({IMAGES} firmware images, \
         {IMAGE_LEN} B expected images)\n"
    );
    println!(
        "{}",
        render_table(
            &[
                "devices",
                "uncached us",
                "cached us",
                "speedup",
                "hit rate",
                "sweeps"
            ],
            &table,
            &[8, 12, 10, 8, 9, 7],
        )
    );
    println!(
        "verifying N same-image devices costs N outer MACs + {IMAGES} digest sweeps\n\
         total — the per-device curve flattens instead of re-sweeping per attempt."
    );

    // The gates judge the largest fleet.
    let largest = rows.last().expect("at least one fleet size");
    if largest.speedup() < MIN_SPEEDUP {
        violations.push(format!(
            "cached path only {:.2}x cheaper than uncached at {} devices (gate {MIN_SPEEDUP}x)",
            largest.speedup(),
            largest.devices
        ));
    }
    if largest.hit_rate < MIN_HIT_RATE {
        violations.push(format!(
            "steady-state hit rate {:.4} below {MIN_HIT_RATE}",
            largest.hit_rate
        ));
    }

    finish(
        Some(&bench_rows(&rows, violations.len())),
        violations,
        "FLEET VERIFY INVARIANT VIOLATION",
        "all fleet-verify invariants held",
    );
}

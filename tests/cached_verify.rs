//! The gateway's cached verify, measured from the inside: how many
//! segment digests each verify computes, and how many heap allocations
//! `check_response_view` — or a precomputed verdict, `expected_report`
//! plus its compare — makes on the steady path.
//!
//! At the recommended 8 KiB configuration the freshness words live in a
//! 16-byte segment of their own, so a cached Segmented verify — of an
//! honest response or of a forgery — re-digests exactly that segment and
//! reads the other 65 digests from the shared baseline, and a
//! quiescent History verify digests exactly its modified set. Neither may
//! fall back to a full sweep. The MAC input is streamed where its pieces
//! lie, so neither allocates, and neither does a steady Whole verify,
//! which streams the request header and the expected image in place.
//!
//! A directory's footprint is measured the same way: a fleet on a few
//! firmware images holds one copy of each image and its digest vector,
//! and a small entry per device — no per-device copy of the image.
//!
//! The allocation and live-byte counts come from a counting global
//! allocator armed per thread; `ci.sh` also runs this file in release,
//! where allocation elision differs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proverguard_attest::gateway::DeviceDirectory;
use proverguard_attest::message::{AttestRequest, AttestResponse, AttestScope};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_mcu::{map, SegmentLayout};
use proverguard_telemetry::metrics;

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations made, and bytes allocated minus bytes freed, on this
    /// thread while armed. Per thread, so tests running in parallel do
    /// not count each other's allocations.
    static COUNTS: Cell<(u64, i64)> = const { Cell::new((0, 0)) };
}

fn record(allocations: u64, grown: i64) {
    if ARMED.with(Cell::get) {
        COUNTS.with(|counts| {
            let (made, live) = counts.get();
            counts.set((made + allocations, live + grown));
        });
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only extra work is thread-local reads and writes, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread, and the net heap bytes it
/// leaves allocated there (counting what its result holds).
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let (made, live) = COUNTS.with(Cell::get);
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    let (made_after, live_after) = COUNTS.with(Cell::get);
    (result, made_after - made, live_after - live)
}

/// Heap allocations `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (result, made, _) = measured(f);
    (result, made)
}

fn counter(name: &'static str) -> u64 {
    metrics::with(|registry| registry.counter(name).unwrap_or(0))
}

/// Segment digests and full-sweep fallbacks `f` causes on this thread.
fn digests_in<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (digests, sweeps) = (
        counter("imagecache.segment_digests"),
        counter("imagecache.digest_sweep_fallback"),
    );
    let result = f();
    (
        result,
        counter("imagecache.segment_digests") - digests,
        counter("imagecache.digest_sweep_fallback") - sweeps,
    )
}

const KEY: [u8; 16] = [0x61; 16];

/// A device registered in a directory, plus a mirror of its verifier for
/// minting requests and a registered decoy whose key the forger does not
/// hold.
struct Fleet {
    directory: DeviceDirectory,
    prover: Prover,
    verifier: Verifier,
    id: u64,
    decoy: u64,
}

/// [`fleet_with`] on the recommended segmented configuration.
fn fleet(policy: ScopePolicy) -> Fleet {
    fleet_with(ProverConfig::recommended_segmented(), policy)
}

fn fleet_with(config: ProverConfig, policy: ScopePolicy) -> Fleet {
    let prover = Prover::provision(config.clone(), &KEY, b"cached verify app").expect("provision");
    let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
    verifier.set_scope_policy(policy);
    let mut directory = DeviceDirectory::new();
    let image = prover.expected_memory().to_vec();
    let id = directory.register(verifier.clone(), image.clone());
    let decoy_verifier = Verifier::new(&config, &[0x62; 16]).expect("decoy verifier");
    let decoy = directory.register(decoy_verifier, image);
    Fleet {
        directory,
        prover,
        verifier,
        id,
        decoy,
    }
}

impl Fleet {
    /// One round minted by the mirror verifier and answered by the
    /// prover; the mirror notes the outcome so History advances.
    fn exchange(&mut self) -> (AttestRequest, AttestResponse) {
        let request = self.verifier.make_request().expect("request");
        let response = self.prover.handle_request(&request).expect("accepted");
        let expected = self.prover.expected_memory().to_vec();
        assert!(self.verifier.check_response(&request, &response, &expected));
        self.verifier.note_verified(&request, &response, &expected);
        (request, response)
    }

    /// `check_response_view` alone on the directory's cached view:
    /// verdict and heap allocations.
    fn check_allocations(&self, request: &AttestRequest, response: &AttestResponse) -> (bool, u64) {
        self.directory
            .with_expected(self.id, &request.freshness, |view| {
                allocations_in(|| self.verifier.check_response_view(request, response, view))
            })
            .expect("registered")
    }

    /// A precomputed verdict alone on the directory's cached view — the
    /// report computed before the response exists, then the compare —
    /// with its heap allocations.
    fn judge_allocations(&self, request: &AttestRequest, response: &AttestResponse) -> (bool, u64) {
        self.directory
            .with_expected(self.id, &request.freshness, |view| {
                allocations_in(|| {
                    self.verifier
                        .expected_report(request, view)
                        .is_some_and(|report| Verifier::report_matches(&report, response))
                })
            })
            .expect("registered")
    }
}

#[test]
fn counting_allocator_sees_allocations() {
    let (_, counted) = allocations_in(|| std::hint::black_box(Vec::<u8>::with_capacity(64)));
    assert_eq!(counted, 1);
}

#[test]
fn steady_cached_segmented_verify_allocates_nothing() {
    let mut fleet = fleet(ScopePolicy::Full);
    // Warm-up: registers the metric names.
    for _ in 0..2 {
        let (request, response) = fleet.exchange();
        assert_eq!(fleet.check_allocations(&request, &response), (true, 0));
    }
    let (request, response) = fleet.exchange();
    assert_eq!(request.scope, AttestScope::Segmented);
    assert_eq!(
        fleet.check_allocations(&request, &response),
        (true, 0),
        "a steady cached Segmented verify must not touch the heap"
    );
}

#[test]
fn steady_cached_whole_verify_allocates_nothing() {
    let mut fleet = fleet_with(ProverConfig::recommended(), ScopePolicy::Full);
    for _ in 0..2 {
        let (request, response) = fleet.exchange();
        assert_eq!(fleet.check_allocations(&request, &response), (true, 0));
    }
    let (request, response) = fleet.exchange();
    assert_eq!(request.scope, AttestScope::Whole);
    assert_eq!(
        fleet.check_allocations(&request, &response),
        (true, 0),
        "a steady cached Whole verify must not touch the heap"
    );
}

#[test]
fn precomputed_verdict_allocates_nothing() {
    for (config, scope) in [
        (ProverConfig::recommended(), AttestScope::Whole),
        (
            ProverConfig::recommended_segmented(),
            AttestScope::Segmented,
        ),
    ] {
        let mut fleet = fleet_with(config, ScopePolicy::Full);
        for _ in 0..3 {
            let (request, response) = fleet.exchange();
            assert_eq!(request.scope, scope);
            assert_eq!(
                fleet.judge_allocations(&request, &response),
                (true, 0),
                "a precomputed {scope:?} verdict must not touch the heap"
            );
        }
        // A forged report gets the other verdict on the same path.
        let (request, mut response) = fleet.exchange();
        response.report[0] ^= 1;
        assert_eq!(fleet.judge_allocations(&request, &response), (false, 0));
    }
}

#[test]
fn quiescent_history_verify_allocates_nothing() {
    let mut fleet = fleet(ScopePolicy::History { full_every: 0 });
    let (request, response) = fleet.exchange(); // bootstrap: full coverage
    assert!(fleet.check_allocations(&request, &response).0);
    for _ in 0..2 {
        let (request, response) = fleet.exchange();
        assert!(matches!(request.scope, AttestScope::History { since_round } if since_round > 0));
        assert_eq!(
            fleet.check_allocations(&request, &response),
            (true, 0),
            "a quiescent History verify must not touch the heap"
        );
    }
}

#[test]
fn each_cached_verify_digests_only_the_head() {
    // Honest Segmented verify through the gateway's directory path.
    let mut fleet = fleet(ScopePolicy::Full);
    for _ in 0..3 {
        let (request, response) = fleet.exchange();
        let (verdict, digests, sweeps) = digests_in(|| {
            fleet
                .directory
                .verify_response(fleet.id, &request, &response)
        });
        assert_eq!(verdict, Some(true));
        assert_eq!((digests, sweeps), (1, 0), "honest Segmented verify");
    }

    // A forged Segmented response for the registered decoy: the verdict
    // is a reject, and it costs the same single head digest.
    let request = fleet
        .directory
        .with_verifier(fleet.decoy, |v| v.make_request().expect("decoy request"))
        .expect("decoy registered");
    assert_eq!(request.scope, AttestScope::Segmented);
    let forged = AttestResponse {
        report: vec![0xA5; 20],
    };
    for _ in 0..3 {
        let (verdict, digests, sweeps) = digests_in(|| {
            fleet
                .directory
                .verify_response(fleet.decoy, &request, &forged)
        });
        assert_eq!(verdict, Some(false));
        assert_eq!((digests, sweeps), (1, 0), "forged Segmented verify");
    }
}

/// A History verify digests what its modified set needs: on the cached
/// directory path only the patched head is computed (every other
/// modified segment still matches the shared baseline), and the
/// uncached reference computes one digest per modified segment.
#[test]
fn history_verify_digests_exactly_its_modified_set() {
    let mut fleet = fleet(ScopePolicy::History { full_every: 0 });
    let segment_count = fleet
        .prover
        .segment_cache()
        .expect("segmented")
        .segment_count();
    // (modified set, cached digests, uncached digests) of one round.
    let verify = |fleet: &mut Fleet| {
        let request = fleet.verifier.make_request().expect("request");
        let response = fleet.prover.handle_request(&request).expect("accepted");
        let expected = fleet.prover.expected_memory().to_vec();
        let (verdict, uncached, _) = digests_in(|| {
            fleet
                .verifier
                .check_response(&request, &response, &expected)
        });
        assert!(verdict, "uncached reference rejected an honest round");
        fleet.verifier.note_verified(&request, &response, &expected);
        let (verdict, cached, sweeps) = digests_in(|| {
            fleet
                .directory
                .verify_response(fleet.id, &request, &response)
        });
        assert_eq!(verdict, Some(true));
        assert_eq!(sweeps, 0, "History verify fell back to a full sweep");
        let modified = fleet
            .directory
            .with_verifier(fleet.id, |v| {
                v.last_history().expect("history").modified.clone()
            })
            .expect("registered");
        (modified, cached, uncached)
    };

    // Bootstrap: every segment reports modified.
    let (modified, cached, uncached) = verify(&mut fleet);
    assert_eq!(modified.len(), segment_count);
    assert_eq!((cached, uncached), (1, segment_count as u64));

    // Quiescent: only the freshness segment moved, and only it is
    // digested.
    for _ in 0..2 {
        let (modified, cached, uncached) = verify(&mut fleet);
        assert_eq!(modified, vec![0]);
        assert_eq!((cached, uncached), (1, 1));
    }

    // A content-neutral application write (scribble, then restore) adds
    // its segment to the set.
    let addr = map::APP_IMAGE_MIRROR.start + 4096;
    let mcu = fleet.prover.mcu_mut();
    let mut original = [0u8];
    mcu.bus_read(addr, &mut original, map::APP_CODE)
        .expect("app read");
    mcu.bus_write(addr, &[!original[0]], map::APP_CODE)
        .expect("app write");
    mcu.bus_write(addr, &original, map::APP_CODE)
        .expect("app restore");
    let (modified, cached, uncached) = verify(&mut fleet);
    let written = fleet
        .prover
        .mcu()
        .segment_layout()
        .index_of((addr - map::RAM.start) as usize);
    assert_eq!(modified, vec![0, written]);
    assert_eq!(modified, vec![0, 2]);
    assert_eq!((cached, uncached), (1, modified.len() as u64));
}

/// 96 devices on 3 distinct 512 KiB images: the directory holds each
/// image and its digest vector once, plus at most 2 KiB per device for
/// its entry and verifier. A per-device copy of the image would add
/// 512 KiB per device.
#[test]
fn fleet_footprint_is_one_image_per_firmware() {
    const DEVICES: usize = 96;
    const IMAGES: usize = 3;
    const PER_DEVICE: usize = 2 * 1024;
    let config = ProverConfig::recommended_segmented();
    let image_len = map::RAM.len() as usize;
    let images: Vec<Vec<u8>> = (0..IMAGES)
        .map(|i| vec![0xA0 + i as u8; image_len])
        .collect();
    let (directory, _, grown) = measured(|| {
        let mut directory = DeviceDirectory::new();
        for device in 0..DEVICES {
            let verifier = Verifier::new(&config, &[device as u8; 16]).expect("verifier");
            directory.register(verifier, images[device % IMAGES].clone());
        }
        directory
    });
    let segment_len = config.segmented.expect("segmented").segment_len;
    let digests = SegmentLayout::ram(segment_len).count() * 20;
    let shared = IMAGES * (image_len + digests);
    let per_device = (grown - shared as i64) / DEVICES as i64;
    assert!(
        grown <= (shared + DEVICES * PER_DEVICE) as i64,
        "{grown} live bytes: {per_device} per device beyond the {shared} shared"
    );
    assert_eq!(directory.len(), DEVICES);
    assert_eq!(directory.cache().stats().distinct_keys, IMAGES as u64);
}

/// Registering N devices on one image derives the image key once per
/// registration — the miss hands its key to the new entry instead of
/// deriving it again — and digests the image once, for the first device.
#[test]
fn registering_one_image_derives_each_key_once_and_sweeps_once() {
    const DEVICES: u64 = 8;
    let config = ProverConfig::recommended_segmented();
    let image = vec![0x5C; map::RAM.len() as usize];
    let before = counter("imagecache.key_derivation");
    let mut directory = DeviceDirectory::new();
    for device in 0..DEVICES {
        let verifier = Verifier::new(&config, &[device as u8; 16]).expect("verifier");
        directory.register(verifier, image.clone());
    }
    assert_eq!(counter("imagecache.key_derivation") - before, DEVICES);
    let stats = directory.cache().stats();
    assert_eq!(stats.digest_sweeps, 1);
    assert_eq!((stats.misses, stats.hits), (1, DEVICES - 1));
}

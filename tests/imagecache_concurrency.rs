//! Two gateways hammering ONE shared [`ImageCache`] across three
//! firmware versions: every honest session must verify and the
//! image-mismatched device must fail — exactly the verdicts a
//! single-threaded run produces — while the cache's conservation law
//! holds and the distinct-key count stays pinned at the number of real
//! firmware images. A second test freezes the steady-state economics:
//! after registration, attestation rounds must not re-bind devices to
//! baselines or miss the cache at all (the per-attempt full-image-clone
//! regression). A third checks that a panic while a device's expected
//! view is in use does not disable the device.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proverguard_attest::gateway::{
    DeviceDirectory, Gateway, GatewayConfig, GatewayReport, ProverAgent,
};
use proverguard_attest::imagecache::ImageCache;
use proverguard_attest::message::FreshnessField;
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::Verifier;
use proverguard_mcu::map;
use proverguard_transport::{LoopbackConnector, LoopbackHub, Transport, DEFAULT_MAX_FRAME};

const KEY: [u8; 16] = [0x42; 16];
const IMAGES: usize = 3;
const PER_IMAGE: usize = 2;
const ROUNDS: usize = 2;

/// Provisions a device running firmware version `image`: the attested
/// memory is RAM, so the versions are distinguished by the payload the
/// application installs into app RAM (the flash app bytes are identical
/// across the fleet and never attested).
fn provision(image: usize) -> (Prover, Verifier) {
    let config = ProverConfig::recommended_segmented();
    let mut prover = Prover::provision(config.clone(), &KEY, b"fleet boot").expect("provision");
    let payload = vec![0xA0 + image as u8; 4 * 1024];
    prover
        .mcu_mut()
        .bus_write(map::APP_RAM.start, &payload, map::APP_CODE)
        .expect("install firmware payload");
    let verifier = Verifier::new(&config, &KEY).expect("verifier");
    (prover, verifier)
}

fn patient() -> RetryPolicy {
    RetryPolicy {
        timeout_ms: 10_000,
        max_retries: 40,
        backoff_base_ms: 5,
        backoff_factor: 1,
        jitter_per_mille: 500,
        jitter_seed: 0xcac_4e01,
    }
}

/// One attempt only: a wrong-image device is *expected* to fail, and
/// `BadResponse` is a definitive protocol verdict, not a transport flake.
fn impatient() -> RetryPolicy {
    RetryPolicy {
        max_retries: 0,
        ..patient()
    }
}

fn dial(
    connector: &LoopbackConnector,
) -> impl FnMut() -> Result<Box<dyn Transport>, proverguard_transport::TransportError> + '_ {
    move || {
        connector
            .connect()
            .map(|conn| Box::new(conn) as Box<dyn Transport>)
    }
}

/// Runs one gateway configured by `config` against a fleet of
/// `PER_IMAGE` honest devices per firmware image plus one device secretly
/// running different firmware than its registered expectation. Returns
/// the shutdown report; panics if any verdict deviates from the
/// single-threaded expectation (honest verify, impostor fails).
fn run_gateway(config: GatewayConfig, cache: Arc<ImageCache>) -> GatewayReport {
    let mut directory = DeviceDirectory::with_cache(cache);
    let mut honest = Vec::new();
    for image in 0..IMAGES {
        for _ in 0..PER_IMAGE {
            let (prover, verifier) = provision(image);
            let id = directory.register(verifier, prover.expected_memory().to_vec());
            honest.push(ProverAgent::new(prover, id));
        }
    }
    // The impostor's RAM diverges from the version-0 expectation it was
    // registered under — a stale cached digest vector letting this
    // through is the exact bug class the shared cache must not add.
    let (mut evil, evil_verifier) = provision(0);
    let expected_a = evil.expected_memory().to_vec();
    evil.mcu_mut()
        .bus_write(map::APP_RAM.start + 64, b"malware", map::APP_CODE)
        .expect("inject divergence");
    let evil_id = directory.register(evil_verifier, expected_a);
    let mut evil_agent = ProverAgent::new(evil, evil_id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, config);

    let pins: Vec<_> = honest
        .into_iter()
        .map(|mut agent| {
            let connector = connector.clone();
            thread::spawn(move || {
                (0..ROUNDS).all(|_| {
                    agent
                        .attest_with_retry(
                            dial(&connector),
                            &patient(),
                            Duration::from_secs(30),
                            50,
                        )
                        .is_verified()
                })
            })
        })
        .collect();
    let evil_outcome =
        evil_agent.attest_with_retry(dial(&connector), &impatient(), Duration::from_secs(30), 50);
    assert!(
        !evil_outcome.is_verified(),
        "wrong-image device must fail even with a hot shared cache: {evil_outcome:?}"
    );
    for (p, pin) in pins.into_iter().enumerate() {
        assert!(
            pin.join().expect("session thread panicked"),
            "honest device {p} must verify every round"
        );
    }
    handle.shutdown()
}

/// Two gateways (one shard and two shards) run concurrently against the
/// same shared cache. Verdicts match the single-threaded expectation on
/// both, and afterwards the cache satisfies its conservation law with
/// exactly three distinct keys — the impostor's firmware is never
/// interned, because only *registered expectations* enter the cache.
#[test]
fn two_gateways_share_one_cache_across_three_images() {
    let cache = Arc::new(ImageCache::new(8));

    let config = |shards: usize| GatewayConfig {
        reactor_shards: shards,
        max_conns_per_shard: 64,
        retry: RetryPolicy {
            timeout_ms: 10_000,
            ..GatewayConfig::default().retry
        },
        ..GatewayConfig::default()
    };

    let first_cache = Arc::clone(&cache);
    let first_config = config(1);
    let first = thread::spawn(move || run_gateway(first_config, first_cache));
    let second_report = run_gateway(config(2), Arc::clone(&cache));
    let first_report = first.join().expect("one-shard gateway panicked");

    let fleet = (IMAGES * PER_IMAGE * ROUNDS) as u64;
    for (gateway, report) in [("1 shard", &first_report), ("2 shards", &second_report)] {
        assert_eq!(
            report.stats.sessions_ok, fleet,
            "{gateway}: every honest round books a verified session: {:?}",
            report.stats
        );
        assert!(
            report.stats.partition_holds(),
            "{gateway}: partition law violated: {:?}",
            report.stats
        );
    }

    let stats = cache.stats();
    assert!(
        stats.conservation_holds(),
        "conservation law violated: {stats:?}"
    );
    assert_eq!(
        stats.distinct_keys, 3,
        "three firmware images, three keys — twins and gateways share: {stats:?}"
    );
    // Two gateways may race on the first interning of a key (both miss,
    // one slot survives), so misses are bounded by key × gateway, never
    // by attempt count.
    assert!(
        (3..=6).contains(&stats.misses),
        "misses must stay bounded by keys × racing gateways: {stats:?}"
    );
    assert_eq!(stats.evictions, 0, "capacity 8 never evicts 3 live images");
    // 7 registrations per gateway, each binding one device to a baseline.
    assert_eq!(
        stats.scratch_rebuilds, 14,
        "a device is bound once per registration, never per attempt: {stats:?}"
    );
    assert!(
        stats.hits > stats.misses,
        "a same-image fleet must be hit-dominated: {stats:?}"
    );
}

/// The per-attempt full-image-clone regression, frozen as cache
/// economics: once a fleet is registered, steady-state attestation
/// rounds perform zero baseline bindings and zero cache misses — every
/// attempt is a hit against the interned baseline, and the freshness
/// word is laid over it rather than patched into a per-device copy.
#[test]
fn steady_state_rounds_never_rebuild_or_miss() {
    const FLEET: usize = 4;
    let cache = Arc::new(ImageCache::new(4));
    let mut directory = DeviceDirectory::with_cache(Arc::clone(&cache));
    let mut agents = Vec::new();
    for _ in 0..FLEET {
        let (prover, verifier) = provision(0);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }

    let after_registration = cache.stats();
    assert_eq!(after_registration.scratch_rebuilds, FLEET as u64);
    assert_eq!(after_registration.distinct_keys, 1);
    assert_eq!(cache.len(), 1, "one image, one interned baseline");

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let config = GatewayConfig {
        retry: RetryPolicy {
            timeout_ms: 10_000,
            ..GatewayConfig::default().retry
        },
        ..GatewayConfig::default()
    };
    let handle = Gateway::start(Box::new(hub), directory, config);

    let pins: Vec<_> = agents
        .into_iter()
        .map(|mut agent| {
            let connector = connector.clone();
            thread::spawn(move || {
                (0..ROUNDS).all(|_| {
                    agent
                        .attest_with_retry(
                            dial(&connector),
                            &patient(),
                            Duration::from_secs(30),
                            50,
                        )
                        .is_verified()
                })
            })
        })
        .collect();
    for pin in pins {
        assert!(pin.join().expect("session thread panicked"));
    }
    let report = handle.shutdown();
    assert_eq!(report.stats.sessions_ok, (FLEET * ROUNDS) as u64);

    let steady = cache.stats() - after_registration;
    assert_eq!(
        steady.scratch_rebuilds, 0,
        "attestation rounds must never re-bind a device: {steady:?}"
    );
    assert_eq!(
        steady.misses, 0,
        "steady-state rounds must never miss the cache: {steady:?}"
    );
    assert!(
        steady.hits >= (FLEET * ROUNDS) as u64,
        "each attempt is one cache hit: {steady:?}"
    );
    assert_eq!(steady.lookups, steady.hits, "steady state is all hits");
    assert!(cache.stats().conservation_holds());
}

/// The image lock guards one `Arc` that is only ever replaced whole, so a
/// panic while a device's expected view is in use leaves nothing
/// half-written: the device's next honest round still verifies.
#[test]
fn panic_inside_the_expected_view_does_not_disable_the_device() {
    let (mut prover, verifier) = provision(0);
    let mut directory = DeviceDirectory::new();
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let panicked = panic::catch_unwind(AssertUnwindSafe(|| {
        directory.with_expected(id, &FreshnessField::Counter(1), |_| {
            panic!("a bench closure panics while the image lock is held")
        })
    }));
    assert!(panicked.is_err());

    for _ in 0..2 {
        let request = directory
            .with_verifier(id, |v| v.make_request())
            .expect("registered")
            .expect("request");
        let response = prover.handle_request(&request).expect("accepted");
        assert_eq!(
            directory.verify_response(id, &request, &response),
            Some(true)
        );
    }
    assert!(directory.set_expected_memory(id, prover.expected_memory().to_vec()));
}

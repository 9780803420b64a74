//! Backpressure contract of the verifier gateway: connection slots are
//! bounded, overload is shed with a cheap `Busy` frame at the accept
//! loop, honest sessions already in flight run to verified completion,
//! and the stats partition law holds once the gateway quiesces.

use std::thread;
use std::time::{Duration, Instant};

use proverguard_attest::gateway::{
    DeviceDirectory, Gateway, GatewayConfig, GatewayHandle, GatewayMsg, ProverAgent,
};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::Verifier;
use proverguard_transport::{LoopbackConnector, LoopbackHub, Transport, DEFAULT_MAX_FRAME};

fn provision(index: u64) -> (Prover, Verifier) {
    let config = ProverConfig::recommended();
    let mut key = [0x42u8; 16];
    key[0] ^= index as u8;
    let prover = Prover::provision(config.clone(), &key, b"app v1").expect("provision prover");
    let verifier = Verifier::new(&config, &key).expect("provision verifier");
    (prover, verifier)
}

/// Patient client policy: `Busy` shed is the expected answer under load.
fn patient() -> RetryPolicy {
    RetryPolicy {
        timeout_ms: 10_000,
        max_retries: 40,
        backoff_base_ms: 5,
        backoff_factor: 1,
        jitter_per_mille: 500,
        jitter_seed: 0xbac_4b0b,
    }
}

/// One dial against the gateway; reports whether it was shed with `Busy`.
/// The accepting shard writes the `Busy` frame and hangs up at once, so
/// the `Hello` send may fail while the verdict is already queued — drain
/// rather than trust the send result.
fn dial_expect_busy(connector: &LoopbackConnector) -> bool {
    let Ok(mut conn) = connector.connect() else {
        return false;
    };
    let _ = conn.set_deadline(Some(Duration::from_millis(1_000)));
    let _ = conn.send(&GatewayMsg::Hello { device_id: 0 }.encode());
    loop {
        match conn.recv().map(|bytes| GatewayMsg::decode(&bytes)) {
            Ok(Ok(GatewayMsg::Busy)) => return true,
            Ok(Ok(_)) => continue,
            _ => return false,
        }
    }
}

/// Waits (up to 5 s) until shard 0 owns `slots` connections.
fn wait_registered(handle: &GatewayHandle, slots: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.shard_stats()[0].registered < slots as u64 {
        assert!(
            Instant::now() < deadline,
            "gateway never registered {slots} connections"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

/// Saturate a one-shard gateway capped at four connections with exactly
/// four honest connections, held open before their `Hello`, then dial
/// three more: each extra dial must come back `Busy` without costing the
/// gateway any session work, every held session must still verify, and
/// the final snapshot must satisfy the partition law.
#[test]
fn full_queue_sheds_busy_while_in_flight_sessions_complete() {
    let slots = 4usize;
    let mut directory = DeviceDirectory::new();
    let mut agents = Vec::new();
    for p in 0..slots {
        let (prover, verifier) = provision(p as u64);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(
        Box::new(hub),
        directory,
        GatewayConfig {
            reactor_shards: 1,
            max_conns_per_shard: slots,
            retry: RetryPolicy {
                timeout_ms: 10_000,
                ..GatewayConfig::default().retry
            },
            ..GatewayConfig::default()
        },
    );

    // Fill all four slots from the client side: each honest connection is
    // held open, its Hello not yet sent, until the probes are done.
    let held: Vec<_> = agents
        .into_iter()
        .map(|agent| (agent, connector.connect().expect("held connect")))
        .collect();
    wait_registered(&handle, slots);

    // Every slot is held: the gateway MUST shed us, cheaply.
    let mut shed = 0u64;
    for _ in 0..3 {
        assert!(
            dial_expect_busy(&connector),
            "dial against a saturated gateway must be shed with Busy"
        );
        shed += 1;
    }

    // The held sessions say Hello well within `read_timeout_ms`.
    let pins: Vec<_> = held
        .into_iter()
        .map(|(mut agent, mut conn)| {
            thread::spawn(move || {
                agent
                    .run_session(&mut conn, Duration::from_secs(30))
                    .is_verified()
            })
        })
        .collect();
    for (p, pin) in pins.into_iter().enumerate() {
        assert!(
            pin.join().expect("pinned session panicked"),
            "pinned honest session {p} must verify despite the Busy storm"
        );
    }
    let report = handle.shutdown();

    assert!(
        report.stats.busy_rejected >= shed,
        "busy_rejected {} must cover the {shed} shed probes",
        report.stats.busy_rejected
    );
    assert_eq!(
        report.stats.sessions_ok, slots as u64,
        "every pinned honest session completes verified"
    );
    assert_eq!(report.stats.handshake_failed, 0);
    assert!(
        report.stats.partition_holds(),
        "partition law violated: {:?}",
        report.stats
    );
    // Cheapness: a Busy shed never reaches a shard, so the session
    // histogram holds exactly the honest sessions and nothing more.
    let sessions = report
        .metrics
        .histogram("gateway.session_us")
        .expect("session histogram present");
    assert_eq!(sessions.count(), slots as u64);
    assert_eq!(
        report.metrics.counter("gateway.busy"),
        Some(report.stats.busy_rejected),
        "busy telemetry counter mirrors the stats atomics"
    );
    assert_eq!(report.dropped_spans, 0);
}

/// The partition law also holds under a mixed ending: verified sessions,
/// failed (forged) sessions, handshake garbage and Busy sheds all land in
/// exactly one bucket each.
#[test]
fn stats_partition_holds_under_mixed_outcomes() {
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let honest_id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::new(prover, honest_id);
    let (forge_prover, forge_verifier) = provision(1);
    let forge_id = directory.register(forge_verifier, forge_prover.expected_memory().to_vec());

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(
        Box::new(hub),
        directory,
        GatewayConfig {
            retry: RetryPolicy {
                timeout_ms: 10_000,
                max_retries: 1,
                ..GatewayConfig::default().retry
            },
            ..GatewayConfig::default()
        },
    );

    // One verified session.
    let outcome = agent.attest_with_retry(
        || {
            connector
                .connect()
                .map(|conn| Box::new(conn) as Box<dyn Transport>)
        },
        &patient(),
        Duration::from_secs(30),
        50,
    );
    assert!(outcome.is_verified(), "honest session failed: {outcome:?}");

    // One failed session: a valid Hello for a device whose key we do not
    // hold, answering every request with garbage.
    let stats = proverguard_adversary::wire::forgery_flood(
        || {
            connector
                .connect()
                .map(|conn| Box::new(conn) as Box<dyn Transport>)
        },
        forge_id,
        1,
        0x5eed,
        Duration::from_secs(30),
    );
    assert_eq!(stats.byes, 1, "forged session must be driven to a Bye");

    // One handshake failure: a well-framed garbage Hello.
    let junk = proverguard_adversary::wire::junk_frame_flood(
        || {
            connector
                .connect()
                .map(|conn| Box::new(conn) as Box<dyn Transport>)
        },
        1,
        0x5eed,
    );
    assert_eq!(junk.attempts, 1);

    let report = handle.shutdown();
    assert_eq!(report.stats.sessions_ok, 1);
    assert_eq!(report.stats.sessions_failed, 1);
    assert_eq!(report.stats.handshake_failed, 1);
    assert!(
        report.stats.partition_holds(),
        "partition law violated: {:?}",
        report.stats
    );
}

/// Slowloris during session establishment: the peer opens an attested
/// handshake, receives the gateway's `SessInit`, then goes silent. One
/// establishment budget covers every read on the connection, so its
/// slot is freed within ~`read_timeout_ms` of accepting the connection —
/// NOT a fresh timeout per protocol message — the stall is booked as a
/// handshake failure on the deadline path, and an honest session dialed
/// meanwhile still verifies.
#[test]
fn handshake_slowloris_cut_off_by_connection_deadline() {
    use std::time::Instant;

    let read_timeout_ms = 600u64;
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let device_id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::new(prover, device_id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(
        Box::new(hub),
        directory,
        GatewayConfig {
            read_timeout_ms,
            ..GatewayConfig::default()
        },
    );

    // The slowloris: open the handshake, take the SessInit, say nothing.
    let mut stalled = connector.connect().expect("slowloris connect");
    let _ = stalled.set_deadline(Some(Duration::from_secs(5)));
    let accepted = Instant::now();
    stalled
        .send(
            &GatewayMsg::SessHello {
                device_id,
                session_id: None,
            }
            .encode(),
        )
        .expect("slowloris hello");
    match GatewayMsg::decode(&stalled.recv().expect("slowloris init")) {
        Ok(GatewayMsg::SessInit(_)) => {}
        other => panic!("expected SessInit for the stalled handshake, got {other:?}"),
    }

    // While the stalled handshake holds its slot, run an honest session.
    let honest = thread::spawn({
        let connector = connector.clone();
        move || {
            agent
                .attest_with_retry(
                    || {
                        connector
                            .connect()
                            .map(|conn| Box::new(conn) as Box<dyn Transport>)
                    },
                    &patient(),
                    Duration::from_secs(30),
                    50,
                )
                .is_verified()
        }
    });

    // The gateway must hang up on us when the *connection* budget runs
    // out. A per-read deadline would stretch this to ~2x read_timeout
    // (one full timeout for the hello read, another for the accept).
    assert!(
        stalled.recv().is_err(),
        "stalled handshake must be cut, not answered"
    );
    let held = accepted.elapsed();
    assert!(
        held < Duration::from_millis(read_timeout_ms + 500),
        "slot held {held:?} by a slowloris peer; budget is {read_timeout_ms}ms per connection"
    );

    assert!(
        honest.join().expect("honest session panicked"),
        "honest session must verify despite the slowloris"
    );
    let report = handle.shutdown();
    assert_eq!(report.stats.handshake_failed, 1, "{:?}", report.stats);
    assert_eq!(
        report.metrics.counter("gateway.handshake.deadline"),
        Some(1),
        "the stall must be booked on the deadline path, not as garbage/link"
    );
    assert_eq!(report.stats.sessions_ok, 1);
    assert!(
        report.stats.partition_holds(),
        "partition law violated: {:?}",
        report.stats
    );
}

//! The event-driven gateway through its public surface: honest fleets
//! verify, also under garbage and forgery floods; session
//! handshake/resume/reboot/expiry work; a slowloris is cut by the
//! establishment budget; overload sheds a deterministic `Busy`; an
//! acceptor error does not stop the gateway accepting; and both the
//! global and the per-shard stats partition laws hold. A mixed workload
//! pins every protocol-visible count to its exact value, and a table
//! pins the accounting of every kind of first frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use proverguard_adversary::wire::{forgery_flood, junk_frame_flood, raw_garbage_flood};
use proverguard_attest::channel::{self, HandshakeInit, SESSION_ID_SIZE};
use proverguard_attest::gateway::{
    DeviceDirectory, Gateway, GatewayConfig, GatewayHandle, GatewayMsg, ProverAgent,
};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::Verifier;
use proverguard_transport::{
    Acceptor, LoopbackConnector, LoopbackHub, NbTransport, Notifier, ReadySource, Transport,
    TransportError, DEFAULT_MAX_FRAME,
};

fn provision(index: u64) -> (Prover, Verifier) {
    let config = ProverConfig::recommended();
    let mut key = [0x42u8; 16];
    key[0] ^= index as u8;
    let prover = Prover::provision(config.clone(), &key, b"app v1").expect("provision prover");
    let verifier = Verifier::new(&config, &key).expect("provision verifier");
    (prover, verifier)
}

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

fn reactor_config(shards: usize, cap: usize) -> GatewayConfig {
    GatewayConfig {
        reactor_shards: shards,
        max_conns_per_shard: cap,
        retry: RetryPolicy {
            timeout_ms: 10_000,
            ..GatewayConfig::default().retry
        },
        ..GatewayConfig::default()
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

/// See `dial_expect_busy` in `gateway_backpressure.rs`: the verdict frame
/// may already be queued when our `Hello` send fails, so drain.
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

/// Polls the per-shard snapshots until every shard has released its
/// connections (`registered == 0`). The shard law compares counters
/// updated by two threads, so it is only exact at quiescence.
fn quiesced_shards(handle: &GatewayHandle) -> Vec<proverguard_attest::gateway::ShardSnapshot> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snaps = handle.shard_stats();
        if snaps.iter().all(|s| s.registered == 0) || Instant::now() > deadline {
            return snaps;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// An honest 8-device fleet over 2 shards: every one-shot session
/// verifies, the global partition law holds, each shard satisfies its own
/// conservation law, and the reactor's readiness telemetry is populated.
#[test]
fn honest_fleet_verifies_over_reactor() {
    const FLEET: usize = 8;
    let mut directory = DeviceDirectory::new();
    let mut agents = Vec::new();
    for p in 0..FLEET {
        let (prover, verifier) = provision(p as u64);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, reactor_config(2, 64));

    let pins: Vec<_> = agents
        .into_iter()
        .map(|mut agent| {
            let connector = connector.clone();
            thread::spawn(move || {
                agent
                    .attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50)
                    .is_verified()
            })
        })
        .collect();
    for (p, pin) in pins.into_iter().enumerate() {
        assert!(
            pin.join().expect("session thread panicked"),
            "honest session {p} must verify over the reactor driver"
        );
    }

    let shards = quiesced_shards(&handle);
    assert_eq!(shards.len(), 2);
    for snap in &shards {
        assert_eq!(snap.registered, 0, "shard {} not quiesced", snap.shard);
        assert!(
            snap.partition_holds(),
            "shard conservation law violated: {snap:?}"
        );
    }
    let assigned: u64 = shards.iter().map(|s| s.assigned).sum();
    let ok: u64 = shards.iter().map(|s| s.sessions_ok).sum();
    assert_eq!(ok, FLEET as u64, "every session booked on its shard");

    let report = handle.shutdown();
    assert_eq!(report.stats.sessions_ok, FLEET as u64);
    assert_eq!(report.stats.handshake_failed, 0);
    assert_eq!(
        assigned, report.stats.admitted,
        "shard assignment must cover exactly the admitted connections"
    );
    assert!(
        report.stats.partition_holds(),
        "partition law violated: {:?}",
        report.stats
    );
    // Reactor telemetry: every admitted connection produced readiness
    // events.
    let readiness = report
        .metrics
        .counter("gateway.reactor.readiness_events")
        .unwrap_or(0);
    assert!(
        readiness >= FLEET as u64,
        "expected ≥{FLEET} readiness events, saw {readiness}"
    );
}

/// Session mode over the reactor: the first dial runs the attested
/// handshake, the second resumes the session for a cheap sealed round,
/// and the session-table partition law holds at shutdown.
#[test]
fn session_handshake_then_resumed_round() {
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::with_sessions(prover, id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, reactor_config(1, 64));

    let first = agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(first.is_verified(), "handshake dial failed: {first:?}");
    let sid = agent.session_id().expect("session established");

    let second = agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(second.is_verified(), "resumed round failed: {second:?}");
    assert_eq!(
        agent.session_id(),
        Some(sid),
        "a verified round must keep the same session alive"
    );

    let report = handle.shutdown();
    assert_eq!(report.stats.sessions_ok, 2, "{:?}", report.stats);
    assert_eq!(report.stats.sessions_opened, 1);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
    assert!(
        report.stats.session_partition_holds(),
        "session partition law violated: {:?}",
        report.stats
    );
}

/// A device reboot drops the volatile session keys; the next dial must
/// re-handshake from scratch and still verify.
#[test]
fn reboot_forces_fresh_handshake() {
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::with_sessions(prover, id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, reactor_config(1, 64));

    let first = agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(first.is_verified(), "{first:?}");
    let old_sid = agent.session_id().expect("session established");

    agent.reboot().expect("recovery boot");
    assert_eq!(agent.session_id(), None, "reboot clears session state");

    let second = agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(second.is_verified(), "post-reboot dial failed: {second:?}");
    let new_sid = agent.session_id().expect("fresh session established");
    assert_ne!(
        new_sid, old_sid,
        "reboot must not resurrect the old session"
    );

    let report = handle.shutdown();
    assert_eq!(report.stats.sessions_opened, 2);
    assert_eq!(report.stats.sessions_ok, 2);
    assert!(report.stats.session_partition_holds(), "{:?}", report.stats);
}

/// Idle expiry under the event-driven path: a session left idle past
/// `session_idle_ms` is refused with `SessionExpired` on resume, and the
/// agent transparently re-handshakes.
#[test]
fn idle_session_expires_and_rehandshakes() {
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::with_sessions(prover, id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let config = GatewayConfig {
        session_idle_ms: 60,
        ..reactor_config(1, 64)
    };
    let handle = Gateway::start(Box::new(hub), directory, config);

    let first = agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(first.is_verified(), "{first:?}");
    assert!(agent.session_id().is_some());

    thread::sleep(Duration::from_millis(200));

    // The stale resume is rejected cheaply, then retried as a handshake —
    // all inside one attest_with_retry call.
    let second = agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(second.is_verified(), "re-handshake failed: {second:?}");

    let report = handle.shutdown();
    assert_eq!(report.stats.sessions_opened, 2);
    assert!(
        report.stats.sessions_expired >= 1,
        "idle sweep must have expired the stale session: {:?}",
        report.stats
    );
    assert_eq!(
        report.metrics.counter("gateway.session.expired_lookup"),
        Some(1),
        "the stale resume must be booked on the cheap-reject path"
    );
    assert!(report.stats.session_partition_holds(), "{:?}", report.stats);
}

/// Slowloris against the reactor: the peer opens an attested handshake,
/// takes the `SessInit`, then stalls. The single establishment budget
/// (armed at registration, never re-armed per message) cuts it within
/// ~`read_timeout_ms` as a wheel timer expiry, books it on the deadline
/// path — and, because no thread was ever parked on the stall, a
/// concurrent honest session completes immediately rather than queueing
/// behind it.
#[test]
fn reactor_slowloris_cut_by_establishment_deadline() {
    let read_timeout_ms = 600u64;
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let device_id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::new(prover, device_id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let config = GatewayConfig {
        read_timeout_ms,
        ..reactor_config(1, 64)
    };
    let handle = Gateway::start(Box::new(hub), directory, config);

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

    // The honest session runs while the slowloris stalls: event-driven
    // concurrency means the stall costs the gateway a slab slot, not a
    // worker thread.
    let honest = agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(
        honest.is_verified(),
        "honest session must not queue behind a stalled peer: {honest:?}"
    );

    assert!(
        stalled.recv().is_err(),
        "stalled handshake must be cut, not answered"
    );
    let held = accepted.elapsed();
    assert!(
        held < Duration::from_millis(read_timeout_ms + 500),
        "slot held {held:?} by a slowloris peer; budget is {read_timeout_ms}ms per connection"
    );

    let report = handle.shutdown();
    assert_eq!(report.stats.handshake_failed, 1, "{:?}", report.stats);
    assert_eq!(
        report.metrics.counter("gateway.handshake.deadline"),
        Some(1),
        "the stall must be booked on the deadline path, not as garbage/link"
    );
    let expiries = report
        .metrics
        .counter("gateway.reactor.deadline_expiries")
        .unwrap_or(0);
    assert!(
        expiries >= 1,
        "the establishment budget is a wheel timer that fired; saw {expiries}"
    );
    assert_eq!(report.stats.sessions_ok, 1);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
}

/// Deterministic shed: with one shard capped at 2 connections, two
/// honest connections held open before their `Hello` fill the gateway,
/// and every extra dial is answered with exactly one cheap `Busy` frame —
/// while the held sessions still run to verified completion.
#[test]
fn capacity_full_sheds_busy_deterministically() {
    let mut directory = DeviceDirectory::new();
    let mut agents = Vec::new();
    for p in 0..2 {
        let (prover, verifier) = provision(p);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, reactor_config(1, 2));

    let held: Vec<_> = agents
        .into_iter()
        .map(|agent| (agent, connector.connect().expect("held connect")))
        .collect();
    wait_registered(&handle, 2);

    let mut shed = 0u64;
    for _ in 0..3 {
        assert!(
            dial_expect_busy(&connector),
            "dial against a full reactor must be shed with Busy"
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
            "pinned session {p} must verify despite the Busy storm"
        );
    }
    let report = handle.shutdown();
    assert!(report.stats.busy_rejected >= shed);
    assert_eq!(report.stats.sessions_ok, 2);
    assert_eq!(report.stats.handshake_failed, 0);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
    assert_eq!(
        report.metrics.counter("gateway.busy"),
        Some(report.stats.busy_rejected)
    );
}

/// A mixed workload (honest one-shots plus a session handshake and one
/// resumed round) fixes every protocol-visible count: 6 verified
/// sessions, none failed, no handshake failures, exactly one session
/// opened, partition laws holding, and the telemetry counters agreeing.
#[test]
fn mixed_workload_counts_are_exact() {
    const ONESHOTS: usize = 4;
    let mut directory = DeviceDirectory::new();
    let mut oneshots = Vec::new();
    for p in 0..ONESHOTS {
        let (prover, verifier) = provision(p as u64);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        oneshots.push(ProverAgent::new(prover, id));
    }
    let (prover, verifier) = provision(ONESHOTS as u64);
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut sess_agent = ProverAgent::with_sessions(prover, id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, reactor_config(2, 8));

    let pins: Vec<_> = oneshots
        .into_iter()
        .map(|mut agent| {
            let connector = connector.clone();
            thread::spawn(move || {
                agent
                    .attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50)
                    .is_verified()
            })
        })
        .collect();
    for pin in pins {
        assert!(pin.join().expect("session thread panicked"));
    }
    for _ in 0..2 {
        let outcome =
            sess_agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
        assert!(outcome.is_verified(), "{outcome:?}");
    }
    let report = handle.shutdown();

    assert_eq!(report.stats.sessions_ok, 6, "{:?}", report.stats);
    assert_eq!(report.stats.sessions_failed, 0, "{:?}", report.stats);
    assert_eq!(report.stats.handshake_failed, 0, "{:?}", report.stats);
    assert_eq!(report.stats.sessions_opened, 1, "{:?}", report.stats);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
    assert!(report.stats.session_partition_holds(), "{:?}", report.stats);
    assert_eq!(report.metrics.counter("gateway.sessions_ok"), Some(6));
    assert_eq!(report.metrics.counter("gateway.session.opened"), Some(1));
}

/// Honest agents all verify while a raw line-noise flood, a junk-frame
/// flood and a forgery flood hit the same gateway. The forgeries reach
/// the protocol and end in failed verdicts (never a verified one), every
/// garbage connection dies at the handshake, and the global and
/// per-shard partition laws hold.
#[test]
fn honest_fleet_verifies_under_flood() {
    const HONEST: usize = 8;
    const SEED: u64 = 0xDAC1_6761_7465;
    let mut directory = DeviceDirectory::new();
    let mut agents = Vec::new();
    for p in 0..HONEST {
        let (prover, verifier) = provision(p as u64);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }
    // The forgery flood's target: a registered device whose key the flood
    // does not hold.
    let (forge_prover, forge_verifier) = provision(0x80);
    let forge_id = directory.register(forge_verifier, forge_prover.expected_memory().to_vec());

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, reactor_config(2, 64));

    let honest: Vec<_> = agents
        .into_iter()
        .map(|mut agent| {
            let connector = connector.clone();
            thread::spawn(move || {
                agent
                    .attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50)
                    .is_verified()
            })
        })
        .collect();
    let forge = thread::spawn({
        let connector = connector.clone();
        move || forgery_flood(dial(&connector), forge_id, 4, SEED, Duration::from_secs(30))
    });
    let junk = thread::spawn({
        let connector = connector.clone();
        move || junk_frame_flood(dial(&connector), 8, SEED)
    });
    let raw = thread::spawn({
        let connector = connector.clone();
        move || raw_garbage_flood(&connector, 8, SEED)
    });

    for (p, agent) in honest.into_iter().enumerate() {
        assert!(
            agent.join().expect("honest thread panicked"),
            "honest session {p} must verify under flood"
        );
    }
    let forged = forge.join().expect("forgery flood panicked");
    let junk = junk.join().expect("junk flood panicked");
    let raw = raw.join().expect("raw flood panicked");
    assert!(
        forged.forged_responses >= 1,
        "forgery flood never reached the protocol: {forged:?}"
    );
    assert!(
        forged.byes >= 1,
        "no forged session was driven to a failed-session Bye: {forged:?}"
    );

    let shards = quiesced_shards(&handle);
    for snap in &shards {
        assert_eq!(snap.registered, 0, "shard {} not quiesced", snap.shard);
        assert!(
            snap.partition_holds(),
            "shard conservation law violated: {snap:?}"
        );
    }
    let assigned: u64 = shards.iter().map(|s| s.assigned).sum();
    let report = handle.shutdown();
    assert_eq!(
        report.stats.sessions_ok, HONEST as u64,
        "only the honest sessions verify: {:?}",
        report.stats
    );
    assert!(
        report.stats.sessions_failed >= forged.byes,
        "every forged Bye is a failed session: {:?}",
        report.stats
    );
    assert_eq!(
        report.stats.handshake_failed,
        junk.attempts + raw.attempts,
        "every garbage connection dies at the handshake: {:?}",
        report.stats
    );
    assert_eq!(assigned, report.stats.admitted);
    assert!(
        report.stats.partition_holds(),
        "partition law violated: {:?}",
        report.stats
    );
}

/// Consecutive failures [`FlakyAcceptor`] opens with.
const ACCEPT_FAILURES: usize = 3;

/// What [`FlakyAcceptor`] saw of the gateway calling it.
#[derive(Default)]
struct AcceptLog {
    calls: AtomicU64,
    /// The number of the call that returned the first connection.
    calls_to_first_accept: AtomicU64,
    errors_at: Mutex<Vec<Instant>>,
}

/// An acceptor whose first [`ACCEPT_FAILURES`] calls fail with an OS
/// error (an aborted peer, a persistent `EMFILE`) before it serves the
/// loopback hub.
struct FlakyAcceptor {
    hub: LoopbackHub,
    log: Arc<AcceptLog>,
}

impl Acceptor for FlakyAcceptor {
    fn ready_source(&self) -> ReadySource {
        self.hub.ready_source()
    }

    fn attach_notifier(&self, notifier: Notifier) {
        self.hub.attach_notifier(notifier);
    }

    fn try_accept(&self) -> Result<Option<Box<dyn NbTransport>>, TransportError> {
        let call = self.log.calls.fetch_add(1, Ordering::SeqCst) + 1;
        let mut errors_at = self.log.errors_at.lock().unwrap();
        if errors_at.len() < ACCEPT_FAILURES {
            errors_at.push(Instant::now());
            return Err(TransportError::Io {
                kind: std::io::ErrorKind::Other,
                msg: "too many open files".to_string(),
            });
        }
        let accepted = self.hub.try_accept()?;
        if accepted.is_some() {
            let _ = self.log.calls_to_first_accept.compare_exchange(
                0,
                call,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        Ok(accepted)
    }
}

/// Acceptor errors must neither stop the gateway accepting nor spin the
/// shard: each is counted and pauses the listener for 10 ms, so an
/// honest agent dialing meanwhile verifies after a handful of calls (a
/// spinning shard makes thousands).
#[test]
fn acceptor_error_does_not_stop_accepting() {
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::new(prover, id);

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let log = Arc::new(AcceptLog::default());
    let acceptor = FlakyAcceptor {
        hub,
        log: Arc::clone(&log),
    };
    let handle = Gateway::start(Box::new(acceptor), directory, reactor_config(1, 64));

    let outcome =
        agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
    assert!(
        outcome.is_verified(),
        "the gateway must still accept after acceptor errors: {outcome:?}"
    );

    let report = handle.shutdown();
    assert_eq!(
        report.metrics.counter("gateway.accept_errors"),
        Some(ACCEPT_FAILURES as u64)
    );
    let k = ACCEPT_FAILURES as u64;
    let first = log.calls_to_first_accept.load(Ordering::SeqCst);
    assert!(
        (k + 1..=k + 3).contains(&first),
        "{first} accept calls up to the first connection ({} in all)",
        log.calls.load(Ordering::SeqCst)
    );
    // Each error paused the listener for about 10 ms, so the errors
    // spread over the pauses instead of coming back to back.
    let errors_at = log.errors_at.lock().unwrap();
    let spread = errors_at[ACCEPT_FAILURES - 1] - errors_at[0];
    assert!(
        spread >= Duration::from_millis(10),
        "{ACCEPT_FAILURES} acceptor errors within {spread:?}"
    );
    assert_eq!(report.stats.sessions_ok, 1);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
}

/// A peer that hangs up after taking the `SessInit` is a dead link, not
/// an expired budget: the failure is booked as `gateway.handshake.link`,
/// exactly as a hangup before the first frame is.
#[test]
fn handshake_hangup_is_booked_as_link() {
    let mut directory = DeviceDirectory::new();
    let (prover, verifier) = provision(0);
    let device_id = directory.register(verifier, prover.expected_memory().to_vec());

    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    // An establishment budget no test run outlasts: only the hangup can
    // end this handshake.
    let config = GatewayConfig {
        read_timeout_ms: 60_000,
        ..reactor_config(1, 64)
    };
    let handle = Gateway::start(Box::new(hub), directory, config);

    let mut conn = connector.connect().expect("connect");
    let _ = conn.set_deadline(Some(Duration::from_secs(30)));
    conn.send(
        &GatewayMsg::SessHello {
            device_id,
            session_id: None,
        }
        .encode(),
    )
    .expect("hello");
    match GatewayMsg::decode(&conn.recv().expect("init")) {
        Ok(GatewayMsg::SessInit(_)) => {}
        other => panic!("expected SessInit, got {other:?}"),
    }
    drop(conn);

    let report = handle.shutdown();
    assert_eq!(report.stats.handshake_failed, 1, "{:?}", report.stats);
    assert_eq!(report.metrics.counter("gateway.handshake.link"), Some(1));
    assert_eq!(report.metrics.counter("gateway.handshake.deadline"), None);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
    assert!(report.stats.session_partition_holds(), "{:?}", report.stats);
}

/// How a gateway frame reads in the first-frame table.
fn shape(msg: &GatewayMsg) -> String {
    match msg {
        GatewayMsg::AttReq(_) => "AttReq".to_string(),
        GatewayMsg::SessInit(_) => "SessInit".to_string(),
        other => format!("{other:?}"),
    }
}

/// Sends `first` on a fresh connection, answers requests honestly with
/// `prover`, and returns the shape of every frame the gateway sent until
/// it hung up.
fn play_first_frame(
    connector: &LoopbackConnector,
    prover: &mut Prover,
    first: &[u8],
) -> Vec<String> {
    let mut conn = connector.connect().expect("connect");
    let _ = conn.set_deadline(Some(Duration::from_secs(30)));
    conn.send(first).expect("first frame");
    let mut seen = Vec::new();
    while let Ok(bytes) = conn.recv() {
        let msg = GatewayMsg::decode(&bytes).expect("the gateway speaks the protocol");
        seen.push(shape(&msg));
        let reply = match msg {
            GatewayMsg::AttReq(raw) => {
                GatewayMsg::AttResp(prover.handle_wire_request(&raw).expect("honest request"))
            }
            GatewayMsg::SessInit(raw) => {
                let init = HandshakeInit::decode(&raw).expect("init parses");
                let (accept, _) = channel::prover_accept(prover, &init).expect("honest init");
                GatewayMsg::SessAccept(accept.encode())
            }
            _ => continue,
        };
        conn.send(&reply.encode()).expect("reply");
    }
    seen
}

/// One row of the first-frame table.
struct FirstFrame {
    name: &'static str,
    /// Open a session for device 0 first, and hand its id to `frame`.
    with_session: bool,
    frame: fn(Option<[u8; SESSION_ID_SIZE]>) -> Vec<u8>,
    replies: &'static [&'static str],
    /// The counter this first frame books (exactly once).
    label: &'static str,
}

/// Every kind of first frame, each on a fresh gateway: the frames it is
/// answered with, the one counter it books, and both partition laws.
#[test]
fn every_first_frame_is_accounted_exactly_once() {
    const UNKNOWN: u64 = 99;
    let rows = [
        FirstFrame {
            name: "hello, known device",
            with_session: false,
            frame: |_| GatewayMsg::Hello { device_id: 0 }.encode(),
            replies: &["AttReq", "Bye { verified: true }"],
            label: "gateway.sessions_ok",
        },
        FirstFrame {
            name: "hello, unknown device",
            with_session: false,
            frame: |_| GatewayMsg::Hello { device_id: UNKNOWN }.encode(),
            replies: &["Bye { verified: false }"],
            label: "gateway.handshake.unknown_device",
        },
        FirstFrame {
            name: "session hello, known device",
            with_session: false,
            frame: |_| {
                GatewayMsg::SessHello {
                    device_id: 0,
                    session_id: None,
                }
                .encode()
            },
            replies: &["SessInit", "Bye { verified: true }"],
            label: "gateway.session.opened",
        },
        FirstFrame {
            name: "session hello, unknown device",
            with_session: false,
            frame: |_| {
                GatewayMsg::SessHello {
                    device_id: UNKNOWN,
                    session_id: None,
                }
                .encode()
            },
            replies: &["Bye { verified: false }"],
            label: "gateway.handshake.unknown_device",
        },
        FirstFrame {
            name: "resume, unknown session id",
            with_session: false,
            frame: |_| {
                GatewayMsg::SessHello {
                    device_id: 0,
                    session_id: Some([0x5a; SESSION_ID_SIZE]),
                }
                .encode()
            },
            replies: &["Reject(SessionExpired)", "Bye { verified: false }"],
            label: "gateway.session.expired_lookup",
        },
        FirstFrame {
            name: "resume, another device's session id",
            with_session: true,
            frame: |sid| {
                GatewayMsg::SessHello {
                    device_id: 1,
                    session_id: sid,
                }
                .encode()
            },
            replies: &["Reject(SessionExpired)", "Bye { verified: false }"],
            label: "gateway.session.expired_lookup",
        },
        FirstFrame {
            name: "junk bytes",
            with_session: false,
            frame: |_| b"not a gateway message".to_vec(),
            replies: &[],
            label: "gateway.handshake.garbage",
        },
        FirstFrame {
            name: "response before any request",
            with_session: false,
            frame: |_| GatewayMsg::AttResp(vec![0; 20]).encode(),
            replies: &[],
            label: "gateway.handshake.garbage",
        },
    ];
    for row in rows {
        let mut directory = DeviceDirectory::new();
        let (mut prover, verifier) = provision(0);
        directory.register(verifier, prover.expected_memory().to_vec());
        let (other, other_verifier) = provision(1);
        directory.register(other_verifier, other.expected_memory().to_vec());
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        // A long establishment budget, so a slow host cannot turn an
        // honest handshake row into a deadline failure.
        let config = GatewayConfig {
            read_timeout_ms: 60_000,
            ..reactor_config(1, 64)
        };
        let handle = Gateway::start(Box::new(hub), directory, config);

        let sid = if row.with_session {
            // Same key as `prover`, so the gateway verifies it.
            let mut agent = ProverAgent::with_sessions(provision(0).0, 0);
            let opened =
                agent.attest_with_retry(dial(&connector), &patient(), Duration::from_secs(30), 50);
            assert!(opened.is_verified(), "{}: setup handshake failed", row.name);
            agent.session_id()
        } else {
            None
        };
        let seen = play_first_frame(&connector, &mut prover, &(row.frame)(sid));
        let report = handle.shutdown();

        assert_eq!(seen, row.replies, "{}: reply frames", row.name);
        assert_eq!(
            report.metrics.counter(row.label),
            Some(1),
            "{}: {} must be booked exactly once",
            row.name,
            row.label
        );
        assert!(
            report.stats.partition_holds(),
            "{}: {:?}",
            row.name,
            report.stats
        );
        assert!(
            report.stats.session_partition_holds(),
            "{}: {:?}",
            row.name,
            report.stats
        );
    }
}

//! End-to-end attestation over real OS sockets on 127.0.0.1: the full
//! gateway stack on TCP. Everything binds port 0, so runs never collide.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use proverguard_attest::gateway::{
    DeviceDirectory, Gateway, GatewayConfig, GatewayHandle, ProverAgent, ShardSnapshot,
};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::Verifier;
use proverguard_transport::{TcpAcceptor, TcpTransport, Transport};

fn provision(index: u64) -> (Prover, Verifier) {
    let config = ProverConfig::recommended();
    let mut key = [0x42u8; 16];
    key[0] ^= index as u8;
    let prover = Prover::provision(config.clone(), &key, b"app v1").expect("provision prover");
    let verifier = Verifier::new(&config, &key).expect("provision verifier");
    (prover, verifier)
}

/// The whole stack over TCP: event-loop shards accepting off one
/// listener, framed session protocol — and two provers dialing in over real
/// sockets, each verifying twice.
#[test]
fn gateway_attests_provers_over_tcp() {
    let mut directory = DeviceDirectory::new();
    let mut agents = Vec::new();
    for d in 0..2u64 {
        let (prover, verifier) = provision(d);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback tcp");
    let addr = acceptor.local_addr();
    let handle = Gateway::start(
        Box::new(acceptor),
        directory,
        GatewayConfig {
            retry: RetryPolicy {
                timeout_ms: 10_000,
                ..GatewayConfig::default().retry
            },
            ..GatewayConfig::default()
        },
    );

    let clients: Vec<_> = agents
        .into_iter()
        .map(|mut agent| {
            thread::spawn(move || {
                let policy = RetryPolicy {
                    timeout_ms: 10_000,
                    max_retries: 10,
                    backoff_base_ms: 5,
                    backoff_factor: 1,
                    jitter_per_mille: 500,
                    jitter_seed: 0x7c9,
                };
                (0..2)
                    .filter(|_| {
                        agent
                            .attest_with_retry(
                                || {
                                    TcpTransport::connect(addr)
                                        .map(|conn| Box::new(conn) as Box<dyn Transport>)
                                },
                                &policy,
                                Duration::from_secs(30),
                                50,
                            )
                            .is_verified()
                    })
                    .count()
            })
        })
        .collect();

    let verified: usize = clients
        .into_iter()
        .map(|c| c.join().expect("tcp client panicked"))
        .sum();
    let report = handle.shutdown();

    assert_eq!(verified, 4, "all four TCP sessions must verify");
    assert_eq!(report.stats.sessions_ok, 4);
    assert!(report.stats.partition_holds());
    assert_eq!(report.dropped_spans, 0);
    assert!(
        report.metrics.counter("transport.bytes_in").unwrap_or(0) > 0,
        "gateway-side byte counters must see real socket traffic"
    );
}

/// Polls the per-shard snapshots until every shard has released its
/// connections (5 s budget).
fn quiesced_shards(handle: &GatewayHandle) -> Vec<ShardSnapshot> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snaps = handle.shard_stats();
        if snaps.iter().all(|s| s.registered == 0) || Instant::now() > deadline {
            return snaps;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// Two shards share one TCP listener: 32 one-shot agents dial at once,
/// every one verifies, and the connections the shards admitted add up to
/// exactly the gateway's admitted count. How they split between the
/// shards is up to the kernel and is not asserted.
#[test]
fn two_shards_share_one_tcp_listener() {
    const AGENTS: usize = 32;
    let mut directory = DeviceDirectory::new();
    let mut agents = Vec::new();
    for d in 0..AGENTS as u64 {
        let (prover, verifier) = provision(d);
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback tcp");
    let addr = acceptor.local_addr();
    let handle = Gateway::start(
        Box::new(acceptor),
        directory,
        GatewayConfig {
            reactor_shards: 2,
            retry: RetryPolicy {
                timeout_ms: 10_000,
                ..GatewayConfig::default().retry
            },
            ..GatewayConfig::default()
        },
    );

    let start = Arc::new(Barrier::new(AGENTS));
    let clients: Vec<_> = agents
        .into_iter()
        .map(|mut agent| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                let mut conn = TcpTransport::connect(addr).expect("dial gateway");
                agent
                    .run_session(&mut conn, Duration::from_secs(30))
                    .is_verified()
            })
        })
        .collect();
    for (d, client) in clients.into_iter().enumerate() {
        assert!(
            client.join().expect("tcp client panicked"),
            "agent {d} must verify"
        );
    }

    let shards = quiesced_shards(&handle);
    assert_eq!(shards.len(), 2);
    for snap in &shards {
        assert_eq!(snap.registered, 0, "shard {} not quiesced", snap.shard);
        assert!(snap.partition_holds(), "shard law violated: {snap:?}");
    }
    let assigned: u64 = shards.iter().map(|s| s.assigned).sum();
    let report = handle.shutdown();
    let stats = &report.stats;
    assert_eq!(stats.sessions_ok, AGENTS as u64, "{stats:?}");
    assert_eq!(assigned, stats.admitted, "{stats:?}");
    assert_eq!(
        stats.admitted,
        stats.accepted - stats.busy_rejected,
        "{stats:?}"
    );
    assert!(stats.partition_holds(), "{stats:?}");
}

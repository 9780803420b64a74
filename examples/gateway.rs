//! A verifier gateway on a real TCP socket, serving a small fleet of
//! socketed provers — with a forgery flood hammering the same port.
//!
//! ```sh
//! cargo run --example gateway
//! ```
//!
//! One process, three roles:
//! - the **gateway**: event-loop shards sharing one listener on 127.0.0.1,
//!   driving a retry/backoff cursor per prover connection;
//! - three **honest provers**, each dialing in over TCP and answering the
//!   memory-MAC challenge;
//! - a **forger** who knows a valid device id but not its key.
//!
//! The gateway must verify every honest session, fail every forged one,
//! and account for every connection in its stats partition.

use std::thread;
use std::time::Duration;

use proverguard_adversary::wire::forgery_flood;
use proverguard_attest::gateway::{DeviceDirectory, Gateway, GatewayConfig, ProverAgent};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::Verifier;
use proverguard_transport::{TcpAcceptor, TcpTransport, Transport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ProverConfig::recommended();

    // Provision a directory of devices: each prover/verifier pair shares
    // a per-device key, and the gateway holds the verifier side.
    let mut directory = DeviceDirectory::new();
    let mut agents = Vec::new();
    for d in 0..3u64 {
        let mut key = [0x42u8; 16];
        key[0] ^= d as u8;
        let prover = Prover::provision(config.clone(), &key, b"sensor firmware v1")?;
        let verifier = Verifier::new(&config, &key)?;
        let id = directory.register(verifier, prover.expected_memory().to_vec());
        agents.push(ProverAgent::new(prover, id));
    }

    let acceptor = TcpAcceptor::bind("127.0.0.1:0")?;
    let addr = acceptor.local_addr();
    println!("gateway listening on {addr} (2 event-loop shards)");
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

    // Honest fleet: every prover dials in twice over real sockets.
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
                    jitter_seed: 0xfee1,
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

    // The forger: a valid Hello for device 0, garbage answers to every
    // challenge. The gateway burns its retries and reports failure.
    let forger = thread::spawn(move || {
        forgery_flood(
            || TcpTransport::connect(addr).map(|conn| Box::new(conn) as Box<dyn Transport>),
            0,
            3,
            0x5eed,
            Duration::from_secs(30),
        )
    });

    let verified: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let flood = forger.join().unwrap();
    let report = handle.shutdown();

    println!("\nhonest fleet : {verified}/6 sessions verified over TCP");
    println!(
        "forger       : {} sessions, {} forged responses, {} failed-session verdicts",
        flood.attempts, flood.forged_responses, flood.byes
    );
    let stats = &report.stats;
    println!(
        "gateway      : accepted {} = busy {} + admitted {}; ok {} / failed {} / handshake {}",
        stats.accepted,
        stats.busy_rejected,
        stats.admitted,
        stats.sessions_ok,
        stats.sessions_failed,
        stats.handshake_failed
    );
    println!(
        "accounting   : partition holds = {}, {} spans traced, {} dropped",
        stats.partition_holds(),
        report.spans,
        report.dropped_spans
    );
    println!("\nmerged gateway telemetry:\n{}", report.metrics.render());
    Ok(())
}

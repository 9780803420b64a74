//! Verdicts computed before the response arrives.
//!
//! A Whole or Segmented report is a pure function of the request, the
//! expected image and the key, so the gateway computes it while the
//! prover works and judges the reply with one constant-time compare.
//! This file pins three things about that:
//!
//! - the precomputed verdict agrees with every reference verdict — a
//!   MAC computed straight from the construction's definition and the
//!   gateway's on-demand verify — over all three MAC algorithms, honest,
//!   tampered and replayed responses;
//! - the work is bounded: a speculation is paid for by the device's own
//!   last verified round, so keyless `Hello`s naming a device buy at most
//!   one expected-report MAC until it verifies again, and a forged
//!   response is still booked as a failed session;
//! - a re-target between the request and the reply is detected: the
//!   speculation is dropped and the reply verified against the new image.

use std::time::Duration;

use proptest::prelude::*;
use proverguard_attest::freshness::{counter_r_offset, patch_expected_image, FreshnessKind};
use proverguard_attest::gateway::{
    DeviceDirectory, Gateway, GatewayConfig, GatewayHandle, GatewayMsg, GatewayReport, ProverAgent,
};
use proverguard_attest::message::{AttestRequest, AttestResponse, AttestScope};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::segcache::{combined_input, segment_digests, SegmentedParams};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::Verifier;
use proverguard_crypto::mac::{MacAlgorithm, MacKey};
use proverguard_mcu::map;
use proverguard_transport::{LoopbackConnector, LoopbackHub, Transport, DEFAULT_MAX_FRAME};

const KEY: [u8; 16] = [0x5C; 16];

// ---------------------------------------------------------------------------
// Differential: precomputed verdict vs. the references
// ---------------------------------------------------------------------------

/// A small expected image at 1 KiB granularity: the freshness words, the
/// rest of the reserved head, the rest of the first 1 KiB, two whole
/// segments and a partial one.
const IMAGE_LEN: usize = 3 * 1024 + 512;
const SEG_LEN: u32 = 1024;

/// The report an honest prover holding `memory` returns for `request`,
/// computed from the construction's definition.
fn definitional_report(key: &MacKey, request: &AttestRequest, memory: &[u8]) -> Vec<u8> {
    let mut image = memory.to_vec();
    patch_expected_image(&mut image, &request.freshness);
    let signed = request.signed_bytes();
    match request.scope {
        AttestScope::Whole => key.compute_parts(&[&signed, &image]),
        AttestScope::Segmented => key.compute(&combined_input(
            &signed,
            SEG_LEN,
            &segment_digests(&image, SEG_LEN as usize),
        )),
        AttestScope::History { .. } => unreachable!("no History requests here"),
    }
}

/// The reference verdict: `verify_parts(signed ‖ memory)` for Whole,
/// `combined_input` plus `verify` for Segmented.
fn definitional_verdict(
    key: &MacKey,
    request: &AttestRequest,
    response: &AttestResponse,
    expected: &[u8],
) -> bool {
    let mut image = expected.to_vec();
    patch_expected_image(&mut image, &request.freshness);
    let signed = request.signed_bytes();
    match request.scope {
        AttestScope::Whole => key.verify_parts(&[&signed, &image], &response.report),
        AttestScope::Segmented => key.verify(
            &combined_input(&signed, SEG_LEN, &segment_digests(&image, SEG_LEN as usize)),
            &response.report,
        ),
        AttestScope::History { .. } => unreachable!("no History requests here"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn precomputed_verdict_agrees_with_every_reference(
        alg in 0usize..3,
        segmented in any::<bool>(),
        freshness in 0usize..4,
        kind in 0usize..4,
        rounds in 1usize..4,
        at in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let alg = MacAlgorithm::ALL[alg];
        let config = ProverConfig {
            response_mac: alg,
            freshness: [
                FreshnessKind::None,
                FreshnessKind::NonceHistory,
                FreshnessKind::Counter,
                FreshnessKind::Timestamp,
            ][freshness],
            segmented: segmented.then_some(SegmentedParams { segment_len: SEG_LEN }),
            ..ProverConfig::recommended()
        };
        let mut state = seed;
        let baseline: Vec<u8> = (0..IMAGE_LEN)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        let key = MacKey::new(alg, &KEY).expect("key");
        let mirror = Verifier::new(&config, &KEY).expect("verifier");
        let mut directory = DeviceDirectory::new();
        let id = directory.register(Verifier::new(&config, &KEY).expect("verifier"), baseline.clone());
        let mint = |directory: &DeviceDirectory| {
            directory
                .with_verifier(id, |v| {
                    v.advance_time_ms(1);
                    v.make_request()
                })
                .expect("registered")
                .expect("request")
        };

        // Honest rounds first, so the device is in a steady state and
        // a replay has something to replay.
        let mut previous = None;
        for _ in 0..rounds {
            let request = mint(&directory);
            let response = AttestResponse { report: definitional_report(&key, &request, &baseline) };
            prop_assert_eq!(directory.verify_response(id, &request, &response), Some(true));
            previous = Some(response);
        }

        let request = mint(&directory);
        prop_assert!(!matches!(request.scope, AttestScope::History { .. }));
        // The response under test: honest, one flipped report bit, computed
        // over an image with one changed byte, or the previous round's.
        let response = match kind {
            0 => AttestResponse { report: definitional_report(&key, &request, &baseline) },
            1 => {
                let mut report = definitional_report(&key, &request, &baseline);
                let bit = at as usize % (report.len() * 8);
                report[bit / 8] ^= 1 << (bit % 8);
                AttestResponse { report }
            }
            2 => {
                // The freshness word is overwritten by the patch, so a
                // change there is no change at all: skip past it.
                let counter = counter_r_offset()..counter_r_offset() + 8;
                let mut byte = at as usize % IMAGE_LEN;
                if counter.contains(&byte) {
                    byte = counter.end;
                }
                let mut memory = baseline.clone();
                memory[byte] ^= 0x5A;
                AttestResponse { report: definitional_report(&key, &request, &memory) }
            }
            _ => previous.expect("at least one honest round"),
        };
        let honest = kind == 0;

        let precomputed = directory
            .with_expected(id, &request.freshness, |view| {
                mirror
                    .expected_report(&request, view)
                    .map(|report| Verifier::report_matches(&report, &response))
            })
            .expect("registered");
        prop_assert_eq!(precomputed, Some(honest), "{} {:?}", alg, request.scope);
        prop_assert_eq!(definitional_verdict(&key, &request, &response, &baseline), honest);
        prop_assert_eq!(directory.verify_response(id, &request, &response), Some(honest));
    }
}

#[test]
fn history_has_no_precomputed_report() {
    let config = ProverConfig::recommended_segmented();
    let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
    verifier.set_scope_policy(proverguard_attest::verifier::ScopePolicy::History { full_every: 0 });
    let request = verifier.make_request().expect("request");
    assert!(matches!(request.scope, AttestScope::History { .. }));
    let mut directory = DeviceDirectory::new();
    let id = directory.register(verifier.clone(), vec![0u8; 64 * 1024]);
    let report = directory
        .with_expected(id, &request.freshness, |view| {
            verifier.expected_report(&request, view).is_some()
        })
        .expect("registered");
    assert!(!report, "a History tag depends on the prover's bitmap");
}

// ---------------------------------------------------------------------------
// The gateway: credit bound, forged responses, re-targets
// ---------------------------------------------------------------------------

/// A one-shot Whole device (the paper's protocol) on a single-shard
/// loopback gateway, so connections are served strictly in order.
struct Bench {
    handle: GatewayHandle,
    connector: LoopbackConnector,
    agent: ProverAgent,
    id: u64,
}

fn bench() -> Bench {
    let config = ProverConfig::recommended();
    let prover = Prover::provision(config.clone(), &KEY, b"speculation app").expect("provision");
    let verifier = Verifier::new(&config, &KEY).expect("verifier");
    let mut directory = DeviceDirectory::new();
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(
        Box::new(hub),
        directory,
        GatewayConfig {
            reactor_shards: 1,
            retry: RetryPolicy {
                timeout_ms: 10_000,
                ..GatewayConfig::default().retry
            },
            ..GatewayConfig::default()
        },
    );
    Bench {
        handle,
        connector,
        agent: ProverAgent::new(prover, id),
        id,
    }
}

fn recv_msg(conn: &mut dyn Transport) -> Option<GatewayMsg> {
    conn.recv()
        .ok()
        .and_then(|bytes| GatewayMsg::decode(&bytes).ok())
}

fn counter(report: &GatewayReport, name: &str) -> u64 {
    report.metrics.counter(name).unwrap_or(0)
}

impl Bench {
    fn connect(&self) -> Box<dyn Transport> {
        let mut conn = self.connector.connect().expect("connect");
        conn.set_deadline(Some(Duration::from_secs(30)))
            .expect("deadline");
        Box::new(conn)
    }

    /// One honest round by the device itself.
    fn honest_round(&mut self) -> bool {
        let mut conn = self.connect();
        self.agent
            .run_session(&mut *conn, Duration::from_secs(30))
            .is_verified()
    }

    /// A keyless peer names the device, takes its request and hangs up.
    fn keyless_hello(&self) {
        let mut conn = self.connect();
        conn.send(&GatewayMsg::Hello { device_id: self.id }.encode())
            .expect("hello");
        assert!(matches!(recv_msg(&mut *conn), Some(GatewayMsg::AttReq(_))));
    }

    /// Returns once the shard has finished everything it was doing when
    /// called: the single shard serves this unknown-device `Hello` only
    /// after the handler in progress, so a speculation started there is
    /// complete.
    fn barrier(&self) {
        let mut conn = self.connect();
        conn.send(
            &GatewayMsg::Hello {
                device_id: u64::MAX,
            }
            .encode(),
        )
        .expect("hello");
        assert_eq!(
            recv_msg(&mut *conn),
            Some(GatewayMsg::Bye { verified: false })
        );
    }

    /// The device's own connection, answering every request with the
    /// prover until the verdict. Once the first request is out and its
    /// speculation computed, `retarget` runs. Returns the verdict and the
    /// answered (request, response) pairs.
    fn answer_until_bye(
        &mut self,
        retarget: impl FnOnce(&mut Prover, &DeviceDirectory),
    ) -> (bool, Vec<(AttestRequest, AttestResponse)>) {
        let mut conn = self.connect();
        conn.send(&GatewayMsg::Hello { device_id: self.id }.encode())
            .expect("hello");
        let mut retarget = Some(retarget);
        let mut answered = Vec::new();
        loop {
            match recv_msg(&mut *conn) {
                Some(GatewayMsg::AttReq(raw)) => {
                    if let Some(retarget) = retarget.take() {
                        self.barrier();
                        retarget(self.agent.prover_mut(), self.handle.directory());
                    }
                    let bytes = self
                        .agent
                        .prover_mut()
                        .handle_wire_request(&raw)
                        .expect("the prover accepts its verifier's request");
                    answered.push((
                        AttestRequest::from_bytes(&raw).expect("request"),
                        AttestResponse::from_bytes(&bytes).expect("response"),
                    ));
                    conn.send(&GatewayMsg::AttResp(bytes).encode())
                        .expect("response");
                }
                Some(GatewayMsg::Bye { verified }) => return (verified, answered),
                other => panic!("unexpected gateway message {other:?}"),
            }
        }
    }
}

#[test]
fn keyless_hellos_buy_no_speculation_before_a_verified_round() {
    let b = bench();
    for _ in 0..10 {
        b.keyless_hello();
    }
    let report = b.handle.shutdown();
    assert_eq!(counter(&report, "gateway.verdict.speculated"), 0);
    assert_eq!(report.stats.sessions_failed, 10);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
}

#[test]
fn keyless_hellos_buy_one_speculation_per_verified_round() {
    let mut b = bench();
    assert!(b.honest_round(), "first round (no credit yet)");
    for _ in 0..10 {
        b.keyless_hello();
    }
    assert!(b.honest_round(), "the round after the hellos verifies");
    assert!(b.honest_round(), "a round paid by the credit verifies");
    let report = b.handle.shutdown();
    // One speculation spent by the first hello; one by the last round,
    // whose verdict was the precomputed one.
    assert_eq!(counter(&report, "gateway.verdict.speculated"), 2);
    assert_eq!(counter(&report, "gateway.verdict.precomputed"), 1);
    assert_eq!(counter(&report, "gateway.verdict.speculation_miss"), 0);
    assert_eq!(report.stats.sessions_ok, 3);
    assert_eq!(report.stats.sessions_failed, 10);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
}

#[test]
fn forged_response_is_booked_failed_after_a_verified_round() {
    let mut b = bench();
    assert!(b.honest_round());
    // A keyless forger answers every attempt with a made-up report.
    let mut conn = b.connect();
    conn.send(&GatewayMsg::Hello { device_id: b.id }.encode())
        .expect("hello");
    let mut attempts = 0;
    let verified = loop {
        match recv_msg(&mut *conn) {
            Some(GatewayMsg::AttReq(_)) => {
                attempts += 1;
                let forged = AttestResponse {
                    report: vec![0xA5; 20],
                };
                conn.send(&GatewayMsg::AttResp(forged.to_bytes()).encode())
                    .expect("forged response");
            }
            Some(GatewayMsg::Bye { verified }) => break verified,
            other => panic!("unexpected gateway message {other:?}"),
        }
    };
    assert!(!verified);
    let retry = GatewayConfig::default().retry;
    assert_eq!(attempts, retry.max_retries + 1);
    assert!(b.honest_round(), "the device still verifies afterwards");
    let report = b.handle.shutdown();
    // The first forged attempt is judged by the precomputed report, the
    // retries on demand: 3 report MACs in all, as without speculation.
    assert_eq!(counter(&report, "gateway.verdict.speculated"), 1);
    assert_eq!(counter(&report, "gateway.verdict.precomputed"), 1);
    assert_eq!(report.stats.sessions_ok, 2);
    assert_eq!(report.stats.sessions_failed, 1);
    assert_eq!(counter(&report, "gateway.sessions_failed"), 1);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
}

/// A campaign re-targets the device between the request and the reply:
/// the speculation against the superseded image is dropped (one miss per
/// re-target) and the verdict is the uncached reference's against the
/// new image, whichever way that goes.
#[test]
fn retarget_between_request_and_reply_drops_the_speculation() {
    let mut b = bench();
    let config = ProverConfig::recommended();
    let reference = Verifier::new(&config, &KEY).expect("verifier");
    let reference_verdict = |request: &AttestRequest, response: &AttestResponse, image: &[u8]| {
        let mut expected = image.to_vec();
        patch_expected_image(&mut expected, &request.freshness);
        reference.check_response(request, response, &expected)
    };
    let id = b.id;
    assert!(b.honest_round());

    // The device is updated and the gateway re-targeted to match: the
    // speculation (old image) would reject, the new image verifies.
    let addr = map::APP_IMAGE_MIRROR.start + 4096;
    let mut image = Vec::new();
    let (verified, answered) = b.answer_until_bye(|prover, directory| {
        let mcu = prover.mcu_mut();
        let mut byte = [0u8];
        mcu.bus_read(addr, &mut byte, map::APP_CODE)
            .expect("app read");
        mcu.bus_write(addr, &[!byte[0]], map::APP_CODE)
            .expect("app write");
        image = prover.expected_memory().to_vec();
        assert!(directory.set_expected_memory(id, image.clone()));
    });
    assert_eq!(answered.len(), 1);
    let (request, response) = &answered[0];
    assert!(reference_verdict(request, response, &image));
    assert!(verified);

    // The gateway is re-targeted to an image the device does not hold:
    // the speculation (the device's image) would accept, the new image
    // rejects every attempt.
    let mut stranger = image.clone();
    stranger[addr as usize - map::RAM.start as usize + 1] ^= 0xFF;
    let (verified, answered) = b.answer_until_bye(|_, directory| {
        assert!(directory.set_expected_memory(id, stranger.clone()));
    });
    assert!(!verified);
    for (request, response) in &answered {
        assert!(!reference_verdict(request, response, &stranger));
        assert!(reference_verdict(request, response, &image));
    }

    let report = b.handle.shutdown();
    assert_eq!(report.stats.handshake_failed, 2, "the two barriers");
    assert_eq!(counter(&report, "gateway.verdict.speculated"), 2);
    assert_eq!(counter(&report, "gateway.verdict.speculation_miss"), 2);
    assert_eq!(counter(&report, "gateway.verdict.precomputed"), 0);
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
}

//! Fleet-scale honest load: thousands of lightweight simulated devices
//! driven by one event-driven client loop.
//!
//! A real [`Prover`](proverguard_attest::prover::Prover) simulates the
//! whole MCU — flash, MPU, cycle accounting — which is exactly right for
//! fidelity experiments and exactly wrong for scale experiments: you
//! cannot provision 32 000 of them just to measure the *verifier's*
//! concurrency ceiling. A [`SimDevice`] keeps only what the gateway can
//! observe on the wire — the response-MAC key and the expected memory
//! image — so its answers are indistinguishable from an honest prover's
//! to [`check_response`](proverguard_attest::verifier::Verifier::check_response),
//! at the cost of a single HMAC per request.
//!
//! [`drive_oneshot_wave`] then plays the prover side of the one-shot
//! gateway protocol for an entire wave of such devices from a single
//! thread, mirroring the gateway's own event-driven driver: every client
//! connection is registered with a [`Poller`] and advanced on readiness,
//! so the client harness scales to the same connection counts it is
//! trying to impose on the gateway.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proverguard_attest::freshness::patch_expected_image;
use proverguard_attest::gateway::GatewayMsg;
use proverguard_attest::message::{AttestRequest, AttestResponse};
use proverguard_crypto::mac::{MacAlgorithm, MacKey};
use proverguard_reactor::{Events, Poller, Token};
use proverguard_transport::nb::NbTransport;
use proverguard_transport::{LoopbackConnector, Transport};

/// A wire-honest device stand-in: answers authenticated attestation
/// requests with a valid `Whole`-scope response MAC over the patched
/// expected image, without simulating the MCU underneath.
#[derive(Debug, Clone)]
pub struct SimDevice {
    response_key: MacKey,
    image: Arc<Vec<u8>>,
}

impl SimDevice {
    /// A device holding `key`, presenting `image` as its RAM contents.
    /// The image must be at least 8 bytes so the freshness counter word
    /// (`counter_R`, at the base of RAM) exists to be patched.
    ///
    /// # Panics
    ///
    /// If the HMAC key schedule rejects `key` (it accepts any 16-byte
    /// key) or `image` is shorter than the counter word.
    #[must_use]
    pub fn new(key: &[u8; 16], image: Vec<u8>) -> Self {
        assert!(image.len() >= 8, "image must cover the counter_R word");
        SimDevice {
            response_key: MacKey::new(MacAlgorithm::HmacSha1, key).expect("HMAC accepts any key"),
            image: Arc::new(image),
        }
    }

    /// The baseline image, for registering the device's verifier-side
    /// expectation.
    #[must_use]
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Answers one serialized [`AttestRequest`] with a serialized
    /// [`AttestResponse`] that verifies against this device's key and
    /// image, committing the request's freshness value into the image
    /// first (reject-then-MAC ordering, like the real prover). Returns
    /// `None` for requests that do not parse.
    #[must_use]
    pub fn respond(&self, raw_request: &[u8]) -> Option<Vec<u8>> {
        let request = AttestRequest::from_bytes(raw_request).ok()?;
        let mut image = (*self.image).clone();
        patch_expected_image(&mut image, &request.freshness);
        let response = AttestResponse {
            report: self
                .response_key
                .compute_parts(&[&request.signed_bytes(), &image]),
        };
        Some(response.to_bytes())
    }
}

/// Aggregate outcome of one [`drive_oneshot_wave`] call.
#[derive(Debug, Default, Clone)]
pub struct WaveReport {
    /// Connections dialed.
    pub dialed: u64,
    /// Sessions the gateway concluded with `Bye {{ verified: true }}`.
    pub verified: u64,
    /// Connections shed with `Busy`.
    pub shed: u64,
    /// Everything else: unverified `Bye`, protocol garbage, dead links,
    /// or sessions still unfinished at the wave deadline.
    pub failed: u64,
    /// Dial-to-`Bye` wall-clock latency of each *verified* session, in
    /// microseconds, in completion order.
    pub latencies_us: Vec<u64>,
}

impl WaveReport {
    /// The `p`-th percentile (0..=100) of the verified-session latencies,
    /// in microseconds. 0 when no session verified.
    #[must_use]
    pub fn latency_percentile(&self, p: u64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = (p.min(100) as usize * (sorted.len() - 1)) / 100;
        sorted[rank]
    }

    /// Fraction of dials shed with `Busy`, in [0, 1].
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.dialed == 0 {
            return 0.0;
        }
        self.shed as f64 / self.dialed as f64
    }
}

/// One in-flight client connection.
struct Client {
    nb: Box<dyn NbTransport>,
    sim: Arc<SimDevice>,
    dialed_at: Instant,
}

enum Verdict {
    Verified,
    Shed,
    Failed,
    StillRunning,
}

/// Feeds every buffered frame of one client through the one-shot prover
/// protocol: answer `AttReq`, tolerate `Reject` (the gateway's retry
/// budget is its business), stop on a verdict frame.
fn pump_client(client: &mut Client) -> Verdict {
    loop {
        let frame = match client.nb.try_recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Verdict::StillRunning,
            Err(_) => return Verdict::Failed,
        };
        match GatewayMsg::decode(&frame) {
            Ok(GatewayMsg::AttReq(raw)) => {
                let Some(reply) = client.sim.respond(&raw) else {
                    return Verdict::Failed;
                };
                if client
                    .nb
                    .enqueue_send(&GatewayMsg::AttResp(reply).encode())
                    .is_err()
                    || client.nb.flush().is_err()
                {
                    return Verdict::Failed;
                }
            }
            Ok(GatewayMsg::Busy) => return Verdict::Shed,
            Ok(GatewayMsg::Bye { verified }) => {
                return if verified {
                    Verdict::Verified
                } else {
                    Verdict::Failed
                }
            }
            Ok(GatewayMsg::Reject(_)) => {}
            Ok(_) | Err(_) => return Verdict::Failed,
        }
    }
}

/// Dials one connection per `(device_id, device)` pair and plays every
/// session concurrently from this thread's event loop until each reaches
/// a verdict or `deadline` passes. Unfinished sessions are booked as
/// failed — a scale gate wants loud truncation, not a hung harness.
#[must_use]
pub fn drive_oneshot_wave(
    connector: &LoopbackConnector,
    devices: &[(u64, Arc<SimDevice>)],
    deadline: Duration,
) -> WaveReport {
    let mut report = WaveReport {
        dialed: devices.len() as u64,
        ..WaveReport::default()
    };
    let mut poller = Poller::new().expect("create client poller");
    let mut clients: Vec<Option<Client>> = Vec::with_capacity(devices.len());
    let mut remaining = 0usize;

    for (slot, (device_id, sim)) in devices.iter().enumerate() {
        let dialed_at = Instant::now();
        let Ok(conn) = connector.connect() else {
            report.failed += 1;
            clients.push(None);
            continue;
        };
        let boxed: Box<dyn Transport> = Box::new(conn);
        let Ok(mut nb) = boxed.into_nb() else {
            report.failed += 1;
            clients.push(None);
            continue;
        };
        let notifier = poller
            .notifier(Token(slot))
            .expect("register client notifier");
        nb.attach_notifier(notifier);
        let mut client = Client {
            nb,
            sim: Arc::clone(sim),
            dialed_at,
        };
        let hello = GatewayMsg::Hello {
            device_id: *device_id,
        };
        if client.nb.enqueue_send(&hello.encode()).is_err() || client.nb.flush().is_err() {
            // A full gateway writes `Busy` and hangs up at accept, which
            // can beat the hello; the `Busy` frame is still readable.
            if matches!(pump_client(&mut client), Verdict::Shed) {
                report.shed += 1;
            } else {
                report.failed += 1;
            }
            clients.push(None);
            continue;
        }
        clients.push(Some(client));
        remaining += 1;
    }

    let started = Instant::now();
    let mut events = Events::with_capacity(1024);
    while remaining > 0 && started.elapsed() < deadline {
        let budget = deadline.saturating_sub(started.elapsed());
        let _ = poller.poll(&mut events, Some(budget.min(Duration::from_millis(50))));
        let ready: Vec<usize> = events.iter().map(|ev| ev.token.0).collect();
        for slot in ready {
            let Some(client) = clients.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let verdict = pump_client(client);
            match verdict {
                Verdict::StillRunning => {}
                Verdict::Verified => {
                    let us =
                        u64::try_from(client.dialed_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                    report.verified += 1;
                    report.latencies_us.push(us);
                    clients[slot] = None;
                    remaining -= 1;
                }
                Verdict::Shed => {
                    report.shed += 1;
                    clients[slot] = None;
                    remaining -= 1;
                }
                Verdict::Failed => {
                    report.failed += 1;
                    clients[slot] = None;
                    remaining -= 1;
                }
            }
        }
    }
    report.failed += remaining as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proverguard_attest::prover::ProverConfig;
    use proverguard_attest::verifier::Verifier;

    const KEY: [u8; 16] = [0x42; 16];

    fn sim_image() -> Vec<u8> {
        let mut image = vec![0u8; 64];
        for (i, byte) in image.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(31);
        }
        image
    }

    /// The whole point of SimDevice: its wire responses verify against a
    /// real Verifier expecting its image.
    #[test]
    fn sim_device_response_verifies() {
        let config = ProverConfig::recommended();
        let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
        let sim = SimDevice::new(&KEY, sim_image());

        for round in 0..3 {
            verifier.set_time_ms(round * 100);
            let request = verifier.make_request().expect("request");
            let raw = sim.respond(&request.to_bytes()).expect("responds");
            let response = AttestResponse::from_bytes(&raw).expect("parses");
            let mut expected = sim.image().to_vec();
            patch_expected_image(&mut expected, &request.freshness);
            assert!(
                verifier.check_response(&request, &response, &expected),
                "sim response must verify on round {round}"
            );
            verifier.note_verified(&request, &response, &expected);
        }
    }

    /// A tampered image no longer verifies: SimDevice is honest, not a
    /// universal forger.
    #[test]
    fn sim_device_bound_to_its_image() {
        let config = ProverConfig::recommended();
        let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
        let sim = SimDevice::new(&KEY, sim_image());

        let request = verifier.make_request().expect("request");
        let raw = sim.respond(&request.to_bytes()).expect("responds");
        let response = AttestResponse::from_bytes(&raw).expect("parses");
        let mut other = sim_image();
        other[40] ^= 0xff;
        patch_expected_image(&mut other, &request.freshness);
        assert!(
            !verifier.check_response(&request, &response, &other),
            "response must be bound to the presented image"
        );
    }

    #[test]
    fn wave_report_percentiles() {
        let report = WaveReport {
            dialed: 4,
            verified: 4,
            latencies_us: vec![40, 10, 30, 20],
            ..WaveReport::default()
        };
        assert_eq!(report.latency_percentile(0), 10);
        assert_eq!(report.latency_percentile(50), 20);
        assert_eq!(report.latency_percentile(100), 40);
        assert_eq!(WaveReport::default().latency_percentile(50), 0);
    }
}

//! Small-model exhaustion of the verifier's session state machine.
//!
//! [`SessionDriver`] is simple enough to model exactly: for a bounded
//! attempt budget we enumerate *every* script of per-attempt outcomes
//! and check the produced [`SessionReport`] against an independent
//! reference model — attempt counts, recorded outcomes, backoff values,
//! recovery-hook invocations and waited time all have to match on all
//! paths, not just the happy one. On top of the abstract model, three
//! concrete behaviours are pinned against real prover/verifier pairs:
//! freshness is never reissued across retries (no protocol state is
//! reachable twice with a different freshness value), `Busy`-style
//! rejects redial on the documented backoff schedule, and a clock-skewed
//! session heals through the `recover` resync hook.

use std::collections::HashMap;

use proverguard_attest::clock::ClockKind;
use proverguard_attest::error::RejectReason;
use proverguard_attest::freshness::FreshnessKind;
use proverguard_attest::message::FreshnessField;
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::session::{
    AttemptOutcome, RetryPolicy, SessionDriver, SessionLink, SessionReport,
};
use proverguard_attest::verifier::Verifier;

const KEY: [u8; 16] = [0x42; 16];

fn pair(config: &ProverConfig) -> (Prover, Verifier) {
    let prover = Prover::provision(config.clone(), &KEY, b"session model").expect("provision");
    let verifier = Verifier::new(config, &KEY).expect("verifier");
    (prover, verifier)
}

// ---- exhaustive abstract model --------------------------------------------

/// The outcome alphabet for the exhaustive sweep. `Success` terminates a
/// run; everything else burns an attempt.
fn outcome_for(digit: usize) -> AttemptOutcome {
    match digit {
        0 => AttemptOutcome::Success,
        1 => AttemptOutcome::RequestLost,
        2 => AttemptOutcome::ResponseLost,
        3 => AttemptOutcome::Rejected(RejectReason::Throttled),
        _ => AttemptOutcome::BadResponse,
    }
}

/// Replays a fixed script of outcomes and records what the driver did to
/// the link.
struct ScriptedLink {
    script: Vec<AttemptOutcome>,
    attempts: usize,
    waited: u64,
    recoveries: Vec<AttemptOutcome>,
}

impl SessionLink for ScriptedLink {
    fn attempt(&mut self, _timeout_ms: u64) -> AttemptOutcome {
        let outcome = self.script[self.attempts].clone();
        self.attempts += 1;
        outcome
    }
    fn wait_ms(&mut self, ms: u64) {
        self.waited += ms;
    }
    fn recover(&mut self, failed: &AttemptOutcome) {
        self.recoveries.push(failed.clone());
    }
}

/// The reference model: what the report for `script` under `policy` must
/// look like, computed independently of the driver's control flow.
fn model_report(policy: &RetryPolicy, script: &[AttemptOutcome]) -> SessionReport {
    let total = policy.max_retries + 1;
    let mut report = SessionReport::default();
    for attempt in 1..=total {
        let outcome = script[(attempt - 1) as usize].clone();
        let success = outcome.is_success();
        let last = success || attempt == total;
        report
            .attempts
            .push(proverguard_attest::session::AttemptRecord {
                attempt,
                outcome,
                backoff_ms: if last { 0 } else { policy.backoff_ms(attempt) },
            });
        if success {
            break;
        }
    }
    report
}

#[test]
fn exhaustive_scripts_match_the_reference_model() {
    // Two policies: the no-jitter schedule and a jittered one — the model
    // uses `policy.backoff_ms` itself, so this also pins "the driver waits
    // exactly the jittered value it reports".
    let policies = [
        RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        },
        RetryPolicy {
            max_retries: 3,
            jitter_per_mille: 400,
            jitter_seed: 0x005E_5510,
            ..RetryPolicy::default()
        },
    ];
    for policy in policies {
        let total = (policy.max_retries + 1) as usize;
        let alphabet = 5usize;
        // Every base-5 script of length `total`: 625 runs per policy.
        for code in 0..alphabet.pow(total as u32) {
            let mut digits = code;
            let script: Vec<AttemptOutcome> = (0..total)
                .map(|_| {
                    let d = digits % alphabet;
                    digits /= alphabet;
                    outcome_for(d)
                })
                .collect();

            let mut link = ScriptedLink {
                script: script.clone(),
                attempts: 0,
                waited: 0,
                recoveries: Vec::new(),
            };
            let report = SessionDriver::new(policy).run(&mut link);
            let expected = model_report(&policy, &script);
            assert_eq!(report, expected, "script {script:?}");

            // The link saw exactly as many attempts as the report claims,
            // waited exactly the recorded backoff, and was recovered once
            // per failed non-final attempt — with that attempt's outcome.
            assert_eq!(link.attempts as u32, report.attempt_count());
            assert_eq!(link.waited, report.total_backoff_ms());
            let failed_nonfinal: Vec<AttemptOutcome> = report
                .attempts
                .iter()
                .filter(|a| !a.outcome.is_success() && (a.attempt as usize) < report.attempts.len())
                .map(|a| a.outcome.clone())
                .collect();
            assert_eq!(link.recoveries, failed_nonfinal, "script {script:?}");

            // Attempt numbers are unique and strictly increasing: no
            // state is visited twice.
            for (i, a) in report.attempts.iter().enumerate() {
                assert_eq!(a.attempt as usize, i + 1);
            }
            // Success appears only as the final record.
            for a in &report.attempts[..report.attempts.len().saturating_sub(1)] {
                assert!(!a.outcome.is_success());
            }
            assert_eq!(
                report.succeeded(),
                report
                    .attempts
                    .last()
                    .is_some_and(|a| a.outcome.is_success())
            );
        }
    }
}

// ---- jitter bounds --------------------------------------------------------

#[test]
fn jitter_per_mille_stays_within_documented_bounds() {
    // The docs promise: deterministic in (seed, attempt), centred on the
    // un-jittered value, capped at ±100 %, result within [0, 2 × backoff].
    let bases: [u64; 4] = [0, 1, 100, u64::MAX];
    let jitters: [u16; 6] = [0, 1, 250, 999, 1000, u16::MAX];
    let factors: [u32; 3] = [1, 2, 3];
    for base in bases {
        for factor in factors {
            let flat = RetryPolicy {
                backoff_base_ms: base,
                backoff_factor: factor,
                jitter_per_mille: 0,
                ..RetryPolicy::default()
            };
            for jitter in jitters {
                for seed in [0u64, 0xDEAD_BEEF, u64::MAX] {
                    let policy = RetryPolicy {
                        jitter_per_mille: jitter,
                        jitter_seed: seed,
                        ..flat
                    };
                    for attempt in 1..=10u32 {
                        let unjittered = flat.backoff_ms(attempt);
                        let jittered = policy.backoff_ms(attempt);
                        // Deterministic.
                        assert_eq!(jittered, policy.backoff_ms(attempt));
                        // Amplitude is capped at 1000 ‰ even if the field
                        // holds a larger value.
                        let eff = u128::from(jitter.min(1000));
                        let span = ((u128::from(unjittered) * eff) / 1000) as u64;
                        let lo = unjittered.saturating_sub(span);
                        let hi = unjittered.saturating_add(span);
                        assert!(
                            (lo..=hi).contains(&jittered),
                            "base {base} factor {factor} jitter {jitter} seed {seed} \
                             attempt {attempt}: {jittered} outside [{lo}, {hi}]"
                        );
                        // Never more than twice the un-jittered backoff.
                        assert!(jittered <= unjittered.saturating_mul(2));
                    }
                }
            }
        }
    }
}

// ---- freshness uniqueness over a real pair --------------------------------

/// A link over a real prover/verifier that drops requests or responses
/// according to a script, recording every freshness value the verifier
/// ever put on the wire.
struct LossyLink<'a> {
    verifier: &'a mut Verifier,
    prover: &'a mut Prover,
    /// Per-attempt fate: 0 = deliver, 1 = drop request, 2 = drop response.
    script: Vec<u8>,
    cursor: usize,
    issued: Vec<u64>,
}

impl SessionLink for LossyLink<'_> {
    fn attempt(&mut self, _timeout_ms: u64) -> AttemptOutcome {
        let fate = self.script[self.cursor % self.script.len()];
        self.cursor += 1;
        let request = match self.verifier.make_request() {
            Ok(r) => r,
            Err(e) => return AttemptOutcome::Error(e),
        };
        let FreshnessField::Counter(c) = request.freshness else {
            panic!("counter policy issues counters");
        };
        self.issued.push(c);
        if fate == 1 {
            return AttemptOutcome::RequestLost;
        }
        let response = match self.prover.handle_request(&request) {
            Ok(r) => r,
            Err(e) => {
                return match e.reject_reason() {
                    Some(reason) => AttemptOutcome::Rejected(reason),
                    None => AttemptOutcome::Error(e),
                }
            }
        };
        if fate == 2 {
            return AttemptOutcome::ResponseLost;
        }
        if self
            .verifier
            .check_response(&request, &response, self.prover.expected_memory())
        {
            AttemptOutcome::Success
        } else {
            AttemptOutcome::BadResponse
        }
    }
    fn wait_ms(&mut self, ms: u64) {
        let _ = self.prover.advance_time_ms(ms);
        self.verifier.advance_time_ms(ms);
    }
}

#[test]
fn no_freshness_value_is_ever_reissued_across_retries() {
    // Every loss pattern of length 3 over {deliver, drop-request,
    // drop-response}, driven to completion. Across ALL attempts of ALL
    // sessions the verifier must never reuse a counter, and each counter
    // must be observed in exactly one protocol state.
    let config = ProverConfig::recommended();
    let (mut prover, mut verifier) = pair(&config);
    let driver = SessionDriver::new(RetryPolicy {
        max_retries: 4,
        backoff_base_ms: 1,
        ..RetryPolicy::default()
    });

    let mut all_issued: Vec<u64> = Vec::new();
    // counter -> prover's accepted-count at issuance. A freshness value
    // observed again (same or different state) is a protocol break.
    let mut state_at_issue: HashMap<u64, u64> = HashMap::new();

    for code in 0..27u32 {
        let script = vec![
            (code % 3) as u8,
            ((code / 3) % 3) as u8,
            ((code / 9) % 3) as u8,
        ];
        let mut link = LossyLink {
            verifier: &mut verifier,
            prover: &mut prover,
            script,
            cursor: 0,
            issued: Vec::new(),
        };
        let report = driver.run(&mut link);
        let issued = link.issued;
        assert_eq!(issued.len() as u32, report.attempt_count());
        for &c in &issued {
            let state = prover.stats().accepted;
            assert!(
                state_at_issue.insert(c, state).is_none(),
                "freshness counter {c} issued twice"
            );
        }
        all_issued.extend(issued);
    }

    // Strictly monotonic across the whole history — retries always burn a
    // fresh counter, they never re-offer a stale one.
    assert!(all_issued.windows(2).all(|w| w[0] < w[1]));

    // And the prover enforces the same thing: replaying the last delivered
    // request is rejected, so no accepted state is reachable twice.
    let replay = verifier.make_request().expect("request");
    prover.handle_request(&replay).expect("accepted");
    let err = prover.handle_request(&replay).expect_err("replay rejected");
    assert_eq!(err.reject_reason(), Some(RejectReason::StaleCounter));
}

// ---- Busy-style redial ----------------------------------------------------

/// A link that sheds with `Rejected(Throttled)` — the session-level
/// equivalent of the gateway's `Busy` frame — until it has been redialled
/// (`recover`ed) `busy_for` times.
struct BusyLink {
    busy_for: u32,
    redials: u32,
    waited: u64,
}

impl SessionLink for BusyLink {
    fn attempt(&mut self, _timeout_ms: u64) -> AttemptOutcome {
        if self.redials < self.busy_for {
            AttemptOutcome::Rejected(RejectReason::Throttled)
        } else {
            AttemptOutcome::Success
        }
    }
    fn wait_ms(&mut self, ms: u64) {
        self.waited += ms;
    }
    fn recover(&mut self, failed: &AttemptOutcome) {
        assert_eq!(
            failed,
            &AttemptOutcome::Rejected(RejectReason::Throttled),
            "only Busy shedding reaches this link's recovery"
        );
        self.redials += 1;
    }
}

#[test]
fn busy_shedding_redials_on_the_documented_schedule() {
    let policy = RetryPolicy {
        max_retries: 4,
        ..RetryPolicy::default()
    };
    for busy_for in 0..=policy.max_retries {
        let mut link = BusyLink {
            busy_for,
            redials: 0,
            waited: 0,
        };
        let report = SessionDriver::new(policy).run(&mut link);
        assert!(report.succeeded(), "busy_for {busy_for}");
        assert_eq!(report.attempt_count(), busy_for + 1);
        let expected_wait: u64 = (1..=busy_for).map(|a| policy.backoff_ms(a)).sum();
        assert_eq!(link.waited, expected_wait);
        assert_eq!(report.total_backoff_ms(), expected_wait);
    }
    // A gateway that never stops shedding exhausts the budget.
    let mut link = BusyLink {
        busy_for: u32::MAX,
        redials: 0,
        waited: 0,
    };
    let report = SessionDriver::new(policy).run(&mut link);
    assert!(!report.succeeded());
    assert_eq!(report.attempt_count(), policy.max_retries + 1);
}

// ---- resync through the recovery hook -------------------------------------

/// A timestamp-freshness link whose prover has drifted out of the
/// acceptance window; `recover` performs the clock-sync handshake, after
/// which the session must heal.
struct SkewedLink<'a> {
    verifier: &'a mut Verifier,
    prover: &'a mut Prover,
    resyncs: u32,
}

impl SessionLink for SkewedLink<'_> {
    fn attempt(&mut self, _timeout_ms: u64) -> AttemptOutcome {
        let request = match self.verifier.make_request() {
            Ok(r) => r,
            Err(e) => return AttemptOutcome::Error(e),
        };
        let response = match self.prover.handle_request(&request) {
            Ok(r) => r,
            Err(e) => {
                return match e.reject_reason() {
                    Some(reason) => AttemptOutcome::Rejected(reason),
                    None => AttemptOutcome::Error(e),
                }
            }
        };
        if self
            .verifier
            .check_response(&request, &response, self.prover.expected_memory())
        {
            AttemptOutcome::Success
        } else {
            AttemptOutcome::BadResponse
        }
    }
    fn wait_ms(&mut self, ms: u64) {
        let _ = self.prover.advance_time_ms(ms);
        self.verifier.advance_time_ms(ms);
    }
    fn recover(&mut self, failed: &AttemptOutcome) {
        // A timestamp reject is the signature of clock drift (e.g. a
        // reboot that lost the synced offset): run the sync handshake.
        if matches!(
            failed,
            AttemptOutcome::Rejected(RejectReason::TimestampOutOfWindow)
        ) {
            let sync = self.verifier.make_sync_request();
            self.prover.handle_sync(&sync).expect("sync accepted");
            self.resyncs += 1;
        }
    }
}

#[test]
fn clock_skew_heals_through_the_resync_recovery_hook() {
    let config = ProverConfig {
        freshness: FreshnessKind::Timestamp,
        clock: ClockKind::Hw64,
        ..ProverConfig::recommended()
    };
    let (mut prover, mut verifier) = pair(&config);
    // Both start aligned; then the verifier races 5 s ahead — far outside
    // the 500 ms acceptance window.
    prover.advance_time_ms(1_000).expect("advance");
    verifier.advance_time_ms(6_000);

    let mut link = SkewedLink {
        verifier: &mut verifier,
        prover: &mut prover,
        resyncs: 0,
    };
    let report = SessionDriver::new(RetryPolicy {
        max_retries: 2,
        backoff_base_ms: 10,
        ..RetryPolicy::default()
    })
    .run(&mut link);

    // Attempt 1 is rejected out-of-window, the recovery hook resyncs, and
    // attempt 2 succeeds — exactly one resync, exactly two attempts.
    assert!(report.succeeded(), "{report:?}");
    assert_eq!(report.attempt_count(), 2);
    assert_eq!(link.resyncs, 1);
    assert_eq!(
        report.attempts[0].outcome,
        AttemptOutcome::Rejected(RejectReason::TimestampOutOfWindow)
    );
}

// ---------------------------------------------------------------------------
// Secure-session lifecycle over a live gateway: handshake → sealed rounds
// → lockstep rekey → idle expiry → transparent re-handshake — and a
// mid-session reboot that resumes safely because the sealed freshness
// record survives the power cycle while the session keys do not.
// ---------------------------------------------------------------------------

mod secure_session_lifecycle {
    use std::time::Duration;

    use proverguard_attest::gateway::{
        AgentOutcome, DeviceDirectory, Gateway, GatewayConfig, GatewayHandle, GatewayMsg,
        ProverAgent,
    };
    use proverguard_attest::persist::RecoveryOutcome;
    use proverguard_attest::prover::{Prover, ProverConfig};
    use proverguard_attest::session::RetryPolicy;
    use proverguard_attest::verifier::{ScopePolicy, Verifier};
    use proverguard_attest::RejectReason;
    use proverguard_transport::frame::DEFAULT_MAX_FRAME;
    use proverguard_transport::mem::{loopback_pair, LoopbackConnector};
    use proverguard_transport::Transport;

    use super::KEY;

    const IO: Duration = Duration::from_secs(30);

    fn session_world(config: GatewayConfig) -> (GatewayHandle, LoopbackConnector, ProverAgent) {
        let pconfig = ProverConfig::recommended_segmented();
        let (hub, connector) = proverguard_transport::mem::LoopbackHub::new(DEFAULT_MAX_FRAME);
        let prover = Prover::provision(pconfig.clone(), &KEY, b"session model").expect("provision");
        let mut verifier = Verifier::new(&pconfig, &KEY).expect("verifier");
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
        let mut directory = DeviceDirectory::new();
        let device_id = directory.register(verifier, prover.expected_memory().to_vec());
        let handle = Gateway::start(Box::new(hub), directory, config);
        (
            handle,
            connector,
            ProverAgent::with_sessions(prover, device_id),
        )
    }

    fn dial(connector: &LoopbackConnector, agent: &mut ProverAgent) -> AgentOutcome {
        let mut conn = connector.connect().expect("connect");
        agent.run_session(&mut conn, IO)
    }

    /// The full happy-path lifecycle plus the idle-expiry edge: every
    /// state transition the session machine has, in order.
    #[test]
    fn lifecycle_handshake_rounds_rekey_expiry_rehandshake() {
        let (handle, connector, mut agent) = session_world(GatewayConfig {
            read_timeout_ms: 10_000,
            rekey_after_rounds: 2,
            session_idle_ms: 250,
            ..GatewayConfig::default()
        });

        // Handshake: no session → attested handshake → session live.
        assert!(agent.session_id().is_none());
        assert!(dial(&connector, &mut agent).is_verified());
        let sid = agent.session_id().expect("session established");

        // Rounds: sealed, session id stable; cadence 2 → first rekey
        // after round 2, visible as the channel epoch advancing.
        for round in 1..=2 {
            assert!(dial(&connector, &mut agent).is_verified(), "round {round}");
            assert_eq!(agent.session_id(), Some(sid));
        }
        let chan = agent.take_session().expect("live channel");
        assert_eq!(chan.epoch(), 1, "2 rounds at cadence 2 → 1 ratchet");
        agent.install_session(chan);

        // Expiry: outlive the idle window; the resume dial is bounced
        // with SessionExpired and the agent drops its local state.
        std::thread::sleep(Duration::from_millis(450));
        assert_eq!(dial(&connector, &mut agent), AgentOutcome::SessionExpired);
        assert!(
            agent.session_id().is_none(),
            "agent dropped expired session"
        );

        // Re-handshake: the retry wrapper converges transparently.
        let outcome = agent.attest_with_retry(
            || {
                connector
                    .connect()
                    .map(|c| Box::new(c) as Box<dyn Transport>)
            },
            &RetryPolicy::default(),
            IO,
            50,
        );
        assert!(outcome.is_verified(), "{outcome:?}");
        let sid2 = agent.session_id().expect("fresh session");
        assert_ne!(sid2, sid, "expired session id is never resumed");

        let report = handle.shutdown();
        assert!(report.stats.sessions_expired >= 1, "{:?}", report.stats);
        assert!(report.stats.session_partition_holds(), "{:?}", report.stats);
        assert!(report.stats.partition_holds(), "{:?}", report.stats);
    }

    /// A power cycle mid-session: the volatile channel keys are gone but
    /// the sealed freshness record is restored from NV, so the forced
    /// re-handshake presents a *monotonic* counter and verifies — the
    /// reboot can neither be replayed into nor used to roll freshness
    /// back.
    #[test]
    fn mid_session_reboot_resumes_via_sealed_freshness_record() {
        let (handle, connector, mut agent) = session_world(GatewayConfig {
            read_timeout_ms: 10_000,
            ..GatewayConfig::default()
        });
        agent
            .prover_mut()
            .attach_nv_store(Box::new(proverguard_attest::persist::InMemoryNvStore::new()))
            .expect("attach store");

        assert!(dial(&connector, &mut agent).is_verified());
        assert!(dial(&connector, &mut agent).is_verified());
        let sid = agent.session_id().expect("session live");

        let recovery = agent.reboot().expect("reboot");
        assert!(
            matches!(recovery, RecoveryOutcome::Restored(_)),
            "sealed freshness record must survive the power cycle: {recovery:?}"
        );
        assert!(agent.session_id().is_none(), "session keys are volatile");

        // The rebooted device converges on a *new* session; if the
        // freshness record had been lost, this full attest would be shed
        // as a stale counter.
        let outcome = agent.attest_with_retry(
            || {
                connector
                    .connect()
                    .map(|c| Box::new(c) as Box<dyn Transport>)
            },
            &RetryPolicy::default(),
            IO,
            50,
        );
        assert!(outcome.is_verified(), "{outcome:?}");
        assert_ne!(agent.session_id(), Some(sid));

        let report = handle.shutdown();
        // The pre-reboot session was replaced at the table (evicted).
        assert!(report.stats.sessions_evicted >= 1, "{:?}", report.stats);
        assert!(report.stats.session_partition_holds(), "{:?}", report.stats);
    }

    /// Downgrade defence on the agent side: a session-mode device never
    /// answers a bare (unsealed) attestation request — the state machine
    /// refuses before the prover pipeline is reachable.
    #[test]
    fn session_mode_agent_refuses_bare_requests() {
        let pconfig = ProverConfig::recommended_segmented();
        let prover = Prover::provision(pconfig, &KEY, b"session model").expect("provision");
        let mut agent = ProverAgent::with_sessions(prover, 0);

        let (mut gateway_end, mut agent_end) = loopback_pair(DEFAULT_MAX_FRAME);
        // A man-in-the-middle "gateway" that skips the handshake and
        // asks one-shot style, hoping for an unauthenticated answer.
        gateway_end
            .send(&GatewayMsg::AttReq(vec![1, 2, 3]).encode())
            .expect("send");
        let requests_before = agent.prover().stats().requests_seen;
        let outcome = agent.run_session(&mut agent_end, Duration::from_millis(500));
        assert_eq!(outcome, AgentOutcome::ProtocolError);
        assert_eq!(
            agent.prover().stats().requests_seen,
            requests_before,
            "bare request must not reach the pipeline"
        );

        gateway_end
            .set_deadline(Some(Duration::from_millis(500)))
            .expect("deadline");
        let hello = gateway_end.recv().expect("agent's hello");
        assert!(matches!(
            GatewayMsg::decode(&hello),
            Ok(GatewayMsg::SessHello { .. })
        ));
        let verdict = gateway_end.recv().expect("agent's refusal");
        assert_eq!(
            GatewayMsg::decode(&verdict).ok(),
            Some(GatewayMsg::Reject(RejectReason::SessionAuth))
        );
    }
}

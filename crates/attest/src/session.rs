//! Verifier-side session driving: timeouts, bounded retries, backoff.
//!
//! The paper's verifier fires one request and waits ~754 ms for the
//! memory MAC. Over a real (lossy) link that is not a protocol: requests
//! drop, responses drop, and the prover may reboot mid-session. The
//! [`SessionDriver`] turns one *logical* attestation into a bounded retry
//! loop with exponential backoff, recording what happened on every
//! attempt so experiments can grade a channel, not just a run.
//!
//! The transport is abstracted behind [`SessionLink`]: [`DirectLink`]
//! wires a verifier straight to a prover (lossless), while the adversary
//! crate's fault injector implements the same trait over a faulty channel.

use crate::error::{AttestError, RejectReason};
use crate::message::AttestResponse;
use crate::prover::Prover;
use crate::verifier::Verifier;

/// Retry/backoff configuration for one attestation session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long (prover/verifier simulated ms) one attempt may take
    /// before it is declared lost.
    pub timeout_ms: u64,
    /// Retries after the first attempt (total attempts = `max_retries`
    /// + 1).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base_ms: u64,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: u32,
    /// Deterministic jitter amplitude in ‰ of the computed backoff
    /// (0 = no jitter, 1000 = ±100 %). When many sessions share one
    /// gateway, un-jittered exponential backoff synchronizes their
    /// retries into periodic thundering herds; jitter decorrelates them.
    /// Capped at 1000 ‰.
    pub jitter_per_mille: u16,
    /// Seed for the jitter schedule. Same seed + same attempt number =
    /// same jitter, so experiments stay reproducible; concurrent sessions
    /// get distinct seeds (e.g. their device id) to decorrelate.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_ms: 1000,
            max_retries: 5,
            backoff_base_ms: 100,
            backoff_factor: 2,
            jitter_per_mille: 0,
            jitter_seed: 0,
        }
    }
}

/// SplitMix64 finalizer — the jitter's deterministic "randomness".
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Backoff to wait after failed attempt number `attempt` (1-based):
    /// `base * factor^(attempt-1)`, saturating, then jittered by up to
    /// ±`jitter_per_mille` ‰ of that value. The exponent is capped at
    /// 63: any factor ≥ 2 has saturated every u64 base by then, and the
    /// cap keeps absurd attempt counts from ever wrapping the arithmetic.
    /// The jitter is a pure function of `(jitter_seed, attempt)`, centred
    /// on the un-jittered value and hard-capped at ±100 %, so the result
    /// stays within `[0, 2 × backoff]`.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        let exp = u64::from(self.backoff_factor).saturating_pow(shift);
        let base = self.backoff_base_ms.saturating_mul(exp);
        let jitter = u64::from(self.jitter_per_mille.min(1000));
        if jitter == 0 || base == 0 {
            return base;
        }
        let span = ((u128::from(base) * u128::from(jitter)) / 1000) as u64;
        if span == 0 {
            return base;
        }
        let roll = splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9))
            % (span.saturating_mul(2).saturating_add(1));
        base.saturating_sub(span).saturating_add(roll)
    }
}

/// What one attempt did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// A valid response arrived and verified.
    Success,
    /// The request never reached the prover (or timed out on the way).
    RequestLost,
    /// The prover answered but the response never arrived in time.
    ResponseLost,
    /// The prover actively rejected the request.
    Rejected(RejectReason),
    /// A response arrived but failed verification (corrupt or forged).
    BadResponse,
    /// The attempt died on an internal error.
    Error(AttestError),
}

impl AttemptOutcome {
    /// `true` iff the attempt succeeded.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, AttemptOutcome::Success)
    }
}

/// One attempt's entry in the session report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// What happened.
    pub outcome: AttemptOutcome,
    /// Backoff waited *after* this attempt (0 for the last one).
    pub backoff_ms: u64,
}

/// Everything a driven session did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionReport {
    /// Per-attempt outcomes, in order.
    pub attempts: Vec<AttemptRecord>,
}

impl SessionReport {
    /// `true` iff the final attempt succeeded.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.attempts.last().is_some_and(|a| a.outcome.is_success())
    }

    /// Number of attempts made.
    #[must_use]
    pub fn attempt_count(&self) -> u32 {
        self.attempts.len() as u32
    }

    /// Total backoff time spent waiting between attempts, saturating: a
    /// session whose per-attempt backoffs saturated must not overflow the
    /// sum (a plain `sum()` would panic in debug builds).
    #[must_use]
    pub fn total_backoff_ms(&self) -> u64 {
        self.attempts
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.backoff_ms))
    }
}

/// A transport that can run one attestation attempt end to end.
pub trait SessionLink {
    /// Runs one attempt with the given timeout and says what happened.
    fn attempt(&mut self, timeout_ms: u64) -> AttemptOutcome;

    /// Lets `ms` of simulated time pass on both ends (backoff).
    fn wait_ms(&mut self, ms: u64);

    /// Hook run after a failed attempt, before the backoff — e.g. resync
    /// the prover's clock after a suspected reboot. Default: nothing.
    fn recover(&mut self, _failed: &AttemptOutcome) {}
}

/// What a [`DriverCursor`] wants next after recording an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverStep {
    /// The session is complete (success or retry budget exhausted); the
    /// report is final.
    Done,
    /// Run the link's recovery hook, emit the `session.backoff` trace
    /// event, let `backoff_ms` pass, then run the next attempt.
    Retry {
        /// Backoff before the next attempt (already jittered).
        backoff_ms: u64,
    },
}

/// The retry loop of [`SessionDriver::run`] as a pure continuation.
///
/// [`SessionDriver::run`] parks its thread across attempt → backoff →
/// retry; the event-driven gateway instead holds thousands of these
/// cursors and advances each one when its connection's I/O or timer
/// fires: run an attempt however the I/O layer likes,
/// [`DriverCursor::record`] the outcome, and either finish or arm a
/// `backoff_ms` timer and come back. `SessionDriver` and the gateway
/// share this state machine, so retry accounting, budget enforcement and
/// telemetry stay identical by construction.
#[derive(Debug, Clone)]
pub struct DriverCursor {
    policy: RetryPolicy,
    report: SessionReport,
    next_attempt: u32,
    done: bool,
}

impl DriverCursor {
    /// A cursor at attempt 1 with an empty report.
    #[must_use]
    pub fn new(policy: RetryPolicy) -> Self {
        DriverCursor {
            policy,
            report: SessionReport::default(),
            next_attempt: 1,
            done: false,
        }
    }

    /// 1-based number of the attempt currently in flight.
    #[must_use]
    pub fn attempt_number(&self) -> u32 {
        self.next_attempt
    }

    /// The per-attempt timeout the in-flight attempt should use.
    #[must_use]
    pub fn timeout_ms(&self) -> u64 {
        self.policy.timeout_ms
    }

    /// True once [`DriverStep::Done`] has been returned.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The report accumulated so far.
    #[must_use]
    pub fn report(&self) -> &SessionReport {
        &self.report
    }

    /// Consumes the cursor into its final report.
    #[must_use]
    pub fn into_report(self) -> SessionReport {
        self.report
    }

    /// Records the outcome of the in-flight attempt and says what to do
    /// next. Emits the same telemetry the blocking loop always has:
    /// `session.attempt_failed` + `session.retries` before a retry, the
    /// `session.success`/`session.failure` counters and the
    /// `session.attempts` histogram when the session completes. (The
    /// `session.backoff` trace event is the caller's, emitted between
    /// recovery and the wait — see [`DriverStep::Retry`].)
    ///
    /// # Panics
    ///
    /// Panics if called again after [`DriverStep::Done`].
    pub fn record(&mut self, outcome: AttemptOutcome) -> DriverStep {
        use proverguard_telemetry::{metrics, trace};
        assert!(!self.done, "session already complete");
        let attempt = self.next_attempt;
        let total = self.policy.max_retries + 1;
        let success = outcome.is_success();
        let last = success || attempt >= total;
        let backoff_ms = if last {
            0
        } else {
            self.policy.backoff_ms(attempt)
        };
        if !last {
            trace::event_with("session.attempt_failed", u64::from(attempt));
            metrics::counter_add("session.retries", 1);
        }
        self.report.attempts.push(AttemptRecord {
            attempt,
            outcome,
            backoff_ms,
        });
        if last {
            self.done = true;
            metrics::counter_add(
                if self.report.succeeded() {
                    "session.success"
                } else {
                    "session.failure"
                },
                1,
            );
            metrics::histogram_record("session.attempts", u64::from(self.report.attempt_count()));
            DriverStep::Done
        } else {
            self.next_attempt = attempt + 1;
            DriverStep::Retry { backoff_ms }
        }
    }
}

/// Drives sessions according to a [`RetryPolicy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionDriver {
    /// The policy applied to every run.
    pub policy: RetryPolicy,
}

impl SessionDriver {
    /// A driver with the given policy.
    #[must_use]
    pub fn new(policy: RetryPolicy) -> Self {
        SessionDriver { policy }
    }

    /// Runs one logical attestation over `link`: up to `max_retries + 1`
    /// attempts, exponential backoff between them, recovery hook after
    /// each failure. This is the blocking shell around [`DriverCursor`];
    /// the event-driven gateway advances the same cursor from its poll
    /// loop instead.
    pub fn run(&self, link: &mut dyn SessionLink) -> SessionReport {
        use proverguard_telemetry::trace;
        let mut cursor = DriverCursor::new(self.policy);
        loop {
            let outcome = link.attempt(cursor.timeout_ms());
            match cursor.record(outcome) {
                DriverStep::Done => return cursor.into_report(),
                DriverStep::Retry { backoff_ms } => {
                    let failed = &cursor
                        .report()
                        .attempts
                        .last()
                        .expect("retry implies a recorded attempt")
                        .outcome
                        .clone();
                    link.recover(failed);
                    trace::event_with("session.backoff", backoff_ms);
                    link.wait_ms(backoff_ms);
                }
            }
        }
    }
}

/// The lossless reference link: verifier and prover wired back to back,
/// requests delivered as wire bytes through
/// [`Prover::handle_wire_request`].
#[derive(Debug)]
pub struct DirectLink<'a> {
    verifier: &'a mut Verifier,
    prover: &'a mut Prover,
}

impl<'a> DirectLink<'a> {
    /// Wires a verifier to a prover.
    pub fn new(verifier: &'a mut Verifier, prover: &'a mut Prover) -> Self {
        DirectLink { verifier, prover }
    }
}

impl SessionLink for DirectLink<'_> {
    fn attempt(&mut self, _timeout_ms: u64) -> AttemptOutcome {
        let request = match self.verifier.make_request() {
            Ok(r) => r,
            Err(e) => return AttemptOutcome::Error(e),
        };
        let wire = match self.prover.handle_wire_request(&request.to_bytes()) {
            Ok(bytes) => bytes,
            Err(AttestError::Rejected(reason)) => {
                self.verifier.note_failed(&request);
                return AttemptOutcome::Rejected(reason);
            }
            Err(e) => return AttemptOutcome::Error(e),
        };
        // The prover's compute time passes for the verifier too.
        let elapsed_ms = self.prover.last_cost().total_ms().ceil() as u64;
        self.verifier.advance_time_ms(elapsed_ms);
        let Ok(response) = AttestResponse::from_bytes(&wire) else {
            self.verifier.note_failed(&request);
            return AttemptOutcome::BadResponse;
        };
        let expected = self.prover.expected_memory().to_vec();
        if self.verifier.check_response(&request, &response, &expected) {
            self.verifier.note_verified(&request, &response, &expected);
            AttemptOutcome::Success
        } else {
            self.verifier.note_failed(&request);
            AttemptOutcome::BadResponse
        }
    }

    fn wait_ms(&mut self, ms: u64) {
        let _ = self.prover.advance_time_ms(ms);
        self.verifier.advance_time_ms(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::ProverConfig;

    const KEY: [u8; 16] = [0x42; 16];

    fn pair(config: ProverConfig) -> (Prover, Verifier) {
        let prover = Prover::provision(config.clone(), &KEY, b"app v1").unwrap();
        let verifier = Verifier::new(&config, &KEY).unwrap();
        (prover, verifier)
    }

    #[test]
    fn direct_link_succeeds_first_attempt() {
        let (mut prover, mut verifier) = pair(ProverConfig::recommended());
        let mut link = DirectLink::new(&mut verifier, &mut prover);
        let report = SessionDriver::default().run(&mut link);
        assert!(report.succeeded());
        assert_eq!(report.attempt_count(), 1);
        assert_eq!(report.total_backoff_ms(), 0);
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ms(1), 100);
        assert_eq!(policy.backoff_ms(2), 200);
        assert_eq!(policy.backoff_ms(3), 400);
        // Saturates instead of overflowing.
        assert_eq!(
            RetryPolicy {
                backoff_base_ms: u64::MAX,
                ..policy
            }
            .backoff_ms(5),
            u64::MAX
        );
        // Huge attempt numbers hit the exponent cap, not a wrap or a
        // pathological pow.
        assert_eq!(policy.backoff_ms(u32::MAX), policy.backoff_ms(64));
        assert_eq!(policy.backoff_ms(200), u64::MAX);
        // A factor-1 schedule stays flat no matter the attempt count.
        let flat = RetryPolicy {
            backoff_factor: 1,
            ..policy
        };
        assert_eq!(flat.backoff_ms(u32::MAX), flat.backoff_base_ms);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_decorrelating() {
        let policy = RetryPolicy {
            jitter_per_mille: 300,
            jitter_seed: 0xFEED,
            ..RetryPolicy::default()
        };
        // Deterministic: the same (seed, attempt) gives the same backoff.
        for attempt in 1..=8 {
            assert_eq!(policy.backoff_ms(attempt), policy.backoff_ms(attempt));
        }
        // Bounded: within ±30 % of the un-jittered schedule.
        let flat = RetryPolicy::default();
        for attempt in 1..=8 {
            let base = flat.backoff_ms(attempt);
            let jittered = policy.backoff_ms(attempt);
            let span = base * 300 / 1000;
            assert!(
                (base - span..=base + span).contains(&jittered),
                "attempt {attempt}: {jittered} outside {base}±{span}"
            );
        }
        // Decorrelating: two sessions with different seeds must not share
        // a whole schedule (else they'd still herd).
        let other = RetryPolicy {
            jitter_seed: 0xBEEF,
            ..policy
        };
        assert!(
            (1..=8).any(|a| policy.backoff_ms(a) != other.backoff_ms(a)),
            "distinct seeds produced identical schedules"
        );
        // Zero jitter reproduces the legacy schedule exactly.
        let none = RetryPolicy {
            jitter_per_mille: 0,
            ..policy
        };
        for attempt in 1..=8 {
            assert_eq!(none.backoff_ms(attempt), flat.backoff_ms(attempt));
        }
        // Saturated base stays saturated, never wraps.
        let huge = RetryPolicy {
            backoff_base_ms: u64::MAX,
            jitter_per_mille: 1000,
            ..policy
        };
        let _ = huge.backoff_ms(5); // must not panic
    }

    #[test]
    fn total_backoff_saturates_instead_of_overflowing() {
        let mut report = SessionReport::default();
        for attempt in 1..=3 {
            report.attempts.push(AttemptRecord {
                attempt,
                outcome: AttemptOutcome::RequestLost,
                backoff_ms: u64::MAX / 2 + 1,
            });
        }
        assert_eq!(report.total_backoff_ms(), u64::MAX);
    }

    /// A link that fails `fail_first` times, then succeeds.
    struct FlakyLink {
        fail_first: u32,
        attempts: u32,
        waited: u64,
        recoveries: u32,
    }

    impl SessionLink for FlakyLink {
        fn attempt(&mut self, _timeout_ms: u64) -> AttemptOutcome {
            self.attempts += 1;
            if self.attempts <= self.fail_first {
                AttemptOutcome::RequestLost
            } else {
                AttemptOutcome::Success
            }
        }
        fn wait_ms(&mut self, ms: u64) {
            self.waited += ms;
        }
        fn recover(&mut self, failed: &AttemptOutcome) {
            assert!(!failed.is_success());
            self.recoveries += 1;
        }
    }

    #[test]
    fn driver_retries_until_success() {
        let mut link = FlakyLink {
            fail_first: 3,
            attempts: 0,
            waited: 0,
            recoveries: 0,
        };
        let report = SessionDriver::default().run(&mut link);
        assert!(report.succeeded());
        assert_eq!(report.attempt_count(), 4);
        // Backoffs: 100 + 200 + 400.
        assert_eq!(report.total_backoff_ms(), 700);
        assert_eq!(link.waited, 700);
        assert_eq!(link.recoveries, 3);
    }

    #[test]
    fn driver_gives_up_after_budget() {
        let mut link = FlakyLink {
            fail_first: u32::MAX,
            attempts: 0,
            waited: 0,
            recoveries: 0,
        };
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let report = SessionDriver::new(policy).run(&mut link);
        assert!(!report.succeeded());
        assert_eq!(report.attempt_count(), 3);
        // No recovery/backoff after the final attempt.
        assert_eq!(link.recoveries, 2);
    }

    #[test]
    fn cursor_matches_blocking_driver_step_for_step() {
        let policy = RetryPolicy {
            max_retries: 4,
            jitter_per_mille: 250,
            jitter_seed: 0x5EED,
            ..RetryPolicy::default()
        };
        let mut link = FlakyLink {
            fail_first: 2,
            attempts: 0,
            waited: 0,
            recoveries: 0,
        };
        let blocking = SessionDriver::new(policy).run(&mut link);

        // Replay the same outcome script through the cursor.
        let mut cursor = DriverCursor::new(policy);
        loop {
            let outcome = if cursor.attempt_number() <= 2 {
                AttemptOutcome::RequestLost
            } else {
                AttemptOutcome::Success
            };
            if cursor.record(outcome) == DriverStep::Done {
                break;
            }
        }
        assert!(cursor.is_done());
        assert_eq!(cursor.into_report(), blocking);
    }

    #[test]
    fn cursor_exhausts_budget_and_refuses_more() {
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let mut cursor = DriverCursor::new(policy);
        assert_eq!(cursor.timeout_ms(), policy.timeout_ms);
        let mut steps = 0;
        while cursor.record(AttemptOutcome::ResponseLost) != DriverStep::Done {
            steps += 1;
            assert!(steps < 10, "cursor never finished");
        }
        assert!(cursor.is_done());
        let report = cursor.report().clone();
        assert!(!report.succeeded());
        assert_eq!(report.attempt_count(), 3);
        // The backoff of the final attempt is zero, earlier ones follow
        // the policy schedule exactly as the blocking driver records it.
        assert_eq!(report.attempts[0].backoff_ms, policy.backoff_ms(1));
        assert_eq!(report.attempts[2].backoff_ms, 0);
    }
}

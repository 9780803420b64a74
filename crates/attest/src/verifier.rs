//! The verifier (`Vrf`): issues authenticated, fresh attestation requests
//! and validates responses.
//!
//! The verifier is assumed to be a powerful machine; its costs are not
//! modelled. Its clock is a plain millisecond counter that experiment
//! scenarios advance in lockstep with (or deliberately apart from) the
//! prover's — clock synchronization itself is the paper's future work
//! item 2.

use proverguard_crypto::ct::ct_eq;
use proverguard_crypto::drbg::HmacDrbg;
use proverguard_crypto::mac::{MacKey, Tag};
use proverguard_crypto::sha1::DIGEST_SIZE;
use proverguard_mcu::SegmentLayout;

use crate::auth::{AuthMethod, RequestSigner};
use crate::error::AttestError;
use crate::freshness::FreshnessKind;
use crate::imagecache::ExpectedView;
use crate::message::{
    AttestRequest, AttestResponse, AttestScope, FreshnessField, CHALLENGE_SIZE, NONCE_SIZE,
};
use crate::prover::ProverConfig;
use crate::segcache::{self, HistoryBody, SegmentedParams};

/// How the verifier picks the scope of each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScopePolicy {
    /// Always the widest configured construction: `Segmented` when the
    /// deployment has segment parameters, `Whole` otherwise.
    #[default]
    Full,
    /// Cheap [`AttestScope::History`] rounds referencing the last round
    /// this verifier saw authenticated, re-anchored by a full `Segmented`
    /// round every `full_every` accepted rounds (0 = never). Bootstrap —
    /// and recovery after any rejected History round — goes through
    /// `since_round = 0` (every segment reports modified, so the round is
    /// full-coverage) or a full-scope fallback respectively.
    History {
        /// Accepted rounds between forced full `Segmented` rounds.
        full_every: u32,
    },
}

/// The authenticated plaintext of one verified History round: which
/// round the prover was in and which segments its epoch log reported as
/// written since `since_round`. Policy layers inspect [`Self::modified`]
/// — a segment that should be immutable (e.g. the application image
/// mirror) appearing here is TOCTOU evidence even though every digest
/// verified: the *write event* is the signal, not the content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryOutcome {
    /// The prover's round when it answered.
    pub round: u64,
    /// The `since_round` the request named.
    pub since_round: u64,
    /// Indices of segments written after `since_round`.
    pub modified: Vec<usize>,
}

/// The verifier's state.
#[derive(Debug, Clone)]
pub struct Verifier {
    signer: RequestSigner,
    response_key: MacKey,
    freshness: FreshnessKind,
    segmented: Option<SegmentedParams>,
    next_counter: u64,
    next_sync_counter: u64,
    next_command_counter: u64,
    clock_ms: u64,
    drbg: HmacDrbg,
    scope_policy: ScopePolicy,
    /// Last round number seen in a *verified* History response; the next
    /// History request quotes it as `since_round`. Stale-low is safe (the
    /// prover re-digests more, never less); `None` forces a bootstrap.
    last_verified_round: Option<u64>,
    /// Accepted rounds since the last full-scope one (drives `full_every`).
    rounds_since_full: u32,
    /// Set when a History round was rejected or failed verification: the
    /// next requests go full-scope until one verifies, then History
    /// re-bootstraps from `since_round = 0`.
    history_fallback: bool,
    /// Outcome of the most recent verified History round.
    last_history: Option<HistoryOutcome>,
    /// The long-term device key, kept as HKDF input keying material for
    /// the attested-channel handshake (`crate::channel`). Never put on
    /// the wire; session keys are labeled derivations from it.
    session_ikm: [u8; 16],
}

impl Verifier {
    /// Builds the verifier peer for a prover `config`, sharing `key`
    /// (`K_Attest`).
    ///
    /// # Errors
    ///
    /// [`AttestError::Crypto`] if `key` does not fit the configured
    /// algorithms.
    pub fn new(config: &ProverConfig, key: &[u8; 16]) -> Result<Self, AttestError> {
        Ok(Verifier {
            signer: RequestSigner::new(config.auth, key)?,
            response_key: MacKey::new(config.response_mac, key)?,
            freshness: config.freshness,
            segmented: config.segmented,
            next_counter: 1,
            next_sync_counter: 1,
            next_command_counter: 1,
            clock_ms: 0,
            drbg: HmacDrbg::new(key, b"proverguard-verifier-nonces"),
            scope_policy: ScopePolicy::Full,
            last_verified_round: None,
            rounds_since_full: 0,
            history_fallback: false,
            last_history: None,
            session_ikm: *key,
        })
    }

    /// Installs the scope policy, resetting all round tracking (the next
    /// History round bootstraps from `since_round = 0`).
    pub fn set_scope_policy(&mut self, policy: ScopePolicy) {
        self.scope_policy = policy;
        self.last_verified_round = None;
        self.rounds_since_full = 0;
        self.history_fallback = false;
        self.last_history = None;
    }

    /// The active scope policy.
    #[must_use]
    pub fn scope_policy(&self) -> ScopePolicy {
        self.scope_policy
    }

    /// The last prover round this verifier saw authenticated, if any.
    #[must_use]
    pub fn last_verified_round(&self) -> Option<u64> {
        self.last_verified_round
    }

    /// The most recent verified History round's authenticated outcome.
    #[must_use]
    pub fn last_history(&self) -> Option<&HistoryOutcome> {
        self.last_history.as_ref()
    }

    /// The authentication method in use.
    #[must_use]
    pub fn auth_method(&self) -> AuthMethod {
        match &self.signer {
            RequestSigner::None => AuthMethod::None,
            RequestSigner::Mac(k) => AuthMethod::Mac(k.algorithm()),
            RequestSigner::Ecdsa(_) => AuthMethod::Ecdsa,
        }
    }

    /// Current verifier clock in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Advances the verifier clock.
    pub fn advance_time_ms(&mut self, ms: u64) {
        self.clock_ms = self.clock_ms.saturating_add(ms);
    }

    /// Sets the verifier clock (scenario control).
    pub fn set_time_ms(&mut self, ms: u64) {
        self.clock_ms = ms;
    }

    /// Creates the next authenticated attestation request.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` reserves room for
    /// signature failures.
    pub fn make_request(&mut self) -> Result<AttestRequest, AttestError> {
        let scope = self.policy_scope();
        self.request_with(scope, true)
    }

    /// Creates the next authenticated request at **full** scope
    /// (`Segmented` when configured, else `Whole`), regardless of the
    /// steady-state scope policy. Session establishment uses this: the
    /// handshake's key-confirming attestation always re-covers
    /// everything.
    ///
    /// # Errors
    ///
    /// As [`Verifier::make_request`].
    pub fn make_full_request(&mut self) -> Result<AttestRequest, AttestError> {
        let scope = self.full_scope();
        self.request_with(scope, true)
    }

    /// Creates the next **unsigned** attestation request for an
    /// established session round. Freshness and challenge are minted
    /// exactly as for [`Verifier::make_request`]; only the outer request
    /// authenticator is omitted — inside a session the frame MAC is the
    /// per-message authenticator, which is the whole amortization win.
    ///
    /// # Errors
    ///
    /// As [`Verifier::make_request`].
    pub fn make_session_request(&mut self) -> Result<AttestRequest, AttestError> {
        let scope = self.policy_scope();
        self.request_with(scope, false)
    }

    fn full_scope(&self) -> AttestScope {
        if self.segmented.is_some() {
            AttestScope::Segmented
        } else {
            AttestScope::Whole
        }
    }

    fn policy_scope(&self) -> AttestScope {
        match self.scope_policy {
            ScopePolicy::Full => self.full_scope(),
            ScopePolicy::History { full_every } => {
                let due_full = full_every > 0 && self.rounds_since_full >= full_every;
                if self.segmented.is_none() || self.history_fallback || due_full {
                    self.full_scope()
                } else {
                    AttestScope::History {
                        since_round: self.last_verified_round.unwrap_or(0),
                    }
                }
            }
        }
    }

    fn request_with(
        &mut self,
        scope: AttestScope,
        signed: bool,
    ) -> Result<AttestRequest, AttestError> {
        let freshness = match self.freshness {
            FreshnessKind::None => FreshnessField::None,
            FreshnessKind::NonceHistory => {
                let mut nonce = [0u8; NONCE_SIZE];
                self.drbg.fill(&mut nonce);
                FreshnessField::Nonce(nonce)
            }
            FreshnessKind::Counter => {
                let c = self.next_counter;
                self.next_counter += 1;
                FreshnessField::Counter(c)
            }
            FreshnessKind::Timestamp => FreshnessField::Timestamp(self.clock_ms),
        };
        let mut challenge = [0u8; CHALLENGE_SIZE];
        self.drbg.fill(&mut challenge);
        let mut request = AttestRequest {
            scope,
            freshness,
            challenge,
            auth: Vec::new(),
        };
        if signed {
            request.auth = self.signer.sign(&request.signed_bytes());
        }
        Ok(request)
    }

    /// Draws a fresh session-handshake nonce from the verifier's DRBG.
    pub(crate) fn session_nonce(&mut self) -> [u8; 16] {
        let mut nonce = [0u8; 16];
        self.drbg.fill(&mut nonce);
        nonce
    }

    /// The HKDF input keying material for session establishment.
    pub(crate) fn session_ikm(&self) -> &[u8; 16] {
        &self.session_ikm
    }

    /// Creates the next authenticated clock-synchronization message
    /// (§7 future-work item 2) carrying the verifier's current time.
    pub fn make_sync_request(&mut self) -> crate::clocksync::SyncRequest {
        let counter = self.next_sync_counter;
        self.next_sync_counter += 1;
        let mut request = crate::clocksync::SyncRequest {
            counter,
            verifier_time_ms: self.clock_ms,
            auth: Vec::new(),
        };
        request.auth = self.signer.sign(&request.signed_bytes());
        request
    }

    /// Creates the next authenticated gated command (§7 item 3).
    pub fn make_command(
        &mut self,
        command: crate::services::Command,
    ) -> crate::services::CommandRequest {
        let counter = self.next_command_counter;
        self.next_command_counter += 1;
        let mut request = crate::services::CommandRequest {
            counter,
            command,
            auth: Vec::new(),
        };
        request.auth = self.signer.sign(&request.signed_bytes());
        request
    }

    /// Validates a command receipt against the expected post-state digest.
    #[must_use]
    pub fn check_command_receipt(
        &self,
        receipt: &crate::services::CommandReceipt,
        command: &crate::services::Command,
        expected_digest: &[u8; 20],
    ) -> bool {
        receipt.verify(&self.response_key, command, expected_digest)
    }

    /// The segmented-mode parameters of this deployment, if any. The
    /// device directory uses this to intern expected images at the right
    /// digest granularity.
    #[must_use]
    pub fn segmented_params(&self) -> Option<SegmentedParams> {
        self.segmented
    }

    /// Validates a response against the expected memory image, using the
    /// construction the request's (authenticated) scope byte named. This
    /// byte-slice entry point digests the expected image from scratch;
    /// fleet paths hand an [`ExpectedView`] with an interned baseline to
    /// [`Verifier::check_response_view`] instead, which reuses the shared
    /// digest vector and re-digests only the segments under the freshness
    /// word.
    #[must_use]
    pub fn check_response(
        &self,
        request: &AttestRequest,
        response: &AttestResponse,
        expected_memory: &[u8],
    ) -> bool {
        self.check_response_view(request, response, &ExpectedView::uncached(expected_memory))
    }

    /// Validates a response against an expected-image view. The keyed
    /// outer MAC is always recomputed per device and per request — only
    /// the unkeyed, content-only segment digests come from the view's
    /// baseline (when one is attached and matches). Whole and Segmented
    /// responses are judged by [`Verifier::expected_report`] and one
    /// constant-time compare, the same two steps a gateway takes when it
    /// computed the report before the response arrived.
    #[must_use]
    pub fn check_response_view(
        &self,
        request: &AttestRequest,
        response: &AttestResponse,
        expected: &ExpectedView<'_>,
    ) -> bool {
        match request.scope {
            AttestScope::Whole | AttestScope::Segmented => self
                .expected_report(request, expected)
                .is_some_and(|report| Verifier::report_matches(&report, response)),
            AttestScope::History { since_round } => {
                let Some(params) = &self.segmented else {
                    return false;
                };
                let Some((body, tag)) = self.decode_history(since_round, response, expected) else {
                    return false;
                };
                // The body is MACed as received; the expected digests of
                // the modified segments follow it, each computed (or read
                // from the baseline) on the spot.
                let signed = request.signed_bytes();
                let seg_len = params.segment_len as usize;
                let header = segcache::history_header(params.segment_len);
                let mut mac = self.response_key.stream(
                    signed.len()
                        + header.len()
                        + body.encoded().len()
                        + body.modified_count() * DIGEST_SIZE,
                );
                mac.update(&signed);
                mac.update(&header);
                mac.update(body.encoded());
                for i in body.modified() {
                    mac.update(&expected.segment_digest_at(i, seg_len));
                }
                mac.verify(tag)
            }
        }
    }

    /// The report an honest prover returns for a Whole or Segmented
    /// `request` over `expected`, streamed from the same parts the check
    /// reads into an inline tag (no allocation). It depends only on the
    /// request, the expected image and the key, so it can be computed
    /// before the response exists. `None` for History — that tag covers
    /// the modified bitmap the prover chooses — and for Segmented in a
    /// deployment without segment parameters.
    #[must_use]
    pub fn expected_report(
        &self,
        request: &AttestRequest,
        expected: &ExpectedView<'_>,
    ) -> Option<Tag> {
        let signed = request.signed_bytes();
        let memory = expected.memory();
        match request.scope {
            AttestScope::Whole => {
                // `memory[..off] ‖ word ‖ memory[off + 8..]`, each part
                // MACed where it lies.
                let mut mac = self.response_key.stream(signed.len() + memory.len());
                mac.update(&signed);
                for part in expected.parts(0..memory.len()) {
                    mac.update(part);
                }
                Some(mac.finalize())
            }
            AttestScope::Segmented => {
                let params = self.segmented.as_ref()?;
                // `header ‖ d_0 ‖ b`: with a matching baseline only the
                // head under the freshness word is digested and the body
                // digest is the baseline's, so nothing is copied.
                let seg_len = params.segment_len as usize;
                let count = SegmentLayout::new(memory.len(), seg_len).count();
                let header = segcache::combine_header(params.segment_len, count);
                let (head, body) = expected.combine_digests(seg_len);
                let mut mac = self
                    .response_key
                    .stream(signed.len() + segcache::COMBINE_SUFFIX_LEN);
                mac.update(&signed);
                mac.update(&header);
                mac.update(&head);
                mac.update(&body);
                Some(mac.finalize())
            }
            AttestScope::History { .. } => None,
        }
    }

    /// Judges `response` against a report from
    /// [`Verifier::expected_report`]: one constant-time compare.
    #[must_use]
    pub fn report_matches(expected: &Tag, response: &AttestResponse) -> bool {
        ct_eq(expected, &response.report)
    }

    /// Reads a History report in place against the expected image: the
    /// bitmap must cover exactly the expected segment count and the
    /// prover's round must postdate `since_round` (the register is
    /// strictly ahead of every completed round). Reads only the expected
    /// image's length; returns the body and the response MAC after it.
    fn decode_history<'r>(
        &self,
        since_round: u64,
        response: &'r AttestResponse,
        expected: &ExpectedView<'_>,
    ) -> Option<(HistoryBody<'r>, &'r [u8])> {
        let seg_len = self.segmented.as_ref()?.segment_len as usize;
        let seg_count = SegmentLayout::new(expected.memory().len(), seg_len).count();
        let (body, tag) = HistoryBody::parse(&response.report, seg_count)?;
        (body.segment_count() == seg_count && body.round() > since_round).then_some((body, tag))
    }

    /// Records a round that completed and verified. Drives the History
    /// policy: a full-scope round re-anchors the baseline (and clears any
    /// fallback), a History round advances `since_round` to the prover's
    /// authenticated round and exposes its modified set via
    /// [`Verifier::last_history`]. Returns that outcome for History
    /// rounds so callers can apply TOCTOU policy immediately.
    pub fn note_verified(
        &mut self,
        request: &AttestRequest,
        response: &AttestResponse,
        expected_memory: &[u8],
    ) -> Option<&HistoryOutcome> {
        self.note_verified_view(request, response, &ExpectedView::uncached(expected_memory))
    }

    /// View-based variant of [`Verifier::note_verified`] — same policy
    /// effects. It reads only the view's length: the response was already
    /// checked, so noting it computes no digest.
    pub fn note_verified_view(
        &mut self,
        request: &AttestRequest,
        response: &AttestResponse,
        expected: &ExpectedView<'_>,
    ) -> Option<&HistoryOutcome> {
        match request.scope {
            AttestScope::Whole | AttestScope::Segmented => {
                self.rounds_since_full = 0;
                self.history_fallback = false;
                self.last_history = None;
                // The prover advanced its register past this round; the
                // remembered History baseline goes stale-low, which is
                // safe (extra digests, never missing ones). After a
                // fallback the baseline was dropped and the next History
                // round re-bootstraps from zero.
                None
            }
            AttestScope::History { since_round } => {
                let (body, _tag) = self.decode_history(since_round, response, expected)?;
                self.rounds_since_full = self.rounds_since_full.saturating_add(1);
                self.last_verified_round = Some(body.round());
                self.last_history = Some(HistoryOutcome {
                    round: body.round(),
                    since_round,
                    modified: body.modified().collect(),
                });
                self.last_history.as_ref()
            }
        }
    }

    /// Records a round that failed — rejected by the prover, lost, or
    /// failing verification. A failed History round drops the baseline
    /// and routes the next requests through a full-scope fallback until
    /// one verifies (the prover may have rebooted, suspended History
    /// after detecting epoch-log tampering, or desynchronized rounds).
    pub fn note_failed(&mut self, request: &AttestRequest) {
        if matches!(request.scope, AttestScope::History { .. }) {
            self.last_verified_round = None;
            self.history_fallback = true;
            self.last_history = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proverguard_crypto::mac::MacAlgorithm;

    const KEY: [u8; 16] = [9; 16];

    fn verifier(freshness: FreshnessKind) -> Verifier {
        let config = ProverConfig {
            auth: AuthMethod::Mac(MacAlgorithm::HmacSha1),
            freshness,
            ..ProverConfig::recommended()
        };
        Verifier::new(&config, &KEY).unwrap()
    }

    #[test]
    fn counters_increase_monotonically() {
        let mut v = verifier(FreshnessKind::Counter);
        let c = |req: AttestRequest| match req.freshness {
            FreshnessField::Counter(c) => c,
            _ => panic!("expected counter"),
        };
        let c1 = c(v.make_request().unwrap());
        let c2 = c(v.make_request().unwrap());
        assert!(c2 > c1);
    }

    #[test]
    fn nonces_are_unique() {
        let mut v = verifier(FreshnessKind::NonceHistory);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            match v.make_request().unwrap().freshness {
                FreshnessField::Nonce(n) => assert!(seen.insert(n), "duplicate nonce"),
                _ => panic!("expected nonce"),
            }
        }
    }

    #[test]
    fn timestamps_track_the_clock() {
        let mut v = verifier(FreshnessKind::Timestamp);
        v.set_time_ms(1234);
        match v.make_request().unwrap().freshness {
            FreshnessField::Timestamp(t) => assert_eq!(t, 1234),
            _ => panic!("expected timestamp"),
        }
        v.advance_time_ms(766);
        assert_eq!(v.now_ms(), 2000);
    }

    #[test]
    fn requests_are_authenticated() {
        let mut v = verifier(FreshnessKind::Counter);
        let req = v.make_request().unwrap();
        assert!(!req.auth.is_empty());
        // The signer covers the header: flipping a challenge byte breaks it.
        let signer = RequestSigner::new(v.auth_method(), &KEY).unwrap();
        let checker = signer.checker().unwrap();
        assert!(checker.check(&req.signed_bytes(), &req.auth));
        let mut tampered = req.clone();
        tampered.challenge[0] ^= 1;
        assert!(!checker.check(&tampered.signed_bytes(), &req.auth));
    }

    #[test]
    fn challenges_differ_between_requests() {
        let mut v = verifier(FreshnessKind::None);
        let a = v.make_request().unwrap();
        let b = v.make_request().unwrap();
        assert_ne!(a.challenge, b.challenge);
    }

    #[test]
    fn segmented_check_recomputes_from_scratch() {
        let config = ProverConfig::recommended_segmented();
        let mut v = Verifier::new(&config, &KEY).unwrap();
        let req = v.make_request().unwrap();
        assert_eq!(req.scope, AttestScope::Segmented);
        let memory = vec![3u8; 64 * 1024];
        let seg_len = config.segmented.unwrap().segment_len;
        let digests = segcache::segment_digests(&memory, seg_len as usize);
        let combined = segcache::combined_input(&req.signed_bytes(), seg_len, &digests);
        let good = AttestResponse {
            report: MacKey::new(MacAlgorithm::HmacSha1, &KEY)
                .unwrap()
                .compute(&combined),
        };
        assert!(v.check_response(&req, &good, &memory));
        // One flipped byte anywhere flips one segment digest.
        let mut tampered = memory.clone();
        tampered[40_000] ^= 1;
        assert!(!v.check_response(&req, &good, &tampered));
        // A whole-memory-construction response must not pass a segmented
        // check (downgrade detection).
        let mut macced = req.signed_bytes().to_vec();
        macced.extend_from_slice(&memory);
        let whole = AttestResponse {
            report: MacKey::new(MacAlgorithm::HmacSha1, &KEY)
                .unwrap()
                .compute(&macced),
        };
        assert!(!v.check_response(&req, &whole, &memory));
    }

    #[test]
    fn history_note_step_reads_no_segment_bytes() {
        let config = ProverConfig::recommended_segmented();
        let seg_len = config.segmented.unwrap().segment_len as usize;
        let mut prover = crate::prover::Prover::provision(config.clone(), &KEY, b"app").unwrap();
        let mut v = Verifier::new(&config, &KEY).unwrap();
        v.set_scope_policy(ScopePolicy::History { full_every: 0 });
        let mut verified_round = |v: &mut Verifier| {
            let req = v.make_request().unwrap();
            let resp = prover.handle_request(&req).unwrap();
            let expected = prover.expected_memory().to_vec();
            assert!(v.check_response(&req, &resp, &expected));
            (req, resp, expected)
        };
        let (req, resp, expected) = verified_round(&mut v);
        v.note_verified(&req, &resp, &expected);

        // A quiescent round: only the freshness word's segment is modified.
        let (req, resp, expected) = verified_round(&mut v);
        let mut other = v.clone();
        let honest = v.note_verified(&req, &resp, &expected).cloned().unwrap();
        assert!(!honest.modified.is_empty());
        let layout = SegmentLayout::new(expected.len(), seg_len);
        let mut garbled = expected;
        for &i in &honest.modified {
            garbled[layout.span(i).start] ^= 0xff;
        }
        assert!(!other.check_response(&req, &resp, &garbled));
        assert_eq!(other.note_verified(&req, &resp, &garbled), Some(&honest));
    }

    #[test]
    fn check_response_detects_memory_tampering() {
        let mut v = verifier(FreshnessKind::Counter);
        let req = v.make_request().unwrap();
        let memory = vec![0u8; 1024];
        // Fabricate the response the prover would produce.
        let mut macced = req.signed_bytes().to_vec();
        macced.extend_from_slice(&memory);
        let good = AttestResponse {
            report: MacKey::new(MacAlgorithm::HmacSha1, &KEY)
                .unwrap()
                .compute(&macced),
        };
        assert!(v.check_response(&req, &good, &memory));
        let mut tampered = memory.clone();
        tampered[512] = 0xff;
        assert!(!v.check_response(&req, &good, &tampered));
    }
}

//! Attested secure sessions: an HKDF key-exchange handshake whose key
//! confirmation **is** a fresh full-scope attestation, then cheap
//! sequence-numbered session frames for the rounds that follow.
//!
//! The paper's one-shot protocol pays a full challenge/MAC round trip
//! per attestation. At fleet scale that wastes the segment-cache and
//! `History` wins: the per-round constant cost is dominated by the
//! request authenticator and challenge plumbing, not the memory work.
//! This module amortizes it the way attestation-bound session protocols
//! do (oak_session, SPDM secure sessions):
//!
//! 1. **Handshake.** The verifier sends a [`HandshakeInit`] carrying a
//!    nonce and an ordinary *signed, fresh, full-scope* attestation
//!    request. The prover runs its normal §4/§5 pipeline — admission,
//!    auth, freshness, full memory MAC — and answers with a
//!    [`HandshakeAccept`] carrying its nonce and the attestation
//!    response. That response doubles as the key-confirmation
//!    transcript: both sides derive session keys over the exact wire
//!    bytes, so a single flipped bit anywhere in the exchange yields
//!    unrelated keys, and neither side derives anything until its own
//!    acceptance checks passed (the prover's pipeline, the verifier's
//!    response verification).
//! 2. **Key schedule.** [`SessionKeys::derive`] runs HKDF
//!    ([`proverguard_crypto::hkdf`]) with the long-term device key as
//!    input keying material and the transcript as salt, then labeled
//!    expansions split the PRK into direction-separated MAC keys and a
//!    public session id. The long-term key itself never touches a
//!    session frame — its usage surface stays exactly what it was
//!    (request auth, response MACs, sealed NV records).
//! 3. **Session rounds.** Follow-up attestations ride as
//!    [`SecureChannel`] frames: sequence-numbered, replay-window
//!    checked, MACed under the direction key. The *inner* attestation
//!    request is unsigned — the frame MAC is the per-message
//!    authenticator — so a round costs the prover one short HMAC per
//!    frame instead of the one-shot's outer request MAC, while the
//!    response construction (and thus [`crate::verifier::Verifier::
//!    check_response`]) is unchanged.
//! 4. **Rekey ratchet.** After `rekey_after` verified rounds both ends
//!    deterministically ratchet the PRK forward ([`SessionKeys::
//!    ratchet`]) and reset sequence state. The ratchet is one-way:
//!    compromising epoch-*n* keys yields nothing about earlier epochs.
//!    Desync (a lost final frame) fails closed — the next frame MAC
//!    mismatches, both sides tear down, and the prover re-handshakes.
//!
//! Rejection ordering mirrors the prover's cheap-reject ladder: version
//! and shape checks first, then the replay window, and only then the
//! frame MAC — a replayed or garbage frame never costs key material or
//! an HKDF derivation ([`key_derivations`] is the observable the bench
//! gates on).

use std::sync::atomic::{AtomicU64, Ordering};

use proverguard_crypto::ct::ct_eq;
use proverguard_crypto::hkdf;
use proverguard_crypto::hmac::HmacSha1;

use crate::error::{AttestError, RejectReason};
use crate::message::{AttestRequest, AttestResponse};
use crate::prover::Prover;
use crate::verifier::Verifier;

/// Channel protocol version byte (handshake messages and frames).
pub const CHANNEL_VERSION: u8 = 1;

/// Size of each side's handshake nonce.
pub const SESSION_NONCE_SIZE: usize = 16;

/// Size of the public session identifier.
pub const SESSION_ID_SIZE: usize = 8;

/// Truncated frame-MAC tag length. 16 of HMAC-SHA1's 20 bytes — the
/// same tag budget as the request authenticator.
pub const FRAME_TAG_LEN: usize = 16;

/// Sliding anti-replay window width (frames behind the highest seen).
pub const REPLAY_WINDOW: u64 = 64;

/// Domain label bound into the key-schedule transcript.
const TRANSCRIPT_LABEL: &[u8] = b"PGSESS1";

/// Domain label bound into every frame MAC.
const FRAME_LABEL: &[u8] = b"PGSFRM1";

/// Fixed frame framing overhead: version, flags, seq, length, tag. A
/// sealed frame carries `len - FRAME_OVERHEAD` payload bytes.
pub const FRAME_OVERHEAD: usize = 1 + 1 + 8 + 2 + FRAME_TAG_LEN;

/// Bytes the frame MAC hashes for a `payload_len`-byte payload:
/// `FRAME_LABEL ‖ version ‖ flags ‖ seq ‖ payload`. A device pays one
/// HMAC over this many bytes to seal or to open a frame.
#[must_use]
pub const fn frame_mac_len(payload_len: usize) -> usize {
    FRAME_LABEL.len() + 1 + 1 + 8 + payload_len
}

static KEY_DERIVATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of session-key derivations (initial derives plus
/// ratchets). The session bench snapshots this around its adversary
/// rows: rejected traffic must not move it.
#[must_use]
pub fn key_derivations() -> u64 {
    KEY_DERIVATIONS.load(Ordering::SeqCst)
}

fn malformed(reason: &str) -> AttestError {
    AttestError::MalformedMessage {
        reason: reason.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Handshake messages
// ---------------------------------------------------------------------------

/// Verifier → prover: opens a session. Carries the verifier nonce, the
/// rekey cadence, and a normal signed full-scope attestation request —
/// the prover's answer to that request is the key confirmation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeInit {
    /// Channel protocol version.
    pub version: u8,
    /// Verifier's session nonce.
    pub verifier_nonce: [u8; SESSION_NONCE_SIZE],
    /// Verified rounds between deterministic rekey ratchets (0 = never).
    pub rekey_after: u32,
    /// Serialized [`AttestRequest`] (signed, fresh, full scope).
    pub request: Vec<u8>,
}

impl HandshakeInit {
    /// Serializes the message.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + SESSION_NONCE_SIZE + 4 + 2 + self.request.len());
        out.push(self.version);
        out.extend_from_slice(&self.verifier_nonce);
        out.extend_from_slice(&self.rekey_after.to_be_bytes());
        out.extend_from_slice(&(self.request.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.request);
        out
    }

    /// Parses a message serialized by [`HandshakeInit::encode`].
    ///
    /// # Errors
    ///
    /// [`AttestError::MalformedMessage`] on truncation, trailing bytes,
    /// or an unknown version — all checked before any cryptography.
    pub fn decode(bytes: &[u8]) -> Result<Self, AttestError> {
        const HEAD: usize = 1 + SESSION_NONCE_SIZE + 4 + 2;
        if bytes.len() < HEAD {
            return Err(malformed("truncated handshake init"));
        }
        let version = bytes[0];
        if version != CHANNEL_VERSION {
            return Err(malformed("unsupported channel version"));
        }
        let mut verifier_nonce = [0u8; SESSION_NONCE_SIZE];
        verifier_nonce.copy_from_slice(&bytes[1..1 + SESSION_NONCE_SIZE]);
        let mut at = 1 + SESSION_NONCE_SIZE;
        let rekey_after = u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        at += 4;
        let req_len = u16::from_be_bytes(bytes[at..at + 2].try_into().expect("2 bytes")) as usize;
        at += 2;
        if bytes.len() != at + req_len {
            return Err(malformed("handshake init length mismatch"));
        }
        Ok(HandshakeInit {
            version,
            verifier_nonce,
            rekey_after,
            request: bytes[at..].to_vec(),
        })
    }
}

/// Prover → verifier: accepts a session. Carries the prover nonce and
/// the attestation response produced by the prover's full pipeline for
/// the init's embedded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeAccept {
    /// Channel protocol version.
    pub version: u8,
    /// Prover's session nonce.
    pub prover_nonce: [u8; SESSION_NONCE_SIZE],
    /// Serialized [`AttestResponse`].
    pub response: Vec<u8>,
}

impl HandshakeAccept {
    /// Serializes the message.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + SESSION_NONCE_SIZE + 2 + self.response.len());
        out.push(self.version);
        out.extend_from_slice(&self.prover_nonce);
        out.extend_from_slice(&(self.response.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.response);
        out
    }

    /// Parses a message serialized by [`HandshakeAccept::encode`].
    ///
    /// # Errors
    ///
    /// [`AttestError::MalformedMessage`] on truncation, trailing bytes,
    /// or an unknown version.
    pub fn decode(bytes: &[u8]) -> Result<Self, AttestError> {
        const HEAD: usize = 1 + SESSION_NONCE_SIZE + 2;
        if bytes.len() < HEAD {
            return Err(malformed("truncated handshake accept"));
        }
        let version = bytes[0];
        if version != CHANNEL_VERSION {
            return Err(malformed("unsupported channel version"));
        }
        let mut prover_nonce = [0u8; SESSION_NONCE_SIZE];
        prover_nonce.copy_from_slice(&bytes[1..1 + SESSION_NONCE_SIZE]);
        let at = 1 + SESSION_NONCE_SIZE;
        let resp_len = u16::from_be_bytes(bytes[at..at + 2].try_into().expect("2 bytes")) as usize;
        let at = at + 2;
        if bytes.len() != at + resp_len {
            return Err(malformed("handshake accept length mismatch"));
        }
        Ok(HandshakeAccept {
            version,
            prover_nonce,
            response: bytes[at..].to_vec(),
        })
    }
}

/// The byte string both sides derive session keys over: every field of
/// both handshake messages, length-prefixed, under a versioned label.
/// The attestation request *and response* are inside, so the derived
/// keys are bound to the verified full-scope attestation — this is what
/// makes the handshake "attested".
#[must_use]
pub fn transcript(init: &HandshakeInit, accept: &HandshakeAccept) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        TRANSCRIPT_LABEL.len()
            + 2
            + 2 * SESSION_NONCE_SIZE
            + 4
            + 4
            + init.request.len()
            + accept.response.len(),
    );
    out.extend_from_slice(TRANSCRIPT_LABEL);
    out.push(init.version);
    out.push(accept.version);
    out.extend_from_slice(&init.verifier_nonce);
    out.extend_from_slice(&accept.prover_nonce);
    out.extend_from_slice(&init.rekey_after.to_be_bytes());
    out.extend_from_slice(&(init.request.len() as u16).to_be_bytes());
    out.extend_from_slice(&init.request);
    out.extend_from_slice(&(accept.response.len() as u16).to_be_bytes());
    out.extend_from_slice(&accept.response);
    out
}

// ---------------------------------------------------------------------------
// Key schedule
// ---------------------------------------------------------------------------

/// Per-session key material: a public session id, one MAC key per
/// direction, and the PRK the rekey ratchet advances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionKeys {
    /// Public session identifier (safe to put on the wire).
    pub session_id: [u8; SESSION_ID_SIZE],
    /// MAC key for verifier → prover frames.
    pub to_prover: [u8; 16],
    /// MAC key for prover → verifier frames.
    pub to_verifier: [u8; 16],
    /// Rekey epoch (0 after the handshake, +1 per ratchet).
    pub epoch: u32,
    prk: [u8; 20],
}

impl SessionKeys {
    /// Derives fresh session keys from the long-term device key (`ikm`)
    /// and the handshake `transcript` (used as the HKDF salt). Labeled
    /// expansions domain-separate the two direction keys and the public
    /// session id from each other and from every other HKDF consumer.
    #[must_use]
    pub fn derive(ikm: &[u8; 16], transcript: &[u8]) -> Self {
        KEY_DERIVATIONS.fetch_add(1, Ordering::SeqCst);
        let prk = hkdf::extract(transcript, ikm);
        let mut keys = SessionKeys {
            session_id: [0; SESSION_ID_SIZE],
            to_prover: [0; 16],
            to_verifier: [0; 16],
            epoch: 0,
            prk,
        };
        keys.session_id.copy_from_slice(&hkdf::expand_label(
            &prk,
            b"session id",
            b"",
            SESSION_ID_SIZE,
        ));
        keys.fill_direction_keys();
        keys
    }

    /// Deterministic one-way rekey: the PRK ratchets forward under a
    /// labeled expansion bound to the next epoch number, the direction
    /// keys are re-derived, and the epoch advances. The session id is
    /// stable across ratchets (it names the session, not the epoch).
    pub fn ratchet(&mut self) {
        KEY_DERIVATIONS.fetch_add(1, Ordering::SeqCst);
        let next = self.epoch.wrapping_add(1);
        let stepped = hkdf::expand_label(&self.prk, b"rekey", &next.to_be_bytes(), 20);
        self.prk.copy_from_slice(&stepped);
        self.epoch = next;
        self.fill_direction_keys();
    }

    fn fill_direction_keys(&mut self) {
        self.to_prover
            .copy_from_slice(&hkdf::expand_label(&self.prk, b"c2p mac", b"", 16));
        self.to_verifier
            .copy_from_slice(&hkdf::expand_label(&self.prk, b"p2c mac", b"", 16));
    }
}

// ---------------------------------------------------------------------------
// Replay window
// ---------------------------------------------------------------------------

/// Sliding-window anti-replay tracker (RFC 6479 shape, 64-frame
/// window). Sequence numbers start at 1; `highest == 0` means nothing
/// has been accepted yet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayWindow {
    highest: u64,
    /// Bit `i` set ⇔ `highest - i` was seen (bit 0 = `highest`).
    bitmap: u64,
}

impl ReplayWindow {
    /// Would `seq` be acceptable (not a replay, not behind the window)?
    /// Pure check — call [`ReplayWindow::commit`] after the frame MAC
    /// verifies.
    #[must_use]
    pub fn check(&self, seq: u64) -> bool {
        if seq == 0 {
            return false;
        }
        if seq > self.highest {
            return true;
        }
        let behind = self.highest - seq;
        if behind >= REPLAY_WINDOW {
            return false;
        }
        self.bitmap & (1u64 << behind) == 0
    }

    /// Records `seq` as seen. Call only after [`ReplayWindow::check`]
    /// accepted it and the MAC verified.
    pub fn commit(&mut self, seq: u64) {
        if seq > self.highest {
            let shift = seq - self.highest;
            self.bitmap = if shift >= 64 { 0 } else { self.bitmap << shift };
            self.bitmap |= 1;
            self.highest = seq;
        } else {
            self.bitmap |= 1u64 << (self.highest - seq);
        }
    }

    /// Highest sequence number accepted so far (0 = none).
    #[must_use]
    pub fn highest(&self) -> u64 {
        self.highest
    }
}

// ---------------------------------------------------------------------------
// Secure channel
// ---------------------------------------------------------------------------

/// Which end of the channel this state belongs to (decides which
/// direction key seals outgoing frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The gateway/verifier end.
    Verifier,
    /// The device/prover end.
    Prover,
}

/// Direction flag bit: set on prover → verifier frames.
const FLAG_TO_VERIFIER: u8 = 0b0000_0001;

/// One endpoint of an established session: keys, send sequence, receive
/// replay window, and the lockstep rekey counter.
#[derive(Debug, Clone)]
pub struct SecureChannel {
    keys: SessionKeys,
    role: Role,
    send_seq: u64,
    recv_window: ReplayWindow,
    rounds_since_rekey: u32,
    rekey_after: u32,
}

impl SecureChannel {
    /// Wraps freshly derived `keys` for `role`, rekeying every
    /// `rekey_after` verified rounds (0 = never).
    #[must_use]
    pub fn new(keys: SessionKeys, role: Role, rekey_after: u32) -> Self {
        SecureChannel {
            keys,
            role,
            send_seq: 0,
            recv_window: ReplayWindow::default(),
            rounds_since_rekey: 0,
            rekey_after,
        }
    }

    /// The public session id.
    #[must_use]
    pub fn session_id(&self) -> [u8; SESSION_ID_SIZE] {
        self.keys.session_id
    }

    /// Current rekey epoch.
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.keys.epoch
    }

    /// The key material (adversary probes and key-hygiene tests).
    #[must_use]
    pub fn keys(&self) -> &SessionKeys {
        &self.keys
    }

    fn send_key(&self) -> &[u8; 16] {
        match self.role {
            Role::Verifier => &self.keys.to_prover,
            Role::Prover => &self.keys.to_verifier,
        }
    }

    fn recv_key(&self) -> &[u8; 16] {
        match self.role {
            Role::Verifier => &self.keys.to_verifier,
            Role::Prover => &self.keys.to_prover,
        }
    }

    fn send_flags(&self) -> u8 {
        match self.role {
            Role::Verifier => 0,
            Role::Prover => FLAG_TO_VERIFIER,
        }
    }

    fn frame_mac(key: &[u8; 16], flags: u8, seq: u64, payload: &[u8]) -> [u8; 20] {
        let mut h = HmacSha1::new(key);
        h.update(FRAME_LABEL);
        h.update(&[CHANNEL_VERSION, flags]);
        h.update(&seq.to_be_bytes());
        h.update(payload);
        h.finalize()
    }

    /// Seals `payload` into the next outgoing frame:
    /// `version ‖ flags ‖ seq ‖ len ‖ payload ‖ tag`.
    #[must_use]
    pub fn seal_next(&mut self, payload: &[u8]) -> Vec<u8> {
        self.send_seq += 1;
        let flags = self.send_flags();
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        out.push(CHANNEL_VERSION);
        out.push(flags);
        out.extend_from_slice(&self.send_seq.to_be_bytes());
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        out.extend_from_slice(payload);
        let tag = Self::frame_mac(self.send_key(), flags, self.send_seq, payload);
        out.extend_from_slice(&tag[..FRAME_TAG_LEN]);
        out
    }

    /// Opens an incoming frame, enforcing the cheap-reject ladder:
    /// shape and version first ([`AttestError::MalformedMessage`]), then
    /// direction ([`RejectReason::SessionAuth`]), then the replay window
    /// ([`RejectReason::SessionReplay`]) — all **before** the frame MAC
    /// is computed, so replays and garbage never cost key material work.
    ///
    /// # Errors
    ///
    /// As above; a MAC mismatch is [`RejectReason::SessionAuth`].
    pub fn open(&mut self, frame: &[u8]) -> Result<Vec<u8>, AttestError> {
        if frame.len() < FRAME_OVERHEAD {
            return Err(malformed("truncated session frame"));
        }
        if frame[0] != CHANNEL_VERSION {
            return Err(malformed("unsupported channel version"));
        }
        let flags = frame[1];
        if flags & !FLAG_TO_VERIFIER != 0 {
            return Err(malformed("unknown frame flags"));
        }
        let expect_flags = match self.role {
            Role::Verifier => FLAG_TO_VERIFIER,
            Role::Prover => 0,
        };
        if flags != expect_flags {
            return Err(AttestError::Rejected(RejectReason::SessionAuth));
        }
        let seq = u64::from_be_bytes(frame[2..10].try_into().expect("8 bytes"));
        let len = u16::from_be_bytes(frame[10..12].try_into().expect("2 bytes")) as usize;
        if frame.len() != FRAME_OVERHEAD + len {
            return Err(malformed("session frame length mismatch"));
        }
        if !self.recv_window.check(seq) {
            return Err(AttestError::Rejected(RejectReason::SessionReplay));
        }
        let payload = &frame[12..12 + len];
        let tag = &frame[12 + len..];
        let expected = Self::frame_mac(self.recv_key(), flags, seq, payload);
        if !ct_eq(&expected[..FRAME_TAG_LEN], tag) {
            return Err(AttestError::Rejected(RejectReason::SessionAuth));
        }
        self.recv_window.commit(seq);
        Ok(payload.to_vec())
    }

    /// Records one verified attestation round. When the rekey cadence is
    /// reached, ratchets the keys and resets sequence state; both ends
    /// call this in lockstep after *their* verification step, so they
    /// ratchet together or fail closed. Returns `true` iff a ratchet
    /// happened.
    pub fn note_round(&mut self) -> bool {
        self.rounds_since_rekey = self.rounds_since_rekey.saturating_add(1);
        if self.rekey_after == 0 || self.rounds_since_rekey < self.rekey_after {
            return false;
        }
        self.keys.ratchet();
        self.send_seq = 0;
        self.recv_window = ReplayWindow::default();
        self.rounds_since_rekey = 0;
        true
    }

    /// Verified rounds since the last ratchet.
    #[must_use]
    pub fn rounds_since_rekey(&self) -> u32 {
        self.rounds_since_rekey
    }
}

// ---------------------------------------------------------------------------
// Handshake driving
// ---------------------------------------------------------------------------

/// Verifier step 1: mints the [`HandshakeInit`] for a new session. The
/// embedded request is signed, fresh, and full-scope (`Segmented` or
/// `Whole`), regardless of the verifier's steady-state scope policy —
/// session establishment always re-attests everything. Returns the
/// parsed request too, for the later [`verifier_confirm`].
///
/// # Errors
///
/// Propagates request-creation failures (currently infallible).
pub fn verifier_begin(
    verifier: &mut Verifier,
    rekey_after: u32,
) -> Result<(HandshakeInit, AttestRequest), AttestError> {
    let request = verifier.make_full_request()?;
    let init = HandshakeInit {
        version: CHANNEL_VERSION,
        verifier_nonce: verifier.session_nonce(),
        rekey_after,
        request: request.to_bytes(),
    };
    Ok((init, request))
}

/// Prover side of the handshake: checks the channel version, then runs
/// the embedded request through the prover's **full** pipeline — the
/// paper's admission/auth/freshness ladder applies unchanged, so a
/// forged or replayed init dies at the same cheap stage it always did
/// and *no key material is derived*. Only after the pipeline accepts
/// does the prover derive session keys over the transcript.
///
/// The prover nonce is derived deterministically from the device key
/// and the exchange (a DRBG-free device stays reproducible); it is
/// unpredictable to anyone without the key and unique per handshake
/// because the response bytes are.
///
/// # Errors
///
/// - [`AttestError::MalformedMessage`] for version/shape problems —
///   checked before the pipeline runs.
/// - Any pipeline rejection ([`AttestError::Rejected`]), exactly as
///   [`Prover::handle_request`] reports it.
pub fn prover_accept(
    prover: &mut Prover,
    init: &HandshakeInit,
) -> Result<(HandshakeAccept, SecureChannel), AttestError> {
    if init.version != CHANNEL_VERSION {
        return Err(malformed("unsupported channel version"));
    }
    let request = AttestRequest::from_bytes(&init.request)?;
    let response = prover.handle_request(&request)?;
    let response_bytes = response.to_bytes();

    let ikm = prover.session_ikm()?;
    let mut nonce_input = Vec::with_capacity(32 + SESSION_NONCE_SIZE + response_bytes.len());
    nonce_input.extend_from_slice(b"proverguard session prover nonce");
    nonce_input.extend_from_slice(&init.verifier_nonce);
    nonce_input.extend_from_slice(&response_bytes);
    let nonce_mac = HmacSha1::mac(&ikm, &nonce_input);
    let mut prover_nonce = [0u8; SESSION_NONCE_SIZE];
    prover_nonce.copy_from_slice(&nonce_mac[..SESSION_NONCE_SIZE]);

    let accept = HandshakeAccept {
        version: CHANNEL_VERSION,
        prover_nonce,
        response: response_bytes,
    };
    let keys = SessionKeys::derive(&ikm, &transcript(init, &accept));
    Ok((
        accept,
        SecureChannel::new(keys, Role::Prover, init.rekey_after),
    ))
}

/// Verifier step 2: verifies the accept's embedded attestation response
/// against `expected_memory` using the normal response check, records
/// the verified round, and only then derives the session keys. A
/// response that fails verification derives nothing and is recorded as
/// a failed round ([`RejectReason::SessionAuth`]).
///
/// # Errors
///
/// - [`AttestError::MalformedMessage`] for version/shape problems.
/// - [`AttestError::Rejected`] with [`RejectReason::SessionAuth`] when
///   the attestation response does not verify.
pub fn verifier_confirm(
    verifier: &mut Verifier,
    init: &HandshakeInit,
    request: &AttestRequest,
    accept: &HandshakeAccept,
    expected_memory: &[u8],
) -> Result<SecureChannel, AttestError> {
    verifier_confirm_view(
        verifier,
        init,
        request,
        accept,
        &crate::imagecache::ExpectedView::uncached(expected_memory),
    )
}

/// [`verifier_confirm`] against an [`crate::imagecache::ExpectedView`]:
/// the fleet-gateway entry point, reusing the interned baseline digest
/// vector for the key-confirming attestation instead of re-sweeping the
/// expected image per handshake.
///
/// # Errors
///
/// As [`verifier_confirm`].
pub fn verifier_confirm_view(
    verifier: &mut Verifier,
    init: &HandshakeInit,
    request: &AttestRequest,
    accept: &HandshakeAccept,
    expected: &crate::imagecache::ExpectedView<'_>,
) -> Result<SecureChannel, AttestError> {
    if accept.version != CHANNEL_VERSION {
        return Err(malformed("unsupported channel version"));
    }
    let response = AttestResponse::from_bytes(&accept.response)?;
    if !verifier.check_response_view(request, &response, expected) {
        verifier.note_failed(request);
        return Err(AttestError::Rejected(RejectReason::SessionAuth));
    }
    verifier.note_verified_view(request, &response, expected);
    let keys = SessionKeys::derive(verifier.session_ikm(), &transcript(init, accept));
    Ok(SecureChannel::new(keys, Role::Verifier, init.rekey_after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::ProverConfig;

    const KEY: [u8; 16] = [0x42; 16];

    fn pair() -> (Prover, Verifier) {
        let config = ProverConfig::recommended();
        let prover = Prover::provision(config.clone(), &KEY, b"channel app").unwrap();
        let verifier = Verifier::new(&config, &KEY).unwrap();
        (prover, verifier)
    }

    fn established(rekey_after: u32) -> (SecureChannel, SecureChannel) {
        let (mut prover, mut verifier) = pair();
        let (init, request) = verifier_begin(&mut verifier, rekey_after).unwrap();
        let (accept, prover_ch) = prover_accept(&mut prover, &init).unwrap();
        let expected = prover.expected_memory().to_vec();
        let verifier_ch =
            verifier_confirm(&mut verifier, &init, &request, &accept, &expected).unwrap();
        (verifier_ch, prover_ch)
    }

    #[test]
    fn handshake_derives_matching_keys() {
        let (v, p) = established(0);
        assert_eq!(v.keys(), p.keys());
        assert_eq!(v.session_id(), p.session_id());
        assert_eq!(v.epoch(), 0);
    }

    /// Asserts `op` performs zero HKDF derivations. Other tests in this
    /// binary legitimately derive concurrently (the global counter is
    /// process-wide), so a polluted measurement is retried — an actual
    /// derive inside `op` fails on every attempt.
    fn assert_no_derives(mut op: impl FnMut()) {
        for _ in 0..8 {
            let before = key_derivations();
            op();
            if key_derivations() == before {
                return;
            }
        }
        panic!("operation derived session key material");
    }

    #[test]
    fn frames_roundtrip_both_directions() {
        let (mut v, mut p) = established(0);
        let to_p = v.seal_next(b"request payload");
        assert_eq!(p.open(&to_p).unwrap(), b"request payload");
        let to_v = p.seal_next(b"response payload");
        assert_eq!(v.open(&to_v).unwrap(), b"response payload");
    }

    #[test]
    fn replayed_frame_rejected_before_mac() {
        let (mut v, mut p) = established(0);
        let frame = v.seal_next(b"one");
        assert!(p.open(&frame).is_ok());
        assert_no_derives(|| {
            let err = p.open(&frame).unwrap_err();
            assert_eq!(err.reject_reason(), Some(RejectReason::SessionReplay));
        });
    }

    #[test]
    fn out_of_order_within_window_accepted_once() {
        let (mut v, mut p) = established(0);
        let f1 = v.seal_next(b"1");
        let f2 = v.seal_next(b"2");
        assert!(p.open(&f2).is_ok());
        assert!(p.open(&f1).is_ok(), "late frame inside the window");
        assert_eq!(
            p.open(&f1).unwrap_err().reject_reason(),
            Some(RejectReason::SessionReplay)
        );
    }

    #[test]
    fn stale_frame_behind_window_rejected() {
        let (mut v, mut p) = established(0);
        let old = v.seal_next(b"old");
        for _ in 0..REPLAY_WINDOW + 1 {
            let f = v.seal_next(b"x");
            assert!(p.open(&f).is_ok());
        }
        assert_eq!(
            p.open(&old).unwrap_err().reject_reason(),
            Some(RejectReason::SessionReplay)
        );
    }

    #[test]
    fn tampered_frame_rejected() {
        let (mut v, mut p) = established(0);
        let frame = v.seal_next(b"payload");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 1;
            let mut fresh = p.clone();
            assert!(fresh.open(&bad).is_err(), "flip at {i} must fail");
        }
        assert!(p.open(&frame).is_ok(), "pristine frame still opens");
    }

    #[test]
    fn wrong_direction_rejected_cheaply() {
        let (mut v, mut p) = established(0);
        let frame = v.seal_next(b"to prover");
        // The verifier must not accept its own direction back (reflection).
        let mut v2 = v.clone();
        assert_eq!(
            v2.open(&frame).unwrap_err().reject_reason(),
            Some(RejectReason::SessionAuth)
        );
        assert!(p.open(&frame).is_ok());
    }

    #[test]
    fn cross_session_frames_rejected_without_derives() {
        // Two *sequential* sessions of the same device: the second
        // handshake's nonces, counter and response all moved on, so its
        // keys are unrelated — captured session-1 traffic dies at the
        // frame MAC without costing the prover a single HKDF derive.
        let (mut prover, mut verifier) = pair();
        let mut channels = Vec::new();
        for _ in 0..2 {
            let (init, request) = verifier_begin(&mut verifier, 0).unwrap();
            let (accept, prover_ch) = prover_accept(&mut prover, &init).unwrap();
            let expected = prover.expected_memory().to_vec();
            let verifier_ch =
                verifier_confirm(&mut verifier, &init, &request, &accept, &expected).unwrap();
            channels.push((verifier_ch, prover_ch));
        }
        let (v2, p2) = channels.pop().unwrap();
        let (mut v1, _p1) = channels.pop().unwrap();
        assert_ne!(v1.keys(), v2.keys(), "sequential sessions share no keys");
        let frame = v1.seal_next(b"session 1 traffic");
        let mut p2 = p2;
        assert_no_derives(|| {
            assert_eq!(
                p2.open(&frame).unwrap_err().reject_reason(),
                Some(RejectReason::SessionAuth)
            );
        });
        let _ = v2;
    }

    #[test]
    fn lockstep_ratchet_keeps_channels_in_sync() {
        let (mut v, mut p) = established(2);
        for round in 1..=5u32 {
            let req = v.seal_next(b"req");
            assert!(p.open(&req).is_ok(), "round {round} request");
            let resp = p.seal_next(b"resp");
            assert!(v.open(&resp).is_ok(), "round {round} response");
            let rv = v.note_round();
            let rp = p.note_round();
            assert_eq!(rv, rp, "ratchet in lockstep");
            assert_eq!(v.keys(), p.keys());
        }
        assert_eq!(v.epoch(), 2, "5 rounds at cadence 2 → 2 ratchets");
        // Session id survives ratchets.
        assert_eq!(v.session_id(), p.session_id());
    }

    #[test]
    fn old_epoch_frames_fail_after_ratchet() {
        let (mut v, mut p) = established(1);
        let old = v.seal_next(b"epoch 0");
        assert!(p.open(&old).is_ok());
        v.note_round();
        p.note_round();
        assert_eq!(v.epoch(), 1);
        // A captured epoch-0 frame re-injected after the ratchet: the
        // sequence number is fresh again (windows reset), so it reaches
        // the MAC — and dies there, because the keys moved on.
        assert_eq!(
            p.open(&old).unwrap_err().reject_reason(),
            Some(RejectReason::SessionAuth)
        );
    }

    #[test]
    fn forged_init_derives_no_keys() {
        let (mut prover, mut verifier) = pair();
        let (mut init, _request) = verifier_begin(&mut verifier, 0).unwrap();
        // Strip the request authenticator: the pipeline must reject at
        // BadAuth and no key derivation may happen.
        let mut request = AttestRequest::from_bytes(&init.request).unwrap();
        request.auth = vec![0; request.auth.len()];
        init.request = request.to_bytes();
        assert_no_derives(|| {
            let err = prover_accept(&mut prover, &init).unwrap_err();
            assert_eq!(err.reject_reason(), Some(RejectReason::BadAuth));
        });
    }

    #[test]
    fn unknown_version_rejected_before_any_work() {
        let (mut prover, mut verifier) = pair();
        let (init, _request) = verifier_begin(&mut verifier, 0).unwrap();
        let mut bytes = init.encode();
        bytes[0] = 99;
        assert!(HandshakeInit::decode(&bytes).is_err());
        let mut wrong = init;
        wrong.version = 2;
        assert_no_derives(|| {
            let cycles_before = prover.stats().attestation_cycles;
            assert!(prover_accept(&mut prover, &wrong).is_err());
            assert_eq!(
                prover.stats().attestation_cycles,
                cycles_before,
                "version reject costs no pipeline work"
            );
        });
    }

    #[test]
    fn handshake_codecs_reject_truncation_and_trailing() {
        let (_p, mut verifier) = pair();
        let (init, _req) = verifier_begin(&mut verifier, 3).unwrap();
        let bytes = init.encode();
        assert_eq!(HandshakeInit::decode(&bytes).unwrap(), init);
        for cut in 0..bytes.len() {
            assert!(HandshakeInit::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(HandshakeInit::decode(&long).is_err());

        let accept = HandshakeAccept {
            version: CHANNEL_VERSION,
            prover_nonce: [7; SESSION_NONCE_SIZE],
            response: vec![1, 2, 3],
        };
        let bytes = accept.encode();
        assert_eq!(HandshakeAccept::decode(&bytes).unwrap(), accept);
        for cut in 0..bytes.len() {
            assert!(HandshakeAccept::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn replay_window_model() {
        let mut w = ReplayWindow::default();
        assert!(!w.check(0));
        assert!(w.check(1));
        w.commit(1);
        assert!(!w.check(1));
        w.commit(100);
        assert!(!w.check(100));
        assert!(w.check(99));
        assert!(w.check(100 - (REPLAY_WINDOW - 1)));
        assert!(!w.check(100 - REPLAY_WINDOW));
        w.commit(99);
        assert!(!w.check(99));
    }
}

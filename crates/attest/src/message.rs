//! Protocol messages and their wire encoding.
//!
//! An `attreq` carries a response scope (whole-memory, segmented, or
//! history with its `since_round` parameter), a freshness field (nonce,
//! counter or timestamp — or nothing, for the unprotected strawman), a
//! 16-byte challenge, and an authenticator computed over the serialized
//! header. The paper assumes requests fit in one primitive block (§4.1);
//! our largest header (history × nonce) is 43 bytes, within a single
//! 64-byte HMAC block.

use crate::error::AttestError;

/// Size of the challenge the verifier includes in each request.
pub const CHALLENGE_SIZE: usize = 16;

/// Size of a nonce in the nonce-history policy.
pub const NONCE_SIZE: usize = 16;

/// Protocol version byte.
pub const VERSION: u8 = 1;

/// Which response construction the verifier is asking for. The scope is
/// part of the authenticated header, so an adversary cannot downgrade a
/// segmented request into a whole-memory one (or vice versa) without
/// failing the authentication check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttestScope {
    /// One MAC over the whole writable memory — the paper's §3.1
    /// construction.
    #[default]
    Whole,
    /// `MAC(K, header ‖ seg-header ‖ d_0 ‖ b)` over the head segment's
    /// SHA-1 digest and the body digest `b` of the others, served from the
    /// prover's dirty-bit-invalidated segment cache (see
    /// [`crate::segcache`]).
    Segmented,
    /// "Which segments were written since round `since_round`, and what
    /// do the written ones contain now?" — answered from the hardware
    /// last-write epoch log in near-constant time. The response
    /// authenticates the modified-segment *set* (the TOCTOU evidence a
    /// snapshot MAC cannot give) plus fresh digests of exactly those
    /// segments.
    History {
        /// The last round the verifier holds a verified view of; `0`
        /// bootstraps (every segment reported modified).
        since_round: u64,
    },
}

impl AttestScope {
    fn scope_byte(self) -> u8 {
        match self {
            AttestScope::Whole => 0,
            AttestScope::Segmented => 1,
            AttestScope::History { .. } => 2,
        }
    }
}

/// The freshness field of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreshnessField {
    /// No freshness information (vulnerable strawman).
    None,
    /// A unique random nonce.
    Nonce([u8; NONCE_SIZE]),
    /// A monotonically increasing counter.
    Counter(u64),
    /// A verifier timestamp in milliseconds.
    Timestamp(u64),
}

impl FreshnessField {
    fn kind_byte(&self) -> u8 {
        match self {
            FreshnessField::None => 0,
            FreshnessField::Nonce(_) => 1,
            FreshnessField::Counter(_) => 2,
            FreshnessField::Timestamp(_) => 3,
        }
    }
}

/// An attestation request (`attreq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestRequest {
    /// Requested response construction.
    pub scope: AttestScope,
    /// Freshness field.
    pub freshness: FreshnessField,
    /// Verifier challenge, bound into the response MAC.
    pub challenge: [u8; CHALLENGE_SIZE],
    /// Authenticator over the serialized header (MAC tag or ECDSA
    /// signature bytes); empty when the configuration does not
    /// authenticate requests.
    pub auth: Vec<u8>,
}

/// Capacity of [`SignedBytes`]: one 64-byte HMAC block, which every
/// request header fits (the largest, history × nonce, is 43 bytes).
const SIGNED_BYTES_CAP: usize = 64;

/// The authenticated header of a request, held inline. Derefs to the
/// bytes, so it goes wherever a `&[u8]` does without touching the heap.
#[derive(Clone, Copy)]
pub struct SignedBytes {
    buf: [u8; SIGNED_BYTES_CAP],
    len: usize,
}

impl SignedBytes {
    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

impl std::ops::Deref for SignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl PartialEq for SignedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SignedBytes {}

impl std::fmt::Debug for SignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl AttestRequest {
    /// The bytes the authenticator covers: everything except `auth`.
    #[must_use]
    pub fn signed_bytes(&self) -> SignedBytes {
        let mut out = SignedBytes {
            buf: [0; SIGNED_BYTES_CAP],
            len: 0,
        };
        out.push(&[VERSION, self.scope.scope_byte()]);
        // The scope *parameter* sits under the authenticator next to its
        // byte: tampering with `since_round` (to widen or narrow the
        // window) is a cheap `BadAuth` reject like any other downgrade.
        if let AttestScope::History { since_round } = self.scope {
            out.push(&since_round.to_be_bytes());
        }
        out.push(&[self.freshness.kind_byte()]);
        match self.freshness {
            FreshnessField::None => {}
            FreshnessField::Nonce(n) => out.push(&n),
            FreshnessField::Counter(c) => out.push(&c.to_be_bytes()),
            FreshnessField::Timestamp(t) => out.push(&t.to_be_bytes()),
        }
        out.push(&self.challenge);
        out
    }

    /// Serializes the full request (header ‖ auth-length ‖ auth).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.signed_bytes().to_vec();
        out.extend_from_slice(&(self.auth.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.auth);
        out
    }

    /// Parses a request serialized by [`AttestRequest::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`AttestError::MalformedMessage`] on truncation or unknown fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let malformed = |reason: &str| AttestError::MalformedMessage {
            reason: reason.to_string(),
        };
        let mut idx = 0usize;
        let take = |idx: &mut usize, n: usize| -> Result<&[u8], AttestError> {
            let end = idx
                .checked_add(n)
                .ok_or_else(|| malformed("length overflow"))?;
            if end > bytes.len() {
                return Err(malformed("truncated message"));
            }
            let slice = &bytes[*idx..end];
            *idx = end;
            Ok(slice)
        };

        let version = take(&mut idx, 1)?[0];
        if version != VERSION {
            return Err(malformed("unsupported version"));
        }
        let scope = match take(&mut idx, 1)?[0] {
            0 => AttestScope::Whole,
            1 => AttestScope::Segmented,
            2 => AttestScope::History {
                since_round: u64::from_be_bytes(
                    take(&mut idx, 8)?.try_into().expect("slice is 8 bytes"),
                ),
            },
            _ => return Err(malformed("unknown scope")),
        };
        let kind = take(&mut idx, 1)?[0];
        let freshness = match kind {
            0 => FreshnessField::None,
            1 => {
                let mut n = [0u8; NONCE_SIZE];
                n.copy_from_slice(take(&mut idx, NONCE_SIZE)?);
                FreshnessField::Nonce(n)
            }
            2 => FreshnessField::Counter(u64::from_be_bytes(
                take(&mut idx, 8)?.try_into().expect("slice is 8 bytes"),
            )),
            3 => FreshnessField::Timestamp(u64::from_be_bytes(
                take(&mut idx, 8)?.try_into().expect("slice is 8 bytes"),
            )),
            _ => return Err(malformed("unknown freshness kind")),
        };
        let mut challenge = [0u8; CHALLENGE_SIZE];
        challenge.copy_from_slice(take(&mut idx, CHALLENGE_SIZE)?);
        let auth_len =
            u16::from_be_bytes(take(&mut idx, 2)?.try_into().expect("slice is 2 bytes")) as usize;
        let auth = take(&mut idx, auth_len)?.to_vec();
        if idx != bytes.len() {
            return Err(malformed("trailing bytes"));
        }
        Ok(AttestRequest {
            scope,
            freshness,
            challenge,
            auth,
        })
    }
}

/// An attestation response: the MAC over the prover's memory, bound to the
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestResponse {
    /// `MAC(K_Attest, request_header ‖ memory)`.
    pub report: Vec<u8>,
}

impl AttestResponse {
    /// Serializes the response.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.report.len());
        out.extend_from_slice(&(self.report.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.report);
        out
    }

    /// Parses a response serialized by [`AttestResponse::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`AttestError::MalformedMessage`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        if bytes.len() < 2 {
            return Err(AttestError::MalformedMessage {
                reason: "truncated".to_string(),
            });
        }
        let len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        if bytes.len() != 2 + len {
            return Err(AttestError::MalformedMessage {
                reason: "length mismatch".to_string(),
            });
        }
        Ok(AttestResponse {
            report: bytes[2..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(freshness: FreshnessField) -> AttestRequest {
        AttestRequest {
            scope: AttestScope::Whole,
            freshness,
            challenge: [7; CHALLENGE_SIZE],
            auth: vec![1, 2, 3],
        }
    }

    #[test]
    fn roundtrip_all_freshness_kinds() {
        for f in [
            FreshnessField::None,
            FreshnessField::Nonce([9; NONCE_SIZE]),
            FreshnessField::Counter(u64::MAX),
            FreshnessField::Timestamp(123_456),
        ] {
            let req = sample(f);
            let parsed = AttestRequest::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn signed_bytes_exclude_auth() {
        let mut req = sample(FreshnessField::Counter(5));
        let signed = req.signed_bytes();
        req.auth = vec![9, 9, 9, 9];
        assert_eq!(
            req.signed_bytes(),
            signed,
            "auth must not affect signed bytes"
        );
    }

    #[test]
    fn header_fits_one_hmac_block() {
        let req = sample(FreshnessField::Nonce([0; NONCE_SIZE]));
        assert!(
            req.signed_bytes().len() <= 64,
            "header must fit one 64-byte block"
        );
    }

    #[test]
    fn truncated_request_rejected() {
        let bytes = sample(FreshnessField::Counter(1)).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                AttestRequest::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample(FreshnessField::None).to_bytes();
        bytes.push(0);
        assert!(AttestRequest::from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_kind_scope_and_version_rejected() {
        let mut bytes = sample(FreshnessField::None).to_bytes();
        bytes[2] = 7; // freshness kind
        assert!(AttestRequest::from_bytes(&bytes).is_err());
        let mut bytes = sample(FreshnessField::None).to_bytes();
        bytes[1] = 9; // scope
        assert!(AttestRequest::from_bytes(&bytes).is_err());
        let mut bytes = sample(FreshnessField::None).to_bytes();
        bytes[0] = 99; // version
        assert!(AttestRequest::from_bytes(&bytes).is_err());
    }

    #[test]
    fn scope_roundtrips_and_is_signed() {
        let mut req = sample(FreshnessField::Counter(4));
        req.scope = AttestScope::Segmented;
        let parsed = AttestRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(parsed.scope, AttestScope::Segmented);
        // The scope byte is under the authenticator: changing it changes
        // the signed bytes, so a downgrade flips the MAC check downstream.
        let mut whole = req.clone();
        whole.scope = AttestScope::Whole;
        assert_ne!(req.signed_bytes(), whole.signed_bytes());
    }

    #[test]
    fn history_scope_roundtrips_with_since_round_signed() {
        for since_round in [0u64, 1, 7, u64::MAX] {
            let mut req = sample(FreshnessField::Counter(4));
            req.scope = AttestScope::History { since_round };
            let parsed = AttestRequest::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(parsed, req);
            assert!(
                parsed.signed_bytes().len() <= 64,
                "history header must fit one HMAC block"
            );
        }
        // `since_round` is under the authenticator: widening the window
        // by one round changes the signed bytes.
        let mut a = sample(FreshnessField::Counter(4));
        a.scope = AttestScope::History { since_round: 3 };
        let mut b = a.clone();
        b.scope = AttestScope::History { since_round: 4 };
        assert_ne!(a.signed_bytes(), b.signed_bytes());
    }

    #[test]
    fn truncated_history_request_rejected() {
        let mut req = sample(FreshnessField::Nonce([5; NONCE_SIZE]));
        req.scope = AttestScope::History { since_round: 9 };
        let bytes = req.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                AttestRequest::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = AttestResponse {
            report: vec![0xab; 20],
        };
        assert_eq!(AttestResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
        assert!(AttestResponse::from_bytes(&resp.to_bytes()[..5]).is_err());
        assert!(AttestResponse::from_bytes(&[]).is_err());
    }
}

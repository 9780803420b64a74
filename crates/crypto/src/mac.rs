//! A unifying MAC abstraction over the paper's symmetric primitives.
//!
//! §4.1 compares four ways to authenticate an attestation request:
//! SHA1-HMAC, AES-128 CBC-MAC, Speck 64/128 CBC-MAC, and ECDSA. The
//! attestation layer selects among the symmetric three via
//! [`MacAlgorithm`]; ECDSA is kept separate because it is asymmetric (and
//! because the paper rules it out).
//!
//! # Example
//!
//! ```
//! use proverguard_crypto::mac::{MacAlgorithm, MacKey};
//!
//! # fn main() -> Result<(), proverguard_crypto::CryptoError> {
//! let key = MacKey::new(MacAlgorithm::Speck64Cbc, &[9u8; 16])?;
//! let tag = key.compute(b"attreq");
//! assert!(key.verify(b"attreq", &tag));
//! assert!(!key.verify(b"forged", &tag));
//! # Ok(())
//! # }
//! ```

use crate::aes::Aes128;
use crate::cbc::{CbcMac, MAX_BLOCK_SIZE};
use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::hmac::HmacSha1;
use crate::speck::Speck64_128;
use crate::BlockCipher;

/// Selects the symmetric MAC primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MacAlgorithm {
    /// HMAC-SHA1 (20-byte tags).
    HmacSha1,
    /// AES-128 in CBC-MAC mode (16-byte tags).
    Aes128Cbc,
    /// Speck 64/128 in CBC-MAC mode (8-byte tags).
    Speck64Cbc,
}

impl MacAlgorithm {
    /// All supported algorithms, in the order of the paper's Table 1.
    pub const ALL: [MacAlgorithm; 3] = [
        MacAlgorithm::HmacSha1,
        MacAlgorithm::Aes128Cbc,
        MacAlgorithm::Speck64Cbc,
    ];

    /// Tag length in bytes.
    #[must_use]
    pub fn tag_len(self) -> usize {
        match self {
            MacAlgorithm::HmacSha1 => 20,
            MacAlgorithm::Aes128Cbc => 16,
            MacAlgorithm::Speck64Cbc => 8,
        }
    }

    /// Key length in bytes (HMAC accepts any length; 16 is the suite default).
    #[must_use]
    pub fn key_len(self) -> usize {
        16
    }

    /// Cipher block size in bytes processed per "block" of input, used by
    /// the cycle model. HMAC consumes 64-byte hash blocks.
    #[must_use]
    pub fn input_block_len(self) -> usize {
        match self {
            MacAlgorithm::HmacSha1 => 64,
            MacAlgorithm::Aes128Cbc => 16,
            MacAlgorithm::Speck64Cbc => 8,
        }
    }
}

impl std::fmt::Display for MacAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MacAlgorithm::HmacSha1 => write!(f, "SHA1-HMAC"),
            MacAlgorithm::Aes128Cbc => write!(f, "AES-128 (CBC)"),
            MacAlgorithm::Speck64Cbc => write!(f, "Speck 64/128 (CBC)"),
        }
    }
}

/// A MAC key with its primitive state expanded (the paper's "key expansion
/// done in advance" assumption): the AES and Speck round keys, or the two
/// keyed SHA-1 states of HMAC, computed once in [`MacKey::new`].
#[derive(Clone)]
pub struct MacKey {
    algorithm: MacAlgorithm,
    inner: MacKeyInner,
}

#[derive(Clone)]
enum MacKeyInner {
    /// Boxed: two keyed SHA-1 states would make every `MacKey` holder
    /// (request checkers, verifiers) 240 bytes wide.
    Hmac(Box<HmacSha1>),
    Aes(Aes128),
    Speck(Speck64_128),
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MacKey")
            .field("algorithm", &self.algorithm)
            .field("key", &"<redacted>")
            .finish()
    }
}

impl MacKey {
    /// Expands `key` for `algorithm`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyLength`] if the block ciphers receive a
    /// key that is not 16 bytes.
    pub fn new(algorithm: MacAlgorithm, key: &[u8]) -> Result<Self, CryptoError> {
        let inner = match algorithm {
            MacAlgorithm::HmacSha1 => MacKeyInner::Hmac(Box::new(HmacSha1::new(key))),
            MacAlgorithm::Aes128Cbc => MacKeyInner::Aes(Aes128::new(key)?),
            MacAlgorithm::Speck64Cbc => MacKeyInner::Speck(Speck64_128::new(key)?),
        };
        Ok(MacKey { algorithm, inner })
    }

    /// The algorithm this key is expanded for.
    #[must_use]
    pub fn algorithm(&self) -> MacAlgorithm {
        self.algorithm
    }

    /// Computes the tag over `message`.
    #[must_use]
    pub fn compute(&self, message: &[u8]) -> Vec<u8> {
        self.compute_parts(&[message])
    }

    /// Verifies `tag` over `message` in constant time.
    #[must_use]
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        self.verify_parts(&[message], tag)
    }

    /// Computes the tag over the concatenation of `parts`, streaming each
    /// part where it lies instead of building the concatenation.
    #[must_use]
    pub fn compute_parts(&self, parts: &[&[u8]]) -> Vec<u8> {
        self.stream_parts(parts).finalize().to_vec()
    }

    /// Verifies `tag` over the concatenation of `parts` in constant time.
    #[must_use]
    pub fn verify_parts(&self, parts: &[&[u8]], tag: &[u8]) -> bool {
        self.stream_parts(parts).verify(tag)
    }

    fn stream_parts(&self, parts: &[&[u8]]) -> MacStream<'_> {
        let mut stream = self.stream(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            stream.update(part);
        }
        stream
    }

    /// Starts an incremental MAC over a message of exactly `total_len`
    /// bytes (CBC-MAC prepends the length, so it must be known up front).
    /// Lets a caller feed a message it never assembles, in as many pieces
    /// as it likes, without touching the heap.
    #[must_use]
    pub fn stream(&self, total_len: usize) -> MacStream<'_> {
        let inner = match &self.inner {
            MacKeyInner::Hmac(keyed) => StreamInner::Hmac(
                HmacSha1::clone(keyed),
                proverguard_telemetry::trace::span("crypto.hmac_sha1"),
            ),
            MacKeyInner::Aes(cipher) => StreamInner::Aes(CbcMac::new(cipher, total_len)),
            MacKeyInner::Speck(cipher) => StreamInner::Speck(CbcMac::new(cipher, total_len)),
        };
        MacStream {
            inner,
            declared: total_len,
            fed: 0,
        }
    }
}

/// An incremental MAC computation started by [`MacKey::stream`].
pub struct MacStream<'a> {
    inner: StreamInner<'a>,
    declared: usize,
    fed: usize,
}

enum StreamInner<'a> {
    Hmac(HmacSha1, proverguard_telemetry::trace::SpanGuard),
    Aes(CbcMac<'a, Aes128>),
    Speck(CbcMac<'a, Speck64_128>),
}

impl MacStream<'_> {
    /// Absorbs the next bytes of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.fed += data.len();
        match &mut self.inner {
            StreamInner::Hmac(h, _) => h.update(data),
            StreamInner::Aes(mac) => mac.update(data),
            StreamInner::Speck(mac) => mac.update(data),
        }
    }

    /// Finishes the computation.
    ///
    /// # Panics
    ///
    /// In debug builds, if the bytes fed differ from the length declared
    /// to [`MacKey::stream`] (the CBC-MAC length block would be wrong).
    #[must_use]
    pub fn finalize(self) -> Tag {
        debug_assert_eq!(self.fed, self.declared, "MAC stream length mismatch");
        let mut tag = Tag {
            bytes: [0; MAX_TAG_LEN],
            len: 0,
        };
        let mut put = |bytes: &[u8]| {
            tag.bytes[..bytes.len()].copy_from_slice(bytes);
            tag.len = bytes.len();
        };
        match self.inner {
            StreamInner::Hmac(h, _span) => put(&h.finalize()),
            StreamInner::Aes(mac) => put(&mac.finalize()[..Aes128::BLOCK_SIZE]),
            StreamInner::Speck(mac) => put(&mac.finalize()[..Speck64_128::BLOCK_SIZE]),
        }
        tag
    }

    /// Finishes the computation and compares against `tag` in constant
    /// time.
    #[must_use]
    pub fn verify(self, tag: &[u8]) -> bool {
        ct_eq(&self.finalize(), tag)
    }
}

/// Longest tag any [`MacAlgorithm`] produces (HMAC-SHA1).
const MAX_TAG_LEN: usize = 20;

const _: () = assert!(MAX_BLOCK_SIZE <= MAX_TAG_LEN);

/// A computed tag, held inline; derefs to its bytes.
#[derive(Clone, Copy)]
pub struct Tag {
    bytes: [u8; MAX_TAG_LEN],
    len: usize,
}

impl std::ops::Deref for Tag {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Generic MAC trait for callers that want static dispatch.
pub trait Mac {
    /// Computes the tag over `message`.
    fn tag(&self, message: &[u8]) -> Vec<u8>;
    /// Verifies `tag` over `message` in constant time.
    fn check(&self, message: &[u8], tag: &[u8]) -> bool;
}

impl Mac for MacKey {
    fn tag(&self, message: &[u8]) -> Vec<u8> {
        self.compute(message)
    }

    fn check(&self, message: &[u8], tag: &[u8]) -> bool {
        self.verify(message, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_roundtrip() {
        for alg in MacAlgorithm::ALL {
            let key = MacKey::new(alg, &[0x42; 16]).unwrap();
            let tag = key.compute(b"attestation request");
            assert_eq!(tag.len(), alg.tag_len(), "{alg}");
            assert!(key.verify(b"attestation request", &tag), "{alg}");
            assert!(!key.verify(b"something else", &tag), "{alg}");
        }
    }

    #[test]
    fn different_keys_different_tags() {
        for alg in MacAlgorithm::ALL {
            let k1 = MacKey::new(alg, &[1; 16]).unwrap();
            let k2 = MacKey::new(alg, &[2; 16]).unwrap();
            assert_ne!(k1.compute(b"m"), k2.compute(b"m"), "{alg}");
        }
    }

    #[test]
    fn block_cipher_macs_reject_bad_key_length() {
        assert!(MacKey::new(MacAlgorithm::Aes128Cbc, &[0; 5]).is_err());
        assert!(MacKey::new(MacAlgorithm::Speck64Cbc, &[0; 5]).is_err());
        // HMAC accepts any key length.
        assert!(MacKey::new(MacAlgorithm::HmacSha1, &[0; 5]).is_ok());
    }

    #[test]
    fn stream_matches_one_shot_over_any_split() {
        let message: Vec<u8> = (0..203u32).map(|i| (i * 7) as u8).collect();
        for alg in MacAlgorithm::ALL {
            let key = MacKey::new(alg, &[5; 16]).unwrap();
            let expect = key.compute(&message);
            for cuts in [[0, 0], [1, 2], [7, 9], [8, 64], [17, 150], [203, 203]] {
                let mut stream = key.stream(message.len());
                stream.update(&message[..cuts[0]]);
                stream.update(&message[cuts[0]..cuts[1]]);
                stream.update(&message[cuts[1]..]);
                assert_eq!(&stream.finalize()[..], &expect[..], "{alg} {cuts:?}");
            }
            let mut stream = key.stream(message.len());
            stream.update(&message);
            assert!(stream.verify(&expect), "{alg}");
        }
    }

    #[test]
    fn truncated_tag_rejected() {
        for alg in MacAlgorithm::ALL {
            let key = MacKey::new(alg, &[7; 16]).unwrap();
            let tag = key.compute(b"m");
            assert!(!key.verify(b"m", &tag[..tag.len() - 1]), "{alg}");
        }
    }

    #[test]
    fn display_matches_table1_labels() {
        assert_eq!(MacAlgorithm::HmacSha1.to_string(), "SHA1-HMAC");
        assert_eq!(MacAlgorithm::Aes128Cbc.to_string(), "AES-128 (CBC)");
        assert_eq!(MacAlgorithm::Speck64Cbc.to_string(), "Speck 64/128 (CBC)");
    }

    #[test]
    fn trait_object_dispatch() {
        let key = MacKey::new(MacAlgorithm::Speck64Cbc, &[3; 16]).unwrap();
        let mac: &dyn Mac = &key;
        let tag = mac.tag(b"m");
        assert!(mac.check(b"m", &tag));
    }
}

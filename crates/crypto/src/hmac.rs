//! HMAC-SHA1 (RFC 2104).
//!
//! The paper's reference MAC: an attestation response is
//! `HMAC(K_Attest, challenge ‖ memory)`, and a request is authenticated with
//! `HMAC(K_Attest, attreq)`. Table 1 splits its cost into a *fixed* part
//! (the two key pads and the outer hash — 0.340 ms on Siskiyou Peak) and a
//! *per-block* part (one compression per 64 input bytes — 0.092 ms).
//!
//! # Example
//!
//! ```
//! use proverguard_crypto::hmac::HmacSha1;
//!
//! let mut h = HmacSha1::new(b"key");
//! h.update(b"message part 1");
//! h.update(b" and part 2");
//! let tag = h.finalize();
//! assert!(HmacSha1::verify(b"key", b"message part 1 and part 2", &tag));
//! ```

use crate::ct::ct_eq;
use crate::sha1::{Sha1, BLOCK_SIZE, DIGEST_SIZE};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Streaming HMAC-SHA1.
///
/// Both keyed hash states are computed once in [`HmacSha1::new`]; cloning a
/// keyed instance and feeding it a message skips the two key-pad
/// compressions.
#[derive(Debug, Clone)]
pub struct HmacSha1 {
    inner: Sha1,
    outer: Sha1,
}

impl HmacSha1 {
    /// Creates a MAC instance keyed with `key`.
    ///
    /// Keys longer than the 64-byte block size are first hashed, per RFC 2104.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let digest = Sha1::digest(key);
            key_block[..DIGEST_SIZE].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = key_block;
        let mut opad_key = key_block;
        for i in 0..BLOCK_SIZE {
            ipad_key[i] ^= IPAD;
            opad_key[i] ^= OPAD;
        }

        let mut inner = Sha1::new();
        inner.update(&ipad_key);
        let mut outer = Sha1::new();
        outer.update(&opad_key);
        HmacSha1 { inner, outer }
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 20-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_SIZE] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot convenience: `HMAC(key, message)`.
    #[must_use]
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; DIGEST_SIZE] {
        let _span = proverguard_telemetry::trace::span("crypto.hmac_sha1");
        let mut h = HmacSha1::new(key);
        h.update(message);
        h.finalize()
    }

    /// Verifies `tag` against `HMAC(key, message)` in constant time.
    #[must_use]
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        ct_eq(&Self::mac(key, message), tag)
    }

    /// Number of 64-byte message blocks compressed by the inner hash so far.
    ///
    /// The first block is the ipad-masked key, so `blocks - 1` is the
    /// message-block count the paper's per-block cost applies to.
    #[must_use]
    pub fn blocks_processed(&self) -> u64 {
        self.inner.blocks_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::to_hex;

    fn check(key: &[u8], data: &[u8], expected_hex: &str) {
        assert_eq!(to_hex(&HmacSha1::mac(key, data)), expected_hex);
    }

    // RFC 2202 test cases 1-7.
    #[test]
    fn rfc2202_case1() {
        check(
            &[0x0b; 20],
            b"Hi There",
            "b617318655057264e28bc0b6fb378c8ef146be00",
        );
    }

    #[test]
    fn rfc2202_case2() {
        check(
            b"Jefe",
            b"what do ya want for nothing?",
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        );
    }

    #[test]
    fn rfc2202_case3() {
        check(
            &[0xaa; 20],
            &[0xdd; 50],
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
        );
    }

    #[test]
    fn rfc2202_case4() {
        let key: Vec<u8> = (1..=25).collect();
        check(
            &key,
            &[0xcd; 50],
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
        );
    }

    #[test]
    fn rfc2202_case5() {
        check(
            &[0x0c; 20],
            b"Test With Truncation",
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
        );
    }

    #[test]
    fn rfc2202_case6_long_key() {
        check(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        );
    }

    #[test]
    fn rfc2202_case7_long_key_long_data() {
        check(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        );
    }

    #[test]
    fn verify_accepts_good_rejects_bad() {
        let tag = HmacSha1::mac(b"k", b"m");
        assert!(HmacSha1::verify(b"k", b"m", &tag));
        assert!(!HmacSha1::verify(b"k", b"m2", &tag));
        assert!(!HmacSha1::verify(b"k2", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha1::verify(b"k", b"m", &bad));
        assert!(!HmacSha1::verify(b"k", b"m", &tag[..19]));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = HmacSha1::new(b"key");
        h.update(b"abc");
        h.update(b"def");
        assert_eq!(h.finalize(), HmacSha1::mac(b"key", b"abcdef"));
    }
}

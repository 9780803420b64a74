//! CBC mode and CBC-MAC over any [`BlockCipher`].
//!
//! The paper describes the prover's attestation MAC as "a CBC-based function
//! based on a block cipher (such as AES)" or a keyed hash. This module
//! provides both CBC encryption/decryption (for the Table 1 enc/dec columns)
//! and CBC-MAC with length prepending (so the fixed-length messages used by
//! the attestation protocol are MACed securely).

use crate::error::CryptoError;
use crate::BlockCipher;

/// Encrypts `data` in place with CBC mode.
///
/// # Errors
///
/// - [`CryptoError::IvLength`] if `iv` is not one block long.
/// - [`CryptoError::BlockAlignment`] if `data` is not a whole number of
///   blocks; this crate deliberately has no padding layer because the
///   attestation protocol uses fixed-size messages.
///
/// # Example
///
/// ```
/// use proverguard_crypto::aes::Aes128;
/// use proverguard_crypto::cbc;
///
/// # fn main() -> Result<(), proverguard_crypto::CryptoError> {
/// let aes = Aes128::new(&[1u8; 16])?;
/// let mut data = [0u8; 32];
/// cbc::encrypt(&aes, &[0u8; 16], &mut data)?;
/// cbc::decrypt(&aes, &[0u8; 16], &mut data)?;
/// assert_eq!(data, [0u8; 32]);
/// # Ok(())
/// # }
/// ```
pub fn encrypt<C: BlockCipher>(cipher: &C, iv: &[u8], data: &mut [u8]) -> Result<(), CryptoError> {
    check_lengths::<C>(iv, data)?;
    let bs = C::BLOCK_SIZE;
    let mut chain = iv.to_vec();
    for block in data.chunks_exact_mut(bs) {
        for (b, c) in block.iter_mut().zip(chain.iter()) {
            *b ^= c;
        }
        cipher.encrypt_block(block);
        chain.copy_from_slice(block);
    }
    Ok(())
}

/// Decrypts `data` in place with CBC mode.
///
/// # Errors
///
/// Same conditions as [`encrypt`].
pub fn decrypt<C: BlockCipher>(cipher: &C, iv: &[u8], data: &mut [u8]) -> Result<(), CryptoError> {
    check_lengths::<C>(iv, data)?;
    let bs = C::BLOCK_SIZE;
    let mut chain = iv.to_vec();
    for block in data.chunks_exact_mut(bs) {
        let this_ct = block.to_vec();
        cipher.decrypt_block(block);
        for (b, c) in block.iter_mut().zip(chain.iter()) {
            *b ^= c;
        }
        chain.copy_from_slice(&this_ct);
    }
    Ok(())
}

fn check_lengths<C: BlockCipher>(iv: &[u8], data: &[u8]) -> Result<(), CryptoError> {
    if iv.len() != C::BLOCK_SIZE {
        return Err(CryptoError::IvLength {
            expected: C::BLOCK_SIZE,
            actual: iv.len(),
        });
    }
    if !data.len().is_multiple_of(C::BLOCK_SIZE) {
        return Err(CryptoError::BlockAlignment {
            block_size: C::BLOCK_SIZE,
            actual: data.len(),
        });
    }
    Ok(())
}

/// Computes a CBC-MAC tag (one cipher block) over `message`.
///
/// The message length is encoded into the first block and the message is
/// zero-padded to a block boundary, which makes the construction secure for
/// variable-length messages (plain CBC-MAC is only secure for fixed-length
/// input).
///
/// # Example
///
/// ```
/// use proverguard_crypto::speck::Speck64_128;
/// use proverguard_crypto::cbc::cbc_mac;
///
/// # fn main() -> Result<(), proverguard_crypto::CryptoError> {
/// let cipher = Speck64_128::new(&[3u8; 16])?;
/// let tag = cbc_mac(&cipher, b"attreq|counter=9");
/// assert_eq!(tag.len(), 8);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn cbc_mac<C: BlockCipher>(cipher: &C, message: &[u8]) -> Vec<u8> {
    cbc_mac_parts(cipher, &[message])
}

/// Computes the CBC-MAC of the concatenation of `parts` without building
/// it: equal to `cbc_mac(cipher, &parts.concat())`. The length block
/// carries the total length, and a block that straddles two parts is
/// completed in the chaining state before it is encrypted.
///
/// # Example
///
/// ```
/// use proverguard_crypto::aes::Aes128;
/// use proverguard_crypto::cbc::{cbc_mac, cbc_mac_parts};
///
/// # fn main() -> Result<(), proverguard_crypto::CryptoError> {
/// let cipher = Aes128::new(&[3u8; 16])?;
/// assert_eq!(cbc_mac_parts(&cipher, &[b"attreq|", b"memory"]), cbc_mac(&cipher, b"attreq|memory"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn cbc_mac_parts<C: BlockCipher>(cipher: &C, parts: &[&[u8]]) -> Vec<u8> {
    let total: usize = parts.iter().map(|part| part.len()).sum();
    let mut mac = CbcMac::new(cipher, total);
    for part in parts {
        mac.update(part);
    }
    mac.finalize()[..C::BLOCK_SIZE].to_vec()
}

/// Largest block size [`CbcMac`] supports (AES).
pub const MAX_BLOCK_SIZE: usize = 16;

/// Incremental CBC-MAC of a message whose total length is declared up
/// front (the length-prepend block comes first). Feeding the message in
/// any split gives the same tag as [`cbc_mac`] over the concatenation; a
/// block that straddles two updates is completed in the chaining state
/// before it is encrypted. Holds no heap state.
pub struct CbcMac<'a, C: BlockCipher> {
    cipher: &'a C,
    state: [u8; MAX_BLOCK_SIZE],
    /// Message bytes of the current block already XORed into `state`; the
    /// block is encrypted once it is full (or at the end, which zero-pads
    /// it).
    filled: usize,
    _span: proverguard_telemetry::trace::SpanGuard,
}

impl<'a, C: BlockCipher> CbcMac<'a, C> {
    /// Starts a MAC over a message of exactly `total_len` bytes.
    ///
    /// # Panics
    ///
    /// If the cipher's block is larger than [`MAX_BLOCK_SIZE`].
    #[must_use]
    pub fn new(cipher: &'a C, total_len: usize) -> Self {
        let span = proverguard_telemetry::trace::span(match C::NAME {
            "aes128" => "crypto.aes128_cbc",
            "speck64_128" => "crypto.speck64_cbc",
            _ => "crypto.cbc_mac",
        });
        let bs = C::BLOCK_SIZE;
        assert!(bs <= MAX_BLOCK_SIZE, "block size {bs} unsupported");
        // Length-prepend block: u64 big-endian length, zero padded to block size.
        let mut state = [0u8; MAX_BLOCK_SIZE];
        let len_bytes = (total_len as u64).to_be_bytes();
        let copy = len_bytes.len().min(bs);
        state[bs - copy..bs].copy_from_slice(&len_bytes[len_bytes.len() - copy..]);
        cipher.encrypt_block(&mut state[..bs]);
        CbcMac {
            cipher,
            state,
            filled: 0,
            _span: span,
        }
    }

    /// Absorbs the next bytes of the message.
    pub fn update(&mut self, mut part: &[u8]) {
        let bs = C::BLOCK_SIZE;
        let state = &mut self.state[..bs];
        if self.filled > 0 {
            let take = (bs - self.filled).min(part.len());
            xor_into(&mut state[self.filled..self.filled + take], &part[..take]);
            self.filled += take;
            part = &part[take..];
            if self.filled < bs {
                return;
            }
            self.cipher.encrypt_block(state);
        }
        let mut chunks = part.chunks_exact(bs);
        for chunk in &mut chunks {
            xor_into(state, chunk);
            self.cipher.encrypt_block(state);
        }
        let rest = chunks.remainder();
        xor_into(&mut state[..rest.len()], rest);
        self.filled = rest.len();
    }

    /// Finishes the MAC. The tag is the first `C::BLOCK_SIZE` bytes.
    #[must_use]
    pub fn finalize(mut self) -> [u8; MAX_BLOCK_SIZE] {
        if self.filled > 0 {
            self.cipher.encrypt_block(&mut self.state[..C::BLOCK_SIZE]);
        }
        self.state
    }
}

fn xor_into(state: &mut [u8], data: &[u8]) {
    for (s, m) in state.iter_mut().zip(data) {
        *s ^= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use crate::speck::Speck64_128;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn nist_sp800_38a_cbc_aes128_encrypt() {
        // NIST SP 800-38A, F.2.1.
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = from_hex("000102030405060708090a0b0c0d0e0f");
        let mut data = from_hex(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        );
        let expected = from_hex(
            "7649abac8119b246cee98e9b12e9197d\
             5086cb9b507219ee95db113a917678b2\
             73bed6b8e3c1743b7116e69e22229516\
             3ff1caa1681fac09120eca307586e1a7",
        );
        let aes = Aes128::new(&key).unwrap();
        encrypt(&aes, &iv, &mut data).unwrap();
        assert_eq!(data, expected);
        decrypt(&aes, &iv, &mut data).unwrap();
        assert_eq!(
            data,
            from_hex(
                "6bc1bee22e409f96e93d7e117393172a\
                 ae2d8a571e03ac9c9eb76fac45af8e51\
                 30c81c46a35ce411e5fbc1191a0a52ef\
                 f69f2445df4f9b17ad2b417be66c3710"
            )
        );
    }

    #[test]
    fn misaligned_data_rejected() {
        let aes = Aes128::from_key(&[0; 16]);
        let mut data = [0u8; 17];
        assert!(matches!(
            encrypt(&aes, &[0u8; 16], &mut data),
            Err(CryptoError::BlockAlignment {
                block_size: 16,
                actual: 17
            })
        ));
    }

    #[test]
    fn wrong_iv_rejected() {
        let aes = Aes128::from_key(&[0; 16]);
        let mut data = [0u8; 16];
        assert!(matches!(
            encrypt(&aes, &[0u8; 8], &mut data),
            Err(CryptoError::IvLength {
                expected: 16,
                actual: 8
            })
        ));
    }

    #[test]
    fn cbc_roundtrip_speck() {
        let cipher = Speck64_128::from_key(&[0xab; 16]);
        let mut data: Vec<u8> = (0..64u8).collect();
        let original = data.clone();
        encrypt(&cipher, &[0x11; 8], &mut data).unwrap();
        assert_ne!(data, original);
        decrypt(&cipher, &[0x11; 8], &mut data).unwrap();
        assert_eq!(data, original);
    }

    #[test]
    fn cbc_mac_distinguishes_messages() {
        let cipher = Aes128::from_key(&[5; 16]);
        let t1 = cbc_mac(&cipher, b"message one");
        let t2 = cbc_mac(&cipher, b"message two");
        assert_ne!(t1, t2);
        assert_eq!(cbc_mac(&cipher, b"message one"), t1);
    }

    #[test]
    fn cbc_mac_length_prepend_blocks_extension() {
        // A zero-padded message must not collide with its padded sibling.
        let cipher = Aes128::from_key(&[5; 16]);
        let t1 = cbc_mac(&cipher, b"abc");
        let mut padded = b"abc".to_vec();
        padded.extend_from_slice(&[0u8; 13]);
        let t2 = cbc_mac(&cipher, &padded);
        assert_ne!(t1, t2);
    }

    #[test]
    fn cbc_mac_empty_message_is_defined() {
        let cipher = Speck64_128::from_key(&[1; 16]);
        let t = cbc_mac(&cipher, b"");
        assert_eq!(t.len(), 8);
        assert_eq!(cbc_mac(&cipher, b""), t);
    }
}

//! SHA-1 (FIPS 180-4).
//!
//! SHA-1 is the hash underlying the paper's HMAC measurements (Table 1) and
//! the attestation MAC computed over the prover's writable memory. The
//! implementation is a streaming Merkle–Damgård construction over one
//! 512-bit (64-byte) compression function — the same 64-byte block
//! granularity the paper uses when it computes
//! `(512 KB / 64 B) · t_block + t_fix` for a whole-memory MAC.
//!
//! The compression function is safe scalar Rust, fully unrolled, and reads
//! whole blocks straight from the caller's slice. It is the only kernel:
//! there is no SIMD path and no runtime CPU dispatch, so the digest every
//! host computes comes from the same code the tests pin.
//!
//! # Example
//!
//! ```
//! use proverguard_crypto::sha1::Sha1;
//!
//! let digest = Sha1::digest(b"abc");
//! assert_eq!(
//!     proverguard_crypto::sha1::to_hex(&digest),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d"
//! );
//! ```

/// Digest size in bytes.
pub const DIGEST_SIZE: usize = 20;

/// Compression-function block size in bytes.
pub const BLOCK_SIZE: usize = 64;

const H0: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

/// Streaming SHA-1 hasher.
///
/// # Example
///
/// ```
/// use proverguard_crypto::sha1::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha1::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; BLOCK_SIZE],
    buffered: usize,
    total_len: u64,
    /// Number of 64-byte compression-function invocations so far. Exposed so
    /// the MCU cycle model can charge a per-block cost exactly as the paper's
    /// Table 1 does.
    blocks_processed: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            buffer: [0; BLOCK_SIZE],
            buffered: 0,
            total_len: 0,
            blocks_processed: 0,
        }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let _span = proverguard_telemetry::trace::span("crypto.sha1");
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input. Whole blocks are compressed straight from
    /// `data`; only a partial block at either end is buffered.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK_SIZE - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_SIZE {
                return;
            }
            self.blocks_processed += 1;
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<BLOCK_SIZE>();
        self.blocks_processed += blocks.len() as u64;
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pads, compresses the final block(s) and returns the digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        // Buffered bytes, 0x80, zeros, then the 64-bit bit length: one
        // block if the length fits after the buffered bytes, else two.
        let mut tail = [0u8; BLOCK_SIZE * 2];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let tail_len = if self.buffered < BLOCK_SIZE - 8 {
            BLOCK_SIZE
        } else {
            BLOCK_SIZE * 2
        };
        tail[tail_len - 8..tail_len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        for block in tail[..tail_len].as_chunks::<BLOCK_SIZE>().0 {
            compress(&mut self.state, block);
        }

        let mut out = [0u8; DIGEST_SIZE];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }

    /// Number of 64-byte blocks compressed so far (before finalization padding).
    #[must_use]
    pub fn blocks_processed(&self) -> u64 {
        self.blocks_processed
    }
}

/// The SHA-1 compression function: folds one 64-byte block into `state`.
///
/// The 80 steps are unrolled as 4 × 20 by macro. Each step writes its
/// result into the register that holds `e` and rotates `b`; the next step
/// renames the roles (`e` becomes the new `a`) instead of moving five
/// values. The message schedule is a rolling 16-word window: step `t ≥ 16`
/// stores `w[t]` in slot `t mod 16`, over `w[t - 16]`, which no later step
/// reads.
fn compress(state: &mut [u32; 5], block: &[u8; BLOCK_SIZE]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    macro_rules! step {
        ($t:expr, $f:ident, $k:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
            if $t >= 16 {
                // w[t] = rotl1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16]), mod 16.
                w[$t % 16] = (w[($t + 13) % 16] ^ w[($t + 8) % 16] ^ w[($t + 2) % 16] ^ w[$t % 16])
                    .rotate_left(1);
            }
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(w[$t % 16]);
            $b = $b.rotate_left(30);
        };
    }
    // Five steps bring the register roles back to `a, b, c, d, e`.
    macro_rules! five {
        ($t:expr, $f:ident, $k:expr) => {
            step!($t, $f, $k, a, b, c, d, e);
            step!($t + 1, $f, $k, e, a, b, c, d);
            step!($t + 2, $f, $k, d, e, a, b, c);
            step!($t + 3, $f, $k, c, d, e, a, b);
            step!($t + 4, $f, $k, b, c, d, e, a);
        };
    }
    macro_rules! twenty {
        ($t:expr, $f:ident, $k:expr) => {
            five!($t, $f, $k);
            five!($t + 5, $f, $k);
            five!($t + 10, $f, $k);
            five!($t + 15, $f, $k);
        };
    }
    twenty!(0, ch, 0x5a82_7999);
    twenty!(20, parity, 0x6ed9_eba1);
    twenty!(40, maj, 0x8f1b_bcdc);
    twenty!(60, parity, 0xca62_c1d6);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// Renders a digest (or any byte slice) as lowercase hex.
///
/// # Example
///
/// ```
/// assert_eq!(proverguard_crypto::sha1::to_hex(&[0xde, 0xad]), "dead");
/// ```
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(data: &[u8]) -> String {
        to_hex(&Sha1::digest(data))
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex_digest(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&data),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let expected = Sha1::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn block_counter_counts_compressions() {
        let mut h = Sha1::new();
        h.update(&[0u8; 64 * 3]);
        assert_eq!(h.blocks_processed(), 3);
        h.update(&[0u8; 10]);
        assert_eq!(h.blocks_processed(), 3);
    }

    #[test]
    fn exact_block_boundary_padding() {
        // 55, 56, 63, 64, 65 bytes exercise every padding branch.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xa5u8; len];
            let d1 = Sha1::digest(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}

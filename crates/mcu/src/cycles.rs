//! The 24 MHz cycle clock and the Table 1 cost calibration.
//!
//! The paper prices every prover-side operation in milliseconds on a
//! 24 MHz Intel Siskiyou Peak (Table 1). The simulation keeps the same
//! accounting: device-side work consumes *cycles* from a [`CostTable`]
//! whose constants are the paper's measurements converted to cycles at
//! 24 MHz. This substitution is documented in `DESIGN.md` §3 — the
//! absolute constants come from the paper, while the host timings of our
//! own primitives (`table1`, `perfbench --trace 1`) independently
//! validate the *relative* shape.

use std::time::Duration;

use proverguard_crypto::mac::MacAlgorithm;

/// The prover CPU frequency: 24 MHz, as in the paper.
pub const CLOCK_HZ: u64 = 24_000_000;

/// Converts milliseconds (as reported in Table 1) to cycles at 24 MHz.
#[must_use]
pub fn ms_to_cycles(ms: f64) -> u64 {
    (ms * 1e-3 * CLOCK_HZ as f64).round() as u64
}

/// Converts cycles at 24 MHz back to milliseconds.
#[must_use]
pub fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ as f64 * 1e3
}

/// A monotonically increasing cycle counter at [`CLOCK_HZ`].
///
/// # Example
///
/// ```
/// use proverguard_mcu::cycles::CycleClock;
///
/// let mut clock = CycleClock::new();
/// clock.advance(24_000); // 1 ms at 24 MHz
/// assert_eq!(clock.elapsed().as_millis(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleClock {
    cycles: u64,
}

impl CycleClock {
    /// A clock at cycle zero.
    #[must_use]
    pub fn new() -> Self {
        CycleClock { cycles: 0 }
    }

    /// Total cycles elapsed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances by `cycles`.
    pub fn advance(&mut self, cycles: u64) {
        self.cycles = self.cycles.saturating_add(cycles);
    }

    /// Elapsed wall time at 24 MHz.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos((self.cycles as f64 / CLOCK_HZ as f64 * 1e9) as u64)
    }
}

/// Per-operation cycle costs calibrated from the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    /// HMAC fixed cost (key pads + outer hash): 0.340 ms.
    pub hmac_fixed: u64,
    /// HMAC per-64-byte-block cost: 0.092 ms.
    pub hmac_per_block: u64,
    /// AES-128 key expansion: 0.074 ms.
    pub aes_key_expansion: u64,
    /// AES-128 CBC encryption per 16-byte block: 0.288 ms.
    pub aes_enc_per_block: u64,
    /// AES-128 CBC decryption per 16-byte block: 0.570 ms.
    pub aes_dec_per_block: u64,
    /// Speck 64/128 key expansion: 0.016 ms.
    pub speck_key_expansion: u64,
    /// Speck encryption per 8-byte block: 0.017 ms.
    pub speck_enc_per_block: u64,
    /// Speck decryption per 8-byte block: 0.015 ms.
    pub speck_dec_per_block: u64,
    /// ECDSA secp160r1 signature: 183.464 ms.
    pub ecdsa_sign: u64,
    /// ECDSA secp160r1 verification: 170.907 ms.
    pub ecdsa_verify: u64,
}

impl Default for CostTable {
    fn default() -> Self {
        Self::siskiyou_peak()
    }
}

impl CostTable {
    /// The Table 1 calibration (Intel Siskiyou Peak at 24 MHz).
    #[must_use]
    pub fn siskiyou_peak() -> Self {
        CostTable {
            hmac_fixed: ms_to_cycles(0.340),
            hmac_per_block: ms_to_cycles(0.092),
            aes_key_expansion: ms_to_cycles(0.074),
            aes_enc_per_block: ms_to_cycles(0.288),
            aes_dec_per_block: ms_to_cycles(0.570),
            speck_key_expansion: ms_to_cycles(0.016),
            speck_enc_per_block: ms_to_cycles(0.017),
            speck_dec_per_block: ms_to_cycles(0.015),
            ecdsa_sign: ms_to_cycles(183.464),
            ecdsa_verify: ms_to_cycles(170.907),
        }
    }

    /// Cycles to MAC `len` bytes with `alg` (key already expanded).
    ///
    /// For HMAC this is the paper's `fixed + blocks · per_block` formula;
    /// for the CBC-MACs it is one encryption per cipher block (plus the
    /// length-prepend block our construction adds).
    #[must_use]
    pub fn mac_cost(&self, alg: MacAlgorithm, len: usize) -> u64 {
        let blocks = len.div_ceil(alg.input_block_len()) as u64;
        match alg {
            MacAlgorithm::HmacSha1 => self.hmac_fixed + blocks * self.hmac_per_block,
            MacAlgorithm::Aes128Cbc => (blocks + 1) * self.aes_enc_per_block,
            MacAlgorithm::Speck64Cbc => (blocks + 1) * self.speck_enc_per_block,
        }
    }

    /// Cycles for the paper's §3.1 example: one HMAC over the whole
    /// writable memory, computed with the formula the paper prints
    /// (`(512 KB / 64 B) · t_block + t_fix`).
    #[must_use]
    pub fn whole_memory_mac(&self, memory_bytes: usize) -> u64 {
        self.mac_cost(MacAlgorithm::HmacSha1, memory_bytes)
    }

    /// Cycles to SHA-1-digest `len` arbitrary bytes (unkeyed — no HMAC
    /// pads, no key schedule): one compression per padded 64-byte block
    /// at the Table 1 per-block rate. This is what one segment of the
    /// incremental attestation cache costs to (re)digest.
    #[must_use]
    pub fn sha1_digest_cost(&self, len: usize) -> u64 {
        // Merkle–Damgård padding: 0x80 plus the 8-byte length word.
        ((len + 9).div_ceil(64) as u64) * self.hmac_per_block
    }

    /// Cycles to verify an authenticated request with `alg` (recompute MAC
    /// + compare).
    ///
    /// §4.1 assumes "messages fit into one block for each cryptographic
    /// primitive", which yields its quoted figures: HMAC 0.430 ms
    /// (fixed + one block), AES 0.288 ms (one block encryption, key
    /// already expanded), Speck 0.017 ms. We follow that convention here;
    /// [`CostTable::mac_cost`] is the general multi-block formula used for
    /// memory measurement.
    #[must_use]
    pub fn request_check_cost(&self, alg: MacAlgorithm) -> u64 {
        match alg {
            MacAlgorithm::HmacSha1 => self.hmac_fixed + self.hmac_per_block,
            MacAlgorithm::Aes128Cbc => self.aes_enc_per_block,
            MacAlgorithm::Speck64Cbc => self.speck_enc_per_block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_cycles_roundtrip() {
        assert_eq!(ms_to_cycles(1.0), 24_000);
        assert!((cycles_to_ms(24_000) - 1.0).abs() < 1e-9);
        assert_eq!(ms_to_cycles(0.340), 8_160);
    }

    #[test]
    fn clock_advances_and_converts() {
        let mut c = CycleClock::new();
        assert_eq!(c.cycles(), 0);
        c.advance(CLOCK_HZ); // one second
        assert_eq!(c.elapsed(), Duration::from_secs(1));
        c.advance(u64::MAX); // saturates instead of wrapping
        assert_eq!(c.cycles(), u64::MAX);
    }

    #[test]
    fn whole_memory_mac_matches_paper_754ms() {
        // §3.1 prints "(512 KB/64 B)·0.340 ms + 0.120 ms = 754.032 ms",
        // which is internally inconsistent (the printed constants do not
        // produce the printed result; 754.032 equals exactly
        // 8196 · 0.092, i.e. message blocks plus HMAC's four extra
        // compressions). Our fixed+per-block model gives 754.004 ms —
        // within 0.03 ms of the paper's figure.
        let table = CostTable::siskiyou_peak();
        let cycles = table.whole_memory_mac(512 * 1024);
        let ms = cycles_to_ms(cycles);
        assert!((ms - 754.032).abs() < 0.05, "got {ms} ms");
    }

    #[test]
    fn request_check_single_block_costs() {
        let table = CostTable::siskiyou_peak();
        // §4.1: "a SHA-1-based HMAC can be validated in 0.430 ms" — one
        // 64-byte block: 0.340 + 0.092 = 0.432 (the paper rounds).
        let hmac_ms = cycles_to_ms(table.request_check_cost(MacAlgorithm::HmacSha1));
        assert!((hmac_ms - 0.432).abs() < 0.005, "got {hmac_ms} ms");

        // §4.1: AES "slightly better" — 0.288 ms single-block check.
        let aes_ms = cycles_to_ms(table.request_check_cost(MacAlgorithm::Aes128Cbc));
        assert!((aes_ms - 0.288).abs() < 1e-6, "got {aes_ms} ms");
        assert!(aes_ms < hmac_ms);

        // §4.1: Speck "reduces the cost even further, to 0.015 ms, if key
        // expansion is done in advance" (enc direction: 0.017 ms).
        let speck_ms = cycles_to_ms(table.request_check_cost(MacAlgorithm::Speck64Cbc));
        assert!((speck_ms - 0.017).abs() < 1e-6, "got {speck_ms} ms");
    }

    #[test]
    fn ecc_is_three_orders_slower_than_speck() {
        let table = CostTable::siskiyou_peak();
        let speck = table.request_check_cost(MacAlgorithm::Speck64Cbc);
        assert!(table.ecdsa_verify > 1000 * speck);
    }

    #[test]
    fn sha1_digest_cost_tracks_blocks_without_hmac_fixed() {
        let table = CostTable::siskiyou_peak();
        // 55 bytes pad into one block; 56 spill into two.
        assert_eq!(table.sha1_digest_cost(55), table.hmac_per_block);
        assert_eq!(table.sha1_digest_cost(56), 2 * table.hmac_per_block);
        // An unkeyed digest never pays the HMAC fixed cost: one segment
        // costs strictly less than HMACing the same bytes.
        let seg = 8 * 1024;
        assert!(table.sha1_digest_cost(seg) < table.mac_cost(MacAlgorithm::HmacSha1, seg));
    }

    #[test]
    fn mac_cost_scales_linearly() {
        let table = CostTable::siskiyou_peak();
        let one = table.mac_cost(MacAlgorithm::HmacSha1, 64);
        let ten = table.mac_cost(MacAlgorithm::HmacSha1, 640);
        assert_eq!(ten - one, 9 * table.hmac_per_block);
    }

    #[test]
    fn conversion_round_trips_at_the_bottom() {
        assert_eq!(cycles_to_ms(0), 0.0);
        assert_eq!(ms_to_cycles(0.0), 0);
        // A single cycle survives the trip through milliseconds exactly:
        // 1/24e6 s is representable to far more precision than f64 loses.
        assert_eq!(ms_to_cycles(cycles_to_ms(1)), 1);
        // The trip is exact while the conversion's ~2-ULP rounding error
        // stays under half a cycle — i.e. up to about 2^50 cycles (~1.3
        // years of device time); spot-check the top of that range.
        let exact = 1u64 << 50;
        assert_eq!(ms_to_cycles(cycles_to_ms(exact)), exact);
    }

    #[test]
    fn conversion_round_trips_near_u64_max() {
        // Above 2^53, f64 can no longer hold every integer, so the trip
        // is only exact to f64 relative precision (~2^-52) — but it must
        // land within that error, not wrap or saturate to garbage.
        let got = ms_to_cycles(cycles_to_ms(u64::MAX));
        assert!(
            got.abs_diff(u64::MAX) <= 4096,
            "round trip of u64::MAX landed at {got}"
        );
    }

    #[test]
    fn ms_to_cycles_saturates_on_pathological_input() {
        // Rust's f64→u64 `as` cast saturates; the conversion inherits
        // that instead of wrapping or panicking.
        assert_eq!(ms_to_cycles(f64::MAX), u64::MAX);
        assert_eq!(ms_to_cycles(f64::INFINITY), u64::MAX);
        assert_eq!(ms_to_cycles(-1.0), 0);
        assert_eq!(ms_to_cycles(f64::NAN), 0);
    }
}

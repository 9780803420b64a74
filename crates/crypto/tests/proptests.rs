//! Property-based tests for the cryptographic primitives: algebraic laws,
//! bijectivity, and cross-checks between independent code paths.

use proptest::prelude::*;

use proverguard_crypto::aes::Aes128;
use proverguard_crypto::bignum::U384;
use proverguard_crypto::cbc;
use proverguard_crypto::drbg::HmacDrbg;
use proverguard_crypto::ecc::{Curve, Point};
use proverguard_crypto::ecdsa::SigningKey;
use proverguard_crypto::hmac::HmacSha1;
use proverguard_crypto::mac::{MacAlgorithm, MacKey};
use proverguard_crypto::sha1::Sha1;
use proverguard_crypto::speck::Speck64_128;
use proverguard_crypto::BlockCipher;

proptest! {
    // ---- hashing -------------------------------------------------------------

    #[test]
    fn sha1_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn sha1_distinct_on_flipped_bit(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        flip in 0usize..256,
    ) {
        let mut other = data.clone();
        let i = flip % data.len();
        other[i] ^= 0x01;
        prop_assert_ne!(Sha1::digest(&data), Sha1::digest(&other));
    }

    #[test]
    fn hmac_tag_never_equals_plain_hash(
        key in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        prop_assert_ne!(HmacSha1::mac(&key, &data), Sha1::digest(&data));
    }

    // ---- block ciphers --------------------------------------------------------

    #[test]
    fn aes_is_a_bijection_per_key(key in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        prop_assume!(a != b);
        let aes = Aes128::from_key(&key);
        let (mut ca, mut cb) = (a, b);
        aes.encrypt_block(&mut ca);
        aes.encrypt_block(&mut cb);
        prop_assert_ne!(ca, cb, "distinct plaintexts must map to distinct ciphertexts");
    }

    #[test]
    fn speck_is_a_bijection_per_key(key in any::<[u8; 16]>(), a in any::<[u8; 8]>(), b in any::<[u8; 8]>()) {
        prop_assume!(a != b);
        let speck = Speck64_128::from_key(&key);
        let (mut ca, mut cb) = (a, b);
        speck.encrypt_block(&mut ca);
        speck.encrypt_block(&mut cb);
        prop_assert_ne!(ca, cb);
    }

    #[test]
    fn cbc_ciphertext_depends_on_iv(
        key in any::<[u8; 16]>(),
        iv1 in any::<[u8; 16]>(),
        iv2 in any::<[u8; 16]>(),
        seed in any::<u8>(),
    ) {
        prop_assume!(iv1 != iv2);
        let aes = Aes128::from_key(&key);
        let plain: Vec<u8> = (0..32).map(|i| seed.wrapping_add(i)).collect();
        let mut c1 = plain.clone();
        let mut c2 = plain.clone();
        cbc::encrypt(&aes, &iv1, &mut c1).expect("aligned");
        cbc::encrypt(&aes, &iv2, &mut c2).expect("aligned");
        prop_assert_ne!(c1, c2);
    }

    #[test]
    fn mac_verification_rejects_any_tag_tamper(
        key in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        alg_idx in 0usize..3,
        flip_byte in any::<u8>(),
        flip_pos in 0usize..20,
    ) {
        prop_assume!(flip_byte != 0);
        let alg = MacAlgorithm::ALL[alg_idx];
        let mac = MacKey::new(alg, &key).expect("key");
        let mut tag = mac.compute(&msg);
        let pos = flip_pos % tag.len();
        tag[pos] ^= flip_byte;
        prop_assert!(!mac.verify(&msg, &tag));
    }

    #[test]
    fn mac_parts_equal_mac_of_concatenation(
        key in any::<[u8; 16]>(),
        lens in proptest::collection::vec(0usize..160, 1..5),
        empty_mask in any::<u8>(),
        fill in any::<u8>(),
    ) {
        // Lengths 0..160 straddle the 8-, 16- and 64-byte blocks of all
        // three primitives; `empty_mask` empties about half the parts.
        let parts: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let len = if empty_mask & (1 << i) != 0 { 0 } else { len };
                (0..len).map(|j| fill.wrapping_add((i * 61 + j) as u8)).collect()
            })
            .collect();
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let concat = parts.concat();
        for alg in MacAlgorithm::ALL {
            let mac = MacKey::new(alg, &key).expect("key");
            let tag = mac.compute(&concat);
            prop_assert_eq!(mac.compute_parts(&refs), tag.clone());
            prop_assert!(mac.verify_parts(&refs, &tag));
        }
    }

    // ---- DRBG ------------------------------------------------------------------

    #[test]
    fn drbg_streams_do_not_repeat_within_run(seed in any::<[u8; 16]>()) {
        let mut rng = HmacDrbg::new(&seed, b"pt");
        let a = rng.generate(20);
        let b = rng.generate(20);
        let c = rng.generate(20);
        prop_assert_ne!(&a, &b);
        prop_assert_ne!(&b, &c);
        prop_assert_ne!(&a, &c);
    }

}

// Curve group laws get few cases: each scalar multiplication costs
// milliseconds in debug builds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn point_addition_commutes(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let curve = Curve::secp160r1();
        let g = curve.generator();
        let pa = curve.scalar_mul(&U384::from_u64(a), &g);
        let pb = curve.scalar_mul(&U384::from_u64(b), &g);
        prop_assert_eq!(curve.add(&pa, &pb), curve.add(&pb, &pa));
    }

    #[test]
    fn scalar_mul_is_homomorphic(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let curve = Curve::secp160r1();
        let g = curve.generator();
        let lhs = curve.scalar_mul(&U384::from_u64(a).wrapping_add(&U384::from_u64(b)), &g);
        let rhs = curve.add(
            &curve.scalar_mul(&U384::from_u64(a), &g),
            &curve.scalar_mul(&U384::from_u64(b), &g),
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_mul_results_stay_on_curve(k in 1u64..u64::MAX) {
        let curve = Curve::secp160r1();
        let p = curve.scalar_mul(&U384::from_u64(k), &curve.generator());
        prop_assert!(curve.is_on_curve(&p));
        prop_assert!(!matches!(p, Point::Infinity));
    }

    #[test]
    fn ecdsa_roundtrip_random_seeds_and_messages(
        seed in any::<[u8; 8]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig).is_ok());
        let mut other = msg.clone();
        other.push(0);
        prop_assert!(key.verifying_key().verify(&other, &sig).is_err());
    }
}

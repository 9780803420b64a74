//! Golden vectors: frozen byte-level expectations for the formats a
//! deployed fleet depends on. These hex strings were produced by this
//! codebase and then **frozen** — any change to key derivation, MAC
//! layout, record encoding, segment-digest construction or the wire
//! protocol flips one of these tests, turning a silent compatibility
//! break into a loud one. If a test here fails, either revert the
//! format change or bump the relevant version byte/magic AND these
//! vectors in the same commit.

use proverguard_attest::imagecache::{CachedImage, ImageKey};
use proverguard_attest::message::{AttestRequest, AttestScope, FreshnessField};
use proverguard_attest::persist::{EpochLogRecord, FreshnessRecord, RECORD_LEN};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::segcache::{body_digest, combined_input, segment_digest, segment_digests};
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_crypto::mac::{MacAlgorithm, MacKey};
use proverguard_mcu::memory::{FRESHNESS_LEN, HEAD_LEN};

const KEY: [u8; 16] = [0x42; 16];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The deterministic 1 KiB test memory: byte i holds i mod 256.
fn test_memory() -> Vec<u8> {
    (0..1024u32).map(|i| i as u8).collect()
}

/// The deterministic request header used for the MAC vectors.
fn test_request() -> AttestRequest {
    AttestRequest {
        scope: AttestScope::Whole,
        freshness: FreshnessField::Counter(7),
        challenge: [0x11; 16],
        auth: Vec::new(),
    }
}

#[test]
fn whole_memory_hmac_sha1_vector() {
    let key = MacKey::new(MacAlgorithm::HmacSha1, &KEY).unwrap();
    let mut macced = test_request().signed_bytes().to_vec();
    macced.extend_from_slice(&test_memory());
    assert_eq!(
        hex(&key.compute(&macced)),
        "3e4c78075877636d004ea2867176bf5140360691",
        "whole-memory MAC construction changed"
    );
}

#[test]
fn segmented_combine_mac_vector() {
    let key = MacKey::new(MacAlgorithm::HmacSha1, &KEY).unwrap();
    let memory = test_memory();
    let mut request = test_request();
    request.scope = AttestScope::Segmented;
    let digests = segment_digests(&memory, 256);
    // The freshness words, the rest of the first 256 bytes, 3 more.
    assert_eq!(digests.len(), 5);
    assert_eq!(digests[0], segment_digest(0, &memory[..FRESHNESS_LEN]));
    assert_eq!(
        hex(&digests[0]),
        "349d2ceab3402baf602305953072cf95cbb5cec7",
        "per-segment digest construction changed"
    );
    let combined = combined_input(&request.signed_bytes(), 256, &digests);
    assert_eq!(
        hex(&key.compute(&combined)),
        "c4a3011121535d22ed104d48ddc05100ca33b752",
        "segmented combine-MAC construction changed"
    );
}

/// The combine MAC at the recommended 8 KiB granularity over a full
/// 512 KiB RAM image: 66 digests, because the 16 freshness bytes and the
/// rest of the reserved head are segments of their own and the rest of
/// the first 8 KiB is the next one. The MAC covers the head digest and
/// the body digest of the other 65.
#[test]
fn segmented_combine_mac_8k_vector() {
    let key = MacKey::new(MacAlgorithm::HmacSha1, &KEY).unwrap();
    let memory: Vec<u8> = (0..512 * 1024u32).map(|i| (i % 251) as u8).collect();
    let mut request = test_request();
    request.scope = AttestScope::Segmented;
    let digests = segment_digests(&memory, 8192);
    assert_eq!(digests.len(), 66);
    assert_eq!(digests[0], segment_digest(0, &memory[..FRESHNESS_LEN]));
    assert_eq!(
        digests[1],
        segment_digest(1, &memory[FRESHNESS_LEN..HEAD_LEN])
    );
    assert_eq!(digests[2], segment_digest(2, &memory[HEAD_LEN..8192]));
    assert_eq!(digests[65], segment_digest(65, &memory[63 * 8192..]));
    assert_eq!(
        hex(&digests[0]),
        "349d2ceab3402baf602305953072cf95cbb5cec7",
        "head segment digest changed"
    );
    let combined = combined_input(&request.signed_bytes(), 8192, &digests);
    assert_eq!(
        hex(&key.compute(&combined)),
        "bfdd21ae105b8be07bbcb6ceffce001557c476f9",
        "66-digest combine-MAC construction changed"
    );
}

/// The body digest `b = SHA1("proverguard-body-v1" ‖ 65 ‖ d_1 … d_65)`
/// of the same 8 KiB-granularity image, frozen: the prover caches it and
/// every same-image device's verify reads it from the interned baseline,
/// so the cached copy must equal the from-scratch one.
#[test]
fn segmented_body_digest_8k_vector() {
    let memory: Vec<u8> = (0..512 * 1024u32).map(|i| (i % 251) as u8).collect();
    let digests = segment_digests(&memory, 8192);
    assert_eq!(
        hex(&body_digest(&digests[1..])),
        "51304456fc7b6a11ec1b7962257531dd1dca46cf",
        "body digest construction changed"
    );
    let cached = CachedImage::compute(memory, 8192);
    assert_eq!(cached.body_digest(), &body_digest(&digests[1..]));
}

#[test]
fn request_wire_encoding_vector() {
    // 27-byte header (version ‖ scope ‖ kind ‖ counter ‖ challenge) plus
    // the empty-auth length: the exact bytes a v1 radio stack emits.
    assert_eq!(
        hex(&test_request().to_bytes()),
        "0100020000000000000007111111111111111111111111111111110000"
    );
}

#[test]
fn sealed_freshness_record_v2_vector() {
    let record = FreshnessRecord {
        counter_r: 7,
        sync_counter: 2,
        command_counter: 3,
        synced_ms: 1234,
        admission_tokens: 99,
        admission_refill_mark: 1000,
    };
    let encoded = record.encode();
    assert_eq!(encoded.len(), RECORD_LEN);
    assert_eq!(&encoded[..8], b"PGNVREC2", "record magic changed");

    let key = MacKey::new(MacAlgorithm::HmacSha1, &KEY).unwrap();
    let sealed = record.seal(&key);
    assert_eq!(hex(&sealed), "50474e5652454332070000000000000002000000000000000300000000000000d2040000000000006300000000000000e803000000000000e8e739a9c4c1b91701804e1a79a4b5fe23c939ea");
    // And the frozen bytes must keep opening.
    let reopened = FreshnessRecord::open_sealed(&sealed, &key).expect("seal roundtrip");
    assert_eq!(reopened.counter_r, 7);
    assert_eq!(reopened.admission_refill_mark, 1000);
}

/// A full two-round wire session under the recommended config. The
/// verifier's nonces/challenges come from `HmacDrbg(K, "proverguard-
/// verifier-nonces")` and the prover image is fixed, so every byte on
/// the wire is reproducible.
#[test]
fn wire_session_transcript_vector() {
    let config = ProverConfig::recommended();
    let mut prover = Prover::provision(config.clone(), &KEY, b"golden app v1").unwrap();
    let mut verifier = Verifier::new(&config, &KEY).unwrap();

    let req1 = verifier.make_request().unwrap();
    let resp1 = prover.handle_wire_request(&req1.to_bytes()).unwrap();
    assert_eq!(
        hex(&req1.to_bytes()),
        "0100020000000000000001affe5585d360c46afbadbf3191df6489000815a152e65974f73e"
    );
    assert_eq!(hex(&resp1), "0014013a28e140ed8dd7536053b6644030d4479aeb68");

    let req2 = verifier.make_request().unwrap();
    let resp2 = prover.handle_wire_request(&req2.to_bytes()).unwrap();
    assert_eq!(
        hex(&req2.to_bytes()),
        "010002000000000000000239c7d24eca9db883ecfc350e16e1416a00084e941f6086aa46da"
    );
    assert_eq!(hex(&resp2), "0014d7327903b16915a7037a97ef76ebbc0a9325c475");
}

/// Two-round History session freeze: the bootstrap round (scope byte 2,
/// `since_round = 0`, full coverage) and the first quiescent incremental
/// round. The response bytes carry the canonical `HistoryReport` bitmap
/// ahead of the MAC, so this pins the report encoding on the wire too.
#[test]
fn history_session_transcript_vector() {
    let config = ProverConfig::recommended_segmented();
    let mut prover = Prover::provision(config.clone(), &KEY, b"golden app v1").unwrap();
    let mut verifier = Verifier::new(&config, &KEY).unwrap();
    verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });

    let req1 = verifier.make_request().unwrap();
    assert_eq!(
        req1.scope,
        AttestScope::History { since_round: 0 },
        "History policy must bootstrap from round 0"
    );
    let resp1_raw = prover.handle_wire_request(&req1.to_bytes()).unwrap();
    assert_eq!(hex(&req1.to_bytes()), "01020000000000000000020000000000000001affe5585d360c46afbadbf3191df64890008f950deb42be9182f");
    assert_eq!(
        hex(&resp1_raw),
        "0029000000000000000100000042ffffffffffffffff0392fd022c4fefa98ef64844f0de9f3bced86e31c1",
        "history bootstrap report (round 1, full coverage) changed"
    );
    let resp1 =
        proverguard_attest::message::AttestResponse::from_bytes(&resp1_raw).expect("response");
    assert!(verifier.check_response(&req1, &resp1, prover.expected_memory()));
    let expected = prover.expected_memory().to_vec();
    verifier.note_verified(&req1, &resp1, &expected);

    let req2 = verifier.make_request().unwrap();
    assert_eq!(req2.scope, AttestScope::History { since_round: 1 });
    let resp2_raw = prover.handle_wire_request(&req2.to_bytes()).unwrap();
    assert_eq!(hex(&req2.to_bytes()), "0102000000000000000102000000000000000239c7d24eca9db883ecfc350e16e1416a00085b9f05584da195c3");
    assert_eq!(
        hex(&resp2_raw),
        "0029000000000000000200000042010000000000000000fafcf749e46678ef12b3bd199bd68709add0f826",
        "quiescent history report (round 2, only the counter segment) changed"
    );
    let resp2 =
        proverguard_attest::message::AttestResponse::from_bytes(&resp2_raw).expect("response");
    assert!(verifier.check_response(&req2, &resp2, prover.expected_memory()));
}

/// The fleet digest cache's image key: `SHA1("proverguard-imgkey-v1" ‖
/// segment_len ‖ image_len ‖ image)`, frozen. Verifier deployments may
/// persist these keys (dashboards, logs, cross-gateway dedup), so the
/// derivation must stay stable — and stay bound to *both* the image
/// bytes and the digest granularity.
#[test]
fn image_cache_key_vector() {
    let memory = test_memory();
    assert_eq!(
        ImageKey::derive(&memory, 256).to_hex(),
        "67c50cb72274780421289a1084d6711afbdf3a2d",
        "image cache key derivation changed"
    );
    // The granularity is part of the key: the same bytes at a different
    // segment length (or whole-image scope, segment_len 0) must never
    // alias.
    assert_eq!(
        ImageKey::derive(&memory, 0).to_hex(),
        "8336ee2f2aaf858de424087aa596db88403991d0",
        "whole-scope cache key derivation changed"
    );
    assert_eq!(
        ImageKey::derive(&memory, 128).to_hex(),
        "709a1fcc8784f8bfd517c52b3d91cfabe6789de3",
        "cache key granularity binding changed"
    );
}

/// The cached per-segment digest vector a shared-image fleet is verified
/// from. These digests are the "1 digest sweep" amortised across N
/// devices — if their construction drifts from `segment_digests`, every
/// cached verdict drifts with it, so both the bytes and the equality
/// with the from-scratch sweep are frozen.
#[test]
fn image_cache_digest_vector() {
    let memory = test_memory();
    let cached = CachedImage::compute(memory.clone(), 256);
    let frozen = [
        "349d2ceab3402baf602305953072cf95cbb5cec7",
        "224e769c3b3ac4555cab0adb4d3358ecf3197d64",
        "db899ad5dd6925118b427ab2e5833bb4055a06b6",
        "008c6c7306f2f98081840951149c89a2ed2f16ee",
        "1ec505d0ae6d1e6b717fd388170601b98f2f2d7f",
    ];
    let digests = cached.digests();
    assert_eq!(digests.len(), frozen.len());
    for (i, (digest, expect)) in digests.iter().zip(frozen).enumerate() {
        assert_eq!(
            hex(digest),
            expect,
            "cached segment digest {i} construction changed"
        );
    }
    assert_eq!(
        digests,
        segment_digests(&memory, 256).as_slice(),
        "cached digest vector must equal the from-scratch sweep"
    );
}

/// The sealed epoch-log record: frozen `PGEPLOG1` encoding. A deployed
/// fleet's boot path must keep opening records written by this version.
#[test]
fn sealed_epoch_log_record_vector() {
    let record = EpochLogRecord {
        epoch: 5,
        segment_len: 8192,
        segment_epochs: vec![1, 2, 3, 4, 5],
    };
    let encoded = record.encode();
    assert_eq!(&encoded[..8], b"PGEPLOG1", "epoch record magic changed");

    let key = MacKey::new(MacAlgorithm::HmacSha1, &KEY).unwrap();
    let sealed = record.seal(&key);
    assert_eq!(hex(&sealed), "504745504c4f4731050000000000000000200000000000000500000000000000010000000000000002000000000000000300000000000000040000000000000005000000000000005004c7d32ca4cf24cf8b04086de7e6e3e8b79805");
    let reopened = EpochLogRecord::open_sealed(&sealed, &key).expect("seal roundtrip");
    assert_eq!(reopened, record);
}

/// Same transcript freeze for the segmented construction.
#[test]
fn segmented_session_transcript_vector() {
    let config = ProverConfig::recommended_segmented();
    let mut prover = Prover::provision(config.clone(), &KEY, b"golden app v1").unwrap();
    let mut verifier = Verifier::new(&config, &KEY).unwrap();

    let req = verifier.make_request().unwrap();
    let resp = prover.handle_wire_request(&req.to_bytes()).unwrap();
    assert_eq!(
        hex(&req.to_bytes()),
        "0101020000000000000001affe5585d360c46afbadbf3191df6489000856ea39bc55bc8a1d"
    );
    assert_eq!(hex(&resp), "0014178606a442eadf696631d85e5321db1be9d2d9a1");
}

/// HKDF extract/expand-label vectors plus the session key schedule over
/// a fixed transcript: freezes the label framing ("pg hkdf" prefix,
/// label/context lengths) and every derivation the channel performs.
/// A fleet mid-rollout has live sessions keyed by these exact bytes.
#[test]
fn session_key_schedule_vector() {
    use proverguard_attest::channel::SessionKeys;
    use proverguard_crypto::hkdf;

    let prk = hkdf::extract(b"golden salt", &KEY);
    assert_eq!(
        hex(&prk),
        "f2272c17934cbd0e457e46c7dff35d518c86f2a5",
        "HKDF-Extract changed"
    );
    assert_eq!(
        hex(&hkdf::expand_label(&prk, b"session id", b"", 8)),
        "27bef05e393e74cb",
        "\"session id\" label expansion changed"
    );
    assert_eq!(
        hex(&hkdf::expand_label(&prk, b"c2p mac", b"", 16)),
        "e8cc59ad4af43cef29f531deba25b0e7",
        "\"c2p mac\" label expansion changed"
    );
    assert_eq!(
        hex(&hkdf::expand_label(&prk, b"p2c mac", b"", 16)),
        "3b8c6676e9b965ea2c72a27bc2bca6e7",
        "\"p2c mac\" label expansion changed"
    );
    assert_eq!(
        hex(&hkdf::expand_label(&prk, b"rekey", &1u32.to_be_bytes(), 20)),
        "82dc65a3e8209a65986296416f17e1d0250ae8b6",
        "\"rekey\" label expansion changed"
    );

    let mut keys = SessionKeys::derive(&KEY, b"golden transcript");
    assert_eq!(hex(&keys.session_id), "beffd0b8772a9db8");
    assert_eq!(hex(&keys.to_prover), "90765fad5345372d8d103c1e40c4b8be");
    assert_eq!(hex(&keys.to_verifier), "8526fc69a7a8a17e8e6ac52bd21bf8da");
    keys.ratchet();
    assert_eq!(
        hex(&keys.to_prover),
        "b2538f8e4139d2e3f5e769a2d0bbfba8",
        "rekey ratchet derivation changed"
    );
    assert_eq!(hex(&keys.to_verifier), "60d05a9440070c7f3bfb39bd48de69d7");
    assert_eq!(keys.epoch, 1);
}

/// The attested-session handshake plus a two-round in-session exchange,
/// every wire byte frozen: `HandshakeInit` (nonce, rekey cadence, the
/// embedded *signed full-scope* request), `HandshakeAccept` (derived
/// prover nonce, pipeline response), and the sequence-numbered session
/// frames the rounds ride in. The inner round requests are unsigned
/// (scope byte stream shows auth-len 0008 for the handshake request but
/// the frame MAC carrying the round) — this test pins that split.
#[test]
fn session_handshake_and_rounds_transcript_vector() {
    use proverguard_attest::channel;
    use proverguard_attest::message::AttestResponse;

    let config = ProverConfig::recommended_segmented();
    let mut prover = Prover::provision(config.clone(), &KEY, b"golden app v1").unwrap();
    let mut verifier = Verifier::new(&config, &KEY).unwrap();

    let (init, request) = channel::verifier_begin(&mut verifier, 4).unwrap();
    assert_eq!(
        hex(&init.encode()),
        "0139c7d24eca9db883ecfc350e16e1416a0000000400250101020000000000000001affe5585d360c46afbadbf3191df6489000856ea39bc55bc8a1d",
        "handshake init wire encoding changed"
    );
    let (accept, mut prover_ch) = channel::prover_accept(&mut prover, &init).unwrap();
    assert_eq!(
        hex(&accept.encode()),
        "0100f8b185a90482613b0d8d02c5e55b7200160014178606a442eadf696631d85e5321db1be9d2d9a1",
        "handshake accept wire encoding (derived prover nonce) changed"
    );
    assert_eq!(channel::transcript(&init, &accept).len(), 108);
    let expected = prover.expected_memory().to_vec();
    let mut verifier_ch =
        channel::verifier_confirm(&mut verifier, &init, &request, &accept, &expected).unwrap();
    assert_eq!(
        hex(&verifier_ch.session_id()),
        "1dc31f8d020e5fcb",
        "session id derivation over the handshake transcript changed"
    );

    let frozen_reqs = [
        "010000000000000000010025010102000000000000000209c04691d6eda25a74219d3763f11895000830f56b319fa989c5af9b6b52f69b233bd644385640b0a7e3",
        "010000000000000000020025010102000000000000000379b3060873ea6b010d31b600a27be3fa0008c982c093431e72a1642b5c852b19f2e204f3ea8e1c002fcd",
    ];
    let frozen_resps = [
        "01010000000000000001001600141963e3a96a90cba13086dfc24139698f62f94fd72fe6bd39964c1ff72f5593a501ba195d",
        "0101000000000000000200160014554aa8d5d3235c92776389675c218ab622e6718dccd5ebf4a6d37a3d0335dbab109b7940",
    ];
    for round in 0..2 {
        let req = verifier.make_request().unwrap();
        let sealed_req = verifier_ch.seal_next(&req.to_bytes());
        assert_eq!(
            hex(&sealed_req),
            frozen_reqs[round],
            "sealed round-request frame changed (round {})",
            round + 1
        );
        let opened = prover_ch.open(&sealed_req).unwrap();
        let resp_raw = prover.handle_session_wire_request(&opened).unwrap();
        let sealed_resp = prover_ch.seal_next(&resp_raw);
        assert_eq!(
            hex(&sealed_resp),
            frozen_resps[round],
            "sealed round-response frame changed (round {})",
            round + 1
        );
        let resp_bytes = verifier_ch.open(&sealed_resp).unwrap();
        let resp = AttestResponse::from_bytes(&resp_bytes).unwrap();
        let exp = prover.expected_memory().to_vec();
        assert!(verifier.check_response(&req, &resp, &exp));
        verifier.note_verified(&req, &resp, &exp);
        verifier_ch.note_round();
        prover_ch.note_round();
    }
}

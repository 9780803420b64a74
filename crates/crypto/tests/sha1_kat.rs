//! Known-answer tests for the SHA-1 kernel, in the build the tests run in
//! (debug under `cargo test`, optimised under `cargo test --release`).
//!
//! The expected digests were produced once by an independent SHA-1 (Python's
//! `hashlib`) over `pattern(n)` and pasted here. Lengths 0–129 walk every
//! padding case of one and two final blocks and every offset at which a
//! block boundary can fall; 8 KiB and 512 KiB are the segment and
//! whole-memory sizes the attestation MACs hash.

use proverguard_crypto::sha1::{to_hex, Sha1};

/// The fixed input: byte `i` is `(7·i + 3) mod 251`, so no block repeats
/// at a 64-byte period.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + 3) % 251) as u8).collect()
}

/// `SHA1(pattern(n))` for `n` in `0..130`.
const SHORT: [&str; 130] = [
    "da39a3ee5e6b4b0d3255bfef95601890afd80709", // 0
    "9842926af7ca0a8cca12604f945414f07b01e13d", // 1
    "1f5ae6b976eaa448d6756c593ceb816ac8799ef1", // 2
    "4201de9f98cb0a9b8cf52398be7802b55d45266a", // 3
    "a9ca94e2a9be52cdcef145facf2bad04e553cb0b", // 4
    "941f194daa0adbdf8582dbf3691a6288329d2be6", // 5
    "984329883856c39f7dd78b88bcfb49eefc9be989", // 6
    "8f61e051db8f5bfa67d8eff0c40cf868f68e70bb", // 7
    "cef03cc4db41ecf2c7956e8b06dc6b0b8015f260", // 8
    "6cad7098fc6c42a32b5fe6536f157ff570772cd0", // 9
    "a00e488320a5f5536afc79a976ec22cf7aebbd97", // 10
    "0a3a1e6ce197c09607b8ddc9637dcaa223459182", // 11
    "74c2e2bfd179cc0901f88ca7b8bed52ebcd7d849", // 12
    "5b656bff036821f5174daba9580c139a6d74da15", // 13
    "0b32b3246891c1ce11d68e4b5e803490a7cd1b63", // 14
    "b02b80eaa1a78b076120457b296be0d347eeb194", // 15
    "3bbec6217ac9bf7c9c4642b1bdeb3ae68d99f787", // 16
    "2dbde31cfe98dd4a93eb056f157f8cabb01db443", // 17
    "5cd1599bbf20aa54712f37bd18ae4b464c59d299", // 18
    "90226ee11311d80cfae27605808403960856e50d", // 19
    "57ab1094cc2a57d9f64818d2eb92750aab1bf177", // 20
    "565cce1992fa0e88bf04e798764a6d2d26ea1dc3", // 21
    "b7f16efc74e3224c94bc344c6bafabb7e11d977a", // 22
    "fa9329dda1c904fb2c9ef99cdd87561526d80913", // 23
    "1aae7a798319ed16a198e92401e7eed36cd1a51b", // 24
    "9ade5333be4a9674e7ac5b12ddac8240f7783da2", // 25
    "6d3ce948a92cfb30d8c9da8af8a088154549e0ea", // 26
    "78440d05a24e2b53d2ee8a66c6d9507fc42cc431", // 27
    "c9a77289303864dc3e15adf071745fef286a70b2", // 28
    "96fb3a3053d47fd59e775fd21c27c3835f164188", // 29
    "a97984db177660175eea1dbe18dbc376808b5ee3", // 30
    "d21a51503aa50e23029493030a1d0704a84cb2ea", // 31
    "64b5168088b6692cfd749ab0b699a8b5b225189b", // 32
    "66f198bd988723981464f3e589667631c29d174d", // 33
    "d828aab123a8df09bb66c6ff5d46e444e52225d8", // 34
    "20d1062373e60ddb02daf0a2bb9dc4893a5a3482", // 35
    "e84e44766b5f4cb28f9005a9bcc61f0414f7723f", // 36
    "54fc6b3011a1789305cc6681b2b8b661d8e9736d", // 37
    "f360c42b61e55e559bf9f8b3d0f1e02f0c77c531", // 38
    "8eee3b04e6720ac859d416d8a769c2e0dbd39ac3", // 39
    "4d54a224469676695e551997da0851e341764672", // 40
    "2a010d39c31e3a8bb0084352b61c72b1dce4afa8", // 41
    "ce5ee6c2f3d3bcf01382cdeb6fd88b9986e32d27", // 42
    "32f2de311a39c4f374c04e6d506f39aadb86afb6", // 43
    "b5c7eee52fe43835a6b308c0ea041eb3d94cbe27", // 44
    "363b93304aa6708bcc57f915fbfe5d6fb372b6f1", // 45
    "704f348661c4ac947095617851a30cd173e6388a", // 46
    "24f07642928eebf0318a21f68b3e721f509ba7df", // 47
    "971106ab0aff9bfe715c00cb347ebc0bdb57b747", // 48
    "ea2fd683d7f000adf93aaddd7ab0625873694d42", // 49
    "ad0a04dde6d2cb3120116e8b5c89583a87de2249", // 50
    "7a8acb1a78d9b8c1a004ab065e8c9ecf68b5fa9d", // 51
    "e99f06fe640bbb3e059bf5f886b739a517464240", // 52
    "7b2d90bbc479513d56eeea98e524e65cac0c5091", // 53
    "8e7f5213a841ad27f30a18b8c6af8f3d5dbb43f9", // 54
    "8829dc293fb52f1477aa7323310a5bcf949ce4f8", // 55
    "3c440665799f6f245108a068a11e59507d4f9e2c", // 56
    "ee3bd3dcaf8c3f17b919ec48238c7109187f6292", // 57
    "a927247dfbdeee63421f56506422ff1bd874d1a3", // 58
    "211ac69e3082081437e4a4530df250f92379570e", // 59
    "ac6ff9ffd501aaf58bf982c9a33c68f44980afe8", // 60
    "1e0696b12af7bc90a8c70362ebc2db307f6cacc0", // 61
    "73a054418da612442f419e7fc7ab4a00e25ca1a6", // 62
    "5e2cdca8ef9552e40ad2228153e778e586eebc50", // 63
    "24d0ab86ac7542b26241687c97b79ae2cc22ac90", // 64
    "f71ba60012ec8015b3d5ba56798c4ff43aeb8beb", // 65
    "77549a2233d53939906b59083daa53a9a7a7ef63", // 66
    "ab3ac4e7352bceabe4ba3ca1b2b3c25022647107", // 67
    "c92e42b86f21d2d81ed2f4953ac96f88a67374a0", // 68
    "495318b66901b0f3a791cf22e35e5c3f20ee4fdf", // 69
    "c9cd4d64b7e9e8a552c33b8890eeaeb3829bd621", // 70
    "3258622d4769ac2d8eb0904fd9997131301b499a", // 71
    "9953586a86ee2c6494d8ac738a58f767c36a27f6", // 72
    "c92df356126a67f9ef746e716760dab91a11fdb2", // 73
    "41738f333ad5479b5ba6380e85391f2190119057", // 74
    "80ad557fe52539fecf071547c31ab25cf8c94ec5", // 75
    "794e7c10ea1b919c1cc535bdf14c9a1b6085bd3e", // 76
    "629733bb42fe2cff5167ee459807a6d60e699a08", // 77
    "d51e1aab523e8c50f4a089ca7dc3814edd1e9f48", // 78
    "139b311b2d88655af763d10862d9298eb86e675e", // 79
    "27c77cbff7d621ce41a8840a4ebe5ec8a8f8ce10", // 80
    "b976e601110512f9af459cc61638a5d4aebb72b3", // 81
    "59dafe7e8b230632448ec132604210a9d0fa6137", // 82
    "92a1091b440e1d60a4f3cad84a323ac07bed355f", // 83
    "2d2c38a249019169d6e6369bdbfc7666746a2a58", // 84
    "655d13845edb7d8e2a5650cd0722b18d96cd75cc", // 85
    "14ae842975cca58f59dfa0950c61be4e90b986ca", // 86
    "33031b1d0f244b8b985781b5681a03d196f82adc", // 87
    "d4b5af400813a7f765b2d6519f41546c36fd3807", // 88
    "e5ea72896ab0a8f4b5c2ccb99b0eff8e4e5528e2", // 89
    "27e5f34f8439f97411c387bd8fed160272c276d8", // 90
    "e7e5adf1462283724bf68b205290d13b77cdb827", // 91
    "2798356689c06943e35b6ae40ebd3c605bd19db7", // 92
    "311975458237e1a84dd1b465b03d087ac99504e2", // 93
    "4efb4f8c75f7698abe9e332be4e1cc39b2cc6b23", // 94
    "2169b2c1f1f414f0b596eb6d9997762c8ef01024", // 95
    "69782be8683f95f58fa428b7cb8ef8964353a725", // 96
    "0eceb87704035549eae51dca37303c3dbc0b2c1f", // 97
    "be6c629e2f1de6377865bcdeac7b425cea2c129d", // 98
    "7db57c3c67ebbae55a5924b1c27f521db5de1952", // 99
    "370e9ef830a8fc98c17e02798843ec071fa7c309", // 100
    "af1788601599d27f599acdcec5c657237ad5bc42", // 101
    "8c8df96052e624ea49b12ee543140743027d3dad", // 102
    "9b50cce657bc2ee83d1a6dd9a38986203f8a0b29", // 103
    "db5b1b83b7d93274bc1a0ff1dd95b792a4a8d16e", // 104
    "559d59dfe1a990e3df020e6cb85aebbbaa6a59da", // 105
    "18a3289de97e028d38006ea43d3918f4b90478a2", // 106
    "b0e45a650e1e9fffc569fd64c3b43a9b586ddc79", // 107
    "cc836f0300e4f268ee481e17c3a2e42e66f7bbf5", // 108
    "c577dd637a3a32076f2ded14867b8ab50535338e", // 109
    "a806e7ea5715b0d5b0d6152a5b32151c5e07d1aa", // 110
    "568d0ccb8540894bd61a8e586391ac920d9e6196", // 111
    "0899dadadbcdd6e10fc9b022b73e22a3d8e59993", // 112
    "e63ab6b73a4dfa4a0cc53c89ec516b170a839113", // 113
    "f9601826ed0e98d12ec3ddbe38907f9562bbb27d", // 114
    "0c36f27529b83d4a6f8e375e40ad9c3f87284c2b", // 115
    "3a0fcb33fe7ac88baab5539f827459fa96ddbfad", // 116
    "000b5fb9ae0e0ed7a387a69cc854d226f47abf9e", // 117
    "141a46d5eada61713928bc214573a40fd374b22f", // 118
    "ea44537c014a6f0d332e845ed7f9331ae45440c5", // 119
    "939b2cbff515552d0bc4cfa0c332a57f9fce7736", // 120
    "cde60194273cfc79fb677a45de0021a3f06f2167", // 121
    "6b45fc38faae98292690abcd35caff574659bad8", // 122
    "ee2c859dfacb87fdcbb9e5ed15c444eff7d14b2c", // 123
    "835fb6d880041d89ba50401e14c3c3f279a857e4", // 124
    "7bc01076789ac95111645dcf279f8d31ca83fb04", // 125
    "4f0b3e85f62f69e08f3dd6a2272a9d2c32a9ffa7", // 126
    "f5b00f038e9a8ef4711336bba10726c553d46063", // 127
    "0a1d410f25f3840e4498a2ad922fea55bb4b79da", // 128
    "d615ade267f1b3e48fc1360286ef4761a3e803c5", // 129
];

#[test]
fn digests_of_lengths_0_to_129() {
    for (len, expected) in SHORT.iter().enumerate() {
        assert_eq!(to_hex(&Sha1::digest(&pattern(len))), *expected, "len {len}");
    }
}

#[test]
fn digest_of_8_kib() {
    assert_eq!(
        to_hex(&Sha1::digest(&pattern(8 * 1024))),
        "b35e3fc5ef197ffd905e8eafdc9b13cfcfc6b7e0"
    );
}

#[test]
fn digest_of_512_kib() {
    assert_eq!(
        to_hex(&Sha1::digest(&pattern(512 * 1024))),
        "cf5916bd9813f1a86a80ce6bbb14aaa5616d250e"
    );
}

#[test]
fn streaming_in_odd_pieces_matches_the_table() {
    // Feed 512 KiB in pieces that never line up with a block boundary, so
    // the buffered path and the in-place path both run on every block.
    let data = pattern(512 * 1024);
    let mut h = Sha1::new();
    for piece in data.chunks(1000) {
        h.update(piece);
    }
    assert_eq!(h.blocks_processed(), (512 * 1024 / 64) as u64);
    assert_eq!(
        to_hex(&h.finalize()),
        "cf5916bd9813f1a86a80ce6bbb14aaa5616d250e"
    );
}

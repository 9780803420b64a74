//! Length-prefixed framing.
//!
//! Every ProverGuard wire message travels inside a frame:
//!
//! ```text
//! +------+------+---------+----------+---------------------+
//! | 'P'  | 'G'  | version | reserved | length (u32, BE)    |  8-byte header
//! +------+------+---------+----------+---------------------+
//! | payload: `length` bytes                                |
//! +--------------------------------------------------------+
//! ```
//!
//! The codec is the DoS front line of the byte stream: a frame whose
//! header declares more than the configured maximum is rejected **before
//! any allocation happens**, so a hostile peer cannot make the receiver
//! reserve gigabytes with eight cheap bytes. Truncated or garbage input
//! returns [`TransportError::Malformed`] — never a panic — which is the
//! same cheap-reject contract `Prover::handle_wire_request` gives one
//! layer up.

use crate::error::TransportError;

/// First magic byte (`'P'`).
pub const MAGIC0: u8 = 0x50;
/// Second magic byte (`'G'`).
pub const MAGIC1: u8 = 0x47;
/// Frame format version.
pub const FRAME_VERSION: u8 = 1;
/// Bytes of header before the payload.
pub const HEADER_LEN: usize = 8;
/// Default maximum payload length endpoints accept (64 KiB — an
/// attestation exchange fits in a few hundred bytes; anything near the
/// cap is already suspicious).
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024;

/// Encodes `payload` into a single framed buffer.
///
/// # Errors
///
/// [`TransportError::TooLarge`] when the payload exceeds `max` (or
/// `u32::MAX`, the format's hard ceiling).
pub fn encode_frame(payload: &[u8], max: usize) -> Result<Vec<u8>, TransportError> {
    if payload.len() > max || payload.len() > u32::MAX as usize {
        return Err(TransportError::TooLarge {
            declared: payload.len() as u64,
            max: max.min(u32::MAX as usize),
        });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&[MAGIC0, MAGIC1, FRAME_VERSION, 0]);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Decodes one complete datagram (header + payload, nothing more, nothing
/// less) — the loopback path, where a frame always arrives whole.
///
/// # Errors
///
/// - [`TransportError::Malformed`] on bad magic/version, a short header,
///   or a length that disagrees with the datagram size (a truncated or
///   padded packet).
/// - [`TransportError::TooLarge`] when the declared length exceeds `max`.
pub fn decode_datagram(bytes: &[u8], max: usize) -> Result<Vec<u8>, TransportError> {
    let declared = parse_header(bytes, max)?;
    let Some(declared) = declared else {
        return Err(TransportError::Malformed {
            reason: "datagram shorter than a frame header",
        });
    };
    if bytes.len() - HEADER_LEN != declared {
        return Err(TransportError::Malformed {
            reason: "datagram length disagrees with declared frame length",
        });
    }
    Ok(bytes[HEADER_LEN..].to_vec())
}

/// Validates a header prefix. Returns `Ok(None)` when fewer than
/// [`HEADER_LEN`] bytes are available yet, `Ok(Some(len))` with the
/// declared payload length otherwise.
fn parse_header(bytes: &[u8], max: usize) -> Result<Option<usize>, TransportError> {
    // Validate whatever prefix of the fixed header we have, so garbage is
    // rejected at the very first wrong byte instead of after buffering.
    if !bytes.is_empty() && bytes[0] != MAGIC0 {
        return Err(TransportError::Malformed {
            reason: "bad magic (first byte)",
        });
    }
    if bytes.len() >= 2 && bytes[1] != MAGIC1 {
        return Err(TransportError::Malformed {
            reason: "bad magic (second byte)",
        });
    }
    if bytes.len() >= 3 && bytes[2] != FRAME_VERSION {
        return Err(TransportError::Malformed {
            reason: "unsupported frame version",
        });
    }
    if bytes.len() >= 4 && bytes[3] != 0 {
        return Err(TransportError::Malformed {
            reason: "reserved header byte not zero",
        });
    }
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let declared = u32::from_be_bytes(bytes[4..8].try_into().expect("slice is 4 bytes")) as u64;
    if declared > max as u64 {
        return Err(TransportError::TooLarge { declared, max });
    }
    Ok(Some(declared as usize))
}

/// Incremental frame decoder for byte streams (TCP): feed it whatever the
/// socket produced, pull out complete frames as they materialize.
///
/// Once the decoder reports an error the stream is unsynchronized and the
/// connection should be dropped — there is no resync heuristic, by
/// design: a peer that sends garbage gets hung up on, cheaply.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted lazily).
    consumed: usize,
    max: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder accepting payloads up to `max` bytes.
    #[must_use]
    pub fn new(max: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            consumed: 0,
            max,
            poisoned: false,
        }
    }

    /// The configured maximum payload length.
    #[must_use]
    pub fn max_frame_len(&self) -> usize {
        self.max
    }

    /// Bytes buffered but not yet returned as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Feeds raw bytes from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by
        // max + HEADER_LEN + one read's worth instead of growing forever.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pulls the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] / [`TransportError::TooLarge`] when
    /// the stream header is invalid; every subsequent call returns the
    /// same class of error (the decoder poisons itself — an
    /// unsynchronized length-prefixed stream cannot be trusted again).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if self.poisoned {
            return Err(TransportError::Malformed {
                reason: "stream already unsynchronized",
            });
        }
        let avail = &self.buf[self.consumed..];
        let declared = match parse_header(avail, self.max) {
            Ok(d) => d,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        let Some(declared) = declared else {
            return Ok(None);
        };
        if avail.len() < HEADER_LEN + declared {
            return Ok(None);
        }
        let start = self.consumed + HEADER_LEN;
        let payload = self.buf[start..start + declared].to_vec();
        self.consumed = start + declared;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_decoder() {
        let frame = encode_frame(b"hello fleet", DEFAULT_MAX_FRAME).unwrap();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&frame);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"hello fleet");
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn partial_reads_reassemble() {
        let frame = encode_frame(&[7u8; 300], DEFAULT_MAX_FRAME).unwrap();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        // Dribble the frame in one byte at a time — the slow-peer case.
        for (i, b) in frame.iter().enumerate() {
            dec.extend(&[*b]);
            let got = dec.next_frame().unwrap();
            if i + 1 < frame.len() {
                assert_eq!(got, None, "no frame before byte {i}");
            } else {
                assert_eq!(got.unwrap(), vec![7u8; 300]);
            }
        }
    }

    #[test]
    fn two_frames_in_one_read() {
        let mut stream = encode_frame(b"a", DEFAULT_MAX_FRAME).unwrap();
        stream.extend_from_slice(&encode_frame(b"bb", DEFAULT_MAX_FRAME).unwrap());
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"a");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"bb");
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_declaration_rejected_before_buffering_payload() {
        // Header declaring 4 GiB arrives alone; the decoder must reject it
        // from the 8 header bytes without waiting for (or reserving) the
        // payload.
        let mut header = vec![MAGIC0, MAGIC1, FRAME_VERSION, 0];
        header.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&header);
        assert_eq!(
            dec.next_frame(),
            Err(TransportError::TooLarge {
                declared: u64::from(u32::MAX),
                max: 1024
            })
        );
        // Poisoned: the stream cannot recover.
        assert!(matches!(
            dec.next_frame(),
            Err(TransportError::Malformed { .. })
        ));
    }

    #[test]
    fn encode_refuses_oversized_payload() {
        assert!(matches!(
            encode_frame(&[0u8; 100], 99),
            Err(TransportError::TooLarge {
                declared: 100,
                max: 99
            })
        ));
    }

    #[test]
    fn garbage_first_byte_rejected_immediately() {
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&[0xde]);
        assert!(matches!(
            dec.next_frame(),
            Err(TransportError::Malformed { .. })
        ));
    }

    #[test]
    fn datagram_roundtrip_and_length_mismatch() {
        let frame = encode_frame(b"dgram", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(
            decode_datagram(&frame, DEFAULT_MAX_FRAME).unwrap(),
            b"dgram"
        );
        // Truncated packet.
        assert!(matches!(
            decode_datagram(&frame[..frame.len() - 1], DEFAULT_MAX_FRAME),
            Err(TransportError::Malformed { .. })
        ));
        // Padded packet.
        let mut padded = frame.clone();
        padded.push(0);
        assert!(matches!(
            decode_datagram(&padded, DEFAULT_MAX_FRAME),
            Err(TransportError::Malformed { .. })
        ));
        // Empty packet.
        assert!(matches!(
            decode_datagram(&[], DEFAULT_MAX_FRAME),
            Err(TransportError::Malformed { .. })
        ));
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let frame = encode_frame(b"", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame.len(), HEADER_LEN);
        assert_eq!(decode_datagram(&frame, DEFAULT_MAX_FRAME).unwrap(), b"");
    }

    /// Feeds `stream` to a fresh decoder in one `extend` and returns all
    /// frames — the reference decode the partitioned runs must match.
    fn one_shot_decode(stream: &[u8]) -> Vec<Vec<u8>> {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(stream);
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("valid stream") {
            out.push(f);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        // The WouldBlock-incrementality contract: however the kernel
        // slices the byte stream across reads — including cuts inside
        // the 8-byte header — the decoder yields exactly the frames a
        // single contiguous read would, in order.
        #[test]
        fn arbitrary_read_partitions_decode_like_one_shot(
            lens in proptest::collection::vec(0usize..300, 1..5),
            cuts in proptest::collection::vec(proptest::arbitrary::any::<u16>(), 0..24),
        ) {
            let mut stream = Vec::new();
            for (i, len) in lens.iter().enumerate() {
                let payload: Vec<u8> =
                    (0..*len).map(|j| (i * 31 + j) as u8).collect();
                stream.extend_from_slice(
                    &encode_frame(&payload, DEFAULT_MAX_FRAME).unwrap(),
                );
            }
            let expect = one_shot_decode(&stream);

            // Cut positions anywhere in the stream (duplicates collapse,
            // so empty reads are exercised too).
            let mut bounds: Vec<usize> = cuts
                .iter()
                .map(|c| usize::from(*c) % (stream.len() + 1))
                .collect();
            bounds.push(0);
            bounds.push(stream.len());
            bounds.sort_unstable();

            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut got = Vec::new();
            for pair in bounds.windows(2) {
                dec.extend(&stream[pair[0]..pair[1]]);
                // Drain after every read, as the event loop does.
                while let Some(f) = dec.next_frame().expect("valid stream") {
                    got.push(f);
                }
            }
            proptest::prop_assert_eq!(&got, &expect);
            proptest::prop_assert_eq!(dec.pending(), 0);
        }

        // Mid-header garbage is rejected at the same byte offset no
        // matter how the reads are sliced.
        #[test]
        fn partitioned_garbage_rejected_like_one_shot(
            bad_at in 0usize..4,
            cut in 0usize..8,
        ) {
            let mut stream = encode_frame(b"ok", DEFAULT_MAX_FRAME).unwrap();
            stream[bad_at] ^= 0xff;
            let cut = cut.min(stream.len());

            let mut one = FrameDecoder::new(DEFAULT_MAX_FRAME);
            one.extend(&stream);
            let one_err = one.next_frame().expect_err("corrupt header");

            let mut split = FrameDecoder::new(DEFAULT_MAX_FRAME);
            split.extend(&stream[..cut]);
            let early = split.next_frame();
            let split_err = match early {
                Err(e) => e,
                Ok(None) => {
                    split.extend(&stream[cut..]);
                    split.next_frame().expect_err("corrupt header")
                }
                Ok(Some(f)) => panic!("decoded corrupt frame {f:?}"),
            };
            proptest::prop_assert_eq!(split_err, one_err);
        }
    }
}

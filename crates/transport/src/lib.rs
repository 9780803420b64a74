//! Wire transport for the ProverGuard fleet.
//!
//! Every earlier layer of the reproduction talked through in-process
//! function calls; this crate is the real byte stream those layers were
//! pretending to have. It provides:
//!
//! - [`frame`] — length-prefixed framing with a hard pre-allocation
//!   length cap (the codec-level cheap reject);
//! - [`Transport`] — a blocking framed-message pipe, implemented two
//!   ways:
//!   - [`tcp::TcpTransport`] over `std::net` TCP (partial reads, slow
//!     peers, connection churn — the production-shaped path),
//!   - [`mem::MemTransport`] — an in-memory loopback with the same
//!     blocking/deadline semantics, so CI and deterministic benches run
//!     the identical stack without touching a socket;
//! - [`Acceptor`] — the listening side, a non-blocking readiness source
//!   implemented by [`tcp::TcpAcceptor`] and [`mem::LoopbackHub`]. It is
//!   what the verifier gateway in `proverguard-attest` serves
//!   connections from.
//!
//! Fault schedules from `proverguard-adversary` compose with any
//! [`Transport`] through that crate's `wire::FaultyTransport` wrapper, so
//! the drop/delay/truncate/bit-flip matrices the in-process stack was
//! graded against apply unchanged to the socketed stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod mem;
pub mod nb;
pub mod tcp;

pub use error::TransportError;
pub use frame::{decode_datagram, encode_frame, FrameDecoder, DEFAULT_MAX_FRAME};
pub use mem::{loopback_pair, LoopbackConnector, LoopbackHub, MemTransport};
pub use nb::{NbTransport, Notifier, ReadySource};
pub use tcp::{TcpAcceptor, TcpTransport};

use std::time::Duration;

/// Byte/frame counters one endpoint has seen. All counts are from this
/// endpoint's perspective and include framing overhead for the byte
/// totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Bytes received (framed).
    pub bytes_in: u64,
    /// Bytes sent (framed).
    pub bytes_out: u64,
    /// Complete frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
}

impl LinkStats {
    pub(crate) fn note_sent(&mut self, framed_len: usize) {
        self.bytes_out = self.bytes_out.saturating_add(framed_len as u64);
        self.frames_out = self.frames_out.saturating_add(1);
        proverguard_telemetry::metrics::counter_add("transport.bytes_out", framed_len as u64);
        proverguard_telemetry::metrics::counter_add("transport.frames_out", 1);
    }

    pub(crate) fn note_received_bytes(&mut self, n: usize) {
        self.bytes_in = self.bytes_in.saturating_add(n as u64);
        proverguard_telemetry::metrics::counter_add("transport.bytes_in", n as u64);
    }

    pub(crate) fn note_received_frame(&mut self) {
        self.frames_in = self.frames_in.saturating_add(1);
        proverguard_telemetry::metrics::counter_add("transport.frames_in", 1);
    }
}

/// A blocking, framed, bidirectional message pipe.
///
/// Implementations are `Send` so a connection can move to the thread
/// that drives it. One transport belongs to one thread at a time; none
/// of them are `Sync`.
pub trait Transport: Send {
    /// Sends one framed message.
    ///
    /// # Errors
    ///
    /// [`TransportError::TooLarge`] for oversized payloads,
    /// [`TransportError::Closed`] / [`TransportError::Timeout`] /
    /// [`TransportError::Io`] for link failures.
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Receives the next framed message, blocking up to the configured
    /// deadline.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when the deadline expires,
    /// [`TransportError::Closed`] when the peer hung up,
    /// [`TransportError::Malformed`] / [`TransportError::TooLarge`] when
    /// the stream is not a valid frame sequence.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Sets the per-operation deadline for subsequent `recv` (and, where
    /// the OS supports it, `send`) calls. `None` blocks forever.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the OS rejects the timeout.
    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), TransportError>;

    /// Byte/frame counters for this endpoint.
    fn stats(&self) -> LinkStats;

    /// A human-readable peer label for logs (`127.0.0.1:4242`,
    /// `loopback#3`, …).
    fn peer(&self) -> String;

    /// Converts this transport into its non-blocking form for the
    /// event-driven gateway. Buffered but undecoded bytes carry over, so
    /// the handoff is safe mid-stream.
    ///
    /// # Errors
    ///
    /// A structured `Unsupported` [`TransportError::Io`] for transports
    /// without a readiness story (the default — TCP and loopback
    /// override it).
    fn into_nb(self: Box<Self>) -> Result<Box<dyn nb::NbTransport>, TransportError> {
        let what = self.peer();
        Err(nb::unsupported_nb(&what))
    }
}

/// The listening half: a shared, non-blocking source of accepted
/// connections.
///
/// Every event loop of a server holds the same acceptor and watches it
/// like one more connection: through [`Acceptor::ready_source`], with
/// the readiness contract of [`NbTransport`]. On readiness it calls
/// [`Acceptor::try_accept`] until that returns `Ok(None)`.
pub trait Acceptor: Send + Sync {
    /// How to observe that a connection may be waiting: the listening
    /// descriptor, or a [`Notifier`] attached with
    /// [`Acceptor::attach_notifier`].
    fn ready_source(&self) -> ReadySource;

    /// Adds `notifier` to those pinged on every new connection and
    /// notifies it once right away (a connection may predate the
    /// attach). A no-op for fd-backed acceptors.
    fn attach_notifier(&self, notifier: Notifier);

    /// Accepts one waiting connection in its non-blocking form;
    /// `Ok(None)` means none is waiting.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the OS refuses the accept (e.g.
    /// `EMFILE`), [`TransportError::Closed`] once the listener is shut
    /// down and drained.
    fn try_accept(&self) -> Result<Option<Box<dyn NbTransport>>, TransportError>;
}

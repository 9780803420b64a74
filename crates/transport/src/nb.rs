//! Non-blocking transport adapters for the readiness reactor.
//!
//! The blocking [`Transport`](crate::Transport) API parks one OS thread
//! per connection; the event-driven gateway instead owns thousands of
//! connections per shard and needs each one to answer two questions
//! without blocking: *how do I know you might be ready?* and *give me
//! whatever you have right now*. [`NbTransport`] is that contract:
//!
//! - [`NbTransport::ready_source`] says how readiness is observed —
//!   [`ReadySource::Fd`] for real sockets (register with the reactor's
//!   selector) or [`ReadySource::Notify`] for in-memory channels (attach
//!   a [`Notifier`] via [`NbTransport::attach_notifier`]; the peer pings
//!   it on every send and on hangup);
//! - [`NbTransport::try_recv`] feeds the incremental
//!   [`FrameDecoder`](crate::frame::FrameDecoder) from whatever the
//!   source has and returns at most one frame, `None` meaning "would
//!   block" — callers must drain until `None` on every readiness event,
//!   because decoded-but-unreturned frames are invisible to the
//!   selector;
//! - [`NbTransport::enqueue_send`] / [`NbTransport::flush`] buffer
//!   writes the kernel will not take yet, so a slow reader costs memory
//!   (bounded by the caller's discipline) instead of a blocked thread.
//!
//! A server gets its connections in this form straight from
//! [`Acceptor::try_accept`](crate::Acceptor::try_accept). A dialed
//! connection converts with [`Transport::into_nb`](crate::Transport::into_nb):
//! implemented by the TCP and loopback transports, a structured
//! "unsupported" error everywhere else (e.g. adversarial wrappers).

use std::fmt;
use std::sync::Mutex;

pub use proverguard_reactor::Notifier;

use crate::error::TransportError;
use crate::LinkStats;

/// Raw fd alias re-exported so gateway code does not reach into `std::os`
/// paths directly.
pub type RawFd = i32;

/// How a non-blocking transport's readiness is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadySource {
    /// Register this descriptor with the reactor's fd selector.
    Fd(RawFd),
    /// No descriptor: attach a [`Notifier`] with
    /// [`NbTransport::attach_notifier`] and the peer will ping it.
    Notify,
}

/// A framed transport driven by readiness instead of blocking calls.
///
/// All methods are non-blocking. `try_recv` returning `Ok(None)` and
/// `flush` returning `Ok(false)` are the two "would block" signals; the
/// caller re-arms interest and waits for the reactor.
pub trait NbTransport: Send {
    /// How to observe readiness for this transport.
    fn ready_source(&self) -> ReadySource;

    /// Installs the notifier for a [`ReadySource::Notify`] transport.
    ///
    /// The transport notifies it immediately (data or hangup may predate
    /// the attach) and thereafter whenever the peer sends or drops. A
    /// no-op for fd-backed transports.
    fn attach_notifier(&mut self, notifier: Notifier);

    /// Returns the next complete frame if one can be produced without
    /// blocking; `Ok(None)` means the source is drained for now.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] on hangup,
    /// [`TransportError::Malformed`] / [`TransportError::TooLarge`] on
    /// codec violations (the connection should be dropped), and
    /// [`TransportError::Io`] for other OS failures.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Frames `payload` and writes as much as the sink takes right now,
    /// buffering the rest for [`NbTransport::flush`].
    ///
    /// # Errors
    ///
    /// [`TransportError::TooLarge`] for oversized payloads, plus the
    /// same link failures as `try_recv`.
    fn enqueue_send(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Pushes buffered write bytes; `Ok(true)` when nothing remains
    /// pending, `Ok(false)` when the sink would block (register write
    /// interest and retry on the next writable event).
    ///
    /// # Errors
    ///
    /// Link failures as in `try_recv`.
    fn flush(&mut self) -> Result<bool, TransportError>;

    /// True while flushing still has buffered bytes to move.
    fn has_pending_write(&self) -> bool;

    /// Byte/frame counters for this endpoint (continues the counts from
    /// the blocking phase of the connection's life).
    fn stats(&self) -> LinkStats;

    /// Peer label for logs.
    fn peer(&self) -> String;
}

/// A rendezvous point between a non-fd event source and the reactor: the
/// consumer parks a [`Notifier`] here, producers [`SignalCell::ping`] it.
///
/// Pings before a notifier is attached are absorbed by the attach-time
/// notify (see [`NbTransport::attach_notifier`]), so no event is lost
/// across the blocking→non-blocking handoff.
#[derive(Default)]
pub struct SignalCell {
    notifier: Mutex<Option<Notifier>>,
}

impl SignalCell {
    /// An empty cell.
    #[must_use]
    pub fn new() -> SignalCell {
        SignalCell::default()
    }

    /// Wakes the attached notifier, if any.
    pub fn ping(&self) {
        if let Some(n) = &*self.notifier.lock().expect("signal cell poisoned") {
            n.notify();
        }
    }

    /// Attaches `notifier` and immediately notifies it once, covering
    /// anything that happened before the attach.
    pub fn attach(&self, notifier: Notifier) {
        notifier.notify();
        *self.notifier.lock().expect("signal cell poisoned") = Some(notifier);
    }
}

impl fmt::Debug for SignalCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SignalCell")
    }
}

/// The error non-blocking conversion returns for transports without a
/// readiness story (e.g. adversarial wrappers).
#[must_use]
pub fn unsupported_nb(what: &str) -> TransportError {
    TransportError::Io {
        kind: std::io::ErrorKind::Unsupported,
        msg: format!("{what} has no non-blocking mode"),
    }
}

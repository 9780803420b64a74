//! A zero-dependency readiness reactor for the ProverGuard gateway.
//!
//! The verifier gateway in `proverguard-attest` historically drove every
//! connection from a blocking worker thread, which caps concurrency at
//! OS thread count. This crate is the in-repo replacement for the event
//! layer a production verifier would take from `mio`/`tokio` — built
//! from raw syscalls in the same offline spirit as the workspace's
//! `proptest` shim, because the build environment has no crates.io
//! access:
//!
//! - [`Poller`] — a readiness selector with two selectable backends:
//!   `epoll(7)` (Linux fast path) and portable `poll(2)` (fallback, and
//!   a second implementation CI runs the same tests against);
//! - [`Token`] / [`Interest`] — token-keyed interest registration, the
//!   key the owning shard uses to route readiness back to a connection;
//! - [`Waker`] — a wake pipe for cross-thread signaling (shutdown);
//! - [`Notifier`] — readiness for *non-fd* event sources (the in-memory
//!   loopback transport used by deterministic benches), merged into the
//!   same [`Poller::poll`] call as socket events;
//! - [`DeadlineWheel`] — a hashed timing wheel for per-connection
//!   deadlines (establishment budgets, retry timers, idle expiry) so a
//!   shard tracks tens of thousands of timeouts without a heap
//!   operation per I/O event.
//!
//! The reactor deliberately has no opinion about protocols: it hands
//! back `(token, readable/writable/hangup)` triples and expired timer
//! tokens, and the gateway's shard loop owns everything else.

#![warn(missing_docs)]

pub mod poll;
pub mod sys;
pub mod wheel;

pub use poll::{Backend, Events, Notifier, Poller, Waker};
pub use wheel::{DeadlineWheel, TimerId};

/// Identifies one registered event source within a [`Poller`].
///
/// Tokens are caller-chosen `usize` keys (typically a slab index); the
/// reactor never interprets them. [`Token::WAKE`] is reserved for the
/// internal wake pipe and must not be used for registrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

impl Token {
    /// Reserved token for the internal wake pipe; registrations with
    /// this token are rejected.
    pub const WAKE: Token = Token(usize::MAX);
}

/// Which readiness conditions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the source has bytes to read (or has hung up).
    pub const READABLE: Interest = Interest(0b01);
    /// Wake when the source can accept writes.
    pub const WRITABLE: Interest = Interest(0b10);
    /// Wake on either condition.
    pub const BOTH: Interest = Interest(0b11);

    /// Combines two interests.
    #[must_use]
    pub fn union(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Does this interest include readability?
    #[must_use]
    pub fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// Does this interest include writability?
    #[must_use]
    pub fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

/// One readiness event delivered by [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the source was registered (or notifier created) with.
    pub token: Token,
    /// The source is readable — which includes hangup/error, so the
    /// handler observes EOF or the error from the actual read.
    pub readable: bool,
    /// The source is writable.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; readable is also set.
    pub hangup: bool,
}

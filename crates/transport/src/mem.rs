//! In-memory loopback transport.
//!
//! The same framed, blocking, deadline-bearing pipe as the TCP
//! transport, built on `std::sync::mpsc` — so CI containers with no
//! network namespace, deterministic benches, and the adversary's fault
//! wrappers all run the *identical* stack from the codec up. Frames
//! travel whole (message semantics, like datagrams) and still pass through
//! [`decode_datagram`] on receive, so a fault wrapper that truncates or
//! bit-flips the framed bytes is caught by the same codec checks a real
//! wire would hit.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use proverguard_reactor::Notifier;

use crate::error::TransportError;
use crate::frame::{decode_datagram, encode_frame};
use crate::nb::{NbTransport, ReadySource, SignalCell};
use crate::{Acceptor, LinkStats, Transport};

/// One end of an in-memory loopback link.
#[derive(Debug)]
pub struct MemTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    deadline: Option<Duration>,
    max_frame: usize,
    stats: LinkStats,
    label: String,
    /// Pinged after every send (and on drop) so a non-blocking peer
    /// learns about readiness; inert while the peer runs blocking.
    peer_signal: Arc<SignalCell>,
    /// Where this end's own notifier is parked by `attach_notifier`.
    recv_signal: Arc<SignalCell>,
}

impl MemTransport {
    fn new(
        tx: Sender<Vec<u8>>,
        rx: Receiver<Vec<u8>>,
        max_frame: usize,
        label: String,
        peer_signal: Arc<SignalCell>,
        recv_signal: Arc<SignalCell>,
    ) -> Self {
        MemTransport {
            tx,
            rx,
            deadline: None,
            max_frame,
            stats: LinkStats::default(),
            label,
            peer_signal,
            recv_signal,
        }
    }

    /// Injects raw (unframed, unvalidated) bytes to the peer — the
    /// adversary's wire-level fuzzing hook. The peer's codec decides what
    /// to make of them.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the peer is gone.
    pub fn send_raw(&mut self, bytes: Vec<u8>) -> Result<(), TransportError> {
        let n = bytes.len();
        self.tx.send(bytes).map_err(|_| TransportError::Closed)?;
        self.peer_signal.ping();
        self.stats.note_sent(n);
        Ok(())
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        // Hangup notification: a non-blocking peer blocked on readiness
        // must wake to observe the disconnected channel. Disconnect
        // before the ping: a peer woken while our sender still lives
        // reads an empty, not a closed, channel and is never woken again.
        drop(std::mem::replace(&mut self.tx, channel().0));
        self.peer_signal.ping();
    }
}

impl Transport for MemTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let framed = encode_frame(payload, self.max_frame)?;
        let n = framed.len();
        self.tx.send(framed).map_err(|_| TransportError::Closed)?;
        self.peer_signal.ping();
        self.stats.note_sent(n);
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let framed = match self.deadline {
            Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout,
                RecvTimeoutError::Disconnected => TransportError::Closed,
            })?,
            None => self.rx.recv().map_err(|_| TransportError::Closed)?,
        };
        self.stats.note_received_bytes(framed.len());
        let payload = decode_datagram(&framed, self.max_frame)?;
        self.stats.note_received_frame();
        Ok(payload)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), TransportError> {
        self.deadline = deadline;
        Ok(())
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }

    fn peer(&self) -> String {
        self.label.clone()
    }

    fn into_nb(self: Box<Self>) -> Result<Box<dyn NbTransport>, TransportError> {
        Ok(Box::new(NbMem { inner: *self }))
    }
}

/// The non-blocking form of [`MemTransport`]: readiness is notifier-based
/// (the peer pings on every send and on hangup), sends never block (the
/// channel is unbounded), so flush is trivially complete.
#[derive(Debug)]
pub struct NbMem {
    inner: MemTransport,
}

impl NbTransport for NbMem {
    fn ready_source(&self) -> ReadySource {
        ReadySource::Notify
    }

    fn attach_notifier(&mut self, notifier: Notifier) {
        self.inner.recv_signal.attach(notifier);
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        match self.inner.rx.try_recv() {
            Ok(framed) => {
                self.inner.stats.note_received_bytes(framed.len());
                let payload = decode_datagram(&framed, self.inner.max_frame)?;
                self.inner.stats.note_received_frame();
                Ok(Some(payload))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn enqueue_send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)
    }

    fn flush(&mut self) -> Result<bool, TransportError> {
        Ok(true)
    }

    fn has_pending_write(&self) -> bool {
        false
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats
    }

    fn peer(&self) -> String {
        self.inner.label.clone()
    }
}

/// A connected pair of loopback transports.
#[must_use]
pub fn loopback_pair(max_frame: usize) -> (MemTransport, MemTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let a_signal = Arc::new(SignalCell::new());
    let b_signal = Arc::new(SignalCell::new());
    (
        MemTransport::new(
            a_tx,
            a_rx,
            max_frame,
            "loopback:a".to_string(),
            Arc::clone(&b_signal),
            a_signal.clone(),
        ),
        MemTransport::new(
            b_tx,
            b_rx,
            max_frame,
            "loopback:b".to_string(),
            a_signal,
            b_signal,
        ),
    )
}

/// The connections a [`LoopbackHub`] has not accepted yet, and who to
/// ping when one arrives.
#[derive(Debug, Default)]
struct Backlog {
    queue: VecDeque<MemTransport>,
    listeners: Vec<Notifier>,
    closed: bool,
    next_id: u64,
}

fn lock(backlog: &Mutex<Backlog>) -> MutexGuard<'_, Backlog> {
    // Every critical section leaves the backlog consistent, so a panic
    // elsewhere while it was held does not invalidate it.
    backlog.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The dialing side of a [`LoopbackHub`]. Cloneable: every prover thread
/// in a bench holds one.
#[derive(Debug, Clone)]
pub struct LoopbackConnector {
    backlog: Arc<Mutex<Backlog>>,
    max_frame: usize,
}

impl LoopbackConnector {
    /// Opens a new connection to the hub, returning the client end, and
    /// pings every notifier attached to the hub.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] once the hub is closed or dropped.
    pub fn connect(&self) -> Result<MemTransport, TransportError> {
        let mut backlog = lock(&self.backlog);
        if backlog.closed {
            return Err(TransportError::Closed);
        }
        let id = backlog.next_id;
        backlog.next_id += 1;
        let (client_tx, server_rx) = channel();
        let (server_tx, client_rx) = channel();
        let server_signal = Arc::new(SignalCell::new());
        let client_signal = Arc::new(SignalCell::new());
        let server = MemTransport::new(
            server_tx,
            server_rx,
            self.max_frame,
            format!("loopback#{id}"),
            Arc::clone(&client_signal),
            server_signal.clone(),
        );
        let client = MemTransport::new(
            client_tx,
            client_rx,
            self.max_frame,
            format!("gateway#{id}"),
            server_signal,
            client_signal,
        );
        backlog.queue.push_back(server);
        for listener in &backlog.listeners {
            listener.notify();
        }
        Ok(client)
    }
}

/// The listening side of the in-memory stack: connections queued by
/// [`LoopbackConnector::connect`] come out of [`Acceptor::try_accept`]
/// in order, exactly like TCP accepts would. Readiness is notifier-based.
#[derive(Debug)]
pub struct LoopbackHub {
    backlog: Arc<Mutex<Backlog>>,
}

impl LoopbackHub {
    /// A hub plus its (cloneable) connector.
    #[must_use]
    pub fn new(max_frame: usize) -> (Self, LoopbackConnector) {
        let backlog = Arc::new(Mutex::new(Backlog::default()));
        (
            LoopbackHub {
                backlog: Arc::clone(&backlog),
            },
            LoopbackConnector { backlog, max_frame },
        )
    }

    /// Marks the hub closed: subsequent `connect` calls fail with
    /// [`TransportError::Closed`]. Connections already queued are still
    /// drained by `try_accept`.
    pub fn close(&self) {
        lock(&self.backlog).closed = true;
    }
}

impl Drop for LoopbackHub {
    fn drop(&mut self) {
        // Queued connections hang up on their clients, and later dials
        // fail instead of waiting on a hub nobody accepts from.
        let mut backlog = lock(&self.backlog);
        backlog.closed = true;
        backlog.queue.clear();
    }
}

impl Acceptor for LoopbackHub {
    fn ready_source(&self) -> ReadySource {
        ReadySource::Notify
    }

    fn attach_notifier(&self, notifier: Notifier) {
        notifier.notify();
        lock(&self.backlog).listeners.push(notifier);
    }

    fn try_accept(&self) -> Result<Option<Box<dyn NbTransport>>, TransportError> {
        let mut backlog = lock(&self.backlog);
        match backlog.queue.pop_front() {
            Some(inner) => Ok(Some(Box::new(NbMem { inner }))),
            None if backlog.closed => Err(TransportError::Closed),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DEFAULT_MAX_FRAME;

    #[test]
    fn pair_roundtrip() {
        let (mut a, mut b) = loopback_pair(DEFAULT_MAX_FRAME);
        a.send(b"x").unwrap();
        b.set_deadline(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(b.recv().unwrap(), b"x");
    }

    #[test]
    fn recv_timeout_and_closed() {
        let (a, mut b) = loopback_pair(DEFAULT_MAX_FRAME);
        b.set_deadline(Some(Duration::from_millis(10))).unwrap();
        assert_eq!(b.recv(), Err(TransportError::Timeout));
        drop(a);
        assert_eq!(b.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn raw_injection_hits_the_codec() {
        let (mut a, mut b) = loopback_pair(DEFAULT_MAX_FRAME);
        a.send_raw(vec![0xff, 0xff]).unwrap();
        b.set_deadline(Some(Duration::from_secs(1))).unwrap();
        assert!(matches!(b.recv(), Err(TransportError::Malformed { .. })));
    }

    #[test]
    fn hub_accepts_connections_in_order() {
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let mut c1 = connector.connect().unwrap();
        let _c2 = connector.connect().unwrap();
        c1.send(b"first").unwrap();
        let mut s1 = hub.try_accept().unwrap().expect("first connection");
        assert_eq!(s1.ready_source(), ReadySource::Notify);
        assert_eq!(s1.try_recv().unwrap().unwrap(), b"first");
        assert!(hub.try_accept().unwrap().is_some());
        assert!(hub.try_accept().unwrap().is_none());
        drop(hub);
        assert!(connector.connect().is_err(), "nobody accepts any more");
    }

    #[test]
    fn one_connect_pings_every_attached_notifier() {
        use proverguard_reactor::{Events, Poller, Token};

        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let mut pollers = [Poller::new().unwrap(), Poller::new().unwrap()];
        let mut events = Events::default();
        for poller in &mut pollers {
            hub.attach_notifier(poller.notifier(Token(0)).unwrap());
            // The attach-time notify, which covers earlier connections.
            poller.poll(&mut events, Some(Duration::ZERO)).unwrap();
            assert_eq!(events.len(), 1);
        }
        let _client = connector.connect().unwrap();
        for poller in &mut pollers {
            poller
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "connect must ping every notifier");
        }
        assert!(hub.try_accept().unwrap().is_some());
    }

    #[test]
    fn nb_notify_roundtrip_and_hangup() {
        use proverguard_reactor::{Events, Poller, Token};

        let (a, mut b) = loopback_pair(DEFAULT_MAX_FRAME);
        let mut poller = Poller::new().unwrap();
        let mut nb = (Box::new(a) as Box<dyn Transport>).into_nb().unwrap();
        assert_eq!(nb.ready_source(), ReadySource::Notify);
        nb.attach_notifier(poller.notifier(Token(1)).unwrap());

        b.send(b"hi").unwrap();
        let mut events = Events::default();
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(!events.is_empty(), "send must ping the notifier");
        assert_eq!(nb.try_recv().unwrap().unwrap(), b"hi");
        assert_eq!(nb.try_recv().unwrap(), None);
        assert!(nb.flush().unwrap());

        drop(b);
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(!events.is_empty(), "drop must ping the notifier");
        assert_eq!(nb.try_recv(), Err(TransportError::Closed));
    }

    #[test]
    fn closed_hub_rejects_new_connections_but_drains_queued() {
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let _queued = connector.connect().unwrap();
        hub.close();
        assert!(connector.connect().is_err());
        // The queued connection still comes out …
        assert!(hub.try_accept().unwrap().is_some());
        // … then the hub reports closed.
        assert_eq!(hub.try_accept().err(), Some(TransportError::Closed));
    }
}

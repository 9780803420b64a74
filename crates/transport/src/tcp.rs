//! TCP transport: length-prefixed frames over `std::net::TcpStream`.
//!
//! This is the production-shaped path: partial reads, coalesced writes,
//! slow peers and connection churn all happen here for real. The
//! [`FrameDecoder`] underneath reassembles
//! frames from whatever the kernel hands us, so a peer dribbling one byte
//! per segment and a peer batching ten frames per segment both work.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::Duration;

use proverguard_reactor::Notifier;

use crate::error::TransportError;
use crate::frame::{encode_frame, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::nb::{NbTransport, ReadySource};
use crate::{Acceptor, LinkStats, Transport};

/// How much to ask the kernel for per read.
const READ_CHUNK: usize = 4096;

/// A framed TCP connection.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    decoder: FrameDecoder,
    stats: LinkStats,
    peer: String,
}

impl TcpTransport {
    /// Wraps an established stream with the default frame cap.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if socket options cannot be applied.
    pub fn new(stream: TcpStream) -> Result<Self, TransportError> {
        Self::with_max_frame(stream, DEFAULT_MAX_FRAME)
    }

    /// Wraps an established stream accepting payloads up to `max_frame`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if socket options cannot be applied.
    pub fn with_max_frame(stream: TcpStream, max_frame: usize) -> Result<Self, TransportError> {
        // Attestation exchanges are request/response; Nagle only adds
        // latency here.
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "tcp:unknown".to_string(), |a| a.to_string());
        Ok(TcpTransport {
            stream,
            decoder: FrameDecoder::new(max_frame),
            stats: LinkStats::default(),
            peer,
        })
    }

    /// Connects to `addr` and wraps the stream.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        Self::new(TcpStream::connect(addr)?)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let framed = encode_frame(payload, self.decoder.max_frame_len())?;
        self.stream.write_all(&framed)?;
        self.stats.note_sent(framed.len());
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                self.stats.note_received_frame();
                return Ok(frame);
            }
            let mut chunk = [0u8; READ_CHUNK];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(TransportError::Closed);
            }
            self.stats.note_received_bytes(n);
            self.decoder.extend(&chunk[..n]);
        }
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), TransportError> {
        self.stream.set_read_timeout(deadline)?;
        self.stream.set_write_timeout(deadline)?;
        Ok(())
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn into_nb(self: Box<Self>) -> Result<Box<dyn NbTransport>, TransportError> {
        self.stream.set_nonblocking(true)?;
        Ok(Box::new(NbTcp {
            fd: self.stream.as_raw_fd(),
            stream: self.stream,
            decoder: self.decoder,
            stats: self.stats,
            peer: self.peer,
            pending: Vec::new(),
            pending_off: 0,
        }))
    }
}

/// The non-blocking form of [`TcpTransport`]: readiness comes from the
/// socket fd, writes that would block are buffered for
/// [`NbTransport::flush`].
#[derive(Debug)]
pub struct NbTcp {
    stream: TcpStream,
    fd: i32,
    decoder: FrameDecoder,
    stats: LinkStats,
    peer: String,
    pending: Vec<u8>,
    pending_off: usize,
}

impl NbTransport for NbTcp {
    fn ready_source(&self) -> ReadySource {
        ReadySource::Fd(self.fd)
    }

    fn attach_notifier(&mut self, _notifier: Notifier) {}

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                self.stats.note_received_frame();
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; READ_CHUNK];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    self.stats.note_received_bytes(n);
                    self.decoder.extend(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn enqueue_send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let framed = encode_frame(payload, self.decoder.max_frame_len())?;
        self.stats.note_sent(framed.len());
        self.pending.extend_from_slice(&framed);
        self.flush().map(|_| ())
    }

    fn flush(&mut self) -> Result<bool, TransportError> {
        while self.pending_off < self.pending.len() {
            match self.stream.write(&self.pending[self.pending_off..]) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => self.pending_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        self.pending.clear();
        self.pending_off = 0;
        Ok(true)
    }

    fn has_pending_write(&self) -> bool {
        self.pending_off < self.pending.len()
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// The listening side: a non-blocking `TcpListener` whose descriptor
/// the caller's reactor watches for readiness.
pub struct TcpAcceptor {
    listener: TcpListener,
    max_frame: usize,
    local: SocketAddr,
}

impl TcpAcceptor {
    /// Binds `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on bind failure.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        Self::bind_with_max_frame(addr, DEFAULT_MAX_FRAME)
    }

    /// Binds `addr` with a custom per-connection frame cap.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on bind failure.
    pub fn bind_with_max_frame(
        addr: impl ToSocketAddrs,
        max_frame: usize,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(TcpAcceptor {
            listener,
            max_frame,
            local,
        })
    }

    /// The bound address (for clients when port 0 was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

impl Acceptor for TcpAcceptor {
    fn ready_source(&self) -> ReadySource {
        ReadySource::Fd(self.listener.as_raw_fd())
    }

    fn attach_notifier(&self, _notifier: Notifier) {}

    fn try_accept(&self) -> Result<Option<Box<dyn NbTransport>>, TransportError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn = TcpTransport::with_max_frame(stream, self.max_frame)?;
                    return Box::new(conn).into_nb().map(Some);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                // A peer that gave up mid-handshake is gone before we
                // saw it: nothing was accepted, the listener is fine.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calls `f` until it yields something (5 s budget).
    fn poll_until<T>(mut f: impl FnMut() -> Option<T>) -> T {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(t) = f() {
                return t;
            }
            assert!(std::time::Instant::now() < deadline, "nothing arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpTransport::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        let server = TcpTransport::new(server).unwrap();
        (server, client.join().unwrap())
    }

    #[test]
    fn roundtrip_over_localhost() {
        let (mut server, mut client) = pair();
        client.send(b"ping").unwrap();
        assert_eq!(server.recv().unwrap(), b"ping");
        server.send(b"pong").unwrap();
        assert_eq!(client.recv().unwrap(), b"pong");
        assert_eq!(client.stats().frames_out, 1);
        assert_eq!(client.stats().frames_in, 1);
        assert!(client.stats().bytes_out >= 4);
    }

    #[test]
    fn recv_times_out_on_silent_peer() {
        let (mut server, _client) = pair();
        server
            .set_deadline(Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(server.recv(), Err(TransportError::Timeout));
    }

    #[test]
    fn recv_reports_closed_on_hangup() {
        let (mut server, client) = pair();
        drop(client);
        server
            .set_deadline(Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(server.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn garbage_stream_is_malformed_not_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream).unwrap();
        server
            .set_deadline(Some(Duration::from_millis(500)))
            .unwrap();
        assert!(matches!(
            server.recv(),
            Err(TransportError::Malformed { .. })
        ));
        writer.join().unwrap();
    }

    #[test]
    fn acceptor_polls_and_accepts() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        assert!(matches!(acceptor.ready_source(), ReadySource::Fd(_)));
        // Nothing to accept: a would-block, not an error.
        assert!(acceptor.try_accept().unwrap().is_none());
        let addr = acceptor.local_addr();
        let client = std::thread::spawn(move || {
            let mut c = TcpTransport::connect(addr).unwrap();
            c.send(b"hi").unwrap();
            c
        });
        let mut conn = poll_until(|| acceptor.try_accept().unwrap());
        assert_eq!(poll_until(|| conn.try_recv().unwrap()), b"hi");
        drop(client.join().unwrap());
    }

    #[test]
    fn nb_roundtrip_and_close() {
        let (server, mut client) = pair();
        let mut nb = (Box::new(server) as Box<dyn Transport>).into_nb().unwrap();
        assert!(matches!(nb.ready_source(), ReadySource::Fd(_)));
        assert_eq!(nb.try_recv().unwrap(), None, "no data: would-block");

        client.send(b"ping").unwrap();
        assert_eq!(poll_until(|| nb.try_recv().unwrap()), b"ping");

        nb.enqueue_send(b"pong").unwrap();
        while !nb.flush().unwrap() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!nb.has_pending_write());
        client.set_deadline(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(client.recv().unwrap(), b"pong");
        assert!(nb.stats().frames_in >= 1 && nb.stats().frames_out >= 1);

        drop(client);
        let err = loop {
            match nb.try_recv() {
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Ok(Some(f)) => panic!("unexpected frame {f:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, TransportError::Closed);
    }

    #[test]
    fn oversized_send_rejected_locally() {
        let (mut server, _client) = pair();
        let mut small =
            TcpTransport::with_max_frame(server.stream.try_clone().unwrap(), 8).unwrap();
        assert!(matches!(
            small.send(&[0u8; 9]),
            Err(TransportError::TooLarge { .. })
        ));
        let _ = &mut server;
    }
}

//! The readiness selector: epoll / poll(2) backends, wake pipe, and the
//! notify queue that folds non-fd sources into the same poll call.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::sys::{self, RawFd};
use crate::{Event, Interest, Token};

/// Which kernel readiness primitive a [`Poller`] uses.
///
/// Both backends implement identical semantics (level-triggered fd
/// readiness merged with the notify queue); CI runs the reactor test
/// suite against both so the portable fallback stays honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll(7)` — O(ready) wait, the fast path for large fleets.
    Epoll,
    /// Portable `poll(2)` — O(registered) wait, the fallback path.
    Poll,
}

/// Sentinel stored in the selector for the wake pipe's read end.
const WAKE_DATA: u64 = u64::MAX;

/// The write end of the wake pipe, shared by every [`Waker`] clone.
struct WakePipe {
    tx: RawFd,
}

impl WakePipe {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup, so EAGAIN is
        // success; other errors mean the poller is gone, which is fine.
        let _ = sys::sys_write(self.tx, &[1u8]);
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        sys::sys_close(self.tx);
    }
}

/// Wakes a [`Poller`] blocked in [`Poller::poll`] from another thread.
///
/// Cheap to clone; waking an already-awake poller is a no-op beyond one
/// pipe write.
#[derive(Clone)]
pub struct Waker {
    pipe: Arc<WakePipe>,
}

impl Waker {
    /// Interrupts the poller's current (or next) blocking wait.
    pub fn wake(&self) {
        self.pipe.wake();
    }
}

/// Shared state behind one [`Notifier`].
struct NotifyState {
    token: Token,
    /// True while an undelivered readiness event for this source sits in
    /// the queue — collapses bursts of notifies into one event.
    queued: AtomicBool,
    queue: Arc<Mutex<VecDeque<Arc<NotifyState>>>>,
    pipe: Arc<WakePipe>,
}

/// Readiness signal for a non-fd event source (e.g. an in-memory
/// loopback channel), delivered through the owning [`Poller`] exactly
/// like an fd event.
///
/// Semantics are edge-style: each [`Notifier::notify`] guarantees at
/// least one future readiness event, and bursts between deliveries
/// collapse into one — so the handler must drain its source completely
/// on every event, exactly as it would with an edge-triggered fd.
#[derive(Clone)]
pub struct Notifier {
    state: Arc<NotifyState>,
}

impl fmt::Debug for Notifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Notifier").field(&self.state.token).finish()
    }
}

impl Notifier {
    /// Marks the source ready and wakes the poller.
    pub fn notify(&self) {
        if !self.state.queued.swap(true, Ordering::AcqRel) {
            self.state
                .queue
                .lock()
                .expect("notify queue poisoned")
                .push_back(Arc::clone(&self.state));
            self.state.pipe.wake();
        }
    }

    /// The token events for this source carry.
    #[must_use]
    pub fn token(&self) -> Token {
        self.state.token
    }
}

/// A batch of readiness events, reused across [`Poller::poll`] calls to
/// avoid per-iteration allocation.
#[derive(Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// Creates an empty batch with room for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: Vec::with_capacity(capacity),
        }
    }

    /// Iterates the events delivered by the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// Number of delivered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the last poll delivered nothing (pure timeout/wake).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

struct PollEntry {
    fd: RawFd,
    token: Token,
    interest: Interest,
}

enum Selector {
    Epoll {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
    },
    Poll {
        entries: Vec<PollEntry>,
    },
}

impl Drop for Selector {
    fn drop(&mut self) {
        if let Selector::Epoll { epfd, .. } = self {
            sys::sys_close(*epfd);
        }
    }
}

/// The readiness selector one shard owns: registered fds, the wake
/// pipe, and the notify queue, multiplexed through one blocking wait.
///
/// `Poller` is deliberately `&mut`-driven and not `Sync`: a shard owns
/// its poller exclusively, and cross-thread interaction goes through
/// the cloneable [`Waker`] / [`Notifier`] handles only.
pub struct Poller {
    selector: Selector,
    wake_rx: RawFd,
    pipe: Arc<WakePipe>,
    notify_queue: Arc<Mutex<VecDeque<Arc<NotifyState>>>>,
}

impl Poller {
    /// Creates a poller on the platform's preferred backend.
    pub fn new() -> io::Result<Poller> {
        if cfg!(target_os = "linux") {
            Poller::with_backend(Backend::Epoll)
        } else {
            Poller::with_backend(Backend::Poll)
        }
    }

    /// Creates a poller on an explicit backend (tests run both).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        let (rx, tx) = sys::sys_pipe()?;
        let selector = match backend {
            Backend::Epoll => {
                let epfd = match sys::sys_epoll_create() {
                    Ok(fd) => fd,
                    Err(e) => {
                        sys::sys_close(rx);
                        sys::sys_close(tx);
                        return Err(e);
                    }
                };
                if let Err(e) =
                    sys::sys_epoll_ctl(epfd, sys::EPOLL_CTL_ADD, rx, sys::EPOLLIN, WAKE_DATA)
                {
                    sys::sys_close(epfd);
                    sys::sys_close(rx);
                    sys::sys_close(tx);
                    return Err(e);
                }
                Selector::Epoll {
                    epfd,
                    buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
                }
            }
            Backend::Poll => Selector::Poll {
                entries: Vec::new(),
            },
        };
        Ok(Poller {
            selector,
            wake_rx: rx,
            pipe: Arc::new(WakePipe { tx }),
            notify_queue: Arc::new(Mutex::new(VecDeque::new())),
        })
    }

    /// Which backend this poller runs on.
    #[must_use]
    pub fn backend(&self) -> Backend {
        match self.selector {
            Selector::Epoll { .. } => Backend::Epoll,
            Selector::Poll { .. } => Backend::Poll,
        }
    }

    /// A cloneable cross-thread wake handle.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            pipe: Arc::clone(&self.pipe),
        }
    }

    /// Creates a readiness notifier for a non-fd source under `token`.
    pub fn notifier(&self, token: Token) -> io::Result<Notifier> {
        if token == Token::WAKE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "Token::WAKE is reserved",
            ));
        }
        Ok(Notifier {
            state: Arc::new(NotifyState {
                token,
                queued: AtomicBool::new(false),
                queue: Arc::clone(&self.notify_queue),
                pipe: Arc::clone(&self.pipe),
            }),
        })
    }

    fn epoll_mask(interest: Interest) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if interest.is_readable() {
            mask |= sys::EPOLLIN;
        }
        if interest.is_writable() {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    /// Registers `fd` for level-triggered readiness under `token`.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if token == Token::WAKE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "Token::WAKE is reserved",
            ));
        }
        match &mut self.selector {
            Selector::Epoll { epfd, .. } => sys::sys_epoll_ctl(
                *epfd,
                sys::EPOLL_CTL_ADD,
                fd,
                Self::epoll_mask(interest),
                token.0 as u64,
            ),
            Selector::Poll { entries } => {
                if entries.iter().any(|e| e.fd == fd) {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                entries.push(PollEntry {
                    fd,
                    token,
                    interest,
                });
                Ok(())
            }
        }
    }

    /// Changes the interest/token of an already-registered `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.selector {
            Selector::Epoll { epfd, .. } => sys::sys_epoll_ctl(
                *epfd,
                sys::EPOLL_CTL_MOD,
                fd,
                Self::epoll_mask(interest),
                token.0 as u64,
            ),
            Selector::Poll { entries } => {
                let entry = entries
                    .iter_mut()
                    .find(|e| e.fd == fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                entry.token = token;
                entry.interest = interest;
                Ok(())
            }
        }
    }

    /// Removes `fd` from the selector. Callers close the fd themselves
    /// afterwards (epoll also auto-deregisters on close).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.selector {
            Selector::Epoll { epfd, .. } => sys::sys_epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, 0, 0),
            Selector::Poll { entries } => {
                let before = entries.len();
                entries.retain(|e| e.fd != fd);
                if entries.len() == before {
                    Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Blocks until readiness, a wake, a notify, or `timeout`, then
    /// fills `events` with everything ready.
    ///
    /// An empty `events` after return means the wait ended by timeout or
    /// a bare [`Waker::wake`] — both are normal control-flow signals for
    /// the shard loop (run timers / check the inbox).
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();

        // Undelivered notifies make the wait non-blocking so fd events
        // still get collected but nothing stalls the queued sources.
        let timeout_ms = if self
            .notify_queue
            .lock()
            .expect("notify queue poisoned")
            .is_empty()
        {
            match timeout {
                None => -1i32,
                Some(d) => {
                    let ms = d.as_millis();
                    if ms == 0 && !d.is_zero() {
                        1
                    } else {
                        ms.min(i32::MAX as u128) as i32
                    }
                }
            }
        } else {
            0
        };

        let mut drain_wake = false;
        match &mut self.selector {
            Selector::Epoll { epfd, buf } => {
                let n = sys::sys_epoll_wait(*epfd, buf, timeout_ms)?;
                for ev in buf.iter().take(n) {
                    // Copy out of the (packed on x86) struct first.
                    let mask = ev.events;
                    let data = ev.data;
                    if data == WAKE_DATA {
                        drain_wake = true;
                        continue;
                    }
                    let hangup = mask & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0;
                    events.inner.push(Event {
                        token: Token(data as usize),
                        readable: mask & sys::EPOLLIN != 0 || hangup,
                        writable: mask & sys::EPOLLOUT != 0,
                        hangup,
                    });
                }
            }
            Selector::Poll { entries } => {
                let mut fds = Vec::with_capacity(entries.len() + 1);
                fds.push(sys::PollFd {
                    fd: self.wake_rx,
                    events: sys::POLLIN,
                    revents: 0,
                });
                for e in entries.iter() {
                    let mut mask = 0i16;
                    if e.interest.is_readable() {
                        mask |= sys::POLLIN;
                    }
                    if e.interest.is_writable() {
                        mask |= sys::POLLOUT;
                    }
                    fds.push(sys::PollFd {
                        fd: e.fd,
                        events: mask,
                        revents: 0,
                    });
                }
                sys::sys_poll(&mut fds, timeout_ms)?;
                if fds[0].revents != 0 {
                    drain_wake = true;
                }
                for (slot, entry) in fds[1..].iter().zip(entries.iter()) {
                    let r = slot.revents;
                    if r == 0 {
                        continue;
                    }
                    let hangup = r & (sys::POLLHUP | sys::POLLERR) != 0;
                    events.inner.push(Event {
                        token: entry.token,
                        readable: r & sys::POLLIN != 0 || hangup,
                        writable: r & sys::POLLOUT != 0,
                        hangup,
                    });
                }
            }
        }

        if drain_wake {
            let mut sink = [0u8; 64];
            while matches!(sys::sys_read(self.wake_rx, &mut sink), Ok(n) if n > 0) {}
        }

        // Deliver queued non-fd readiness. Re-arm (clear `queued`)
        // *before* emitting so a notify landing while the handler runs
        // queues a fresh event instead of being lost.
        loop {
            let state = {
                let mut q = self.notify_queue.lock().expect("notify queue poisoned");
                match q.pop_front() {
                    Some(s) => s,
                    None => break,
                }
            };
            state.queued.store(false, Ordering::Release);
            events.inner.push(Event {
                token: state.token,
                readable: true,
                writable: false,
                hangup: false,
            });
        }

        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::sys_close(self.wake_rx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    fn both_backends(f: impl Fn(Backend)) {
        f(Backend::Poll);
        if cfg!(target_os = "linux") {
            f(Backend::Epoll);
        }
    }

    #[test]
    fn pipe_readiness_roundtrip() {
        both_backends(|backend| {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (rx, tx) = sys::sys_pipe().unwrap();
            poller.register(rx, Token(7), Interest::READABLE).unwrap();

            let mut events = Events::with_capacity(8);
            // Nothing written yet: timeout path.
            poller
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious event");

            sys::sys_write(tx, b"x").unwrap();
            poller
                .poll(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            let ev = events.iter().next().expect("readable event");
            assert_eq!(ev.token, Token(7));
            assert!(ev.readable);

            poller.deregister(rx).unwrap();
            sys::sys_close(rx);
            sys::sys_close(tx);
        });
    }

    #[test]
    fn hangup_reports_readable() {
        both_backends(|backend| {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (rx, tx) = sys::sys_pipe().unwrap();
            poller.register(rx, Token(3), Interest::READABLE).unwrap();
            sys::sys_close(tx); // peer goes away
            let mut events = Events::default();
            poller
                .poll(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            let ev = events.iter().next().expect("hangup event");
            assert!(ev.readable && ev.hangup, "{backend:?}: {ev:?}");
            poller.deregister(rx).unwrap();
            sys::sys_close(rx);
        });
    }

    #[test]
    fn waker_interrupts_blocking_poll() {
        both_backends(|backend| {
            let mut poller = Poller::with_backend(backend).unwrap();
            let waker = poller.waker();
            let handle = thread::spawn(move || {
                thread::sleep(Duration::from_millis(30));
                waker.wake();
            });
            let start = Instant::now();
            let mut events = Events::default();
            poller
                .poll(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(events.is_empty());
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{backend:?}: wake did not interrupt"
            );
            handle.join().unwrap();
        });
    }

    #[test]
    fn notifier_delivers_and_collapses() {
        both_backends(|backend| {
            let mut poller = Poller::with_backend(backend).unwrap();
            let notifier = poller.notifier(Token(42)).unwrap();
            notifier.notify();
            notifier.notify();
            notifier.notify();
            let mut events = Events::default();
            poller
                .poll(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}: burst must collapse");
            assert_eq!(events.iter().next().unwrap().token, Token(42));

            // Re-armed after delivery.
            notifier.notify();
            poller
                .poll(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1);
        });
    }

    #[test]
    fn notifier_from_other_thread_wakes_poll() {
        both_backends(|backend| {
            let mut poller = Poller::with_backend(backend).unwrap();
            let notifier = poller.notifier(Token(9)).unwrap();
            let handle = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                notifier.notify();
            });
            let mut events = Events::default();
            poller
                .poll(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events.iter().next().unwrap().token, Token(9));
            handle.join().unwrap();
        });
    }

    #[test]
    fn wake_token_is_rejected() {
        let mut poller = Poller::with_backend(Backend::Poll).unwrap();
        assert!(poller.register(0, Token::WAKE, Interest::READABLE).is_err());
        assert!(poller.notifier(Token::WAKE).is_err());
    }
}

//! The gateway's I/O driver: sharded readiness loops.
//!
//! The driver runs `reactor_shards` event loops, each owning a
//! [`Poller`], a [`DeadlineWheel`], and a slab of per-connection state
//! machines. A connection never owns a thread: it is a continuation that
//! advances when its socket (or loopback notifier) reports readiness or
//! one of its deadlines fires. One shard comfortably holds thousands of
//! concurrent connections, so a single verifier process scales to the
//! fleet sizes of the paper's deployment story instead of the thread
//! count of its host.
//!
//! **Protocol semantics come from shared building blocks.** The
//! per-connection state machine drives [`DriverCursor`] for one-shot
//! retry accounting (the same cursor [`crate::session::SessionDriver`]
//! runs), [`crate::channel`] for the attested handshake and sealed
//! rounds, the shared session table for resume, and
//! [`super::record_conclusion`] for the fleet ledger. Each protocol step
//! has one code path: one hello path, one one-shot retry stepper, one
//! device lookup and one request-minting helper. The global
//! [`super::GatewayStats`] partition laws hold; each shard additionally
//! satisfies its own law ([`ShardSnapshot::partition_holds`]).
//!
//! **Each shard accepts for itself.** Every shard watches the gateway's
//! one [`Acceptor`] as one more readiness source (the [`LISTENER`]
//! token). On readiness it accepts until the acceptor is empty and
//! registers each connection in its own poller, so a connection lives
//! on the thread that accepted it and never crosses to another.
//! Admission is global and deterministic: one shared count of open
//! connections is checked against `reactor_shards ×
//! max_conns_per_shard`, and a connection accepted past it is shed with
//! a one-frame `Busy` — cheap, and honest provers already know to back
//! off. An acceptor error is counted (`gateway.accept_errors`) and
//! pauses that shard's listener for [`ACCEPT_BACKOFF_MS`] instead of
//! spinning on it; only shutdown stops accepting for good.
//!
//! Telemetry: every metrics counter is recorded on the shard that did
//! the work, and each concluded connection records its
//! registration-to-conclusion time in the `gateway.session_us`
//! histogram. Per-session trace *spans* are not recorded (a span guard
//! cannot straddle poll iterations). A response frame arriving during a
//! retry backoff is discarded instead of being misread as the next
//! attempt's answer.

use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use proverguard_reactor::{DeadlineWheel, Event, Events, Interest, Poller, TimerId, Token};
use proverguard_telemetry::metrics;
use proverguard_telemetry::trace;
use proverguard_transport::nb::{NbTransport, RawFd, ReadySource};
use proverguard_transport::{Acceptor, TransportError};

use crate::channel::{self, HandshakeAccept, HandshakeInit};
use crate::error::{AttestError, RejectReason};
use crate::fleet::FleetController;
use crate::message::{AttestRequest, AttestResponse};
use crate::session::{AttemptOutcome, DriverCursor, DriverStep, RetryPolicy};
use crate::verifier::Verifier;

use super::{
    record_conclusion, DeviceDirectory, DeviceEntry, GatewayConfig, GatewayHandle, GatewayMsg,
    GatewayShared, GatewayStats, SessionEntry, SessionTable, Speculation, ThreadExit,
};

/// Deadline-wheel granularity: timers fire never early and at most this
/// many milliseconds late. 4 ms is far below every protocol timeout and
/// keeps the idle poll cadence cheap.
const WHEEL_GRANULARITY_MS: u64 = 4;
const WHEEL_SLOTS: usize = 1024;

/// The token of the listener in every shard's poller and wheel.
/// Connection tokens are slab indices, and `usize::MAX` is the poller's
/// own wake token.
const LISTENER: Token = Token(usize::MAX - 1);

/// How long a shard stops watching the listener after an acceptor error
/// (a persistent `EMFILE` keeps a level-triggered listener readable).
const ACCEPT_BACKOFF_MS: u64 = 10;

// ---------------------------------------------------------------------------
// Per-shard stats
// ---------------------------------------------------------------------------

/// Live per-shard counters (atomics; written by the shard's event loop,
/// read by observers and the CI partition check).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Connections admitted by this shard.
    pub(super) assigned: AtomicU64,
    /// Connections currently owned by the shard.
    pub(super) registered: AtomicU64,
    /// Assigned connections that died before/during handshake.
    pub(super) handshake_failed: AtomicU64,
    /// Assigned connections concluded with a verified attestation.
    pub(super) sessions_ok: AtomicU64,
    /// Assigned connections concluded without one.
    pub(super) sessions_failed: AtomicU64,
    /// Readiness events delivered to this shard's connections.
    pub(super) readiness_events: AtomicU64,
    /// Deadline-wheel timers that actually fired (stale ones excluded).
    pub(super) deadline_expiries: AtomicU64,
}

impl ShardStats {
    pub(super) fn snapshot(&self, shard: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            assigned: self.assigned.load(Ordering::SeqCst),
            registered: self.registered.load(Ordering::SeqCst),
            handshake_failed: self.handshake_failed.load(Ordering::SeqCst),
            sessions_ok: self.sessions_ok.load(Ordering::SeqCst),
            sessions_failed: self.sessions_failed.load(Ordering::SeqCst),
            readiness_events: self.readiness_events.load(Ordering::SeqCst),
            deadline_expiries: self.deadline_expiries.load(Ordering::SeqCst),
        }
    }
}

/// A point-in-time copy of one shard's live counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index (0-based).
    pub shard: usize,
    /// Connections admitted by this shard.
    pub assigned: u64,
    /// Connections the shard still owns (0 once quiesced).
    pub registered: u64,
    /// Assigned connections that died before/during handshake.
    pub handshake_failed: u64,
    /// Assigned connections concluded with a verified attestation.
    pub sessions_ok: u64,
    /// Assigned connections concluded without one.
    pub sessions_failed: u64,
    /// Readiness events the shard's poller delivered to its
    /// connections (listener events are not counted).
    pub readiness_events: u64,
    /// Deadline-wheel timers that fired (stale timers excluded).
    pub deadline_expiries: u64,
}

impl ShardSnapshot {
    /// The shard-level conservation law, mirroring the global one: every
    /// connection admitted by the shard is exactly one of still-owned,
    /// handshake-failed, session-ok or session-failed. Exact once the
    /// shard quiesces (`registered == 0` after shutdown).
    #[must_use]
    pub fn partition_holds(&self) -> bool {
        self.assigned
            == self.registered + self.handshake_failed + self.sessions_ok + self.sessions_failed
    }
}

// ---------------------------------------------------------------------------
// Startup
// ---------------------------------------------------------------------------

pub(super) fn start(
    acceptor: Box<dyn Acceptor>,
    directory: DeviceDirectory,
    config: GatewayConfig,
) -> GatewayHandle {
    let shards_n = config.reactor_shards.max(1);
    let capacity = (shards_n * config.max_conns_per_shard.max(1)) as u64;
    let fleet = FleetController::new(directory.len(), config.fleet);
    let shared = Arc::new(GatewayShared {
        directory,
        fleet: Mutex::new(fleet),
        stats: GatewayStats::new(),
        config,
        started: Instant::now(),
        sessions: Mutex::new(SessionTable::default()),
        open: AtomicU64::new(0),
    });
    let acceptor: Arc<dyn Acceptor> = Arc::from(acceptor);
    let shutdown = Arc::new(AtomicBool::new(false));

    let mut shard_stats = Vec::with_capacity(shards_n);
    let mut shard_wakers = Vec::with_capacity(shards_n);
    let mut shards = Vec::with_capacity(shards_n);
    for idx in 0..shards_n {
        let stats = Arc::new(ShardStats::default());
        let poller = Poller::new().expect("create shard poller");
        shard_stats.push(Arc::clone(&stats));
        shard_wakers.push(poller.waker());
        let shard = Shard {
            ctx: Arc::clone(&shared),
            stats,
            acceptor: Arc::clone(&acceptor),
            listening: false,
            capacity,
            poller,
            events: Events::with_capacity(1024),
            wheel: DeadlineWheel::new(WHEEL_GRANULARITY_MS, WHEEL_SLOTS),
            conns: Vec::new(),
            free: Vec::new(),
            shutdown: Arc::clone(&shutdown),
            spans: 0,
        };
        shards.push(
            thread::Builder::new()
                .name(format!("gw-shard-{idx}"))
                .spawn(move || shard.run())
                .expect("spawn gateway shard"),
        );
    }

    GatewayHandle {
        shared,
        shutdown,
        shards,
        shard_stats,
        shard_wakers,
    }
}

// ---------------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Establishment budget: first hello, and the whole attested
    /// handshake, share one deadline (slowloris defence).
    Establish,
    /// One in-flight attempt / in-session round awaiting its response.
    Attempt,
    /// Between one-shot retries.
    Backoff,
    /// Flushing buffered writes after conclusion.
    Drain,
}

/// What a connection's first frame asks for.
enum Opening {
    /// `Hello`: a one-shot attestation.
    Oneshot,
    /// `SessHello` without a session id: the attested handshake.
    Handshake,
    /// `SessHello` naming a session: one sealed in-session round.
    Resume([u8; channel::SESSION_ID_SIZE]),
}

enum ConnState {
    /// Waiting for the first frame (Hello / SessHello).
    AwaitHello,
    /// One-shot attestation driven by a [`DriverCursor`]. `attempt` is
    /// the in-flight attempt; `None` while a backoff timer owns the
    /// connection.
    Oneshot {
        cursor: DriverCursor,
        attempt: Option<Attempt>,
    },
    /// Attested handshake: `SessInit` sent, awaiting `SessAccept`.
    Handshake {
        init: HandshakeInit,
        request: AttestRequest,
    },
    /// One sealed in-session round: request sealed out, awaiting the
    /// sealed reply. The session is held out of the table (fail closed).
    Round {
        session: Box<SessionEntry>,
        request: AttestRequest,
    },
    /// Concluded; flushing buffered writes before close.
    Draining,
}

/// One in-flight one-shot attempt: its request and, when the device's
/// speculation credit paid for one, the verdict computed while the prover
/// works.
struct Attempt {
    request: AttestRequest,
    speculation: Option<Speculation>,
}

struct Conn {
    nb: Box<dyn NbTransport>,
    fd: Option<RawFd>,
    token: Token,
    device_id: u64,
    state: ConnState,
    timer: Option<(TimerId, TimerKind)>,
    /// When the shard registered the connection (`gateway.session_us`
    /// runs from here to conclusion).
    registered_at: Instant,
    /// Absolute (gateway-clock) establishment deadline in ms.
    establish_deadline_ms: u64,
    /// Set when the link is unrecoverable (peer gone, stream poisoned);
    /// later attempts fail instantly instead of burning timeouts.
    link_dead: bool,
    write_interest: bool,
    closed: bool,
}

// ---------------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------------

struct Shard {
    ctx: Arc<GatewayShared>,
    stats: Arc<ShardStats>,
    /// The listener every shard shares.
    acceptor: Arc<dyn Acceptor>,
    /// False while paused after an acceptor error, and after shutdown.
    listening: bool,
    /// Connections the whole gateway admits at once.
    capacity: u64,
    poller: Poller,
    events: Events,
    wheel: DeadlineWheel,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    shutdown: Arc<AtomicBool>,
    spans: u64,
}

impl Shard {
    fn run(mut self) -> ThreadExit {
        metrics::reset();
        trace::reset();
        trace::set_capacity(self.ctx.config.trace_capacity.max(16));
        trace::enable();
        if let Ok(notifier) = self.poller.notifier(LISTENER) {
            self.acceptor.attach_notifier(notifier);
        }
        self.listen();
        let mut fired: Vec<(TimerId, Token)> = Vec::new();
        let mut batch: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.unlisten();
                if self.stats.registered.load(Ordering::SeqCst) == 0 {
                    break;
                }
            }
            let timeout = self.wheel.next_timeout_ms().map(Duration::from_millis);
            let _ = self.poller.poll(&mut self.events, timeout);
            batch.clear();
            batch.extend(self.events.iter().copied());
            let listener_ready = batch.iter().any(|ev| ev.token == LISTENER);
            batch.retain(|ev| ev.token != LISTENER);
            if !batch.is_empty() {
                self.stats
                    .readiness_events
                    .fetch_add(batch.len() as u64, Ordering::SeqCst);
                metrics::counter_add("gateway.reactor.readiness_events", batch.len() as u64);
            }
            for ev in &batch {
                self.handle_event(*ev);
            }
            // Serve the connections already held before taking new ones.
            if listener_ready {
                self.accept_ready();
            }
            fired.clear();
            let now = self.ctx.elapsed_ms();
            self.wheel.advance(now, &mut fired);
            for (id, token) in fired.drain(..) {
                if token != LISTENER {
                    self.handle_timer(id, token);
                } else if !self.shutdown.load(Ordering::SeqCst) {
                    self.listen();
                }
            }
            // Keep the trace ring shallow, preserving the dropped count.
            self.spans += trace::drain()
                .iter()
                .filter(|e| matches!(e, proverguard_telemetry::trace::TraceEvent::Span { .. }))
                .count() as u64;
        }
        ThreadExit {
            registry: metrics::snapshot(),
            spans: self.spans,
            dropped_spans: trace::dropped(),
        }
    }

    // -- listener ------------------------------------------------------------

    /// Starts watching the listener, then accepts what already waits: a
    /// notifier source's pings are ignored while it is not watched.
    fn listen(&mut self) {
        let watched = match self.acceptor.ready_source() {
            ReadySource::Fd(fd) => self.poller.register(fd, LISTENER, Interest::READABLE),
            ReadySource::Notify => Ok(()),
        };
        if watched.is_err() {
            return self.pause_listener();
        }
        self.listening = true;
        self.accept_ready();
    }

    /// Stops watching the listener (shutdown, or an acceptor error).
    fn unlisten(&mut self) {
        if !mem::take(&mut self.listening) {
            return;
        }
        if let ReadySource::Fd(fd) = self.acceptor.ready_source() {
            let _ = self.poller.deregister(fd);
        }
    }

    /// An acceptor error: counted, and the listener left unwatched for
    /// [`ACCEPT_BACKOFF_MS`], after which a wheel timer resumes it.
    fn pause_listener(&mut self) {
        metrics::counter_add("gateway.accept_errors", 1);
        self.unlisten();
        let resume_at = self.ctx.elapsed_ms().saturating_add(ACCEPT_BACKOFF_MS);
        self.wheel.schedule(LISTENER, resume_at);
    }

    /// Accepts until the acceptor is empty (or errs).
    fn accept_ready(&mut self) {
        while self.listening {
            match self.acceptor.try_accept() {
                Ok(Some(nb)) => self.admit(nb),
                Ok(None) => return,
                Err(_) => self.pause_listener(),
            }
        }
    }

    /// Admits one accepted connection, or sheds it with a one-frame
    /// `Busy` once the gateway holds `capacity`. The shared count is
    /// raised before it is checked, so concurrent shards never overshoot.
    fn admit(&mut self, mut nb: Box<dyn NbTransport>) {
        let ctx = &self.ctx;
        ctx.stats.accepted.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.accepted", 1);
        if ctx.open.fetch_add(1, Ordering::SeqCst) >= self.capacity {
            ctx.open.fetch_sub(1, Ordering::SeqCst);
            ctx.stats.busy_rejected.fetch_add(1, Ordering::SeqCst);
            metrics::counter_add("gateway.busy", 1);
            // Never blocks: a fresh connection's send buffer takes one
            // small frame, and what it does not take is dropped with it.
            let _ = nb.enqueue_send(&GatewayMsg::Busy.encode());
            return;
        }
        ctx.stats.admitted.fetch_add(1, Ordering::SeqCst);
        self.stats.assigned.fetch_add(1, Ordering::SeqCst);
        self.stats.registered.fetch_add(1, Ordering::SeqCst);
        self.register_conn(nb);
    }

    // -- connection lifecycle ------------------------------------------------

    fn register_conn(&mut self, mut nb: Box<dyn NbTransport>) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = Token(slot);
        let watched = match nb.ready_source() {
            ReadySource::Fd(fd) => self
                .poller
                .register(fd, token, Interest::READABLE)
                .map(|()| Some(fd)),
            ReadySource::Notify => self.poller.notifier(token).map(|notifier| {
                nb.attach_notifier(notifier);
                None
            }),
        };
        let Ok(fd) = watched else {
            // Cannot observe readiness: the connection is dead on arrival.
            // Same accounting as a link failure.
            self.free.push(slot);
            self.fail_handshake("gateway.handshake.link");
            self.release();
            return;
        };
        let establish_deadline_ms = self
            .ctx
            .elapsed_ms()
            .saturating_add(self.ctx.config.read_timeout_ms);
        let mut conn = Conn {
            nb,
            fd,
            token,
            device_id: u64::MAX,
            state: ConnState::AwaitHello,
            timer: None,
            registered_at: Instant::now(),
            establish_deadline_ms,
            link_dead: false,
            write_interest: false,
            closed: false,
        };
        self.arm(
            &mut conn,
            TimerKind::Establish,
            self.ctx.config.read_timeout_ms,
        );
        self.conns[slot] = Some(conn);
        metrics::gauge_set(
            "gateway.reactor.registered",
            self.stats.registered.load(Ordering::SeqCst),
        );
    }

    /// Tears the connection down: timers cancelled, fd deregistered, slot
    /// recycled. Every terminal path funnels through here exactly once.
    fn finish_close(&mut self, mut conn: Conn) {
        if let Some((id, _)) = conn.timer.take() {
            self.wheel.cancel(id);
        }
        if let Some(fd) = conn.fd {
            let _ = self.poller.deregister(fd);
        }
        let slot = conn.token.0;
        drop(conn);
        self.conns[slot] = None;
        self.free.push(slot);
        self.release();
    }

    /// Gives a gone connection's place back, to this shard and to the
    /// gateway's admission count.
    fn release(&mut self) {
        let left = self.stats.registered.fetch_sub(1, Ordering::SeqCst) - 1;
        self.ctx.open.fetch_sub(1, Ordering::SeqCst);
        metrics::gauge_set("gateway.reactor.registered", left);
    }

    // -- readiness dispatch --------------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        let Some(mut conn) = self.conns.get_mut(ev.token.0).and_then(Option::take) else {
            return;
        };
        if ev.writable && !conn.closed {
            self.pump_write(&mut conn);
        }
        if (ev.readable || ev.hangup) && !conn.closed {
            self.pump_read(&mut conn);
        }
        if conn.closed {
            self.finish_close(conn);
        } else {
            self.conns[ev.token.0] = Some(conn);
        }
    }

    fn handle_timer(&mut self, id: TimerId, token: Token) {
        let Some(mut conn) = self.conns.get_mut(token.0).and_then(Option::take) else {
            return;
        };
        let Some((_, kind)) = conn.timer.filter(|&(tid, _)| tid == id) else {
            // Stale: the connection re-armed or cleared since.
            self.conns[token.0] = Some(conn);
            return;
        };
        conn.timer = None;
        self.stats.deadline_expiries.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.reactor.deadline_expiries", 1);
        match (kind, mem::replace(&mut conn.state, ConnState::Draining)) {
            // The first read died: a link failure, like a hangup.
            (TimerKind::Establish, ConnState::AwaitHello) => {
                self.hang_up(&mut conn, "gateway.handshake.link");
            }
            (TimerKind::Establish, ConnState::Handshake { .. }) => {
                self.hang_up(&mut conn, "gateway.handshake.deadline");
            }
            (
                TimerKind::Attempt,
                ConnState::Oneshot {
                    cursor,
                    attempt: Some(_),
                },
            ) => self.step_oneshot(&mut conn, cursor, Some(AttemptOutcome::ResponseLost)),
            (TimerKind::Attempt, ConnState::Round { .. }) => {
                self.fail_round(&mut conn, "gateway.session.link");
            }
            (
                TimerKind::Backoff,
                ConnState::Oneshot {
                    cursor,
                    attempt: None,
                },
            ) => {
                self.step_oneshot(&mut conn, cursor, None);
            }
            // Could not flush within the write budget; drop the rest.
            (TimerKind::Drain, _) => conn.closed = true,
            (_, state) => conn.state = state,
        }
        if conn.closed {
            self.finish_close(conn);
        } else {
            self.conns[token.0] = Some(conn);
        }
    }

    fn pump_read(&mut self, conn: &mut Conn) {
        loop {
            if conn.closed {
                return;
            }
            match conn.nb.try_recv() {
                Ok(Some(frame)) => self.on_frame(conn, &frame),
                Ok(None) => return,
                Err(e) => {
                    self.on_link_error(conn, &e);
                    return;
                }
            }
        }
    }

    fn pump_write(&mut self, conn: &mut Conn) {
        match conn.nb.flush() {
            Ok(true) => {
                self.set_write_interest(conn, false);
                if matches!(conn.state, ConnState::Draining) {
                    conn.closed = true;
                }
            }
            Ok(false) => {}
            Err(_) => {
                conn.link_dead = true;
                conn.closed = true;
            }
        }
    }

    // -- frame dispatch ------------------------------------------------------

    fn on_frame(&mut self, conn: &mut Conn, bytes: &[u8]) {
        let msg = GatewayMsg::decode(bytes);
        match mem::replace(&mut conn.state, ConnState::Draining) {
            ConnState::AwaitHello => self.on_hello(conn, msg),
            ConnState::Oneshot {
                cursor,
                attempt: Some(attempt),
            } => {
                let outcome =
                    self.judge(conn, &attempt.request, attempt.speculation.as_ref(), &msg);
                self.step_oneshot(conn, cursor, Some(outcome));
            }
            // A response surfacing during backoff is stale: the attempt it
            // answers has already been recorded lost.
            state @ ConnState::Oneshot { attempt: None, .. } => conn.state = state,
            ConnState::Handshake { init, request } => {
                self.on_handshake_reply(conn, &init, &request, &msg);
            }
            ConnState::Round { session, request } => {
                self.on_round_reply(conn, *session, &request, &msg);
            }
            ConnState::Draining => {
                // Drained and discarded: level-triggered readiness must
                // consume or it spins.
            }
        }
    }

    /// The one hello path: decode the opening, look the device up once,
    /// then branch only where the protocols differ.
    fn on_hello(&mut self, conn: &mut Conn, msg: Result<GatewayMsg, AttestError>) {
        let (device_id, opening) = match msg {
            Ok(GatewayMsg::Hello { device_id }) => (device_id, Opening::Oneshot),
            Ok(GatewayMsg::SessHello {
                device_id,
                session_id,
            }) => (
                device_id,
                session_id.map_or(Opening::Handshake, Opening::Resume),
            ),
            Ok(_) | Err(_) => return self.hang_up(conn, "gateway.handshake.garbage"),
        };
        conn.device_id = device_id;
        self.clear_timer(conn);
        if self.ctx.directory.get(device_id).is_none() {
            return self.refuse(
                conn,
                "gateway.handshake.unknown_device",
                &[GatewayMsg::Bye { verified: false }],
            );
        }
        match opening {
            Opening::Oneshot => {
                let policy = RetryPolicy {
                    jitter_seed: self.ctx.config.retry.jitter_seed ^ device_id,
                    ..self.ctx.config.retry
                };
                self.step_oneshot(conn, DriverCursor::new(policy), None);
            }
            Opening::Handshake => self.start_handshake(conn),
            Opening::Resume(sid) => {
                let taken = self
                    .ctx
                    .sessions
                    .lock()
                    .expect("session table lock poisoned")
                    .take(
                        device_id,
                        sid,
                        self.ctx.elapsed_ms(),
                        self.ctx.config.session_idle_ms,
                        &self.ctx.stats,
                    );
                match taken {
                    Some(session) => self.start_round(conn, session),
                    // Unknown/expired/foreign sid: cheap reject, no key
                    // material consulted.
                    None => self.refuse(
                        conn,
                        "gateway.session.expired_lookup",
                        &[
                            GatewayMsg::Reject(RejectReason::SessionExpired),
                            GatewayMsg::Bye { verified: false },
                        ],
                    ),
                }
            }
        }
    }

    // -- device access -------------------------------------------------------

    /// The directory entry of the connection's device (checked at hello).
    fn entry(&self, conn: &Conn) -> &DeviceEntry {
        self.ctx
            .directory
            .get(conn.device_id)
            .expect("device checked at hello")
    }

    /// Locks the device's verifier, brings its clock up to gateway time
    /// and mints with `mint` — the one request-minting path (one-shot
    /// attempt, handshake, in-session round).
    fn mint<R>(&self, conn: &Conn, mint: impl FnOnce(&mut Verifier) -> R) -> R {
        let mut verifier = self
            .entry(conn)
            .verifier
            .lock()
            .expect("verifier lock poisoned");
        let now = self.ctx.elapsed_ms().max(verifier.now_ms());
        verifier.set_time_ms(now);
        mint(&mut verifier)
    }

    /// Judges a reply to `request` (one-shot attempt or sealed round): a
    /// response compared with the `speculation` computed while the prover
    /// worked, or verified through the cached expected view when there
    /// is none or the device was re-targeted since; or a prover-side
    /// reject noted on the verifier.
    fn judge(
        &self,
        conn: &Conn,
        request: &AttestRequest,
        speculation: Option<&Speculation>,
        msg: &Result<GatewayMsg, AttestError>,
    ) -> AttemptOutcome {
        let entry = self.entry(conn);
        match msg {
            Ok(GatewayMsg::AttResp(raw)) => {
                let verified = AttestResponse::from_bytes(raw).is_ok_and(|response| {
                    let Some(speculation) = speculation else {
                        return entry.check_and_note(request, &response);
                    };
                    if let Some(verified) = entry.judge_speculated(speculation, request, &response)
                    {
                        metrics::counter_add("gateway.verdict.precomputed", 1);
                        return verified;
                    }
                    metrics::counter_add("gateway.verdict.speculation_miss", 1);
                    entry.check_and_note(request, &response)
                });
                if verified {
                    AttemptOutcome::Success
                } else {
                    AttemptOutcome::BadResponse
                }
            }
            Ok(GatewayMsg::Reject(reason)) => {
                let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
                verifier.note_failed(request);
                AttemptOutcome::Rejected(*reason)
            }
            _ => AttemptOutcome::BadResponse,
        }
    }

    /// Files a served session in the shared table as used just now.
    fn store_session(&self, mut session: SessionEntry) {
        let now_ms = self.ctx.elapsed_ms();
        session.last_used_ms = now_ms;
        self.ctx
            .sessions
            .lock()
            .expect("session table lock poisoned")
            .insert(
                session,
                self.ctx.config.session_capacity,
                now_ms,
                self.ctx.config.session_idle_ms,
                &self.ctx.stats,
            );
    }

    // -- one-shot path (DriverCursor) ----------------------------------------

    /// The one retry stepper (the `SessionDriver::run` loop as a
    /// continuation): records `outcome`, if an attempt just ended, on the
    /// cursor, then concludes, arms a backoff, or launches the next
    /// attempt. A dead link fails attempts instantly, so its remaining
    /// budget burns synchronously with no backoff timers.
    fn step_oneshot(
        &mut self,
        conn: &mut Conn,
        mut cursor: DriverCursor,
        mut outcome: Option<AttemptOutcome>,
    ) {
        self.clear_timer(conn);
        loop {
            if let Some(ended) = outcome.take() {
                match cursor.record(ended) {
                    DriverStep::Done => {
                        let verified = cursor.report().succeeded();
                        return self.conclude(conn, verified);
                    }
                    DriverStep::Retry { backoff_ms } => {
                        trace::event_with("session.backoff", backoff_ms);
                        if !conn.link_dead {
                            let nap = backoff_ms.min(self.ctx.config.backoff_cap_ms);
                            conn.state = ConnState::Oneshot {
                                cursor,
                                attempt: None,
                            };
                            return self.arm(conn, TimerKind::Backoff, nap);
                        }
                    }
                }
            }
            match self.send_attempt(conn) {
                Ok(attempt) => {
                    let timeout = cursor.timeout_ms().max(1);
                    conn.state = ConnState::Oneshot {
                        cursor,
                        attempt: Some(attempt),
                    };
                    return self.arm(conn, TimerKind::Attempt, timeout);
                }
                Err(lost) => outcome = Some(lost),
            }
        }
    }

    /// Mints and sends one attempt's request, or says why the attempt
    /// failed before reaching the wire. A dead link mints nothing. Once
    /// the request is fully flushed the prover is working on it, and the
    /// device's speculation credit, if set, pays for computing the
    /// expected report meanwhile.
    fn send_attempt(&mut self, conn: &mut Conn) -> Result<Attempt, AttemptOutcome> {
        if conn.link_dead {
            return Err(AttemptOutcome::RequestLost);
        }
        let request = self
            .mint(conn, Verifier::make_request)
            .map_err(AttemptOutcome::Error)?;
        match self.send_framed(conn, &GatewayMsg::AttReq(request.to_bytes())) {
            Ok(()) => {
                let speculation = if conn.nb.has_pending_write() {
                    None
                } else {
                    self.ctx
                        .directory
                        .get(conn.device_id)
                        .and_then(|entry| entry.speculate(&request))
                };
                if speculation.is_some() {
                    metrics::counter_add("gateway.verdict.speculated", 1);
                }
                Ok(Attempt {
                    request,
                    speculation,
                })
            }
            Err(e) => {
                conn.link_dead = !e.is_transient();
                Err(AttemptOutcome::RequestLost)
            }
        }
    }

    // -- attested handshake path ---------------------------------------------

    fn start_handshake(&mut self, conn: &mut Conn) {
        let rekey_after = self.ctx.config.rekey_after_rounds;
        let Ok((init, request)) = self.mint(conn, |v| channel::verifier_begin(v, rekey_after))
        else {
            return self.hang_up(conn, "gateway.handshake.internal");
        };
        if self
            .send_framed(conn, &GatewayMsg::SessInit(init.encode()))
            .is_err()
        {
            return self.hang_up(conn, "gateway.handshake.link");
        }
        // The accept read runs on whatever is left of the establishment
        // budget — a peer that stalls after SessInit is cut off here.
        let left = conn
            .establish_deadline_ms
            .saturating_sub(self.ctx.elapsed_ms());
        if left == 0 {
            return self.hang_up(conn, "gateway.handshake.deadline");
        }
        conn.state = ConnState::Handshake { init, request };
        self.arm(conn, TimerKind::Establish, left);
    }

    fn on_handshake_reply(
        &mut self,
        conn: &mut Conn,
        init: &HandshakeInit,
        request: &AttestRequest,
        msg: &Result<GatewayMsg, AttestError>,
    ) {
        self.clear_timer(conn);
        let accept = match msg {
            // The prover's own defences refused the embedded attestation:
            // a completed (failed) attempt, not a dead link.
            Ok(GatewayMsg::Reject(_)) => return self.conclude(conn, false),
            Ok(GatewayMsg::SessAccept(raw)) => HandshakeAccept::decode(raw).ok(),
            _ => None,
        };
        let Some(accept) = accept else {
            return self.hang_up(conn, "gateway.handshake.garbage");
        };
        let Ok(chan) = self.entry(conn).confirm_session(init, request, &accept) else {
            metrics::counter_add("gateway.session.confirm_failed", 1);
            return self.conclude(conn, false);
        };
        let stats = &self.ctx.stats;
        stats.sessions_opened.fetch_add(1, Ordering::SeqCst);
        stats.sessions_active.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.session.opened", 1);
        self.store_session(SessionEntry {
            device_id: conn.device_id,
            chan,
            last_used_ms: 0,
        });
        self.conclude(conn, true);
    }

    // -- in-session round path -----------------------------------------------

    fn start_round(&mut self, conn: &mut Conn, mut session: SessionEntry) {
        let Ok(request) = self.mint(conn, Verifier::make_session_request) else {
            return self.fail_round(conn, "gateway.session.internal");
        };
        let payload = GatewayMsg::AttReq(request.to_bytes()).encode();
        let frame = session.chan.seal_next(&payload);
        if self
            .send_framed(conn, &GatewayMsg::SessFrame(frame))
            .is_err()
        {
            return self.fail_round(conn, "gateway.session.link");
        }
        conn.state = ConnState::Round {
            session: Box::new(session),
            request,
        };
        self.arm(conn, TimerKind::Attempt, self.ctx.config.read_timeout_ms);
    }

    fn on_round_reply(
        &mut self,
        conn: &mut Conn,
        mut session: SessionEntry,
        request: &AttestRequest,
        msg: &Result<GatewayMsg, AttestError>,
    ) {
        self.clear_timer(conn);
        // Downgrade defence: inside a session only sealed frames count.
        let opened =
            match msg {
                Ok(GatewayMsg::SessFrame(sealed)) => session.chan.open(sealed).map_err(|e| match e
                    .reject_reason()
                {
                    Some(RejectReason::SessionReplay) => "gateway.session.replay",
                    _ => "gateway.session.auth_fail",
                }),
                Ok(_) => Err("gateway.session.downgrade"),
                Err(_) => Err("gateway.session.link"),
            };
        let inner = match opened {
            Ok(inner) => inner,
            Err(label) => return self.fail_round(conn, label),
        };
        if !self
            .judge(conn, request, None, &GatewayMsg::decode(&inner))
            .is_success()
        {
            return self.fail_round(conn, "gateway.session.round_failed");
        }
        if session.chan.note_round() {
            // Deterministic lockstep ratchet: the old epoch retires as
            // "rekeyed", its successor counts as newly opened.
            let stats = &self.ctx.stats;
            stats.sessions_rekeyed.fetch_add(1, Ordering::SeqCst);
            stats.sessions_opened.fetch_add(1, Ordering::SeqCst);
            metrics::counter_add("gateway.session.rekeyed", 1);
        }
        self.store_session(session);
        self.conclude(conn, true);
    }

    /// Fail-closed end of an in-session round: the taken-out session is
    /// simply not reinserted (booked as an eviction under `label`), and
    /// the attempt concludes unverified.
    fn fail_round(&mut self, conn: &mut Conn, label: &'static str) {
        let stats = &self.ctx.stats;
        stats.sessions_evicted.fetch_add(1, Ordering::SeqCst);
        stats.sessions_active.fetch_sub(1, Ordering::SeqCst);
        metrics::counter_add("gateway.session.evicted", 1);
        metrics::counter_add(label, 1);
        self.conclude(conn, false);
    }

    // -- conclusions & accounting --------------------------------------------

    /// Concludes an attestation attempt: enqueue `Bye`, record the
    /// outcome and the session latency, then drain out.
    fn conclude(&mut self, conn: &mut Conn, verified: bool) {
        self.clear_timer(conn);
        self.enqueue_msg(conn, &GatewayMsg::Bye { verified });
        record_conclusion(conn.device_id, verified, &self.ctx);
        metrics::histogram_record(
            "gateway.session_us",
            u64::try_from(conn.registered_at.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        if verified {
            self.stats.sessions_ok.fetch_add(1, Ordering::SeqCst);
        } else {
            self.stats.sessions_failed.fetch_add(1, Ordering::SeqCst);
        }
        self.begin_drain(conn);
    }

    fn fail_handshake(&mut self, label: &'static str) {
        self.ctx
            .stats
            .handshake_failed
            .fetch_add(1, Ordering::SeqCst);
        self.stats.handshake_failed.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.handshake_failed", 1);
        metrics::counter_add(label, 1);
    }

    /// A handshake failure that closes at once (garbage, dead link,
    /// expired budget): the peer gets nothing more.
    fn hang_up(&mut self, conn: &mut Conn, label: &'static str) {
        self.fail_handshake(label);
        conn.closed = true;
    }

    /// A handshake failure answered politely: `farewell` is flushed
    /// before close.
    fn refuse(&mut self, conn: &mut Conn, label: &'static str, farewell: &[GatewayMsg]) {
        self.fail_handshake(label);
        for msg in farewell {
            self.enqueue_msg(conn, msg);
        }
        self.begin_drain(conn);
    }

    fn begin_drain(&mut self, conn: &mut Conn) {
        conn.state = ConnState::Draining;
        if conn.link_dead || !conn.nb.has_pending_write() {
            conn.closed = true;
            return;
        }
        self.set_write_interest(conn, true);
        self.arm(conn, TimerKind::Drain, self.ctx.config.write_timeout_ms);
    }

    // -- I/O helpers ---------------------------------------------------------

    /// Enqueues and flushes one message, registering write interest when
    /// the sink pushes back. Errors mark the link dead.
    fn send_framed(&mut self, conn: &mut Conn, msg: &GatewayMsg) -> Result<(), TransportError> {
        if conn.link_dead {
            return Err(TransportError::Closed);
        }
        conn.nb.enqueue_send(&msg.encode())?;
        if !conn.nb.flush()? {
            self.set_write_interest(conn, true);
        }
        Ok(())
    }

    /// Best-effort send for verdict frames (`Busy`/`Bye`/`Reject`): a
    /// failure only marks the link dead.
    fn enqueue_msg(&mut self, conn: &mut Conn, msg: &GatewayMsg) {
        if let Err(e) = self.send_framed(conn, msg) {
            conn.link_dead = !e.is_transient();
        }
    }

    fn set_write_interest(&mut self, conn: &mut Conn, on: bool) {
        if conn.write_interest == on {
            return;
        }
        conn.write_interest = on;
        if let Some(fd) = conn.fd {
            let interest = if on {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            let _ = self.poller.reregister(fd, conn.token, interest);
        }
    }

    fn on_link_error(&mut self, conn: &mut Conn, e: &TransportError) {
        let poisoned = matches!(
            e,
            TransportError::Malformed { .. } | TransportError::TooLarge { .. }
        );
        conn.link_dead = true;
        match mem::replace(&mut conn.state, ConnState::Draining) {
            ConnState::AwaitHello | ConnState::Handshake { .. } => self.hang_up(
                conn,
                if poisoned {
                    "gateway.handshake.garbage"
                } else {
                    "gateway.handshake.link"
                },
            ),
            // An in-flight attempt is lost (a poisoned stream is not worth
            // retrying); one that died during backoff burns the remaining
            // budget synchronously, as dead-link attempts are instant.
            ConnState::Oneshot { cursor, attempt } => {
                let outcome = attempt.map(|_| {
                    if poisoned {
                        AttemptOutcome::BadResponse
                    } else {
                        AttemptOutcome::ResponseLost
                    }
                });
                self.step_oneshot(conn, cursor, outcome);
            }
            ConnState::Round { .. } => self.fail_round(conn, "gateway.session.link"),
            ConnState::Draining => conn.closed = true,
        }
    }

    // -- timers --------------------------------------------------------------

    fn arm(&mut self, conn: &mut Conn, kind: TimerKind, delay_ms: u64) {
        self.clear_timer(conn);
        let deadline = self.ctx.elapsed_ms().saturating_add(delay_ms);
        let id = self.wheel.schedule(conn.token, deadline);
        conn.timer = Some((id, kind));
    }

    fn clear_timer(&mut self, conn: &mut Conn) {
        if let Some((id, _)) = conn.timer.take() {
            self.wheel.cancel(id);
        }
    }
}

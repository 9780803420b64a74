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
//! [`super::record_conclusion`] for the fleet ledger. The global
//! [`super::GatewayStats`] partition laws hold; each shard additionally
//! satisfies its own law ([`ShardSnapshot::partition_holds`]).
//!
//! Admission control is a per-shard cap: the accept thread assigns each
//! connection to the least-loaded shard, and when every shard is at
//! `max_conns_per_shard` it sheds with a one-frame `Busy` —
//! deterministic, cheap, and honest provers already know to back off.
//!
//! Telemetry: every metrics counter is recorded on the shard that did
//! the work, and each concluded connection records its
//! registration-to-conclusion time in the `gateway.session_us`
//! histogram. Per-session trace *spans* are not recorded (a span guard
//! cannot straddle poll iterations). A response frame arriving during a
//! retry backoff is discarded instead of being misread as the next
//! attempt's answer.

use std::collections::VecDeque;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use proverguard_reactor::{DeadlineWheel, Event, Events, Interest, Poller, TimerId, Token, Waker};
use proverguard_telemetry::metrics;
use proverguard_telemetry::trace;
use proverguard_transport::nb::{NbTransport, RawFd, ReadySource};
use proverguard_transport::{Acceptor, TransportError};

use crate::channel::{self, HandshakeAccept, HandshakeInit};
use crate::fleet::FleetController;
use crate::message::{AttestRequest, AttestResponse};
use crate::session::{AttemptOutcome, DriverCursor, DriverStep, RetryPolicy};

use super::{
    record_conclusion, DeviceDirectory, GatewayConfig, GatewayHandle, GatewayMsg, GatewayShared,
    GatewayStats, SessionEntry, SessionTable, ThreadExit,
};

/// Deadline-wheel granularity: timers fire never early and at most this
/// many milliseconds late. 4 ms is far below every protocol timeout and
/// keeps the idle poll cadence cheap.
const WHEEL_GRANULARITY_MS: u64 = 4;
const WHEEL_SLOTS: usize = 1024;

// ---------------------------------------------------------------------------
// Per-shard stats
// ---------------------------------------------------------------------------

/// Live per-shard counters (atomics; written by the shard's event loop
/// and the accept thread, read by observers and the CI partition check).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Connections assigned to this shard by the accept thread.
    pub(super) assigned: AtomicU64,
    /// Connections currently owned by the shard (inbox + registered).
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
    /// Connections currently charged to the shard, as the accept thread
    /// sees them when balancing load and enforcing the per-shard cap.
    fn load(&self) -> u64 {
        self.registered.load(Ordering::SeqCst)
    }

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

/// A point-in-time copy of one shard's [`ShardStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index (0-based).
    pub shard: usize,
    /// Connections assigned to this shard by the accept thread.
    pub assigned: u64,
    /// Connections the shard still owns (0 once quiesced).
    pub registered: u64,
    /// Assigned connections that died before/during handshake.
    pub handshake_failed: u64,
    /// Assigned connections concluded with a verified attestation.
    pub sessions_ok: u64,
    /// Assigned connections concluded without one.
    pub sessions_failed: u64,
    /// Readiness events the shard's poller delivered.
    pub readiness_events: u64,
    /// Deadline-wheel timers that fired (stale timers excluded).
    pub deadline_expiries: u64,
}

impl ShardSnapshot {
    /// The shard-level conservation law, mirroring the global one: every
    /// connection assigned to the shard is exactly one of still-owned,
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

/// A freshly accepted connection travelling from the accept thread to a
/// shard's inbox.
struct NewConn {
    nb: Box<dyn NbTransport>,
    accepted_at: Instant,
}

/// The accept thread's view of one shard.
struct ShardPort {
    inbox: Arc<Mutex<VecDeque<NewConn>>>,
    waker: Waker,
    stats: Arc<ShardStats>,
}

pub(super) fn start(
    acceptor: Box<dyn Acceptor>,
    directory: DeviceDirectory,
    config: GatewayConfig,
) -> GatewayHandle {
    let shards_n = config.reactor_shards.max(1);
    let fleet = FleetController::new(directory.len(), config.fleet);
    let shared = Arc::new(GatewayShared {
        directory,
        fleet: Mutex::new(fleet),
        stats: GatewayStats::new(shards_n),
        config,
        started: Instant::now(),
        sessions: Mutex::new(SessionTable::default()),
    });
    let shutdown = Arc::new(AtomicBool::new(false));

    let mut ports = Vec::with_capacity(shards_n);
    let mut shard_stats = Vec::with_capacity(shards_n);
    let mut shard_wakers = Vec::with_capacity(shards_n);
    let mut shards = Vec::with_capacity(shards_n);
    for idx in 0..shards_n {
        let stats = Arc::new(ShardStats::default());
        let inbox: Arc<Mutex<VecDeque<NewConn>>> = Arc::new(Mutex::new(VecDeque::new()));
        let poller = Poller::new().expect("create shard poller");
        let waker = poller.waker();
        ports.push(ShardPort {
            inbox: Arc::clone(&inbox),
            waker: waker.clone(),
            stats: Arc::clone(&stats),
        });
        shard_stats.push(Arc::clone(&stats));
        shard_wakers.push(waker);
        let shard = Shard {
            idx,
            ctx: Arc::clone(&shared),
            stats,
            poller,
            events: Events::with_capacity(1024),
            wheel: DeadlineWheel::new(WHEEL_GRANULARITY_MS, WHEEL_SLOTS),
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            inbox,
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

    let accept_thread = {
        let ctx = Arc::clone(&shared);
        let flag = Arc::clone(&shutdown);
        thread::Builder::new()
            .name("gw-accept".to_string())
            .spawn(move || accept_main(acceptor, ports, &ctx, &flag))
            .expect("spawn gateway accept loop")
    };

    GatewayHandle {
        shared,
        shutdown,
        accept_thread,
        shards,
        shard_stats,
        shard_wakers,
    }
}

fn accept_main(
    mut acceptor: Box<dyn Acceptor>,
    ports: Vec<ShardPort>,
    ctx: &GatewayShared,
    shutdown: &AtomicBool,
) -> ThreadExit {
    metrics::reset();
    let poll = Duration::from_millis(ctx.config.accept_poll_ms.max(1));
    let cap = ctx.config.max_conns_per_shard.max(1) as u64;
    while !shutdown.load(Ordering::SeqCst) {
        let conn = match acceptor.poll_accept(poll) {
            Ok(Some(conn)) => conn,
            Ok(None) => continue,
            Err(_) => break,
        };
        ctx.stats.accepted.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.accepted", 1);
        let (best, load) = ports
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.stats.load()))
            .min_by_key(|&(_, load)| load)
            .expect("at least one shard");
        if load >= cap {
            // Every shard is full: deterministic one-frame shed.
            ctx.stats.busy_rejected.fetch_add(1, Ordering::SeqCst);
            metrics::counter_add("gateway.busy", 1);
            let mut conn = conn;
            let _ = conn.set_deadline(Some(Duration::from_millis(ctx.config.write_timeout_ms)));
            let _ = conn.send(&GatewayMsg::Busy.encode());
            continue;
        }
        match conn.into_nb() {
            Ok(nb) => {
                ctx.stats.enqueued.fetch_add(1, Ordering::SeqCst);
                let port = &ports[best];
                port.stats.assigned.fetch_add(1, Ordering::SeqCst);
                let owned = port.stats.registered.fetch_add(1, Ordering::SeqCst) + 1;
                ctx.stats.queue_peak.fetch_max(owned, Ordering::SeqCst);
                port.inbox
                    .lock()
                    .expect("shard inbox poisoned")
                    .push_back(NewConn {
                        nb,
                        accepted_at: Instant::now(),
                    });
                port.waker.wake();
            }
            Err(_) => {
                // A transport with no non-blocking mode (e.g. an
                // adversarial wrapper): account it as an enqueued
                // connection that failed before handshake, so the global
                // partition law stays exact.
                ctx.stats.enqueued.fetch_add(1, Ordering::SeqCst);
                ctx.stats.handshake_failed.fetch_add(1, Ordering::SeqCst);
                metrics::counter_add("gateway.handshake_failed", 1);
                metrics::counter_add("gateway.reactor.nb_unsupported", 1);
            }
        }
    }
    ThreadExit {
        registry: metrics::snapshot(),
        spans: 0,
        dropped_spans: 0,
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
    /// The device's `service_floor_ms` wait (a timer, never a sleep).
    Floor,
    /// One in-flight attempt / in-session round awaiting its response.
    Attempt,
    /// Between one-shot retries.
    Backoff,
    /// Flushing buffered writes after conclusion.
    Drain,
}

/// What to start once the service-floor timer fires.
enum AfterFloor {
    Oneshot,
    Handshake,
    Round(Box<SessionEntry>),
}

enum ConnState {
    /// Waiting for the first frame (Hello / SessHello).
    AwaitHello,
    /// Service-floor wait; frames arriving early are buffered.
    Floor { next: AfterFloor },
    /// One-shot attestation driven by a [`DriverCursor`]. `request` is
    /// the in-flight attempt's request while `awaiting`, the backoff
    /// timer owns the connection otherwise.
    Oneshot {
        cursor: DriverCursor,
        request: Option<AttestRequest>,
        awaiting: bool,
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
    /// Frames received while a floor timer holds the connection.
    pending: VecDeque<Vec<u8>>,
    closed: bool,
}

// ---------------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------------

struct Shard {
    idx: usize,
    ctx: Arc<GatewayShared>,
    stats: Arc<ShardStats>,
    poller: Poller,
    events: Events,
    wheel: DeadlineWheel,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    inbox: Arc<Mutex<VecDeque<NewConn>>>,
    shutdown: Arc<AtomicBool>,
    spans: u64,
}

impl Shard {
    fn run(mut self) -> ThreadExit {
        metrics::reset();
        trace::reset();
        trace::set_capacity(self.ctx.config.trace_capacity.max(16));
        trace::enable();
        let mut fired: Vec<(TimerId, Token)> = Vec::new();
        let mut batch: Vec<Event> = Vec::new();
        loop {
            self.drain_inbox();
            if self.shutdown.load(Ordering::SeqCst)
                && self.live == 0
                && self.inbox.lock().expect("shard inbox poisoned").is_empty()
            {
                break;
            }
            let timeout = self.wheel.next_timeout_ms().map(Duration::from_millis);
            let _ = self.poller.poll(&mut self.events, timeout);
            batch.clear();
            batch.extend(self.events.iter().copied());
            if !batch.is_empty() {
                self.stats
                    .readiness_events
                    .fetch_add(batch.len() as u64, Ordering::SeqCst);
                metrics::counter_add("gateway.reactor.readiness_events", batch.len() as u64);
            }
            for ev in &batch {
                self.handle_event(*ev);
            }
            fired.clear();
            let now = self.ctx.elapsed_ms();
            self.wheel.advance(now, &mut fired);
            for (id, token) in fired.drain(..) {
                self.handle_timer(id, token);
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

    // -- connection lifecycle ------------------------------------------------

    fn drain_inbox(&mut self) {
        loop {
            let new = self.inbox.lock().expect("shard inbox poisoned").pop_front();
            let Some(new) = new else { break };
            self.register_conn(new);
        }
    }

    fn register_conn(&mut self, new: NewConn) {
        metrics::histogram_record(
            "gateway.queue_wait_us",
            u64::try_from(new.accepted_at.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = Token(slot);
        let mut nb = new.nb;
        let fd = match nb.ready_source() {
            ReadySource::Fd(fd) => {
                if self.poller.register(fd, token, Interest::READABLE).is_err() {
                    // Cannot observe readiness: the connection is dead on
                    // arrival. Same accounting as a link failure.
                    self.free.push(slot);
                    self.fail_handshake("gateway.handshake.link");
                    self.stats.registered.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                Some(fd)
            }
            ReadySource::Notify => match self.poller.notifier(token) {
                Ok(notifier) => {
                    nb.attach_notifier(notifier);
                    None
                }
                Err(_) => {
                    self.free.push(slot);
                    self.fail_handshake("gateway.handshake.link");
                    self.stats.registered.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
            },
        };
        self.ctx.stats.per_worker_sessions[self.idx].fetch_add(1, Ordering::SeqCst);
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
            pending: VecDeque::new(),
            closed: false,
        };
        self.arm(
            &mut conn,
            TimerKind::Establish,
            self.ctx.config.read_timeout_ms,
        );
        self.conns[slot] = Some(conn);
        self.live += 1;
        metrics::gauge_set("gateway.reactor.registered", self.live as u64);
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
        self.live -= 1;
        self.stats.registered.fetch_sub(1, Ordering::SeqCst);
        metrics::gauge_set("gateway.reactor.registered", self.live as u64);
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
        let stale = conn.timer.map(|(tid, _)| tid) != Some(id);
        if stale {
            self.conns[token.0] = Some(conn);
            return;
        }
        let (_, kind) = conn.timer.take().expect("timer checked above");
        self.stats.deadline_expiries.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.reactor.deadline_expiries", 1);
        match kind {
            TimerKind::Establish => match conn.state {
                ConnState::AwaitHello => {
                    // The first read died: a link failure, like a hangup.
                    self.fail_handshake("gateway.handshake.link");
                    conn.closed = true;
                }
                ConnState::Handshake { .. } => {
                    self.fail_handshake("gateway.handshake.deadline");
                    conn.closed = true;
                }
                _ => {}
            },
            TimerKind::Floor => {
                if let ConnState::Floor { next } =
                    mem::replace(&mut conn.state, ConnState::Draining)
                {
                    match next {
                        AfterFloor::Oneshot => self.start_oneshot(&mut conn),
                        AfterFloor::Handshake => self.start_handshake(&mut conn),
                        AfterFloor::Round(session) => self.start_round(&mut conn, *session),
                    }
                    // Frames the peer sent while the floor held us.
                    while let Some(frame) = conn.pending.pop_front() {
                        if conn.closed {
                            break;
                        }
                        self.on_frame(&mut conn, &frame);
                    }
                }
            }
            TimerKind::Attempt => match mem::replace(&mut conn.state, ConnState::Draining) {
                ConnState::Oneshot {
                    cursor,
                    awaiting: true,
                    ..
                } => {
                    self.advance_oneshot(&mut conn, cursor, AttemptOutcome::ResponseLost);
                }
                ConnState::Round { session, .. } => {
                    self.teardown_session("gateway.session.link");
                    drop(session);
                    self.conclude(&mut conn, false);
                }
                other => conn.state = other,
            },
            TimerKind::Backoff => match mem::replace(&mut conn.state, ConnState::Draining) {
                ConnState::Oneshot {
                    cursor,
                    awaiting: false,
                    ..
                } => self.run_attempts(&mut conn, cursor),
                other => conn.state = other,
            },
            TimerKind::Drain => {
                // Could not flush within the write budget; drop the rest.
                conn.closed = true;
            }
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
            ConnState::Floor { next } => {
                conn.pending.push_back(bytes.to_vec());
                conn.state = ConnState::Floor { next };
            }
            ConnState::Oneshot {
                cursor,
                request,
                awaiting,
            } => {
                if !awaiting {
                    // A response surfacing during backoff is stale: the
                    // attempt it answers has already been recorded lost.
                    conn.state = ConnState::Oneshot {
                        cursor,
                        request,
                        awaiting,
                    };
                    return;
                }
                let outcome = self.oneshot_outcome(conn, request.as_ref(), &msg);
                self.advance_oneshot(conn, cursor, outcome);
            }
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

    fn on_hello(&mut self, conn: &mut Conn, msg: Result<GatewayMsg, crate::error::AttestError>) {
        match msg {
            Ok(GatewayMsg::Hello { device_id }) => {
                conn.device_id = device_id;
                let Some(entry) = self.ctx.directory.get(device_id) else {
                    self.unknown_device(conn);
                    return;
                };
                let floor = entry.service_floor_ms;
                self.clear_timer(conn);
                if floor > 0 {
                    conn.state = ConnState::Floor {
                        next: AfterFloor::Oneshot,
                    };
                    self.arm(conn, TimerKind::Floor, floor);
                } else {
                    self.start_oneshot(conn);
                }
            }
            Ok(GatewayMsg::SessHello {
                device_id,
                session_id: None,
            }) => {
                conn.device_id = device_id;
                let Some(entry) = self.ctx.directory.get(device_id) else {
                    self.unknown_device(conn);
                    return;
                };
                let floor = entry.service_floor_ms;
                self.clear_timer(conn);
                if floor > 0 {
                    conn.state = ConnState::Floor {
                        next: AfterFloor::Handshake,
                    };
                    self.arm(conn, TimerKind::Floor, floor);
                } else {
                    self.start_handshake(conn);
                }
            }
            Ok(GatewayMsg::SessHello {
                device_id,
                session_id: Some(sid),
            }) => {
                conn.device_id = device_id;
                let Some(entry) = self.ctx.directory.get(device_id) else {
                    self.unknown_device(conn);
                    return;
                };
                let floor = entry.service_floor_ms;
                let now_ms = self.ctx.elapsed_ms();
                let taken = self
                    .ctx
                    .sessions
                    .lock()
                    .expect("session table lock poisoned")
                    .take(
                        device_id,
                        sid,
                        now_ms,
                        self.ctx.config.session_idle_ms,
                        &self.ctx.stats,
                    );
                let Some(session) = taken else {
                    // Unknown/expired/foreign sid: cheap reject, no key
                    // material consulted.
                    self.fail_handshake("gateway.session.expired_lookup");
                    self.enqueue_msg(conn, &GatewayMsg::Reject(channel_expired()));
                    self.enqueue_msg(conn, &GatewayMsg::Bye { verified: false });
                    self.begin_drain(conn);
                    return;
                };
                self.clear_timer(conn);
                if floor > 0 {
                    conn.state = ConnState::Floor {
                        next: AfterFloor::Round(Box::new(session)),
                    };
                    self.arm(conn, TimerKind::Floor, floor);
                } else {
                    self.start_round(conn, session);
                }
            }
            Ok(_) | Err(_) => {
                self.fail_handshake("gateway.handshake.garbage");
                conn.closed = true;
            }
        }
    }

    fn unknown_device(&mut self, conn: &mut Conn) {
        self.fail_handshake("gateway.handshake.unknown_device");
        self.enqueue_msg(conn, &GatewayMsg::Bye { verified: false });
        self.begin_drain(conn);
    }

    // -- one-shot path (DriverCursor) ----------------------------------------

    fn start_oneshot(&mut self, conn: &mut Conn) {
        let policy = RetryPolicy {
            jitter_seed: self.ctx.config.retry.jitter_seed ^ conn.device_id,
            ..self.ctx.config.retry
        };
        let cursor = DriverCursor::new(policy);
        self.run_attempts(conn, cursor);
    }

    /// Launches attempts until one is in flight (awaiting I/O or a
    /// backoff timer) or the cursor completes: the `SessionDriver::run`
    /// loop as a continuation. A dead link burns the remaining budget
    /// synchronously, with no backoff timers.
    fn run_attempts(&mut self, conn: &mut Conn, mut cursor: DriverCursor) {
        loop {
            let outcome = if conn.link_dead {
                Some(AttemptOutcome::RequestLost)
            } else {
                let entry = self
                    .ctx
                    .directory
                    .get(conn.device_id)
                    .expect("device checked at hello");
                let request = {
                    let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
                    let now = self.ctx.elapsed_ms().max(verifier.now_ms());
                    verifier.set_time_ms(now);
                    verifier.make_request()
                };
                match request {
                    Err(e) => Some(AttemptOutcome::Error(e)),
                    Ok(request) => {
                        match self.send_framed(conn, &GatewayMsg::AttReq(request.to_bytes())) {
                            Ok(()) => {
                                let timeout = cursor.timeout_ms().max(1);
                                conn.state = ConnState::Oneshot {
                                    cursor,
                                    request: Some(request),
                                    awaiting: true,
                                };
                                self.arm(conn, TimerKind::Attempt, timeout);
                                return;
                            }
                            Err(e) => {
                                conn.link_dead = !e.is_transient();
                                Some(AttemptOutcome::RequestLost)
                            }
                        }
                    }
                }
            };
            let outcome = outcome.expect("non-inflight branches produce an outcome");
            match cursor.record(outcome) {
                DriverStep::Done => {
                    let verified = cursor.report().succeeded();
                    self.conclude(conn, verified);
                    return;
                }
                DriverStep::Retry { backoff_ms } => {
                    trace::event_with("session.backoff", backoff_ms);
                    if conn.link_dead {
                        continue;
                    }
                    let nap = backoff_ms.min(self.ctx.config.backoff_cap_ms);
                    conn.state = ConnState::Oneshot {
                        cursor,
                        request: None,
                        awaiting: false,
                    };
                    self.arm(conn, TimerKind::Backoff, nap);
                    return;
                }
            }
        }
    }

    /// Judges one received frame as the in-flight attempt's outcome.
    fn oneshot_outcome(
        &mut self,
        conn: &mut Conn,
        request: Option<&AttestRequest>,
        msg: &Result<GatewayMsg, crate::error::AttestError>,
    ) -> AttemptOutcome {
        let Some(request) = request else {
            return AttemptOutcome::BadResponse;
        };
        let entry = self
            .ctx
            .directory
            .get(conn.device_id)
            .expect("device checked at hello");
        match msg {
            Ok(GatewayMsg::AttResp(raw)) => {
                let Ok(response) = AttestResponse::from_bytes(raw) else {
                    return AttemptOutcome::BadResponse;
                };
                if entry.check_and_note(request, &response) {
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

    fn advance_oneshot(
        &mut self,
        conn: &mut Conn,
        mut cursor: DriverCursor,
        outcome: AttemptOutcome,
    ) {
        self.clear_timer(conn);
        match cursor.record(outcome) {
            DriverStep::Done => {
                let verified = cursor.report().succeeded();
                self.conclude(conn, verified);
            }
            DriverStep::Retry { backoff_ms } => {
                trace::event_with("session.backoff", backoff_ms);
                if conn.link_dead {
                    self.run_attempts(conn, cursor);
                } else {
                    let nap = backoff_ms.min(self.ctx.config.backoff_cap_ms);
                    conn.state = ConnState::Oneshot {
                        cursor,
                        request: None,
                        awaiting: false,
                    };
                    self.arm(conn, TimerKind::Backoff, nap);
                }
            }
        }
    }

    // -- attested handshake path ---------------------------------------------

    fn start_handshake(&mut self, conn: &mut Conn) {
        let entry = self
            .ctx
            .directory
            .get(conn.device_id)
            .expect("device checked at hello");
        let begun = {
            let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
            let now = self.ctx.elapsed_ms().max(verifier.now_ms());
            verifier.set_time_ms(now);
            channel::verifier_begin(&mut verifier, self.ctx.config.rekey_after_rounds)
        };
        let Ok((init, request)) = begun else {
            self.fail_handshake("gateway.handshake.internal");
            conn.closed = true;
            return;
        };
        if self
            .send_framed(conn, &GatewayMsg::SessInit(init.encode()))
            .is_err()
        {
            self.fail_handshake("gateway.handshake.link");
            conn.closed = true;
            return;
        }
        // The accept read runs on whatever is left of the establishment
        // budget — a peer that stalls after SessInit is cut off here.
        let left = conn
            .establish_deadline_ms
            .saturating_sub(self.ctx.elapsed_ms());
        if left == 0 {
            self.fail_handshake("gateway.handshake.deadline");
            conn.closed = true;
            return;
        }
        conn.state = ConnState::Handshake { init, request };
        self.arm(conn, TimerKind::Establish, left);
    }

    fn on_handshake_reply(
        &mut self,
        conn: &mut Conn,
        init: &HandshakeInit,
        request: &AttestRequest,
        msg: &Result<GatewayMsg, crate::error::AttestError>,
    ) {
        self.clear_timer(conn);
        match msg {
            Ok(GatewayMsg::SessAccept(raw)) => {
                let Ok(accept) = HandshakeAccept::decode(raw) else {
                    self.fail_handshake("gateway.handshake.garbage");
                    conn.closed = true;
                    return;
                };
                self.confirm_handshake(conn, init, request, &accept);
            }
            Ok(GatewayMsg::Reject(_)) => {
                // The prover's own defences refused the embedded
                // attestation: a completed (failed) attempt, not a dead
                // link.
                self.conclude(conn, false);
            }
            Ok(_) | Err(_) => {
                self.fail_handshake("gateway.handshake.garbage");
                conn.closed = true;
            }
        }
    }

    fn confirm_handshake(
        &mut self,
        conn: &mut Conn,
        init: &HandshakeInit,
        request: &AttestRequest,
        accept: &HandshakeAccept,
    ) {
        let entry = self
            .ctx
            .directory
            .get(conn.device_id)
            .expect("device checked at hello");
        let confirmed = entry.confirm_session(init, request, accept);
        match confirmed {
            Ok(chan) => {
                let now_ms = self.ctx.elapsed_ms();
                self.ctx
                    .stats
                    .sessions_opened
                    .fetch_add(1, Ordering::SeqCst);
                self.ctx
                    .stats
                    .sessions_active
                    .fetch_add(1, Ordering::SeqCst);
                metrics::counter_add("gateway.session.opened", 1);
                self.ctx
                    .sessions
                    .lock()
                    .expect("session table lock poisoned")
                    .insert(
                        SessionEntry {
                            device_id: conn.device_id,
                            chan,
                            last_used_ms: now_ms,
                        },
                        self.ctx.config.session_capacity,
                        now_ms,
                        self.ctx.config.session_idle_ms,
                        &self.ctx.stats,
                    );
                self.conclude(conn, true);
            }
            Err(_) => {
                metrics::counter_add("gateway.session.confirm_failed", 1);
                self.conclude(conn, false);
            }
        }
    }

    // -- in-session round path -----------------------------------------------

    fn start_round(&mut self, conn: &mut Conn, mut session: SessionEntry) {
        let entry = self
            .ctx
            .directory
            .get(conn.device_id)
            .expect("device checked at hello");
        let request = {
            let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
            let now = self.ctx.elapsed_ms().max(verifier.now_ms());
            verifier.set_time_ms(now);
            verifier.make_session_request()
        };
        let Ok(request) = request else {
            self.teardown_session("gateway.session.internal");
            self.conclude(conn, false);
            return;
        };
        let payload = GatewayMsg::AttReq(request.to_bytes()).encode();
        let frame = session.chan.seal_next(&payload);
        if self
            .send_framed(conn, &GatewayMsg::SessFrame(frame))
            .is_err()
        {
            self.teardown_session("gateway.session.link");
            self.conclude(conn, false);
            return;
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
        msg: &Result<GatewayMsg, crate::error::AttestError>,
    ) {
        self.clear_timer(conn);
        // Downgrade defence: inside a session only sealed frames count.
        let sealed = match msg {
            Ok(GatewayMsg::SessFrame(sealed)) => sealed,
            Ok(_) => {
                self.teardown_session("gateway.session.downgrade");
                self.conclude(conn, false);
                return;
            }
            Err(_) => {
                self.teardown_session("gateway.session.link");
                self.conclude(conn, false);
                return;
            }
        };
        let inner = match session.chan.open(sealed) {
            Ok(inner) => inner,
            Err(e) => {
                let label = match e.reject_reason() {
                    Some(crate::error::RejectReason::SessionReplay) => "gateway.session.replay",
                    _ => "gateway.session.auth_fail",
                };
                self.teardown_session(label);
                self.conclude(conn, false);
                return;
            }
        };
        let entry = self
            .ctx
            .directory
            .get(conn.device_id)
            .expect("device checked at hello");
        let verified = match GatewayMsg::decode(&inner) {
            Ok(GatewayMsg::AttResp(raw)) => match AttestResponse::from_bytes(&raw) {
                Ok(response) => entry.check_and_note(request, &response),
                Err(_) => false,
            },
            Ok(GatewayMsg::Reject(_)) => {
                let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
                verifier.note_failed(request);
                false
            }
            _ => false,
        };
        if verified {
            if session.chan.note_round() {
                // Deterministic lockstep ratchet: the old epoch retires as
                // "rekeyed", its successor counts as newly opened.
                self.ctx
                    .stats
                    .sessions_rekeyed
                    .fetch_add(1, Ordering::SeqCst);
                self.ctx
                    .stats
                    .sessions_opened
                    .fetch_add(1, Ordering::SeqCst);
                metrics::counter_add("gateway.session.rekeyed", 1);
            }
            session.last_used_ms = self.ctx.elapsed_ms();
            let now_ms = self.ctx.elapsed_ms();
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
        } else {
            self.teardown_session("gateway.session.round_failed");
        }
        self.conclude(conn, verified);
    }

    /// Fail-closed retirement of a taken-out session (it is simply not
    /// reinserted; this records the eviction).
    fn teardown_session(&mut self, label: &'static str) {
        self.ctx
            .stats
            .sessions_evicted
            .fetch_add(1, Ordering::SeqCst);
        self.ctx
            .stats
            .sessions_active
            .fetch_sub(1, Ordering::SeqCst);
        metrics::counter_add("gateway.session.evicted", 1);
        metrics::counter_add(label, 1);
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
        match conn.nb.flush() {
            Ok(true) => Ok(()),
            Ok(false) => {
                self.set_write_interest(conn, true);
                Ok(())
            }
            Err(e) => Err(e),
        }
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
            ConnState::AwaitHello | ConnState::Floor { .. } => {
                self.fail_handshake(if poisoned {
                    "gateway.handshake.garbage"
                } else {
                    "gateway.handshake.link"
                });
                conn.closed = true;
            }
            ConnState::Oneshot {
                cursor, awaiting, ..
            } => {
                if awaiting {
                    let outcome = if poisoned {
                        // Stream poisoned by garbage — no point retrying.
                        AttemptOutcome::BadResponse
                    } else {
                        AttemptOutcome::ResponseLost
                    };
                    self.advance_oneshot(conn, cursor, outcome);
                } else {
                    // Link died during backoff: burn the remaining budget
                    // synchronously (dead-link attempts are instant).
                    self.clear_timer(conn);
                    self.run_attempts(conn, cursor);
                }
            }
            ConnState::Handshake { .. } => {
                self.fail_handshake("gateway.handshake.deadline");
                conn.closed = true;
            }
            ConnState::Round { session, .. } => {
                self.teardown_session("gateway.session.link");
                drop(session);
                self.conclude(conn, false);
            }
            ConnState::Draining => {
                conn.closed = true;
            }
        }
    }

    // -- timers --------------------------------------------------------------

    fn arm(&mut self, conn: &mut Conn, kind: TimerKind, delay_ms: u64) {
        if let Some((id, _)) = conn.timer.take() {
            self.wheel.cancel(id);
        }
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

/// `RejectReason::SessionExpired` spelled as a function to keep the
/// `use` surface of this module small.
fn channel_expired() -> crate::error::RejectReason {
    crate::error::RejectReason::SessionExpired
}

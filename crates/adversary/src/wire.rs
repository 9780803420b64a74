//! Wire-level adversary tooling: the crate's seeded fault schedules
//! applied to **real transports**, plus the flood clients that hammer a
//! gateway the way `Adv_ext` hammers a prover.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and rolls the same
//! [`FaultInjector`] ladder the in-process [`crate::FaultyLink`] uses, so
//! a fault matrix graded against the simulated channel applies unchanged
//! to the socketed stack. Two kinds differ by necessity:
//!
//! - Truncate/bit-flip mangle the message **payload** (the framing layer
//!   below re-frames it intact), so corruption lands on the gateway
//!   protocol and attestation parsers — the layers with something to
//!   reject. Codec-level garbage is the flood clients' job
//!   ([`raw_garbage_flood`] writes unframed bytes straight at the codec).
//! - Reboot/clock-glitch are prover-side power faults with no wire
//!   equivalent; the roll is consumed (keeping schedules aligned with
//!   [`crate::FaultyLink`] runs on the same seed) but nothing fires.
//!
//! The **session probes** ([`session_replay_probe`] and friends) attack
//! the attested secure channel of [`proverguard_attest::channel`]: each
//! wiretaps a legitimate agent exchange with [`TapTransport`], replays or
//! forges the captured material at the gateway, and then lets the honest
//! agent re-converge — grading both halves of the security story (every
//! attack rejected without key-schedule work, no honest device left
//! stranded).

use std::fmt;
use std::time::Duration;

use proverguard_attest::channel;
use proverguard_attest::error::RejectReason;
use proverguard_attest::gateway::{GatewayMsg, ProverAgent};
use proverguard_attest::session::RetryPolicy;
use proverguard_transport::mem::LoopbackConnector;
use proverguard_transport::{LinkStats, Transport, TransportError};

use crate::fault::{Direction, FaultConfig, FaultEvent, FaultInjector, FaultKind};

/// A [`Transport`] with a seeded fault schedule between the caller and
/// the real link: sends and receives roll the [`FaultInjector`] ladder
/// (send = [`Direction::Request`], receive = [`Direction::Response`]).
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    injector: FaultInjector,
    /// Duplicate-fault copy waiting to be received again.
    replay: Option<Vec<u8>>,
    /// Cap on the real sleep a Delay fault performs, so a schedule tuned
    /// for simulated milliseconds cannot stall a wall-clock bench.
    pub max_real_delay_ms: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the fault schedule of `config`.
    #[must_use]
    pub fn new(inner: T, config: FaultConfig) -> Self {
        FaultyTransport {
            inner,
            injector: FaultInjector::new(config),
            replay: None,
            max_real_delay_ms: 100,
        }
    }

    /// Every fault that has fired so far.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        self.injector.events()
    }

    /// The wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    fn nap(&self) {
        let ms = self.injector.config().delay_ms.min(self.max_real_delay_ms);
        std::thread::sleep(Duration::from_millis(ms));
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        match self.injector.roll(Direction::Request) {
            Some(FaultKind::Drop) => Ok(()), // vanished on the wire
            Some(FaultKind::Duplicate) => {
                self.inner.send(payload)?;
                self.inner.send(payload)
            }
            Some(FaultKind::Delay) => {
                self.nap();
                self.inner.send(payload)
            }
            Some(kind @ (FaultKind::Truncate | FaultKind::BitFlip)) => {
                let mut mangled = payload.to_vec();
                self.injector.mangle(kind, &mut mangled);
                self.inner.send(&mangled)
            }
            // Power faults have no wire equivalent; the roll is consumed
            // to keep the schedule aligned across harnesses.
            Some(FaultKind::Reboot | FaultKind::ClockGlitch) | None => self.inner.send(payload),
        }
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        if let Some(copy) = self.replay.take() {
            return Ok(copy);
        }
        loop {
            let payload = self.inner.recv()?;
            match self.injector.roll(Direction::Response) {
                Some(FaultKind::Drop) => continue, // eaten; wait for the next
                Some(FaultKind::Duplicate) => {
                    self.replay = Some(payload.clone());
                    return Ok(payload);
                }
                Some(FaultKind::Delay) => {
                    self.nap();
                    return Ok(payload);
                }
                Some(kind @ (FaultKind::Truncate | FaultKind::BitFlip)) => {
                    let mut mangled = payload;
                    self.injector.mangle(kind, &mut mangled);
                    return Ok(mangled);
                }
                Some(FaultKind::Reboot | FaultKind::ClockGlitch) | None => return Ok(payload),
            }
        }
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_deadline(deadline)
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }

    fn peer(&self) -> String {
        format!("faulty:{}", self.inner.peer())
    }
}

// ---------------------------------------------------------------------------
// Flood clients
// ---------------------------------------------------------------------------

/// What a flood run observed from the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FloodStats {
    /// Connections/sessions the flood opened (or tried to).
    pub attempts: u64,
    /// `Busy` frames received — the gateway shedding us cheaply.
    pub busy: u64,
    /// `Bye` frames received (always `verified: false` for forgeries).
    pub byes: u64,
    /// Attestation requests answered with forged responses.
    pub forged_responses: u64,
    /// Connections that ended in an error/hang-up (the usual fate of
    /// garbage: the gateway just closes).
    pub closed: u64,
}

fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn junk_bytes(state: &mut u64, max_len: usize) -> Vec<u8> {
    let len = (splitmix64(state) as usize % max_len.max(1)) + 1;
    (0..len).map(|_| (splitmix64(state) & 0xff) as u8).collect()
}

/// Blasts `blasts` bursts of **unframed** random bytes at a loopback
/// gateway — line noise aimed at the frame codec itself. Loopback-only
/// because it needs [`proverguard_transport::mem::MemTransport::send_raw`].
pub fn raw_garbage_flood(connector: &LoopbackConnector, blasts: usize, seed: u64) -> FloodStats {
    let mut state = seed;
    let mut stats = FloodStats::default();
    for _ in 0..blasts {
        stats.attempts += 1;
        let Ok(mut conn) = connector.connect() else {
            stats.closed += 1;
            continue;
        };
        if conn.send_raw(junk_bytes(&mut state, 64)).is_err() {
            stats.closed += 1;
            continue;
        }
        // The gateway either sheds us with Busy or (having failed to
        // parse the noise) hangs up; a short read settles which.
        let _ = conn.set_deadline(Some(Duration::from_millis(200)));
        match conn.recv().map(|b| GatewayMsg::decode(&b)) {
            Ok(Ok(GatewayMsg::Busy)) => stats.busy += 1,
            _ => stats.closed += 1,
        }
    }
    stats
}

/// Opens `frames` connections and sends one **well-framed but
/// protocol-garbage** payload down each — exercises the gateway's
/// handshake rejection (as opposed to the codec rejection of
/// [`raw_garbage_flood`]).
pub fn junk_frame_flood<F>(mut connect: F, frames: usize, seed: u64) -> FloodStats
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let mut state = seed.wrapping_add(0x6a75_6e6b); // "junk"
    let mut stats = FloodStats::default();
    for _ in 0..frames {
        stats.attempts += 1;
        let Ok(mut conn) = connect() else {
            stats.closed += 1;
            continue;
        };
        if conn.send(&junk_bytes(&mut state, 256)).is_err() {
            stats.closed += 1;
            continue;
        }
        let _ = conn.set_deadline(Some(Duration::from_millis(200)));
        match conn.recv().map(|b| GatewayMsg::decode(&b)) {
            Ok(Ok(GatewayMsg::Busy)) => stats.busy += 1,
            _ => stats.closed += 1,
        }
    }
    stats
}

/// Runs `sessions` **forged** attestation sessions: a correct `Hello` for
/// `device_id`, then a random (hence MAC-invalid) response to every
/// request. The gateway must burn its retries and report the session
/// failed — and never crash or mis-verify.
pub fn forgery_flood<F>(
    mut connect: F,
    device_id: u64,
    sessions: usize,
    seed: u64,
    io_timeout: Duration,
) -> FloodStats
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let mut state = seed.wrapping_add(0x666f_7267); // "forg"
    let mut stats = FloodStats::default();
    for _ in 0..sessions {
        stats.attempts += 1;
        let Ok(mut conn) = connect() else {
            stats.closed += 1;
            continue;
        };
        if conn.set_deadline(Some(io_timeout)).is_err() {
            stats.closed += 1;
            continue;
        }
        if conn
            .send(&GatewayMsg::Hello { device_id }.encode())
            .is_err()
        {
            stats.closed += 1;
            continue;
        }
        loop {
            match conn.recv().map(|b| GatewayMsg::decode(&b)) {
                Ok(Ok(GatewayMsg::AttReq(_))) => {
                    // Sometimes a forged MAC, sometimes an insolent
                    // "your request was malformed" — both must bounce.
                    let reply = if splitmix64(&mut state) & 1 == 0 {
                        GatewayMsg::AttResp(junk_bytes(&mut state, 32))
                    } else {
                        GatewayMsg::Reject(RejectReason::Malformed)
                    };
                    stats.forged_responses += 1;
                    if conn.send(&reply.encode()).is_err() {
                        stats.closed += 1;
                        break;
                    }
                }
                Ok(Ok(GatewayMsg::Busy)) => {
                    stats.busy += 1;
                    break;
                }
                Ok(Ok(GatewayMsg::Bye { .. })) => {
                    stats.byes += 1;
                    break;
                }
                _ => {
                    stats.closed += 1;
                    break;
                }
            }
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// Session attacks
// ---------------------------------------------------------------------------

/// A [`Transport`] that records every framed payload in both directions —
/// the adversary's passive wiretap. Session probes run one *legitimate*
/// agent exchange through the tap, then weaponize the captured frames.
pub struct TapTransport {
    inner: Box<dyn Transport>,
    /// Payloads the wrapped caller sent (prover → gateway).
    pub sent: Vec<Vec<u8>>,
    /// Payloads the wrapped caller received (gateway → prover).
    pub received: Vec<Vec<u8>>,
}

impl TapTransport {
    /// Wiretaps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn Transport>) -> Self {
        TapTransport {
            inner,
            sent: Vec::new(),
            received: Vec::new(),
        }
    }

    /// The last payload the caller sent that decoded as a session frame —
    /// the sealed material a replay attack wants.
    #[must_use]
    pub fn last_sent_session_frame(&self) -> Option<Vec<u8>> {
        self.sent
            .iter()
            .rev()
            .find_map(|bytes| match GatewayMsg::decode(bytes) {
                Ok(GatewayMsg::SessFrame(raw)) => Some(raw),
                _ => None,
            })
    }
}

impl fmt::Debug for TapTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TapTransport")
            .field("sent", &self.sent.len())
            .field("received", &self.received.len())
            .finish()
    }
}

impl Transport for TapTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.sent.push(payload.to_vec());
        self.inner.send(payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv()?;
        self.received.push(payload.clone());
        Ok(payload)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_deadline(deadline)
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }

    fn peer(&self) -> String {
        format!("tap:{}", self.inner.peer())
    }
}

/// What a session attack probe observed.
///
/// The invariants a graded run asserts: `accepted == 0` (no forged or
/// replayed material ever answered with a sealed frame or a verified
/// `Bye`), `derives_during_attack == 0` (the gateway rejected before any
/// HKDF work — measured via [`channel::key_derivations`], so the probe
/// must be the only key-schedule activity while its attack dials run),
/// and `honest_recovered == attempts_expected` (the fail-closed teardown
/// never strands the legitimate device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionAttackStats {
    /// Attack dials the probe made.
    pub attempts: u64,
    /// Attack dials the gateway bounced (reject, unverified bye, hangup).
    pub rejected: u64,
    /// Attack dials that got a sealed frame or verified `Bye` back —
    /// **must stay zero**.
    pub accepted: u64,
    /// [`channel::key_derivations`] delta across the attack dials alone
    /// (setup and recovery handshakes derive legitimately and are
    /// excluded) — **must stay zero**.
    pub derives_during_attack: u64,
    /// Post-attack honest dials that re-converged to a verified session.
    pub honest_recovered: u64,
}

impl SessionAttackStats {
    /// Folds another probe's ledger into this one.
    pub fn absorb(&mut self, other: SessionAttackStats) {
        self.attempts += other.attempts;
        self.rejected += other.rejected;
        self.accepted += other.accepted;
        self.derives_during_attack += other.derives_during_attack;
        self.honest_recovered += other.honest_recovered;
    }
}

/// Dials the agent in until a session is live. Returns `false` if the
/// handshake would not verify — the probes bail rather than grade an
/// attack against a session that never existed.
fn ensure_session<F>(connect: &mut F, agent: &mut ProverAgent, io_timeout: Duration) -> bool
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    if agent.session_id().is_some() {
        return true;
    }
    let Ok(mut conn) = connect() else {
        return false;
    };
    agent.run_session(conn.as_mut(), io_timeout).is_verified() && agent.session_id().is_some()
}

/// One legitimate sealed round through the wiretap; returns the sealed
/// prover→gateway frame it captured.
fn tap_round<F>(connect: &mut F, agent: &mut ProverAgent, io_timeout: Duration) -> Option<Vec<u8>>
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let conn = connect().ok()?;
    let mut tap = TapTransport::new(conn);
    if !agent.run_session(&mut tap, io_timeout).is_verified() {
        return None;
    }
    tap.last_sent_session_frame()
}

/// One attack dial: resumes `session_id`, waits for the gateway's sealed
/// challenge, answers with whatever `forge` fabricates, and classifies
/// the gateway's verdict. Fail-closed teardown at the gateway is the
/// *expected* outcome; the caller re-converges the honest agent after.
fn attack_dial<F>(
    connect: &mut F,
    device_id: u64,
    session_id: [u8; channel::SESSION_ID_SIZE],
    forge: impl FnOnce(&[u8]) -> GatewayMsg,
    io_timeout: Duration,
    stats: &mut SessionAttackStats,
) where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    stats.attempts += 1;
    let Ok(mut conn) = connect() else {
        stats.rejected += 1;
        return;
    };
    if conn.set_deadline(Some(io_timeout)).is_err() {
        stats.rejected += 1;
        return;
    }
    let hello = GatewayMsg::SessHello {
        device_id,
        session_id: Some(session_id),
    };
    if conn.send(&hello.encode()).is_err() {
        stats.rejected += 1;
        return;
    }
    let challenge = match conn.recv().map(|b| GatewayMsg::decode(&b)) {
        Ok(Ok(GatewayMsg::SessFrame(raw))) => raw,
        // Session already gone (or gateway shedding): cheapest
        // possible rejection, before the attack even fired.
        _ => {
            stats.rejected += 1;
            return;
        }
    };
    if conn.send(&forge(&challenge).encode()).is_err() {
        stats.rejected += 1;
        return;
    }
    match conn.recv().map(|b| GatewayMsg::decode(&b)) {
        Ok(Ok(GatewayMsg::SessFrame(_) | GatewayMsg::Bye { verified: true })) => {
            stats.accepted += 1;
        }
        _ => stats.rejected += 1,
    }
}

/// Re-converges the honest agent after an attack tore its session down:
/// one retry-wrapped dial that transparently re-handshakes.
fn honest_recovery<F>(
    connect: &mut F,
    agent: &mut ProverAgent,
    io_timeout: Duration,
    stats: &mut SessionAttackStats,
) where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let outcome = agent.attest_with_retry(&mut *connect, &RetryPolicy::default(), io_timeout, 50);
    if outcome.is_verified() && agent.session_id().is_some() {
        stats.honest_recovered += 1;
    }
}

/// **Replayed session frame.** Wiretaps one legitimate sealed round, then
/// dials back in with the same session id and answers the gateway's
/// *fresh* challenge with the stale captured frame. The replay window
/// must bounce it before the MAC is even checked, the gateway must tear
/// the session down fail-closed, and the honest agent must re-handshake
/// its way back.
pub fn session_replay_probe<F>(
    mut connect: F,
    agent: &mut ProverAgent,
    device_id: u64,
    io_timeout: Duration,
) -> SessionAttackStats
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let mut stats = SessionAttackStats::default();
    if !ensure_session(&mut connect, agent, io_timeout) {
        return stats;
    }
    let Some(captured) = tap_round(&mut connect, agent, io_timeout) else {
        return stats;
    };
    let sid = agent.session_id().expect("live session after tapped round");
    let before = channel::key_derivations();
    attack_dial(
        &mut connect,
        device_id,
        sid,
        |_| GatewayMsg::SessFrame(captured),
        io_timeout,
        &mut stats,
    );
    stats.derives_during_attack += channel::key_derivations() - before;
    honest_recovery(&mut connect, agent, io_timeout, &mut stats);
    stats
}

/// **Key reuse across sessions.** Steals the channel state of session A,
/// lets the honest agent open session B, then (a) tries to resume the
/// dead session A by id — the table must miss cheaply — and (b) answers
/// session B's challenge with a frame sealed under A's keys — the frame
/// MAC must fail without any derivation. Both teardowns are fail-closed;
/// the honest agent re-converges after.
pub fn session_key_reuse_probe<F>(
    mut connect: F,
    agent: &mut ProverAgent,
    device_id: u64,
    io_timeout: Duration,
) -> SessionAttackStats
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let mut stats = SessionAttackStats::default();
    if !ensure_session(&mut connect, agent, io_timeout) {
        return stats;
    }
    let Some(mut stale) = agent.take_session() else {
        return stats;
    };
    let sid_a = stale.session_id();
    // The honest agent re-handshakes: session B replaces A at the table.
    if !ensure_session(&mut connect, agent, io_timeout) {
        return stats;
    }
    let sid_b = agent.session_id().expect("session B established");
    let before = channel::key_derivations();
    // (a) Resume-by-id of the replaced session: cheap table miss.
    attack_dial(
        &mut connect,
        device_id,
        sid_a,
        |_| GatewayMsg::SessFrame(Vec::new()),
        io_timeout,
        &mut stats,
    );
    // (b) Session A's keys against session B's challenge.
    attack_dial(
        &mut connect,
        device_id,
        sid_b,
        |_| {
            let inner = GatewayMsg::AttResp(vec![0u8; 32]).encode();
            GatewayMsg::SessFrame(stale.seal_next(&inner))
        },
        io_timeout,
        &mut stats,
    );
    stats.derives_during_attack += channel::key_derivations() - before;
    honest_recovery(&mut connect, agent, io_timeout, &mut stats);
    stats
}

/// **Downgrade to one-shot.** Resumes a live session and answers the
/// sealed challenge with a *bare* (unsealed) `AttResp`, probing whether
/// the gateway can be talked down from the channel to the legacy
/// protocol mid-round. It must refuse before touching any key material.
pub fn session_downgrade_probe<F>(
    mut connect: F,
    agent: &mut ProverAgent,
    device_id: u64,
    io_timeout: Duration,
) -> SessionAttackStats
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let mut stats = SessionAttackStats::default();
    if !ensure_session(&mut connect, agent, io_timeout) {
        return stats;
    }
    let sid = agent.session_id().expect("live session");
    let before = channel::key_derivations();
    attack_dial(
        &mut connect,
        device_id,
        sid,
        |_| GatewayMsg::AttResp(vec![0u8; 32]),
        io_timeout,
        &mut stats,
    );
    stats.derives_during_attack += channel::key_derivations() - before;
    honest_recovery(&mut connect, agent, io_timeout, &mut stats);
    stats
}

/// **Mid-session reboot.** Wiretaps a legitimate round, power-cycles the
/// device (volatile session keys gone, sealed freshness record restored
/// from NV), then replays the pre-reboot frame into the gateway's
/// still-live session. The ghost must be rejected, and the rebooted
/// device must re-handshake to a verified session — the NV freshness
/// record is what keeps that second handshake's counter monotonic.
pub fn session_reboot_probe<F>(
    mut connect: F,
    agent: &mut ProverAgent,
    device_id: u64,
    io_timeout: Duration,
) -> SessionAttackStats
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let mut stats = SessionAttackStats::default();
    if !ensure_session(&mut connect, agent, io_timeout) {
        return stats;
    }
    let Some(captured) = tap_round(&mut connect, agent, io_timeout) else {
        return stats;
    };
    let sid = agent.session_id().expect("live session after tapped round");
    if agent.reboot().is_err() {
        return stats;
    }
    let before = channel::key_derivations();
    attack_dial(
        &mut connect,
        device_id,
        sid,
        |_| GatewayMsg::SessFrame(captured),
        io_timeout,
        &mut stats,
    );
    stats.derives_during_attack += channel::key_derivations() - before;
    honest_recovery(&mut connect, agent, io_timeout, &mut stats);
    stats
}

/// Runs the full session attack suite in sequence, folding the ledgers.
pub fn session_attack_suite<F>(
    mut connect: F,
    agent: &mut ProverAgent,
    device_id: u64,
    io_timeout: Duration,
) -> SessionAttackStats
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
{
    let mut stats = SessionAttackStats::default();
    stats.absorb(session_replay_probe(
        &mut connect,
        agent,
        device_id,
        io_timeout,
    ));
    stats.absorb(session_key_reuse_probe(
        &mut connect,
        agent,
        device_id,
        io_timeout,
    ));
    stats.absorb(session_downgrade_probe(
        &mut connect,
        agent,
        device_id,
        io_timeout,
    ));
    stats.absorb(session_reboot_probe(
        &mut connect,
        agent,
        device_id,
        io_timeout,
    ));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use proverguard_transport::frame::DEFAULT_MAX_FRAME;
    use proverguard_transport::mem::loopback_pair;

    #[test]
    fn clean_config_is_transparent() {
        let (a, mut b) = loopback_pair(DEFAULT_MAX_FRAME);
        let mut a = FaultyTransport::new(a, FaultConfig::none(1));
        a.send(b"hello").unwrap();
        b.set_deadline(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert!(a.events().is_empty());
    }

    #[test]
    fn black_hole_eats_sends_silently() {
        let (a, mut b) = loopback_pair(DEFAULT_MAX_FRAME);
        let mut a = FaultyTransport::new(a, FaultConfig::black_hole(2));
        for _ in 0..4 {
            a.send(b"x").unwrap(); // "succeeds" — that's the point
        }
        b.set_deadline(Some(Duration::from_millis(20))).unwrap();
        assert_eq!(b.recv(), Err(TransportError::Timeout));
        assert_eq!(a.events().len(), 4);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let (a, _b) = loopback_pair(DEFAULT_MAX_FRAME);
            let mut a = FaultyTransport::new(a, FaultConfig::lossy(seed));
            for _ in 0..32 {
                let _ = a.send(b"payload");
            }
            a.events()
                .iter()
                .map(|e| (e.message_index, e.kind))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn corruption_reaches_the_peer_mangled() {
        let (a, mut b) = loopback_pair(DEFAULT_MAX_FRAME);
        let mut a = FaultyTransport::new(a, FaultConfig::corrupting(3));
        b.set_deadline(Some(Duration::from_millis(200))).unwrap();
        let payload = vec![0xAAu8; 32];
        let mut saw_mangled = false;
        for _ in 0..64 {
            a.send(&payload).unwrap();
            match b.recv() {
                Ok(got) => saw_mangled |= got != payload,
                Err(TransportError::Timeout) => break,
                Err(e) => panic!("unexpected transport error: {e:?}"),
            }
        }
        assert!(saw_mangled, "corrupting schedule never mangled a payload");
        assert!(!a.events().is_empty());
    }

    #[test]
    fn duplicate_on_receive_is_replayed() {
        let config = FaultConfig {
            duplicate_per_mille: 1000,
            ..FaultConfig::none(4)
        };
        let (mut a, b) = loopback_pair(DEFAULT_MAX_FRAME);
        let mut b = FaultyTransport::new(b, config);
        a.send(b"once").unwrap();
        b.set_deadline(Some(Duration::from_millis(200))).unwrap();
        assert_eq!(b.recv().unwrap(), b"once");
        assert_eq!(b.recv().unwrap(), b"once"); // the duplicate
    }

    #[test]
    fn junk_generators_are_deterministic() {
        let mut s1 = 42u64;
        let mut s2 = 42u64;
        assert_eq!(junk_bytes(&mut s1, 64), junk_bytes(&mut s2, 64));
    }

    #[test]
    fn session_attack_suite_all_rejected_and_honest_agent_converges() {
        use proverguard_attest::gateway::{DeviceDirectory, Gateway, GatewayConfig};
        use proverguard_attest::prover::{Prover, ProverConfig};
        use proverguard_attest::verifier::{ScopePolicy, Verifier};
        use proverguard_transport::mem::LoopbackHub;

        let key = [0x42u8; 16];
        let config = ProverConfig::recommended_segmented();
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let prover = Prover::provision(config.clone(), &key, b"app v1").unwrap();
        let mut verifier = Verifier::new(&config, &key).unwrap();
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
        let mut directory = DeviceDirectory::new();
        let device_id = directory.register(verifier, prover.expected_memory().to_vec());
        let handle = Gateway::start(
            Box::new(hub),
            directory,
            GatewayConfig {
                read_timeout_ms: 10_000,
                ..GatewayConfig::default()
            },
        );
        let mut agent = ProverAgent::with_sessions(prover, device_id);

        let stats = session_attack_suite(
            || {
                connector
                    .connect()
                    .map(|c| Box::new(c) as Box<dyn Transport>)
            },
            &mut agent,
            device_id,
            Duration::from_secs(30),
        );

        // 4 probes = 5 attack dials (key-reuse fires two).
        assert_eq!(stats.attempts, 5, "{stats:?}");
        assert_eq!(stats.rejected, 5, "{stats:?}");
        assert_eq!(stats.accepted, 0, "forged material accepted: {stats:?}");
        assert_eq!(
            stats.derives_during_attack, 0,
            "gateway derived keys while under attack: {stats:?}"
        );
        assert_eq!(stats.honest_recovered, 4, "{stats:?}");

        let report = handle.shutdown();
        assert!(report.stats.partition_holds(), "{:?}", report.stats);
        assert!(
            report.stats.session_partition_holds(),
            "session partition: {:?}",
            report.stats
        );
        // The honest device ends the gauntlet with exactly one live
        // session; every attacked one was torn down fail-closed.
        assert_eq!(report.stats.sessions_active, 1, "{:?}", report.stats);
        assert!(report.stats.sessions_evicted >= 3, "{:?}", report.stats);
    }
}

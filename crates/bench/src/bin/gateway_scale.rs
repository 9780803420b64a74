//! Gateway concurrency-scaling harness: how many simultaneous honest
//! sessions can one verifier process hold?
//!
//! Two phases, both over the loopback hub with wire-honest
//! [`SimDevice`] fleets (one HMAC per response — no MCU simulation, so
//! the *gateway* is the bottleneck being measured):
//!
//! 1. **Sweep.** The event-driven gateway takes connection waves of
//!    1k/8k/32k (CI: 256/1024) on 4 shard threads and must verify every
//!    single session, reporting p50/p90/p99 dial-to-verdict latency and
//!    shed rate per level.
//! 2. **Deterministic shed.** With one shard capped at 16 connections and
//!    16 silent connections pinning every slot, a wave of 16 dials must
//!    all come back `Busy`; once the pins hang up, a second wave of 16
//!    must all be served — admission control stays exact at the
//!    readiness layer, 16 served / 16 `Busy` of 32 dialed.
//!
//! Gates: every swept session verified with zero shed, the shed probe
//! exact (each pin booked as a handshake failure), and per-shard and
//! global partition laws intact; the bin exits 1 on any violation.
//! `--ci` only shrinks the sweep to 256/1024. Results land in
//! `BENCH_gateway_scale.json`.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use proverguard_adversary::scale::{drive_oneshot_wave, SimDevice, WaveReport};
use proverguard_attest::gateway::{
    DeviceDirectory, Gateway, GatewayConfig, GatewayHandle, GatewayReport, ShardSnapshot,
};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::Verifier;
use proverguard_bench::{finish, render_table, Rows};
use proverguard_transport::{LoopbackHub, DEFAULT_MAX_FRAME};

/// Seed for the device keys and retry jitter (recorded in EXPERIMENTS.md).
const SEED: u64 = 0xDAC1_5CA1_E000;

/// Shard threads for the sweep.
const THREADS: usize = 4;
/// Shed-probe geometry: one shard capped at this many connections, held
/// by as many silent pins, then dialed by two waves of this size.
const SHED_CAP: usize = 16;

fn sweep_levels(ci: bool) -> Vec<usize> {
    if ci {
        vec![256, 1024]
    } else {
        vec![1_000, 8_000, 32_000]
    }
}

/// One synthetic 64-byte device image, unique per device index.
fn sim_image(index: u64) -> Vec<u8> {
    let mut image = vec![0u8; 64];
    for (i, byte) in image.iter_mut().enumerate() {
        *byte = (i as u8).wrapping_mul(31) ^ (index as u8);
    }
    image
}

fn device_key(index: u64) -> [u8; 16] {
    let mut key = [0x42u8; 16];
    key[..8].copy_from_slice(&(index ^ SEED).to_le_bytes());
    key
}

/// Provisions `count` SimDevices into a fresh directory.
fn provision_fleet(count: usize) -> (DeviceDirectory, Vec<(u64, Arc<SimDevice>)>) {
    let mut directory = DeviceDirectory::new();
    let mut devices = Vec::with_capacity(count);
    for index in 0..count as u64 {
        let key = device_key(index);
        let sim = SimDevice::new(&key, sim_image(index));
        let config = proverguard_attest::prover::ProverConfig::recommended();
        let verifier = Verifier::new(&config, &key).expect("provision verifier");
        let id = directory.register(verifier, sim.image().to_vec());
        devices.push((id, Arc::new(sim)));
    }
    (directory, devices)
}

fn gateway_retry() -> RetryPolicy {
    RetryPolicy {
        timeout_ms: 10_000,
        max_retries: 2,
        backoff_base_ms: 5,
        backoff_factor: 2,
        jitter_per_mille: 500,
        jitter_seed: SEED,
    }
}

/// Spins until the shards together own exactly `registered`
/// connections (or 5 s pass), then snapshots.
fn shards_holding(handle: &GatewayHandle, registered: u64) -> Vec<ShardSnapshot> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snaps = handle.shard_stats();
        let held: u64 = snaps.iter().map(|s| s.registered).sum();
        if held == registered || Instant::now() > deadline {
            return snaps;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// Spins until every shard has released its connections, then snapshots.
/// The wave has already joined, so this converges within the drain of
/// the final `Bye` frames.
fn quiesced_shards(handle: &GatewayHandle) -> Vec<ShardSnapshot> {
    shards_holding(handle, 0)
}

struct LevelOutcome {
    level: usize,
    wave: WaveReport,
    wall: Duration,
    shards: Vec<ShardSnapshot>,
    report: GatewayReport,
}

/// One sweep level: a fresh gateway sized to hold `level` concurrent
/// sessions, one dial per device, everything concurrent.
fn run_level(level: usize, deadline: Duration) -> LevelOutcome {
    let (directory, devices) = provision_fleet(level);
    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(
        Box::new(hub),
        directory,
        GatewayConfig {
            reactor_shards: THREADS,
            max_conns_per_shard: level.div_ceil(THREADS) + 64,
            retry: gateway_retry(),
            read_timeout_ms: 10_000,
            ..GatewayConfig::default()
        },
    );
    let started = Instant::now();
    let wave = drive_oneshot_wave(&connector, &devices, deadline);
    let wall = started.elapsed();
    let shards = quiesced_shards(&handle);
    let report = handle.shutdown();
    LevelOutcome {
        level,
        wave,
        wall,
        shards,
        report,
    }
}

struct ProbeOutcome {
    /// The wave dialed while silent pins hold every slot.
    shed_wave: WaveReport,
    /// The wave dialed after the pins hung up.
    served_wave: WaveReport,
    shards: Vec<ShardSnapshot>,
    report: GatewayReport,
}

/// Deterministic shed at the readiness layer: one shard with `SHED_CAP`
/// slots, all pinned by silent connections while the first wave dials,
/// all free again for the second.
fn run_shed_probe() -> ProbeOutcome {
    let (directory, devices) = provision_fleet(SHED_CAP);
    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(
        Box::new(hub),
        directory,
        GatewayConfig {
            reactor_shards: 1,
            max_conns_per_shard: SHED_CAP,
            retry: gateway_retry(),
            read_timeout_ms: 10_000,
            ..GatewayConfig::default()
        },
    );
    // Each pin waits out its Hello budget (`read_timeout_ms`), far
    // longer than a wave takes, so every first-wave dial meets a full
    // shard.
    let pins: Vec<_> = (0..SHED_CAP)
        .filter_map(|_| connector.connect().ok())
        .collect();
    shards_holding(&handle, SHED_CAP as u64);
    let shed_wave = drive_oneshot_wave(&connector, &devices, Duration::from_secs(60));
    drop(pins);
    quiesced_shards(&handle);
    let served_wave = drive_oneshot_wave(&connector, &devices, Duration::from_secs(60));
    let shards = quiesced_shards(&handle);
    let report = handle.shutdown();
    ProbeOutcome {
        shed_wave,
        served_wave,
        shards,
        report,
    }
}

fn check_level(outcome: &LevelOutcome, violations: &mut Vec<String>) {
    let level = outcome.level;
    if outcome.wave.verified != level as u64 {
        violations.push(format!(
            "level {level}: {}/{} sessions verified ({} shed, {} failed)",
            outcome.wave.verified, level, outcome.wave.shed, outcome.wave.failed
        ));
    }
    if outcome.wave.shed != 0 {
        violations.push(format!(
            "level {level}: {} sessions shed by an un-saturated gateway",
            outcome.wave.shed
        ));
    }
    if !outcome.report.stats.partition_holds() {
        violations.push(format!(
            "level {level}: stats partition violated: {:?}",
            outcome.report.stats
        ));
    }
    for snap in &outcome.shards {
        if !snap.partition_holds() {
            violations.push(format!(
                "level {level}: shard conservation law violated: {snap:?}"
            ));
        }
    }
    let assigned: u64 = outcome.shards.iter().map(|s| s.assigned).sum();
    if assigned != outcome.report.stats.admitted {
        violations.push(format!(
            "level {level}: shard assignment {assigned} != admitted {}",
            outcome.report.stats.admitted
        ));
    }
}

fn bench_rows(levels: &[LevelOutcome], shed: &ProbeOutcome) -> Rows {
    let mut rows = Rows::new("gateway_scale", SEED);
    let dialed = shed.shed_wave.dialed + shed.served_wave.dialed;
    for (metric, value, unit) in [
        ("threads", THREADS as u64, "threads"),
        ("shed_probe.shard_cap", SHED_CAP as u64, "connections"),
        ("shed_probe.dialed", dialed, "connections"),
        ("shed_probe.served", shed.served_wave.verified, "sessions"),
        ("shed_probe.shed", shed.shed_wave.shed, "sessions"),
    ] {
        rows.push(metric, value as f64, unit);
    }
    for o in levels {
        let (w, wall) = (&o.wave, o.wall);
        let name = |field: &str| format!("level[{}].{field}", o.level);
        let rate = w.verified as f64 / wall.as_secs_f64().max(1e-9);
        for (field, value, unit) in [
            ("verified", w.verified as f64, "sessions"),
            ("shed", w.shed as f64, "sessions"),
            ("failed", w.failed as f64, "sessions"),
            ("shed_rate", w.shed_rate(), "ratio"),
            ("p50_us", w.latency_percentile(50) as f64, "us"),
            ("p90_us", w.latency_percentile(90) as f64, "us"),
            ("p99_us", w.latency_percentile(99) as f64, "us"),
            ("wall_ms", wall.as_millis() as f64, "ms"),
            ("sessions_per_sec", rate, "1/s"),
        ] {
            rows.push(name(field), value, unit);
        }
    }
    rows
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");
    let deadline = Duration::from_secs(if ci { 60 } else { 240 });
    let mut violations: Vec<String> = Vec::new();

    println!("gateway scale: event-driven gateway concurrency sweep\n");

    // Phase 1 — concurrency sweep.
    let mut levels = Vec::new();
    let mut rows = Vec::new();
    for level in sweep_levels(ci) {
        let outcome = run_level(level, deadline);
        check_level(&outcome, &mut violations);
        println!(
            "level {:>6}: {}/{} verified, {} shed, wall {} ms, \
             p50 {} us / p90 {} us / p99 {} us",
            outcome.level,
            outcome.wave.verified,
            outcome.level,
            outcome.wave.shed,
            outcome.wall.as_millis(),
            outcome.wave.latency_percentile(50),
            outcome.wave.latency_percentile(90),
            outcome.wave.latency_percentile(99),
        );
        rows.push(vec![
            format!("{}", outcome.level),
            format!("{}/{}", outcome.wave.verified, outcome.level),
            format!("{:.4}", outcome.wave.shed_rate()),
            format!("{}", outcome.wave.latency_percentile(50)),
            format!("{}", outcome.wave.latency_percentile(90)),
            format!("{}", outcome.wave.latency_percentile(99)),
            format!(
                "{:.0}/s",
                outcome.wave.verified as f64 / outcome.wall.as_secs_f64().max(1e-9)
            ),
        ]);
        levels.push(outcome);
    }

    // Phase 2 — deterministic shed at the readiness layer.
    let shed = run_shed_probe();
    let (served, shed_count) = (shed.served_wave.verified, shed.shed_wave.shed);
    println!(
        "shed probe (1 shard, cap {SHED_CAP}): {served} served, {shed_count} Busy of {} dialed",
        shed.shed_wave.dialed + shed.served_wave.dialed
    );
    if served != SHED_CAP as u64 || shed_count != SHED_CAP as u64 {
        violations.push(format!(
            "shed probe not deterministic: {served} served / {shed_count} shed, expected {SHED_CAP}/{SHED_CAP}"
        ));
    }
    if shed.report.stats.busy_rejected != shed_count {
        violations.push(format!(
            "busy_rejected {} disagrees with client-side shed count {shed_count}",
            shed.report.stats.busy_rejected
        ));
    }
    if shed.report.stats.handshake_failed != SHED_CAP as u64 {
        violations.push(format!(
            "shed probe booked {} handshake failures, expected one per pin ({SHED_CAP})",
            shed.report.stats.handshake_failed
        ));
    }
    if !shed.report.stats.partition_holds() {
        violations.push(format!(
            "shed probe stats partition violated: {:?}",
            shed.report.stats
        ));
    }
    for snap in &shed.shards {
        if !snap.partition_holds() {
            violations.push(format!("shed probe shard law violated: {snap:?}"));
        }
    }

    println!(
        "\n{}",
        render_table(
            &[
                "connections",
                "verified",
                "shed rate",
                "p50 us",
                "p90 us",
                "p99 us",
                "throughput"
            ],
            &rows,
            &[12, 14, 10, 10, 10, 10, 12],
        )
    );

    println!("\nreading the table: the gateway holds every swept connection");
    println!("count on {THREADS} shard threads, so the verifier's session");
    println!("capacity is bounded by memory and protocol work, not by OS");
    println!("threads.");

    println!();
    finish(
        Some(&bench_rows(&levels, &shed)),
        violations,
        "GATEWAY SCALE VIOLATION",
        "all gateway-scale invariants held",
    );
}

//! Measures what the attested secure channel buys the prover: a session
//! is opened by one full-scope attested handshake, after which each
//! periodic re-attestation is a sealed `History` round whose entire auth
//! cost is one short frame HMAC — no signature check, no challenge-bound
//! outer MAC over the whole report.
//!
//! The cycle legs are measured end-to-end on the wire bytes (real
//! `GatewayMsg` frames, real channel seal/open) but in-process, so the
//! numbers are the device's deterministic cycle clock, not wall time.
//! The adversary gauntlet then runs against a real loopback gateway:
//! replayed session frames, cross-session key reuse, downgrade to the
//! one-shot protocol, and a mid-session reboot ghost.
//!
//! Default mode prints the amortization table; `--ci` additionally gates
//! that (1) a quiescent in-session `History` round costs ≤ 2 % of the
//! cold one-shot full attest, (2) every adversary row is rejected with
//! **zero** replays accepted and **zero** HKDF derivations while under
//! attack, (3) the honest device re-converges after every attack, and
//! (4) the gateway's session-table partition
//! `opened = active + expired + evicted + rekeyed` holds — and writes
//! `BENCH_session.json`.
//!
//! ```sh
//! cargo run --release -p proverguard-bench --bin session_bench
//! cargo run --release -p proverguard-bench --bin session_bench -- --ci
//! ```

use std::fmt::Write as _;
use std::time::Duration;

use proverguard_adversary::wire::{session_attack_suite, SessionAttackStats};
use proverguard_attest::channel;
use proverguard_attest::gateway::{
    DeviceDirectory, Gateway, GatewayConfig, GatewayMsg, GatewaySnapshot, ProverAgent,
};
use proverguard_attest::message::AttestResponse;
use proverguard_attest::prover::{CostBreakdown, Prover, ProverConfig};
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_bench::{fmt_ms, render_table};
use proverguard_crypto::mac::MacAlgorithm;
use proverguard_transport::frame::DEFAULT_MAX_FRAME;
use proverguard_transport::mem::LoopbackHub;
use proverguard_transport::Transport;

/// CI acceptance threshold: a quiescent in-session round must cost no
/// more than this fraction of the cold one-shot full attest (recorded in
/// EXPERIMENTS.md E13).
const CI_MAX_RATIO: f64 = 0.02;

/// Rekey cadence used for the measured session — small enough that the
/// measured rounds cross two ratchets, proving rekeys stay lockstep.
const REKEY_AFTER: u32 = 3;

/// Sealed rounds driven through the measured session.
const ROUNDS: u32 = 8;

/// Attack dials [`session_attack_suite`] makes (key-reuse fires two).
const SUITE_ATTEMPTS: u64 = 5;

/// Probes in the suite, each followed by one honest recovery dial.
const SUITE_PROBES: u64 = 4;

const KEY: [u8; 16] = [0x42; 16];

struct Costs {
    cold_cycles: u64,
    cold_ms: f64,
    handshake_cycles: u64,
    bootstrap_cycles: u64,
    quiescent_cycles: u64,
    quiescent_ms: f64,
    rekeys: u32,
}

fn cycles_ms(cycles: u64) -> f64 {
    CostBreakdown {
        response_cycles: cycles,
        ..CostBreakdown::default()
    }
    .total_ms()
}

/// Drives the cold one-shot, the handshake, and `ROUNDS` sealed session
/// rounds over real wire bytes, charging the prover's cycle clock the
/// same stages the wire agent does (pipeline + the two frame HMACs).
fn measure(violations: &mut Vec<String>) -> Costs {
    let config = ProverConfig::recommended_segmented();
    let mut prover = Prover::provision(config.clone(), &KEY, b"app v1").expect("provision");
    let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
    verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });

    // Cold one-shot: what a sessionless deployment pays for *every*
    // round — signed full-scope request, full sweep, outer response MAC.
    // The expected image is snapshotted *after* the prover answers: the
    // freshness value is committed into attested RAM before MACing.
    let request = verifier.make_full_request().expect("request");
    let response = match prover.handle_wire_request(&request.to_bytes()) {
        Ok(bytes) => AttestResponse::from_bytes(&bytes).ok(),
        Err(_) => None,
    };
    let expected = prover.expected_memory().to_vec();
    match response {
        Some(response) if verifier.check_response(&request, &response, &expected) => {
            verifier.note_verified(&request, &response, &expected);
        }
        _ => violations.push("cold one-shot round failed".to_string()),
    }
    let cold = *prover.last_cost();

    // Handshake: the prover's fresh full-scope response doubles as the
    // key-confirmation transcript.
    let (init, hs_request) = channel::verifier_begin(&mut verifier, REKEY_AFTER).expect("begin");
    let (accept, mut chan_p) = channel::prover_accept(&mut prover, &init).expect("accept");
    let handshake_cycles = prover.last_cost().total();
    let expected = prover.expected_memory().to_vec();
    let mut chan_v =
        channel::verifier_confirm(&mut verifier, &init, &hs_request, &accept, &expected)
            .expect("confirm");

    let mut bootstrap_cycles = 0u64;
    let mut quiescent_cycles = 0u64;
    let mut rekeys = 0u32;
    for round in 1..=ROUNDS {
        let req = verifier.make_session_request().expect("session request");
        let frame = chan_v.seal_next(&GatewayMsg::AttReq(req.to_bytes()).encode());

        // Prover end. The per-frame HMACs are the whole in-session auth
        // cost; the inner request rides pre-authenticated (stage 1
        // skipped), exactly as over the live gateway.
        let open_mac = prover
            .mcu()
            .cost_table()
            .mac_cost(MacAlgorithm::HmacSha1, frame.len());
        let inner = chan_p.open(&frame).expect("prover opens frame");
        let req_raw = match GatewayMsg::decode(&inner) {
            Ok(GatewayMsg::AttReq(raw)) => raw,
            other => {
                violations.push(format!("round {round}: bad inner message {other:?}"));
                break;
            }
        };
        let resp_bytes = match prover.handle_session_wire_request(&req_raw) {
            Ok(bytes) => bytes,
            Err(e) => {
                violations.push(format!("round {round}: prover rejected: {e:?}"));
                break;
            }
        };
        let pipeline = *prover.last_cost();
        let reply_frame = chan_p.seal_next(&GatewayMsg::AttResp(resp_bytes).encode());
        let seal_mac = prover
            .mcu()
            .cost_table()
            .mac_cost(MacAlgorithm::HmacSha1, reply_frame.len());
        let round_cycles = pipeline.total() + open_mac + seal_mac;

        // Verifier end.
        let opened = chan_v.open(&reply_frame).expect("verifier opens reply");
        let expected = prover.expected_memory().to_vec();
        let resp = match GatewayMsg::decode(&opened) {
            Ok(GatewayMsg::AttResp(raw)) => AttestResponse::from_bytes(&raw).ok(),
            _ => None,
        };
        match resp {
            Some(resp) if verifier.check_response(&req, &resp, &expected) => {
                verifier.note_verified(&req, &resp, &expected);
            }
            _ => violations.push(format!("round {round}: response did not verify")),
        }
        let ratchet_v = chan_v.note_round();
        let ratchet_p = chan_p.note_round();
        if ratchet_v != ratchet_p {
            violations.push(format!("round {round}: rekey ratchet desynced"));
            break;
        }
        if ratchet_v {
            rekeys += 1;
        }
        match round {
            // Round 1 re-covers whatever the handshake round left dirty
            // (the freshness-commit segment) — the in-session bootstrap.
            1 => bootstrap_cycles = round_cycles,
            // Round 2 is the steady state the ≤2 % gate is about.
            2 => quiescent_cycles = round_cycles,
            _ => {}
        }
    }
    if rekeys < 2 {
        violations.push(format!(
            "lockstep rekey fired {rekeys} times over {ROUNDS} rounds (cadence {REKEY_AFTER})"
        ));
    }

    Costs {
        cold_cycles: cold.total(),
        cold_ms: cold.total_ms(),
        handshake_cycles,
        bootstrap_cycles,
        quiescent_cycles,
        quiescent_ms: cycles_ms(quiescent_cycles),
        rekeys,
    }
}

struct Gauntlet {
    stats: SessionAttackStats,
    report: GatewaySnapshot,
    session_partition_holds: bool,
}

/// Runs the four wire session attacks against a real loopback gateway
/// and grades the full security story: every row rejected, no key
/// derivations while under attack, honest device re-converged each time,
/// session-table accounting exact.
fn run_gauntlet(violations: &mut Vec<String>) -> Gauntlet {
    let config = ProverConfig::recommended_segmented();
    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let prover = Prover::provision(config.clone(), &KEY, b"app v1").expect("provision");
    let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
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

    if stats.attempts != SUITE_ATTEMPTS {
        violations.push(format!(
            "adversary suite made {} attack dials (expected {SUITE_ATTEMPTS})",
            stats.attempts
        ));
    }
    if stats.accepted != 0 {
        violations.push(format!(
            "{} adversary frames ACCEPTED (replay/forgery reached the pipeline)",
            stats.accepted
        ));
    }
    if stats.rejected != stats.attempts {
        violations.push(format!(
            "only {}/{} adversary dials rejected",
            stats.rejected, stats.attempts
        ));
    }
    if stats.derives_during_attack != 0 {
        violations.push(format!(
            "{} HKDF derivations ran while under attack (keys touched before reject)",
            stats.derives_during_attack
        ));
    }
    if stats.honest_recovered != SUITE_PROBES {
        violations.push(format!(
            "honest device re-converged only {}/{SUITE_PROBES} times after attacks",
            stats.honest_recovered
        ));
    }

    let report = handle.shutdown();
    let session_partition_holds = report.stats.session_partition_holds();
    if !report.stats.partition_holds() {
        violations.push("gateway connection-stats partition broke".to_string());
    }
    if !session_partition_holds {
        violations.push(format!(
            "session-table partition broke: opened {} != active {} + expired {} + evicted {} + rekeyed {}",
            report.stats.sessions_opened,
            report.stats.sessions_active,
            report.stats.sessions_expired,
            report.stats.sessions_evicted,
            report.stats.sessions_rekeyed
        ));
    }
    Gauntlet {
        stats,
        report: report.stats,
        session_partition_holds,
    }
}

fn write_json(path: &str, costs: &Costs, gauntlet: &Gauntlet) -> std::io::Result<()> {
    let ratio = costs.quiescent_cycles as f64 / costs.cold_cycles as f64;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"session\",");
    let _ = writeln!(out, "  \"threshold_ratio\": {CI_MAX_RATIO},");
    let _ = writeln!(out, "  \"cold_full_attest_cycles\": {},", costs.cold_cycles);
    let _ = writeln!(out, "  \"handshake_cycles\": {},", costs.handshake_cycles);
    let _ = writeln!(
        out,
        "  \"bootstrap_round_cycles\": {},",
        costs.bootstrap_cycles
    );
    let _ = writeln!(
        out,
        "  \"quiescent_round_cycles\": {},",
        costs.quiescent_cycles
    );
    let _ = writeln!(out, "  \"quiescent_ratio_vs_cold\": {ratio:.4},");
    let _ = writeln!(out, "  \"rounds_measured\": {ROUNDS},");
    let _ = writeln!(out, "  \"rekey_after_rounds\": {REKEY_AFTER},");
    let _ = writeln!(out, "  \"rekeys\": {},", costs.rekeys);
    let _ = writeln!(out, "  \"amortization\": [");
    let ks = [1u32, 2, 4, 8, 16, 32, 64];
    for (i, k) in ks.iter().enumerate() {
        let avg = (costs.handshake_cycles as f64 + f64::from(*k) * costs.quiescent_cycles as f64)
            / f64::from(*k);
        let _ = writeln!(
            out,
            "    {{\"rounds\": {k}, \"avg_cycles_per_round\": {avg:.0}, \"vs_cold\": {:.4}}}{}",
            avg / costs.cold_cycles as f64,
            if i + 1 == ks.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ],");
    let s = &gauntlet.stats;
    let _ = writeln!(out, "  \"adversary\": {{");
    let _ = writeln!(out, "    \"attack_dials\": {},", s.attempts);
    let _ = writeln!(out, "    \"rejected\": {},", s.rejected);
    let _ = writeln!(out, "    \"accepted\": {},", s.accepted);
    let _ = writeln!(
        out,
        "    \"key_derivations_under_attack\": {},",
        s.derives_during_attack
    );
    let _ = writeln!(out, "    \"honest_recovered\": {}", s.honest_recovered);
    let _ = writeln!(out, "  }},");
    let r = &gauntlet.report;
    let _ = writeln!(out, "  \"session_table\": {{");
    let _ = writeln!(out, "    \"opened\": {},", r.sessions_opened);
    let _ = writeln!(out, "    \"active\": {},", r.sessions_active);
    let _ = writeln!(out, "    \"expired\": {},", r.sessions_expired);
    let _ = writeln!(out, "    \"evicted\": {},", r.sessions_evicted);
    let _ = writeln!(out, "    \"rekeyed\": {},", r.sessions_rekeyed);
    let _ = writeln!(
        out,
        "    \"partition_holds\": {}",
        gauntlet.session_partition_holds
    );
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn main() {
    let ci_mode = std::env::args().any(|a| a == "--ci");
    let mut violations = Vec::new();

    let costs = measure(&mut violations);
    let ratio = costs.quiescent_cycles as f64 / costs.cold_cycles as f64;
    if ratio > CI_MAX_RATIO {
        violations.push(format!(
            "quiescent in-session round cost {:.2}% of a cold full attest (budget {:.0}%)",
            ratio * 100.0,
            CI_MAX_RATIO * 100.0
        ));
    }
    let gauntlet = run_gauntlet(&mut violations);

    let pct = |cycles: u64| format!("{:.2}%", cycles as f64 / costs.cold_cycles as f64 * 100.0);
    let rows = vec![
        vec![
            "cold one-shot (full)".to_string(),
            costs.cold_cycles.to_string(),
            fmt_ms(costs.cold_ms),
            "100%".to_string(),
        ],
        vec![
            "handshake (attested)".to_string(),
            costs.handshake_cycles.to_string(),
            fmt_ms(cycles_ms(costs.handshake_cycles)),
            pct(costs.handshake_cycles),
        ],
        vec![
            "round 1 (bootstrap)".to_string(),
            costs.bootstrap_cycles.to_string(),
            fmt_ms(cycles_ms(costs.bootstrap_cycles)),
            pct(costs.bootstrap_cycles),
        ],
        vec![
            "round 2+ (quiescent)".to_string(),
            costs.quiescent_cycles.to_string(),
            fmt_ms(costs.quiescent_ms),
            pct(costs.quiescent_cycles),
        ],
    ];
    println!("attested session amortization (prover cycles, 24 MHz device)\n");
    println!(
        "{}",
        render_table(&["leg", "cycles", "ms", "vs cold"], &rows, &[22, 12, 10, 9])
    );
    println!(
        "{} sealed rounds, rekey cadence {}: {} lockstep rekeys, ratchet never desynced.",
        ROUNDS, REKEY_AFTER, costs.rekeys
    );
    let s = &gauntlet.stats;
    println!(
        "adversary gauntlet: {} attack dials, {} rejected, {} accepted, {} key\n\
         derivations under attack; honest device re-converged {}/{SUITE_PROBES}.",
        s.attempts, s.rejected, s.accepted, s.derives_during_attack, s.honest_recovered
    );

    if ci_mode {
        let json_path = "BENCH_session.json";
        if let Err(e) = write_json(json_path, &costs, &gauntlet) {
            eprintln!("SESSION BENCH: failed to write {json_path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {json_path}");
    }
    if violations.is_empty() {
        if ci_mode {
            println!("all session invariants held");
        }
        return;
    }
    for violation in &violations {
        eprintln!("SESSION INVARIANT VIOLATION: {violation}");
    }
    std::process::exit(1);
}

//! The segment layout and the device cost it buys, pinned.
//!
//! [`SegmentLayout`] puts a boundary at every multiple of the segment
//! length plus one at each reserved end: where the freshness words end
//! (`CLOCK_MSB.end - RAM.start`) and where the reserved head ends
//! (`APP_RAM.start - RAM.start`). So the freshness words the prover
//! writes every round live in a 16-byte segment of their own, and the IDT
//! and trust state in a segment below the application RAM. The first
//! block checks that the spans tile memory exactly for every legal
//! segment length; the second pins the modelled device cycles of the
//! three steady rounds the benchmark measures, driven through the real
//! prover agent and gateway, plus the rounds that pay for a dirty
//! application segment or a trust-state write.

use std::time::Duration;

use proverguard_attest::gateway::{DeviceDirectory, Gateway, GatewayConfig, ProverAgent};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::segcache;
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_mcu::memory::{FRESHNESS_LEN, HEAD_LEN};
use proverguard_mcu::{map, SegmentLayout, MIN_SEGMENT_LEN};
use proverguard_transport::{LoopbackHub, Transport, DEFAULT_MAX_FRAME};

const RAM_LEN: usize = 512 * 1024;

fn check_layout(mem_len: usize, seg_len: usize) {
    let layout = SegmentLayout::new(mem_len, seg_len);
    let count = layout.count();
    let mut next = 0;
    for i in 0..count {
        let span = layout.span(i);
        assert_eq!(
            span.start, next,
            "gap or overlap before segment {i} ({mem_len}, {seg_len})"
        );
        assert!(!span.is_empty(), "empty segment {i} ({mem_len}, {seg_len})");
        assert!(span.len() <= seg_len, "segment {i} longer than {seg_len}");
        for off in [span.start, span.end - 1] {
            assert_eq!(
                layout.index_of(off),
                i,
                "offset {off} ({mem_len}, {seg_len})"
            );
        }
        next = span.end;
    }
    assert_eq!(
        next, mem_len,
        "spans must end at the memory end ({mem_len}, {seg_len})"
    );
    assert!(layout.span(count).is_empty());
    // Every boundary is a multiple of the segment length or a reserved
    // end, and each reserved end inside the memory is a boundary.
    for i in 0..count {
        let start = layout.span(i).start;
        assert!(
            start.is_multiple_of(seg_len) || [FRESHNESS_LEN, HEAD_LEN].contains(&start),
            "stray boundary {start} ({mem_len}, {seg_len})"
        );
    }
    for end in [FRESHNESS_LEN, HEAD_LEN] {
        if mem_len > end {
            assert_eq!(
                layout.span(layout.index_of(end)).start,
                end,
                "reserved end {end} is a boundary ({mem_len}, {seg_len})"
            );
        }
    }
    // Segment 0 is exactly the freshness words.
    let freshness = (map::COUNTER_R.start - map::RAM.start) as usize
        ..(map::CLOCK_MSB.end - map::RAM.start) as usize;
    if mem_len >= FRESHNESS_LEN {
        assert_eq!(layout.span(0), freshness, "({mem_len}, {seg_len})");
    }
}

#[test]
fn spans_tile_memory_at_every_segment_length() {
    let mut seg_len = MIN_SEGMENT_LEN as usize;
    while seg_len <= RAM_LEN {
        for mem_len in [
            0,
            1,
            255,
            256,
            257,
            seg_len - 1,
            seg_len,
            seg_len + 1,
            RAM_LEN,
        ] {
            check_layout(mem_len, seg_len);
        }
        seg_len *= 2;
    }
}

#[test]
fn index_of_agrees_with_span_on_every_ram_byte() {
    for seg_len in [64usize, 256, 512, 8192, RAM_LEN] {
        let layout = SegmentLayout::new(RAM_LEN, seg_len);
        for off in 0..RAM_LEN {
            assert!(
                layout.span(layout.index_of(off)).contains(&off),
                "{off} at {seg_len}"
            );
        }
    }
}

#[test]
fn recommended_layout_gives_the_freshness_words_their_own_segment() {
    let layout = SegmentLayout::ram(proverguard_mcu::DEFAULT_SEGMENT_LEN);
    // The freshness words, the rest of the reserved head, the rest of the
    // first 8 KiB, then 63 full segments.
    assert_eq!(layout.count(), 66);
    for (word, segment) in [
        (map::COUNTER_R, 0),
        (map::CLOCK_MSB, 0),
        (map::IDT, 1),
        (map::TRUST_STATE, 1),
    ] {
        let first = (word.start - map::RAM.start) as usize;
        let last = (word.end - 1 - map::RAM.start) as usize;
        assert_eq!(
            (layout.index_of(first), layout.index_of(last)),
            (segment, segment)
        );
    }
    assert_eq!(layout.span(0), 0..FRESHNESS_LEN);
    assert_eq!(layout.span(1), FRESHNESS_LEN..HEAD_LEN);
    assert_eq!(
        layout.index_of((map::APP_IMAGE_MIRROR.start - map::RAM.start) as usize),
        2
    );
}

const KEY: [u8; 16] = [0x42; 16];

/// What one round through the agent cost the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Round {
    /// Device cycles, read off the battery the way the benchmark reads
    /// them.
    cycles: u64,
    /// Segments the round re-digested.
    recomputed: u32,
    /// Body digests the round recomputed (`ProverStats::seg_body_recomputed`).
    body_recomputed: u64,
}

/// Four rounds of one device through the real agent and a loopback
/// gateway. `before_round` runs on the prover ahead of each round, off
/// the battery count. The first two dials are the warm-up (for sessions:
/// the handshake and the History bootstrap).
fn rounds(
    config: ProverConfig,
    policy: ScopePolicy,
    sessions: bool,
    mut before_round: impl FnMut(&mut Prover),
) -> Vec<Round> {
    let prover = Prover::provision(config.clone(), &KEY, b"cost pin app").expect("provision");
    let mut verifier = Verifier::new(&config, &KEY).expect("verifier");
    verifier.set_scope_policy(policy);
    let mut directory = DeviceDirectory::new();
    let id = directory.register(verifier, prover.expected_memory().to_vec());
    let mut agent = if sessions {
        ProverAgent::with_sessions(prover, id)
    } else {
        ProverAgent::new(prover, id)
    };
    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(
        Box::new(hub),
        directory,
        GatewayConfig {
            reactor_shards: 1,
            ..GatewayConfig::default()
        },
    );
    let retry = RetryPolicy {
        timeout_ms: 30_000,
        ..GatewayConfig::default().retry
    };
    let mut dial = || {
        connector
            .connect()
            .map(|conn| Box::new(conn) as Box<dyn Transport>)
    };
    let mut out = Vec::new();
    for _ in 0..4 {
        before_round(agent.prover_mut());
        let battery = agent.prover().mcu().battery();
        let before = battery.remaining_joules();
        let body_before = agent.prover().stats().seg_body_recomputed;
        let outcome = agent.attest_with_retry(&mut dial, &retry, Duration::from_secs(60), 50);
        assert!(outcome.is_verified(), "round failed: {outcome:?}");
        let prover = agent.prover();
        let battery = prover.mcu().battery();
        out.push(Round {
            cycles: ((before - battery.remaining_joules()) / battery.energy_of_cycles(1)).round()
                as u64,
            recomputed: prover.last_cost().mac_recomputed_segments,
            body_recomputed: prover.stats().seg_body_recomputed - body_before,
        });
    }
    let report = handle.shutdown();
    assert!(report.stats.partition_holds(), "{:?}", report.stats);
    out
}

/// Device cycles of a steady round: the last two rounds are both steady,
/// so the cost repeats exactly.
fn steady_round_cycles(config: ProverConfig, policy: ScopePolicy, sessions: bool) -> u64 {
    let rounds = rounds(config, policy, sessions, |_| ());
    assert_eq!(
        rounds[2].cycles, rounds[3].cycles,
        "device cost not steady: {rounds:?}"
    );
    rounds[3].cycles
}

/// The quiescent in-session History round digests only the 16-byte
/// freshness segment (one SHA-1 block), and opens and seals one frame,
/// each a one-block HMAC over `channel::frame_mac_len` bytes: 36 208
/// cycles (1.50867 device-ms at 24 MHz). The benchmark's
/// `session_history` `prover_active_ms` is this figure divided by
/// 24 000.
#[test]
fn quiescent_history_round_cycles_are_pinned() {
    let cycles = steady_round_cycles(
        ProverConfig::recommended_segmented(),
        ScopePolicy::History { full_every: 0 },
        true,
    );
    assert_eq!(cycles, 36_208);
}

/// The steady cached Segmented one-shot round: the dirty-bit scan, one
/// one-block re-digest of the freshness segment and the two-block combine
/// MAC over `d_0 ‖ b` on top of the request authentication.
#[test]
fn steady_segmented_round_cycles_are_pinned() {
    let cycles = steady_round_cycles(
        ProverConfig::recommended_segmented(),
        ScopePolicy::Full,
        false,
    );
    assert_eq!(cycles, 15_880);
}

/// The trade-off of the cached body digest: a round with one dirty 8 KiB
/// application segment re-digests it (129 blocks) and then the body
/// digest over the 65 digests after the head (21 blocks), 347 080
/// cycles. The body digest is recomputed in exactly the rounds that
/// re-digest a segment after the head: the cold first round and each
/// dirty one, never a quiescent one.
#[test]
fn dirty_app_segment_round_pays_the_body_digest() {
    let config = ProverConfig::recommended_segmented();
    let seg_len = config.segmented.expect("segmented").segment_len;
    let layout = SegmentLayout::ram(seg_len);
    let seg_len = seg_len as usize;
    let off = seg_len + 100;
    assert_eq!(layout.span(layout.index_of(off)).len(), seg_len);
    // Rewriting a byte with its own value sets the dirty bit but leaves
    // the expected image as it is.
    let mut dirty_round = 0;
    let touch = |prover: &mut Prover| {
        dirty_round += 1;
        if dirty_round % 2 == 0 {
            let byte = prover.expected_memory()[off];
            prover
                .mcu_mut()
                .bus_write(map::RAM.start + off as u32, &[byte], map::APP_CODE)
                .expect("app RAM is open to app code");
        }
    };
    let rounds = rounds(config, ScopePolicy::Full, false, touch);
    let quiescent = rounds[2];
    let dirty = rounds[3];
    assert_eq!((quiescent.cycles, quiescent.recomputed), (15_880, 1));
    assert_eq!((dirty.cycles, dirty.recomputed), (347_080, 2));
    assert_eq!(rounds[1].cycles, dirty.cycles);
    let table = proverguard_mcu::cycles::CostTable::siskiyou_peak();
    let body = table.sha1_digest_cost(segcache::BODY_PREFIX_LEN + (layout.count() - 1) * 20);
    assert_eq!(body, 21 * table.hmac_per_block);
    assert_eq!(
        dirty.cycles - quiescent.cycles,
        table.sha1_digest_cost(segcache::SEGMENT_PREFIX_LEN + seg_len) + body
    );
    for (i, round) in rounds.iter().enumerate() {
        assert_eq!(
            round.body_recomputed,
            u64::from(round.recomputed > 1),
            "round {i}: {rounds:?}"
        );
    }
    assert_eq!(rounds[0].recomputed, 66);
    assert_eq!(rounds[0].recomputed as usize, layout.count());
}

/// Rewrites one `TRUST_STATE` byte with its own value, as `Code_Attest`
/// does on a §7 clock-sync or command write, ahead of the fourth round
/// only: the dirty bit trips, the contents stay.
fn touch_trust_state_before_round_four() -> impl FnMut(&mut Prover) {
    let mut round = 0;
    move |prover: &mut Prover| {
        round += 1;
        if round == 4 {
            let addr = map::TRUST_STATE.start + 8;
            let mut byte = [0u8];
            let mcu = prover.mcu_mut();
            mcu.bus_read(addr, &mut byte, map::ATTEST_PC)
                .expect("trust state is open to Code_Attest");
            mcu.bus_write(addr, &byte, map::ATTEST_PC)
                .expect("trust state is open to Code_Attest");
        }
    }
}

/// The price of keeping the trust state out of the freshness segment: a
/// round after a `TRUST_STATE` write re-digests the 240-byte IDT and
/// trust-state segment (5 blocks) and, on the Segmented path, the body
/// digest (21 blocks): 73 288 cycles. The in-session History round pays
/// the 5 blocks alone: 47 248 cycles. A segment 0 spanning the whole
/// reserved head would make these rounds no dearer than a quiescent one,
/// at five blocks instead of one in every round.
#[test]
fn trust_state_write_pays_its_own_segment() {
    let layout = SegmentLayout::ram(proverguard_mcu::DEFAULT_SEGMENT_LEN);
    let trust = layout.index_of((map::TRUST_STATE.start - map::RAM.start) as usize);
    assert_eq!(layout.span(trust), FRESHNESS_LEN..HEAD_LEN);
    let table = proverguard_mcu::cycles::CostTable::siskiyou_peak();
    let trust_digest =
        table.sha1_digest_cost(segcache::SEGMENT_PREFIX_LEN + HEAD_LEN - FRESHNESS_LEN);
    assert_eq!(trust_digest, 5 * table.hmac_per_block);
    let body = table.sha1_digest_cost(segcache::BODY_PREFIX_LEN + (layout.count() - 1) * 20);

    let segmented = rounds(
        ProverConfig::recommended_segmented(),
        ScopePolicy::Full,
        false,
        touch_trust_state_before_round_four(),
    );
    let (quiescent, touched) = (segmented[2], segmented[3]);
    assert_eq!((quiescent.cycles, quiescent.recomputed), (15_880, 1));
    assert_eq!(
        (touched.cycles, touched.recomputed, touched.body_recomputed),
        (73_288, 2, 1)
    );
    assert_eq!(touched.cycles - quiescent.cycles, trust_digest + body);

    let history = rounds(
        ProverConfig::recommended_segmented(),
        ScopePolicy::History { full_every: 0 },
        true,
        touch_trust_state_before_round_four(),
    );
    let (quiescent, touched) = (history[2], history[3]);
    assert_eq!(quiescent.cycles, 36_208);
    assert_eq!(touched.cycles, 47_248);
    assert_eq!(touched.cycles - quiescent.cycles, trust_digest);
}

/// The paper's Whole-memory round never touches segments: 754.12
/// device-ms (18 098 872 cycles), the same as under the uniform layout.
#[test]
fn whole_round_cycles_are_unchanged() {
    let cycles = steady_round_cycles(ProverConfig::recommended(), ScopePolicy::Full, false);
    assert_eq!(cycles, 18_098_872);
}

//! End-to-end OTA campaign mechanics on the *real* prover stack: the
//! segment-cache invalidation regression, the gateway `Command`/`Receipt`
//! wire round-trip, and the torn-flash property (a reboot at an
//! arbitrary byte offset mid-flash never yields a valid MAC for either
//! image, and the campaign layer routes it to retry — not rollback, not
//! healthy).

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use proverguard_adversary::toctou::immutable_segments;
use proverguard_attest::campaign::{
    CampaignAction, CampaignConfig, CampaignController, DeviceOutcome, DeviceState,
};
use proverguard_attest::freshness::{patch_expected_command_counter, patch_expected_image};
use proverguard_attest::gateway::{DeviceDirectory, GatewayMsg, ProverAgent};
use proverguard_attest::imagecache::ImageCache;
use proverguard_attest::persist::InMemoryNvStore;
use proverguard_attest::prover::{BootHealth, Prover, ProverConfig};
use proverguard_attest::segcache::segment_digests;
use proverguard_attest::services::{updated_flash_digest, Command};
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_attest::AttestError;
use proverguard_mcu::map;
use proverguard_transport::{loopback_pair, Transport, DEFAULT_MAX_FRAME};

const KEY: [u8; 16] = [0x42; 16];

/// The campaign's starting image — every byte non-zero, so a torn
/// prefix-over-zeros can never alias it.
fn old_image() -> Vec<u8> {
    (0..64u32).map(|i| 0x11 + (i % 200) as u8).collect()
}

/// The rollout target — longer, different, every byte non-zero.
fn new_image() -> Vec<u8> {
    (0..96u32)
        .map(|i| 0x91_u8.wrapping_add((i % 100) as u8) | 1)
        .collect()
}

/// Provisions a prover + verifier pair on `image` with an update
/// journal attached (the OTA-managed configuration).
fn managed_pair(config: ProverConfig, image: &[u8]) -> (Prover, Verifier) {
    let mut prover = Prover::provision(config.clone(), &KEY, image).expect("provision");
    prover
        .attach_update_journal(Box::new(InMemoryNvStore::new()))
        .expect("journal");
    let verifier = Verifier::new(&config, &KEY).expect("verifier");
    (prover, verifier)
}

/// Drives one `UpdateFirmware` through the real command pipeline and
/// checks the receipt.
fn update(prover: &mut Prover, verifier: &mut Verifier, image: &[u8]) -> Result<(), AttestError> {
    let request = verifier.make_command(Command::UpdateFirmware {
        image: image.to_vec(),
    });
    let command = request.command.clone();
    let receipt = prover.handle_command(&request)?;
    assert!(
        verifier.check_command_receipt(&receipt, &command, &updated_flash_digest(image)),
        "update receipt must verify against the post-update flash digest"
    );
    Ok(())
}

/// One attestation round against the prover's live RAM (ground truth).
fn attest_ok(prover: &mut Prover, verifier: &mut Verifier) -> bool {
    let request = verifier.make_request().expect("request");
    let response = prover.handle_request(&request).expect("accepted");
    verifier.check_response(&request, &response, prover.expected_memory())
}

// ---------------------------------------------------------------------------
// Satellite 1 regression: a successful update must invalidate the
// prover's segment-digest cache.
// ---------------------------------------------------------------------------

/// Attest (old image) → UpdateFirmware → attest (new image), on the
/// segmented prover. The firmware DMA fills the RAM mirror *behind* the
/// dirty tracker, so without the explicit post-update invalidation the
/// second attestation serves stale cached digests for the mirror
/// segments and fails verification.
#[test]
fn update_invalidates_segment_cache() {
    let (mut prover, mut verifier) =
        managed_pair(ProverConfig::recommended_segmented(), &old_image());

    // Round 1: warm the cache over the pre-update RAM.
    assert!(attest_ok(&mut prover, &mut verifier), "pre-update attest");

    // The update DMA-installs the new image's RAM mirror.
    update(&mut prover, &mut verifier, &new_image()).expect("update");

    // Round 2: the response must reflect the *new* RAM — and the cache
    // must agree with a from-scratch recomputation.
    assert!(
        attest_ok(&mut prover, &mut verifier),
        "post-update attest must verify against the updated RAM mirror"
    );
    let cache = prover.segment_cache().expect("segmented prover");
    let oracle = segment_digests(prover.expected_memory(), cache.segment_len());
    assert_eq!(
        cache.all().expect("cache complete"),
        oracle,
        "segment cache must have recomputed the mirror segments"
    );

    // And the mirror region really is the new image.
    let mirror_off = (map::APP_IMAGE_MIRROR.start - map::RAM.start) as usize;
    let ram = prover.expected_memory();
    assert_eq!(
        &ram[mirror_off..mirror_off + new_image().len()],
        &new_image()[..],
        "RAM mirror must hold the new image after the update"
    );
}

// ---------------------------------------------------------------------------
// Satellite regression: the update DMA bypasses the per-write epoch
// tracker, so the commit path must bump the epochs of every covered
// segment explicitly — otherwise a later History round would report the
// freshly flashed mirror as "unmodified since before the update".
// ---------------------------------------------------------------------------

/// One full History-policy attestation round, including the verifier
/// bookkeeping a session link performs.
fn history_round(prover: &mut Prover, verifier: &mut Verifier) -> bool {
    let request = verifier.make_request().expect("request");
    let Ok(response) = prover.handle_request(&request) else {
        verifier.note_failed(&request);
        return false;
    };
    let expected = prover.expected_memory().to_vec();
    let ok = verifier.check_response(&request, &response, &expected);
    if ok {
        verifier.note_verified(&request, &response, &expected);
    } else {
        verifier.note_failed(&request);
    }
    ok
}

#[test]
fn update_bumps_mirror_segment_epochs() {
    let (mut prover, mut verifier) =
        managed_pair(ProverConfig::recommended_segmented(), &old_image());
    verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
    let seg_len = prover.segment_cache().expect("segmented").segment_len() as u32;

    // Bootstrap, then a quiescent round: the mirror drops out of the
    // modified set once a verified baseline exists.
    assert!(history_round(&mut prover, &mut verifier), "bootstrap");
    assert!(history_round(&mut prover, &mut verifier), "quiescent");
    let quiescent = verifier.last_history().expect("history outcome");
    for seg in immutable_segments(seg_len) {
        assert!(
            !quiescent.modified.contains(&seg),
            "quiescent round must not report mirror segment {seg} modified"
        );
    }

    // The update DMA-installs the new mirror behind the write tracker.
    update(&mut prover, &mut verifier, &new_image()).expect("update");

    // The next History round must expose every mirror segment as written
    // — and still verify, because the recomputed digests cover the new
    // image.
    assert!(history_round(&mut prover, &mut verifier), "post-update");
    let outcome = verifier.last_history().expect("history outcome");
    for seg in immutable_segments(seg_len) {
        assert!(
            outcome.modified.contains(&seg),
            "update must bump the epoch of mirror segment {seg}; modified = {:?}",
            outcome.modified
        );
    }
}

#[test]
fn torn_flash_recovery_boot_bumps_epochs() {
    let (mut prover, mut verifier) =
        managed_pair(ProverConfig::recommended_segmented(), &old_image());
    prover.attach_epoch_log_store(Box::new(InMemoryNvStore::new()));
    verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
    update(&mut prover, &mut verifier, &old_image()).expect("baseline update");
    assert!(history_round(&mut prover, &mut verifier), "bootstrap");
    assert!(history_round(&mut prover, &mut verifier), "quiescent");

    // Power dies mid-flash; the reboot lands in recovery with a torn
    // mirror installed by the boot path's DMA — again behind the tracker.
    prover.inject_update_tear(17);
    let request = verifier.make_command(Command::UpdateFirmware { image: new_image() });
    match prover.handle_command(&request) {
        Err(AttestError::PowerLoss) => {}
        other => panic!("expected PowerLoss, got {other:?}"),
    }
    prover.reboot().expect("reboot");
    assert_eq!(prover.boot_health(), BootHealth::Recovery);

    // The sealed epoch log restored across the reboot (no History
    // suspension), and the boot-time restore conservatively stamps every
    // segment — so the torn mirror cannot hide behind a stale epoch.
    assert!(!prover.history_suspended(), "sealed log must restore");
    assert!(
        history_round(&mut prover, &mut verifier),
        "recovery device answers honestly about its torn mirror"
    );
    let outcome = verifier.last_history().expect("history outcome");
    let seg_len = prover.segment_cache().expect("segmented").segment_len() as u32;
    for seg in immutable_segments(seg_len) {
        assert!(
            outcome.modified.contains(&seg),
            "recovery boot must report mirror segment {seg} modified"
        );
    }
}

// ---------------------------------------------------------------------------
// Gateway wire round-trip: Command frame in, Receipt frame out, then an
// attestation of the new image over the same connection.
// ---------------------------------------------------------------------------

#[test]
fn gateway_command_roundtrip_updates_and_reattests() {
    let (prover, _) = managed_pair(ProverConfig::recommended(), &old_image());
    let mut directory = DeviceDirectory::new();
    let verifier_for_registry =
        Verifier::new(&ProverConfig::recommended(), &KEY).expect("verifier");
    let device_id = directory.register(verifier_for_registry, prover.expected_memory().to_vec());
    let mut agent = ProverAgent::new(prover, device_id);

    // Campaign side keeps its own verifier (the directory's copy is for
    // gateway-driven sessions; this test drives the frames by hand).
    let mut verifier = Verifier::new(&ProverConfig::recommended(), &KEY).expect("verifier");

    let (mut conn, mut agent_conn) = loopback_pair(DEFAULT_MAX_FRAME);
    let agent_join = thread::spawn(move || {
        let outcome = agent.run_session(&mut agent_conn, Duration::from_secs(5));
        (agent, outcome)
    });

    conn.set_deadline(Some(Duration::from_secs(5)))
        .expect("deadline");

    // Hello identifies the device.
    let hello = GatewayMsg::decode(&conn.recv().expect("hello")).expect("decode");
    assert_eq!(hello, GatewayMsg::Hello { device_id });

    // Command frame → Receipt frame.
    let request = verifier.make_command(Command::UpdateFirmware { image: new_image() });
    let command = request.command.clone();
    conn.send(&GatewayMsg::Command(request.to_bytes()).encode())
        .expect("send command");
    let receipt = match GatewayMsg::decode(&conn.recv().expect("receipt")).expect("decode") {
        GatewayMsg::Receipt(raw) => {
            proverguard_attest::services::CommandReceipt::from_bytes(&raw).expect("receipt bytes")
        }
        other => panic!("expected Receipt, got {other:?}"),
    };
    assert!(
        verifier.check_command_receipt(&receipt, &command, &updated_flash_digest(&new_image())),
        "wire receipt must verify against the new image digest"
    );

    // Fresh attestation over the same connection: the gating step of the
    // campaign. The response covers the *new* RAM mirror.
    let att_request = verifier.make_request().expect("request");
    conn.send(&GatewayMsg::AttReq(att_request.to_bytes()).encode())
        .expect("send attreq");
    let response = match GatewayMsg::decode(&conn.recv().expect("attresp")).expect("decode") {
        GatewayMsg::AttResp(raw) => {
            proverguard_attest::message::AttestResponse::from_bytes(&raw).expect("response bytes")
        }
        other => panic!("expected AttResp, got {other:?}"),
    };
    conn.send(&GatewayMsg::Bye { verified: true }.encode())
        .expect("send bye");

    let (agent, outcome) = agent_join.join().expect("agent thread");
    assert!(outcome.is_verified(), "agent must see the verified Bye");
    assert!(
        verifier.check_response(&att_request, &response, agent.prover().expected_memory()),
        "post-update attestation must verify over the wire"
    );
    // The device's trust root rotated to the new image.
    assert_eq!(
        agent.prover().boot_reference(),
        &updated_flash_digest(&new_image())
    );
}

// ---------------------------------------------------------------------------
// Satellite 3: torn flash — power loss at an arbitrary byte offset.
// ---------------------------------------------------------------------------

/// Builds the "expected RAM for image X" twin: a managed prover that
/// took the same update path as the device under test, without the tear.
fn twin_expected_ram(image: &[u8]) -> Vec<u8> {
    let (mut prover, mut verifier) = managed_pair(ProverConfig::recommended(), &old_image());
    update(&mut prover, &mut verifier, image).expect("twin update");
    prover.expected_memory().to_vec()
}

/// Copies device-truth words (freshness counter via the request field,
/// command counter and clock words from the live RAM) into a twin's
/// expected image, leaving the app-image mirror as the only possible
/// difference.
fn align_expected(
    expected: &mut [u8],
    device_ram: &[u8],
    field: &proverguard_attest::message::FreshnessField,
) {
    patch_expected_image(expected, field);
    let cmd_off = (map::TRUST_STATE.start + 16 - map::RAM.start) as usize;
    let mut word = [0u8; 8];
    word.copy_from_slice(&device_ram[cmd_off..cmd_off + 8]);
    patch_expected_command_counter(expected, u64::from_le_bytes(word));
    // Clock offset + sync words (never synced here, but align anyway).
    let ts_off = (map::TRUST_STATE.start - map::RAM.start) as usize;
    expected[ts_off..ts_off + 16].copy_from_slice(&device_ram[ts_off..ts_off + 16]);
}

fn run_torn_flash_case(tear_at: usize) {
    let old = old_image();
    let new = new_image();
    let (mut prover, mut verifier) = managed_pair(ProverConfig::recommended(), &old);

    // Establish the OTA-managed baseline: one clean update to the old
    // image installs the RAM mirror, so from here on every attestation
    // is coupled to the flash contents.
    update(&mut prover, &mut verifier, &old).expect("baseline update");

    // Power dies `tear_at` bytes into programming the new image.
    prover.inject_update_tear(tear_at);
    let request = verifier.make_command(Command::UpdateFirmware { image: new.clone() });
    match prover.handle_command(&request) {
        Err(AttestError::PowerLoss) => {}
        other => panic!("expected PowerLoss, got {other:?}"),
    }

    // The reboot lands in recovery: the journal says in-progress but the
    // flash digest matches neither image.
    prover.reboot().expect("reboot");
    assert_eq!(prover.boot_health(), BootHealth::Recovery);

    // The recovery-booted device attests honestly — over the *torn*
    // mirror. Sanity: the MAC is valid for what the device actually is.
    let att = verifier.make_request().expect("request");
    let resp = prover.handle_request(&att).expect("recovery attest");
    assert!(
        verifier.check_response(&att, &resp, prover.expected_memory()),
        "the torn device still answers honestly about itself"
    );

    // ...but never as the OLD image...
    let mut expected_old = twin_expected_ram(&old);
    align_expected(&mut expected_old, prover.expected_memory(), &att.freshness);
    assert!(
        !verifier.check_response(&att, &resp, &expected_old),
        "tear at {tear_at}: torn flash must not attest as the old image"
    );

    // ...and never as the NEW image.
    let mut expected_new = twin_expected_ram(&new);
    align_expected(&mut expected_new, prover.expected_memory(), &att.freshness);
    assert!(
        !verifier.check_response(&att, &resp, &expected_new),
        "tear at {tear_at}: torn flash must not attest as the new image"
    );

    // Positive control: with the mirror region also copied from the
    // device, the aligned expectation verifies — proving the mirror was
    // the *only* difference above.
    let mirror = (map::APP_IMAGE_MIRROR.start - map::RAM.start) as usize;
    let mirror_len = map::APP_IMAGE_MIRROR.len() as usize;
    let mut expected_torn = expected_old.clone();
    expected_torn[mirror..mirror + mirror_len]
        .copy_from_slice(&prover.expected_memory()[mirror..mirror + mirror_len]);
    assert!(
        verifier.check_response(&att, &resp, &expected_torn),
        "tear at {tear_at}: the torn mirror must be the only divergence"
    );

    // The retry (with a fresh command counter) completes the rollout.
    update(&mut prover, &mut verifier, &new).expect("retry update");
    assert_eq!(prover.boot_health(), BootHealth::Healthy);
    assert_eq!(prover.boot_reference(), &updated_flash_digest(&new));
    assert!(
        attest_ok(&mut prover, &mut verifier),
        "tear at {tear_at}: the retried update must attest clean"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reboot at an arbitrary byte offset strictly inside the program
    /// sequence: the torn image never attests as either image, and the
    /// retry converges. (Offset == image length is a *complete* program
    /// whose commit record was lost — the journal completes it at boot,
    /// covered by the unit tests.)
    #[test]
    fn torn_flash_never_attests_as_either_image(tear_at in 1usize..96) {
        run_torn_flash_case(tear_at);
    }
}

/// Boundary offsets, pinned (not sampled): first byte, last byte.
#[test]
fn torn_flash_boundary_offsets() {
    run_torn_flash_case(1);
    run_torn_flash_case(new_image().len() - 1);
}

/// The campaign layer routes a torn flash to *retry* — never to
/// rollback, never to healthy.
#[test]
fn campaign_routes_torn_flash_to_retry() {
    let mut controller = CampaignController::new(1, CampaignConfig::default());
    let actions = controller.tick(0);
    assert_eq!(actions.len(), 1);
    assert!(matches!(actions[0], CampaignAction::SendUpdate { .. }));
    controller.report(0, DeviceOutcome::UpdateTorn, 0);
    match controller.device_state(0) {
        DeviceState::Torn { .. } => {}
        other => panic!("torn flash must park in Torn (retry), got {other:?}"),
    }
    // The next tick retries the update on the same device.
    let actions = controller.tick(1);
    assert_eq!(actions.len(), 1);
    assert!(
        matches!(actions[0], CampaignAction::SendUpdate { .. }),
        "torn flash must be retried with a fresh UpdateFirmware"
    );
}

// ---------------------------------------------------------------------------
// Fleet digest cache: campaign retargets must invalidate superseded
// baselines, a rollback must never verify against stale cached digests,
// and History rounds always consult post-epoch expectations.
// ---------------------------------------------------------------------------

/// One directory-mediated attestation round against the device's live
/// state — the exact code path both gateway drivers use, shared digest
/// cache included.
fn directory_round(directory: &DeviceDirectory, id: u64, prover: &mut Prover) -> bool {
    let request = directory
        .with_verifier(id, |v| v.make_request())
        .expect("registered")
        .expect("request");
    match prover.handle_request(&request) {
        Ok(response) => directory
            .verify_response(id, &request, &response)
            .expect("registered"),
        Err(_) => {
            directory.with_verifier(id, |v| v.note_failed(&request));
            false
        }
    }
}

/// Builds the verifier-side "expected RAM for image X" twin, then copies
/// the device-truth trust words (clock + command counter) over from the
/// live RAM so the app-image mirror is the only intended difference.
/// (The freshness word is patched per request by the directory itself.)
fn retarget_expectation(image: &[u8], device_ram: &[u8]) -> Vec<u8> {
    let (mut twin, mut twin_verifier) =
        managed_pair(ProverConfig::recommended_segmented(), &old_image());
    update(&mut twin, &mut twin_verifier, image).expect("twin update");
    let mut expected = twin.expected_memory().to_vec();
    let ts_off = (map::TRUST_STATE.start - map::RAM.start) as usize;
    expected[ts_off..ts_off + 24].copy_from_slice(&device_ram[ts_off..ts_off + 24]);
    expected
}

/// A campaign halt rolls the *expectation* back to the old image while
/// the device still runs the new one: the cached digest vector of the
/// superseded baseline must not vouch for the device. Once the device
/// executes the rollback for real, the freshly retargeted expectation
/// verifies — from digests computed over the old baseline, not recalled
/// from any stale cache slot.
#[test]
fn rollback_never_verifies_against_stale_cached_digests() {
    let old = old_image();
    let new = new_image();
    let (mut prover, mut verifier) = managed_pair(ProverConfig::recommended_segmented(), &old);
    update(&mut prover, &mut verifier, &old).expect("baseline update");
    update(&mut prover, &mut verifier, &new).expect("rollout update");

    let cache = Arc::new(ImageCache::new(4));
    let mut directory = DeviceDirectory::with_cache(Arc::clone(&cache));
    let id = directory.register(verifier, prover.expected_memory().to_vec());

    // Warm the shared cache over the rolled-out (new) expectation.
    assert!(
        directory_round(&directory, id, &mut prover),
        "device on the new image verifies against the new expectation"
    );

    // The campaign halts: expectation returns to OLD. The device has NOT
    // rolled back yet.
    let expected_old = retarget_expectation(&old, prover.expected_memory());
    assert!(directory.set_expected_memory(id, expected_old));
    assert!(
        !directory_round(&directory, id, &mut prover),
        "device still on the new image must fail the rolled-back expectation"
    );

    // The device executes the rollback through the directory's own
    // verifier, keeping the command counters in lockstep...
    directory
        .with_verifier(id, |v| {
            let request = v.make_command(Command::UpdateFirmware { image: old.clone() });
            let command = request.command.clone();
            let receipt = prover.handle_command(&request).expect("rollback update");
            assert!(
                v.check_command_receipt(&receipt, &command, &updated_flash_digest(&old)),
                "rollback receipt must verify against the old image digest"
            );
        })
        .expect("registered");

    // ...and the re-aligned old expectation verifies the real rollback.
    let expected_old = retarget_expectation(&old, prover.expected_memory());
    assert!(directory.set_expected_memory(id, expected_old));
    assert!(
        directory_round(&directory, id, &mut prover),
        "rolled-back device verifies against freshly computed old digests"
    );

    let stats = cache.stats();
    assert!(
        stats.invalidations >= 1,
        "superseded baselines must be invalidated on retarget: {stats:?}"
    );
    assert!(stats.conservation_holds(), "{stats:?}");
}

/// History rounds across a campaign retarget: the update DMA bumps the
/// mirror segments' epochs, the device reports them modified, and the
/// verifier must recompute those digests from the *new* baseline — any
/// stale pre-epoch digest vector surviving the retarget would fail the
/// response MAC here.
#[test]
fn history_rounds_consult_post_epoch_digests_after_retarget() {
    let old = old_image();
    let new = new_image();
    let (mut prover, mut verifier) = managed_pair(ProverConfig::recommended_segmented(), &old);
    verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
    update(&mut prover, &mut verifier, &old).expect("baseline update");
    let seg_len = prover.segment_cache().expect("segmented").segment_len() as u32;

    let cache = Arc::new(ImageCache::new(4));
    let mut directory = DeviceDirectory::with_cache(Arc::clone(&cache));
    let id = directory.register(verifier, prover.expected_memory().to_vec());

    assert!(
        directory_round(&directory, id, &mut prover),
        "bootstrap round"
    );
    assert!(
        directory_round(&directory, id, &mut prover),
        "quiescent history round"
    );

    // The campaign pushes the new image through the directory's verifier
    // and retargets the expectation to match.
    directory
        .with_verifier(id, |v| {
            let request = v.make_command(Command::UpdateFirmware { image: new.clone() });
            let command = request.command.clone();
            let receipt = prover.handle_command(&request).expect("campaign update");
            assert!(
                v.check_command_receipt(&receipt, &command, &updated_flash_digest(&new)),
                "campaign receipt must verify against the new image digest"
            );
        })
        .expect("registered");
    let expected_new = retarget_expectation(&new, prover.expected_memory());
    assert!(directory.set_expected_memory(id, expected_new));

    // Post-retarget History round: verifies, with every mirror segment in
    // the authenticated modified set.
    assert!(
        directory_round(&directory, id, &mut prover),
        "post-retarget history round must verify from post-epoch digests"
    );
    let modified = directory
        .with_verifier(id, |v| {
            v.last_history().expect("history outcome").modified.clone()
        })
        .expect("registered");
    for seg in immutable_segments(seg_len) {
        assert!(
            modified.contains(&seg),
            "mirror segment {seg} must be in the modified set; got {modified:?}"
        );
    }

    let stats = cache.stats();
    assert!(
        stats.invalidations >= 1,
        "the pre-update baseline must be invalidated on retarget: {stats:?}"
    );
    assert!(stats.conservation_holds(), "{stats:?}");
}

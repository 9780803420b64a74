//! Integration: the deterministic CI chaos soak and its liveness
//! invariants. This test is the gate; the `fleet_soak` binary only
//! prints the defence-ladder comparison.
//!
//! One fixed-seed scenario, the full stack: a 4-device fleet (one
//! compromised, one behind a lossy radio that heals mid-run) under a
//! per-round forgery flood, driven by the verifier-side fleet controller
//! with admission control on every prover. The invariants are the
//! robustness story in one assertion each: batteries stay above the
//! floor, honest devices attest, breakers re-close when faults clear,
//! compromised devices are quarantined.

use proverguard_adversary::soak::{run_soak, DeviceRole, SoakConfig};

#[test]
fn ci_soak_holds_every_liveness_invariant() {
    let cfg = SoakConfig::ci();
    let report = run_soak(&cfg).expect("ci soak provisions");

    assert!(
        report.liveness_ok(),
        "liveness violations: {:#?}",
        report.violations
    );
    assert_eq!(report.devices.len(), 4);
    assert_eq!(report.rounds, 10);
    assert!(report.total_flood >= 400, "flood never ran");
    assert!(report.total_successes > 0);

    for device in &report.devices {
        match device.role {
            DeviceRole::Compromised => {
                // Quarantined: never verified, breaker tripped, and the
                // health score collapsed.
                assert_eq!(device.successes, 0);
                assert!(device.breaker_trips >= 1);
                assert!(device.health_score < 0.5);
            }
            DeviceRole::Faulty => {
                // Attested despite the lossy radio, and once the faults
                // cleared the breaker ended the run closed.
                assert!(device.successes >= 1);
                assert!(device.breaker_closed);
            }
            DeviceRole::Honest => {
                assert!(device.successes >= 1);
                assert!(device.breaker_closed);
                assert!(device.health_score > 0.5);
            }
            DeviceRole::Transient => unreachable!("ci() has no transient devices"),
        }
        // The admission bucket kept every battery near full even though
        // every device ate the whole flood.
        assert!(
            device.min_battery_fraction >= cfg.energy_floor_fraction,
            "device {} fell to {}",
            device.index,
            device.min_battery_fraction
        );
    }
}

#[test]
fn ci_history_soak_catches_transient_malware() {
    // The epoch-log gate: a History-mostly scope policy over a segmented
    // fleet, with one device running infect/act/restore strikes between
    // rounds. Every digest that device ever presents verifies — the only
    // evidence is the authenticated modified set, and the soak grades that
    // it was seen (and that no honest device was falsely flagged).
    let cfg = SoakConfig::ci_history();
    let report = run_soak(&cfg).expect("ci history soak provisions");

    assert!(
        report.liveness_ok(),
        "liveness violations: {:#?}",
        report.violations
    );
    assert_eq!(report.devices.len(), 5);

    let transient: Vec<_> = report
        .devices
        .iter()
        .filter(|d| d.role == DeviceRole::Transient)
        .collect();
    assert_eq!(transient.len(), 1);
    assert!(
        transient[0].successes >= 1,
        "restored memory keeps verifying — the attack beats content sweeps"
    );
    assert!(
        transient[0].toctou_flags >= 1,
        "the write events must surface through the History rounds"
    );
    for device in &report.devices {
        if device.role != DeviceRole::Transient {
            assert_eq!(
                device.toctou_flags, 0,
                "false TOCTOU alarm on device {}",
                device.index
            );
        }
    }
}

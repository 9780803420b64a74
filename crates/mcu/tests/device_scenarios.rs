//! Device-level integration scenarios: secure boot + EA-MPU + interrupts
//! + clocks working together, plus property tests on the bus.

use proptest::prelude::*;

use proverguard_mcu::boot::{image_digest, SecureBoot};
use proverguard_mcu::device::{timer_regs, Mcu};
use proverguard_mcu::map;
use proverguard_mcu::mpu::{AccessKind, Permissions, Rule};
use proverguard_mcu::rtc::HwRtc;
use proverguard_mcu::timer::TIMER_WRAP_VECTOR;
use proverguard_mcu::{McuError, CLOCK_HZ};

fn booted_with_rules(rules: &[Rule]) -> Mcu {
    let mut mcu = Mcu::new();
    mcu.provision_attest_key(&[0x42; 16]).expect("key");
    mcu.program_flash(b"scenario image").expect("flash");
    let reference = image_digest(mcu.physical_memory().flash());
    SecureBoot::new(reference)
        .run(&mut mcu, rules)
        .expect("boot");
    mcu
}

#[test]
fn boot_lockdown_survives_every_reconfiguration_path() {
    let rule = Rule::new(
        "K_Attest",
        map::ATTEST_KEY,
        map::ATTEST_CODE,
        Permissions::READ_ONLY,
    );
    let mut mcu = booted_with_rules(&[rule]);
    // API path.
    assert!(matches!(
        mcu.reconfigure_mpu(map::APP_CODE, |mpu| mpu.remove_rule("K_Attest").map(|_| ())),
        Err(McuError::MpuLocked)
    ));
    // Even trusted code cannot reconfigure after lockdown.
    assert!(matches!(
        mcu.reconfigure_mpu(map::ATTEST_PC, |mpu| mpu
            .remove_rule("K_Attest")
            .map(|_| ())),
        Err(McuError::MpuLocked)
    ));
    // MMIO path: raw write to config space is rejected once locked.
    assert!(matches!(
        mcu.bus_write(map::MMIO_MPU_CONFIG.start, &[0], map::APP_CODE),
        Err(McuError::MpuLocked)
    ));
}

#[test]
fn timer_interrupts_accumulate_across_long_idle() {
    let mut mcu = Mcu::new();
    mcu.install_idt_entry(TIMER_WRAP_VECTOR, map::CLOCK_CODE.start)
        .expect("idt");
    // 10 seconds = floor(10 * 24e6 / 2^20) wraps of the default timer.
    mcu.advance_idle(10 * CLOCK_HZ);
    let expected = (10 * CLOCK_HZ) >> 20;
    let mut served = 0;
    while mcu.take_interrupt().is_some() {
        served += 1;
    }
    assert!(
        (served as i64 - expected as i64).abs() <= 1,
        "served {served}, expected ~{expected}"
    );
}

#[test]
fn rtc_and_timer_advance_coherently() {
    let mut mcu = Mcu::new();
    mcu.install_rtc(HwRtc::wide64());
    // Mixed active/idle advancing.
    mcu.advance_active(CLOCK_HZ / 2);
    mcu.advance_idle(CLOCK_HZ / 2);
    assert_eq!(mcu.rtc().expect("installed").read(), CLOCK_HZ);
    assert_eq!(mcu.clock().cycles(), CLOCK_HZ);
    let mut buf = [0u8; 8];
    mcu.bus_read(
        map::MMIO_TIMER.start + timer_regs::VALUE,
        &mut buf,
        map::APP_CODE,
    )
    .expect("read");
    assert_eq!(u64::from_le_bytes(buf), (CLOCK_HZ >> 4) & 0xffff);
}

#[test]
fn fault_log_accumulates_and_clears() {
    let rule = Rule::new(
        "K_Attest",
        map::ATTEST_KEY,
        map::ATTEST_CODE,
        Permissions::READ_ONLY,
    );
    let mut mcu = booted_with_rules(&[rule]);
    for _ in 0..3 {
        let _ = mcu.read_attest_key(map::APP_CODE);
    }
    assert_eq!(mcu.fault_log().len(), 3);
    assert!(matches!(mcu.fault_log()[0], McuError::MpuViolation { .. }));
    mcu.clear_fault_log();
    assert!(mcu.fault_log().is_empty());
}

#[test]
fn whole_ram_view_roundtrips_bus_writes() {
    let mut mcu = Mcu::new();
    // Scatter writes across the RAM.
    for i in 0..64u32 {
        let addr = map::APP_RAM.start + i * 8 * 1024;
        if map::APP_RAM.contains_span(addr, 4) {
            mcu.bus_write(addr, &i.to_le_bytes(), map::APP_CODE)
                .expect("write");
        }
    }
    let snap = mcu.ram_view(map::APP_CODE).expect("view");
    assert_eq!(snap.len(), map::RAM.len() as usize);
    for i in 0..64u32 {
        let addr = map::APP_RAM.start + i * 8 * 1024;
        if map::APP_RAM.contains_span(addr, 4) {
            let off = (addr - map::RAM.start) as usize;
            assert_eq!(
                u32::from_le_bytes(snap[off..off + 4].try_into().unwrap()),
                i
            );
        }
    }
}

#[test]
fn divided_rtc_read_through_mmio_matches_hardware() {
    let mut mcu = Mcu::new();
    mcu.install_rtc(HwRtc::divided32());
    mcu.advance_idle(5 * CLOCK_HZ);
    let hw = mcu.rtc().expect("installed").read();
    assert_eq!(mcu.read_rtc(map::APP_CODE).expect("read"), hw);
    assert_eq!(hw, (5 * CLOCK_HZ) >> 20);
}

proptest! {
    #[test]
    fn bus_roundtrips_arbitrary_ram_writes(
        offset in 0u32..(512 * 1024 - 64),
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut mcu = Mcu::new();
        let addr = map::RAM.start + offset;
        mcu.bus_write(addr, &data, map::APP_CODE).expect("write");
        let mut back = vec![0u8; data.len()];
        mcu.bus_read(addr, &mut back, map::APP_CODE).expect("read");
        prop_assert_eq!(back, data);
    }

    #[test]
    fn unmapped_addresses_always_fault(addr in 0x0030_0000u32..0xffff_0000) {
        let mut mcu = Mcu::new();
        let mut buf = [0u8; 1];
        prop_assert!(mcu.bus_read(addr, &mut buf, map::APP_CODE).is_err());
        prop_assert!(mcu.bus_write(addr, &buf, map::APP_CODE).is_err());
    }

    #[test]
    fn mpu_rule_is_a_clean_partition(
        offset in 0u32..16,
        pc_offset in 0u32..0x1000,
        write in any::<bool>(),
    ) {
        // K_Attest rule: ATTEST_CODE may read, nobody may write.
        let rule = Rule::new(
            "K_Attest",
            map::ATTEST_KEY,
            map::ATTEST_CODE,
            Permissions::READ_ONLY,
        );
        let mcu = booted_with_rules(&[rule]);
        let addr = map::ATTEST_KEY.start + offset;
        let inside_pc = map::ATTEST_CODE.start + (pc_offset & (map::ATTEST_CODE.len() - 1));
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let allowed = mcu.mpu().check(inside_pc, addr, kind).is_ok();
        prop_assert_eq!(allowed, !write, "trusted code: read-only");
        let outside_pc = map::APP_CODE;
        prop_assert!(mcu.mpu().check(outside_pc, addr, kind).is_err());
    }
}

//! The composed prover device.
//!
//! [`Mcu`] ties together physical memory, the EA-MPU, the interrupt
//! controller, the `Clock_LSB` timer, an optional dedicated RTC, the cycle
//! clock and the battery. Every *software* access goes through
//! [`Mcu::bus_read`] / [`Mcu::bus_write`] carrying the program counter of
//! the code performing it, so EA-MAC semantics hold uniformly for RAM,
//! flash, ROM and MMIO registers.

use crate::cycles::{CostTable, CycleClock};
use crate::energy::Battery;
use crate::error::McuError;
use crate::irq::{self, IrqController};
use crate::map;
use crate::memory::{PhysicalMemory, SegmentLayout};
use crate::mpu::{AccessKind, EaMpu};
use crate::rtc::HwRtc;
use crate::timer::{TimerLsb, TIMER_WRAP_VECTOR};

/// Default EA-MPU rule capacity (generous; Table 3 sweeps `#r`).
pub const DEFAULT_MPU_CAPACITY: usize = 8;

/// Default `Clock_LSB` width in bits.
pub const DEFAULT_TIMER_WIDTH: u32 = 16;

/// Default `Clock_LSB` prescaler (log₂): one tick per 16 cycles, so the
/// 16-bit counter wraps every 2²⁰ cycles ≈ 43.7 ms at 24 MHz.
pub const DEFAULT_TIMER_PRESCALER_LOG2: u32 = 4;

/// MMIO register offsets inside [`map::MMIO_TIMER`].
pub mod timer_regs {
    /// Counter value (read-only; writes always fault).
    pub const VALUE: u32 = 0x0;
    /// Control register (bit 0 = timer enable, bit 1 = global IRQ enable,
    /// bit 2 = wrap-vector enable).
    pub const CONTROL: u32 = 0x4;
}

/// The simulated prover device.
///
/// # Example
///
/// ```
/// use proverguard_mcu::device::Mcu;
/// use proverguard_mcu::map;
///
/// # fn main() -> Result<(), proverguard_mcu::McuError> {
/// let mut mcu = Mcu::new();
/// mcu.provision_attest_key(&[0x42; 16])?;
/// // Before protections are installed, even app code can read the key -
/// // this is the unprotected strawman the paper's defences fix.
/// let key = mcu.read_attest_key(map::APP_CODE)?;
/// assert_eq!(key, [0x42; 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mcu {
    memory: PhysicalMemory,
    mpu: EaMpu,
    irq: IrqController,
    timer: TimerLsb,
    rtc: Option<HwRtc>,
    clock: CycleClock,
    battery: Battery,
    cost: CostTable,
    fault_log: Vec<McuError>,
    /// Protected code regions with their single legal entry point (§6.2:
    /// "limiting code entry points").
    entry_points: Vec<(map::AddrRange, u32)>,
}

impl Default for Mcu {
    fn default() -> Self {
        Self::new()
    }
}

impl Mcu {
    /// A device with the default map, an 8-slot unlocked EA-MPU, the
    /// default `Clock_LSB` timer, no dedicated RTC, and a fresh battery.
    #[must_use]
    pub fn new() -> Self {
        Mcu {
            memory: PhysicalMemory::new(),
            mpu: EaMpu::new(DEFAULT_MPU_CAPACITY),
            irq: IrqController::new(),
            timer: TimerLsb::new(DEFAULT_TIMER_WIDTH, DEFAULT_TIMER_PRESCALER_LOG2),
            rtc: None,
            clock: CycleClock::new(),
            battery: Battery::default(),
            cost: CostTable::siskiyou_peak(),
            fault_log: Vec::new(),
            entry_points: Vec::new(),
        }
    }

    /// Installs a dedicated hardware RTC (Figure 1a designs).
    pub fn install_rtc(&mut self, rtc: HwRtc) {
        self.rtc = Some(rtc);
    }

    /// Power-cycles the device (a reboot, a brown-out, or `Adv_roam`
    /// yanking the battery).
    ///
    /// Volatile state is lost: RAM is wiped (taking `counter_R`,
    /// `Clock_MSB`, the IDT and the trust state with it), the EA-MPU comes
    /// back empty and *unlocked* (secure boot must re-run to re-arm it),
    /// pending interrupts are discarded, and the timer and RTC restart
    /// from zero. Non-volatile state persists: ROM (`K_Attest`), flash
    /// (the application image), and the battery charge. The cycle clock —
    /// the simulation's wall-time/energy ledger — also persists, so a
    /// reset neither hides elapsed time nor refunds energy. The fault log
    /// is diagnostic instrumentation, not device RAM, and survives too.
    pub fn reset(&mut self) {
        // The epoch register is volatile too: round numbering survives a
        // power cycle only through the sealed NV record (restored via the
        // PC-gated `restore_epoch`), never through the silicon.
        self.memory.reset_epoch();
        self.memory.wipe_ram();
        self.mpu = EaMpu::new(self.mpu.capacity());
        self.irq = IrqController::new();
        self.timer = TimerLsb::new(self.timer.width(), self.timer.prescaler_log2());
        if let Some(rtc) = &self.rtc {
            self.rtc = Some(HwRtc::custom(rtc.width(), rtc.prescaler_log2()));
        }
        self.entry_points.clear();
    }

    // ---- time & energy -----------------------------------------------------

    /// The cycle clock.
    #[must_use]
    pub fn clock(&self) -> &CycleClock {
        &self.clock
    }

    /// The battery.
    #[must_use]
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Swaps in a different battery (fleet experiments provision devices
    /// with varying capacities; physically, a cell replacement).
    pub fn set_battery(&mut self, battery: Battery) {
        self.battery = battery;
    }

    /// The Table 1 cost calibration.
    #[must_use]
    pub fn cost_table(&self) -> &CostTable {
        &self.cost
    }

    /// Advances time by `cycles` of *active* computation: drains the
    /// battery, ticks `Clock_LSB` (raising wrap interrupts) and the RTC.
    pub fn advance_active(&mut self, cycles: u64) {
        self.battery.drain_cycles(cycles);
        self.advance_time_only(cycles);
    }

    /// Advances time by `cycles` of idle sleep: clocks tick, battery drain
    /// is treated as negligible (low-power sleep states).
    pub fn advance_idle(&mut self, cycles: u64) {
        self.advance_time_only(cycles);
    }

    fn advance_time_only(&mut self, cycles: u64) {
        self.clock.advance(cycles);
        let wraps = self.timer.advance(cycles);
        for _ in 0..wraps {
            // Vector errors are impossible for the constant vector.
            let _ = self.irq.raise(TIMER_WRAP_VECTOR);
        }
        if let Some(rtc) = &mut self.rtc {
            rtc.advance(cycles);
        }
    }

    // ---- bus ---------------------------------------------------------------

    /// MPU-checked read at `addr` by code executing at `pc`.
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`] (logged) or [`McuError::BusFault`].
    pub fn bus_read(&mut self, addr: u32, buf: &mut [u8], pc: u32) -> Result<(), McuError> {
        if let Err(e) = self
            .mpu
            .check_span(pc, addr, buf.len() as u32, AccessKind::Read)
        {
            self.fault_log.push(e.clone());
            return Err(e);
        }
        if map::MMIO.contains(addr) {
            return self.mmio_read(addr, buf);
        }
        self.memory.read(addr, buf)
    }

    /// MPU-checked write at `addr` by code executing at `pc`.
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`] (logged), [`McuError::BusFault`], or
    /// [`McuError::RomWrite`].
    pub fn bus_write(&mut self, addr: u32, data: &[u8], pc: u32) -> Result<(), McuError> {
        if let Err(e) = self
            .mpu
            .check_span(pc, addr, data.len() as u32, AccessKind::Write)
        {
            self.fault_log.push(e.clone());
            return Err(e);
        }
        if map::MMIO.contains(addr) {
            return self.mmio_write(addr, data);
        }
        self.memory.write(addr, data)
    }

    /// MPU-checked instruction fetch (used by the ISA interpreter).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mcu::bus_read`].
    pub fn bus_fetch(&mut self, addr: u32, buf: &mut [u8], pc: u32) -> Result<(), McuError> {
        if let Err(e) = self
            .mpu
            .check_span(pc, addr, buf.len() as u32, AccessKind::Execute)
        {
            self.fault_log.push(e.clone());
            return Err(e);
        }
        self.memory.read(addr, buf)
    }

    fn mmio_read(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), McuError> {
        if map::MMIO_TIMER.contains(addr) {
            let off = addr - map::MMIO_TIMER.start;
            let value: u64 = match off {
                timer_regs::VALUE => self.timer.value(),
                timer_regs::CONTROL => {
                    (self.timer.is_enabled() as u64)
                        | ((self.irq.is_globally_enabled() as u64) << 1)
                        | ((self.irq.is_vector_enabled(TIMER_WRAP_VECTOR) as u64) << 2)
                }
                _ => 0,
            };
            let bytes = value.to_le_bytes();
            for (i, b) in buf.iter_mut().enumerate() {
                *b = bytes.get(i).copied().unwrap_or(0);
            }
            return Ok(());
        }
        if map::MMIO_RTC.contains(addr) {
            let value = self.rtc.as_ref().map_or(0, HwRtc::read);
            let bytes = value.to_le_bytes();
            let off = (addr - map::MMIO_RTC.start) as usize;
            for (i, b) in buf.iter_mut().enumerate() {
                *b = bytes.get(off + i).copied().unwrap_or(0);
            }
            return Ok(());
        }
        if map::MMIO_MPU_CONFIG.contains(addr) {
            // Reading the config space exposes lock state and rule count.
            let value = (self.mpu.is_locked() as u64) | ((self.mpu.rules().len() as u64) << 1);
            let bytes = value.to_le_bytes();
            for (i, b) in buf.iter_mut().enumerate() {
                *b = bytes.get(i).copied().unwrap_or(0);
            }
            return Ok(());
        }
        Err(McuError::BusFault { addr })
    }

    fn mmio_write(&mut self, addr: u32, data: &[u8]) -> Result<(), McuError> {
        if map::MMIO_TIMER.contains(addr) {
            let off = addr - map::MMIO_TIMER.start;
            match off {
                timer_regs::VALUE => {
                    // The counter is hardware-driven and never writable.
                    return Err(McuError::MpuViolation {
                        pc: 0,
                        addr,
                        kind: AccessKind::Write,
                    });
                }
                timer_regs::CONTROL => {
                    let v = data.first().copied().unwrap_or(0);
                    self.timer.set_enabled(v & 0b001 != 0);
                    self.irq.set_global_enable(v & 0b010 != 0);
                    self.irq
                        .set_vector_enabled(TIMER_WRAP_VECTOR, v & 0b100 != 0)?;
                    return Ok(());
                }
                _ => return Ok(()),
            }
        }
        if map::MMIO_RTC.contains(addr) {
            // A writable RTC register: the clock-reset attack surface.
            // Protected configurations install an MPU rule so this line is
            // never reached from untrusted code.
            if let Some(rtc) = &mut self.rtc {
                let mut bytes = rtc.read().to_le_bytes();
                let off = (addr - map::MMIO_RTC.start) as usize;
                for (i, b) in data.iter().enumerate() {
                    if off + i < 8 {
                        bytes[off + i] = *b;
                    }
                }
                rtc.set_raw(u64::from_le_bytes(bytes));
            }
            return Ok(());
        }
        if map::MMIO_MPU_CONFIG.contains(addr) {
            // Runtime MPU reconfiguration through MMIO is modelled by the
            // richer `reconfigure_mpu` API; raw writes land here only to be
            // rejected once locked.
            if self.mpu.is_locked() {
                return Err(McuError::MpuLocked);
            }
            return Ok(());
        }
        Err(McuError::BusFault { addr })
    }

    // ---- MPU ---------------------------------------------------------------

    /// The EA-MPU (read-only view).
    #[must_use]
    pub fn mpu(&self) -> &EaMpu {
        &self.mpu
    }

    /// Attempts to reconfigure the EA-MPU as code executing at `pc`.
    ///
    /// Models a write to the memory-mapped configuration registers: the
    /// access must pass the MPU itself (the lockdown rule covers
    /// [`map::MMIO_MPU_CONFIG`]) and the MPU must not be locked.
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`], [`McuError::MpuLocked`], or whatever
    /// `f` returns.
    pub fn reconfigure_mpu<F>(&mut self, pc: u32, f: F) -> Result<(), McuError>
    where
        F: FnOnce(&mut EaMpu) -> Result<(), McuError>,
    {
        if let Err(e) = self
            .mpu
            .check(pc, map::MMIO_MPU_CONFIG.start, AccessKind::Write)
        {
            self.fault_log.push(e.clone());
            return Err(e);
        }
        if self.mpu.is_locked() {
            self.fault_log.push(McuError::MpuLocked);
            return Err(McuError::MpuLocked);
        }
        f(&mut self.mpu)
    }

    /// Boot-time rule installation (bypasses the config-space check —
    /// used only by [`crate::boot`] before lockdown).
    pub(crate) fn mpu_mut(&mut self) -> &mut EaMpu {
        &mut self.mpu
    }

    // ---- interrupts ----------------------------------------------------------

    /// The interrupt controller (read-only view).
    #[must_use]
    pub fn irq(&self) -> &IrqController {
        &self.irq
    }

    /// Pops the next pending interrupt, returning `(vector, handler)` with
    /// the handler address hardware-read from the IDT. Returns `None` when
    /// nothing is deliverable.
    pub fn take_interrupt(&mut self) -> Option<(u8, u32)> {
        let vector = self.irq.next_pending()?;
        // Acknowledge: hardware auto-clears on dispatch in this design.
        let _ = self.irq.acknowledge(vector);
        let handler = irq::handler_address(&self.memory, vector).ok()?;
        Some((vector, handler))
    }

    /// Boot-time IDT population (plain memory write; at runtime the IDT
    /// write-protection rule applies to bus writes instead).
    ///
    /// # Errors
    ///
    /// [`McuError::BadIrqVector`] for vectors ≥ 32.
    pub fn install_idt_entry(&mut self, vector: u8, handler: u32) -> Result<(), McuError> {
        irq::install_handler(&mut self.memory, vector, handler)
    }

    // ---- provisioning (factory / Adv_roam physical-equivalents) -------------

    /// Burns `K_Attest` into ROM (factory step).
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if the key does not fit the ROM cell.
    pub fn provision_attest_key(&mut self, key: &[u8; 16]) -> Result<(), McuError> {
        self.memory.burn_rom(map::ATTEST_KEY.start, key)
    }

    /// Reads `K_Attest` as code executing at `pc` (MPU-checked).
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`] when `pc` is not inside a code range a
    /// rule grants read access to.
    pub fn read_attest_key(&mut self, pc: u32) -> Result<[u8; 16], McuError> {
        let mut key = [0u8; 16];
        self.bus_read(map::ATTEST_KEY.start, &mut key, pc)?;
        Ok(key)
    }

    /// Programs the application image into flash (provisioning, firmware
    /// update, or `Adv_roam` malware installation).
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if the image exceeds flash.
    pub fn program_flash(&mut self, image: &[u8]) -> Result<(), McuError> {
        self.memory.program_flash(map::FLASH.start, image)
    }

    /// Direct access to physical memory (hardware's view; used by secure
    /// boot for hashing and by test oracles).
    #[must_use]
    pub fn physical_memory(&self) -> &PhysicalMemory {
        &self.memory
    }

    /// MPU-checked view of the whole RAM, in place (what `Code_Attest`
    /// MACs). One span check covers every byte, and a denial is logged
    /// once. The borrow holds `&mut self`, so no bus write can land while
    /// the view is read: the measurement is atomic without a copy.
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`] if `pc` may not read some protected RAM
    /// word.
    pub fn ram_view(&mut self, pc: u32) -> Result<&[u8], McuError> {
        self.mpu
            .check_span(pc, map::RAM.start, map::RAM.len(), AccessKind::Read)
            .inspect_err(|e| self.fault_log.push(e.clone()))?;
        Ok(self.memory.ram())
    }

    // ---- dirty-region tracking ---------------------------------------------

    /// Dirty-tracking granularity in bytes (see
    /// [`crate::memory::DEFAULT_SEGMENT_LEN`]).
    #[must_use]
    pub fn segment_len(&self) -> u32 {
        self.memory.segment_len()
    }

    /// Number of tracked RAM segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.memory.segment_count()
    }

    /// Where each tracked RAM segment begins and ends.
    #[must_use]
    pub fn segment_layout(&self) -> SegmentLayout {
        self.memory.layout()
    }

    /// Reconfigures the dirty-tracking granularity — a boot-time hardware
    /// strap, like the timer width. Non-volatile: it survives
    /// [`Mcu::reset`]. All bits come back set.
    ///
    /// # Errors
    ///
    /// [`McuError::BadSegmentLen`] for lengths that are not a power of two
    /// between 64 bytes and the RAM size.
    pub fn set_segment_len(&mut self, len: u32) -> Result<(), McuError> {
        self.memory.set_segment_len(len)
    }

    /// The hardware dirty bit of segment `index`. Readable by anyone —
    /// the bit only becomes load-bearing through the clear path below.
    #[must_use]
    pub fn segment_dirty(&self, index: usize) -> bool {
        self.memory.segment_dirty(index)
    }

    /// Clears the dirty bit of segment `index` as code executing at `pc`.
    ///
    /// The acknowledge register is hardwired to `Code_Attest` (§6.2 in
    /// spirit: the same execution-aware gating that protects `counter_R`).
    /// This is what makes a cached segment digest sound: untrusted code
    /// can *set* bits all day by writing memory, but it can never clear
    /// one to freeze a stale digest into the next report.
    ///
    /// # Errors
    ///
    /// - [`McuError::MpuViolation`] (logged) when `pc` is outside
    ///   [`map::ATTEST_CODE`].
    /// - [`McuError::BusFault`] for an out-of-range segment index.
    pub fn acknowledge_segment(&mut self, index: usize, pc: u32) -> Result<(), McuError> {
        let addr = map::RAM
            .start
            .saturating_add(self.memory.layout().span(index).start as u32);
        if !map::ATTEST_CODE.contains(pc) {
            let e = McuError::MpuViolation {
                pc,
                addr,
                kind: AccessKind::Write,
            };
            self.fault_log.push(e.clone());
            return Err(e);
        }
        if index >= self.memory.segment_count() {
            return Err(McuError::BusFault { addr });
        }
        self.memory.clear_dirty(index);
        Ok(())
    }

    /// The epoch register: which attestation round writes are currently
    /// being attributed to. Readable by anyone, like the dirty bits.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.memory.epoch()
    }

    /// The last-write epoch of segment `index` (out-of-range reads as the
    /// current epoch — the conservative answer).
    #[must_use]
    pub fn segment_epoch(&self, index: usize) -> u64 {
        self.memory.segment_epoch(index)
    }

    /// Advances the epoch register by one as code executing at `pc`,
    /// returning the new value. The advance register is hardwired to
    /// `Code_Attest` exactly like the dirty-bit acknowledge: untrusted
    /// code moving the register forward could launder a fresh write as
    /// an old one ("written at epoch N" read against a register it
    /// already pushed past N), so only the attest routine — which only
    /// advances *after* digesting the round — may touch it.
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`] (logged) when `pc` is outside
    /// [`map::ATTEST_CODE`].
    pub fn advance_epoch(&mut self, pc: u32) -> Result<u64, McuError> {
        if !map::ATTEST_CODE.contains(pc) {
            let e = McuError::MpuViolation {
                pc,
                addr: map::RAM.start,
                kind: AccessKind::Write,
            };
            self.fault_log.push(e.clone());
            return Err(e);
        }
        Ok(self.memory.advance_epoch())
    }

    /// Restores the epoch register from the sealed NV record during boot,
    /// as code executing at `pc`. Monotonic (the register never moves
    /// backwards) and stamps every segment with the restored epoch: the
    /// power cycle rewrote all of RAM, so claiming any segment unmodified
    /// across it would be exactly the stale-trusted answer the log
    /// exists to prevent. Gated to `Code_Attest` ∪ `Code_Boot` — the
    /// paths that hold the sealed record's key material.
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`] (logged) when `pc` is outside both
    /// regions.
    pub fn restore_epoch(&mut self, epoch: u64, pc: u32) -> Result<(), McuError> {
        if !map::ATTEST_CODE.contains(pc) && !map::BOOT_CODE.contains(pc) {
            let e = McuError::MpuViolation {
                pc,
                addr: map::RAM.start,
                kind: AccessKind::Write,
            };
            self.fault_log.push(e.clone());
            return Err(e);
        }
        self.memory.restore_epoch(epoch);
        Ok(())
    }

    /// Kicks the flash controller's DMA engine: copies `len` flash bytes
    /// starting at flash offset `flash_off` into RAM at `ram_addr`. The
    /// transfer runs on a dedicated port behind the dirty-tracking memory
    /// controller, so **no dirty bits are set** — callers performing a
    /// firmware update must follow up with [`Mcu::mark_dirty_region`] or
    /// the attestation cache will keep trusting digests of the old bytes.
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if either span leaves its region.
    pub fn dma_copy_flash_to_ram(
        &mut self,
        flash_off: u32,
        ram_addr: u32,
        len: u32,
    ) -> Result<(), McuError> {
        self.memory.dma_copy_flash_to_ram(flash_off, ram_addr, len)
    }

    /// Sets the dirty bit of every segment overlapping the RAM span —
    /// the software "mark dirty" register. Setting bits is open to all
    /// code (only clearing is PC-gated to `Code_Attest`), because a set
    /// bit can only make the next attestation *more* honest.
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if the span leaves RAM.
    pub fn mark_dirty_region(&mut self, ram_addr: u32, len: u32) -> Result<(), McuError> {
        self.memory.mark_dirty_region(ram_addr, len)
    }

    // ---- RTC ------------------------------------------------------------------

    /// Reads the dedicated RTC (if installed) as `pc`, through the bus.
    ///
    /// # Errors
    ///
    /// [`McuError::MpuViolation`] if an MPU rule denies the MMIO read.
    pub fn read_rtc(&mut self, pc: u32) -> Result<u64, McuError> {
        let mut buf = [0u8; 8];
        self.bus_read(map::MMIO_RTC.start, &mut buf, pc)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// The RTC hardware state (test oracle).
    #[must_use]
    pub fn rtc(&self) -> Option<&HwRtc> {
        self.rtc.as_ref()
    }

    // ---- code entry points ------------------------------------------------

    /// Declares `region` a protected code region whose only legal entry
    /// from outside is `entry` (boot-time setup; §6.2's mitigation for
    /// runtime attacks on `Code_Attest`).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not inside `region`.
    pub fn install_entry_point(&mut self, region: map::AddrRange, entry: u32) {
        assert!(
            region.contains(entry),
            "entry point must lie inside the region"
        );
        self.entry_points.push((region, entry));
    }

    /// Checks a control transfer from `from_pc` to `to_pc`: entering a
    /// protected region from outside it must land exactly on its entry
    /// point. Transfers within a region, out of it, or between unprotected
    /// addresses are unrestricted.
    ///
    /// # Errors
    ///
    /// [`McuError::EntryPointViolation`] (logged) on an illegal entry.
    pub fn check_control_transfer(&mut self, from_pc: u32, to_pc: u32) -> Result<(), McuError> {
        for (region, entry) in &self.entry_points {
            if region.contains(to_pc) && !region.contains(from_pc) && to_pc != *entry {
                let e = McuError::EntryPointViolation {
                    from: from_pc,
                    to: to_pc,
                };
                self.fault_log.push(e.clone());
                return Err(e);
            }
        }
        Ok(())
    }

    // ---- fault log -------------------------------------------------------------

    /// Denied accesses observed so far (evidence for attack reports).
    #[must_use]
    pub fn fault_log(&self) -> &[McuError] {
        &self.fault_log
    }

    /// Clears the fault log.
    pub fn clear_fault_log(&mut self) {
        self.fault_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpu::{Permissions, Rule};

    #[test]
    fn unprotected_device_is_open() {
        let mut mcu = Mcu::new();
        mcu.provision_attest_key(&[7; 16]).unwrap();
        assert_eq!(mcu.read_attest_key(map::APP_CODE).unwrap(), [7; 16]);
        mcu.bus_write(map::COUNTER_R.start, &9u64.to_le_bytes(), map::APP_CODE)
            .unwrap();
    }

    fn protect_key(mcu: &mut Mcu) {
        mcu.reconfigure_mpu(map::BOOT_PC, |mpu| {
            mpu.add_rule(Rule::new(
                "K_Attest",
                map::ATTEST_KEY,
                map::ATTEST_CODE,
                Permissions::READ_ONLY,
            ))
        })
        .unwrap();
    }

    #[test]
    fn key_rule_blocks_app_reads() {
        let mut mcu = Mcu::new();
        mcu.provision_attest_key(&[7; 16]).unwrap();
        protect_key(&mut mcu);
        assert!(mcu.read_attest_key(map::APP_CODE).is_err());
        assert_eq!(mcu.read_attest_key(map::ATTEST_PC).unwrap(), [7; 16]);
        assert_eq!(mcu.fault_log().len(), 1);
    }

    #[test]
    fn lockdown_blocks_reconfiguration_via_api() {
        let mut mcu = Mcu::new();
        protect_key(&mut mcu);
        mcu.mpu_mut().lock();
        let result =
            mcu.reconfigure_mpu(map::APP_CODE, |mpu| mpu.remove_rule("K_Attest").map(|_| ()));
        assert!(matches!(result, Err(McuError::MpuLocked)));
    }

    #[test]
    fn config_space_rule_blocks_even_before_lock() {
        let mut mcu = Mcu::new();
        // Lockdown rule: nobody may write the config space.
        mcu.reconfigure_mpu(map::BOOT_PC, |mpu| {
            mpu.add_rule(Rule::new(
                "MPU-lockdown",
                map::MMIO_MPU_CONFIG,
                map::AddrRange::new(0, 0), // empty code range: no one
                Permissions::READ_WRITE,
            ))
        })
        .unwrap();
        let denied = mcu.reconfigure_mpu(map::APP_CODE, |mpu| {
            mpu.remove_rule("MPU-lockdown").map(|_| ())
        });
        assert!(matches!(denied, Err(McuError::MpuViolation { .. })));
    }

    #[test]
    fn timer_wrap_raises_interrupt() {
        let mut mcu = Mcu::new();
        mcu.install_idt_entry(TIMER_WRAP_VECTOR, map::CLOCK_CODE.start)
            .unwrap();
        // Default timer wraps every 2^(16+4) cycles.
        mcu.advance_idle(1 << 20);
        let (vector, handler) = mcu.take_interrupt().expect("wrap interrupt");
        assert_eq!(vector, TIMER_WRAP_VECTOR);
        assert_eq!(handler, map::CLOCK_CODE.start);
        assert!(mcu.take_interrupt().is_none());
    }

    #[test]
    fn timer_control_mmio_roundtrip() {
        let mut mcu = Mcu::new();
        let ctrl = map::MMIO_TIMER.start + timer_regs::CONTROL;
        // Disable everything.
        mcu.bus_write(ctrl, &[0], map::APP_CODE).unwrap();
        mcu.advance_idle(1 << 22);
        assert!(mcu.take_interrupt().is_none());
        let mut buf = [0u8; 1];
        mcu.bus_read(ctrl, &mut buf, map::APP_CODE).unwrap();
        assert_eq!(buf[0] & 0b111, 0);
        // Re-enable.
        mcu.bus_write(ctrl, &[0b111], map::APP_CODE).unwrap();
        mcu.advance_idle(1 << 21);
        assert!(mcu.take_interrupt().is_some());
    }

    #[test]
    fn timer_value_register_is_hardware_read_only() {
        let mut mcu = Mcu::new();
        let value_reg = map::MMIO_TIMER.start + timer_regs::VALUE;
        assert!(mcu.bus_write(value_reg, &[1], map::APP_CODE).is_err());
    }

    #[test]
    fn rtc_mmio_read_and_rogue_write() {
        let mut mcu = Mcu::new();
        mcu.install_rtc(HwRtc::wide64());
        mcu.advance_idle(1000);
        assert_eq!(mcu.read_rtc(map::APP_CODE).unwrap(), 1000);
        // Unprotected: the clock-reset attack works.
        mcu.bus_write(map::MMIO_RTC.start, &5u64.to_le_bytes(), map::APP_CODE)
            .unwrap();
        assert_eq!(mcu.read_rtc(map::APP_CODE).unwrap(), 5);
    }

    #[test]
    fn rtc_rule_blocks_rogue_write() {
        let mut mcu = Mcu::new();
        mcu.install_rtc(HwRtc::wide64());
        mcu.reconfigure_mpu(map::BOOT_PC, |mpu| {
            mpu.add_rule(Rule::new(
                "RTC",
                map::MMIO_RTC,
                map::ALL_CODE,
                Permissions::READ_ONLY,
            ))
        })
        .unwrap();
        mcu.advance_idle(1000);
        assert_eq!(mcu.read_rtc(map::APP_CODE).unwrap(), 1000);
        assert!(mcu
            .bus_write(map::MMIO_RTC.start, &5u64.to_le_bytes(), map::APP_CODE)
            .is_err());
        assert_eq!(mcu.read_rtc(map::APP_CODE).unwrap(), 1000);
    }

    #[test]
    fn active_cycles_drain_battery_idle_does_not() {
        let mut mcu = Mcu::new();
        let full = mcu.battery().remaining_joules();
        mcu.advance_idle(1_000_000);
        assert_eq!(mcu.battery().remaining_joules(), full);
        mcu.advance_active(1_000_000);
        assert!(mcu.battery().remaining_joules() < full);
    }

    #[test]
    fn ram_view_is_mpu_checked() {
        let mut mcu = Mcu::new();
        // Seal a RAM word against everyone except Code_Clock.
        mcu.reconfigure_mpu(map::BOOT_PC, |mpu| {
            mpu.add_rule(Rule::new(
                "Clock_MSB",
                map::CLOCK_MSB,
                map::CLOCK_CODE,
                Permissions::READ_WRITE,
            ))
        })
        .unwrap();
        let faults = mcu.fault_log().len();
        assert!(mcu.ram_view(map::APP_CODE).is_err());
        assert_eq!(mcu.fault_log().len(), faults + 1, "one denial, one entry");
        assert!(mcu.ram_view(map::CLOCK_PC).is_ok());
    }

    #[test]
    fn entry_point_enforcement() {
        let mut mcu = Mcu::new();
        mcu.install_entry_point(map::ATTEST_CODE, map::ATTEST_CODE.start);
        // Entering at the entry point is fine.
        assert!(mcu
            .check_control_transfer(map::APP_CODE, map::ATTEST_CODE.start)
            .is_ok());
        // Entering anywhere else is a violation.
        let denied = mcu.check_control_transfer(map::APP_CODE, map::ATTEST_CODE.start + 0x40);
        assert!(matches!(denied, Err(McuError::EntryPointViolation { .. })));
        assert_eq!(mcu.fault_log().len(), 1);
        // Transfers wholly inside the region are unrestricted.
        assert!(mcu
            .check_control_transfer(map::ATTEST_CODE.start, map::ATTEST_CODE.start + 0x40)
            .is_ok());
        // Leaving the region is unrestricted.
        assert!(mcu
            .check_control_transfer(map::ATTEST_CODE.start + 0x40, map::APP_CODE)
            .is_ok());
        // Unprotected targets are unrestricted.
        assert!(mcu
            .check_control_transfer(map::APP_CODE, map::APP_CODE + 4)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "entry point must lie inside")]
    fn entry_point_outside_region_rejected() {
        let mut mcu = Mcu::new();
        mcu.install_entry_point(map::ATTEST_CODE, map::APP_CODE);
    }

    #[test]
    fn reset_wipes_volatile_state_but_not_nonvolatile() {
        let mut mcu = Mcu::new();
        mcu.provision_attest_key(&[7; 16]).unwrap();
        mcu.program_flash(b"app").unwrap();
        mcu.install_rtc(HwRtc::wide64());
        mcu.install_entry_point(map::ATTEST_CODE, map::ATTEST_CODE.start);
        mcu.bus_write(map::COUNTER_R.start, &9u64.to_le_bytes(), map::APP_CODE)
            .unwrap();
        protect_key(&mut mcu);
        mcu.mpu_mut().lock();
        mcu.advance_active(1 << 21);
        let drained = mcu.battery().remaining_joules();
        let elapsed = mcu.clock().cycles();

        mcu.reset();

        // Volatile: RAM zeroed, MPU empty + unlocked, IRQs gone, clocks at 0.
        let mut buf = [0u8; 8];
        mcu.bus_read(map::COUNTER_R.start, &mut buf, map::APP_CODE)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0);
        assert!(!mcu.mpu().is_locked());
        assert!(mcu.mpu().rules().is_empty());
        assert!(mcu.take_interrupt().is_none());
        assert_eq!(mcu.timer.value(), 0);
        assert_eq!(mcu.rtc().unwrap().read(), 0);
        assert!(mcu
            .check_control_transfer(map::APP_CODE, map::ATTEST_CODE.start + 0x40)
            .is_ok());
        // Non-volatile: key, flash, battery level, cycle clock.
        assert_eq!(mcu.read_attest_key(map::APP_CODE).unwrap(), [7; 16]);
        assert_eq!(&mcu.physical_memory().flash()[..3], b"app");
        assert_eq!(mcu.battery().remaining_joules(), drained);
        assert_eq!(mcu.clock().cycles(), elapsed);
    }

    #[test]
    fn segment_acknowledge_is_pc_gated() {
        let mut mcu = Mcu::new();
        // Dirty from power-on; only Code_Attest may acknowledge.
        assert!(mcu.segment_dirty(5));
        let denied = mcu.acknowledge_segment(5, map::APP_CODE);
        assert!(matches!(denied, Err(McuError::MpuViolation { .. })));
        assert!(mcu.segment_dirty(5));
        assert_eq!(mcu.fault_log().len(), 1);
        mcu.acknowledge_segment(5, map::ATTEST_PC).unwrap();
        assert!(!mcu.segment_dirty(5));
        // A bus write from anywhere re-dirties it.
        let start = mcu.segment_layout().span(5).start as u32;
        mcu.bus_write(map::RAM.start + start + 1, &[0xcc], map::APP_CODE)
            .unwrap();
        assert!(mcu.segment_dirty(5));
    }

    #[test]
    fn acknowledge_out_of_range_faults() {
        let mut mcu = Mcu::new();
        assert!(matches!(
            mcu.acknowledge_segment(1_000, map::ATTEST_PC),
            Err(McuError::BusFault { .. })
        ));
    }

    #[test]
    fn reset_marks_all_segments_dirty_but_keeps_granularity() {
        let mut mcu = Mcu::new();
        mcu.set_segment_len(4096).unwrap();
        for i in 0..mcu.segment_count() {
            mcu.acknowledge_segment(i, map::ATTEST_PC).unwrap();
        }
        mcu.reset();
        // Granularity is a hardware strap and survives; the bits do not.
        assert_eq!(mcu.segment_len(), 4096);
        assert!((0..mcu.segment_count()).all(|i| mcu.segment_dirty(i)));
    }

    #[test]
    fn epoch_advance_is_pc_gated_like_acknowledge() {
        let mut mcu = Mcu::new();
        let start = mcu.epoch();
        let denied = mcu.advance_epoch(map::APP_CODE);
        assert!(matches!(denied, Err(McuError::MpuViolation { .. })));
        assert_eq!(mcu.epoch(), start);
        assert_eq!(mcu.fault_log().len(), 1);
        assert_eq!(mcu.advance_epoch(map::ATTEST_PC).unwrap(), start + 1);
        // A bus write from anywhere latches the advanced epoch.
        mcu.bus_write(map::APP_RAM.start, &[0xcc], map::APP_CODE)
            .unwrap();
        let seg = mcu
            .segment_layout()
            .index_of((map::APP_RAM.start - map::RAM.start) as usize);
        assert_eq!(mcu.segment_epoch(seg), start + 1);
    }

    #[test]
    fn epoch_register_is_volatile_and_restore_is_gated() {
        let mut mcu = Mcu::new();
        mcu.advance_epoch(map::ATTEST_PC).unwrap();
        mcu.advance_epoch(map::ATTEST_PC).unwrap();
        let before = mcu.epoch();
        mcu.reset();
        assert_eq!(mcu.epoch(), crate::memory::EPOCH_RESET);
        assert!(matches!(
            mcu.restore_epoch(before, map::APP_CODE),
            Err(McuError::MpuViolation { .. })
        ));
        mcu.restore_epoch(before, map::BOOT_PC).unwrap();
        assert_eq!(mcu.epoch(), before);
        // Conservative: the wipe counts as a write of everything.
        assert!((0..mcu.segment_count()).all(|i| mcu.segment_epoch(i) == before));
        // Monotonic: a rolled-back restore is a no-op.
        mcu.restore_epoch(1, map::ATTEST_PC).unwrap();
        assert_eq!(mcu.epoch(), before);
    }

    #[test]
    fn ram_view_sees_bus_writes() {
        let mut mcu = Mcu::new();
        mcu.bus_write(map::APP_RAM.start, b"hello", map::APP_CODE)
            .unwrap();
        let snap = mcu.ram_view(map::APP_CODE).unwrap();
        let off = (map::APP_RAM.start - map::RAM.start) as usize;
        assert_eq!(&snap[off..off + 5], b"hello");
    }
}

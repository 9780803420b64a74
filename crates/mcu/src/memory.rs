//! Physical memory backing the address map.
//!
//! [`PhysicalMemory`] stores ROM, flash and RAM contents and enforces the
//! *physical* property that ROM cannot be written after manufacturing
//! ([`PhysicalMemory::burn_rom`] is the factory step). Access-control
//! (who may read/write what) is the MPU's job, not this module's.
//!
//! RAM additionally carries a hardware **dirty map**: one bit per
//! fixed-size segment, set by the memory controller on *any* RAM write
//! (there is no way to store a byte without tripping it) and cleared only
//! through the device's PC-gated acknowledge path. The incremental
//! attestation cache rests entirely on this bit being write-synchronous.
//!
//! Alongside each dirty bit the controller keeps a **last-write epoch**:
//! a copy of the device's epoch register latched on every write covering
//! the segment. The register counts attestation rounds and advances only
//! through the PC-gated [`crate::device::Mcu::advance_epoch`], so the log
//! answers "was this segment written since round R?" with the same
//! write-synchronous guarantee the dirty map gives "was it written since
//! the last acknowledge?" — the RATA-style primitive behind
//! `AttestScope::History`.
//!
//! [`SegmentLayout`] is the one place that decides where segments begin
//! and end. Every layer — the dirty map here, the prover's segment cache,
//! the verifier's expected-image digests and the TOCTOU policy — asks it
//! instead of dividing by the segment length itself.

use std::ops::Range;

use crate::error::McuError;
use crate::map::{self, AddrRange};

/// Default dirty-tracking granularity: 8 KiB segments, i.e. 66 segments
/// over the 512 KiB RAM (the freshness words, the rest of the reserved
/// head, the rest of the first 8 KiB, then 63 full segments — see
/// [`SegmentLayout`]).
pub const DEFAULT_SEGMENT_LEN: u32 = 8 * 1024;

/// Length of the freshness words at the bottom of RAM: `counter_R` and
/// `Clock_MSB`, the only reserved RAM an attestation round rewrites. Its
/// end is always a segment boundary.
pub const FRESHNESS_LEN: usize = (map::CLOCK_MSB.end - map::RAM.start) as usize;

/// Length of the reserved head at the bottom of RAM: the freshness words,
/// the IDT and the trust anchor's extension state, all of which sit below
/// [`map::APP_RAM`]. Its end is always a segment boundary.
pub const HEAD_LEN: usize = (map::APP_RAM.start - map::RAM.start) as usize;

/// The reserved ends that are segment boundaries at every segment length,
/// ascending.
const RESERVED_ENDS: [usize; 2] = [FRESHNESS_LEN, HEAD_LEN];

/// How a memory region starting at `RAM.start` is cut into digest and
/// dirty-tracking segments: a boundary at every multiple of the segment
/// length, plus one at each reserved end ([`FRESHNESS_LEN`] and
/// [`HEAD_LEN`]).
///
/// The prover commits `counter_R` on every accepted request, so without
/// the extra boundaries every round re-digests the whole first segment.
/// With them, a quiescent round re-digests the 16 freshness bytes, and
/// the IDT and trust state keep a segment of their own below the
/// application RAM, so the TOCTOU policy can grade the image mirror from
/// its first byte. The layout is a pure function of the segment length
/// and the memory length: the response MACs bind the segment length and
/// the digest count, and each segment digest binds its index and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLayout {
    mem_len: usize,
    seg_len: usize,
}

impl SegmentLayout {
    /// The layout of a `mem_len`-byte region at `seg_len` granularity (a
    /// zero `seg_len` is treated as 1).
    #[must_use]
    pub fn new(mem_len: usize, seg_len: usize) -> Self {
        SegmentLayout {
            mem_len,
            seg_len: seg_len.max(1),
        }
    }

    /// The layout of the device RAM at `seg_len` granularity.
    #[must_use]
    pub fn ram(seg_len: u32) -> Self {
        Self::new(map::RAM.len() as usize, seg_len as usize)
    }

    /// The nominal segment length.
    #[must_use]
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// The reserved ends that fall strictly inside a uniform segment, i.e.
    /// add a boundary of their own, ascending.
    fn splits(&self) -> impl Iterator<Item = usize> {
        let seg_len = self.seg_len;
        RESERVED_ENDS
            .into_iter()
            .filter(move |end| !end.is_multiple_of(seg_len))
    }

    /// Number of segments (a trailing partial segment counts).
    #[must_use]
    pub fn count(&self) -> usize {
        match self.mem_len {
            0 => 0,
            len => self.index_of(len - 1) + 1,
        }
    }

    /// The index of the segment holding byte offset `off`.
    #[must_use]
    pub fn index_of(&self, off: usize) -> usize {
        off / self.seg_len + self.splits().filter(|&end| off >= end).count()
    }

    /// Start offset of segment `index`, clamped to the region.
    fn boundary(&self, index: usize) -> usize {
        // Each split below `index` shifts the uniform boundaries by one.
        let mut shift = 0;
        for end in self.splits() {
            let at = self.index_of(end);
            if index == at {
                return end.min(self.mem_len);
            }
            if index < at {
                break;
            }
            shift += 1;
        }
        (index - shift)
            .saturating_mul(self.seg_len)
            .min(self.mem_len)
    }

    /// The byte range of segment `index` (empty past the last segment).
    #[must_use]
    pub fn span(&self, index: usize) -> Range<usize> {
        self.boundary(index)..self.boundary(index.saturating_add(1))
    }

    /// The indices of every segment overlapping `[off, off + len)`
    /// (empty for `len == 0`; clamped to the region).
    #[must_use]
    pub fn covering(&self, off: usize, len: usize) -> Range<usize> {
        if len == 0 || off >= self.mem_len {
            return 0..0;
        }
        let last = off.saturating_add(len - 1).min(self.mem_len - 1);
        self.index_of(off)..self.index_of(last) + 1
    }
}

/// Smallest supported dirty-tracking segment (one SHA-1 block).
pub const MIN_SEGMENT_LEN: u32 = 64;

/// Reset value of the epoch register: writes before the first attestation
/// round belong to epoch 1 ("modified since round 0").
pub const EPOCH_RESET: u64 = 1;

/// Flat storage for the ROM, flash and RAM regions.
#[derive(Clone)]
pub struct PhysicalMemory {
    rom: Vec<u8>,
    flash: Vec<u8>,
    ram: Vec<u8>,
    /// Dirty-tracking granularity in bytes (power of two).
    segment_len: u32,
    /// One dirty bit per RAM segment.
    dirty: Vec<bool>,
    /// Epoch register latched into [`Self::epochs`] on every write.
    epoch: u64,
    /// Last-write epoch per RAM segment.
    epochs: Vec<u64>,
}

impl std::fmt::Debug for PhysicalMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalMemory")
            .field("rom_bytes", &self.rom.len())
            .field("flash_bytes", &self.flash.len())
            .field("ram_bytes", &self.ram.len())
            .finish()
    }
}

impl Default for PhysicalMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysicalMemory {
    /// Creates zeroed memory matching the [`map`] layout.
    #[must_use]
    pub fn new() -> Self {
        let segments = SegmentLayout::ram(DEFAULT_SEGMENT_LEN).count();
        PhysicalMemory {
            rom: vec![0; map::ROM.len() as usize],
            flash: vec![0; map::FLASH.len() as usize],
            ram: vec![0; map::RAM.len() as usize],
            segment_len: DEFAULT_SEGMENT_LEN,
            // Everything starts dirty: no digest has ever covered it.
            dirty: vec![true; segments],
            epoch: EPOCH_RESET,
            // And everything was "just written": modified since round 0.
            epochs: vec![EPOCH_RESET; segments],
        }
    }

    /// Resolves an address to its region and offset.
    fn region_of(&self, addr: u32) -> Option<(AddrRange, Region)> {
        if map::ROM.contains(addr) {
            Some((map::ROM, Region::Rom))
        } else if map::FLASH.contains(addr) {
            Some((map::FLASH, Region::Flash))
        } else if map::RAM.contains(addr) {
            Some((map::RAM, Region::Ram))
        } else {
            None
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if the span leaves mapped memory (MMIO is
    /// handled by the device, not here).
    pub fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), McuError> {
        let (range, region) = self
            .region_of(addr)
            .filter(|(range, _)| range.contains_span(addr, buf.len() as u32))
            .ok_or(McuError::BusFault { addr })?;
        let off = (addr - range.start) as usize;
        let src = match region {
            Region::Rom => &self.rom,
            Region::Flash => &self.flash,
            Region::Ram => &self.ram,
        };
        buf.copy_from_slice(&src[off..off + buf.len()]);
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// - [`McuError::BusFault`] if the span leaves mapped memory.
    /// - [`McuError::RomWrite`] if the span touches ROM — ROM is
    ///   physically immutable at runtime.
    pub fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), McuError> {
        let (range, region) = self
            .region_of(addr)
            .filter(|(range, _)| range.contains_span(addr, data.len() as u32))
            .ok_or(McuError::BusFault { addr })?;
        let off = (addr - range.start) as usize;
        let dst = match region {
            Region::Rom => return Err(McuError::RomWrite { addr }),
            Region::Flash => &mut self.flash,
            Region::Ram => &mut self.ram,
        };
        dst[off..off + data.len()].copy_from_slice(data);
        if matches!(region, Region::Ram) {
            self.mark_dirty_span(off, data.len());
        }
        Ok(())
    }

    /// Sets the dirty bit of every segment overlapping `[off, off+len)`
    /// (RAM offsets) and latches the epoch register into their last-write
    /// epochs. The controller does this synchronously with the store —
    /// there is no window where data has changed but the bit is still
    /// clear or the epoch still old.
    fn mark_dirty_span(&mut self, off: usize, len: usize) {
        let segments = self.layout().covering(off, len);
        for bit in &mut self.dirty[segments.clone()] {
            *bit = true;
        }
        for e in &mut self.epochs[segments] {
            *e = self.epoch;
        }
    }

    /// Factory step: writes ROM contents before the device ships.
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if the span leaves ROM.
    pub fn burn_rom(&mut self, addr: u32, data: &[u8]) -> Result<(), McuError> {
        if !map::ROM.contains_span(addr, data.len() as u32) {
            return Err(McuError::BusFault { addr });
        }
        let off = (addr - map::ROM.start) as usize;
        self.rom[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Programs the flash image (used by provisioning and by `Adv_roam`'s
    /// malware installation in the simulation — flash *is* writable).
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if the span leaves flash.
    pub fn program_flash(&mut self, addr: u32, data: &[u8]) -> Result<(), McuError> {
        self.write(addr, data).and_then(|()| {
            if map::FLASH.contains(addr) {
                Ok(())
            } else {
                Err(McuError::BusFault { addr })
            }
        })
    }

    /// DMA-copies `len` bytes of flash (from flash offset `flash_off`)
    /// into RAM at address `ram_addr`, **bypassing the dirty tracker**.
    ///
    /// Models the flash controller's DMA engine on execute-from-RAM
    /// parts: it moves data over a dedicated port *behind* the memory
    /// controller, so the per-segment dirty bits never see the transfer.
    /// That is faithful hardware behaviour — and exactly why software
    /// performing a firmware update must explicitly mark the mirrored
    /// region dirty afterwards, or the incremental attestation cache will
    /// keep serving digests of the *old* image as trusted.
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
        if !map::FLASH.contains_span(map::FLASH.start + flash_off, len) {
            return Err(McuError::BusFault {
                addr: map::FLASH.start + flash_off,
            });
        }
        if !map::RAM.contains_span(ram_addr, len) {
            return Err(McuError::BusFault { addr: ram_addr });
        }
        let src = flash_off as usize;
        let dst = (ram_addr - map::RAM.start) as usize;
        let n = len as usize;
        self.ram[dst..dst + n].copy_from_slice(&self.flash[src..src + n]);
        // Deliberately NO mark_dirty_span here: the DMA port is not
        // routed through the dirty-tracking memory controller.
        Ok(())
    }

    /// Sets the dirty bit of every segment overlapping the RAM span
    /// `[ram_addr, ram_addr + len)` — the software-visible "mark dirty"
    /// register. Anyone may *set* bits (only clearing is PC-gated), so
    /// update code uses this to tell the attestation cache that a DMA
    /// transfer changed memory behind the tracker's back.
    ///
    /// # Errors
    ///
    /// [`McuError::BusFault`] if the span leaves RAM.
    pub fn mark_dirty_region(&mut self, ram_addr: u32, len: u32) -> Result<(), McuError> {
        if !map::RAM.contains_span(ram_addr, len) {
            return Err(McuError::BusFault { addr: ram_addr });
        }
        self.mark_dirty_span((ram_addr - map::RAM.start) as usize, len as usize);
        Ok(())
    }

    /// Zeroes all of RAM — what a power cycle does to volatile memory.
    /// ROM and flash are non-volatile and survive. Every dirty bit comes
    /// back **set**: the wipe changed the contents, and the dirty map
    /// must never claim continuity across a power cycle (that would hand
    /// `Adv_roam` a stale-but-trusted digest).
    pub fn wipe_ram(&mut self) {
        self.ram.fill(0);
        self.mark_all_dirty();
    }

    // ---- dirty-region tracking --------------------------------------------

    /// Dirty-tracking granularity in bytes.
    #[must_use]
    pub fn segment_len(&self) -> u32 {
        self.segment_len
    }

    /// Number of tracked RAM segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.dirty.len()
    }

    /// The segment layout of RAM at the configured granularity.
    #[must_use]
    pub fn layout(&self) -> SegmentLayout {
        SegmentLayout::ram(self.segment_len)
    }

    /// Reconfigures the dirty-tracking granularity (a boot-time hardware
    /// strap). All bits come back set — no digest covers the new layout.
    ///
    /// # Errors
    ///
    /// [`McuError::BadSegmentLen`] unless `len` is a power of two between
    /// [`MIN_SEGMENT_LEN`] and the RAM size.
    pub fn set_segment_len(&mut self, len: u32) -> Result<(), McuError> {
        if !len.is_power_of_two() || len < MIN_SEGMENT_LEN || len > map::RAM.len() {
            return Err(McuError::BadSegmentLen { len });
        }
        self.segment_len = len;
        let segments = self.layout().count();
        self.dirty = vec![true; segments];
        // No per-segment history covers the new layout either.
        self.epochs = vec![self.epoch; segments];
        Ok(())
    }

    /// The dirty bit of segment `index` (out-of-range reads as dirty —
    /// the conservative answer).
    #[must_use]
    pub fn segment_dirty(&self, index: usize) -> bool {
        self.dirty.get(index).copied().unwrap_or(true)
    }

    /// Sets every dirty bit and stamps every segment with the current
    /// epoch (a whole-RAM event — wipe, relayout — *is* a write).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.fill(true);
        self.epochs.fill(self.epoch);
    }

    /// The epoch register: the round number writes are currently being
    /// attributed to.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last-write epoch of segment `index`. Out-of-range reads as the
    /// current epoch — "written just now", the conservative answer.
    #[must_use]
    pub fn segment_epoch(&self, index: usize) -> u64 {
        self.epochs.get(index).copied().unwrap_or(self.epoch)
    }

    /// Advances the epoch register by one (saturating). Crate-private on
    /// purpose: software reaches this only through
    /// [`crate::device::Mcu::advance_epoch`], which gates the advance on
    /// the caller executing inside `Code_Attest` — exactly like the
    /// dirty-bit acknowledge.
    pub(crate) fn advance_epoch(&mut self) -> u64 {
        self.epoch = self.epoch.saturating_add(1);
        self.epoch
    }

    /// Power-cycles the epoch register back to [`EPOCH_RESET`] — the
    /// register is volatile, like every other register. Only the sealed
    /// NV record (and [`Self::restore_epoch`]) carry round numbering
    /// across a reboot.
    pub(crate) fn reset_epoch(&mut self) {
        self.epoch = EPOCH_RESET;
    }

    /// Restores the epoch register after a reboot (the register is
    /// volatile; the sealed NV record is the source of truth). Stamps
    /// every segment with the restored value: the power cycle wiped and
    /// re-populated RAM, so every segment truly was "just written" —
    /// restoring the *per-segment* log verbatim would claim continuity
    /// across the wipe. Monotonic: the register never moves backwards.
    /// Crate-private; reached through the PC-gated
    /// [`crate::device::Mcu::restore_epoch`].
    pub(crate) fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
        self.mark_all_dirty();
    }

    /// Clears one dirty bit. Crate-private on purpose: software reaches
    /// this only through [`crate::device::Mcu::acknowledge_segment`],
    /// which gates the clear on the caller executing inside
    /// `Code_Attest`.
    pub(crate) fn clear_dirty(&mut self, index: usize) {
        if let Some(bit) = self.dirty.get_mut(index) {
            *bit = false;
        }
    }

    /// Borrows the whole RAM contents (for whole-memory MAC computation).
    #[must_use]
    pub fn ram(&self) -> &[u8] {
        &self.ram
    }

    /// Borrows the whole flash contents (for secure-boot hashing).
    #[must_use]
    pub fn flash(&self) -> &[u8] {
        &self.flash
    }
}

#[derive(Clone, Copy)]
enum Region {
    Rom,
    Flash,
    Ram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_read_write_roundtrip() {
        let mut mem = PhysicalMemory::new();
        mem.write(map::RAM.start + 100, &[9, 8, 7]).unwrap();
        let mut buf = [0u8; 3];
        mem.read(map::RAM.start + 100, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7]);
    }

    #[test]
    fn rom_write_rejected_but_burn_allowed() {
        let mut mem = PhysicalMemory::new();
        assert!(matches!(
            mem.write(map::ROM.start, &[1]),
            Err(McuError::RomWrite { .. })
        ));
        mem.burn_rom(map::ROM.start + 4, &[0xaa, 0xbb]).unwrap();
        let mut buf = [0u8; 2];
        mem.read(map::ROM.start + 4, &mut buf).unwrap();
        assert_eq!(buf, [0xaa, 0xbb]);
    }

    #[test]
    fn burn_rom_outside_rom_rejected() {
        let mut mem = PhysicalMemory::new();
        assert!(mem.burn_rom(map::RAM.start, &[1]).is_err());
        // Span straddling the ROM end is also rejected.
        assert!(mem.burn_rom(map::ROM.end - 1, &[1, 2]).is_err());
    }

    #[test]
    fn unmapped_access_faults() {
        let mut mem = PhysicalMemory::new();
        let mut buf = [0u8];
        assert!(matches!(
            mem.read(0x0009_0000, &mut buf),
            Err(McuError::BusFault { .. })
        ));
        assert!(mem.write(0xffff_0000, &[0]).is_err());
    }

    #[test]
    fn cross_region_span_faults() {
        let mem = PhysicalMemory::new();
        let mut buf = [0u8; 8];
        // Starts in ROM but runs past its end into unmapped space.
        assert!(mem.read(map::ROM.end - 4, &mut buf).is_err());
    }

    #[test]
    fn flash_programming() {
        let mut mem = PhysicalMemory::new();
        mem.program_flash(map::FLASH.start, b"app image").unwrap();
        assert_eq!(&mem.flash()[..9], b"app image");
    }

    #[test]
    fn ram_slice_is_full_size() {
        let mem = PhysicalMemory::new();
        assert_eq!(mem.ram().len(), 512 * 1024);
    }

    #[test]
    fn dma_copy_bypasses_dirty_tracking() {
        let mut mem = PhysicalMemory::new();
        mem.program_flash(map::FLASH.start, b"firmware v2").unwrap();
        // Clear every bit so the bypass is observable.
        for i in 0..mem.segment_count() {
            mem.clear_dirty(i);
        }
        mem.dma_copy_flash_to_ram(0, map::APP_RAM.start, 11)
            .unwrap();
        let mut buf = [0u8; 11];
        mem.read(map::APP_RAM.start, &mut buf).unwrap();
        assert_eq!(&buf, b"firmware v2");
        // The DMA port is behind the dirty tracker: no bit tripped.
        assert!((0..mem.segment_count()).all(|i| !mem.segment_dirty(i)));
        // The explicit mark register closes the gap.
        mem.mark_dirty_region(map::APP_RAM.start, 11).unwrap();
        let seg = mem.layout().index_of(HEAD_LEN);
        assert!(mem.segment_dirty(seg));
    }

    #[test]
    fn dma_copy_bounds_checked() {
        let mut mem = PhysicalMemory::new();
        assert!(mem
            .dma_copy_flash_to_ram(map::FLASH.len() - 4, map::RAM.start, 8)
            .is_err());
        assert!(mem.dma_copy_flash_to_ram(0, map::RAM.end - 4, 8).is_err());
        assert!(mem.mark_dirty_region(map::RAM.end - 4, 8).is_err());
    }

    fn clear_all(mem: &mut PhysicalMemory) {
        for i in 0..mem.segment_count() {
            mem.clear_dirty(i);
        }
    }

    #[test]
    fn writes_set_dirty_bits_at_default_granularity() {
        let mut mem = PhysicalMemory::new();
        assert_eq!(mem.segment_len(), DEFAULT_SEGMENT_LEN);
        // The freshness words, the rest of the reserved head, the rest of
        // the first 8 KiB, 63 full segments.
        assert_eq!(mem.segment_count(), mem.layout().index_of(8192) + 63);
        assert_eq!(mem.segment_count(), 66);
        clear_all(&mut mem);
        assert!(!mem.segment_dirty(0));
        // One byte in segment 3.
        let start = mem.layout().span(3).start as u32;
        mem.write(map::RAM.start + start + 17, &[1]).unwrap();
        assert!(mem.segment_dirty(3));
        assert!(!mem.segment_dirty(2) && !mem.segment_dirty(4));
    }

    #[test]
    fn straddling_write_dirties_both_segments() {
        let mut mem = PhysicalMemory::new();
        clear_all(&mut mem);
        // Four bytes across the segment 0 / segment 1 boundary.
        let boundary = mem.layout().span(1).start as u32;
        mem.write(map::RAM.start + boundary - 2, &[9; 4]).unwrap();
        assert!(mem.segment_dirty(0));
        assert!(mem.segment_dirty(1));
        assert!(!mem.segment_dirty(2));
    }

    #[test]
    fn flash_and_failed_writes_do_not_touch_dirty_map() {
        let mut mem = PhysicalMemory::new();
        clear_all(&mut mem);
        mem.program_flash(map::FLASH.start, b"image").unwrap();
        assert!(mem.write(0xffff_0000, &[0]).is_err());
        assert!((0..mem.segment_count()).all(|i| !mem.segment_dirty(i)));
    }

    #[test]
    fn wipe_marks_everything_dirty() {
        let mut mem = PhysicalMemory::new();
        clear_all(&mut mem);
        mem.wipe_ram();
        assert!((0..mem.segment_count()).all(|i| mem.segment_dirty(i)));
    }

    #[test]
    fn segment_len_reconfiguration_validates_and_resets() {
        let mut mem = PhysicalMemory::new();
        clear_all(&mut mem);
        mem.set_segment_len(4096).unwrap();
        // Both reserved ends split the first 4 KiB: 128 + 2 segments.
        assert_eq!(mem.segment_count(), 128 + 2);
        // The new layout has no digests over it yet: all dirty.
        assert!((0..mem.segment_count()).all(|i| mem.segment_dirty(i)));
        for bad in [0, 63, 100, 12_345, map::RAM.len() * 2] {
            assert!(matches!(
                mem.set_segment_len(bad),
                Err(McuError::BadSegmentLen { .. })
            ));
        }
        // Whole-RAM-as-one-segment is the degenerate but legal maximum:
        // the freshness words, the rest of the reserved head, and
        // everything else.
        mem.set_segment_len(map::RAM.len()).unwrap();
        assert_eq!(mem.segment_count(), 3);
        assert_eq!(mem.layout().span(2), HEAD_LEN..map::RAM.len() as usize);
    }

    #[test]
    fn out_of_range_segment_reads_dirty() {
        let mem = PhysicalMemory::new();
        assert!(mem.segment_dirty(usize::MAX));
    }

    #[test]
    fn zero_length_write_marks_nothing() {
        let mut mem = PhysicalMemory::new();
        clear_all(&mut mem);
        mem.write(map::RAM.start, &[]).unwrap();
        assert!(!mem.segment_dirty(0));
    }

    #[test]
    fn writes_latch_current_epoch() {
        let mut mem = PhysicalMemory::new();
        assert_eq!(mem.epoch(), EPOCH_RESET);
        assert!((0..mem.segment_count()).all(|i| mem.segment_epoch(i) == EPOCH_RESET));
        assert_eq!(mem.advance_epoch(), EPOCH_RESET + 1);
        let start = mem.layout().span(3).start as u32;
        mem.write(map::RAM.start + start, &[1]).unwrap();
        assert_eq!(mem.segment_epoch(3), EPOCH_RESET + 1);
        assert_eq!(mem.segment_epoch(2), EPOCH_RESET);
        // Acknowledging the dirty bit does not touch the epoch log.
        mem.clear_dirty(3);
        assert_eq!(mem.segment_epoch(3), EPOCH_RESET + 1);
    }

    #[test]
    fn dma_copy_bypasses_epoch_log_too() {
        let mut mem = PhysicalMemory::new();
        mem.program_flash(map::FLASH.start, b"firmware v2").unwrap();
        mem.advance_epoch();
        mem.dma_copy_flash_to_ram(0, map::APP_RAM.start, 11)
            .unwrap();
        let seg = mem.layout().index_of(HEAD_LEN);
        assert_eq!(
            mem.segment_epoch(seg),
            EPOCH_RESET,
            "DMA port skips the log"
        );
        // The explicit mark register stamps the epoch alongside the bit.
        mem.mark_dirty_region(map::APP_RAM.start, 11).unwrap();
        assert_eq!(mem.segment_epoch(seg), EPOCH_RESET + 1);
    }

    #[test]
    fn wipe_and_relayout_stamp_every_epoch() {
        let mut mem = PhysicalMemory::new();
        mem.advance_epoch();
        mem.advance_epoch();
        mem.wipe_ram();
        assert!((0..mem.segment_count()).all(|i| mem.segment_epoch(i) == mem.epoch()));
        mem.advance_epoch();
        mem.set_segment_len(4096).unwrap();
        assert!((0..mem.segment_count()).all(|i| mem.segment_epoch(i) == mem.epoch()));
    }

    #[test]
    fn epoch_restore_is_monotonic_and_conservative() {
        let mut mem = PhysicalMemory::new();
        mem.restore_epoch(17);
        assert_eq!(mem.epoch(), 17);
        assert!((0..mem.segment_count()).all(|i| mem.segment_epoch(i) == 17));
        // A rolled-back restore cannot drag the register backwards.
        mem.restore_epoch(3);
        assert_eq!(mem.epoch(), 17);
        mem.reset_epoch();
        assert_eq!(mem.epoch(), EPOCH_RESET);
    }

    #[test]
    fn reserved_ends_are_segment_boundaries() {
        let layout = SegmentLayout::ram(DEFAULT_SEGMENT_LEN);
        assert_eq!(layout.count(), 66);
        assert_eq!(layout.span(0), 0..FRESHNESS_LEN);
        assert_eq!(layout.span(1), FRESHNESS_LEN..HEAD_LEN);
        assert_eq!(layout.span(2), HEAD_LEN..8192);
        assert_eq!(layout.span(3), 8192..16_384);
        assert_eq!(layout.span(65), 63 * 8192..64 * 8192);
        assert!(layout.span(66).is_empty());
        assert_eq!(layout.index_of(FRESHNESS_LEN - 1), 0);
        assert_eq!(layout.index_of(FRESHNESS_LEN), 1);
        assert_eq!(layout.index_of(HEAD_LEN - 1), 1);
        assert_eq!(layout.index_of(HEAD_LEN), 2);
        assert_eq!(layout.index_of(8192), 3);
        assert_eq!(layout.covering(HEAD_LEN - 2, 4), 1..3);
        assert_eq!(layout.covering(FRESHNESS_LEN - 2, HEAD_LEN), 0..3);
        assert_eq!(layout.covering(0, 0), 0..0);
        // At 256 bytes and below the head end is a uniform boundary; only
        // the freshness end adds one.
        let fine = SegmentLayout::ram(256);
        assert_eq!(fine.count(), 2048 + 1);
        assert_eq!(fine.span(1), FRESHNESS_LEN..256);
        assert_eq!(fine.span(2), 256..512);
    }

    #[test]
    fn freshness_writes_dirty_only_their_segment() {
        let mut mem = PhysicalMemory::new();
        clear_all(&mut mem);
        mem.write(map::COUNTER_R.start, &[1; 8]).unwrap();
        mem.write(map::CLOCK_MSB.start, &[1; 8]).unwrap();
        assert!(mem.segment_dirty(0));
        assert!((1..mem.segment_count()).all(|i| !mem.segment_dirty(i)));
    }

    #[test]
    fn out_of_range_epoch_reads_current() {
        let mut mem = PhysicalMemory::new();
        mem.advance_epoch();
        assert_eq!(mem.segment_epoch(usize::MAX), mem.epoch());
    }
}

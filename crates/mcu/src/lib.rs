//! Simulated low-end MCU substrate for the ProverGuard suite.
//!
//! The paper's prototypes run on the Intel Siskiyou Peak softcore with a
//! TrustLite-style execution-aware MPU. We do not have that hardware, so
//! this crate provides a behavioural simulation that preserves exactly the
//! properties the paper's security argument rests on (see `DESIGN.md` §3):
//!
//! - [`map`] / [`memory`] — a fixed address map with ROM (16 KiB), flash
//!   (256 KiB), **512 KiB of RAM** (the size the paper's 754 ms
//!   whole-memory MAC example uses) and an MMIO window.
//! - [`mpu`] — the execution-aware MPU: access rules keyed on *which code
//!   region the program counter is in*, plus the boot-time lockdown that
//!   prevents compromised software from reconfiguring it.
//! - [`cycles`] — a 24 MHz cycle clock and a cost table calibrated from
//!   the paper's Table 1, so device-side operations can be priced in
//!   cycles/milliseconds exactly as the paper prices them.
//! - [`energy`] — a linear energy model for the battery-depletion DoS
//!   experiments.
//! - [`timer`] — the short `Clock_LSB` counter with a wrap-around
//!   interrupt (Figure 1b ①).
//! - [`rtc`] — the dedicated wide hardware clocks (Figure 1a; 64-bit, and
//!   32-bit behind a ÷2²⁰ prescaler).
//! - [`irq`] — an interrupt controller with an in-memory IDT that can be
//!   locked down by MPU rule (Figure 1b ②).
//! - [`boot`] — secure boot: hash-verify the flash image, install the MPU
//!   rules, lock the MPU.
//! - [`device`] — [`device::Mcu`], the composition, with PC-scoped
//!   execution contexts for trusted and untrusted code.
//! - [`isa`] — a tiny load/store ISA with an assembler and an interpreter
//!   whose every fetch/load/store goes through the EA-MPU, so attack
//!   programs can *literally execute* and get faulted.
//!
//! # Example
//!
//! ```
//! use proverguard_mcu::device::Mcu;
//! use proverguard_mcu::map;
//!
//! # fn main() -> Result<(), proverguard_mcu::McuError> {
//! let mut mcu = Mcu::new();
//! // Untrusted code can use RAM freely before any protections exist.
//! mcu.bus_write(map::RAM.start, &[1, 2, 3], map::APP_CODE)?;
//! let mut buf = [0u8; 3];
//! mcu.bus_read(map::RAM.start, &mut buf, map::APP_CODE)?;
//! assert_eq!(buf, [1, 2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod cycles;
pub mod device;
pub mod energy;
pub mod error;
pub mod irq;
pub mod isa;
pub mod map;
pub mod memory;
pub mod mpu;
pub mod rtc;
pub mod timer;

pub use cycles::{CycleClock, CLOCK_HZ};
pub use device::Mcu;
pub use error::McuError;
pub use memory::{SegmentLayout, DEFAULT_SEGMENT_LEN, MIN_SEGMENT_LEN};
pub use mpu::{AccessKind, EaMpu, Rule};

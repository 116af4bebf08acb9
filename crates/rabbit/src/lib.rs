//! A cycle-counting simulator for the Rabbit 2000, the Z80-derived 8-bit
//! microcontroller on the RMC2000 TCP/IP Development Kit, together with a
//! matching two-pass assembler and disassembler.
//!
//! This crate is the hardware substrate for reproducing *Porting a Network
//! Cryptographic Service to the RMC2000* (DATE 2003): the paper's
//! evaluation compares a compiled-C AES implementation against
//! hand-optimized Rabbit assembly by cycle count and code size, both of
//! which this simulator measures exactly.
//!
//! # Architecture modelled
//!
//! * 16-bit logical / 1 MiB physical address space with the Rabbit's
//!   bank-switching MMU (`SEGSIZE`/`DATASEG`/`STACKSEG` registers and the
//!   `XPC` window at `0xE000`) — see [`mem`].
//! * The Rabbit-flavoured Z80 instruction set, including the Rabbit
//!   replacements (`mul`, `bool hl`, `ld hl,(sp+n)`, `add sp,d`,
//!   `ipset`/`ipres`, and the `ioi`/`ioe` I/O prefixes that replace Z80
//!   `in`/`out`) — see [`cpu`].
//! * Prioritised interrupts delivered through [`io::IoSpace`].
//!
//! Cycle counts follow the Rabbit 2000 pattern (2-clock register
//! operations, memory-cycle adders); the reproduced experiments depend
//! only on cycle *ratios*, which the table preserves.
//!
//! # Example
//!
//! ```
//! use rabbit::{assemble, Cpu, Memory, NullIo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble(
//!     "        org 0x4000\n\
//!      start:  ld hl, 0\n\
//!              ld de, 7\n\
//!              ld b, 10\n\
//!      loop:   add hl, de\n\
//!              djnz loop\n\
//!              halt\n",
//! )?;
//! let mut mem = Memory::new();
//! image.load_into(&mut mem);
//!
//! let mut cpu = Cpu::new();
//! cpu.regs.pc = 0x4000;
//! cpu.run(&mut mem, &mut NullIo, 100_000)?;
//! assert_eq!(cpu.regs.hl(), 70);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod cpu;
pub mod disasm;
pub mod exec;
pub mod fwmap;
pub mod io;
pub mod isa;
pub mod mem;
pub mod nicmap;
pub mod registers;

pub use asm::{assemble, AsmError, Image, Section};
pub use cpu::{Cond, Cpu, Engine, Fault};
pub use disasm::{disassemble, listing, Decoded};
pub use exec::CacheStats;
pub use fwmap::Firmware;
pub use io::{Bus, Device, DeviceId, Interrupt, IoSpace, NullIo, PortRange};
pub use mem::{Memory, Mmu};
pub use registers::{Flags, Reg16, Reg8, Registers};

// The profiler the CPU hooks feed lives in `telemetry`; re-exported so
// ISS users get attribution without naming a second crate.
pub use telemetry::{CycleProfiler, ProfileReport, SymbolTable};

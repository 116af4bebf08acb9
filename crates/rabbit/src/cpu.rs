//! The Rabbit 2000 instruction interpreter.
//!
//! Executes the Rabbit-flavoured Z80 instruction set documented in
//! the module docs of this crate, counting clock cycles per instruction. Where the Rabbit
//! 2000 replaced Z80 opcodes (`mul`, `bool hl`, `ld hl,(sp+n)`,
//! `add sp,d`, the `ioi`/`ioe` prefixes, `ipset`/`ipres`) we follow the
//! Rabbit; cycle counts follow the Rabbit 2000 pattern of 2-clock register
//! operations plus memory-cycle adders. The evaluation in the reproduced
//! paper only depends on *ratios* of cycle counts, which this table
//! preserves.

use crate::io::{ports, IoSpace};
use crate::mem::{Memory, Mmu};
use crate::registers::{Flags, Reg16, Reg8, Registers};

/// A condition code for jumps, calls and returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Not zero.
    Nz,
    /// Zero.
    Z,
    /// No carry.
    Nc,
    /// Carry.
    C,
    /// Parity odd / logical zero (`lz` in Rabbit mnemonics).
    Po,
    /// Parity even / logical one (`lo`).
    Pe,
    /// Sign positive.
    P,
    /// Sign negative.
    M,
}

impl Cond {
    /// Decodes the 3-bit condition field of an opcode.
    pub fn from_code(code: u8) -> Cond {
        match code & 7 {
            0 => Cond::Nz,
            1 => Cond::Z,
            2 => Cond::Nc,
            3 => Cond::C,
            4 => Cond::Po,
            5 => Cond::Pe,
            6 => Cond::P,
            _ => Cond::M,
        }
    }

    pub(crate) fn holds(self, r: &Registers) -> bool {
        match self {
            Cond::Nz => !r.flag(Flags::Z),
            Cond::Z => r.flag(Flags::Z),
            Cond::Nc => !r.flag(Flags::C),
            Cond::C => r.flag(Flags::C),
            Cond::Po => !r.flag(Flags::PV),
            Cond::Pe => r.flag(Flags::PV),
            Cond::P => !r.flag(Flags::S),
            Cond::M => r.flag(Flags::S),
        }
    }
}

/// Which execution engine drives the simulation.
///
/// Both engines are architecturally and cycle-count identical (enforced
/// by the differential test suite); they differ only in host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Fetch–decode–execute one instruction at a time ([`Cpu::step`]).
    Interpreter,
    /// Predecoded basic blocks with an invalidation-tracked cache
    /// ([`Cpu::run_fast`]).
    #[default]
    BlockCache,
}

/// A fault raised by instruction execution.
///
/// On real hardware these trap through the vector installed with
/// `defineErrorHandler`; the board model (`rmc2000`) routes them the same
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// An opcode this CPU does not implement.
    InvalidOpcode {
        /// Logical address of the opcode byte.
        pc: u16,
        /// The offending byte (first byte of the instruction).
        opcode: u8,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Fault::InvalidOpcode { pc, opcode } => {
                write!(f, "invalid opcode {opcode:#04x} at {pc:#06x}")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// Which I/O space a prefixed access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoPrefix {
    Internal,
    External,
}

/// The CPU: register file, MMU state, and the instruction interpreter.
pub struct Cpu {
    /// Architectural registers.
    pub regs: Registers,
    /// Memory-management registers (programmed via internal I/O ports).
    pub mmu: Mmu,
    /// True after `halt` until an interrupt is accepted.
    pub halted: bool,
    /// Total clock cycles executed.
    pub cycles: u64,
    /// Total instructions retired (interrupt dispatches and `halt` idle
    /// cycles are not instructions and are not counted).
    pub instructions: u64,
    pub(crate) io_prefix: Option<IoPrefix>,
    /// Cycle-attribution profiler; `None` (the default) costs one branch
    /// per retired instruction and nothing else.
    pub(crate) profiler: Option<Box<telemetry::CycleProfiler>>,
}

impl Cpu {
    /// Creates a CPU in the reset state (PC = 0).
    pub fn new() -> Cpu {
        Cpu {
            regs: Registers::new(),
            mmu: Mmu::new(),
            halted: false,
            cycles: 0,
            instructions: 0,
            io_prefix: None,
            profiler: None,
        }
    }

    /// Attaches a cycle profiler whose root frame is the current PC. From
    /// here on every retired instruction's cycles are attributed to its
    /// PC and to the live call stack, on either execution engine.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Box::new(telemetry::CycleProfiler::new(self.regs.pc)));
    }

    /// Detaches the profiler and returns it (for
    /// [`telemetry::CycleProfiler::report`]). `None` when none was
    /// attached.
    pub fn take_profiler(&mut self) -> Option<telemetry::CycleProfiler> {
        self.profiler.take().map(|b| *b)
    }

    /// Translates a logical address using the current MMU and XPC state.
    pub fn translate(&self, addr: u16) -> u32 {
        self.mmu.translate(addr, self.regs.xpc)
    }

    fn fetch8(&mut self, mem: &Memory) -> u8 {
        let b = mem.read_phys(self.translate(self.regs.pc));
        self.regs.pc = self.regs.pc.wrapping_add(1);
        b
    }

    fn fetch16(&mut self, mem: &Memory) -> u16 {
        let lo = self.fetch8(mem);
        let hi = self.fetch8(mem);
        u16::from_le_bytes([lo, hi])
    }

    /// Reads a data byte, honouring a pending `ioi`/`ioe` prefix.
    fn read8<I: IoSpace + ?Sized>(&mut self, mem: &Memory, io: &mut I, addr: u16) -> u8 {
        match self.io_prefix {
            Some(IoPrefix::Internal) => io.io_read(addr, false),
            Some(IoPrefix::External) => io.io_read(addr, true),
            None => mem.read_phys(self.translate(addr)),
        }
    }

    /// Writes a data byte, honouring a pending `ioi`/`ioe` prefix and
    /// intercepting the MMU registers.
    fn write8<I: IoSpace + ?Sized>(&mut self, mem: &mut Memory, io: &mut I, addr: u16, v: u8) {
        match self.io_prefix {
            Some(ext) => {
                let external = ext == IoPrefix::External;
                if !external {
                    match addr {
                        ports::SEGSIZE => self.mmu.segsize = v,
                        ports::DATASEG => self.mmu.dataseg = v,
                        ports::STACKSEG => self.mmu.stackseg = v,
                        _ => {}
                    }
                }
                io.io_write(addr, v, external);
            }
            None => mem.write_phys(self.translate(addr), v),
        }
    }

    fn read16<I: IoSpace + ?Sized>(&mut self, mem: &Memory, io: &mut I, addr: u16) -> u16 {
        let lo = self.read8(mem, io, addr);
        let hi = self.read8(mem, io, addr.wrapping_add(1));
        u16::from_le_bytes([lo, hi])
    }

    fn write16<I: IoSpace + ?Sized>(&mut self, mem: &mut Memory, io: &mut I, addr: u16, v: u16) {
        let [lo, hi] = v.to_le_bytes();
        self.write8(mem, io, addr, lo);
        self.write8(mem, io, addr.wrapping_add(1), hi);
    }

    fn push16<I: IoSpace + ?Sized>(&mut self, mem: &mut Memory, io: &mut I, v: u16) {
        // Pushes never target I/O space regardless of prefixes.
        let saved = self.io_prefix.take();
        self.regs.sp = self.regs.sp.wrapping_sub(2);
        let sp = self.regs.sp;
        self.write16(mem, io, sp, v);
        self.io_prefix = saved;
    }

    fn pop16<I: IoSpace + ?Sized>(&mut self, mem: &Memory, io: &mut I) -> u16 {
        let saved = self.io_prefix.take();
        let v = self.read16(mem, io, self.regs.sp);
        self.regs.sp = self.regs.sp.wrapping_add(2);
        self.io_prefix = saved;
        v
    }

    // ---- flag helpers -------------------------------------------------

    #[inline]
    pub(crate) fn set_sz(&mut self, v: u8) {
        self.regs.set_flag(Flags::S, v & 0x80 != 0);
        self.regs.set_flag(Flags::Z, v == 0);
    }

    #[inline]
    pub(crate) fn set_parity(&mut self, v: u8) {
        self.regs
            .set_flag(Flags::PV, v.count_ones().is_multiple_of(2));
    }

    #[inline]
    pub(crate) fn add8(&mut self, b: u8, carry: bool) {
        let a = self.regs.a;
        let c = u16::from(carry && self.regs.flag(Flags::C));
        let r = u16::from(a) + u16::from(b) + c;
        let res = r as u8;
        self.regs.set_flag(Flags::C, r > 0xFF);
        self.regs
            .set_flag(Flags::H, (a & 0xF) + (b & 0xF) + c as u8 > 0xF);
        self.regs
            .set_flag(Flags::PV, (a ^ res) & (b ^ res) & 0x80 != 0);
        self.regs.set_flag(Flags::N, false);
        self.set_sz(res);
        self.regs.a = res;
    }

    #[inline]
    pub(crate) fn sub8(&mut self, b: u8, carry: bool, store: bool) {
        let a = self.regs.a;
        let c = u16::from(carry && self.regs.flag(Flags::C));
        let r = u16::from(a).wrapping_sub(u16::from(b)).wrapping_sub(c);
        let res = r as u8;
        self.regs.set_flag(Flags::C, r > 0xFF);
        self.regs
            .set_flag(Flags::H, (a & 0xF) < (b & 0xF) + c as u8);
        self.regs
            .set_flag(Flags::PV, (a ^ b) & (a ^ res) & 0x80 != 0);
        self.regs.set_flag(Flags::N, true);
        self.set_sz(res);
        if store {
            self.regs.a = res;
        }
    }

    #[inline]
    pub(crate) fn logic8(&mut self, res: u8, half: bool) {
        self.regs.a = res;
        self.regs.set_flag(Flags::C, false);
        self.regs.set_flag(Flags::H, half);
        self.regs.set_flag(Flags::N, false);
        self.set_parity(res);
        self.set_sz(res);
    }

    #[inline]
    pub(crate) fn inc8val(&mut self, v: u8) -> u8 {
        let res = v.wrapping_add(1);
        self.regs.set_flag(Flags::H, v & 0xF == 0xF);
        self.regs.set_flag(Flags::PV, v == 0x7F);
        self.regs.set_flag(Flags::N, false);
        self.set_sz(res);
        res
    }

    #[inline]
    pub(crate) fn dec8val(&mut self, v: u8) -> u8 {
        let res = v.wrapping_sub(1);
        self.regs.set_flag(Flags::H, v & 0xF == 0);
        self.regs.set_flag(Flags::PV, v == 0x80);
        self.regs.set_flag(Flags::N, true);
        self.set_sz(res);
        res
    }

    #[inline]
    pub(crate) fn add16(&mut self, a: u16, b: u16) -> u16 {
        let r = u32::from(a) + u32::from(b);
        self.regs.set_flag(Flags::C, r > 0xFFFF);
        self.regs
            .set_flag(Flags::H, (a & 0xFFF) + (b & 0xFFF) > 0xFFF);
        self.regs.set_flag(Flags::N, false);
        r as u16
    }

    #[inline]
    pub(crate) fn adc16(&mut self, a: u16, b: u16) -> u16 {
        let c = u32::from(self.regs.flag(Flags::C));
        let r = u32::from(a) + u32::from(b) + c;
        let res = r as u16;
        self.regs.set_flag(Flags::C, r > 0xFFFF);
        self.regs
            .set_flag(Flags::PV, (a ^ res) & (b ^ res) & 0x8000 != 0);
        self.regs.set_flag(Flags::N, false);
        self.regs.set_flag(Flags::S, res & 0x8000 != 0);
        self.regs.set_flag(Flags::Z, res == 0);
        res
    }

    #[inline]
    pub(crate) fn sbc16(&mut self, a: u16, b: u16) -> u16 {
        let c = u32::from(self.regs.flag(Flags::C));
        let r = u32::from(a).wrapping_sub(u32::from(b)).wrapping_sub(c);
        let res = r as u16;
        self.regs.set_flag(Flags::C, r > 0xFFFF);
        self.regs
            .set_flag(Flags::PV, (a ^ b) & (a ^ res) & 0x8000 != 0);
        self.regs.set_flag(Flags::N, true);
        self.regs.set_flag(Flags::S, res & 0x8000 != 0);
        self.regs.set_flag(Flags::Z, res == 0);
        res
    }

    #[inline]
    pub(crate) fn rot8(&mut self, op: u8, v: u8) -> u8 {
        let carry_in = self.regs.flag(Flags::C);
        let (res, carry) = match op {
            0 => (v.rotate_left(1), v & 0x80 != 0),              // rlc
            1 => (v.rotate_right(1), v & 1 != 0),                // rrc
            2 => ((v << 1) | u8::from(carry_in), v & 0x80 != 0), // rl
            3 => ((v >> 1) | (u8::from(carry_in) << 7), v & 1 != 0), // rr
            4 => (v << 1, v & 0x80 != 0),                        // sla
            5 => (((v as i8) >> 1) as u8, v & 1 != 0),           // sra
            7 => (v >> 1, v & 1 != 0),                           // srl
            _ => (v, false),                                     // unused slot
        };
        self.regs.set_flag(Flags::C, carry);
        self.regs.set_flag(Flags::H, false);
        self.regs.set_flag(Flags::N, false);
        self.set_parity(res);
        self.set_sz(res);
        res
    }

    // ---- interrupt handling -------------------------------------------

    pub(crate) fn ipset(&mut self, priority: u8) {
        self.regs.ip = (self.regs.ip << 2) | (priority & 3);
    }

    pub(crate) fn ipres(&mut self) {
        self.regs.ip = self.regs.ip.rotate_right(2);
    }

    /// Current interrupt priority (low two bits of `IP`).
    pub fn priority(&self) -> u8 {
        self.regs.ip & 3
    }

    /// Executes one instruction (taking a pending interrupt first if its
    /// priority allows). Returns the number of clock cycles consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidOpcode`] when the opcode stream is not part
    /// of the implemented instruction set; the CPU state is left pointing
    /// *after* the offending byte so a board-level error handler can
    /// resume.
    pub fn step<I: IoSpace + ?Sized>(
        &mut self,
        mem: &mut Memory,
        io: &mut I,
    ) -> Result<u32, Fault> {
        // Interrupts are sampled between instructions, never between a
        // prefix and its target instruction.
        if self.io_prefix.is_none() {
            if let Some(req) = io.pending_interrupt() {
                if req.priority & 3 > self.priority() {
                    io.acknowledge_interrupt(req.vector);
                    self.halted = false;
                    self.ipset(req.priority);
                    let pc = self.regs.pc;
                    self.push16(mem, io, pc);
                    self.regs.pc = req.vector;
                    self.cycles += 13;
                    io.tick(13);
                    if let Some(p) = self.profiler.as_mut() {
                        // Dispatch overhead bills to the interrupted PC;
                        // the handler is a new frame at the vector.
                        p.record(pc, 13);
                        p.call(req.vector);
                    }
                    return Ok(13);
                }
            }
        }

        if self.halted {
            self.cycles += 2;
            io.tick(2);
            if let Some(p) = self.profiler.as_mut() {
                p.record(self.regs.pc, 2);
            }
            return Ok(2);
        }

        let pc0 = self.regs.pc;
        let op = self.fetch8(mem);
        // `reti` hides behind the 0xED prefix; peek its sub-byte before
        // `exec` runs, while the PC (and MMU state) still point at it.
        let ed_sub = if self.profiler.is_some() && op == 0xED {
            Some(mem.read_phys(self.translate(self.regs.pc)))
        } else {
            None
        };
        let cycles = self.exec(op, pc0, mem, io)?;
        self.cycles += u64::from(cycles);
        self.instructions += 1;
        io.tick(u64::from(cycles));
        if let Some(p) = self.profiler.as_mut() {
            // Record first so a call's cycles bill to the caller's stack,
            // then move the frame pointer for the next instruction.
            p.record(pc0, u64::from(cycles));
            match op {
                // call nn / rst p: the new PC is the frame entry.
                0xCD | 0xD7 | 0xDF | 0xE7 | 0xEF | 0xFF => p.call(self.regs.pc),
                0xC9 => p.ret(),
                // ret cc: taken costs 8 cycles, not-taken 2.
                0xC0 | 0xC8 | 0xD0 | 0xD8 | 0xE0 | 0xE8 | 0xF0 | 0xF8 if cycles == 8 => {
                    p.ret();
                }
                0xED if ed_sub == Some(0x4D) => p.ret(), // reti
                _ => {}
            }
        }
        Ok(cycles)
    }

    /// Books `cycles` of halted time in one batch: the CPU-side half of a
    /// time-skip. Equivalent to `cycles / 2` halted [`Cpu::step`]s *minus*
    /// their bus work — the caller is responsible for advancing the bus by
    /// the same amount (e.g. `Bus::advance`) and for having checked that
    /// no dispatchable interrupt is pending. `cycles` must be even, since
    /// a halted step always burns 2 cycles.
    ///
    /// Profiler attribution matches the stepwise path exactly:
    /// [`telemetry::CycleProfiler::record`] is additive, so one record of
    /// `cycles` at the halt PC equals `cycles / 2` records of 2.
    pub fn skip_halted(&mut self, cycles: u64) {
        debug_assert!(self.halted, "skip_halted on a running CPU");
        debug_assert!(cycles.is_multiple_of(2), "halted steps burn 2 cycles each");
        self.cycles += cycles;
        if let Some(p) = self.profiler.as_mut() {
            p.record(self.regs.pc, cycles);
        }
    }

    /// Runs until `halt`, a fault, or `max_cycles`, whichever comes first.
    /// Returns the cycles consumed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Fault`]. Exceeding the budget is reported as
    /// `Ok` with `halted` still false; callers that need to distinguish a
    /// runaway program should check [`Cpu::halted`].
    pub fn run<I: IoSpace + ?Sized>(
        &mut self,
        mem: &mut Memory,
        io: &mut I,
        max_cycles: u64,
    ) -> Result<u64, Fault> {
        let start = self.cycles;
        while !self.halted && self.cycles - start < max_cycles {
            self.step(mem, io)?;
        }
        Ok(self.cycles - start)
    }

    /// Runs on the chosen [`Engine`]. Both engines produce identical
    /// architectural state and cycle counts; see `exec` for the
    /// block-caching engine's exactness contract.
    ///
    /// # Errors
    ///
    /// As [`Cpu::run`].
    pub fn run_on<I: IoSpace + ?Sized>(
        &mut self,
        engine: Engine,
        mem: &mut Memory,
        io: &mut I,
        max_cycles: u64,
    ) -> Result<u64, Fault> {
        match engine {
            Engine::Interpreter => self.run(mem, io, max_cycles),
            Engine::BlockCache => self.run_fast(mem, io, max_cycles),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec<I: IoSpace + ?Sized>(
        &mut self,
        op: u8,
        pc0: u16,
        mem: &mut Memory,
        io: &mut I,
    ) -> Result<u32, Fault> {
        let invalid = Err(Fault::InvalidOpcode {
            pc: pc0,
            opcode: op,
        });
        // The prefix applies to exactly one following instruction.
        let clear_prefix_after = self.io_prefix.is_some() && op != 0xD3 && op != 0xDB;

        let cycles: u32 = match op {
            0x00 => 2, // nop
            // ld dd,nn
            0x01 | 0x11 | 0x21 | 0x31 => {
                let v = self.fetch16(mem);
                let dd = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from(op >> 4)];
                self.regs.set16(dd, v);
                6
            }
            0x02 => {
                let addr = self.regs.bc();
                let a = self.regs.a;
                self.write8(mem, io, addr, a);
                7
            }
            0x12 => {
                let addr = self.regs.de();
                let a = self.regs.a;
                self.write8(mem, io, addr, a);
                7
            }
            0x0A => {
                let addr = self.regs.bc();
                self.regs.a = self.read8(mem, io, addr);
                6
            }
            0x1A => {
                let addr = self.regs.de();
                self.regs.a = self.read8(mem, io, addr);
                6
            }
            // inc/dec ss
            0x03 | 0x13 | 0x23 | 0x33 => {
                let dd = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from(op >> 4)];
                let v = self.regs.get16(dd).wrapping_add(1);
                self.regs.set16(dd, v);
                2
            }
            0x0B | 0x1B | 0x2B | 0x3B => {
                let dd = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from(op >> 4)];
                let v = self.regs.get16(dd).wrapping_sub(1);
                self.regs.set16(dd, v);
                2
            }
            // inc r / (hl)
            0x04 | 0x0C | 0x14 | 0x1C | 0x24 | 0x2C | 0x3C => {
                let r = Reg8::from_code(op >> 3).expect("register inc");
                let v = self.regs.get8(r);
                let res = self.inc8val(v);
                self.regs.set8(r, res);
                2
            }
            0x34 => {
                let addr = self.regs.hl();
                let v = self.read8(mem, io, addr);
                let res = self.inc8val(v);
                self.write8(mem, io, addr, res);
                8
            }
            // dec r / (hl)
            0x05 | 0x0D | 0x15 | 0x1D | 0x25 | 0x2D | 0x3D => {
                let r = Reg8::from_code(op >> 3).expect("register dec");
                let v = self.regs.get8(r);
                let res = self.dec8val(v);
                self.regs.set8(r, res);
                2
            }
            0x35 => {
                let addr = self.regs.hl();
                let v = self.read8(mem, io, addr);
                let res = self.dec8val(v);
                self.write8(mem, io, addr, res);
                8
            }
            // ld r,n / ld (hl),n
            0x06 | 0x0E | 0x16 | 0x1E | 0x26 | 0x2E | 0x3E => {
                let n = self.fetch8(mem);
                let r = Reg8::from_code(op >> 3).expect("register ld n");
                self.regs.set8(r, n);
                4
            }
            0x36 => {
                let n = self.fetch8(mem);
                let addr = self.regs.hl();
                self.write8(mem, io, addr, n);
                7
            }
            // accumulator rotates
            0x07 => {
                let a = self.regs.a;
                self.regs.set_flag(Flags::C, a & 0x80 != 0);
                self.regs.a = a.rotate_left(1);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
                2
            }
            0x0F => {
                let a = self.regs.a;
                self.regs.set_flag(Flags::C, a & 1 != 0);
                self.regs.a = a.rotate_right(1);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
                2
            }
            0x17 => {
                let a = self.regs.a;
                let c = u8::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, a & 0x80 != 0);
                self.regs.a = (a << 1) | c;
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
                2
            }
            0x1F => {
                let a = self.regs.a;
                let c = u8::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, a & 1 != 0);
                self.regs.a = (a >> 1) | (c << 7);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
                2
            }
            0x08 => {
                self.regs.swap_af();
                2
            }
            // add hl,ss
            0x09 | 0x19 | 0x29 | 0x39 => {
                let ss = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from(op >> 4)];
                let hl = self.regs.hl();
                let v = self.regs.get16(ss);
                let res = self.add16(hl, v);
                self.regs.set16(Reg16::Hl, res);
                2
            }
            0x10 => {
                // djnz e
                let e = self.fetch8(mem) as i8;
                self.regs.b = self.regs.b.wrapping_sub(1);
                if self.regs.b != 0 {
                    self.regs.pc = self.regs.pc.wrapping_add_signed(i16::from(e));
                }
                5
            }
            0x18 => {
                let e = self.fetch8(mem) as i8;
                self.regs.pc = self.regs.pc.wrapping_add_signed(i16::from(e));
                5
            }
            0x20 | 0x28 | 0x30 | 0x38 => {
                let e = self.fetch8(mem) as i8;
                let cc = Cond::from_code((op >> 3) & 3);
                if cc.holds(&self.regs) {
                    self.regs.pc = self.regs.pc.wrapping_add_signed(i16::from(e));
                }
                5
            }
            0x22 => {
                let nn = self.fetch16(mem);
                let hl = self.regs.hl();
                self.write16(mem, io, nn, hl);
                13
            }
            0x2A => {
                let nn = self.fetch16(mem);
                let v = self.read16(mem, io, nn);
                self.regs.set16(Reg16::Hl, v);
                11
            }
            0x32 => {
                let nn = self.fetch16(mem);
                let a = self.regs.a;
                self.write8(mem, io, nn, a);
                10
            }
            0x3A => {
                let nn = self.fetch16(mem);
                self.regs.a = self.read8(mem, io, nn);
                9
            }
            0x27 => {
                // add sp,d (Rabbit; replaces Z80 daa)
                let d = self.fetch8(mem) as i8;
                self.regs.sp = self.regs.sp.wrapping_add_signed(i16::from(d));
                4
            }
            0x2F => {
                self.regs.a = !self.regs.a;
                self.regs.set_flag(Flags::H, true);
                self.regs.set_flag(Flags::N, true);
                2
            }
            0x37 => {
                self.regs.set_flag(Flags::C, true);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
                2
            }
            0x3F => {
                let c = self.regs.flag(Flags::C);
                self.regs.set_flag(Flags::H, c);
                self.regs.set_flag(Flags::C, !c);
                self.regs.set_flag(Flags::N, false);
                2
            }
            0x76 => {
                self.halted = true;
                2
            }
            // ld r,r' block
            0x40..=0x7F => {
                let dst = (op >> 3) & 7;
                let src = op & 7;
                match (Reg8::from_code(dst), Reg8::from_code(src)) {
                    (Some(d), Some(s)) => {
                        let v = self.regs.get8(s);
                        self.regs.set8(d, v);
                        2
                    }
                    (Some(d), None) => {
                        let addr = self.regs.hl();
                        let v = self.read8(mem, io, addr);
                        self.regs.set8(d, v);
                        5
                    }
                    (None, Some(s)) => {
                        let addr = self.regs.hl();
                        let v = self.regs.get8(s);
                        self.write8(mem, io, addr, v);
                        6
                    }
                    (None, None) => unreachable!("0x76 handled above"),
                }
            }
            // ALU a,r block
            0x80..=0xBF => {
                let src = op & 7;
                let (v, c) = match Reg8::from_code(src) {
                    Some(s) => (self.regs.get8(s), 2),
                    None => {
                        let addr = self.regs.hl();
                        (self.read8(mem, io, addr), 5)
                    }
                };
                self.alu(op >> 3 & 7, v);
                c
            }
            // ret cc
            0xC0 | 0xC8 | 0xD0 | 0xD8 | 0xE0 | 0xE8 | 0xF0 | 0xF8 => {
                let cc = Cond::from_code(op >> 3);
                if cc.holds(&self.regs) {
                    self.regs.pc = self.pop16(mem, io);
                    8
                } else {
                    2
                }
            }
            0xC1 | 0xD1 | 0xE1 | 0xF1 => {
                let qq = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Af][usize::from((op >> 4) - 0xC)];
                let v = self.pop16(mem, io);
                self.regs.set16(qq, v);
                7
            }
            0xC5 | 0xD5 | 0xE5 | 0xF5 => {
                let qq = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Af][usize::from((op >> 4) - 0xC)];
                let v = self.regs.get16(qq);
                self.push16(mem, io, v);
                10
            }
            0xC2 | 0xCA | 0xD2 | 0xDA | 0xE2 | 0xEA | 0xF2 | 0xFA => {
                let nn = self.fetch16(mem);
                let cc = Cond::from_code(op >> 3);
                if cc.holds(&self.regs) {
                    self.regs.pc = nn;
                }
                7
            }
            0xC3 => {
                let nn = self.fetch16(mem);
                self.regs.pc = nn;
                7
            }
            // ALU a,n
            0xC6 | 0xCE | 0xD6 | 0xDE | 0xE6 | 0xEE | 0xF6 | 0xFE => {
                let n = self.fetch8(mem);
                self.alu(op >> 3 & 7, n);
                4
            }
            // rst p (Rabbit keeps 10,18,20,28,38)
            0xD7 | 0xDF | 0xE7 | 0xEF | 0xFF => {
                let target = u16::from(op & 0x38);
                let pc = self.regs.pc;
                self.push16(mem, io, pc);
                self.regs.pc = target;
                10
            }
            0xC9 => {
                self.regs.pc = self.pop16(mem, io);
                8
            }
            0xCD => {
                let nn = self.fetch16(mem);
                let pc = self.regs.pc;
                self.push16(mem, io, pc);
                self.regs.pc = nn;
                12
            }
            0xC4 => {
                // ld hl,(sp+n)  (Rabbit)
                let n = self.fetch8(mem);
                let addr = self.regs.sp.wrapping_add(u16::from(n));
                let v = self.read16(mem, io, addr);
                self.regs.set16(Reg16::Hl, v);
                9
            }
            0xD4 => {
                // ld (sp+n),hl  (Rabbit)
                let n = self.fetch8(mem);
                let addr = self.regs.sp.wrapping_add(u16::from(n));
                let hl = self.regs.hl();
                self.write16(mem, io, addr, hl);
                11
            }
            0xCC => {
                // bool hl: hl = (hl != 0); clears carry
                let hl = self.regs.hl();
                let v = u16::from(hl != 0);
                self.regs.set16(Reg16::Hl, v);
                self.regs.set_flag(Flags::C, false);
                self.regs.set_flag(Flags::Z, v == 0);
                self.regs.set_flag(Flags::S, false);
                2
            }
            0xDC => {
                // and hl,de
                let v = self.regs.hl() & self.regs.de();
                self.regs.set16(Reg16::Hl, v);
                self.regs.set_flag(Flags::Z, v == 0);
                self.regs.set_flag(Flags::S, v & 0x8000 != 0);
                self.regs.set_flag(Flags::C, false);
                2
            }
            0xEC => {
                // or hl,de
                let v = self.regs.hl() | self.regs.de();
                self.regs.set16(Reg16::Hl, v);
                self.regs.set_flag(Flags::Z, v == 0);
                self.regs.set_flag(Flags::S, v & 0x8000 != 0);
                self.regs.set_flag(Flags::C, false);
                2
            }
            0xFC => {
                // rr hl
                let hl = self.regs.hl();
                let c = u16::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, hl & 1 != 0);
                self.regs.set16(Reg16::Hl, (hl >> 1) | (c << 15));
                2
            }
            0xF3 => {
                // rl de
                let de = self.regs.de();
                let c = u16::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, de & 0x8000 != 0);
                self.regs.set16(Reg16::De, (de << 1) | c);
                2
            }
            0xFB => {
                // rr de
                let de = self.regs.de();
                let c = u16::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, de & 1 != 0);
                self.regs.set16(Reg16::De, (de >> 1) | (c << 15));
                2
            }
            0xF7 => {
                // mul: hl:bc = bc * de (signed 16x16 -> 32)
                let bc = self.regs.bc() as i16;
                let de = self.regs.de() as i16;
                let prod = i32::from(bc) * i32::from(de);
                self.regs.set16(Reg16::Hl, (prod >> 16) as u16);
                self.regs.set16(Reg16::Bc, prod as u16);
                12
            }
            0xD9 => {
                self.regs.swap_main();
                2
            }
            0xE3 => {
                let sp = self.regs.sp;
                let v = self.read16(mem, io, sp);
                let hl = self.regs.hl();
                self.write16(mem, io, sp, hl);
                self.regs.set16(Reg16::Hl, v);
                15
            }
            0xE9 => {
                self.regs.pc = self.regs.hl();
                4
            }
            0xEB => {
                let de = self.regs.de();
                let hl = self.regs.hl();
                self.regs.set16(Reg16::De, hl);
                self.regs.set16(Reg16::Hl, de);
                2
            }
            0xF9 => {
                self.regs.sp = self.regs.hl();
                2
            }
            0xD3 => {
                // ioi prefix
                self.io_prefix = Some(IoPrefix::Internal);
                2
            }
            0xDB => {
                // ioe prefix
                self.io_prefix = Some(IoPrefix::External);
                2
            }
            0xCB => self.exec_cb(mem, io),
            0xED => self.exec_ed(pc0, mem, io)?,
            0xDD => self.exec_index(Reg16::Ix, pc0, mem, io)?,
            0xFD => self.exec_index(Reg16::Iy, pc0, mem, io)?,
            _ => return invalid,
        };

        if clear_prefix_after {
            self.io_prefix = None;
        }
        Ok(cycles)
    }

    #[inline]
    pub(crate) fn alu(&mut self, code: u8, v: u8) {
        match code {
            0 => self.add8(v, false),
            1 => self.add8(v, true),
            2 => self.sub8(v, false, true),
            3 => self.sub8(v, true, true),
            4 => {
                let res = self.regs.a & v;
                self.logic8(res, true);
            }
            5 => {
                let res = self.regs.a ^ v;
                self.logic8(res, false);
            }
            6 => {
                let res = self.regs.a | v;
                self.logic8(res, false);
            }
            _ => self.sub8(v, false, false),
        }
    }

    fn exec_cb<I: IoSpace + ?Sized>(&mut self, mem: &mut Memory, io: &mut I) -> u32 {
        let op = self.fetch8(mem);
        let src = op & 7;
        let kind = op >> 6;
        let field = (op >> 3) & 7;
        match kind {
            0 => {
                // rotates and shifts
                match Reg8::from_code(src) {
                    Some(r) => {
                        let v = self.regs.get8(r);
                        let res = self.rot8(field, v);
                        self.regs.set8(r, res);
                        4
                    }
                    None => {
                        let addr = self.regs.hl();
                        let v = self.read8(mem, io, addr);
                        let res = self.rot8(field, v);
                        self.write8(mem, io, addr, res);
                        10
                    }
                }
            }
            1 => {
                // bit b,r
                let (v, c) = match Reg8::from_code(src) {
                    Some(r) => (self.regs.get8(r), 4),
                    None => {
                        let addr = self.regs.hl();
                        (self.read8(mem, io, addr), 7)
                    }
                };
                let set = v & (1 << field) != 0;
                self.regs.set_flag(Flags::Z, !set);
                self.regs.set_flag(Flags::H, true);
                self.regs.set_flag(Flags::N, false);
                c
            }
            _ => {
                // res/set b,r
                let bit = 1u8 << field;
                let apply = |v: u8| if kind == 2 { v & !bit } else { v | bit };
                match Reg8::from_code(src) {
                    Some(r) => {
                        let v = self.regs.get8(r);
                        self.regs.set8(r, apply(v));
                        4
                    }
                    None => {
                        let addr = self.regs.hl();
                        let v = self.read8(mem, io, addr);
                        let res = apply(v);
                        self.write8(mem, io, addr, res);
                        10
                    }
                }
            }
        }
    }

    fn exec_ed<I: IoSpace + ?Sized>(
        &mut self,
        pc0: u16,
        mem: &mut Memory,
        io: &mut I,
    ) -> Result<u32, Fault> {
        let op = self.fetch8(mem);
        let cycles = match op {
            // sbc hl,ss / adc hl,ss
            0x42 | 0x52 | 0x62 | 0x72 => {
                let ss = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from((op >> 4) - 4)];
                let hl = self.regs.hl();
                let v = self.regs.get16(ss);
                let res = self.sbc16(hl, v);
                self.regs.set16(Reg16::Hl, res);
                4
            }
            0x4A | 0x5A | 0x6A | 0x7A => {
                let ss = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from((op >> 4) - 4)];
                let hl = self.regs.hl();
                let v = self.regs.get16(ss);
                let res = self.adc16(hl, v);
                self.regs.set16(Reg16::Hl, res);
                4
            }
            // ld (nn),dd / ld dd,(nn)
            0x43 | 0x53 | 0x63 | 0x73 => {
                let nn = self.fetch16(mem);
                let dd = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from((op >> 4) - 4)];
                let v = self.regs.get16(dd);
                self.write16(mem, io, nn, v);
                13
            }
            0x4B | 0x5B | 0x6B | 0x7B => {
                let nn = self.fetch16(mem);
                let dd = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp][usize::from((op >> 4) - 4)];
                let v = self.read16(mem, io, nn);
                self.regs.set16(dd, v);
                11
            }
            0x44 => {
                let a = self.regs.a;
                self.regs.a = 0;
                self.sub8(a, false, true);
                4
            }
            0x4D => {
                // reti: restore priority, then return
                self.ipres();
                self.regs.pc = self.pop16(mem, io);
                12
            }
            // ipset n / ipres
            0x46 => {
                self.ipset(0);
                4
            }
            0x56 => {
                self.ipset(1);
                4
            }
            0x4E => {
                self.ipset(2);
                4
            }
            0x5E => {
                self.ipset(3);
                4
            }
            0x5D => {
                self.ipres();
                4
            }
            0x67 => {
                // ld xpc,a
                self.regs.xpc = self.regs.a;
                4
            }
            0x77 => {
                // ld a,xpc
                self.regs.a = self.regs.xpc;
                4
            }
            // block moves
            0xA0 | 0xA8 | 0xB0 | 0xB8 => {
                let dec = op & 8 != 0;
                let repeat = op & 0x10 != 0;
                let mut total = 0u32;
                loop {
                    let hl = self.regs.hl();
                    let de = self.regs.de();
                    let v = self.read8(mem, io, hl);
                    self.write8(mem, io, de, v);
                    let delta: i16 = if dec { -1 } else { 1 };
                    self.regs.set16(Reg16::Hl, hl.wrapping_add_signed(delta));
                    self.regs.set16(Reg16::De, de.wrapping_add_signed(delta));
                    let bc = self.regs.bc().wrapping_sub(1);
                    self.regs.set16(Reg16::Bc, bc);
                    total += if repeat { 7 } else { 10 };
                    self.regs.set_flag(Flags::PV, bc != 0);
                    self.regs.set_flag(Flags::H, false);
                    self.regs.set_flag(Flags::N, false);
                    if !repeat || bc == 0 {
                        break;
                    }
                }
                total
            }
            _ => {
                return Err(Fault::InvalidOpcode {
                    pc: pc0,
                    opcode: op,
                })
            }
        };
        Ok(cycles)
    }

    fn exec_index<I: IoSpace + ?Sized>(
        &mut self,
        idx: Reg16,
        pc0: u16,
        mem: &mut Memory,
        io: &mut I,
    ) -> Result<u32, Fault> {
        let op = self.fetch8(mem);
        let cycles = match op {
            0x21 => {
                let v = self.fetch16(mem);
                self.regs.set16(idx, v);
                8
            }
            0x22 => {
                let nn = self.fetch16(mem);
                let v = self.regs.get16(idx);
                self.write16(mem, io, nn, v);
                15
            }
            0x2A => {
                let nn = self.fetch16(mem);
                let v = self.read16(mem, io, nn);
                self.regs.set16(idx, v);
                13
            }
            0x23 => {
                let v = self.regs.get16(idx).wrapping_add(1);
                self.regs.set16(idx, v);
                4
            }
            0x2B => {
                let v = self.regs.get16(idx).wrapping_sub(1);
                self.regs.set16(idx, v);
                4
            }
            0x09 | 0x19 | 0x29 | 0x39 => {
                let ss = match op >> 4 {
                    0 => Reg16::Bc,
                    1 => Reg16::De,
                    2 => idx,
                    _ => Reg16::Sp,
                };
                let a = self.regs.get16(idx);
                let b = self.regs.get16(ss);
                let res = self.add16(a, b);
                self.regs.set16(idx, res);
                4
            }
            0x34 => {
                let addr = self.index_addr(idx, mem);
                let v = self.read8(mem, io, addr);
                let res = self.inc8val(v);
                self.write8(mem, io, addr, res);
                12
            }
            0x35 => {
                let addr = self.index_addr(idx, mem);
                let v = self.read8(mem, io, addr);
                let res = self.dec8val(v);
                self.write8(mem, io, addr, res);
                12
            }
            0x36 => {
                let addr = self.index_addr(idx, mem);
                let n = self.fetch8(mem);
                self.write8(mem, io, addr, n);
                11
            }
            // ld r,(ix+d)
            0x46 | 0x4E | 0x56 | 0x5E | 0x66 | 0x6E | 0x7E => {
                let addr = self.index_addr(idx, mem);
                let r = Reg8::from_code(op >> 3).expect("ld r,(ix+d) register");
                let v = self.read8(mem, io, addr);
                self.regs.set8(r, v);
                9
            }
            // ld (ix+d),r
            0x70..=0x75 | 0x77 => {
                let addr = self.index_addr(idx, mem);
                let r = Reg8::from_code(op).expect("ld (ix+d),r register");
                let v = self.regs.get8(r);
                self.write8(mem, io, addr, v);
                10
            }
            // alu a,(ix+d)
            0x86 | 0x8E | 0x96 | 0x9E | 0xA6 | 0xAE | 0xB6 | 0xBE => {
                let addr = self.index_addr(idx, mem);
                let v = self.read8(mem, io, addr);
                self.alu(op >> 3 & 7, v);
                9
            }
            0xE1 => {
                let v = self.pop16(mem, io);
                self.regs.set16(idx, v);
                9
            }
            0xE5 => {
                let v = self.regs.get16(idx);
                self.push16(mem, io, v);
                12
            }
            0xE3 => {
                let sp = self.regs.sp;
                let v = self.read16(mem, io, sp);
                let cur = self.regs.get16(idx);
                self.write16(mem, io, sp, cur);
                self.regs.set16(idx, v);
                15
            }
            0xE9 => {
                self.regs.pc = self.regs.get16(idx);
                6
            }
            0xF9 => {
                self.regs.sp = self.regs.get16(idx);
                4
            }
            _ => {
                return Err(Fault::InvalidOpcode {
                    pc: pc0,
                    opcode: op,
                })
            }
        };
        Ok(cycles)
    }

    fn index_addr(&mut self, idx: Reg16, mem: &Memory) -> u16 {
        let d = self.fetch8(mem) as i8;
        self.regs.get16(idx).wrapping_add_signed(i16::from(d))
    }
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new()
    }
}

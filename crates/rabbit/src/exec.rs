//! Block-caching execution engine.
//!
//! [`Cpu::run_fast`] is a drop-in replacement for [`Cpu::run`] that decodes
//! straight-line instruction runs into cached `Block`s of micro-ops and
//! replays them without re-fetching, re-decoding, or re-translating every
//! byte. It is *cycle-exact and state-exact* with respect to the `step`
//! interpreter — the differential tests in `tests/differential.rs` pin that
//! invariant — with one documented scheduling difference: interrupts are
//! sampled at block boundaries (at most [`BLOCK_CAP`] instructions apart)
//! instead of between every instruction. A caller that needs an interrupt
//! sampled at an exact instant ends the budget there (the board caps each
//! run at the bus's next device deadline).
//!
//! Design notes:
//!
//! * A block is keyed by `(PC, SEGSIZE, DATASEG, STACKSEG, XPC)` so a
//!   remapped MMU can never replay code decoded under a different mapping.
//! * Blocks end at control transfers, `halt`, `ipset`/`ipres`/`reti`, the
//!   decode cap, or a *barrier*: an instruction the decoder refuses
//!   (`ioi`/`ioe` prefixes, `ld xpc,a`, the `ldir` family, invalid
//!   opcodes). Barriers fall back to one interpreted `step`, so the engine
//!   never changes what executes — only how fast.
//! * Data accesses inside a block translate through a [`SegMap`], the
//!   per-segment translation cache compiled from the MMU registers; the
//!   mapping cannot change mid-block because every instruction that could
//!   change it ends (or falls outside) the block.
//! * Self-modifying code: [`Memory`] records dirty 256-byte pages while
//!   the engine runs. After every store the engine invalidates cached
//!   blocks on dirtied pages, and aborts the current block if its own
//!   pages were hit, resuming interpretation at the next instruction.
//!   Stores to flash are dropped by the memory model and therefore never
//!   invalidate anything.
//! * The cycle budget is exact per block. Body ops have fixed costs, so a
//!   block knows at decode time when its last instruction starts (its
//!   *lead* cycles). A block whose lead fits the remaining budget runs
//!   whole; otherwise only the prefix the interpreter would run executes,
//!   ending at the first instruction boundary at or past the budget. The
//!   only interpreted instructions are barriers and interrupt dispatch.
//! * `io.tick` is batched: one call per block with the summed cycle count.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use crate::cpu::{Cond, Cpu, Fault};
use crate::io::IoSpace;
use crate::mem::{Memory, SegMap};
use crate::registers::{Flags, Reg16, Reg8, Registers};

/// Maximum number of straight-line instructions decoded into one block.
/// Bounds the interrupt-sampling latency; the cycle budget is exact
/// whatever the block length.
pub const BLOCK_CAP: usize = 32;

/// Cached blocks are dropped wholesale when the cache grows past this.
const MAX_CACHED_BLOCKS: usize = 1 << 16;

const DD: [Reg16; 4] = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Sp];
const QQ: [Reg16; 4] = [Reg16::Bc, Reg16::De, Reg16::Hl, Reg16::Af];

/// A predecoded micro-op. Operand bytes and branch targets are resolved at
/// decode time; executing a micro-op never touches instruction memory.
#[derive(Debug, Clone, Copy)]
enum Op {
    // -- straight-line (body) ops --
    Nop,
    Ld16(Reg16, u16),
    Ld8Imm(Reg8, u8),
    StIndA(Reg16),
    LdAInd(Reg16),
    Inc16(Reg16),
    Dec16(Reg16),
    Inc8(Reg8),
    Dec8(Reg8),
    IncMhl,
    DecMhl,
    LdMhlImm(u8),
    Rlca,
    Rrca,
    Rla,
    Rra,
    ExAf,
    AddHl(Reg16),
    AddIdx(Reg16, Reg16),
    StAbs16(u16, Reg16),
    LdAbs16(Reg16, u16),
    StAbsA(u16),
    LdAbsA(u16),
    AddSp(i8),
    Cpl,
    Scf,
    Ccf,
    LdRR(Reg8, Reg8),
    LdRMhl(Reg8),
    StMhlR(Reg8),
    Alu(u8, Reg8),
    AluMhl(u8),
    AluImm(u8, u8),
    Pop(Reg16),
    Push(Reg16),
    LdHlSpN(u8),
    StSpNHl(u8),
    BoolHl,
    AndHlDe,
    OrHlDe,
    RrHl,
    RlDe,
    RrDe,
    Mul,
    Exx,
    ExDeHl,
    ExSp(Reg16),
    LdSp(Reg16),
    CbRot(u8, Reg8),
    CbRotMhl(u8),
    CbBit(u8, Reg8),
    CbBitMhl(u8),
    CbRes(u8, Reg8),
    CbResMhl(u8),
    CbSet(u8, Reg8),
    CbSetMhl(u8),
    Sbc16(Reg16),
    Adc16(Reg16),
    Neg,
    LdAXpc,
    IncMidx(Reg16, i8),
    DecMidx(Reg16, i8),
    StMidxImm(Reg16, i8, u8),
    LdRMidx(Reg8, Reg16, i8),
    StMidxR(Reg16, i8, Reg8),
    AluMidx(u8, Reg16, i8),
    // -- block-terminating ops --
    Jp(u16),
    JpCc(Cond, u16),
    Jr(u16),
    JrCc(Cond, u16),
    Djnz(u16),
    Call(u16),
    Rst(u16),
    Ret,
    RetCc(Cond),
    Reti,
    JpHl,
    JpIdx(Reg16),
    Halt,
    Ipset(u8),
    Ipres,
}

/// A body op plus its fixed cycle cost and the logical PC of the *next*
/// instruction (the resume point if the block aborts after this op).
#[derive(Debug, Clone, Copy)]
struct DecOp {
    op: Op,
    cycles: u8,
    next_pc: u16,
}

/// A decoded straight-line run. A cached block is never empty: a barrier
/// at the start PC is interpreted instead of cached.
#[derive(Debug)]
struct Block {
    body: Box<[DecOp]>,
    /// Terminating op and the logical PC following it (the fall-through
    /// target). `None` when the block ended at a barrier or the cap.
    term: Option<(Op, u16)>,
    /// Cycles of every instruction before the last one: the offset at
    /// which the last instruction starts. Exact, because only the
    /// terminator's cost varies.
    lead: u32,
    /// Distinct 256-byte physical pages the decoded bytes came from;
    /// a store to any of them invalidates the block.
    pages: Box<[u16]>,
}

impl Block {
    /// How many body ops the interpreter would start within `budget`
    /// cycles: every op that begins before the budget runs out.
    fn body_within(&self, budget: u64) -> usize {
        let mut at = 0u64;
        self.body
            .iter()
            .take_while(|d| {
                let starts = at < budget;
                at += u64::from(d.cycles);
                starts
            })
            .count()
    }
}

enum Dec {
    Body(Op, u8),
    Term(Op),
    Barrier,
}

/// Decode-time instruction-stream reader: translates through the block's
/// [`SegMap`] snapshot and records every physical page it touches.
struct Cursor<'a> {
    pc: u16,
    map: &'a SegMap,
    mem: &'a Memory,
    pages: &'a mut Vec<u16>,
}

impl Cursor<'_> {
    fn take8(&mut self) -> u8 {
        let phys = self.map.translate(self.pc);
        let page = (phys >> 8) as u16;
        if !self.pages.contains(&page) {
            self.pages.push(page);
        }
        self.pc = self.pc.wrapping_add(1);
        self.mem.read_phys(phys)
    }

    fn take16(&mut self) -> u16 {
        let lo = self.take8();
        let hi = self.take8();
        u16::from_le_bytes([lo, hi])
    }
}

fn decode_block(map: &SegMap, mem: &Memory, start_pc: u16) -> Block {
    let mut pages = Vec::new();
    let mut body = Vec::new();
    let mut term = None;
    let mut pc = start_pc;
    while body.len() < BLOCK_CAP {
        let mut cur = Cursor {
            pc,
            map,
            mem,
            pages: &mut pages,
        };
        match decode_one(&mut cur) {
            Dec::Barrier => break,
            Dec::Body(op, cycles) => {
                body.push(DecOp {
                    op,
                    cycles,
                    next_pc: cur.pc,
                });
                pc = cur.pc;
            }
            Dec::Term(op) => {
                term = Some((op, cur.pc));
                break;
            }
        }
    }
    let body_cycles: u32 = body.iter().map(|d| u32::from(d.cycles)).sum();
    let lead = match (term, body.last()) {
        (Some(_), _) => body_cycles,
        (None, Some(last)) => body_cycles - u32::from(last.cycles),
        (None, None) => 0,
    };
    // Boxed slices: no spare capacity kept alive in the cache.
    Block {
        body: body.into_boxed_slice(),
        term,
        lead,
        pages: pages.into_boxed_slice(),
    }
}

#[allow(clippy::too_many_lines)]
fn decode_one(cur: &mut Cursor<'_>) -> Dec {
    let op = cur.take8();
    match op {
        0x00 => Dec::Body(Op::Nop, 2),
        0x01 | 0x11 | 0x21 | 0x31 => {
            let v = cur.take16();
            Dec::Body(Op::Ld16(DD[usize::from(op >> 4)], v), 6)
        }
        0x02 => Dec::Body(Op::StIndA(Reg16::Bc), 7),
        0x12 => Dec::Body(Op::StIndA(Reg16::De), 7),
        0x0A => Dec::Body(Op::LdAInd(Reg16::Bc), 6),
        0x1A => Dec::Body(Op::LdAInd(Reg16::De), 6),
        0x03 | 0x13 | 0x23 | 0x33 => Dec::Body(Op::Inc16(DD[usize::from(op >> 4)]), 2),
        0x0B | 0x1B | 0x2B | 0x3B => Dec::Body(Op::Dec16(DD[usize::from(op >> 4)]), 2),
        0x04 | 0x0C | 0x14 | 0x1C | 0x24 | 0x2C | 0x3C => {
            Dec::Body(Op::Inc8(Reg8::from_code(op >> 3).expect("inc r")), 2)
        }
        0x34 => Dec::Body(Op::IncMhl, 8),
        0x05 | 0x0D | 0x15 | 0x1D | 0x25 | 0x2D | 0x3D => {
            Dec::Body(Op::Dec8(Reg8::from_code(op >> 3).expect("dec r")), 2)
        }
        0x35 => Dec::Body(Op::DecMhl, 8),
        0x06 | 0x0E | 0x16 | 0x1E | 0x26 | 0x2E | 0x3E => {
            let n = cur.take8();
            Dec::Body(Op::Ld8Imm(Reg8::from_code(op >> 3).expect("ld r,n"), n), 4)
        }
        0x36 => {
            let n = cur.take8();
            Dec::Body(Op::LdMhlImm(n), 7)
        }
        0x07 => Dec::Body(Op::Rlca, 2),
        0x0F => Dec::Body(Op::Rrca, 2),
        0x17 => Dec::Body(Op::Rla, 2),
        0x1F => Dec::Body(Op::Rra, 2),
        0x08 => Dec::Body(Op::ExAf, 2),
        0x09 | 0x19 | 0x29 | 0x39 => Dec::Body(Op::AddHl(DD[usize::from(op >> 4)]), 2),
        0x10 => {
            let e = cur.take8() as i8;
            Dec::Term(Op::Djnz(cur.pc.wrapping_add_signed(i16::from(e))))
        }
        0x18 => {
            let e = cur.take8() as i8;
            Dec::Term(Op::Jr(cur.pc.wrapping_add_signed(i16::from(e))))
        }
        0x20 | 0x28 | 0x30 | 0x38 => {
            let e = cur.take8() as i8;
            let cc = Cond::from_code((op >> 3) & 3);
            Dec::Term(Op::JrCc(cc, cur.pc.wrapping_add_signed(i16::from(e))))
        }
        0x22 => {
            let nn = cur.take16();
            Dec::Body(Op::StAbs16(nn, Reg16::Hl), 13)
        }
        0x2A => {
            let nn = cur.take16();
            Dec::Body(Op::LdAbs16(Reg16::Hl, nn), 11)
        }
        0x32 => {
            let nn = cur.take16();
            Dec::Body(Op::StAbsA(nn), 10)
        }
        0x3A => {
            let nn = cur.take16();
            Dec::Body(Op::LdAbsA(nn), 9)
        }
        0x27 => {
            let d = cur.take8() as i8;
            Dec::Body(Op::AddSp(d), 4)
        }
        0x2F => Dec::Body(Op::Cpl, 2),
        0x37 => Dec::Body(Op::Scf, 2),
        0x3F => Dec::Body(Op::Ccf, 2),
        0x76 => Dec::Term(Op::Halt),
        0x40..=0x7F => {
            let dst = (op >> 3) & 7;
            let src = op & 7;
            match (Reg8::from_code(dst), Reg8::from_code(src)) {
                (Some(d), Some(s)) => Dec::Body(Op::LdRR(d, s), 2),
                (Some(d), None) => Dec::Body(Op::LdRMhl(d), 5),
                (None, Some(s)) => Dec::Body(Op::StMhlR(s), 6),
                (None, None) => unreachable!("0x76 handled above"),
            }
        }
        0x80..=0xBF => match Reg8::from_code(op & 7) {
            Some(s) => Dec::Body(Op::Alu(op >> 3 & 7, s), 2),
            None => Dec::Body(Op::AluMhl(op >> 3 & 7), 5),
        },
        0xC0 | 0xC8 | 0xD0 | 0xD8 | 0xE0 | 0xE8 | 0xF0 | 0xF8 => {
            Dec::Term(Op::RetCc(Cond::from_code(op >> 3)))
        }
        0xC1 | 0xD1 | 0xE1 | 0xF1 => Dec::Body(Op::Pop(QQ[usize::from((op >> 4) - 0xC)]), 7),
        0xC5 | 0xD5 | 0xE5 | 0xF5 => Dec::Body(Op::Push(QQ[usize::from((op >> 4) - 0xC)]), 10),
        0xC2 | 0xCA | 0xD2 | 0xDA | 0xE2 | 0xEA | 0xF2 | 0xFA => {
            let nn = cur.take16();
            Dec::Term(Op::JpCc(Cond::from_code(op >> 3), nn))
        }
        0xC3 => {
            let nn = cur.take16();
            Dec::Term(Op::Jp(nn))
        }
        0xC6 | 0xCE | 0xD6 | 0xDE | 0xE6 | 0xEE | 0xF6 | 0xFE => {
            let n = cur.take8();
            Dec::Body(Op::AluImm(op >> 3 & 7, n), 4)
        }
        0xD7 | 0xDF | 0xE7 | 0xEF | 0xFF => Dec::Term(Op::Rst(u16::from(op & 0x38))),
        0xC9 => Dec::Term(Op::Ret),
        0xCD => {
            let nn = cur.take16();
            Dec::Term(Op::Call(nn))
        }
        0xC4 => {
            let n = cur.take8();
            Dec::Body(Op::LdHlSpN(n), 9)
        }
        0xD4 => {
            let n = cur.take8();
            Dec::Body(Op::StSpNHl(n), 11)
        }
        0xCC => Dec::Body(Op::BoolHl, 2),
        0xDC => Dec::Body(Op::AndHlDe, 2),
        0xEC => Dec::Body(Op::OrHlDe, 2),
        0xFC => Dec::Body(Op::RrHl, 2),
        0xF3 => Dec::Body(Op::RlDe, 2),
        0xFB => Dec::Body(Op::RrDe, 2),
        0xF7 => Dec::Body(Op::Mul, 12),
        0xD9 => Dec::Body(Op::Exx, 2),
        0xE3 => Dec::Body(Op::ExSp(Reg16::Hl), 15),
        0xE9 => Dec::Term(Op::JpHl),
        0xEB => Dec::Body(Op::ExDeHl, 2),
        0xF9 => Dec::Body(Op::LdSp(Reg16::Hl), 2),
        0xCB => decode_cb(cur),
        0xED => decode_ed(cur),
        0xDD => decode_idx(cur, Reg16::Ix),
        0xFD => decode_idx(cur, Reg16::Iy),
        // ioi/ioe prefixes and invalid opcodes (incl. the removed
        // rst 0x00/0x08) fall back to the interpreter.
        _ => Dec::Barrier,
    }
}

fn decode_cb(cur: &mut Cursor<'_>) -> Dec {
    let sub = cur.take8();
    let field = (sub >> 3) & 7;
    match (sub >> 6, Reg8::from_code(sub & 7)) {
        (0, Some(r)) => Dec::Body(Op::CbRot(field, r), 4),
        (0, None) => Dec::Body(Op::CbRotMhl(field), 10),
        (1, Some(r)) => Dec::Body(Op::CbBit(field, r), 4),
        (1, None) => Dec::Body(Op::CbBitMhl(field), 7),
        (2, Some(r)) => Dec::Body(Op::CbRes(field, r), 4),
        (2, None) => Dec::Body(Op::CbResMhl(field), 10),
        (_, Some(r)) => Dec::Body(Op::CbSet(field, r), 4),
        (_, None) => Dec::Body(Op::CbSetMhl(field), 10),
    }
}

fn decode_ed(cur: &mut Cursor<'_>) -> Dec {
    let sub = cur.take8();
    match sub {
        0x42 | 0x52 | 0x62 | 0x72 => Dec::Body(Op::Sbc16(DD[usize::from((sub >> 4) - 4)]), 4),
        0x4A | 0x5A | 0x6A | 0x7A => Dec::Body(Op::Adc16(DD[usize::from((sub >> 4) - 4)]), 4),
        0x43 | 0x53 | 0x63 | 0x73 => {
            let nn = cur.take16();
            Dec::Body(Op::StAbs16(nn, DD[usize::from((sub >> 4) - 4)]), 13)
        }
        0x4B | 0x5B | 0x6B | 0x7B => {
            let nn = cur.take16();
            Dec::Body(Op::LdAbs16(DD[usize::from((sub >> 4) - 4)], nn), 11)
        }
        0x44 => Dec::Body(Op::Neg, 4),
        0x4D => Dec::Term(Op::Reti),
        0x46 => Dec::Term(Op::Ipset(0)),
        0x56 => Dec::Term(Op::Ipset(1)),
        0x4E => Dec::Term(Op::Ipset(2)),
        0x5E => Dec::Term(Op::Ipset(3)),
        0x5D => Dec::Term(Op::Ipres),
        0x77 => Dec::Body(Op::LdAXpc, 4),
        // ld xpc,a remaps the fetch window; ldi/ldd/ldir/lddr have
        // data-dependent cycle counts. Both stay interpreted.
        _ => Dec::Barrier,
    }
}

fn decode_idx(cur: &mut Cursor<'_>, idx: Reg16) -> Dec {
    let sub = cur.take8();
    match sub {
        0x21 => {
            let nn = cur.take16();
            Dec::Body(Op::Ld16(idx, nn), 8)
        }
        0x22 => {
            let nn = cur.take16();
            Dec::Body(Op::StAbs16(nn, idx), 15)
        }
        0x2A => {
            let nn = cur.take16();
            Dec::Body(Op::LdAbs16(idx, nn), 13)
        }
        0x23 => Dec::Body(Op::Inc16(idx), 4),
        0x2B => Dec::Body(Op::Dec16(idx), 4),
        0x09 | 0x19 | 0x29 | 0x39 => {
            let ss = match sub >> 4 {
                0 => Reg16::Bc,
                1 => Reg16::De,
                2 => idx,
                _ => Reg16::Sp,
            };
            Dec::Body(Op::AddIdx(idx, ss), 4)
        }
        0x34 => {
            let d = cur.take8() as i8;
            Dec::Body(Op::IncMidx(idx, d), 12)
        }
        0x35 => {
            let d = cur.take8() as i8;
            Dec::Body(Op::DecMidx(idx, d), 12)
        }
        0x36 => {
            let d = cur.take8() as i8;
            let n = cur.take8();
            Dec::Body(Op::StMidxImm(idx, d, n), 11)
        }
        0x46 | 0x4E | 0x56 | 0x5E | 0x66 | 0x6E | 0x7E => {
            let d = cur.take8() as i8;
            Dec::Body(
                Op::LdRMidx(Reg8::from_code(sub >> 3).expect("ld r,(ix+d)"), idx, d),
                9,
            )
        }
        0x70..=0x75 | 0x77 => {
            let d = cur.take8() as i8;
            Dec::Body(
                Op::StMidxR(idx, d, Reg8::from_code(sub).expect("ld (ix+d),r")),
                10,
            )
        }
        0x86 | 0x8E | 0x96 | 0x9E | 0xA6 | 0xAE | 0xB6 | 0xBE => {
            let d = cur.take8() as i8;
            Dec::Body(Op::AluMidx(sub >> 3 & 7, idx, d), 9)
        }
        0xE1 => Dec::Body(Op::Pop(idx), 9),
        0xE5 => Dec::Body(Op::Push(idx), 12),
        0xE3 => Dec::Body(Op::ExSp(idx), 15),
        0xE9 => Dec::Term(Op::JpIdx(idx)),
        0xF9 => Dec::Body(Op::LdSp(idx), 4),
        _ => Dec::Barrier,
    }
}

// ---- data-access helpers over a SegMap snapshot -----------------------

#[inline]
fn rd8(mem: &Memory, map: &SegMap, addr: u16) -> u8 {
    mem.read_phys(map.translate(addr))
}

#[inline]
fn wr8(mem: &mut Memory, map: &SegMap, addr: u16, v: u8) {
    mem.write_phys(map.translate(addr), v);
}

#[inline]
fn rd16(mem: &Memory, map: &SegMap, addr: u16) -> u16 {
    let lo = rd8(mem, map, addr);
    let hi = rd8(mem, map, addr.wrapping_add(1));
    u16::from_le_bytes([lo, hi])
}

#[inline]
fn wr16(mem: &mut Memory, map: &SegMap, addr: u16, v: u16) {
    let [lo, hi] = v.to_le_bytes();
    wr8(mem, map, addr, lo);
    wr8(mem, map, addr.wrapping_add(1), hi);
}

#[inline]
fn pushf(regs: &mut Registers, mem: &mut Memory, map: &SegMap, v: u16) {
    regs.sp = regs.sp.wrapping_sub(2);
    wr16(mem, map, regs.sp, v);
}

#[inline]
fn popf(regs: &mut Registers, mem: &Memory, map: &SegMap) -> u16 {
    let v = rd16(mem, map, regs.sp);
    regs.sp = regs.sp.wrapping_add(2);
    v
}

// ---- the block cache --------------------------------------------------

/// Multiplicative hasher for the `u64` block keys; the keys are already
/// well distributed, so SipHash would be wasted work on the hot path.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

fn block_key(pc: u16, cpu: &Cpu) -> u64 {
    u64::from(pc)
        | u64::from(cpu.mmu.segsize) << 16
        | u64::from(cpu.mmu.dataseg) << 24
        | u64::from(cpu.mmu.stackseg) << 32
        | u64::from(cpu.regs.xpc) << 40
}

/// Persistent state of the block-caching engine, owned by the [`Cpu`] and
/// reused across [`Cpu::run_fast`] calls.
pub struct ExecEngine {
    blocks: HashMap<u64, Rc<Block>, BuildHasherDefault<KeyHasher>>,
    /// Physical page -> keys of cached blocks decoded from it. Entries may
    /// linger after a block is evicted via another of its pages; removal
    /// by a dead key is a no-op.
    page_blocks: HashMap<u16, Vec<u64>>,
    /// One bit per 256-byte physical page: set when any cached block was
    /// decoded from bytes on that page.
    page_has_code: [u64; 64],
    seg: SegMap,
    seg_key: Option<(u8, u8, u8, u8)>,
    /// Identity + epoch of the memory these blocks were decoded from; any
    /// mismatch at entry triggers a full flush.
    mem_stamp: Option<(u64, u64)>,
}

impl Default for ExecEngine {
    fn default() -> ExecEngine {
        ExecEngine {
            blocks: HashMap::default(),
            page_blocks: HashMap::new(),
            page_has_code: [0; 64],
            seg: crate::mem::Mmu::new().seg_map(0),
            seg_key: None,
            mem_stamp: None,
        }
    }
}

impl ExecEngine {
    fn sync_seg(&mut self, cpu: &Cpu) {
        let key = (
            cpu.mmu.segsize,
            cpu.mmu.dataseg,
            cpu.mmu.stackseg,
            cpu.regs.xpc,
        );
        if self.seg_key != Some(key) {
            self.seg = cpu.mmu.seg_map(cpu.regs.xpc);
            self.seg_key = Some(key);
        }
    }

    fn flush_all(&mut self, mem: &mut Memory) {
        self.blocks.clear();
        self.page_blocks.clear();
        self.page_has_code = [0; 64];
        // No code pages left: stores stop recording dirty pages entirely
        // until new blocks are inserted.
        mem.code_pages = [0; 64];
    }

    fn insert(&mut self, key: u64, block: &Rc<Block>, mem: &mut Memory) {
        if self.blocks.len() >= MAX_CACHED_BLOCKS {
            self.flush_all(mem);
        }
        for &page in &block.pages {
            self.page_has_code[usize::from(page >> 6)] |= 1 << (page & 63);
            // Mirror into the memory-side filter so only stores that can
            // actually hit cached code pay the dirty-tracking cost.
            mem.code_pages[usize::from(page >> 6)] |= 1 << (page & 63);
            self.page_blocks.entry(page).or_default().push(key);
        }
        self.blocks.insert(key, Rc::clone(block));
    }

    /// Consumes `mem.dirty_pages`, evicting cached blocks decoded from any
    /// dirtied page. Returns true if `current` itself was hit (the caller
    /// must abort replaying it).
    fn drain_dirty(&mut self, mem: &mut Memory, current: Option<&Block>) -> bool {
        let mut conflict = false;
        while let Some(page) = mem.dirty_pages.pop() {
            if let Some(cur) = current {
                if cur.pages.contains(&page) {
                    conflict = true;
                }
            }
            if self.page_has_code[usize::from(page >> 6)] & (1 << (page & 63)) != 0 {
                if let Some(keys) = self.page_blocks.remove(&page) {
                    for k in keys {
                        self.blocks.remove(&k);
                    }
                }
                self.page_has_code[usize::from(page >> 6)] &= !(1 << (page & 63));
            }
        }
        conflict
    }
}

impl Cpu {
    /// Runs until `halt`, a fault, or `max_cycles`, like [`Cpu::run`], but
    /// through the block-caching engine. Cycle counts, registers, memory,
    /// and faults match the interpreter exactly; the only scheduling
    /// difference is that interrupts are sampled at block boundaries (at
    /// most [`BLOCK_CAP`] instructions apart) and `io.tick` receives one
    /// batched call per block.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Fault`], exactly as [`Cpu::run`] does.
    pub fn run_fast<I: IoSpace + ?Sized>(
        &mut self,
        mem: &mut Memory,
        io: &mut I,
        max_cycles: u64,
    ) -> Result<u64, Fault> {
        let mut engine = self.engine.take().unwrap_or_default();
        // Any mutation the engine did not observe (interpreter runs,
        // `Memory::load`, a different Memory instance) invalidates
        // everything.
        if engine.mem_stamp != Some((mem.mem_id, mem.store_epoch)) {
            engine.flush_all(mem);
        }
        mem.track_dirty = true;
        mem.dirty_pages.clear();
        let result = self.run_blocks(&mut engine, mem, io, max_cycles);
        engine.drain_dirty(mem, None);
        mem.track_dirty = false;
        engine.mem_stamp = Some((mem.mem_id, mem.store_epoch));
        self.engine = Some(engine);
        result
    }

    fn run_blocks<I: IoSpace + ?Sized>(
        &mut self,
        engine: &mut ExecEngine,
        mem: &mut Memory,
        io: &mut I,
        max_cycles: u64,
    ) -> Result<u64, Fault> {
        let start = self.cycles;
        while !self.halted && self.cycles - start < max_cycles {
            // Interrupt sampling and prefixed instructions go through the
            // interpreter, which replicates `step`'s behaviour exactly.
            if self.io_prefix.is_some() {
                self.step(mem, io)?;
                engine.drain_dirty(mem, None);
                continue;
            }
            if let Some(req) = io.pending_interrupt() {
                if req.priority & 3 > self.priority() {
                    self.step(mem, io)?;
                    engine.drain_dirty(mem, None);
                    continue;
                }
            }

            engine.sync_seg(self);
            let block_pc = self.regs.pc;
            let key = block_key(self.regs.pc, self);
            let block = if let Some(b) = engine.blocks.get(&key) {
                Rc::clone(b)
            } else {
                let b = decode_block(&engine.seg, mem, self.regs.pc);
                if b.body.is_empty() && b.term.is_none() {
                    // Barrier at the block start: interpret one
                    // instruction and try again from the next PC.
                    self.step(mem, io)?;
                    engine.drain_dirty(mem, None);
                    continue;
                }
                let b = Rc::new(b);
                engine.insert(key, &b, mem);
                b
            };

            // The interpreter starts an instruction only while the budget
            // is not yet used up. When the block's last instruction starts
            // inside the budget, the whole block runs; otherwise only the
            // prefix of body ops that start inside it does, and the run
            // ends on exactly the interpreter's instruction boundary.
            let left = max_cycles - (self.cycles - start);
            let (body_len, term) = if u64::from(block.lead) < left {
                (block.body.len(), block.term)
            } else {
                (block.body_within(left), None)
            };
            let map = engine.seg;
            let mut acc: u32 = 0;
            let mut aborted = false;
            let mut retired: u64 = 0;
            let mut body_retired: usize = 0;
            for dop in &block.body[..body_len] {
                self.exec_body(dop.op, mem, &map);
                acc += u32::from(dop.cycles);
                retired += 1;
                body_retired += 1;
                self.regs.pc = dop.next_pc;
                if !mem.dirty_pages.is_empty() && engine.drain_dirty(mem, Some(&block)) {
                    // The block modified its own code: resume at the next
                    // instruction, which will be freshly decoded.
                    aborted = true;
                    break;
                }
            }
            let mut term_cycles = None;
            if let (false, Some((op, next_pc))) = (aborted, term) {
                let c = self.exec_term(op, next_pc, mem, &map);
                term_cycles = Some(c);
                acc += c;
                retired += 1;
                if !mem.dirty_pages.is_empty() {
                    engine.drain_dirty(mem, None);
                }
            }
            self.cycles += u64::from(acc);
            self.instructions += retired;
            io.tick(u64::from(acc));
            if self.profiler.is_some() {
                self.profile_block(&block, block_pc, body_retired, term_cycles);
            }
        }
        Ok(self.cycles - start)
    }

    /// Replays a just-executed block's PC chain into the profiler. The
    /// body ops carry their own cycle costs; the terminator's actual cost
    /// (`term_cycles`, `None` when the block aborted or had no
    /// terminator) disambiguates taken vs not-taken `ret cc`. Only called
    /// when a profiler is attached — the disabled-path cost is one
    /// `is_some` check per block.
    fn profile_block(
        &mut self,
        block: &Block,
        block_pc: u16,
        body_retired: usize,
        term_cycles: Option<u32>,
    ) {
        let Some(p) = self.profiler.as_mut() else {
            return;
        };
        let mut pc = block_pc;
        for dop in block.body.iter().take(body_retired) {
            p.record(pc, u64::from(dop.cycles));
            pc = dop.next_pc;
        }
        if let (Some(cycles), Some((op, _))) = (term_cycles, block.term) {
            // Record before the frame change, as the interpreter does.
            p.record(pc, u64::from(cycles));
            match op {
                Op::Call(nn) => p.call(nn),
                Op::Rst(target) => p.call(target),
                Op::Ret | Op::Reti => p.ret(),
                Op::RetCc(_) if cycles == 8 => p.ret(),
                _ => {}
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_body(&mut self, op: Op, mem: &mut Memory, map: &SegMap) {
        match op {
            Op::Nop => {}
            Op::Ld16(dd, v) => self.regs.set16(dd, v),
            Op::Ld8Imm(r, n) => self.regs.set8(r, n),
            Op::StIndA(p) => {
                let addr = self.regs.get16(p);
                wr8(mem, map, addr, self.regs.a);
            }
            Op::LdAInd(p) => {
                let addr = self.regs.get16(p);
                self.regs.a = rd8(mem, map, addr);
            }
            Op::Inc16(dd) => {
                let v = self.regs.get16(dd).wrapping_add(1);
                self.regs.set16(dd, v);
            }
            Op::Dec16(dd) => {
                let v = self.regs.get16(dd).wrapping_sub(1);
                self.regs.set16(dd, v);
            }
            Op::Inc8(r) => {
                let v = self.regs.get8(r);
                let res = self.inc8val(v);
                self.regs.set8(r, res);
            }
            Op::Dec8(r) => {
                let v = self.regs.get8(r);
                let res = self.dec8val(v);
                self.regs.set8(r, res);
            }
            Op::IncMhl => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr);
                let res = self.inc8val(v);
                wr8(mem, map, addr, res);
            }
            Op::DecMhl => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr);
                let res = self.dec8val(v);
                wr8(mem, map, addr, res);
            }
            Op::LdMhlImm(n) => {
                let addr = self.regs.hl();
                wr8(mem, map, addr, n);
            }
            Op::Rlca => {
                let a = self.regs.a;
                self.regs.set_flag(Flags::C, a & 0x80 != 0);
                self.regs.a = a.rotate_left(1);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
            }
            Op::Rrca => {
                let a = self.regs.a;
                self.regs.set_flag(Flags::C, a & 1 != 0);
                self.regs.a = a.rotate_right(1);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
            }
            Op::Rla => {
                let a = self.regs.a;
                let c = u8::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, a & 0x80 != 0);
                self.regs.a = (a << 1) | c;
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
            }
            Op::Rra => {
                let a = self.regs.a;
                let c = u8::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, a & 1 != 0);
                self.regs.a = (a >> 1) | (c << 7);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
            }
            Op::ExAf => self.regs.swap_af(),
            Op::AddHl(ss) => {
                let hl = self.regs.hl();
                let v = self.regs.get16(ss);
                let res = self.add16(hl, v);
                self.regs.set16(Reg16::Hl, res);
            }
            Op::AddIdx(idx, ss) => {
                let a = self.regs.get16(idx);
                let b = self.regs.get16(ss);
                let res = self.add16(a, b);
                self.regs.set16(idx, res);
            }
            Op::StAbs16(nn, dd) => {
                let v = self.regs.get16(dd);
                wr16(mem, map, nn, v);
            }
            Op::LdAbs16(dd, nn) => {
                let v = rd16(mem, map, nn);
                self.regs.set16(dd, v);
            }
            Op::StAbsA(nn) => wr8(mem, map, nn, self.regs.a),
            Op::LdAbsA(nn) => self.regs.a = rd8(mem, map, nn),
            Op::AddSp(d) => self.regs.sp = self.regs.sp.wrapping_add_signed(i16::from(d)),
            Op::Cpl => {
                self.regs.a = !self.regs.a;
                self.regs.set_flag(Flags::H, true);
                self.regs.set_flag(Flags::N, true);
            }
            Op::Scf => {
                self.regs.set_flag(Flags::C, true);
                self.regs.set_flag(Flags::H, false);
                self.regs.set_flag(Flags::N, false);
            }
            Op::Ccf => {
                let c = self.regs.flag(Flags::C);
                self.regs.set_flag(Flags::H, c);
                self.regs.set_flag(Flags::C, !c);
                self.regs.set_flag(Flags::N, false);
            }
            Op::LdRR(d, s) => {
                let v = self.regs.get8(s);
                self.regs.set8(d, v);
            }
            Op::LdRMhl(d) => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr);
                self.regs.set8(d, v);
            }
            Op::StMhlR(s) => {
                let addr = self.regs.hl();
                let v = self.regs.get8(s);
                wr8(mem, map, addr, v);
            }
            Op::Alu(code, s) => {
                let v = self.regs.get8(s);
                self.alu(code, v);
            }
            Op::AluMhl(code) => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr);
                self.alu(code, v);
            }
            Op::AluImm(code, n) => self.alu(code, n),
            Op::Pop(qq) => {
                let v = popf(&mut self.regs, mem, map);
                self.regs.set16(qq, v);
            }
            Op::Push(qq) => {
                let v = self.regs.get16(qq);
                pushf(&mut self.regs, mem, map, v);
            }
            Op::LdHlSpN(n) => {
                let addr = self.regs.sp.wrapping_add(u16::from(n));
                let v = rd16(mem, map, addr);
                self.regs.set16(Reg16::Hl, v);
            }
            Op::StSpNHl(n) => {
                let addr = self.regs.sp.wrapping_add(u16::from(n));
                let hl = self.regs.hl();
                wr16(mem, map, addr, hl);
            }
            Op::BoolHl => {
                let hl = self.regs.hl();
                let v = u16::from(hl != 0);
                self.regs.set16(Reg16::Hl, v);
                self.regs.set_flag(Flags::C, false);
                self.regs.set_flag(Flags::Z, v == 0);
                self.regs.set_flag(Flags::S, false);
            }
            Op::AndHlDe => {
                let v = self.regs.hl() & self.regs.de();
                self.regs.set16(Reg16::Hl, v);
                self.regs.set_flag(Flags::Z, v == 0);
                self.regs.set_flag(Flags::S, v & 0x8000 != 0);
                self.regs.set_flag(Flags::C, false);
            }
            Op::OrHlDe => {
                let v = self.regs.hl() | self.regs.de();
                self.regs.set16(Reg16::Hl, v);
                self.regs.set_flag(Flags::Z, v == 0);
                self.regs.set_flag(Flags::S, v & 0x8000 != 0);
                self.regs.set_flag(Flags::C, false);
            }
            Op::RrHl => {
                let hl = self.regs.hl();
                let c = u16::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, hl & 1 != 0);
                self.regs.set16(Reg16::Hl, (hl >> 1) | (c << 15));
            }
            Op::RlDe => {
                let de = self.regs.de();
                let c = u16::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, de & 0x8000 != 0);
                self.regs.set16(Reg16::De, (de << 1) | c);
            }
            Op::RrDe => {
                let de = self.regs.de();
                let c = u16::from(self.regs.flag(Flags::C));
                self.regs.set_flag(Flags::C, de & 1 != 0);
                self.regs.set16(Reg16::De, (de >> 1) | (c << 15));
            }
            Op::Mul => {
                let bc = self.regs.bc() as i16;
                let de = self.regs.de() as i16;
                let prod = i32::from(bc) * i32::from(de);
                self.regs.set16(Reg16::Hl, (prod >> 16) as u16);
                self.regs.set16(Reg16::Bc, prod as u16);
            }
            Op::Exx => self.regs.swap_main(),
            Op::ExDeHl => {
                let de = self.regs.de();
                let hl = self.regs.hl();
                self.regs.set16(Reg16::De, hl);
                self.regs.set16(Reg16::Hl, de);
            }
            Op::ExSp(r) => {
                let sp = self.regs.sp;
                let v = rd16(mem, map, sp);
                let cur = self.regs.get16(r);
                wr16(mem, map, sp, cur);
                self.regs.set16(r, v);
            }
            Op::LdSp(r) => self.regs.sp = self.regs.get16(r),
            Op::CbRot(field, r) => {
                let v = self.regs.get8(r);
                let res = self.rot8(field, v);
                self.regs.set8(r, res);
            }
            Op::CbRotMhl(field) => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr);
                let res = self.rot8(field, v);
                wr8(mem, map, addr, res);
            }
            Op::CbBit(field, r) => {
                let v = self.regs.get8(r);
                self.bit_flags(field, v);
            }
            Op::CbBitMhl(field) => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr);
                self.bit_flags(field, v);
            }
            Op::CbRes(field, r) => {
                let v = self.regs.get8(r) & !(1 << field);
                self.regs.set8(r, v);
            }
            Op::CbResMhl(field) => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr) & !(1 << field);
                wr8(mem, map, addr, v);
            }
            Op::CbSet(field, r) => {
                let v = self.regs.get8(r) | (1 << field);
                self.regs.set8(r, v);
            }
            Op::CbSetMhl(field) => {
                let addr = self.regs.hl();
                let v = rd8(mem, map, addr) | (1 << field);
                wr8(mem, map, addr, v);
            }
            Op::Sbc16(ss) => {
                let hl = self.regs.hl();
                let v = self.regs.get16(ss);
                let res = self.sbc16(hl, v);
                self.regs.set16(Reg16::Hl, res);
            }
            Op::Adc16(ss) => {
                let hl = self.regs.hl();
                let v = self.regs.get16(ss);
                let res = self.adc16(hl, v);
                self.regs.set16(Reg16::Hl, res);
            }
            Op::Neg => {
                let a = self.regs.a;
                self.regs.a = 0;
                self.sub8(a, false, true);
            }
            Op::LdAXpc => self.regs.a = self.regs.xpc,
            Op::IncMidx(idx, d) => {
                let addr = self.regs.get16(idx).wrapping_add_signed(i16::from(d));
                let v = rd8(mem, map, addr);
                let res = self.inc8val(v);
                wr8(mem, map, addr, res);
            }
            Op::DecMidx(idx, d) => {
                let addr = self.regs.get16(idx).wrapping_add_signed(i16::from(d));
                let v = rd8(mem, map, addr);
                let res = self.dec8val(v);
                wr8(mem, map, addr, res);
            }
            Op::StMidxImm(idx, d, n) => {
                let addr = self.regs.get16(idx).wrapping_add_signed(i16::from(d));
                wr8(mem, map, addr, n);
            }
            Op::LdRMidx(r, idx, d) => {
                let addr = self.regs.get16(idx).wrapping_add_signed(i16::from(d));
                let v = rd8(mem, map, addr);
                self.regs.set8(r, v);
            }
            Op::StMidxR(idx, d, r) => {
                let addr = self.regs.get16(idx).wrapping_add_signed(i16::from(d));
                let v = self.regs.get8(r);
                wr8(mem, map, addr, v);
            }
            Op::AluMidx(code, idx, d) => {
                let addr = self.regs.get16(idx).wrapping_add_signed(i16::from(d));
                let v = rd8(mem, map, addr);
                self.alu(code, v);
            }
            _ => unreachable!("terminal op in block body"),
        }
    }

    fn bit_flags(&mut self, field: u8, v: u8) {
        let set = v & (1 << field) != 0;
        self.regs.set_flag(Flags::Z, !set);
        self.regs.set_flag(Flags::H, true);
        self.regs.set_flag(Flags::N, false);
    }

    fn exec_term(&mut self, op: Op, next_pc: u16, mem: &mut Memory, map: &SegMap) -> u32 {
        match op {
            Op::Jp(nn) => {
                self.regs.pc = nn;
                7
            }
            Op::JpCc(cc, nn) => {
                self.regs.pc = if cc.holds(&self.regs) { nn } else { next_pc };
                7
            }
            Op::Jr(target) => {
                self.regs.pc = target;
                5
            }
            Op::JrCc(cc, target) => {
                self.regs.pc = if cc.holds(&self.regs) { target } else { next_pc };
                5
            }
            Op::Djnz(target) => {
                self.regs.b = self.regs.b.wrapping_sub(1);
                self.regs.pc = if self.regs.b != 0 { target } else { next_pc };
                5
            }
            Op::Call(nn) => {
                pushf(&mut self.regs, mem, map, next_pc);
                self.regs.pc = nn;
                12
            }
            Op::Rst(target) => {
                pushf(&mut self.regs, mem, map, next_pc);
                self.regs.pc = target;
                10
            }
            Op::Ret => {
                self.regs.pc = popf(&mut self.regs, mem, map);
                8
            }
            Op::RetCc(cc) => {
                if cc.holds(&self.regs) {
                    self.regs.pc = popf(&mut self.regs, mem, map);
                    8
                } else {
                    self.regs.pc = next_pc;
                    2
                }
            }
            Op::Reti => {
                self.ipres();
                self.regs.pc = popf(&mut self.regs, mem, map);
                12
            }
            Op::JpHl => {
                self.regs.pc = self.regs.hl();
                4
            }
            Op::JpIdx(idx) => {
                self.regs.pc = self.regs.get16(idx);
                6
            }
            Op::Halt => {
                self.halted = true;
                self.regs.pc = next_pc;
                2
            }
            Op::Ipset(n) => {
                self.ipset(n);
                self.regs.pc = next_pc;
                4
            }
            Op::Ipres => {
                self.ipres();
                self.regs.pc = next_pc;
                4
            }
            _ => unreachable!("body op in terminal slot"),
        }
    }
}

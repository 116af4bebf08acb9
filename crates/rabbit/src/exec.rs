//! Block-caching execution engine.
//!
//! [`Cpu::run_fast`] is a drop-in replacement for [`Cpu::run`] that decodes
//! straight-line instruction runs into cached `Block`s of micro-ops and
//! replays them without re-fetching, re-decoding, or re-translating every
//! byte. It is *cycle-exact and state-exact* with respect to the `step`
//! interpreter — the differential tests in `tests/differential.rs` pin that
//! invariant — and it takes an interrupt before the same instruction as
//! the interpreter whenever the I/O space reports its
//! [`IoSpace::horizon`] (`tests/interrupts.rs` pins that).
//!
//! Interrupt sampling: the interpreter polls the interrupt line before
//! every instruction. Inside one engine run only three things can change
//! that line: a device event, which the horizon bounds; an I/O-prefixed
//! instruction; and an interrupt dispatch. The engine therefore samples
//! the line (and the horizon) when it enters, after each of those two
//! interpreted steps, and when the horizon runs out, and it ends a block
//! at the horizon as it ends one at the budget. Between samples it
//! compares the cached request with the current priority before every
//! block, so `ipres`/`reti` unmask a pending request at the interpreter's
//! instruction too. An I/O space whose horizon is unknown (`None`, the
//! trait default) is sampled before every block and never splits one: a
//! pending request may then be taken up to one block ([`BLOCK_CAP`]
//! instructions) late.
//!
//! Design notes:
//!
//! * A block is keyed by `(PC, SEGSIZE, DATASEG, STACKSEG, XPC)` so a
//!   remapped MMU can never replay code decoded under a different mapping.
//! * Blocks end at control transfers, `halt`, `ipset`/`ipres`/`reti`, the
//!   decode cap, or a *barrier*: an instruction the decoder refuses
//!   (`ioi`/`ioe` prefixes, `ld xpc,a`, the `ldir` family, invalid
//!   opcodes). Barriers fall back to one interpreted `step`, so the engine
//!   never changes what executes — only how fast. A barrier at a block's
//!   start is cached too, as an empty block that sends the engine to the
//!   interpreter without decoding again.
//! * Each memory keeps its own key-to-block map, because SRAM code and
//!   eviction are its own. A miss first asks the memory's flash image,
//!   which keeps every block whose bytes all lie in flash for all memories
//!   on that image, and decodes only when the image has none; flash never
//!   changes under an image, so a shared block never goes stale.
//! * A *frozen* cache ([`Memory::freeze_cache`]) takes in nothing: a run
//!   that reaches a block the memory's map lacks ends before it, at that
//!   instruction boundary, so the run decodes, inserts and allocates
//!   nothing. The fleet freezes the caches of boards it runs on worker
//!   threads, so every decode and every map insert stays on one thread.
//! * Data accesses inside a block translate through a [`SegMap`], the
//!   per-segment translation cache compiled from the MMU registers; the
//!   mapping cannot change mid-block because every instruction that could
//!   change it ends (or falls outside) the block.
//! * Invalidation has one path. The cache lives in the [`Memory`] it was
//!   decoded from, which keeps one bit per 256-byte page holding cached
//!   code. Any store to such a page clears the bit and records the page,
//!   whoever makes it: a block, an interpreted step, another CPU on the
//!   same memory, a host `write_phys`, or a [`Memory::load`] into SRAM.
//!   Runtime stores to flash are dropped, so only a load can change flash
//!   code, and a load that does empties the memory's whole map instead;
//!   blocks decoded from flash alone are therefore never listed by page.
//!   The engine drains the record when it enters, after each
//!   block and after each interpreted step, evicting the blocks decoded
//!   from each recorded page; a block checks the record after each store
//!   and aborts if its own pages were hit, resuming at the next
//!   instruction. Stores to other pages, such as the stack push of an
//!   interrupt dispatch, leave the cache alone. The only whole-cache
//!   flushes are the size cap and a load that changes flash.
//! * The cycle budget is exact per block. Body ops have fixed costs, so a
//!   block knows at decode time when its last instruction starts (its
//!   *lead* cycles). A block whose lead fits the remaining budget runs
//!   whole; otherwise only the prefix the interpreter would run executes,
//!   ending at the first instruction boundary at or past the budget. The
//!   only interpreted instructions are barriers and interrupt dispatch.
//! * `io.tick` is batched: the engine owes the I/O space the cycles of
//!   the blocks it runs and delivers them before each sample and each
//!   interpreted step. At exit it delivers everything before the final
//!   block, samples, and ticks the final block's cycles last: the state
//!   a sample before every block leaves, so a bus device that batches
//!   its ticks sees the run end at the same point either way.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use crate::cpu::{Cond, Cpu, Fault};
use crate::io::IoSpace;
use crate::mem::{Memory, SegMap, FLASH_SIZE};
use crate::registers::{Flags, Reg16, Reg8, Registers};

/// Maximum number of straight-line instructions decoded into one block.
/// Bounds the interrupt-sampling latency of an I/O space with an unknown
/// horizon; the cycle budget is exact whatever the block length.
pub const BLOCK_CAP: usize = 32;

/// Cached blocks are dropped wholesale when a memory's cache, or an
/// image's shared store, grows past this.
const MAX_CACHED_BLOCKS: usize = 1 << 16;

/// Pages below this are flash pages.
const FLASH_PAGES: u16 = (FLASH_SIZE >> 8) as u16;

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

/// A body op plus its fixed cycle cost and its length in bytes (the step
/// to the next instruction, where the block resumes if it aborts after
/// this op). Six bytes: the cache keeps every block it decodes.
#[derive(Debug, Clone, Copy)]
struct DecOp {
    op: Op,
    cycles: u8,
    len: u8,
}

/// A decoded straight-line run. An empty block (no body, no terminator)
/// marks a barrier at its start PC, which the engine interprets.
#[derive(Debug)]
pub(crate) struct Block {
    body: Box<[DecOp]>,
    /// Terminating op and the logical PC following it (the fall-through
    /// target). `None` when the block ended at a barrier or the cap.
    term: Option<(Op, u16)>,
    /// Cycles of every instruction before the last one: the offset at
    /// which the last instruction starts. Exact, because only the
    /// terminator's cost varies.
    lead: u32,
    /// The first and the last 256-byte physical page the decoded bytes
    /// came from (equal when there is one); a store to either
    /// invalidates the block.
    pages: [u16; 2],
}

// A block's bytes are contiguous and at most `(BLOCK_CAP + 1) * 4` long
// (no instruction is longer than 4 bytes), so they lie on at most two
// pages: the first and the last one read.
const _: () = assert!((BLOCK_CAP + 1) * 4 <= 256);

impl Block {
    /// The one or two physical pages the block was decoded from.
    fn pages(&self) -> &[u16] {
        let n = if self.pages[0] == self.pages[1] { 1 } else { 2 };
        &self.pages[..n]
    }

    /// Whether the block start is a barrier: nothing to replay.
    fn is_barrier(&self) -> bool {
        self.body.is_empty() && self.term.is_none()
    }

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
/// [`SegMap`] snapshot and records the physical page it read last.
struct Cursor<'a> {
    pc: u16,
    map: &'a SegMap,
    mem: &'a Memory,
    last_page: u16,
}

impl Cursor<'_> {
    fn take8(&mut self) -> u8 {
        let phys = self.map.translate(self.pc);
        self.last_page = (phys >> 8) as u16;
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
    let first_page = (map.translate(start_pc) >> 8) as u16;
    let mut cur = Cursor {
        pc: start_pc,
        map,
        mem,
        last_page: first_page,
    };
    let mut body = Vec::new();
    let mut term = None;
    while body.len() < BLOCK_CAP {
        let pc = cur.pc;
        match decode_one(&mut cur) {
            Dec::Barrier => break,
            Dec::Body(op, cycles) => {
                body.push(DecOp {
                    op,
                    cycles,
                    len: cur.pc.wrapping_sub(pc) as u8,
                });
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
        pages: [first_page, cur.last_page],
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

type BlockMap = HashMap<u64, Arc<Block>, BuildHasherDefault<KeyHasher>>;

/// The blocks decoded from one flash image alone, shared by every memory
/// on that image. Behind a lock so boards on one image can run on
/// different threads.
#[derive(Default)]
pub(crate) struct SharedBlocks(Mutex<BlockMap>);

/// Exact work counts of one memory's block cache. Plain counters, read
/// through [`Memory::cache_stats`]; they feed no telemetry registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Blocks decoded from memory (barriers excluded).
    pub decodes: u64,
    /// Decodes that found a barrier at the start PC.
    pub barrier_decodes: u64,
    /// Blocks and barriers entered into this memory's map.
    pub inserts: u64,
    /// Misses the flash image's shared store answered without a decode.
    pub shared_hits: u64,
    /// Runs a frozen cache ended before a block it lacked
    /// ([`Memory::freeze_cache`]).
    pub frozen_misses: u64,
}

/// The block cache: blocks decoded from one [`Memory`], owned by it and
/// reused by every [`Cpu::run_fast`] call on it.
pub struct ExecEngine {
    blocks: BlockMap,
    /// Physical page -> keys of the cached blocks decoded from it, for
    /// blocks with at least one SRAM page.
    page_blocks: HashMap<u16, Vec<u64>>,
    seg: SegMap,
    seg_key: Option<(u8, u8, u8, u8)>,
    pub(crate) stats: CacheStats,
}

impl Default for ExecEngine {
    fn default() -> ExecEngine {
        ExecEngine {
            blocks: HashMap::default(),
            page_blocks: HashMap::new(),
            seg: crate::mem::Mmu::new().seg_map(0),
            seg_key: None,
            stats: CacheStats::default(),
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

    /// Drops every cached block; the work counters stay.
    pub(crate) fn forget_blocks(&mut self) {
        self.blocks.clear();
        self.page_blocks.clear();
    }

    /// The block (or barrier) at `pc` under the current mapping: from
    /// this memory's map, else from the flash image's store, else freshly
    /// decoded. `None` when the cache is frozen and lacks it.
    fn lookup(&mut self, key: u64, pc: u16, mem: &mut Memory) -> Option<&Block> {
        if mem.cache_frozen {
            // `get`, not `entry`: a vacant entry reserves map room.
            let hit = self.blocks.get(&key).map(|b| &**b);
            self.stats.frozen_misses += u64::from(hit.is_none());
            return hit;
        }
        if self.blocks.len() >= MAX_CACHED_BLOCKS && !self.blocks.contains_key(&key) {
            self.forget_blocks();
            mem.code_pages = [0; 64];
        }
        let slot = match self.blocks.entry(key) {
            Entry::Occupied(e) => return Some(e.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let block = fetch(&self.seg, mem, key, pc, &mut self.stats);
        // Flash changes only by a load, which empties the whole map: a
        // block decoded from flash alone needs no page listing.
        if block.pages().iter().any(|&p| p >= FLASH_PAGES) {
            for &page in block.pages() {
                mem.code_pages[usize::from(page >> 6)] |= 1 << (page & 63);
                self.page_blocks.entry(page).or_default().push(key);
            }
        }
        self.stats.inserts += 1;
        Some(slot.insert(block))
    }

    /// Consumes `mem.dirty_pages`, evicting cached blocks decoded from any
    /// page stored to.
    fn drain_dirty(&mut self, mem: &mut Memory) {
        for page in mem.dirty_pages.drain(..) {
            for k in self.page_blocks.remove(&page).unwrap_or_default() {
                let Some(block) = self.blocks.remove(&k) else {
                    continue;
                };
                // Unlist it from its other pages too, so a long-lived
                // cache keeps no dead keys.
                for other in block.pages().iter().filter(|&&p| p != page) {
                    if let Some(keys) = self.page_blocks.get_mut(other) {
                        keys.retain(|&x| x != k);
                    }
                }
            }
        }
    }
}

/// A block this memory has not cached: the flash image's copy, else a
/// fresh decode, which the image keeps when both its pages are flash
/// pages.
fn fetch(map: &SegMap, mem: &Memory, key: u64, pc: u16, stats: &mut CacheStats) -> Arc<Block> {
    let mut shared = mem.flash.blocks.0.lock().expect("shared block store poisoned");
    if let Some(b) = shared.get(&key) {
        stats.shared_hits += 1;
        return Arc::clone(b);
    }
    let block = Arc::new(decode_block(map, mem, pc));
    if block.is_barrier() {
        stats.barrier_decodes += 1;
    } else {
        stats.decodes += 1;
    }
    if block.pages.iter().all(|&p| p < FLASH_PAGES) {
        if shared.len() >= MAX_CACHED_BLOCKS {
            shared.clear();
        }
        shared.insert(key, Arc::clone(&block));
    }
    block
}

impl Cpu {
    /// Runs until `halt`, a fault, or `max_cycles`, like [`Cpu::run`], but
    /// through the block-caching engine. Cycle counts, registers, memory,
    /// and faults match the interpreter exactly. So does the instruction
    /// before which an interrupt is taken, when `io` reports its
    /// [`IoSpace::horizon`]: the engine samples the line at entry, after
    /// I/O-prefixed instructions and dispatches, and at the horizon, where
    /// it ends a block. With an unknown horizon it samples before every
    /// block instead. `io.tick` receives the run's cycles in batches (see
    /// the module docs).
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
        let mut engine = mem.cache.take().unwrap_or_default();
        // Stores made since the last run, by anyone, evict their pages.
        engine.drain_dirty(mem);
        let result = self.run_blocks(&mut engine, mem, io, max_cycles);
        mem.cache = Some(engine);
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
        // The last interrupt sample, and the cycle count up to which it
        // holds (`None`: sample before the next block).
        let mut irq = None;
        let mut holds_until: Option<u64> = None;
        // Block cycles not yet ticked into `io`, the most recent block's
        // share of them, and whether a step has ticked `io` since it was
        // last sampled.
        let mut owed: u64 = 0;
        let mut last: u64 = 0;
        let mut stepped = false;
        while !self.halted && self.cycles - start < max_cycles {
            // Prefixed instructions and interrupt dispatch go through the
            // interpreter, which replicates `step`'s behaviour exactly.
            // Both can change the interrupt line: sample again after them.
            if self.io_prefix.is_some() {
                self.step_settled(engine, mem, io, &mut owed)?;
                holds_until = None;
                continue;
            }
            if holds_until.is_none_or(|t| self.cycles >= t) {
                if owed > 0 {
                    io.tick(std::mem::take(&mut owed));
                }
                irq = io.pending_interrupt();
                holds_until = io.horizon().map(|h| self.cycles.saturating_add(h.max(1)));
                stepped = false;
            }
            if irq.is_some_and(|req| req.priority & 3 > self.priority()) {
                self.step_settled(engine, mem, io, &mut owed)?;
                holds_until = None;
                continue;
            }

            engine.sync_seg(self);
            let map = engine.seg;
            let block_pc = self.regs.pc;
            let key = block_key(block_pc, self);
            let Some(block) = engine.lookup(key, block_pc, mem) else {
                // A frozen cache lacks the block: end the run before it,
                // as the budget would.
                break;
            };
            if block.is_barrier() {
                // Barrier at the block start: interpret one instruction
                // and try again from the next PC. An `ioi`/`ioe` prefix
                // byte, `ld xpc,a`, the `ldir` family and `pop ip` cannot
                // reach the bus, so the sample still holds.
                self.step_settled(engine, mem, io, &mut owed)?;
                stepped = true;
                continue;
            }

            // The interpreter starts an instruction only while the budget
            // is not yet used up, and samples interrupts before each one.
            // The block therefore ends at the budget or the horizon,
            // whichever comes first: when its last instruction starts
            // inside that limit the whole block runs; otherwise only the
            // prefix of body ops that start inside it does, and the run
            // stops on exactly the interpreter's instruction boundary.
            let left = max_cycles - (self.cycles - start);
            let limit = holds_until.map_or(left, |t| left.min(t - self.cycles));
            let (body_len, term) = if u64::from(block.lead) < limit {
                (block.body.len(), block.term)
            } else {
                (block.body_within(limit), None)
            };
            let mut acc: u32 = 0;
            let mut aborted = false;
            let mut retired: u64 = 0;
            let mut body_retired: usize = 0;
            for dop in &block.body[..body_len] {
                self.exec_body(dop.op, mem, &map);
                acc += u32::from(dop.cycles);
                retired += 1;
                body_retired += 1;
                self.regs.pc = self.regs.pc.wrapping_add(u16::from(dop.len));
                if !mem.dirty_pages.is_empty()
                    && mem.dirty_pages.iter().any(|p| block.pages.contains(p))
                {
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
            }
            self.cycles += u64::from(acc);
            self.instructions += retired;
            last = u64::from(acc);
            owed += last;
            if self.profiler.is_some() {
                self.profile_block(block, block_pc, body_retired, term_cycles);
            }
            // Evict what the block stored to, itself included, once it
            // no longer borrows the cache.
            if !mem.dirty_pages.is_empty() {
                engine.drain_dirty(mem);
            }
        }
        // Leave `io` where sampling before every block leaves it:
        // everything before the final block delivered and sampled (a bus
        // flushes there), then the final block's cycles ticked, which a
        // bus may hold back from a device with a tick quantum until the
        // next run.
        if owed > 0 {
            if owed > last || stepped {
                io.tick(owed - last);
                let _ = io.pending_interrupt();
            }
            io.tick(last);
        }
        Ok(self.cycles - start)
    }

    /// One interpreted [`Cpu::step`], after delivering the block cycles
    /// `io` is owed.
    fn step_settled<I: IoSpace + ?Sized>(
        &mut self,
        engine: &mut ExecEngine,
        mem: &mut Memory,
        io: &mut I,
        owed: &mut u64,
    ) -> Result<(), Fault> {
        if *owed > 0 {
            io.tick(std::mem::take(owed));
        }
        self.step(mem, io)?;
        engine.drain_dirty(mem);
        Ok(())
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
            pc = pc.wrapping_add(u16::from(dop.len));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{Interrupt, NullIo};
    use crate::mem::SRAM_BASE;
    use crate::Engine;

    /// Requests one priority-1 interrupt at vector `0x0200`.
    struct OneIrq(bool);

    impl IoSpace for OneIrq {
        fn io_read(&mut self, _addr: u16, _external: bool) -> u8 {
            0xFF
        }
        fn io_write(&mut self, _addr: u16, _v: u8, _external: bool) {}
        fn pending_interrupt(&mut self) -> Option<Interrupt> {
            self.0.then_some(Interrupt {
                priority: 1,
                vector: 0x0200,
            })
        }
        fn acknowledge_interrupt(&mut self, _vector: u16) {
            self.0 = false;
        }
        fn tick(&mut self, _cycles: u64) {}
    }

    fn cached(mem: &Memory, cpu: &Cpu, pc: u16) -> Arc<Block> {
        let engine = mem.cache.as_ref().expect("cache built");
        Arc::clone(engine.blocks.get(&block_key(pc, cpu)).expect("block cached"))
    }

    #[test]
    fn memories_on_one_image_decode_each_flash_block_once() {
        // Flash code at 0x0100, three turns around an `ioi` barrier:
        //   ld b,3 / loop: ioi ld a,(hl) / djnz loop / halt
        let code = [0x06, 0x03, 0xD3, 0x7E, 0x10, 0xFC, 0x76];
        let mut first = Memory::new();
        first.load(0x0100, &code);
        let mut second = Memory::new();
        second.set_flash(first.flash().clone());
        let run = |mem: &mut Memory| {
            let mut cpu = Cpu::new();
            cpu.regs.pc = 0x0100;
            cpu.run_fast(mem, &mut NullIo, 1_000).expect("runs");
            assert!(cpu.halted);
        };
        let stats = |decodes, barrier_decodes, inserts, shared_hits| CacheStats {
            decodes,
            barrier_decodes,
            inserts,
            shared_hits,
            frozen_misses: 0,
        };

        // Three blocks (0x0100, 0x0104, 0x0106) and the barrier at
        // 0x0102, decoded once however often the loop comes back.
        run(&mut first);
        run(&mut first);
        assert_eq!(first.cache_stats(), stats(3, 1, 4, 0));
        // The second memory on the image decodes nothing.
        run(&mut second);
        assert_eq!(second.cache_stats(), stats(0, 0, 4, 4));

        // Reprogramming the second memory's flash gives it a private
        // image with a store of its own; the first keeps the old code.
        second.load(0x0101, &[0x02]);
        assert!(!second.flash().same_image(first.flash()));
        run(&mut second);
        assert_eq!(second.cache_stats(), stats(3, 1, 8, 4));
        assert_eq!(first.read_phys(0x0101), 0x03);
        run(&mut first);
        assert_eq!(first.cache_stats(), stats(3, 1, 4, 0));

        // A load that changes no flash byte keeps the image shared.
        let mut third = Memory::new();
        third.set_flash(first.flash().clone());
        third.load(0x0100, &code);
        assert!(third.flash().same_image(first.flash()));
    }

    #[test]
    fn a_store_to_a_page_without_code_keeps_the_cache() {
        // Flash code at 0x0100: ld a,1 / halt. The stack sits in SRAM.
        let mut mem = Memory::new();
        mem.load(0x0100, &[0x3E, 0x01, 0x76]);
        let mut cpu = Cpu::new();
        cpu.mmu.stackseg = 0x78;
        cpu.regs.sp = 0xDF00;
        cpu.regs.pc = 0x0100;
        cpu.run_fast(&mut mem, &mut NullIo, 100).expect("runs");
        assert!(cpu.halted);
        let before = cached(&mem, &cpu, 0x0100);

        // An interrupt dispatched from `halt` pushes the PC onto the
        // stack page, outside the engine. The next run keeps the block.
        cpu.step(&mut mem, &mut OneIrq(true)).expect("dispatches");
        assert_eq!(cpu.regs.pc, 0x0200);
        cpu.regs.pc = 0x0100;
        cpu.run_fast(&mut mem, &mut NullIo, 100).expect("runs");
        assert!(Arc::ptr_eq(&before, &cached(&mem, &cpu, 0x0100)), "block kept");

        // A load over the code page evicts it: the next run decodes anew.
        mem.load(0x0101, &[0x02]);
        (cpu.regs.pc, cpu.halted) = (0x0100, false);
        cpu.run_fast(&mut mem, &mut NullIo, 100).expect("runs");
        assert!(!Arc::ptr_eq(&before, &cached(&mem, &cpu, 0x0100)), "block evicted");
        assert_eq!(cpu.regs.a, 2);
        assert_eq!(mem.read_phys(SRAM_BASE + 0x5EFE), 0x03, "the pushed PC low byte");
    }

    #[test]
    fn a_load_over_cached_flash_code_empties_only_that_memorys_cache() {
        // Flash code at 0x0100 on one image: ld a,1 / halt.
        let mut first = Memory::new();
        first.load(0x0100, &[0x3E, 0x01, 0x76]);
        let mut second = Memory::new();
        second.set_flash(first.flash().clone());
        let run = |mem: &mut Memory, engine: Engine| {
            let mut cpu = Cpu::new();
            cpu.regs.pc = 0x0100;
            cpu.run_on(engine, mem, &mut NullIo, 100).expect("runs");
            assert!(cpu.halted);
            cpu.regs.a
        };
        assert_eq!(run(&mut first, Engine::BlockCache), 1);
        assert_eq!(run(&mut second, Engine::BlockCache), 1);
        let kept = cached(&second, &Cpu::new(), 0x0100);

        // Reprogram the first memory (ld a,2). Its flash blocks are on no
        // page list, so only emptying its map keeps the old block from
        // being replayed.
        first.load(0x0101, &[0x02]);
        for engine in [Engine::Interpreter, Engine::BlockCache] {
            assert_eq!(run(&mut first, engine), 2, "{engine:?}");
        }

        // The second memory keeps the old image and its cached block.
        assert!(!second.flash().same_image(first.flash()));
        assert_eq!(run(&mut second, Engine::BlockCache), 1);
        assert!(Arc::ptr_eq(&kept, &cached(&second, &Cpu::new(), 0x0100)));
        assert_eq!(second.cache_stats().inserts, 1);
    }

    #[test]
    fn a_frozen_cache_ends_the_run_before_a_block_it_lacks() {
        // Flash code: 0x0100: ld a,1 / jp 0x0110; 0x0110: ld a,2 / halt.
        let mut mem = Memory::new();
        mem.load(0x0100, &[0x3E, 0x01, 0xC3, 0x10, 0x01]);
        mem.load(0x0110, &[0x3E, 0x02, 0x76]);
        let fresh = || {
            let mut cpu = Cpu::new();
            cpu.regs.pc = 0x0100;
            cpu
        };
        // The reference run, on another memory sharing the image: it
        // fills the image's store, which a frozen map does not consult.
        let mut whole = fresh();
        let mut other = Memory::new();
        other.set_flash(mem.flash().clone());
        whole.run_fast(&mut other, &mut NullIo, 100).expect("runs");
        assert!(whole.halted);

        // Frozen and cold: the run stops before the first block.
        let mut cpu = fresh();
        mem.freeze_cache(true);
        assert_eq!(cpu.run_fast(&mut mem, &mut NullIo, 100), Ok(0));
        assert_eq!((cpu.regs.pc, cpu.halted), (0x0100, false));

        // Thawed for the first block only (ld a,1 = 4, jp = 7 cycles),
        // then frozen again: the run stops at the second block's start.
        mem.freeze_cache(false);
        assert_eq!(cpu.run_fast(&mut mem, &mut NullIo, 11), Ok(11));
        let mut cpu = fresh();
        mem.freeze_cache(true);
        assert_eq!(cpu.run_fast(&mut mem, &mut NullIo, 100), Ok(11));
        assert_eq!((cpu.regs.pc, cpu.regs.a, cpu.halted), (0x0110, 1, false));
        let stats = mem.cache_stats();
        assert_eq!((stats.frozen_misses, stats.inserts), (2, 1));

        // Thawed, the rest of the budget ends where one run ends.
        mem.freeze_cache(false);
        cpu.run_fast(&mut mem, &mut NullIo, 100 - 11).expect("runs");
        assert!(cpu.halted);
        assert_eq!(cpu.cycles, whole.cycles);
        assert_eq!(cpu.regs, whole.regs);
    }
}

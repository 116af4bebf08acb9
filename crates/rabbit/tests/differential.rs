//! Differential fuzzing: the block-caching engine (`Cpu::run_fast`) must
//! be cycle- and state-exact against the step interpreter (`Cpu::run`).
//!
//! Each seed builds a random but *terminating* program (forward jumps,
//! bounded `djnz` loops, a halt-filled SRAM so wild control flow lands on
//! `halt` or an invalid opcode deterministically), runs it on both
//! engines from identical initial state, and compares the complete
//! outcome: result (including faults), cycle count, registers, MMU and
//! XPC state, flash write faults, and the full SRAM image.
//!
//! Even-numbered seeds run from flash with randomized MMU mappings and
//! runtime MMU/XPC reprogramming (`ioi ld (SEGSIZE..),a`, `ld xpc,a`);
//! odd-numbered seeds run from SRAM and include self-modifying stores
//! into their own code pages, exercising block invalidation and
//! mid-block aborts. The same corpus also runs as a series of short
//! random budgets, so that runs end inside blocks.

use rabbit::cpu::{Cpu, Fault};
use rabbit::fwmap::Firmware;
use rabbit::io::NullIo;
use rabbit::mem::{Memory, SRAM_BASE, SRAM_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BUDGET: u64 = 500_000;
const SEEDS: u64 = 1200;

/// One-byte instructions that neither touch memory nor transfer control;
/// safe filler and loop bodies.
const POOL: &[u8] = &[
    // inc/dec r
    0x04, 0x0C, 0x14, 0x1C, 0x24, 0x2C, 0x3C, 0x05, 0x0D, 0x15, 0x1D, 0x25, 0x2D, 0x3D,
    // accumulator rotates, cpl/scf/ccf, exchanges
    0x07, 0x0F, 0x17, 0x1F, 0x2F, 0x37, 0x3F, 0x08, 0xD9, 0xEB,
    // 16-bit inc/dec/add
    0x03, 0x13, 0x23, 0x33, 0x0B, 0x1B, 0x2B, 0x3B, 0x09, 0x19, 0x29, 0x39,
    // Rabbit 16-bit ops
    0xCC, 0xDC, 0xEC, 0xFC, 0xF3, 0xFB, 0xF7,
    // alu a,r (no (hl) forms)
    0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x87, 0x90, 0x97, 0xA0, 0xA7, 0xA8, 0xAF, 0xB0, 0xB7,
    0xB8, 0xBF, 0x88, 0x8F, 0x98, 0x9F,
    // ld r,r' (no (hl) forms)
    0x40, 0x41, 0x47, 0x48, 0x4F, 0x50, 0x57, 0x58, 0x5F, 0x60, 0x67, 0x68, 0x6F, 0x78, 0x79,
    0x7A, 0x7B, 0x7C, 0x7D, 0x7F,
];

/// Subset of [`POOL`] that leaves register B (and BC) untouched — safe
/// inside a `djnz` loop body, which must count down to zero.
const LOOP_POOL: &[u8] = &[
    0x0C, 0x14, 0x1C, 0x24, 0x2C, 0x3C, 0x0D, 0x15, 0x1D, 0x25, 0x2D, 0x3D, 0x07, 0x0F, 0x17,
    0x1F, 0x2F, 0x37, 0x3F, 0x13, 0x23, 0x33, 0x1B, 0x2B, 0x3B, 0x09, 0x19, 0x29, 0x39, 0x80,
    0x87, 0x90, 0xA8, 0xAF, 0xB7, 0x57, 0x5F, 0x67, 0x6F, 0x7C, 0x7D,
];

/// Bytes a self-modifying store may write into code: all one-byte,
/// non-control-transfer (or `halt`), so patched code still terminates.
const SAFE_PATCH: &[u8] = &[0x00, 0x3C, 0x04, 0x0C, 0x2F, 0x76];

fn pool_op(rng: &mut StdRng) -> u8 {
    POOL[rng.gen_range(0..POOL.len())]
}

struct Setup {
    segsize: u8,
    dataseg: u8,
    stackseg: u8,
    xpc: u8,
    pc: u16,
    sp: u16,
    code_phys: u32,
    program: Vec<u8>,
    regs_seed: u64,
}

/// Emits one random instruction (or template of a few instructions).
#[allow(clippy::too_many_lines)]
fn emit(rng: &mut StdRng, out: &mut Vec<u8>, base: u16, sram_mode: bool, data_lo: u16) {
    // A logical address whose writes cannot land on code: the data or
    // stack segment window chosen by the setup.
    let data_addr = |rng: &mut StdRng| -> u16 {
        if rng.gen_bool(0.5) {
            data_lo + rng.gen_range(0u16..0x400)
        } else {
            0xD000 + rng.gen_range(0u16..0x400)
        }
    };
    match rng.gen_range(0u32..100) {
        // plain register work
        0..=29 => out.push(pool_op(rng)),
        30..=36 => {
            // ld r,n (r != (hl))
            let r = [0u8, 1, 2, 3, 4, 5, 7][rng.gen_range(0usize..7)];
            out.extend_from_slice(&[0x06 | (r << 3), rng.gen()]);
        }
        37..=42 => {
            // alu a,n
            out.extend_from_slice(&[0xC6 | (rng.gen_range(0u8..8) << 3), rng.gen()]);
        }
        43..=47 => {
            // ld dd,nn
            let nn: u16 = rng.gen();
            let [lo, hi] = nn.to_le_bytes();
            out.extend_from_slice(&[0x01 | (rng.gen_range(0u8..4) << 4), lo, hi]);
        }
        48..=51 => {
            // cb rotate/bit/res/set on a register
            let mut sub: u8 = rng.gen();
            if sub & 7 == 6 {
                sub ^= 1; // avoid the (hl) form with an uncontrolled HL
            }
            out.extend_from_slice(&[0xCB, sub]);
        }
        52..=55 => {
            // ed register ops: sbc/adc hl,ss; neg; ld a,xpc
            let sub = [
                0x42, 0x52, 0x62, 0x72, 0x4A, 0x5A, 0x6A, 0x7A, 0x44, 0x77,
            ][rng.gen_range(0usize..10)];
            out.extend_from_slice(&[0xED, sub]);
        }
        56..=64 => {
            // point HL at data, then a burst of (hl) operations
            let [lo, hi] = data_addr(rng).to_le_bytes();
            out.extend_from_slice(&[0x21, lo, hi]);
            for _ in 0..rng.gen_range(1usize..4) {
                match rng.gen_range(0u32..6) {
                    0 => out.push(0x34),                              // inc (hl)
                    1 => out.push(0x35),                              // dec (hl)
                    2 => out.extend_from_slice(&[0x36, rng.gen()]),   // ld (hl),n
                    3 => out.push(0x70 | [0u8, 1, 2, 3, 7][rng.gen_range(0usize..5)]),
                    4 => out.push(0x86 | (rng.gen_range(0u8..8) << 3)), // alu a,(hl)
                    _ => out.extend_from_slice(&[0xCB, rng.gen::<u8>() & 0x3F | 6]),
                }
            }
        }
        65..=69 => {
            // absolute loads/stores into the data segment
            let [lo, hi] = data_addr(rng).to_le_bytes();
            match rng.gen_range(0u32..5) {
                0 => out.extend_from_slice(&[0x32, lo, hi]), // ld (nn),a
                1 => out.extend_from_slice(&[0x3A, lo, hi]), // ld a,(nn)
                2 => out.extend_from_slice(&[0x22, lo, hi]), // ld (nn),hl
                3 => out.extend_from_slice(&[0x2A, lo, hi]), // ld hl,(nn)
                _ => out.extend_from_slice(&[0xED, 0x43 | (rng.gen_range(0u8..4) << 4), lo, hi]),
            }
        }
        70..=76 => {
            // stack traffic
            match rng.gen_range(0u32..6) {
                0 => out.push([0xC5, 0xD5, 0xE5, 0xF5][rng.gen_range(0usize..4)]), // push
                1 => {
                    out.push([0xC5, 0xD5, 0xE5, 0xF5][rng.gen_range(0usize..4)]);
                    out.push([0xC1, 0xD1, 0xE1, 0xF1][rng.gen_range(0usize..4)]);
                }
                2 => out.extend_from_slice(&[0xC4, rng.gen_range(0u8..16)]), // ld hl,(sp+n)
                3 => out.extend_from_slice(&[0xD4, rng.gen_range(0u8..16)]), // ld (sp+n),hl
                4 => out.extend_from_slice(&[0x27, rng.gen_range(0u8..8)]),  // add sp,d
                _ => out.push(0xE3),                                         // ex (sp),hl
            }
        }
        77..=82 => {
            // ix/iy pointed at data, then indexed operations
            let pfx = if rng.gen_bool(0.5) { 0xDD } else { 0xFD };
            let [lo, hi] = data_addr(rng).to_le_bytes();
            out.extend_from_slice(&[pfx, 0x21, lo, hi]);
            let d: u8 = rng.gen_range(0u8..16);
            match rng.gen_range(0u32..8) {
                0 => out.extend_from_slice(&[pfx, 0x36, d, rng.gen()]),
                1 => out.extend_from_slice(&[pfx, 0x34, d]),
                2 => out.extend_from_slice(&[pfx, 0x35, d]),
                3 => out.extend_from_slice(&[pfx, 0x7E, d]),
                4 => out.extend_from_slice(&[pfx, 0x70 | [0u8, 1, 7][rng.gen_range(0usize..3)], d]),
                5 => out.extend_from_slice(&[pfx, 0x86 | (rng.gen_range(0u8..8) << 3), d]),
                6 => out.extend_from_slice(&[pfx, 0x09 | (rng.gen_range(0u8..4) << 4)]),
                _ => out.extend_from_slice(&[pfx, 0xE5, pfx, 0xE1]), // push/pop idx
            }
        }
        83..=87 => {
            // bounded djnz loop: ld b,k ; <m pool ops> ; djnz back
            let k = rng.gen_range(1u8..6);
            let m = rng.gen_range(1usize..4);
            out.extend_from_slice(&[0x06, k]); // ld b,k
            for _ in 0..m {
                out.push(LOOP_POOL[rng.gen_range(0usize..LOOP_POOL.len())]);
            }
            let disp = -((m as i8) + 2);
            out.extend_from_slice(&[0x10, disp as u8]);
        }
        88..=93 => {
            // forward control flow over a small gap of filler
            let g = rng.gen_range(0u8..5);
            let kind = rng.gen_range(0u32..4);
            match kind {
                0 => out.extend_from_slice(&[0x18, g]), // jr
                1 => out.push(0x20 | (rng.gen_range(0u8..4) << 3)), // jr cc
                _ => {}
            }
            if kind == 1 {
                out.push(g);
            }
            if kind >= 2 {
                // jp cc nn / call nn to an absolute forward target
                let target = base
                    .wrapping_add(out.len() as u16)
                    .wrapping_add(3)
                    .wrapping_add(u16::from(g));
                let [lo, hi] = target.to_le_bytes();
                if kind == 2 {
                    out.extend_from_slice(&[0xC2 | (rng.gen_range(0u8..8) << 3), lo, hi]);
                } else {
                    out.extend_from_slice(&[0xCD, lo, hi]);
                }
            }
            for _ in 0..g {
                out.push(pool_op(rng));
            }
        }
        94..=95 => {
            // conditional return (stack may hold garbage: wild PCs land in
            // halt-filled SRAM or erased flash, deterministically)
            out.push(0xC0 | (rng.gen_range(0u8..8) << 3));
        }
        _ => {
            if sram_mode {
                // self-modifying store into our own code window
                let target = 0xE000 + rng.gen_range(0u16..0x300);
                let [lo, hi] = target.to_le_bytes();
                let patch = SAFE_PATCH[rng.gen_range(0..SAFE_PATCH.len())];
                out.extend_from_slice(&[0x21, lo, hi, 0x36, patch]);
            } else {
                // runtime MMU/XPC reprogramming via ioi-prefixed stores
                match rng.gen_range(0u32..4) {
                    0 => {
                        // SEGSIZE: keep the stack segment at 0xD000
                        let v = 0xD0 | rng.gen_range(2u8..=0xC);
                        out.extend_from_slice(&[0x3E, v, 0xD3, 0x32, 0x13, 0x00]);
                    }
                    1 => {
                        let v: u8 = rng.gen();
                        out.extend_from_slice(&[0x3E, v, 0xD3, 0x32, 0x12, 0x00]);
                    }
                    2 => {
                        // STACKSEG: keep the stack inside SRAM
                        let v = rng.gen_range(0x75u8..0x7D);
                        out.extend_from_slice(&[0x3E, v, 0xD3, 0x32, 0x11, 0x00]);
                    }
                    _ => {
                        // ld xpc,a
                        let v = rng.gen_range(0x72u8..0x80);
                        out.extend_from_slice(&[0x3E, v, 0xED, 0x67]);
                    }
                }
            }
        }
    }
}

fn build_setup(seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0000);
    let sram_mode = seed % 2 == 1;
    let (segsize, dataseg, stackseg, xpc, pc, code_phys) = if sram_mode {
        // Code in the xmem window at the bottom of SRAM; data and stack
        // segments pinned clear of the code pages.
        (0xD6u8, 0x7C, 0x78, 0x72, 0xE000u16, SRAM_BASE)
    } else {
        // Code in root flash; MMU partially randomized, stack kept in SRAM.
        (
            0xD0 | rng.gen_range(2u8..=0xC),
            rng.gen(),
            rng.gen_range(0x75u8..0x7D),
            rng.gen_range(0x72u8..0x80),
            0x0100u16,
            0x0100u32,
        )
    };
    let data_lo = u16::from(segsize & 0x0F) << 12;
    let n = rng.gen_range(20usize..60);
    let mut program = Vec::new();
    for _ in 0..n {
        emit(&mut rng, &mut program, pc, sram_mode, data_lo);
    }
    program.extend_from_slice(&[0x76; 8]);
    Setup {
        segsize,
        dataseg,
        stackseg,
        xpc,
        pc,
        sp: 0xDF00 - 2 * rng.gen_range(0u16..32),
        code_phys,
        program,
        regs_seed: rng.gen(),
    }
}

fn prepare(setup: &Setup) -> (Cpu, Memory) {
    let mut mem = Memory::new();
    // Halt-filled SRAM: wild jumps terminate deterministically.
    mem.load(SRAM_BASE, &vec![0x76u8; SRAM_SIZE]);
    // Halt at every rst vector: erased flash reads 0xFF (= rst 0x38), so
    // without these a wild jump into flash would rst forever.
    for vector in [0x10u32, 0x18, 0x20, 0x28, 0x38] {
        mem.load(vector, &[0x76]);
    }
    mem.load(setup.code_phys, &setup.program);
    let mut cpu = Cpu::new();
    cpu.mmu.segsize = setup.segsize;
    cpu.mmu.dataseg = setup.dataseg;
    cpu.mmu.stackseg = setup.stackseg;
    cpu.regs.xpc = setup.xpc;
    cpu.regs.pc = setup.pc;
    cpu.regs.sp = setup.sp;
    let mut rng = StdRng::seed_from_u64(setup.regs_seed);
    cpu.regs.a = rng.gen();
    cpu.regs.f = rng.gen();
    cpu.regs.b = rng.gen();
    cpu.regs.c = rng.gen();
    cpu.regs.d = rng.gen();
    cpu.regs.e = rng.gen();
    cpu.regs.h = rng.gen();
    cpu.regs.l = rng.gen();
    cpu.regs.ix = rng.gen();
    cpu.regs.iy = rng.gen();
    (cpu, mem)
}

fn run_one(setup: &Setup, fast: bool) -> (Result<u64, Fault>, Cpu, Memory) {
    let (mut cpu, mut mem) = prepare(setup);
    let result = if fast {
        cpu.run_fast(&mut mem, &mut NullIo, BUDGET)
    } else {
        cpu.run(&mut mem, &mut NullIo, BUDGET)
    };
    (result, cpu, mem)
}

#[test]
fn engines_agree_on_random_programs() {
    let mut halted = 0u32;
    let mut faulted = 0u32;
    let mut exhausted = 0u32;
    for seed in 0..SEEDS {
        let setup = build_setup(seed);
        let (ra, cpu_a, mem_a) = run_one(&setup, false);
        let (rb, cpu_b, mem_b) = run_one(&setup, true);
        assert_eq!(ra, rb, "result diverged (seed {seed})");
        assert_eq!(cpu_a.cycles, cpu_b.cycles, "cycles diverged (seed {seed})");
        assert_eq!(cpu_a.halted, cpu_b.halted, "halted diverged (seed {seed})");
        assert!(cpu_a.regs == cpu_b.regs, "registers diverged (seed {seed})");
        assert_eq!(cpu_a.mmu, cpu_b.mmu, "mmu diverged (seed {seed})");
        assert_eq!(
            mem_a.flash_write_faults, mem_b.flash_write_faults,
            "flash faults diverged (seed {seed})"
        );
        assert_eq!(
            mem_a.dump(SRAM_BASE, SRAM_SIZE),
            mem_b.dump(SRAM_BASE, SRAM_SIZE),
            "sram diverged (seed {seed})"
        );
        match ra {
            Err(_) => faulted += 1,
            Ok(_) if cpu_a.halted => halted += 1,
            Ok(_) => exhausted += 1,
        }
    }
    // The generator is meant to terminate almost always; a budget-
    // exhausted run still compares exactly above, but too many would
    // mean the corpus lost its coverage.
    assert!(
        u64::from(exhausted) * 20 < SEEDS,
        "too many non-terminating programs: {exhausted}/{SEEDS} ({halted} halted, {faulted} faulted)"
    );
    assert!(halted > 0 && faulted > 0, "corpus lost outcome diversity");
}

/// Budgets that end inside a block. Every corpus program runs to
/// completion as a series of random slices of 1..=2000 cycles (a fleet
/// epoch slice is 1500), on both engines in lockstep; after each slice
/// the engines must stand on the same instruction boundary, and at the
/// end the full state must match. A one-cycle budget retires exactly one
/// instruction on either engine (`Board::run_until` relies on it).
#[test]
fn engines_agree_under_random_slicing() {
    let mut slices = 0u64;
    let mut overshoots = 0u64;
    for seed in 0..SEEDS {
        let setup = build_setup(seed);
        let (mut cpu_a, mut mem_a) = prepare(&setup);
        let (mut cpu_b, mut mem_b) = prepare(&setup);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51CE_D00D);
        loop {
            // Most corpus programs stop within a few hundred cycles: short
            // budgets (below one block, often below one instruction) make
            // them take several slices.
            let budget = if rng.gen_bool(0.5) {
                rng.gen_range(1u64..=24)
            } else {
                rng.gen_range(1u64..=2000)
            };
            let before = cpu_a.instructions;
            let ra = cpu_a.run(&mut mem_a, &mut NullIo, budget);
            let rb = cpu_b.run_fast(&mut mem_b, &mut NullIo, budget);
            slices += 1;
            let at = |cpu: &Cpu| (cpu.cycles, cpu.instructions, cpu.halted, cpu.regs.pc);
            assert_eq!(ra, rb, "result diverged (seed {seed}, slice {slices})");
            assert_eq!(
                at(&cpu_a),
                at(&cpu_b),
                "boundary diverged (seed {seed}, slice {slices}, budget {budget})"
            );
            if budget == 1 && ra.is_ok() {
                assert_eq!(cpu_a.instructions - before, 1, "one cycle, one instruction");
            }
            if matches!(ra, Ok(c) if c > budget) {
                overshoots += 1; // the budget ran out inside an instruction
            }
            if ra.is_err() || cpu_a.halted || cpu_a.cycles >= BUDGET {
                break;
            }
        }
        assert!(cpu_a.regs == cpu_b.regs, "registers diverged (seed {seed})");
        assert_eq!(cpu_a.mmu, cpu_b.mmu, "mmu diverged (seed {seed})");
        assert_eq!(
            mem_a.flash_write_faults, mem_b.flash_write_faults,
            "flash faults diverged (seed {seed})"
        );
        assert_eq!(
            mem_a.dump(SRAM_BASE, SRAM_SIZE),
            mem_b.dump(SRAM_BASE, SRAM_SIZE),
            "sram diverged (seed {seed})"
        );
    }
    assert!(
        slices > 2 * SEEDS && overshoots > SEEDS / 2,
        "slicing lost coverage: {slices} slices, {overshoots} overshooting"
    );
}

/// The classic stale-block trap: a program whose first block patches the
/// instruction immediately after the store. The engine must abort the
/// block and execute the freshly written byte.
#[test]
fn self_modification_of_next_instruction() {
    // At 0xE000 (phys SRAM_BASE), with XPC=0x72:
    //   ld hl, 0xE007  ; 21 07 E0
    //   ld (hl), 0x3C  ; 36 3C      -- patch "inc a" over "dec a"
    //   ld a, 0x10     ; 3E 10
    //   dec a          ; 3D         <- at 0xE007, patched to inc a
    //   halt           ; 76
    let prog = [0x21, 0x07, 0xE0, 0x36, 0x3C, 0x3E, 0x10, 0x3D, 0x76];
    let mut setups = Vec::new();
    for fast in [false, true] {
        let mut mem = Memory::new();
        mem.load(SRAM_BASE, &prog);
        let mut cpu = Cpu::new();
        cpu.regs.xpc = 0x72;
        cpu.regs.pc = 0xE000;
        cpu.mmu.stackseg = 0x78;
        let r = if fast {
            cpu.run_fast(&mut mem, &mut NullIo, 10_000)
        } else {
            cpu.run(&mut mem, &mut NullIo, 10_000)
        };
        assert_eq!(r.ok(), Some(cpu.cycles));
        assert!(cpu.halted);
        assert_eq!(cpu.regs.a, 0x11, "patched inc must execute (fast={fast})");
        setups.push((cpu.cycles, cpu.regs.clone()));
    }
    assert_eq!(setups[0].0, setups[1].0, "cycle counts diverged");
    assert!(setups[0].1 == setups[1].1, "registers diverged");
}

/// Code rewritten from outside the engine between `run_fast` slices: by
/// a host `write_phys`, by `Memory::load`, by the program's own stores
/// during an interpreted `Cpu::run` slice, and by a second CPU on the
/// same memory. Every slice must end where an interpreter-only run of the
/// same schedule ends.
#[test]
fn code_rewritten_outside_the_engine_is_never_replayed() {
    // CPU 1 at 0xE000 (phys SRAM_BASE, XPC=0x72), looping forever:
    //   ld hl, 0xE008  ; 21 08 E0
    //   ld b, 40       ; 06 28
    //   inc (hl)       ; 34        <- loop: patches the add immediate
    //   nop            ; 00        <- host patches: nop / inc a / dec a
    //   add a, 1       ; C6 01
    //   djnz loop      ; 10 FA
    //   jr 0xE003      ; 18 F6
    let main = [0x21, 0x08, 0xE0, 0x06, 0x28, 0x34, 0x00, 0xC6, 0x01, 0x10, 0xFA, 0x18, 0xF6];
    // CPU 2 at 0xE100, on another page: ld hl, 0xE008 / dec (hl) / halt.
    let helper = [0x21, 0x08, 0xE0, 0x35, 0x76];
    let boot = || {
        let mut mem = Memory::new();
        mem.load(SRAM_BASE, &main);
        mem.load(SRAM_BASE + 0x100, &helper);
        let mut cpus = [Cpu::new(), Cpu::new()];
        for (cpu, pc) in cpus.iter_mut().zip([0xE000, 0xE100]) {
            cpu.regs.xpc = 0x72;
            cpu.regs.pc = pc;
        }
        (cpus, mem)
    };
    let mut kinds = [0u32; 4];
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0C0D_E000);
        let ([mut a, mut a2], mut mem_a) = boot();
        let ([mut b, mut b2], mut mem_b) = boot();
        for slice in 0..200 {
            let budget = rng.gen_range(1u64..=300);
            let kind = rng.gen_range(0..4usize);
            kinds[kind] += 1;
            match kind {
                0 => {
                    let v = [0x00, 0x3C, 0x3D][rng.gen_range(0..3usize)];
                    mem_a.write_phys(SRAM_BASE + 6, v);
                    mem_b.write_phys(SRAM_BASE + 6, v);
                }
                1 => {
                    let v: u8 = rng.gen();
                    mem_a.load(SRAM_BASE + 8, &[v]);
                    mem_b.load(SRAM_BASE + 8, &[v]);
                }
                2 => {
                    let ra = a.run(&mut mem_a, &mut NullIo, budget);
                    let rb = b.run(&mut mem_b, &mut NullIo, budget);
                    assert_eq!(ra, rb, "interpreted slice (seed {seed}, slice {slice})");
                }
                _ => {
                    for cpu in [&mut a2, &mut b2] {
                        (cpu.regs.pc, cpu.halted) = (0xE100, false);
                    }
                    let ra = a2.run(&mut mem_a, &mut NullIo, 100);
                    let rb = b2.run_fast(&mut mem_b, &mut NullIo, 100);
                    assert_eq!(ra, rb, "second cpu (seed {seed}, slice {slice})");
                }
            }
            let ra = a.run(&mut mem_a, &mut NullIo, budget);
            let rb = b.run_fast(&mut mem_b, &mut NullIo, budget);
            assert_eq!(ra, rb, "result diverged (seed {seed}, slice {slice})");
            assert_eq!(a.cycles, b.cycles, "cycles diverged (seed {seed}, slice {slice})");
            assert!(a.regs == b.regs, "registers diverged (seed {seed}, slice {slice})");
            assert_eq!(
                mem_a.dump(SRAM_BASE, 0x200),
                mem_b.dump(SRAM_BASE, 0x200),
                "code diverged (seed {seed}, slice {slice})"
            );
        }
    }
    assert!(kinds.iter().all(|&n| n > 1000), "schedule lost coverage: {kinds:?}");

    // Two memories on one flash image, each with an interpreter twin:
    // a load over flash on one must never change what the other
    // replays. Flash code at 0x0200, looping forever:
    //   nop            ; 00     <- host patches: nop / inc a / dec a
    //   add a, 1       ; C6 01
    //   jr 0x0200      ; 18 FB
    let image = Firmware::new(&rabbit::Image {
        sections: vec![rabbit::Section {
            addr: 0x0200,
            bytes: vec![0x00, 0xC6, 0x01, 0x18, 0xFB],
        }],
        ..Default::default()
    });
    let mut patches = [0u32; 2];
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A5_0000);
        // Pairs (interpreter, block cache); both block-cache memories
        // start on the one image.
        let mut pairs: [[(Cpu, Memory); 2]; 2] = std::array::from_fn(|_| {
            std::array::from_fn(|_| {
                let mut mem = Memory::new();
                image.load_into(&mut mem);
                let mut cpu = Cpu::new();
                cpu.regs.pc = 0x0200;
                (cpu, mem)
            })
        });
        for slice in 0..200 {
            if rng.gen_bool(0.3) {
                let target = rng.gen_range(0..2usize);
                patches[target] += 1;
                let v = [0x00, 0x3C, 0x3D][rng.gen_range(0..3usize)];
                for (_, mem) in &mut pairs[target] {
                    mem.load(0x0200, &[v]);
                }
            }
            let budget = rng.gen_range(1u64..=300);
            for (p, [(a, mem_a), (b, mem_b)]) in pairs.iter_mut().enumerate() {
                let ra = a.run(mem_a, &mut NullIo, budget);
                let rb = b.run_fast(mem_b, &mut NullIo, budget);
                let at = format!("pair {p}, seed {seed}, slice {slice}");
                assert_eq!(ra, rb, "result diverged ({at})");
                assert_eq!(a.cycles, b.cycles, "cycles diverged ({at})");
                assert!(a.regs == b.regs, "registers diverged ({at})");
                assert_eq!(mem_a.dump(0x0200, 5), mem_b.dump(0x0200, 5), "code ({at})");
            }
        }
    }
    assert!(patches.iter().all(|&n| n > 500), "schedule lost coverage: {patches:?}");
}

/// Remapping DATASEG between two executions of the same PC must not
/// replay a block decoded under the old mapping.
#[test]
fn mmu_remap_invalidates_by_key() {
    // Root code at 0x0100 writes DATASEG via ioi, then reads 0x5000
    // twice; the second read must see the new mapping.
    //   ld a, 0x7B     ; dataseg -> phys 0x5000 + 0x7B000 = 0x80000 (SRAM)
    //   ioi ld (0x12),a
    //   ld a,(0x5000)
    //   ld b,a
    //   ld a, 0x7C     ; dataseg -> 0x81000
    //   ioi ld (0x12),a
    //   ld a,(0x5000)
    //   halt
    let prog = [
        0x3E, 0x7B, 0xD3, 0x32, 0x12, 0x00, 0x3A, 0x00, 0x50, 0x47, 0x3E, 0x7C, 0xD3, 0x32,
        0x12, 0x00, 0x3A, 0x00, 0x50, 0x76,
    ];
    let mut results = Vec::new();
    for fast in [false, true] {
        let mut mem = Memory::new();
        mem.load(0x0100, &prog);
        mem.load(SRAM_BASE, &[0x11]); // byte visible through dataseg 0x7B
        mem.load(SRAM_BASE + 0x1000, &[0x22]); // through dataseg 0x7C
        let mut cpu = Cpu::new();
        cpu.mmu.segsize = 0xD5; // data segment starts at 0x5000
        cpu.regs.pc = 0x0100;
        let r = if fast {
            cpu.run_fast(&mut mem, &mut NullIo, 10_000)
        } else {
            cpu.run(&mut mem, &mut NullIo, 10_000)
        };
        assert!(r.is_ok() && cpu.halted);
        assert_eq!((cpu.regs.b, cpu.regs.a), (0x11, 0x22), "fast={fast}");
        results.push(cpu.cycles);
    }
    assert_eq!(results[0], results[1]);
}

/// `io.tick` batching must still deliver the exact total cycle count.
#[test]
fn batched_ticks_sum_to_cycles() {
    use rabbit::io::{Interrupt, IoSpace};

    #[derive(Default)]
    struct TickCounter {
        total: u64,
    }
    impl IoSpace for TickCounter {
        fn io_read(&mut self, _addr: u16, _external: bool) -> u8 {
            0xFF
        }
        fn io_write(&mut self, _addr: u16, _v: u8, _external: bool) {}
        fn pending_interrupt(&mut self) -> Option<Interrupt> {
            None
        }
        fn acknowledge_interrupt(&mut self, _vector: u16) {}
        fn tick(&mut self, cycles: u64) {
            self.total += cycles;
        }
    }

    let setup = build_setup(2); // flash-mode corpus entry
    let (mut cpu, mut mem) = prepare(&setup);
    let mut io = TickCounter::default();
    let _ = cpu.run_fast(&mut mem, &mut io, BUDGET);
    assert_eq!(io.total, cpu.cycles);
}

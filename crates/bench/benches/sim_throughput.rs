//! Host-side throughput of the two execution engines on the AES
//! workload: how many simulated instructions per host second each engine
//! retires (MIPS), and the simulated-clock rate that corresponds to.
//!
//! The AES-128 hand-assembly program is assembled once; every iteration
//! then builds a fresh machine (so the block engine pays its full decode
//! cost inside the measurement) and runs it to `halt`. Both engines
//! execute the identical instruction stream and produce identical cycle
//! counts — only wall-clock differs.
//!
//! Each engine is measured twice: in one unbounded run, and sliced into
//! consecutive [`EPOCH_CYCLES`]-cycle runs, the budget a fleet epoch gives
//! every board. The sliced row shows what the engine retires inside the
//! fleet scheduler. Those rows run against [`NullIo`]; one more row runs
//! the block cache sliced on a [`Board`], whose bus carries the serial
//! port, the RTC and an idle NIC, to price what the bus costs per block.

use aes_rabbit::{aes128_asm_source, testbench_workload};
use criterion::{criterion_group, criterion_main, Criterion};
use rabbit::fwmap::{load_phys, reset_registers, CODE_ORG};
use rabbit::{assemble, Cpu, Engine, Image, Memory, NullIo};
use rmc2000::{Board, Nic, RunOutcome, EPOCH_CYCLES};
use std::time::Instant;

const BLOCKS: usize = 32;
const MAX_CYCLES: u64 = 200_000_000;

struct Workload {
    image: Image,
    key: [u8; 16],
    input: Vec<u8>,
}

fn workload() -> Workload {
    let (key, blocks) = testbench_workload(BLOCKS, 0xAE5);
    let image = assemble(&aes128_asm_source(BLOCKS)).expect("AES asm assembles");
    let input: Vec<u8> = blocks.iter().flatten().copied().collect();
    Workload { image, key, input }
}

fn machine(w: &Workload) -> (Cpu, Memory) {
    let mut mem = Memory::new();
    for s in &w.image.sections {
        mem.load(load_phys(s.addr), &s.bytes);
    }
    load_data(w, &mut mem);
    let mut cpu = Cpu::new();
    reset_registers(&mut cpu);
    cpu.regs.pc = CODE_ORG;
    (cpu, mem)
}

/// Loads the key and the plaintext blocks.
fn load_data(w: &Workload, mem: &mut Memory) {
    mem.load(load_phys(w.image.symbol("Akey").unwrap()), &w.key);
    mem.load(load_phys(w.image.symbol("Ainput").unwrap()), &w.input);
}

/// Runs the workload to `halt` in runs of at most `slice` cycles.
fn run_once(w: &Workload, engine: Engine, slice: u64) -> (u64, u64) {
    let (mut cpu, mut mem) = machine(w);
    while !cpu.halted {
        assert!(cpu.cycles < MAX_CYCLES, "AES run must halt");
        cpu.run_on(engine, &mut mem, &mut NullIo, slice)
            .expect("AES run faults");
    }
    (cpu.cycles, cpu.instructions)
}

/// Runs the workload to `halt` on a board with an idle NIC, in
/// `Board::run` slices of `slice` cycles on the block cache.
fn run_on_board(w: &Workload, slice: u64) -> (u64, u64) {
    let mut board = Board::new();
    board.attach_nic(Nic::default());
    board.load(&w.image);
    load_data(w, &mut board.mem);
    board.set_pc(0x4000);
    while board.run(slice) != RunOutcome::Halted {
        assert!(board.cpu.cycles < MAX_CYCLES, "AES run must halt");
    }
    (board.cpu.cycles, board.cpu.instructions)
}

/// Simulated MIPS and MHz of `run` over half a second of repeats.
fn rate(mut run: impl FnMut() -> (u64, u64)) -> (f64, f64, u64) {
    let (mut runs, mut instructions, mut cycles) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    while t.elapsed().as_millis() < 500 {
        let (c, i) = run();
        cycles += c;
        instructions += i;
        runs += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    (instructions as f64 / secs / 1e6, cycles as f64 / secs / 1e6, runs)
}

const ENGINES: [(&str, Engine); 2] = [
    ("interpreter", Engine::Interpreter),
    ("block_cache", Engine::BlockCache),
];

fn bench_engines(c: &mut Criterion) {
    let w = workload();
    // Sanity: the engines must agree, sliced or not, before we compare
    // their speed.
    let reference = run_once(&w, Engine::Interpreter, MAX_CYCLES);
    for (_, engine) in ENGINES {
        assert_eq!(run_once(&w, engine, MAX_CYCLES), reference);
        assert_eq!(run_once(&w, engine, EPOCH_CYCLES), reference);
    }
    assert_eq!(run_on_board(&w, EPOCH_CYCLES), reference);

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(20);
    for (name, engine) in ENGINES {
        group.bench_function(name, |b| b.iter(|| run_once(&w, engine, MAX_CYCLES)));
    }
    group.finish();

    // Direct MIPS report, in the shape the EXPERIMENTS.md appendix quotes.
    println!("mips (AES-128 hand-asm, {BLOCKS} blocks, fresh machine per run):");
    for (label, slice) in [("unsliced", MAX_CYCLES), ("epoch-sliced", EPOCH_CYCLES)] {
        let mut rates = Vec::new();
        for (name, engine) in ENGINES {
            let (mips, mhz, runs) = rate(|| run_once(&w, engine, slice));
            println!("  {name} {label}: {mips:.1} MIPS ({mhz:.1} sim-MHz, {runs} runs)");
            rates.push(mips);
        }
        println!("  {label} speedup: {:.2}x", rates[1] / rates[0]);
    }
    let (mips, mhz, runs) = rate(|| run_on_board(&w, EPOCH_CYCLES));
    let label = "block_cache epoch-sliced board bus";
    println!("  {label}: {mips:.1} MIPS ({mhz:.1} sim-MHz, {runs} runs)");
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);

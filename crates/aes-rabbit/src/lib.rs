//! AES-128 on the Rabbit 2000, twice over — the heart of the paper's
//! evaluation (§6): a direct C port compiled by [`dcc`] under each of the
//! optimization configurations the authors tried, and a hand-optimized
//! assembly implementation, both executed on the [`rabbit`] cycle-level
//! simulator so that speed (cycles/block) and code size can be compared
//! exactly.
//!
//! Both implementations are verified block-for-block against the
//! host-grade [`crypto`] crate (which is itself pinned to FIPS-197).
//!
//! ```
//! use aes_rabbit::{measure, Implementation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let key = [0u8; 16];
//! let blocks = vec![[0x5Au8; 16]];
//! let asm = measure(&Implementation::HandAsm, &key, &blocks)?;
//! let c = measure(&Implementation::CompiledC(dcc::Options::baseline()), &key, &blocks)?;
//! assert_eq!(asm.outputs, c.outputs);
//! assert!(asm.cycles_per_block < c.cycles_per_block);
//! # Ok(())
//! # }
//! ```

pub mod asm_impl;
pub mod csource;

use rabbit::fwmap::{load_phys, reset_registers, CODE_ORG};
use rabbit::{assemble, Cpu, Engine, Memory, NullIo, ProfileReport, SymbolTable};

pub use asm_impl::{
    aes128_asm_source, aes128_asm_source_unaligned, aes128_linked_module, LINKED_CODE_ORG,
    LINKED_DATA_ORG, LINKED_TABLES_ORG,
};
pub use csource::{aes128_c_decrypt_source, aes128_c_source};

/// Which AES implementation to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Implementation {
    /// The issl-style C port, compiled by `dcc` with the given switches.
    CompiledC(dcc::Options),
    /// The hand-optimized assembly implementation.
    HandAsm,
    /// The hand assembly with an unaligned S-box (ablation: why hand
    /// optimizers page-align lookup tables).
    HandAsmUnaligned,
}

impl Implementation {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Implementation::HandAsm => "hand assembly".to_string(),
            Implementation::HandAsmUnaligned => "hand assembly (unaligned sbox)".to_string(),
            Implementation::CompiledC(o) => {
                let mut parts = Vec::new();
                if o.debug {
                    parts.push("debug");
                } else {
                    parts.push("nodebug");
                }
                if o.root_data {
                    parts.push("root");
                }
                if o.unroll {
                    parts.push("unroll");
                }
                if o.peephole {
                    parts.push("peephole");
                }
                format!("C ({})", parts.join("+"))
            }
        }
    }
}

/// Measurement of one implementation over a workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Ciphertext blocks produced on the simulated CPU.
    pub outputs: Vec<[u8; 16]>,
    /// Total cycles from entry to halt (includes one key expansion).
    pub cycles_total: u64,
    /// Cycles per block (total divided by the block count).
    pub cycles_per_block: u64,
    /// Program bytes excluding the workload I/O buffers.
    pub program_bytes: usize,
}

/// Errors from building or running an implementation.
#[derive(Debug)]
pub enum AesRabbitError {
    /// dcc compilation/assembly failed.
    Build(String),
    /// Execution failed (fault or cycle budget).
    Run(String),
    /// The simulated output disagrees with the reference cipher.
    Mismatch {
        /// Index of the first bad block.
        block: usize,
    },
}

impl std::fmt::Display for AesRabbitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AesRabbitError::Build(e) => write!(f, "build failed: {e}"),
            AesRabbitError::Run(e) => write!(f, "run failed: {e}"),
            AesRabbitError::Mismatch { block } => {
                write!(f, "output mismatch at block {block}")
            }
        }
    }
}

impl std::error::Error for AesRabbitError {}

/// Cycle budget per measurement run.
const MAX_CYCLES: u64 = 20_000_000_000;

fn flatten(blocks: &[[u8; 16]]) -> Vec<u8> {
    blocks.iter().flatten().copied().collect()
}

fn unflatten(bytes: &[u8]) -> Vec<[u8; 16]> {
    bytes
        .chunks(16)
        .map(|c| {
            let mut b = [0u8; 16];
            b.copy_from_slice(c);
            b
        })
        .collect()
}

/// Runs `imp` over the workload and measures cycles and size, verifying
/// every output block against the reference cipher.
///
/// # Errors
///
/// [`AesRabbitError`] on build failure, runtime fault/budget, or (a bug
/// in the implementation under test) ciphertext mismatch.
///
/// # Panics
///
/// Panics when `blocks` is empty.
pub fn measure(
    imp: &Implementation,
    key: &[u8; 16],
    blocks: &[[u8; 16]],
) -> Result<Measurement, AesRabbitError> {
    measure_on(Engine::BlockCache, imp, key, blocks)
}

/// As [`measure`], but on an explicitly chosen execution engine. The
/// cycle tables are identical either way; the benchmarks use this to
/// compare host-side throughput.
///
/// # Errors
///
/// As [`measure`].
///
/// # Panics
///
/// Panics when `blocks` is empty.
pub fn measure_on(
    engine: Engine,
    imp: &Implementation,
    key: &[u8; 16],
    blocks: &[[u8; 16]],
) -> Result<Measurement, AesRabbitError> {
    assert!(!blocks.is_empty(), "need at least one block");
    let (m, _) = match imp {
        Implementation::CompiledC(opts) => run_c(engine, *opts, key, blocks, false)?,
        Implementation::HandAsm => run_asm(engine, key, blocks, true, false)?,
        Implementation::HandAsmUnaligned => run_asm(engine, key, blocks, false, false)?,
    };
    verify_outputs(key, blocks, &m.outputs)?;
    Ok(m)
}

/// A [`Measurement`] plus the cycle-attribution profile of the run: which
/// function (assembler label) every cycle went to, with call-stack-aware
/// flamegraph export. This is the per-function view behind the paper's
/// §6 cycles-per-block totals.
#[derive(Debug, Clone)]
pub struct ProfiledMeasurement {
    /// The ordinary measurement (outputs verified, cycles, size).
    pub measurement: Measurement,
    /// Per-symbol cycle attribution, from the build's own label table.
    pub report: ProfileReport,
}

/// As [`measure`], but with the ISS cycle profiler attached: returns the
/// per-symbol cycle breakdown alongside the measurement. Symbols come
/// from the implementation's own label table (the dcc-emitted `_name`
/// function labels for C, the source labels for hand assembly), so the
/// report is a real per-function profile, not a PC histogram.
///
/// # Errors
///
/// As [`measure`].
///
/// # Panics
///
/// Panics when `blocks` is empty.
pub fn measure_profiled(
    imp: &Implementation,
    key: &[u8; 16],
    blocks: &[[u8; 16]],
) -> Result<ProfiledMeasurement, AesRabbitError> {
    assert!(!blocks.is_empty(), "need at least one block");
    let (m, report) = match imp {
        Implementation::CompiledC(opts) => run_c(Engine::BlockCache, *opts, key, blocks, true)?,
        Implementation::HandAsm => run_asm(Engine::BlockCache, key, blocks, true, true)?,
        Implementation::HandAsmUnaligned => {
            run_asm(Engine::BlockCache, key, blocks, false, true)?
        }
    };
    verify_outputs(key, blocks, &m.outputs)?;
    Ok(ProfiledMeasurement {
        measurement: m,
        report: report.expect("profiling was requested"),
    })
}

fn verify_outputs(
    key: &[u8; 16],
    blocks: &[[u8; 16]],
    outputs: &[[u8; 16]],
) -> Result<(), AesRabbitError> {
    let reference = crypto::Rijndael::aes(key).expect("16-byte key");
    for (i, (input, out)) in blocks.iter().zip(outputs).enumerate() {
        let mut expect = *input;
        reference.encrypt_block(&mut expect);
        if expect != *out {
            return Err(AesRabbitError::Mismatch { block: i });
        }
    }
    Ok(())
}

/// Folds the profiler attached to `cpu` (when `profile` was set) through
/// the image's label table.
fn take_report(cpu: &mut Cpu, symbols: &std::collections::HashMap<String, u16>) -> Option<ProfileReport> {
    let profiler = cpu.take_profiler()?;
    let table = SymbolTable::from_pairs(symbols.iter().map(|(name, &addr)| (name.as_str(), addr)));
    Some(profiler.report(&table))
}

fn run_c(
    engine: Engine,
    opts: dcc::Options,
    key: &[u8; 16],
    blocks: &[[u8; 16]],
    profile: bool,
) -> Result<(Measurement, Option<ProfileReport>), AesRabbitError> {
    let src = aes128_c_source(blocks.len());
    let build = dcc::build(&src, opts).map_err(|e| AesRabbitError::Build(e.to_string()))?;
    let (mut cpu, mut mem) = build.machine();
    build.write_bytes(&mut mem, "_key", key);
    build.write_bytes(&mut mem, "_input", &flatten(blocks));
    if profile {
        cpu.enable_profiler();
    }
    build
        .run_prepared_on(engine, &mut cpu, &mut mem, MAX_CYCLES)
        .map_err(|e| AesRabbitError::Run(e.to_string()))?;
    let report = take_report(&mut cpu, &build.image.symbols);
    let out = build.read_bytes(&mem, "_output", blocks.len() * 16);
    Ok((
        Measurement {
            outputs: unflatten(&out),
            cycles_total: cpu.cycles,
            cycles_per_block: cpu.cycles / blocks.len() as u64,
            program_bytes: build.image.size() - 2 * 16 * blocks.len(),
        },
        report,
    ))
}

fn run_asm(
    engine: Engine,
    key: &[u8; 16],
    blocks: &[[u8; 16]],
    aligned: bool,
    profile: bool,
) -> Result<(Measurement, Option<ProfileReport>), AesRabbitError> {
    let src = if aligned {
        aes128_asm_source(blocks.len())
    } else {
        aes128_asm_source_unaligned(blocks.len())
    };
    let image = assemble(&src).map_err(|e| AesRabbitError::Build(e.to_string()))?;
    let mut mem = Memory::new();
    for s in &image.sections {
        mem.load(load_phys(s.addr), &s.bytes);
    }
    let key_addr = image.symbol("Akey").expect("Akey symbol");
    let in_addr = image.symbol("Ainput").expect("Ainput symbol");
    let out_addr = image.symbol("Aoutput").expect("Aoutput symbol");
    mem.load(load_phys(key_addr), key);
    mem.load(load_phys(in_addr), &flatten(blocks));

    let mut cpu = Cpu::new();
    reset_registers(&mut cpu);
    cpu.regs.pc = CODE_ORG;
    if profile {
        cpu.enable_profiler();
    }
    cpu.run_on(engine, &mut mem, &mut NullIo, MAX_CYCLES)
        .map_err(|e| AesRabbitError::Run(e.to_string()))?;
    if !cpu.halted {
        return Err(AesRabbitError::Run("did not halt".into()));
    }
    let report = take_report(&mut cpu, &image.symbols);
    let out = mem.dump(load_phys(out_addr), blocks.len() * 16);
    Ok((
        Measurement {
            outputs: unflatten(&out),
            cycles_total: cpu.cycles,
            cycles_per_block: cpu.cycles / blocks.len() as u64,
            program_bytes: image.size() - 2 * 16 * blocks.len(),
        },
        report,
    ))
}

/// Runs the compiled-C inverse cipher over ciphertext blocks on the
/// simulated CPU, returning the recovered plaintext blocks and the
/// cycle cost.
///
/// # Errors
///
/// [`AesRabbitError`] on build or runtime failure.
///
/// # Panics
///
/// Panics when `blocks` is empty.
pub fn measure_decrypt(
    opts: dcc::Options,
    key: &[u8; 16],
    ciphertext: &[[u8; 16]],
) -> Result<Measurement, AesRabbitError> {
    assert!(!ciphertext.is_empty(), "need at least one block");
    let src = aes128_c_decrypt_source(ciphertext.len());
    let build = dcc::build(&src, opts).map_err(|e| AesRabbitError::Build(e.to_string()))?;
    let (mut cpu, mut mem) = build.machine();
    build.write_bytes(&mut mem, "_key", key);
    build.write_bytes(&mut mem, "_input", &flatten(ciphertext));
    build
        .run_prepared(&mut cpu, &mut mem, MAX_CYCLES)
        .map_err(|e| AesRabbitError::Run(e.to_string()))?;
    let out = build.read_bytes(&mem, "_output", ciphertext.len() * 16);
    let m = Measurement {
        outputs: unflatten(&out),
        cycles_total: cpu.cycles,
        cycles_per_block: cpu.cycles / ciphertext.len() as u64,
        program_bytes: build.image.size() - 2 * 16 * ciphertext.len(),
    };
    // Verify: decrypting the ciphertext must invert the reference cipher.
    let reference = crypto::Rijndael::aes(key).expect("16-byte key");
    for (i, (ct, pt)) in ciphertext.iter().zip(&m.outputs).enumerate() {
        let mut expect = *ct;
        reference.decrypt_block(&mut expect);
        if expect != *pt {
            return Err(AesRabbitError::Mismatch { block: i });
        }
    }
    Ok(m)
}

/// The workload of the paper's testbench: `n` pseudorandom blocks and a
/// pseudorandom key, deterministic per seed.
pub fn testbench_workload(n: usize, seed: u64) -> ([u8; 16], Vec<[u8; 16]>) {
    let mut prng = crypto::Prng::new(seed);
    let mut key = [0u8; 16];
    prng.fill(&mut key);
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let mut b = [0u8; 16];
        prng.fill(&mut b);
        blocks.push(b);
    }
    (key, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIPS_CT: [u8; 16] = [
        0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30, 0xD8, 0xCD, 0xB7, 0x80, 0x70, 0xB4, 0xC5,
        0x5A,
    ];

    #[test]
    fn hand_asm_matches_fips_vector() {
        // FIPS-197 appendix C.1
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let block: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let m = measure(&Implementation::HandAsm, &key, &[block]).expect("runs");
        assert_eq!(m.outputs[0], FIPS_CT);
    }

    #[test]
    fn compiled_c_matches_fips_vector() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let block: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let m = measure(
            &Implementation::CompiledC(dcc::Options::baseline()),
            &key,
            &[block],
        )
        .expect("runs");
        assert_eq!(m.outputs[0], FIPS_CT);
    }

    #[test]
    fn both_agree_on_random_blocks() {
        let (key, blocks) = testbench_workload(4, 99);
        let asm = measure(&Implementation::HandAsm, &key, &blocks).expect("asm");
        let c = measure(
            &Implementation::CompiledC(dcc::Options::all_optimizations()),
            &key,
            &blocks,
        )
        .expect("c");
        assert_eq!(asm.outputs, c.outputs);
    }

    #[test]
    fn unaligned_sbox_ablation_is_correct_but_slower() {
        let (key, blocks) = testbench_workload(4, 55);
        let aligned = measure(&Implementation::HandAsm, &key, &blocks).expect("aligned");
        let unaligned =
            measure(&Implementation::HandAsmUnaligned, &key, &blocks).expect("unaligned");
        assert_eq!(aligned.outputs, unaligned.outputs, "same ciphertext");
        let penalty = unaligned.cycles_per_block as f64 / aligned.cycles_per_block as f64;
        assert!(
            penalty > 1.05,
            "losing page alignment must cost real cycles, got {penalty:.3}x"
        );
    }

    /// Driver C firmware for the linkable module: expand once, then run
    /// `nblk` blocks of `buf` through `aes_enc` or `aes_dec` in place.
    const LINKED_DRIVER: &str = "\
        char aes_key[16];\n\
        char aes_blk[16];\n\
        char buf[64];\n\
        char nblk;\n\
        char mode;\n\
        extern void aes_expand();\n\
        extern void aes_enc();\n\
        extern void aes_dec();\n\
        int main() {\n\
            int b; int i;\n\
            aes_expand();\n\
            for (b = 0; b < nblk; b++) {\n\
                for (i = 0; i < 16; i++) aes_blk[i] = buf[b * 16 + i];\n\
                if (mode) aes_dec(); else aes_enc();\n\
                for (i = 0; i < 16; i++) buf[b * 16 + i] = aes_blk[i];\n\
            }\n\
            return 0;\n\
        }\n";

    fn run_linked(key: &[u8; 16], blocks: &[[u8; 16]], mode: u8) -> Vec<[u8; 16]> {
        assert!(blocks.len() <= 4);
        let module = aes128_linked_module();
        let b = dcc::build_firmware_linked(LINKED_DRIVER, dcc::Options::baseline(), &[], &[&module])
            .expect("links");
        // No section may overlap another (C code vs module code/tables,
        // C data vs module workspace).
        let mut spans: Vec<(u16, usize)> = b
            .image
            .sections
            .iter()
            .map(|s| (s.addr, s.bytes.len()))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(
                (w[0].0 as usize) + w[0].1 <= w[1].0 as usize,
                "sections overlap: {:#06x}+{} vs {:#06x}",
                w[0].0,
                w[0].1,
                w[1].0
            );
        }
        let (mut cpu, mut mem) = b.machine();
        b.write_bytes(&mut mem, "_aes_key", key);
        let flat: Vec<u8> = blocks.iter().flatten().copied().collect();
        b.write_bytes(&mut mem, "_buf", &flat);
        b.write_bytes(&mut mem, "_nblk", &[blocks.len() as u8]);
        b.write_bytes(&mut mem, "_mode", &[mode]);
        b.run_prepared(&mut cpu, &mut mem, 100_000_000).expect("runs");
        let out = b.read_bytes(&mem, "_buf", blocks.len() * 16);
        out.chunks(16)
            .map(|c| <[u8; 16]>::try_from(c).unwrap())
            .collect()
    }

    #[test]
    fn linked_module_encrypt_matches_reference() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let block: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let out = run_linked(&key, &[block], 0);
        assert_eq!(out[0], FIPS_CT, "FIPS-197 C.1 through the linked module");

        let (key, blocks) = testbench_workload(4, 77);
        let reference = crypto::Rijndael::aes(&key).unwrap();
        let expect: Vec<[u8; 16]> = blocks
            .iter()
            .map(|b| {
                let mut c = *b;
                reference.encrypt_block(&mut c);
                c
            })
            .collect();
        assert_eq!(run_linked(&key, &blocks, 0), expect);
    }

    #[test]
    fn linked_module_decrypt_inverts_reference_encrypt() {
        let (key, blocks) = testbench_workload(4, 78);
        let reference = crypto::Rijndael::aes(&key).unwrap();
        let ct: Vec<[u8; 16]> = blocks
            .iter()
            .map(|b| {
                let mut c = *b;
                reference.encrypt_block(&mut c);
                c
            })
            .collect();
        assert_eq!(run_linked(&key, &ct, 1), blocks, "decrypt round-trips");
    }

    #[test]
    fn compiled_c_decrypt_inverts_encrypt() {
        let (key, blocks) = testbench_workload(2, 31);
        // encrypt with the reference, decrypt on the simulated Rabbit
        let reference = crypto::Rijndael::aes(&key).unwrap();
        let ct: Vec<[u8; 16]> = blocks
            .iter()
            .map(|b| {
                let mut c = *b;
                reference.encrypt_block(&mut c);
                c
            })
            .collect();
        let m = measure_decrypt(dcc::Options::baseline(), &key, &ct).expect("decrypts");
        assert_eq!(m.outputs, blocks, "round trip through the board cipher");
    }

    #[test]
    fn asm_is_an_order_of_magnitude_faster() {
        let (key, blocks) = testbench_workload(4, 7);
        let asm = measure(&Implementation::HandAsm, &key, &blocks).expect("asm");
        let c = measure(
            &Implementation::CompiledC(dcc::Options::baseline()),
            &key,
            &blocks,
        )
        .expect("c");
        let ratio = c.cycles_per_block as f64 / asm.cycles_per_block as f64;
        assert!(ratio > 10.0, "asm/C ratio {ratio:.1} should exceed 10x");
    }
}

//! Build-and-execute harness: compiles a Dynamic C subset program,
//! assembles it, loads it into a Rabbit 2000 machine with the standard
//! memory map, runs it to `halt`, and reports cycles, code size and the
//! value `main` returned — the three measurements of the paper's
//! Section 6.

use rabbit::fwmap::load_phys;
use rabbit::{assemble, Cpu, Image, Memory, NullIo};

use crate::codegen::{compile, compile_firmware, layout, Options};
use crate::lexer::CompileError;

/// A compiled, assembled program.
#[derive(Debug, Clone)]
pub struct Build {
    /// The generated assembly text (inspectable in tests).
    pub asm: String,
    /// The assembled image.
    pub image: Image,
    /// The options it was built with.
    pub opts: Options,
}

/// Outcome of running a build.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The value `main` returned.
    pub result: u16,
    /// Clock cycles from entry to `halt`.
    pub cycles: u64,
}

/// Errors from building or running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// Compilation failed.
    Compile(CompileError),
    /// The generated assembly failed to assemble (a compiler bug).
    Assemble(String),
    /// Execution faulted or exceeded the cycle budget.
    Run(String),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Compile(e) => write!(f, "compile: {e}"),
            HarnessError::Assemble(e) => write!(f, "assemble: {e}"),
            HarnessError::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<CompileError> for HarnessError {
    fn from(e: CompileError) -> HarnessError {
        HarnessError::Compile(e)
    }
}

/// Compiles and assembles a program.
///
/// # Errors
///
/// [`HarnessError::Compile`] or [`HarnessError::Assemble`].
pub fn build(source: &str, opts: Options) -> Result<Build, HarnessError> {
    let asm = compile(source, opts)?;
    let image = assemble(&asm).map_err(|e| HarnessError::Assemble(e.to_string()))?;
    Ok(Build { asm, image, opts })
}

/// Compiles and assembles a *firmware* program: interrupt vectors from
/// `vectors` (address, `interrupt` function name) are emitted alongside
/// the code, for images that run on a full `rmc2000`-style board with
/// NIC and serial interrupts rather than under the halt-and-read-result
/// harness.
///
/// # Errors
///
/// [`HarnessError::Compile`] or [`HarnessError::Assemble`].
pub fn build_firmware(
    source: &str,
    opts: Options,
    vectors: &[(u16, &str)],
) -> Result<Build, HarnessError> {
    let asm = compile_firmware(source, opts, vectors)?;
    let image = assemble(&asm).map_err(|e| HarnessError::Assemble(e.to_string()))?;
    Ok(Build { asm, image, opts })
}

/// As [`build_firmware`], but links hand-written assembly `modules` into
/// the same image: each module's text is appended to the compiled output
/// before assembly, so all symbols share one namespace — the assembly can
/// reference C globals (`_name`) and the C side can call assembly entry
/// points declared `extern void entry();`.
///
/// Modules place their own `org` directives; the caller is responsible
/// for choosing origins that do not collide with the compiled C (check
/// [`Build::code_size`] / the image sections in tests).
///
/// # Errors
///
/// [`HarnessError::Compile`] or [`HarnessError::Assemble`] (an undefined
/// `extern` surfaces here as an unknown label).
pub fn build_firmware_linked(
    source: &str,
    opts: Options,
    vectors: &[(u16, &str)],
    modules: &[&str],
) -> Result<Build, HarnessError> {
    let mut asm = compile_firmware(source, opts, vectors)?;
    for m in modules {
        asm.push_str("\n; ---- linked assembly module ----\n");
        asm.push_str(m);
        if !m.ends_with('\n') {
            asm.push('\n');
        }
    }
    let image = assemble(&asm).map_err(|e| HarnessError::Assemble(e.to_string()))?;
    Ok(Build { asm, image, opts })
}

impl Build {
    /// Code bytes (sections below the data origins) — the paper's code
    /// size metric.
    pub fn code_size(&self) -> usize {
        self.image
            .sections
            .iter()
            .filter(|s| s.addr < layout::ROOT_DATA_ORG)
            .map(|s| s.bytes.len())
            .sum()
    }

    /// Prepares a machine with the image loaded and the MMU configured.
    pub fn machine(&self) -> (Cpu, Memory) {
        let mut mem = Memory::new();
        for s in &self.image.sections {
            mem.load(load_phys(s.addr), &s.bytes);
        }
        let mut cpu = Cpu::new();
        rabbit::fwmap::reset_registers(&mut cpu);
        cpu.regs.pc = layout::CODE_ORG;
        (cpu, mem)
    }

    /// Runs to `halt` and returns the result and cycle count.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Run`] on a CPU fault or when `max_cycles` elapses
    /// without reaching `halt`.
    pub fn run(&self, max_cycles: u64) -> Result<RunResult, HarnessError> {
        let (mut cpu, mut mem) = self.machine();
        self.run_prepared(&mut cpu, &mut mem, max_cycles)
    }

    /// Runs a machine previously prepared with [`Build::machine`] (after
    /// the caller has poked inputs into memory) to `halt`.
    ///
    /// # Errors
    ///
    /// As [`Build::run`].
    pub fn run_prepared(
        &self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        max_cycles: u64,
    ) -> Result<RunResult, HarnessError> {
        self.run_prepared_on(rabbit::Engine::BlockCache, cpu, mem, max_cycles)
    }

    /// As [`Build::run_prepared`], but on an explicitly chosen execution
    /// engine (the benchmarks compare the two).
    ///
    /// # Errors
    ///
    /// As [`Build::run`].
    pub fn run_prepared_on(
        &self,
        engine: rabbit::Engine,
        cpu: &mut Cpu,
        mem: &mut Memory,
        max_cycles: u64,
    ) -> Result<RunResult, HarnessError> {
        cpu.run_on(engine, mem, &mut NullIo, max_cycles)
            .map_err(|e| HarnessError::Run(e.to_string()))?;
        if !cpu.halted {
            return Err(HarnessError::Run(format!(
                "did not halt within {max_cycles} cycles"
            )));
        }
        let result_addr = self
            .image
            .symbol("__result")
            .ok_or_else(|| HarnessError::Run("missing __result symbol".into()))?;
        let phys = load_phys(result_addr);
        let result = u16::from_le_bytes([mem.read_phys(phys), mem.read_phys(phys + 1)]);
        Ok(RunResult {
            result,
            cycles: cpu.cycles,
        })
    }

    /// Physical address of a symbol under the standard machine map.
    pub fn symbol_phys(&self, name: &str) -> Option<u32> {
        self.image.symbol(name).map(load_phys)
    }

    /// Writes raw bytes into a compiled global before a run. `mem` must
    /// come from [`Build::machine`].
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a symbol of this build.
    pub fn write_bytes(&self, mem: &mut Memory, name: &str, data: &[u8]) {
        let phys = self
            .symbol_phys(name)
            .unwrap_or_else(|| panic!("no symbol `{name}`"));
        mem.load(phys, data);
    }

    /// Reads raw bytes from a compiled global after a run.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a symbol of this build.
    pub fn read_bytes(&self, mem: &Memory, name: &str, len: usize) -> Vec<u8> {
        let phys = self
            .symbol_phys(name)
            .unwrap_or_else(|| panic!("no symbol `{name}`"));
        mem.dump(phys, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_the_shared_firmware_map() {
        // The codegen layout constants must agree with the repo-wide
        // convention in `rabbit::fwmap` that `load_phys` is defined by.
        assert_eq!(layout::CODE_ORG, rabbit::fwmap::CODE_ORG);
        assert_eq!(layout::ROOT_DATA_ORG, rabbit::fwmap::ROOT_DATA_ORG);
        assert_eq!(layout::XMEM_DATA_ORG, rabbit::fwmap::XMEM_DATA_ORG);
        assert_eq!(layout::XMEM_XPC, rabbit::fwmap::XMEM_XPC);
    }

    fn run(src: &str, opts: Options) -> u16 {
        build(src, opts)
            .expect("builds")
            .run(100_000_000)
            .expect("runs")
            .result
    }

    #[test]
    fn returns_constant() {
        assert_eq!(run("int main() { return 42; }", Options::baseline()), 42);
    }

    #[test]
    fn arithmetic_matrix() {
        let cases = [
            ("2 + 3", 5u16),
            ("10 - 4", 6),
            ("6 * 7", 42),
            ("100 / 7", 14),
            ("100 % 7", 2),
            ("0xF0F0 & 0x0FF0", 0x00F0),
            ("0xF000 | 0x000F", 0xF00F),
            ("0xFF00 ^ 0x0FF0", 0xF0F0),
            ("1 << 10", 1024),
            ("0x8000 >> 15", 1),
            ("5 == 5", 1),
            ("5 != 5", 0),
            ("3 < 7", 1),
            ("7 < 3", 0),
            ("7 > 3", 1),
            ("3 <= 3", 1),
            ("4 >= 5", 0),
        ];
        for (expr, expect) in cases {
            let src = format!("int main() {{ return {expr}; }}");
            for opts in [Options::baseline(), Options::all_optimizations()] {
                assert_eq!(run(&src, opts), expect, "{expr} with {opts:?}");
            }
        }
    }

    #[test]
    fn loops_and_arrays() {
        let src = "char t[5] = {3, 1, 4, 1, 5};\n\
                   int main() { int s; int i; s = 0; for (i = 0; i < 5; i++) s += t[i]; return s; }";
        for opts in [Options::baseline(), Options::all_optimizations()] {
            assert_eq!(run(src, opts), 14, "{opts:?}");
        }
    }

    #[test]
    fn function_calls_and_static_params() {
        let src = "int add(int a, int b) { return a + b; }\n\
                   int main() { return add(add(1, 2), add(3, 4)); }";
        assert_eq!(run(src, Options::baseline()), 10);
    }

    #[test]
    fn char_truncation_on_store() {
        let src = "char c; int main() { c = 0x1FF; return c; }";
        assert_eq!(run(src, Options::baseline()), 0xFF);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(run("int main() { return 9 / 0; }", Options::baseline()), 0);
        assert_eq!(run("int main() { return 9 % 0; }", Options::baseline()), 0);
    }

    #[test]
    fn optimized_code_is_smaller_or_equal_and_faster() {
        let src =
            "int main() { int s; int i; s = 0; for (i = 0; i < 10; i++) s += i * 3; return s; }";
        let base = build(src, Options::baseline()).unwrap();
        let opt = build(src, Options::all_optimizations()).unwrap();
        let base_run = base.run(100_000_000).unwrap();
        let opt_run = opt.run(100_000_000).unwrap();
        assert_eq!(base_run.result, 135);
        assert_eq!(opt_run.result, 135);
        assert!(
            opt_run.cycles < base_run.cycles,
            "optimized {} < baseline {}",
            opt_run.cycles,
            base_run.cycles
        );
    }

    #[test]
    fn root_data_is_faster_than_xmem() {
        let src = "xmem char t[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};\n\
                   int main() { int s; int i; s = 0; for (i = 0; i < 16; i++) s += t[i]; return s; }";
        let xmem = build(
            src,
            Options {
                root_data: false,
                ..Options::baseline()
            },
        )
        .unwrap();
        let root = build(
            src,
            Options {
                root_data: true,
                ..Options::baseline()
            },
        )
        .unwrap();
        let xr = xmem.run(100_000_000).unwrap();
        let rr = root.run(100_000_000).unwrap();
        assert_eq!(xr.result, 136);
        assert_eq!(rr.result, 136);
        assert!(
            rr.cycles < xr.cycles,
            "root {} < xmem {}",
            rr.cycles,
            xr.cycles
        );
    }

    #[test]
    fn extern_routine_links_against_assembly_module() {
        // The C side declares `extern void bump();`, data travels through
        // the global `v`; the assembly module supplies `_bump`.
        let src = "char v;\n\
                   extern void bump();\n\
                   int main() { v = 7; bump(); bump(); return v; }";
        let module = "        org 0x6000\n\
                      _bump:\n\
                      \x20       ld a, (_v)\n\
                      \x20       add a, 5\n\
                      \x20       ld (_v), a\n\
                      \x20       ret\n";
        let b = build_firmware_linked(src, Options::baseline(), &[], &[module]).expect("links");
        let r = b.run(100_000_000).expect("runs");
        assert_eq!(r.result, 17);
    }

    #[test]
    fn extern_call_with_arguments_is_rejected() {
        let src = "extern void f();\nint main() { f(1); return 0; }";
        let err = build(src, Options::baseline()).unwrap_err();
        assert!(matches!(err, HarnessError::Compile(_)), "{err}");
    }

    #[test]
    fn undefined_extern_fails_at_link_time() {
        let src = "extern void ghost();\nint main() { ghost(); return 0; }";
        let err = build_firmware_linked(src, Options::baseline(), &[], &[]).unwrap_err();
        assert!(matches!(err, HarnessError::Assemble(_)), "{err}");
    }

    #[test]
    fn debug_instrumentation_costs_cycles() {
        let src = "int main() { int i; for (i = 0; i < 50; i++) i = i; return i; }";
        let dbg = build(src, Options::baseline()).unwrap();
        let nodbg = build(
            src,
            Options {
                debug: false,
                ..Options::baseline()
            },
        )
        .unwrap();
        let d = dbg.run(100_000_000).unwrap();
        let n = nodbg.run(100_000_000).unwrap();
        assert_eq!(d.result, n.result);
        assert!(
            n.cycles < d.cycles,
            "nodebug {} < debug {}",
            n.cycles,
            d.cycles
        );
        assert!(nodbg.code_size() < dbg.code_size());
    }
}

//! Code generation: Dynamic C subset → Rabbit 2000 assembly.
//!
//! The generator is deliberately *naive* — a faithful stand-in for a
//! circa-2002 non-optimizing embedded C compiler: every expression value
//! flows through `HL`, operands are staged via `push`/`pop`, and every
//! variable access goes to memory. The optimization switches in
//! [`Options`] mirror exactly what the paper's authors tried on their C
//! port of AES (§6): disabling debug instrumentation, moving data to root
//! memory, unrolling loops, and enabling (peephole) compiler
//! optimization.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, Function, Place, Program, Stmt, Ty, UnOp, VarDecl};
use crate::lexer::CompileError;
use crate::peephole;

/// Compiler switches — the paper's E2 ablation axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Insert the `rst 0x28` debugger hook before every statement, as
    /// Dynamic C does when debugging is enabled (default on).
    pub debug: bool,
    /// Place data in root memory instead of behind the XPC window.
    pub root_data: bool,
    /// Unroll `for` loops with small constant trip counts.
    pub unroll: bool,
    /// Run the peephole optimizer over the generated code.
    pub peephole: bool,
}

impl Options {
    /// Dynamic C defaults: debugging on, data in xmem, no optimization —
    /// the configuration of the paper's first direct port.
    pub fn baseline() -> Options {
        Options {
            debug: true,
            root_data: false,
            unroll: false,
            peephole: false,
        }
    }

    /// Everything the paper tried, together.
    pub fn all_optimizations() -> Options {
        Options {
            debug: false,
            root_data: true,
            unroll: true,
            peephole: true,
        }
    }
}

impl Default for Options {
    fn default() -> Options {
        Options::baseline()
    }
}

/// Memory-layout constants shared with the execution harness.
pub mod layout {
    /// Entry point / code origin (root flash).
    pub const CODE_ORG: u16 = 0x4000;
    /// Root data origin (logical; the harness maps it to SRAM).
    pub const ROOT_DATA_ORG: u16 = 0x8000;
    /// Xmem data origin: inside the XPC window.
    pub const XMEM_DATA_ORG: u16 = 0xE000;
    /// XPC value selecting the xmem data page.
    pub const XMEM_XPC: u8 = 0x76;
    /// Address of the debug hook the `rst 0x28` instrumentation hits.
    pub const DEBUG_VECTOR: u16 = 0x28;
}

#[derive(Debug, Clone, Copy)]
struct VarInfo {
    ty: Ty,
    array: bool,
    place: Place,
}

struct Codegen<'p> {
    prog: &'p Program,
    opts: Options,
    out: Vec<String>,
    globals: HashMap<String, VarInfo>,
    label_seq: usize,
    /// (break, continue) label stack.
    loops: Vec<(String, String)>,
    current_fn: String,
    used_runtime: RuntimeUse,
    /// Interrupt vectors to emit: (vector address, C function name).
    vectors: Vec<(u16, String)>,
}

#[derive(Debug, Default, Clone, Copy)]
struct RuntimeUse {
    div: bool,
    shl: bool,
    shr: bool,
    nic_recv: bool,
    nic_send: bool,
}

/// The intrinsic functions of `nic.h`/`serial.h` — recognised by name in
/// call position and lowered directly to I/O port sequences, before any
/// user-function lookup. A user program cannot define functions with
/// these names.
pub const BUILTINS: &[&str] = &[
    "nic_listen",
    "nic_ier",
    "nic_conn",
    "nic_status",
    "nic_accept",
    "nic_close",
    "nic_recv",
    "nic_send",
    "serial_init",
    "serial_status",
    "serial_getc",
    "serial_putc",
    "idle",
];

/// Compiles a parsed program to assembly text, emitting an
/// interrupt-vector stub (`org <addr>; jp _<name>`) for each
/// `(addr, name)` pair. Each named function must exist and be declared
/// `interrupt`.
///
/// # Errors
///
/// [`CompileError`] on semantic errors, including bad vector targets.
pub fn compile_program_vectors(
    prog: &Program,
    opts: Options,
    vectors: &[(u16, &str)],
) -> Result<String, CompileError> {
    let mut globals = HashMap::new();
    for g in &prog.globals {
        let place = if opts.root_data { Place::Root } else { g.place };
        globals.insert(
            gsym(&g.name),
            VarInfo {
                ty: g.ty,
                array: g.array.is_some(),
                place,
            },
        );
    }
    // Function statics (locals + params) are variables too.
    for f in &prog.functions {
        for (pname, pty) in &f.params {
            globals.insert(
                mangled(&f.name, pname),
                VarInfo {
                    ty: *pty,
                    array: false,
                    place: Place::Root,
                },
            );
        }
        for l in &f.locals {
            let place = if opts.root_data { Place::Root } else { l.place };
            globals.insert(
                mangled(&f.name, &l.name),
                VarInfo {
                    ty: l.ty,
                    array: l.array.is_some(),
                    place,
                },
            );
        }
    }

    let mut cg = Codegen {
        prog,
        opts,
        out: Vec::new(),
        globals,
        label_seq: 0,
        loops: Vec::new(),
        current_fn: String::new(),
        used_runtime: RuntimeUse::default(),
        vectors: vectors
            .iter()
            .map(|&(addr, name)| (addr, name.to_string()))
            .collect(),
    };
    cg.emit_all()?;
    Ok(cg.out.join("\n") + "\n")
}

/// Symbol for a global (underscore-prefixed, classic C style, so user
/// names can never collide with register mnemonics in the assembly).
fn gsym(name: &str) -> String {
    format!("_{name}")
}

fn mangled(func: &str, var: &str) -> String {
    format!("_{func}__{var}")
}

/// Label of an interrupt function's shared restore-and-`reti` epilogue
/// (`return;` inside the body jumps here).
fn isr_epilogue(func: &str) -> String {
    format!("_{func}__reti")
}

impl Codegen<'_> {
    fn emit(&mut self, line: impl Into<String>) {
        self.out.push(format!("        {}", line.into()));
    }

    fn label(&mut self, name: &str) {
        self.out.push(format!("{name}:"));
    }

    fn fresh(&mut self, stem: &str) -> String {
        self.label_seq += 1;
        format!("L{}_{stem}", self.label_seq)
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError {
            line: 0,
            message: msg.into(),
        }
    }

    fn emit_all(&mut self) -> Result<(), CompileError> {
        // Debug vector: the Dynamic C debugger hook. A plain `ret` — the
        // cost is the rst/ret round trip on every statement.
        self.out
            .push(format!("        org {:#06x}", layout::DEBUG_VECTOR));
        self.emit("ret");

        // Interrupt vectors: `jp` stubs into the C service routines.
        let vectors = self.vectors.clone();
        for (addr, fname) in &vectors {
            let f = self
                .prog
                .function(fname)
                .ok_or_else(|| self.err(format!("vector target `{fname}` is not defined")))?;
            if !f.interrupt {
                return Err(self.err(format!(
                    "vector target `{fname}` must be an `interrupt` function"
                )));
            }
            self.out.push(format!("        org {addr:#06x}"));
            self.emit(format!("jp {}", gsym(fname)));
        }

        // Entry stub.
        self.out
            .push(format!("        org {:#06x}", layout::CODE_ORG));
        self.emit("ld sp, 0xDFF0");
        self.emit("call _main");
        self.emit("ld (__result), hl");
        self.emit("halt");

        // Functions.
        let funcs: Vec<Function> = self.prog.functions.clone();
        for f in &funcs {
            if BUILTINS.contains(&f.name.as_str()) {
                return Err(self.err(format!("`{}` redefines a compiler intrinsic", f.name)));
            }
            if f.interrupt && f.name == "main" {
                return Err(self.err("`main` cannot be an interrupt function"));
            }
            self.current_fn = f.name.clone();
            let fsym = gsym(&f.name);
            self.label(&fsym);
            if f.interrupt {
                // Dynamic C's ISR prologue: save everything the body may
                // touch; the matching epilogue restores and `reti`s.
                self.emit("push af");
                self.emit("push bc");
                self.emit("push de");
                self.emit("push hl");
            }
            for stmt in &f.body {
                self.stmt(f, stmt)?;
            }
            if f.interrupt {
                self.label(&isr_epilogue(&f.name));
                self.emit("pop hl");
                self.emit("pop de");
                self.emit("pop bc");
                self.emit("pop af");
                self.emit("reti");
            } else {
                // Implicit return 0.
                self.emit("ld hl, 0");
                self.emit("ret");
            }
        }

        self.emit_runtime();
        self.emit_data()?;
        Ok(())
    }

    fn emit_runtime(&mut self) {
        // 16-bit unsigned divide: HL / DE -> quotient HL, remainder DE.
        // Division by zero returns 0 (no trap on this hardware).
        if self.used_runtime.div {
            self.label("__div16");
            self.emit("ld a, d");
            self.emit("or e");
            self.emit("jr nz, __div_ok");
            self.emit("ld hl, 0");
            self.emit("ld de, 0");
            self.emit("ret");
            self.label("__div_ok");
            self.emit("push bc");
            // BC = remainder accumulator, A = bit counter.
            self.emit("ld bc, 0");
            self.emit("ld a, 16");
            self.label("__div_loop");
            self.emit("push af"); // counter survives the flag traffic below
            self.emit("add hl, hl"); // shift dividend left, top bit to carry
            self.emit("rl c");
            self.emit("rl b"); // remainder = remainder*2 + carry
            self.emit("push hl");
            self.emit("ld h, b");
            self.emit("ld l, c");
            self.emit("xor a");
            self.emit("sbc hl, de");
            self.emit("jr c, __div_no");
            self.emit("ld b, h");
            self.emit("ld c, l");
            self.emit("pop hl");
            self.emit("inc hl"); // set low quotient bit
            self.emit("jr __div_next");
            self.label("__div_no");
            self.emit("pop hl");
            self.label("__div_next");
            self.emit("pop af");
            self.emit("dec a");
            self.emit("jr nz, __div_loop");
            self.emit("ld d, b");
            self.emit("ld e, c");
            self.emit("pop bc");
            self.emit("ret");
        }
        if self.used_runtime.shl {
            // HL << E (0..255; >=16 gives 0)
            self.label("__shl16");
            self.emit("ld a, e");
            self.emit("or a");
            self.emit("ret z");
            self.emit("cp 16");
            self.emit("jr c, __shl_go");
            self.emit("ld hl, 0");
            self.emit("ret");
            self.label("__shl_go");
            self.emit("push bc");
            self.emit("ld b, a");
            self.label("__shl_loop");
            self.emit("add hl, hl");
            self.emit("djnz __shl_loop");
            self.emit("pop bc");
            self.emit("ret");
        }
        {
            use rabbit::nicmap as nm;
            if self.used_runtime.nic_recv {
                // Copies the selected handle's pending frame to (DE) and
                // consumes it (`RX_NEXT`); returns the length in BC — 0
                // when nothing was pending, in which case no `RX_NEXT` is
                // issued (an empty-queue `RX_NEXT` would set STATUS_ERR).
                self.label("__nic_recv");
                self.emit(format!("ioe ld a, ({:#06x})", nm::NIC_RXLEN_LO));
                self.emit("ld c, a");
                self.emit(format!("ioe ld a, ({:#06x})", nm::NIC_RXLEN_HI));
                self.emit("ld b, a");
                self.emit("ld a, b");
                self.emit("or c");
                self.emit("jr z, __nr_done");
                self.emit("push bc");
                self.emit(format!("ld hl, {:#06x}", nm::NIC_RX_WINDOW));
                self.label("__nr_loop");
                self.emit("ioe ld a, (hl)");
                self.emit("ld (de), a");
                self.emit("inc hl");
                self.emit("inc de");
                self.emit("dec bc");
                self.emit("ld a, b");
                self.emit("or c");
                self.emit("jr nz, __nr_loop");
                self.emit("pop bc");
                self.emit(format!("ld a, {}", nm::CMD_RX_NEXT));
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_CMD));
                self.label("__nr_done");
                self.emit("ret");
            }
            if self.used_runtime.nic_send {
                // Stages BC bytes from (HL) into the tx window of the
                // selected handle and fires `TX_GO`.
                self.label("__nic_send");
                self.emit("ld a, c");
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_TXLEN_LO));
                self.emit("ld a, b");
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_TXLEN_HI));
                self.emit("ld a, b");
                self.emit("or c");
                self.emit("jr z, __ns_go");
                self.emit(format!("ld de, {:#06x}", nm::NIC_TX_WINDOW));
                self.label("__ns_loop");
                self.emit("ld a, (hl)");
                self.emit("ioe ld (de), a");
                self.emit("inc hl");
                self.emit("inc de");
                self.emit("dec bc");
                self.emit("ld a, b");
                self.emit("or c");
                self.emit("jr nz, __ns_loop");
                self.label("__ns_go");
                self.emit(format!("ld a, {}", nm::CMD_TX_GO));
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_CMD));
                self.emit("ret");
            }
        }
        if self.used_runtime.shr {
            // HL >> E
            self.label("__shr16");
            self.emit("ld a, e");
            self.emit("or a");
            self.emit("ret z");
            self.emit("cp 16");
            self.emit("jr c, __shr_go");
            self.emit("ld hl, 0");
            self.emit("ret");
            self.label("__shr_go");
            self.emit("push bc");
            self.emit("ld b, a");
            self.label("__shr_loop");
            self.emit("xor a"); // clear carry so rr hl shifts in 0
            self.emit("rr hl");
            self.emit("djnz __shr_loop");
            self.emit("pop bc");
            self.emit("ret");
        }
    }

    fn emit_data(&mut self) -> Result<(), CompileError> {
        let mut decls: Vec<(String, VarDecl)> = Vec::new();
        for g in &self.prog.globals {
            decls.push((gsym(&g.name), g.clone()));
        }
        for f in &self.prog.functions {
            for (pname, pty) in &f.params {
                decls.push((
                    mangled(&f.name, pname),
                    VarDecl {
                        name: String::new(),
                        ty: *pty,
                        array: None,
                        init: Vec::new(),
                        place: Place::Xmem,
                    },
                ));
            }
            for l in &f.locals {
                decls.push((mangled(&f.name, &l.name), l.clone()));
            }
        }

        let (root_org, xmem_org) = (layout::ROOT_DATA_ORG, layout::XMEM_DATA_ORG);
        for section_root in [true, false] {
            let org = if section_root { root_org } else { xmem_org };
            self.out.push(format!("        org {org:#06x}"));
            if section_root {
                // The harness result mailbox always lives in root data.
                self.label("__result");
                self.emit("dw 0");
            }
            for (name, decl) in &decls {
                let info = self.globals[name];
                if (info.place == Place::Root) != section_root {
                    continue;
                }
                self.label(name);
                let count = usize::from(decl.array.unwrap_or(1));
                let mut vals = decl.init.clone();
                vals.resize(count, 0);
                let dir = if decl.ty == Ty::Char { "db" } else { "dw" };
                for chunk in vals.chunks(8) {
                    let list: Vec<String> = chunk
                        .iter()
                        .map(|v| {
                            if decl.ty == Ty::Char {
                                format!("{:#04x}", v & 0xFF)
                            } else {
                                format!("{v:#06x}")
                            }
                        })
                        .collect();
                    self.emit(format!("{dir} {}", list.join(", ")));
                }
            }
        }
        Ok(())
    }

    fn var_info(&self, f: &Function, name: &str) -> Result<(String, VarInfo), CompileError> {
        let local = mangled(&f.name, name);
        if let Some(&info) = self.globals.get(&local) {
            // Only a hit if it really is this function's local/param.
            let is_local =
                f.params.iter().any(|(p, _)| p == name) || f.locals.iter().any(|l| l.name == name);
            if is_local {
                return Ok((local, info));
            }
        }
        if let Some(&info) = self.globals.get(&gsym(name)) {
            if self.prog.global(name).is_some() {
                return Ok((gsym(name), info));
            }
        }
        Err(self.err(format!("undefined variable `{name}` in `{}`", f.name)))
    }

    // ---- xmem access sequences ----------------------------------------

    /// Emits the XPC window entry for xmem data access (save current XPC,
    /// select the data page). Clobbers A.
    fn xmem_enter(&mut self) {
        self.emit("ld a, xpc");
        self.emit("push af");
        self.emit(format!("ld a, {:#04x}", layout::XMEM_XPC));
        self.emit("ld xpc, a");
    }

    fn xmem_leave(&mut self) {
        self.emit("pop af");
        self.emit("ld xpc, a");
    }

    /// Loads variable into HL (zero-extended for char).
    fn load_var(&mut self, name: &str, info: VarInfo) {
        let far = info.place == Place::Xmem;
        if far {
            self.xmem_enter();
        }
        match info.ty {
            Ty::Char => {
                self.emit(format!("ld a, ({name})"));
                self.emit("ld l, a");
                self.emit("ld h, 0");
            }
            _ => self.emit(format!("ld hl, ({name})")),
        }
        if far {
            self.xmem_leave();
        }
    }

    /// Stores HL into variable (char truncates).
    fn store_var(&mut self, name: &str, info: VarInfo) {
        let far = info.place == Place::Xmem;
        if far {
            self.xmem_enter();
        }
        match info.ty {
            Ty::Char => {
                self.emit("ld a, l");
                self.emit(format!("ld ({name}), a"));
            }
            _ => self.emit(format!("ld ({name}), hl")),
        }
        if far {
            self.xmem_leave();
        }
    }

    /// With the element address in HL, loads the element into HL.
    fn load_element(&mut self, ty: Ty, far: bool) {
        if far {
            self.xmem_enter();
        }
        match ty {
            Ty::Char => {
                self.emit("ld a, (hl)");
                self.emit("ld l, a");
                self.emit("ld h, 0");
            }
            _ => {
                self.emit("ld a, (hl)");
                self.emit("inc hl");
                self.emit("ld h, (hl)");
                self.emit("ld l, a");
            }
        }
        if far {
            self.xmem_leave();
        }
    }

    /// With the element address in HL and the value in DE, stores it.
    fn store_element(&mut self, ty: Ty, far: bool) {
        if far {
            self.xmem_enter();
        }
        match ty {
            Ty::Char => {
                self.emit("ld (hl), e");
            }
            _ => {
                self.emit("ld (hl), e");
                self.emit("inc hl");
                self.emit("ld (hl), d");
            }
        }
        if far {
            self.xmem_leave();
        }
    }

    /// Computes the address of `name[index_in_HL]` into HL.
    fn element_addr(&mut self, name: &str, ty: Ty) {
        if ty == Ty::Int {
            self.emit("add hl, hl");
        }
        self.emit(format!("ld de, {name}"));
        self.emit("add hl, de");
    }

    // ---- statements ----------------------------------------------------

    fn stmt(&mut self, f: &Function, stmt: &Stmt) -> Result<(), CompileError> {
        if self.opts.debug {
            self.emit("rst 0x28");
        }
        match stmt {
            Stmt::Expr(e) => {
                self.expr(f, e)?;
            }
            Stmt::Return(e) => {
                if f.interrupt {
                    if e.is_some() {
                        return Err(self.err("interrupt function cannot return a value"));
                    }
                    let epi = isr_epilogue(&f.name);
                    self.emit(format!("jp {epi}"));
                    return Ok(());
                }
                match e {
                    Some(e) => self.expr(f, e)?,
                    None => self.emit("ld hl, 0"),
                }
                if f.ret == Ty::Char {
                    self.emit("ld h, 0");
                }
                self.emit("ret");
            }
            Stmt::Break => {
                let (brk, _) = self
                    .loops
                    .last()
                    .cloned()
                    .ok_or_else(|| self.err("break outside loop"))?;
                self.emit(format!("jp {brk}"));
            }
            Stmt::Continue => {
                let (_, cont) = self
                    .loops
                    .last()
                    .cloned()
                    .ok_or_else(|| self.err("continue outside loop"))?;
                self.emit(format!("jp {cont}"));
            }
            Stmt::If(cond, then, els) => {
                let lelse = self.fresh("else");
                let lend = self.fresh("endif");
                self.expr(f, cond)?;
                self.emit("bool hl");
                self.emit(format!("jp z, {lelse}"));
                for s in then {
                    self.stmt(f, s)?;
                }
                self.emit(format!("jp {lend}"));
                self.label(&lelse);
                for s in els {
                    self.stmt(f, s)?;
                }
                self.label(&lend);
            }
            Stmt::While(cond, body) => {
                let ltop = self.fresh("while");
                let lend = self.fresh("wend");
                self.label(&ltop);
                self.expr(f, cond)?;
                self.emit("bool hl");
                self.emit(format!("jp z, {lend}"));
                self.loops.push((lend.clone(), ltop.clone()));
                for s in body {
                    self.stmt(f, s)?;
                }
                self.loops.pop();
                self.emit(format!("jp {ltop}"));
                self.label(&lend);
            }
            Stmt::For(init, cond, step, body) => {
                if self.opts.unroll {
                    if let Some(()) = self.try_unroll(f, init, cond, step, body)? {
                        return Ok(());
                    }
                }
                if let Some(e) = init {
                    self.expr(f, e)?;
                }
                let ltop = self.fresh("for");
                let lstep = self.fresh("fstep");
                let lend = self.fresh("fend");
                self.label(&ltop);
                if let Some(c) = cond {
                    self.expr(f, c)?;
                    self.emit("bool hl");
                    self.emit(format!("jp z, {lend}"));
                }
                self.loops.push((lend.clone(), lstep.clone()));
                for s in body {
                    self.stmt(f, s)?;
                }
                self.loops.pop();
                self.label(&lstep);
                if let Some(s) = step {
                    self.expr(f, s)?;
                }
                self.emit(format!("jp {ltop}"));
                self.label(&lend);
            }
        }
        Ok(())
    }

    /// Recognises `for (i = C0; i < C1; i++)` with a small trip count and
    /// no break/continue in the body; emits the body repeatedly.
    fn try_unroll(
        &mut self,
        f: &Function,
        init: &Option<Expr>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &[Stmt],
    ) -> Result<Option<()>, CompileError> {
        const MAX_TRIPS: u16 = 16;
        let (Some(init), Some(cond), Some(step)) = (init, cond, step) else {
            return Ok(None);
        };
        let Expr::Assign(target, start) = init else {
            return Ok(None);
        };
        let Expr::Var(ivar) = &**target else {
            return Ok(None);
        };
        let Expr::Num(c0) = &**start else {
            return Ok(None);
        };
        let Expr::Bin(BinOp::Lt, lhs, rhs) = cond else {
            return Ok(None);
        };
        let (Expr::Var(cv), Expr::Num(c1)) = (&**lhs, &**rhs) else {
            return Ok(None);
        };
        if cv != ivar || c1 <= c0 || c1 - c0 > MAX_TRIPS {
            return Ok(None);
        }
        // step must be i = i + 1
        let Expr::Assign(starget, svalue) = step else {
            return Ok(None);
        };
        let Expr::Var(sv) = &**starget else {
            return Ok(None);
        };
        let Expr::Bin(BinOp::Add, sl, sr) = &**svalue else {
            return Ok(None);
        };
        if sv != ivar
            || !matches!(&**sl, Expr::Var(v) if v == ivar)
            || !matches!(**sr, Expr::Num(1))
        {
            return Ok(None);
        }
        if body_has_loop_escape(body) {
            return Ok(None);
        }
        // Only small, flat bodies are worth replicating; unrolling nested
        // loops multiplies code size past the 16 KiB root-code budget.
        if body.len() > 6 || body_has_loop(body) {
            return Ok(None);
        }

        for i in *c0..*c1 {
            // i = <k>; body
            self.expr(
                f,
                &Expr::Assign(Box::new(Expr::Var(ivar.clone())), Box::new(Expr::Num(i))),
            )?;
            for s in body {
                self.stmt(f, s)?;
            }
        }
        // Loop variable ends at the bound, as the rolled loop leaves it.
        self.expr(
            f,
            &Expr::Assign(Box::new(Expr::Var(ivar.clone())), Box::new(Expr::Num(*c1))),
        )?;
        Ok(Some(()))
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self, f: &Function, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Num(n) => self.emit(format!("ld hl, {n:#06x}")),
            Expr::Var(name) => {
                let (sym, info) = self.var_info(f, name)?;
                if info.array {
                    // array name decays to its address
                    self.emit(format!("ld hl, {sym}"));
                } else {
                    self.load_var(&sym, info);
                }
            }
            Expr::Index(name, idx) => {
                let (sym, info) = self.var_info(f, name)?;
                if !info.array {
                    return Err(self.err(format!("`{name}` is not an array")));
                }
                self.expr(f, idx)?;
                self.element_addr(&sym, info.ty);
                self.load_element(info.ty, info.place == Place::Xmem);
            }
            Expr::Un(op, inner) => {
                self.expr(f, inner)?;
                match op {
                    UnOp::Neg => {
                        self.emit("ex de, hl");
                        self.emit("ld hl, 0");
                        self.emit("xor a");
                        self.emit("sbc hl, de");
                    }
                    UnOp::Not => {
                        self.emit("ld a, h");
                        self.emit("cpl");
                        self.emit("ld h, a");
                        self.emit("ld a, l");
                        self.emit("cpl");
                        self.emit("ld l, a");
                    }
                    UnOp::LogNot => {
                        self.emit("bool hl");
                        self.emit("ld a, l");
                        self.emit("xor 1");
                        self.emit("ld l, a");
                        self.emit("ld h, 0");
                    }
                }
            }
            Expr::Bin(op, l, r) => self.binop(f, *op, l, r)?,
            Expr::Assign(target, value) => {
                self.expr(f, value)?;
                match &**target {
                    Expr::Var(name) => {
                        let (sym, info) = self.var_info(f, name)?;
                        if info.array {
                            return Err(self.err(format!("cannot assign to array `{name}`")));
                        }
                        self.store_var(&sym, info);
                    }
                    Expr::Index(name, idx) => {
                        let (sym, info) = self.var_info(f, name)?;
                        self.emit("push hl"); // value
                        self.expr(f, idx)?;
                        self.element_addr(&sym, info.ty);
                        self.emit("pop de"); // value -> DE
                        self.store_element(info.ty, info.place == Place::Xmem);
                        self.emit("ex de, hl"); // assignment yields the value
                    }
                    _ => return Err(self.err("bad assignment target")),
                }
            }
            Expr::Call(name, args) => {
                if BUILTINS.contains(&name.as_str()) {
                    return self.builtin(f, name, args);
                }
                if self.prog.is_extern(name) && self.prog.function(name).is_none() {
                    // Assembly-linked routine: no parameter slots exist in
                    // this translation unit, so the call carries no
                    // arguments — data travels through named globals.
                    if !args.is_empty() {
                        return Err(self.err(format!(
                            "extern routine `{name}` takes no arguments (pass data via globals)"
                        )));
                    }
                    self.emit(format!("call {}", gsym(name)));
                    return Ok(());
                }
                let callee = self
                    .prog
                    .function(name)
                    .ok_or_else(|| self.err(format!("undefined function `{name}`")))?
                    .clone();
                if callee.interrupt {
                    return Err(self.err(format!(
                        "cannot call interrupt function `{name}` (reachable only via its vector)"
                    )));
                }
                if args.len() != callee.params.len() {
                    return Err(self.err(format!(
                        "`{name}` takes {} arguments, got {}",
                        callee.params.len(),
                        args.len()
                    )));
                }
                // Caller evaluates each argument and stores it into the
                // callee's static parameter slot (static-locals calling
                // convention).
                for (arg, (pname, pty)) in args.iter().zip(&callee.params) {
                    self.expr(f, arg)?;
                    let sym = mangled(name, pname);
                    let info = VarInfo {
                        ty: *pty,
                        array: false,
                        place: self.globals[&sym].place,
                    };
                    self.store_var(&sym, info);
                }
                self.emit(format!("call {}", gsym(name)));
            }
        }
        Ok(())
    }

    // ---- nic.h / serial.h intrinsics -----------------------------------

    /// Arity check for an intrinsic call.
    fn arity(&self, name: &str, args: &[Expr], n: usize) -> Result<(), CompileError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(self.err(format!(
                "`{name}` takes {n} argument(s), got {}",
                args.len()
            )))
        }
    }

    /// Reads the NIC status register into HL (L = status, H = 0) — every
    /// command intrinsic returns the post-command status so C code can
    /// test `STATUS_ERR` without a second call.
    fn nic_status_to_hl(&mut self) {
        self.emit(format!("ioe ld a, ({:#06x})", rabbit::nicmap::NIC_STATUS));
        self.emit("ld l, a");
        self.emit("ld h, 0");
    }

    /// Selects the connection handle currently in L (writes `CONN`).
    fn nic_select_from_hl(&mut self) {
        self.emit("ld a, l");
        self.emit(format!("ioe ld ({:#06x}), a", rabbit::nicmap::NIC_CONN));
    }

    /// Validates a buffer argument of `nic_recv`/`nic_send`: must name a
    /// `char` array in root memory (the window-copy shims run with plain
    /// 16-bit pointers, so the buffer cannot sit behind the XPC window).
    fn nic_buffer(&self, f: &Function, name: &str, arg: &Expr) -> Result<String, CompileError> {
        let Expr::Var(bname) = arg else {
            return Err(self.err(format!("`{name}` buffer must be an array name")));
        };
        let (sym, info) = self.var_info(f, bname)?;
        if !info.array || info.ty != Ty::Char {
            return Err(self.err(format!("`{name}` buffer `{bname}` must be a char array")));
        }
        if info.place != Place::Root {
            return Err(self.err(format!(
                "`{name}` buffer `{bname}` must live in root memory (declare it `root`)"
            )));
        }
        Ok(sym)
    }

    /// Lowers one intrinsic call. The sequences are the same port traffic
    /// the hand-written shims in `rmc2000::firmware` perform, generated
    /// from the same [`rabbit::nicmap`] register map.
    fn builtin(&mut self, f: &Function, name: &str, args: &[Expr]) -> Result<(), CompileError> {
        use rabbit::io::ports;
        use rabbit::nicmap as nm;
        match name {
            "nic_listen" => {
                self.arity(name, args, 1)?;
                self.expr(f, &args[0])?;
                self.emit("ld a, l");
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_LPORT_LO));
                self.emit("ld a, h");
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_LPORT_HI));
                self.emit(format!("ld a, {}", nm::CMD_LISTEN));
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_CMD));
                self.nic_status_to_hl();
            }
            "nic_ier" => {
                self.arity(name, args, 1)?;
                self.expr(f, &args[0])?;
                self.emit("ld a, l");
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_IER));
            }
            "nic_status" => {
                self.arity(name, args, 0)?;
                self.nic_status_to_hl();
            }
            "nic_conn" => {
                // Select connection handle, return its status view.
                self.arity(name, args, 1)?;
                self.expr(f, &args[0])?;
                self.nic_select_from_hl();
                self.nic_status_to_hl();
            }
            "nic_accept" | "nic_close" => {
                self.arity(name, args, 1)?;
                self.expr(f, &args[0])?;
                self.nic_select_from_hl();
                let cmd = if name == "nic_accept" {
                    nm::CMD_ACCEPT
                } else {
                    nm::CMD_CLOSE
                };
                self.emit(format!("ld a, {cmd}"));
                self.emit(format!("ioe ld ({:#06x}), a", nm::NIC_CMD));
                self.nic_status_to_hl();
            }
            "nic_recv" => {
                self.arity(name, args, 2)?;
                let sym = self.nic_buffer(f, name, &args[1])?;
                self.expr(f, &args[0])?;
                self.nic_select_from_hl();
                self.emit(format!("ld de, {sym}"));
                self.used_runtime.nic_recv = true;
                self.emit("call __nic_recv");
                // Return the received length.
                self.emit("ld h, b");
                self.emit("ld l, c");
            }
            "nic_send" => {
                self.arity(name, args, 3)?;
                let sym = self.nic_buffer(f, name, &args[1])?;
                self.expr(f, &args[0])?;
                self.nic_select_from_hl();
                self.expr(f, &args[2])?;
                self.emit("ld b, h");
                self.emit("ld c, l");
                self.emit(format!("ld hl, {sym}"));
                self.used_runtime.nic_send = true;
                self.emit("call __nic_send");
                self.nic_status_to_hl();
            }
            "serial_init" => {
                self.arity(name, args, 1)?;
                self.expr(f, &args[0])?;
                self.emit("ld a, l");
                self.emit(format!("ioi ld ({:#04x}), a", ports::SACR));
            }
            "serial_status" => {
                self.arity(name, args, 0)?;
                self.emit(format!("ioi ld a, ({:#04x})", ports::SASR));
                self.emit("ld l, a");
                self.emit("ld h, 0");
            }
            "serial_getc" => {
                self.arity(name, args, 0)?;
                self.emit(format!("ioi ld a, ({:#04x})", ports::SADR));
                self.emit("ld l, a");
                self.emit("ld h, 0");
            }
            "serial_putc" => {
                self.arity(name, args, 1)?;
                self.expr(f, &args[0])?;
                self.emit("ld a, l");
                self.emit(format!("ioi ld ({:#04x}), a", ports::SADR));
            }
            "idle" => {
                self.arity(name, args, 0)?;
                // The safe sleep idiom: every instruction of the spin is
                // a block terminator, so both execution engines sample
                // interrupts at the same points.
                let spin = self.fresh("spin");
                self.label(&spin);
                self.emit("halt");
                self.emit(format!("jr {spin}"));
            }
            _ => unreachable!("BUILTINS gate"),
        }
        Ok(())
    }

    fn binop(&mut self, f: &Function, op: BinOp, l: &Expr, r: &Expr) -> Result<(), CompileError> {
        // Short-circuit logicals.
        match op {
            BinOp::LogAnd => {
                let lfalse = self.fresh("andf");
                let lend = self.fresh("ande");
                self.expr(f, l)?;
                self.emit("bool hl");
                self.emit(format!("jp z, {lfalse}"));
                self.expr(f, r)?;
                self.emit("bool hl");
                self.emit(format!("jp {lend}"));
                self.label(&lfalse);
                self.emit("ld hl, 0");
                self.label(&lend);
                return Ok(());
            }
            BinOp::LogOr => {
                let ltrue = self.fresh("ort");
                let lend = self.fresh("ore");
                self.expr(f, l)?;
                self.emit("bool hl");
                self.emit(format!("jp nz, {ltrue}"));
                self.expr(f, r)?;
                self.emit("bool hl");
                self.emit(format!("jp {lend}"));
                self.label(&ltrue);
                self.emit("ld hl, 1");
                self.label(&lend);
                return Ok(());
            }
            _ => {}
        }

        // Normalise > and >= to swapped < and <=.
        let (op, l, r) = match op {
            BinOp::Gt => (BinOp::Lt, r, l),
            BinOp::Ge => (BinOp::Le, r, l),
            other => (other, l, r),
        };

        // left -> stack, right -> DE, left -> HL
        self.expr(f, l)?;
        self.emit("push hl");
        self.expr(f, r)?;
        self.emit("ex de, hl");
        self.emit("pop hl");

        match op {
            BinOp::Add => self.emit("add hl, de"),
            BinOp::Sub => {
                self.emit("xor a");
                self.emit("sbc hl, de");
            }
            BinOp::And => self.emit("and hl, de"),
            BinOp::Or => self.emit("or hl, de"),
            BinOp::Xor => {
                self.emit("ld a, h");
                self.emit("xor d");
                self.emit("ld h, a");
                self.emit("ld a, l");
                self.emit("xor e");
                self.emit("ld l, a");
            }
            BinOp::Mul => {
                self.emit("ld b, h");
                self.emit("ld c, l");
                self.emit("mul");
                self.emit("ld h, b");
                self.emit("ld l, c");
            }
            BinOp::Div => {
                self.used_runtime.div = true;
                self.emit("call __div16");
            }
            BinOp::Mod => {
                self.used_runtime.div = true;
                self.emit("call __div16");
                self.emit("ex de, hl");
            }
            BinOp::Shl => {
                self.used_runtime.shl = true;
                self.emit("call __shl16");
            }
            BinOp::Shr => {
                self.used_runtime.shr = true;
                self.emit("call __shr16");
            }
            BinOp::Eq | BinOp::Ne => {
                self.emit("xor a");
                self.emit("sbc hl, de");
                self.emit("bool hl");
                if op == BinOp::Eq {
                    self.emit("ld a, l");
                    self.emit("xor 1");
                    self.emit("ld l, a");
                }
            }
            BinOp::Lt => {
                let ltrue = self.fresh("lt");
                self.emit("xor a");
                self.emit("sbc hl, de");
                self.emit("ld hl, 1");
                self.emit(format!("jp c, {ltrue}"));
                self.emit("ld hl, 0");
                self.label(&ltrue);
            }
            BinOp::Le => {
                // l <= r  <=>  !(r < l); operands currently HL=l, DE=r.
                let lfalse = self.fresh("le");
                self.emit("ex de, hl");
                self.emit("xor a");
                self.emit("sbc hl, de"); // r - l, carry if r < l
                self.emit("ld hl, 0");
                self.emit(format!("jp c, {lfalse}"));
                self.emit("ld hl, 1");
                self.label(&lfalse);
            }
            BinOp::Gt | BinOp::Ge | BinOp::LogAnd | BinOp::LogOr => {
                unreachable!("normalised or handled above")
            }
        }
        Ok(())
    }
}

fn body_has_loop(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::For(..) | Stmt::While(..) => true,
        Stmt::If(_, a, b) => body_has_loop(a) || body_has_loop(b),
        _ => false,
    })
}

fn body_has_loop_escape(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Break | Stmt::Continue => true,
        Stmt::If(_, a, b) => body_has_loop_escape(a) || body_has_loop_escape(b),
        // nested loops own their break/continue
        _ => false,
    })
}

/// Compiles source text with the given options.
///
/// # Errors
///
/// [`CompileError`] from the lexer, parser or code generator.
pub fn compile(source: &str, opts: Options) -> Result<String, CompileError> {
    compile_firmware(source, opts, &[])
}

/// Compiles source text as *firmware*: in addition to [`compile`], emits
/// an interrupt-vector `jp` stub for each `(vector address, interrupt
/// function name)` pair, so the image can service hardware interrupts
/// (NIC, serial) entirely from C.
///
/// # Errors
///
/// [`CompileError`] from the lexer, parser or code generator, including
/// vectors naming missing or non-`interrupt` functions.
pub fn compile_firmware(
    source: &str,
    opts: Options,
    vectors: &[(u16, &str)],
) -> Result<String, CompileError> {
    let prog = crate::parser::parse(source)?;
    let mut asm = compile_program_vectors(&prog, opts, vectors)?;
    if opts.peephole {
        asm = peephole::optimize(&asm);
    }
    Ok(asm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabbit::nicmap as nm;

    const ECHO_C: &str = "\
        root char buf[64];\n\
        interrupt void nic_isr() {\n\
            int st;\n\
            int n;\n\
            while (1) {\n\
                st = nic_status();\n\
                if ((st & 0x40) && !(st & 0x04)) { nic_accept(0); continue; }\n\
                if (st & 0x02) { n = nic_recv(0, buf); nic_send(0, buf, n); continue; }\n\
                if ((st & 0x08) && (st & 0x04)) { nic_close(0); continue; }\n\
                return;\n\
            }\n\
        }\n\
        int main() {\n\
            nic_listen(7);\n\
            nic_ier(1);\n\
            idle();\n\
            return 0;\n\
        }\n";

    #[test]
    fn interrupt_function_gets_isr_prologue_and_reti() {
        let asm = compile(
            "interrupt void tick() { return; }\nint main() { idle(); return 0; }",
            Options::baseline(),
        )
        .unwrap();
        let tick = asm.split("_tick:").nth(1).unwrap();
        for save in ["push af", "push bc", "push de", "push hl"] {
            assert!(tick.contains(save), "missing `{save}`:\n{asm}");
        }
        assert!(tick.contains("reti"), "{asm}");
        // `return;` jumps to the shared epilogue instead of `ret`.
        assert!(tick.contains("jp _tick__reti"), "{asm}");
        assert!(!tick.split("reti").next().unwrap().contains("\n        ret\n"));
    }

    #[test]
    fn vectors_emit_jp_stubs_at_their_orgs() {
        let asm = compile_firmware(ECHO_C, Options::baseline(), &[(0x00F0, "nic_isr")]).unwrap();
        assert!(asm.contains("org 0x00f0"), "{asm}");
        assert!(asm.contains("jp _nic_isr"), "{asm}");
        let image = rabbit::assemble(&asm).expect("firmware assembles");
        assert!(image.sections.iter().any(|s| s.addr == 0x00F0));
    }

    #[test]
    fn echo_firmware_assembles_with_all_optimizations() {
        let asm =
            compile_firmware(ECHO_C, Options::all_optimizations(), &[(0x00F0, "nic_isr")]).unwrap();
        rabbit::assemble(&asm).expect("optimized firmware assembles");
    }

    #[test]
    fn nic_intrinsics_lower_to_register_file_ports() {
        let asm = compile(ECHO_C, Options::baseline()).unwrap();
        // listen: port halves then the LISTEN command.
        assert!(asm.contains(&format!("ioe ld ({:#06x}), a", nm::NIC_LPORT_LO)));
        assert!(asm.contains(&format!("ioe ld ({:#06x}), a", nm::NIC_LPORT_HI)));
        // accept/close: handle select via CONN, then the command register.
        assert!(asm.contains(&format!("ioe ld ({:#06x}), a", nm::NIC_CONN)));
        assert!(asm.contains(&format!("ioe ld ({:#06x}), a", nm::NIC_CMD)));
        // status reads come back through HL.
        assert!(asm.contains(&format!("ioe ld a, ({:#06x})", nm::NIC_STATUS)));
        // window-copy shims pulled in on demand.
        assert!(asm.contains("__nic_recv:"), "{asm}");
        assert!(asm.contains("__nic_send:"), "{asm}");
        assert!(asm.contains(&format!("ld hl, {:#06x}", nm::NIC_RX_WINDOW)));
        assert!(asm.contains(&format!("ld de, {:#06x}", nm::NIC_TX_WINDOW)));
    }

    #[test]
    fn serial_intrinsics_lower_to_internal_ports() {
        let asm = compile(
            "interrupt void ser() { int c; c = serial_getc(); serial_putc(c); }\n\
             int main() { serial_init(2); idle(); return 0; }",
            Options::baseline(),
        )
        .unwrap();
        use rabbit::io::ports;
        assert!(asm.contains(&format!("ioi ld ({:#04x}), a", ports::SACR)));
        assert!(asm.contains(&format!("ioi ld a, ({:#04x})", ports::SADR)));
        assert!(asm.contains(&format!("ioi ld ({:#04x}), a", ports::SADR)));
    }

    #[test]
    fn idle_emits_the_halt_spin() {
        let asm = compile("int main() { idle(); return 0; }", Options::baseline()).unwrap();
        let spin = asm.split("_spin:").nth(1).expect("spin label");
        assert!(spin.trim_start().starts_with("halt"), "{asm}");
        assert!(spin.contains("jr L"), "{asm}");
    }

    #[test]
    fn runtime_shims_only_emitted_when_used() {
        let asm = compile("int main() { return 1; }", Options::baseline()).unwrap();
        assert!(!asm.contains("__nic_recv"));
        assert!(!asm.contains("__nic_send"));
    }

    #[test]
    fn interrupt_function_rejects_value_return() {
        let err = compile(
            "interrupt void f() { return 1; }\nint main() { return 0; }",
            Options::baseline(),
        )
        .unwrap_err();
        assert!(err.message.contains("cannot return a value"), "{err}");
    }

    #[test]
    fn interrupt_function_cannot_be_called() {
        let err = compile(
            "interrupt void f() { }\nint main() { f(); return 0; }",
            Options::baseline(),
        )
        .unwrap_err();
        assert!(err.message.contains("cannot call interrupt"), "{err}");
    }

    #[test]
    fn parser_rejects_interrupt_with_params_or_result() {
        assert!(compile(
            "interrupt void f(int x) { }\nint main() { return 0; }",
            Options::baseline()
        )
        .is_err());
        assert!(compile(
            "interrupt int f() { return 1; }\nint main() { return 0; }",
            Options::baseline()
        )
        .is_err());
    }

    #[test]
    fn redefining_an_intrinsic_errors() {
        let err = compile(
            "int nic_status() { return 0; }\nint main() { return 0; }",
            Options::baseline(),
        )
        .unwrap_err();
        assert!(err.message.contains("intrinsic"), "{err}");
    }

    #[test]
    fn vector_must_name_an_interrupt_function() {
        let err = compile_firmware(
            "void f() { }\nint main() { return 0; }",
            Options::baseline(),
            &[(0x00F0, "f")],
        )
        .unwrap_err();
        assert!(err.message.contains("must be an `interrupt`"), "{err}");
        let err = compile_firmware(
            "int main() { return 0; }",
            Options::baseline(),
            &[(0x00F0, "ghost")],
        )
        .unwrap_err();
        assert!(err.message.contains("not defined"), "{err}");
    }

    #[test]
    fn nic_buffer_must_be_root_char_array() {
        let opts = Options::baseline(); // root_data off, so `xmem` sticks
        let err = compile(
            "xmem char buf[8];\nint main() { nic_recv(0, buf); return 0; }",
            opts,
        )
        .unwrap_err();
        assert!(err.message.contains("root memory"), "{err}");
        let err = compile("int n;\nint main() { nic_recv(0, n); return 0; }", opts).unwrap_err();
        assert!(err.message.contains("char array"), "{err}");
        let err = compile("int main() { nic_send(0, 5, 1); return 0; }", opts).unwrap_err();
        assert!(err.message.contains("array name"), "{err}");
    }
}

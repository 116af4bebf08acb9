//! Interrupt delivery tests mirroring the paper's §5.1: a serial-style
//! device raises an interrupt; the CPU vectors into an ISR registered in
//! root memory, and `ipset`/`ipres`/`reti` manage priority.

use rabbit::{assemble, Cpu, Interrupt, IoSpace, Memory};

/// A one-shot device: asserts one interrupt after a programmed number of
/// cycles, offers a data register at port 0xC0.
struct OneShot {
    after: u64,
    elapsed: u64,
    pending: bool,
    fired: bool,
    data: u8,
    reads: Vec<u8>,
}

impl OneShot {
    fn new(after: u64, data: u8) -> OneShot {
        OneShot {
            after,
            elapsed: 0,
            pending: false,
            fired: false,
            data,
            reads: Vec::new(),
        }
    }
}

impl IoSpace for OneShot {
    fn io_read(&mut self, port: u16, _external: bool) -> u8 {
        if port == 0xC0 {
            self.reads.push(self.data);
            self.data
        } else {
            0xFF
        }
    }

    fn io_write(&mut self, _port: u16, _value: u8, _external: bool) {}

    fn pending_interrupt(&mut self) -> Option<Interrupt> {
        self.pending.then_some(Interrupt {
            priority: 1,
            vector: 0x0100,
        })
    }

    fn acknowledge_interrupt(&mut self, _vector: u16) {
        self.pending = false;
    }

    fn tick(&mut self, cycles: u64) {
        self.elapsed += cycles;
        if !self.fired && self.elapsed >= self.after {
            self.fired = true;
            self.pending = true;
        }
    }
}

fn machine(src: &str) -> (Cpu, Memory) {
    let image = assemble(src).expect("assembles");
    let mut mem = Memory::new();
    image.load_into(&mut mem);
    let mut cpu = Cpu::new();
    cpu.mmu.segsize = 0xD8;
    cpu.mmu.dataseg = 0x78;
    cpu.mmu.stackseg = 0x78;
    cpu.regs.sp = 0xDFF0;
    cpu.regs.pc = 0x4000;
    (cpu, mem)
}

#[test]
fn isr_runs_and_main_loop_resumes() {
    // Main loop spins incrementing HL; ISR reads the serial data register
    // into B (ioi-prefixed), then reti.
    let src = "\
        org 0x0100\n\
        push af\n\
        ioi ld a, (0xC0)\n\
        ld b, a\n\
        pop af\n\
        reti\n\
        org 0x4000\n\
        ld hl, 0\n\
 spin:  inc hl\n\
        ld a, b\n\
        cp 0x5A\n\
        jr nz, spin\n\
        halt\n";
    let (mut cpu, mut mem) = machine(src);
    let mut dev = OneShot::new(200, 0x5A);
    cpu.run(&mut mem, &mut dev, 1_000_000).expect("no fault");
    assert!(cpu.halted, "main loop saw the ISR's result and halted");
    assert_eq!(cpu.regs.b, 0x5A);
    assert_eq!(dev.reads, vec![0x5A], "ISR read the data register once");
    assert!(cpu.regs.hl() > 0, "main loop actually spun");
    assert_eq!(cpu.priority(), 0, "reti restored the priority");
}

#[test]
fn masked_interrupts_wait_for_ipres() {
    // Main raises its own priority with ipset 3, spins a while, lowers it
    // with ipres; only then may the ISR run.
    let src = "\
        org 0x0100\n\
        ld b, 1\n\
        reti\n\
        org 0x4000\n\
        ipset 3\n\
        ld b, 0\n\
        ld hl, 0\n\
 spin:  inc hl\n\
        ld a, h\n\
        cp 2\n\
        jr nz, spin\n\
        ld c, b\n\
        ipres\n\
 wait:  ld a, b\n\
        or a\n\
        jr z, wait\n\
        halt\n";
    let (mut cpu, mut mem) = machine(src);
    let mut dev = OneShot::new(50, 0);
    cpu.run(&mut mem, &mut dev, 10_000_000).expect("no fault");
    assert!(cpu.halted);
    assert_eq!(cpu.regs.c, 0, "ISR did not run while masked");
    assert_eq!(cpu.regs.b, 1, "ISR ran after ipres");
}

#[test]
fn halt_wakes_on_interrupt() {
    let src = "\
        org 0x0100\n\
        ld b, 0x77\n\
        reti\n\
        org 0x4000\n\
        halt\n\
        ld c, b\n\
        halt\n";
    let (mut cpu, mut mem) = machine(src);
    let mut dev = OneShot::new(100, 0);
    // First run reaches halt; the device then wakes it.
    let mut guard = 0;
    while guard < 100_000 {
        cpu.step(&mut mem, &mut dev).expect("no fault");
        guard += 1;
        if cpu.regs.c == 0x77 && cpu.halted {
            break;
        }
    }
    assert_eq!(cpu.regs.c, 0x77, "execution continued past the first halt");
}

/// A programmable alarm: raises one priority-1 request when its device
/// time reaches the armed cycle, and reports the horizon to it either
/// exactly or as a strict lower bound (half the distance). Writing port
/// 0x41 re-arms it `16 * value + 1` cycles ahead; port 0x42 is a log the
/// service routine writes the interrupted PC to.
struct Alarm {
    now: u64,
    fire_at: Option<u64>,
    pending: bool,
    exact: bool,
    /// Device time at every acknowledge.
    acks: Vec<u64>,
    log: Vec<u8>,
}

impl Alarm {
    fn new(fire_at: u64, exact: bool) -> Alarm {
        Alarm {
            now: 0,
            fire_at: Some(fire_at),
            pending: false,
            exact,
            acks: Vec::new(),
            log: Vec::new(),
        }
    }
}

impl IoSpace for Alarm {
    fn io_read(&mut self, _port: u16, _external: bool) -> u8 {
        self.now as u8
    }

    fn io_write(&mut self, port: u16, value: u8, _external: bool) {
        match port {
            0x41 => self.fire_at = Some(self.now + 16 * u64::from(value) + 1),
            0x42 => self.log.push(value),
            _ => {}
        }
    }

    fn pending_interrupt(&mut self) -> Option<Interrupt> {
        self.pending.then_some(Interrupt {
            priority: 1,
            vector: 0x0100,
        })
    }

    fn acknowledge_interrupt(&mut self, _vector: u16) {
        self.pending = false;
        self.acks.push(self.now);
    }

    fn tick(&mut self, cycles: u64) {
        self.now += cycles;
        if self.fire_at.is_some_and(|t| self.now >= t) {
            self.fire_at = None;
            self.pending = true;
        }
    }

    fn horizon(&mut self) -> Option<u64> {
        Some(match self.fire_at {
            Some(t) if self.exact => t - self.now,
            Some(t) => (t - self.now) / 2,
            None => u64::MAX,
        })
    }
}

/// A main loop of short and long blocks (a call, a masked stretch, an
/// interpreted `ldir`), and a service routine that logs the interrupted
/// PC and re-arms the alarm through I/O before `reti`.
const ALARM_PROGRAM: &str = "\
        org 0x0100\n\
        push hl\n\
        push af\n\
        ld hl, (sp+4)\n\
        ld a, l\n\
        ioi ld (0x42), a\n\
        ld a, h\n\
        ioi ld (0x42), a\n\
        pop af\n\
        pop hl\n\
        push af\n\
        ld a, l\n\
        ioi ld (0x41), a\n\
        pop af\n\
        reti\n\
        org 0x4000\n\
        ld hl, 0\n\
        ld de, 3\n\
 main:  inc hl\n\
        add hl, de\n\
        ld a, l\n\
        and 0x0F\n\
        jr nz, plain\n\
        ipset 1\n\
        inc hl\n\
        inc hl\n\
        inc hl\n\
        ipres\n\
 plain: push hl\n\
        pop bc\n\
        ld a, c\n\
        xor b\n\
        ld c, a\n\
        call leaf\n\
        ld a, l\n\
        and 0x3F\n\
        jr nz, main\n\
        push hl\n\
        push de\n\
        push bc\n\
        ld hl, 0x9000\n\
        ld de, 0x9100\n\
        ld bc, 9\n\
        ldir\n\
        pop bc\n\
        pop de\n\
        pop hl\n\
        jr main\n\
 leaf:  inc de\n\
        dec de\n\
        ret\n";

/// The block cache ends blocks at the I/O space's horizon, so a request
/// raised there is dispatched at the interpreter's instruction: same
/// cycle, same instruction count, same PC and registers, whether the
/// horizon is exact or a strict lower bound, and whatever the run budgets.
#[test]
fn block_cache_dispatches_at_the_interpreters_instruction() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xA1A7);
    let mut dispatches = 0usize;
    for case in 0..48 {
        let fire_at = rng.gen_range(1u64..=4_000);
        let exact = case % 2 == 0;
        let (mut cpu_a, mut mem_a) = machine(ALARM_PROGRAM);
        let (mut cpu_b, mut mem_b) = machine(ALARM_PROGRAM);
        let mut io_a = Alarm::new(fire_at, exact);
        let mut io_b = Alarm::new(fire_at, exact);
        while cpu_a.cycles < 30_000 {
            let budget = if rng.gen_bool(0.3) {
                rng.gen_range(1u64..=24)
            } else {
                rng.gen_range(1u64..=2_000)
            };
            cpu_a.run(&mut mem_a, &mut io_a, budget).expect("no fault");
            cpu_b.run_fast(&mut mem_b, &mut io_b, budget).expect("no fault");
            let at = |cpu: &Cpu| (cpu.cycles, cpu.instructions, cpu.regs.pc);
            assert_eq!(at(&cpu_a), at(&cpu_b), "case {case}: fire at {fire_at}, exact {exact}");
            assert!(cpu_a.regs == cpu_b.regs, "case {case}: registers diverged");
            assert_eq!(io_a.acks, io_b.acks, "case {case}: dispatch cycles diverged");
        }
        assert_eq!(io_a.log, io_b.log, "case {case}: interrupted PCs diverged");
        dispatches += io_a.acks.len();
    }
    assert!(dispatches > 48 * 10, "too few dispatches: {dispatches}");
}

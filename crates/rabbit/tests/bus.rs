//! The device bus: port-range routing, per-device tick batching, and —
//! above all — prioritised interrupt arbitration edge cases, both at the
//! bus level and through real guest code.

use std::any::Any;

use rabbit::{assemble, Bus, Cpu, Device, Interrupt, IoSpace, Memory, PortRange};

/// A scriptable test peripheral: one internal register bank, an optional
/// external window, a controllable interrupt line.
#[derive(Debug, Default)]
struct TestDev {
    name: &'static str,
    base: u16,
    window: Option<(u16, u16)>,
    quantum: u64,
    /// Value served on reads; reading clears the interrupt line when
    /// `clear_on_read` is set (level-triggered device).
    value: u8,
    clear_on_read: bool,
    irq: Option<Interrupt>,
    acks: Vec<u16>,
    ticked: u64,
    tick_calls: u64,
    writes: Vec<(u16, u8)>,
}

impl Device for TestDev {
    fn name(&self) -> &'static str {
        self.name
    }

    fn claims(&self) -> Vec<PortRange> {
        let mut c = vec![PortRange::internal(self.base, self.base + 3)];
        if let Some((start, end)) = self.window {
            c.push(PortRange::external(start, end));
        }
        c
    }

    fn read(&mut self, _port: u16, _external: bool) -> u8 {
        if self.clear_on_read {
            self.irq = None;
        }
        self.value
    }

    fn write(&mut self, port: u16, value: u8, _external: bool) {
        self.writes.push((port, value));
    }

    fn tick(&mut self, cycles: u64) {
        self.ticked += cycles;
        self.tick_calls += 1;
    }

    fn tick_quantum(&self) -> u64 {
        self.quantum
    }

    fn pending(&self) -> Option<Interrupt> {
        self.irq
    }

    fn acknowledge(&mut self, vector: u16) {
        self.acks.push(vector);
        // Acknowledge alone does not drop a level request; reading the
        // device register does (see `clear_on_read`).
        if !self.clear_on_read {
            self.irq = None;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn dev(name: &'static str, base: u16) -> TestDev {
    TestDev {
        name,
        base,
        quantum: 1,
        value: 0xAB,
        ..TestDev::default()
    }
}

#[test]
fn routing_by_claim_and_space() {
    let mut bus = Bus::new();
    let a = bus.attach(Box::new(dev("a", 0x40)));
    let mut b = dev("b", 0x50);
    b.window = Some((0x1000, 0x10FF));
    b.value = 0xCD;
    let b = bus.attach(Box::new(b));

    assert_eq!(bus.io_read(0x40, false), 0xAB);
    assert_eq!(bus.io_read(0x50, false), 0xCD);
    // The same number in the *external* space belongs to nobody...
    assert_eq!(bus.io_read(0x40, true), 0xFF);
    // ...while b's memory-mapped window answers there.
    assert_eq!(bus.io_read(0x1080, true), 0xCD);

    bus.io_write(0x41, 7, false);
    bus.io_write(0x1000, 9, true);
    assert_eq!(bus.device::<TestDev>(a).writes, vec![(0x41, 7)]);
    assert_eq!(bus.device::<TestDev>(b).writes, vec![(0x1000, 9)]);

    // Unclaimed ports float high / are logged.
    assert_eq!(bus.io_read(0x9999, false), 0xFF);
    bus.io_write(0x60, 0x77, false);
    assert_eq!(bus.unclaimed_writes(), &[(0x60, 0x77)]);
}

#[test]
#[should_panic(expected = "overlaps")]
fn overlapping_claims_are_rejected() {
    let mut bus = Bus::new();
    bus.attach(Box::new(dev("a", 0x40)));
    bus.attach(Box::new(dev("b", 0x42)));
}

#[test]
fn arbitration_picks_the_highest_priority() {
    let mut bus = Bus::new();
    let mut lo = dev("lo", 0x40);
    lo.irq = Some(Interrupt {
        priority: 1,
        vector: 0x0100,
    });
    let mut hi = dev("hi", 0x50);
    hi.irq = Some(Interrupt {
        priority: 3,
        vector: 0x0200,
    });
    bus.attach(Box::new(lo));
    bus.attach(Box::new(hi));

    // Two devices pending at different priorities: the higher one wins
    // even though it was attached later.
    assert_eq!(
        bus.pending_interrupt(),
        Some(Interrupt {
            priority: 3,
            vector: 0x0200
        })
    );
}

#[test]
fn arbitration_ties_go_to_the_earliest_attached() {
    let mut bus = Bus::new();
    for (name, base, vector) in [("first", 0x40u16, 0x0100u16), ("second", 0x50, 0x0200)] {
        let mut d = dev(name, base);
        d.irq = Some(Interrupt {
            priority: 2,
            vector,
        });
        bus.attach(Box::new(d));
    }
    assert_eq!(bus.pending_interrupt().unwrap().vector, 0x0100);
}

#[test]
fn acknowledge_clears_exactly_one_source() {
    let mut bus = Bus::new();
    let mut a = dev("a", 0x40);
    a.irq = Some(Interrupt {
        priority: 2,
        vector: 0x0100,
    });
    let mut b = dev("b", 0x50);
    b.irq = Some(Interrupt {
        priority: 2,
        vector: 0x0200,
    });
    let a = bus.attach(Box::new(a));
    let b = bus.attach(Box::new(b));

    bus.acknowledge_interrupt(0x0200);
    assert_eq!(bus.device::<TestDev>(a).acks, Vec::<u16>::new());
    assert_eq!(bus.device::<TestDev>(b).acks, vec![0x0200]);
    // The other request is still pending and now wins arbitration.
    assert_eq!(bus.pending_interrupt().unwrap().vector, 0x0100);
}

#[test]
fn tick_quantum_batches_but_totals_stay_exact() {
    let mut bus = Bus::new();
    let mut d = dev("slow", 0x40);
    d.quantum = 100;
    let fast = bus.attach(Box::new(dev("fast", 0x50)));
    let slow = bus.attach(Box::new(d));

    for _ in 0..3 {
        bus.tick(30);
    }
    // Below the quantum: nothing delivered to the slow device yet, while
    // the quantum-1 device saw every tick as it happened.
    assert_eq!(bus.device::<TestDev>(slow).ticked, 0);
    assert_eq!(bus.device::<TestDev>(fast).ticked, 90);
    bus.tick(30);
    // Crossing the quantum delivers the whole accumulation at once.
    assert_eq!(bus.device::<TestDev>(slow).ticked, 120);
    assert_eq!(bus.device::<TestDev>(slow).tick_calls, 1);

    // A port access (anywhere on the bus) flushes the remainder first.
    bus.tick(50);
    assert_eq!(bus.device::<TestDev>(slow).ticked, 120);
    bus.io_read(0x50, false);
    assert_eq!(bus.device::<TestDev>(slow).ticked, 170);
}

// ---- CPU-level arbitration edge cases ------------------------------------

fn machine(src: &str) -> (Cpu, Memory) {
    let image = assemble(src).expect("assembles");
    let mut mem = Memory::new();
    image.load_into(&mut mem);
    let mut cpu = Cpu::new();
    rabbit::fwmap::reset_registers(&mut cpu);
    cpu.regs.pc = 0x4000;
    (cpu, mem)
}

/// A request raised while the CPU masks it (`ipset 3`) must persist
/// across the IP changes and be taken as soon as `ipres` restores a
/// lower priority.
#[test]
fn request_persists_across_ip_changes() {
    let (mut cpu, mut mem) = machine(
        "        org 0x0100\n\
         isr:    ioi ld a, (0x40)       ; read device -> clears level req\n\
                 ld (0x8000), a\n\
                 reti\n\
                 \n\
                 org 0x4000\n\
         start:  ipset 3                ; mask everything\n\
                 ld b, 10\n\
         wait:   djnz wait              ; request arrives while masked\n\
                 ld a, 1\n\
                 ld (0x8001), a         ; checkpoint: still uninterrupted\n\
                 ipres                  ; unmask -> dispatch happens here\n\
                 nop\n\
                 halt\n",
    );
    let mut bus = Bus::new();
    let mut d = dev("level", 0x40);
    d.value = 0x5A;
    d.clear_on_read = true;
    d.irq = Some(Interrupt {
        priority: 1,
        vector: 0x0100,
    });
    let id = bus.attach(Box::new(d));

    cpu.run(&mut mem, &mut bus, 100_000).expect("runs");
    assert!(cpu.halted);
    // The ISR ran exactly once, after the checkpoint store — i.e. the
    // request was *not* taken while masked but survived until `ipres`.
    assert_eq!(mem.read_phys(rabbit::fwmap::load_phys(0x8001)), 1);
    assert_eq!(mem.read_phys(rabbit::fwmap::load_phys(0x8000)), 0x5A);
    assert_eq!(bus.device::<TestDev>(id).acks, vec![0x0100]);
}

/// With two devices pending, the CPU services them highest-priority
/// first, and the lower one is delivered after the first ISR returns.
#[test]
fn nested_delivery_orders_by_priority() {
    let (mut cpu, mut mem) = machine(
        "        org 0x0100\n\
         isr1:   ioi ld a, (0x40)\n\
                 ld (0x8000), a         ; low-priority ISR ran\n\
                 reti\n\
                 \n\
                 org 0x0200\n\
         isr3:   ioi ld a, (0x50)\n\
                 ld (0x8001), a         ; high-priority ISR ran\n\
                 ld a, (0x8000)\n\
                 ld (0x8002), a         ; snapshot: had isr1 run yet?\n\
                 reti\n\
                 \n\
                 org 0x4000\n\
         start:  nop\n\
                 nop\n\
                 halt\n",
    );
    let mut bus = Bus::new();
    let mut lo = dev("lo", 0x40);
    lo.value = 0x11;
    lo.clear_on_read = true;
    lo.irq = Some(Interrupt {
        priority: 1,
        vector: 0x0100,
    });
    let mut hi = dev("hi", 0x50);
    hi.value = 0x33;
    hi.clear_on_read = true;
    hi.irq = Some(Interrupt {
        priority: 3,
        vector: 0x0200,
    });
    bus.attach(Box::new(lo));
    bus.attach(Box::new(hi));

    cpu.run(&mut mem, &mut bus, 100_000).expect("runs");
    assert!(cpu.halted);
    assert_eq!(mem.read_phys(rabbit::fwmap::load_phys(0x8000)), 0x11);
    assert_eq!(mem.read_phys(rabbit::fwmap::load_phys(0x8001)), 0x33);
    // The high-priority ISR observed 0 at 0x8000: it ran first even
    // though the low-priority device attached first.
    assert_eq!(mem.read_phys(rabbit::fwmap::load_phys(0x8002)), 0);
}

/// A bus that keeps its horizon to itself, so the block cache samples it
/// before every block.
struct Unknown(Bus);

impl IoSpace for Unknown {
    fn io_read(&mut self, port: u16, external: bool) -> u8 {
        self.0.io_read(port, external)
    }

    fn io_write(&mut self, port: u16, value: u8, external: bool) {
        self.0.io_write(port, value, external);
    }

    fn pending_interrupt(&mut self) -> Option<Interrupt> {
        self.0.pending_interrupt()
    }

    fn acknowledge_interrupt(&mut self, vector: u16) {
        self.0.acknowledge_interrupt(vector);
    }

    fn tick(&mut self, cycles: u64) {
        self.0.tick(cycles);
    }
}

/// The block cache owes a bus the cycles between samples, but a run ends
/// with the bus exactly where sampling before every block leaves it: the
/// cycles a quantum-batched device has been handed agree after every run
/// budget, whether the final block follows blocks or an interpreted
/// `ldir`.
#[test]
fn owed_cycles_settle_as_sampling_every_block_would() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let src = "        org 0x4000\n\
               start:  ld hl, 0x9000\n\
                       ld de, 0x9100\n\
                       ld bc, 3\n\
                       ldir\n\
                       inc a\n\
                       inc a\n\
                       jr start\n";
    let batched = || {
        let mut bus = Bus::new();
        let mut d = dev("batched", 0x40);
        d.quantum = 1_500;
        let id = bus.attach(Box::new(d));
        (bus, id)
    };
    let (mut cpu_a, mut mem_a) = machine(src);
    let (mut cpu_b, mut mem_b) = machine(src);
    let (bus_a, id_a) = batched();
    let (mut bus_b, id_b) = batched();
    let mut every_block = Unknown(bus_a);
    let mut rng = StdRng::seed_from_u64(0xB0A7);
    for slice in 0..300 {
        let budget = rng.gen_range(1u64..=2_000);
        cpu_a.run_fast(&mut mem_a, &mut every_block, budget).expect("runs");
        cpu_b.run_fast(&mut mem_b, &mut bus_b, budget).expect("runs");
        assert_eq!(cpu_a.cycles, cpu_b.cycles);
        let handed = |bus: &Bus, id| bus.device::<TestDev>(id).ticked;
        assert_eq!(
            handed(&every_block.0, id_a),
            handed(&bus_b, id_b),
            "slice {slice}, budget {budget}"
        );
    }
}

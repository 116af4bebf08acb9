//! The assembled board: a Rabbit 2000 CPU, 512 KiB flash + 128 KiB SRAM,
//! a device bus carrying serial port A, a free-running real-time clock,
//! and (optionally) the NIC, plus the `defineErrorHandler` dispatch of
//! the paper's §4.1.

use std::any::Any;

use dynamicc::{Disposition, ErrorHandler, ErrorInfo, ErrorKind};
use rabbit::io::ports;
use rabbit::{Bus, Cpu, Device, DeviceId, Engine, Fault, Image, IoSpace, Memory, PortRange};
use telemetry::Counter;

use crate::nic::{Nic, NicPort};
use crate::serial::SerialPort;

/// The free-running real-time clock: a cycle counter latched into the
/// `RTC0..RTC5` registers when `RTC0` is read.
#[derive(Debug, Default)]
pub struct Rtc {
    /// Cycles elapsed since power-up.
    pub cycles: u64,
    latch: u64,
}

impl Device for Rtc {
    fn name(&self) -> &'static str {
        "rtc"
    }

    fn claims(&self) -> Vec<PortRange> {
        vec![PortRange::internal(ports::RTC0, ports::RTC0 + 5)]
    }

    fn read(&mut self, port: u16, _external: bool) -> u8 {
        if port == ports::RTC0 {
            self.latch = self.cycles;
        }
        (self.latch >> (8 * (port - ports::RTC0))) as u8
    }

    fn write(&mut self, _port: u16, _value: u8, _external: bool) {
        // Read-only in this model.
    }

    fn tick(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    // No `next_deadline`: the RTC is a free-running counter with no
    // interrupts, observable only through a port read that latches it.
    // Its additive tick makes every intermediate count unobservable, so
    // it never bounds the event horizon.

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The `board<i>.board.*` telemetry counters the idle scheduler maintains.
#[derive(Debug, Clone)]
pub struct BoardCounters {
    /// Halted cycles consumed while idling (batched or stepwise).
    pub idle_cycles: Counter,
    /// Event-horizon batches the fast-forward path took.
    pub skip_batches: Counter,
}

impl BoardCounters {
    /// Registers the counters under board-namespaced names
    /// (`board<idx>.board.*`), so boards sharing one registry never
    /// collide.
    pub fn register_board(registry: &telemetry::Registry, idx: usize) -> BoardCounters {
        BoardCounters {
            idle_cycles: registry.counter(&format!("board{idx}.board.idle_cycles"), &[]),
            skip_batches: registry.counter(&format!("board{idx}.board.skip_batches"), &[]),
        }
    }

    /// Free-standing counters, not attached to any registry.
    pub fn detached() -> BoardCounters {
        BoardCounters {
            idle_cycles: Counter::new(),
            skip_batches: Counter::new(),
        }
    }
}

/// Outcome of running firmware for a while.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// CPU reached `halt` with no interrupt pending.
    Halted,
    /// The cycle budget was used up.
    BudgetExhausted,
    /// A fault was raised and the error handler said stop.
    HandlerHalt,
    /// A fault was raised and the error handler asked for a reset.
    HandlerReset,
}

/// The RMC2000 board.
pub struct Board {
    /// The CPU.
    pub cpu: Cpu,
    /// Flash + SRAM.
    pub mem: Memory,
    /// The device bus (serial port A, RTC, optionally the NIC).
    pub bus: Bus,
    /// The registered error handler (`defineErrorHandler`).
    pub errors: ErrorHandler,
    /// Number of resets performed by the error handler.
    pub resets: u64,
    /// Execution engine [`Board::run`] dispatches to.
    pub engine: Engine,
    /// Idle-scheduler telemetry (`board<idx>.board.idle_cycles`,
    /// `board<idx>.board.skip_batches` once bound).
    pub counters: BoardCounters,
    serial_id: DeviceId,
    rtc_id: DeviceId,
    nic_id: Option<DeviceId>,
}

impl Board {
    /// A powered-up board with the standard firmware memory map (data
    /// segment at 0x8000 → SRAM, stack segment backed by SRAM).
    pub fn new() -> Board {
        Board::with_engine(Engine::BlockCache)
    }

    /// A board whose [`Board::run`] uses the given execution engine.
    pub fn with_engine(engine: Engine) -> Board {
        let mut cpu = Cpu::new();
        cpu.mmu.segsize = rabbit::fwmap::SEGSIZE_RESET;
        cpu.mmu.dataseg = rabbit::fwmap::DATASEG_PAGE;
        cpu.mmu.stackseg = rabbit::fwmap::STACKSEG_PAGE;
        cpu.regs.sp = rabbit::fwmap::SP_RESET;
        let mut bus = Bus::new();
        let serial_id = bus.attach(Box::new(SerialPort::new()));
        let rtc_id = bus.attach(Box::new(Rtc::default()));
        Board {
            cpu,
            mem: Memory::new(),
            bus,
            errors: ErrorHandler::new(),
            resets: 0,
            engine,
            counters: BoardCounters::detached(),
            serial_id,
            rtc_id,
            nic_id: None,
        }
    }

    /// Rebinds the board's idle-scheduler counters into `registry` as
    /// `board<idx>.board.*`, so one snapshot covers the guest-side
    /// scheduler next to the `net.*` counters. Values accumulated so far
    /// in the detached cells are not carried over; bind before running.
    pub fn bind_telemetry_board(&mut self, registry: &telemetry::Registry, idx: usize) {
        self.counters = BoardCounters::register_board(registry, idx);
    }

    /// Plugs a NIC into the bus (at most one).
    ///
    /// # Panics
    ///
    /// If a NIC is already attached.
    pub fn attach_nic(&mut self, nic: Nic) {
        assert!(self.nic_id.is_none(), "NIC already attached");
        self.nic_id = Some(self.bus.attach(Box::new(nic)));
    }

    /// Serial port A.
    pub fn serial(&self) -> &SerialPort {
        self.bus.device(self.serial_id)
    }

    /// Serial port A, mutably (host side: inject characters, read the
    /// transmit capture).
    pub fn serial_mut(&mut self) -> &mut SerialPort {
        self.bus.device_mut(self.serial_id)
    }

    /// The real-time clock.
    pub fn rtc(&self) -> &Rtc {
        self.bus.device(self.rtc_id)
    }

    /// The NIC, when one is attached.
    pub fn nic(&self) -> Option<&Nic> {
        self.nic_id.map(|id| self.bus.device(id))
    }

    /// The NIC's port, when a NIC is attached, for the barrier's fill
    /// and drain. This delivers no pending device time: a poll boundary
    /// the board's last instruction crossed is still polled inside the
    /// board's next slice, against the port that slice was filled with.
    pub fn nic_port_mut(&mut self) -> Option<&mut NicPort> {
        let id = self.nic_id?;
        Some(self.bus.device_mut_unticked::<Nic>(id).port_mut())
    }

    /// Loads an assembled image through the programming port, honouring
    /// the firmware memory map (root code below 0x8000 goes to flash,
    /// data at 0x8000+ to SRAM, xmem-window sections to their page).
    pub fn load(&mut self, image: &Image) {
        for s in &image.sections {
            self.mem.load(crate::load_phys(s.addr), &s.bytes);
        }
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u16) {
        self.cpu.regs.pc = pc;
        self.cpu.halted = false;
    }

    /// Executes one instruction, routing faults through the registered
    /// error handler exactly as the hardware routes them through
    /// `defineErrorHandler`.
    pub fn step(&mut self) -> Option<RunOutcome> {
        match self.cpu.step(&mut self.mem, &mut self.bus) {
            Ok(_) => None,
            Err(fault) => self.route_fault(fault),
        }
    }

    fn route_fault(&mut self, fault: Fault) -> Option<RunOutcome> {
        let Fault::InvalidOpcode { pc, opcode } = fault;
        let info = ErrorInfo {
            kind: ErrorKind::InvalidOpcode,
            address: pc,
            aux: u16::from(opcode),
        };
        match self.errors.raise(info) {
            Disposition::Ignore => None, // skip and continue, as the paper's port did
            Disposition::Halt => Some(RunOutcome::HandlerHalt),
            Disposition::Reset => {
                self.reset();
                Some(RunOutcome::HandlerReset)
            }
        }
    }

    /// Soft reset: PC to 0, registers cleared, memory and peripherals
    /// retained (battery-backed `protected` state survives by design).
    pub fn reset(&mut self) {
        let mmu = self.cpu.mmu;
        self.cpu = Cpu::new();
        self.cpu.mmu = mmu;
        self.cpu.regs.sp = rabbit::fwmap::SP_RESET;
        self.resets += 1;
    }

    /// Runs until halt, fault-handler stop, or the cycle budget runs out.
    ///
    /// Execution goes through [`Board::engine`] (the block-caching engine
    /// by default); waiting in `halt` for an interrupt goes through the
    /// event-horizon scheduler (`Board::halted_advance`), which is
    /// engine-independent by construction.
    ///
    /// Each engine run ends no later than the bus's next device deadline
    /// (the E12 lower bound on any device event), so an interrupt a
    /// device raises there is sampled before the next instruction on
    /// either engine, although the block cache only samples between
    /// blocks.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let start = self.cpu.cycles;
        loop {
            if self.cpu.halted && self.bus.pending_interrupt().is_none() {
                return RunOutcome::Halted;
            }
            if self.cpu.cycles - start >= max_cycles {
                return RunOutcome::BudgetExhausted;
            }
            let left = max_cycles - (self.cpu.cycles - start);
            let outcome = if self.cpu.halted {
                // A pending request is either dispatched now or masked;
                // either way this cannot fault.
                self.halted_advance(left);
                None
            } else {
                let budget = match self.bus.next_deadline() {
                    Some(d) => left.min(d.max(1)),
                    None => left,
                };
                match self
                    .cpu
                    .run_on(self.engine, &mut self.mem, &mut self.bus, budget)
                {
                    Ok(_) => None,
                    Err(fault) => self.route_fault(fault),
                }
            };
            if let Some(outcome) = outcome {
                if outcome != RunOutcome::HandlerReset {
                    return outcome;
                }
            }
        }
    }

    /// Lets a halted CPU sleep for up to `max_cycles` while peripherals
    /// keep advancing, waking on the first dispatchable interrupt.
    /// Returns true when an interrupt woke the CPU.
    ///
    /// Time moves through the event-horizon scheduler: whole stretches of
    /// halted time are skipped in one batch per device deadline instead
    /// of 2 cycles at a time, with wake-up times, interrupt order, and
    /// telemetry byte-identical to the stepwise path
    /// ([`Board::idle_stepwise`] keeps that path as the oracle). The idle
    /// path never touches [`Board::engine`], so it is engine-independent
    /// by construction.
    pub fn idle(&mut self, max_cycles: u64) -> bool {
        let start = self.cpu.cycles;
        while self.cpu.halted && self.cpu.cycles - start < max_cycles {
            self.halted_advance(max_cycles - (self.cpu.cycles - start));
        }
        !self.cpu.halted
    }

    /// The pre-batching idle loop: burns halted time 2 cycles at a step
    /// through [`rabbit::Cpu::step`]. Kept as the reference
    /// implementation the differential tests compare [`Board::idle`]
    /// against — and as the measured "before" of the E12 experiment.
    pub fn idle_stepwise(&mut self, max_cycles: u64) -> bool {
        let start = self.cpu.cycles;
        while self.cpu.halted && self.cpu.cycles - start < max_cycles {
            // A halted step cannot fault: it either idles or dispatches.
            let cycles_before = self.cpu.cycles;
            let _ = self.cpu.step(&mut self.mem, &mut self.bus);
            if self.cpu.halted {
                self.counters
                    .idle_cycles
                    .add(self.cpu.cycles - cycles_before);
            }
        }
        !self.cpu.halted
    }

    /// One halted scheduling decision: dispatch a pending unmasked
    /// interrupt exactly as a stepwise halted [`rabbit::Cpu::step`]
    /// would, or fast-forward to the *event horizon* — the nearest
    /// [`rabbit::Device::next_deadline`] over the bus, capped by
    /// `budget` — in a single [`rabbit::Bus::advance`] batch.
    ///
    /// Equivalence with the stepwise path: a halted step burns 2 cycles
    /// and re-polls interrupts, so wake-ups can only happen at
    /// `start + 2k`; a device event `d` cycles away first becomes
    /// visible at the poll after `ceil(d / 2)` steps, which is exactly
    /// where the batch stops. Deadlines are lower bounds, so the batch
    /// never jumps past an interrupt raise; the bus still ticks devices
    /// through every intermediate poll boundary inside the batch, so
    /// device-side work (NIC polls, frame delivery) happens at the
    /// same virtual times as before.
    fn halted_advance(&mut self, budget: u64) {
        debug_assert!(self.cpu.halted, "halted_advance on a running CPU");
        debug_assert!(budget > 0, "halted_advance needs a budget");
        if let Some(req) = self.bus.pending_interrupt() {
            if req.priority & 3 > self.cpu.priority() {
                // Dispatch. A halted step cannot fault.
                let _ = self.cpu.step(&mut self.mem, &mut self.bus);
                return;
            }
        }
        // Nothing dispatchable (a masked request may stay pending): skip
        // whole halted steps at once.
        let mut steps = budget.div_ceil(2);
        if let Some(d) = self.bus.next_deadline() {
            steps = steps.min(d.div_ceil(2)).max(1);
        }
        let cycles = steps * 2;
        self.cpu.skip_halted(cycles);
        self.bus.advance(cycles);
        self.counters.idle_cycles.add(cycles);
        self.counters.skip_batches.inc();
    }

    /// Runs until the predicate on the board holds (checked between
    /// instructions) or the budget expires. Returns whether it held.
    ///
    /// Execution dispatches through [`Board::engine`] with a
    /// one-cycle budget — which retires exactly one instruction on either
    /// engine — so the
    /// predicate cadence, and therefore every predicate-visible state,
    /// is identical to the historical single-stepping implementation
    /// (transient predicates such as "PC is inside the ISR" still fire).
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&Board) -> bool) -> bool {
        let start = self.cpu.cycles;
        while self.cpu.cycles - start < max_cycles {
            if pred(self) {
                return true;
            }
            let outcome = if self.cpu.halted {
                // Halted wait: the stepwise wake-up cadence is the
                // predicate-visible contract; keep it.
                self.step()
            } else {
                match self.cpu.run_on(self.engine, &mut self.mem, &mut self.bus, 1) {
                    Ok(_) => None,
                    Err(fault) => self.route_fault(fault),
                }
            };
            if let Some(outcome) = outcome {
                if outcome != RunOutcome::HandlerReset {
                    return pred(self);
                }
            }
        }
        pred(self)
    }
}

impl Default for Board {
    fn default() -> Board {
        Board::new()
    }
}

impl std::fmt::Debug for Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Board")
            .field("cpu", &self.cpu.regs)
            .field("cycles", &self.cpu.cycles)
            .field("bus", &self.bus)
            .field("resets", &self.resets)
            .finish()
    }
}

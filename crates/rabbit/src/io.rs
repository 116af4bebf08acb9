//! The internal/external I/O space, the device bus, and the interrupt
//! request interface.
//!
//! The Rabbit 2000 has no Z80-style `in`/`out` instructions; instead the
//! `ioi` and `ioe` prefixes redirect the memory operand of the following
//! instruction into the internal or external I/O space (the paper's
//! `WrPortI(SADR, ...)` calls compile to `ioi ld (mn),a`). Peripherals
//! implement [`IoSpace`]; the CPU consults it for prefixed accesses and
//! polls it for interrupt requests between instructions.
//!
//! [`IoSpace`] is the CPU-facing contract. Real boards are assembled from
//! a [`Bus`] of [`Device`]s: each device claims port ranges in the
//! internal and/or external space (the external space doubles as the
//! memory-mapped peripheral bus — a claim there is a window of
//! `ioe`-addressable bytes), receives batched `tick(cycles)` time, and
//! may raise a prioritised interrupt that the bus arbitrates.

use std::any::Any;

/// Well-known internal I/O port numbers used by this model.
///
/// The numbering follows the Rabbit 2000 register map where we model the
/// corresponding peripheral and is otherwise stable-but-arbitrary.
pub mod ports {
    /// `STACKSEG` MMU register.
    pub const STACKSEG: u16 = 0x11;
    /// `DATASEG` MMU register.
    pub const DATASEG: u16 = 0x12;
    /// `SEGSIZE` MMU register.
    pub const SEGSIZE: u16 = 0x13;
    /// Serial port A data register (`SADR`).
    pub const SADR: u16 = 0xC0;
    /// Serial port A status register (`SASR`).
    pub const SASR: u16 = 0xC3;
    /// Serial port A control register (`SACR`).
    pub const SACR: u16 = 0xC4;
    /// Interrupt-0 control register (`I0CR`).
    pub const I0CR: u16 = 0x98;
    /// Timer A control register.
    pub const TACR: u16 = 0xA0;
    /// Real-time clock, low byte first; reading latches the count.
    pub const RTC0: u16 = 0x02;
}

/// An interrupt request presented to the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupt {
    /// Priority 1..=3; the CPU takes the request only when this exceeds its
    /// current interrupt priority.
    pub priority: u8,
    /// Logical address of the service routine.
    pub vector: u16,
}

/// The bus of I/O peripherals visible to a [`crate::Cpu`].
pub trait IoSpace {
    /// Reads a byte from an I/O port. `external` is true for `ioe`-prefixed
    /// accesses (the external I/O strobe).
    fn io_read(&mut self, port: u16, external: bool) -> u8;

    /// Writes a byte to an I/O port.
    fn io_write(&mut self, port: u16, value: u8, external: bool);

    /// Returns the highest-priority pending interrupt, if any. The request
    /// must stay pending until acknowledged.
    fn pending_interrupt(&mut self) -> Option<Interrupt> {
        None
    }

    /// Notifies the device that `vector`'s request was accepted.
    fn acknowledge_interrupt(&mut self, _vector: u16) {}

    /// Advances device time by `cycles` CPU clocks.
    fn tick(&mut self, _cycles: u64) {}
}

/// An I/O space with no peripherals: reads float high, writes vanish.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullIo;

impl IoSpace for NullIo {
    fn io_read(&mut self, _port: u16, _external: bool) -> u8 {
        0xFF
    }

    fn io_write(&mut self, _port: u16, _value: u8, _external: bool) {}
}

/// An inclusive range of ports claimed by a [`Device`] in one of the two
/// I/O spaces.
///
/// Internal claims are register banks reached with `ioi`; external claims
/// are addresses on the external peripheral bus reached with `ioe`. A
/// multi-byte external claim is a *memory-mapped window*: the guest moves
/// data through it with ordinary load/store loops under the `ioe` prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRange {
    /// First claimed port.
    pub start: u16,
    /// Last claimed port (inclusive).
    pub end: u16,
    /// True for the external (`ioe`) space.
    pub external: bool,
}

impl PortRange {
    /// A claim in the internal (`ioi`) register space.
    pub fn internal(start: u16, end: u16) -> PortRange {
        PortRange {
            start,
            end,
            external: false,
        }
    }

    /// A claim in the external (`ioe`) space — a memory-mapped window
    /// when it spans more than one byte.
    pub fn external(start: u16, end: u16) -> PortRange {
        PortRange {
            start,
            end,
            external: true,
        }
    }

    /// Whether this claim covers `port` in the given space.
    pub fn contains(&self, port: u16, external: bool) -> bool {
        self.external == external && (self.start..=self.end).contains(&port)
    }
}

/// A peripheral that lives on a [`Bus`].
///
/// Devices declare their port claims once at attach time, receive time in
/// batches through [`Device::tick`], and surface interrupt requests that
/// the bus arbitrates by priority. `as_any`/`as_any_mut` give boards
/// typed access to an attached device (see [`Bus::device`]).
pub trait Device: Any {
    /// Stable, short device name (used in diagnostics).
    fn name(&self) -> &'static str;

    /// The port ranges this device claims; sampled once when attached.
    fn claims(&self) -> Vec<PortRange>;

    /// Reads a claimed port.
    fn read(&mut self, port: u16, external: bool) -> u8;

    /// Writes a claimed port.
    fn write(&mut self, port: u16, value: u8, external: bool);

    /// Advances device time. The bus batches cycles (see
    /// [`Device::tick_quantum`]); totals are exact at every port access
    /// and interrupt poll, so chunking is unobservable to a correct
    /// device (one whose `tick` is additive: `tick(a); tick(b)` ≡
    /// `tick(a + b)`).
    fn tick(&mut self, _cycles: u64) {}

    /// Minimum batch size, in cycles, for [`Device::tick`] delivery. The
    /// bus accumulates cycles per device and delivers them once the
    /// accumulator reaches this quantum — or earlier, when *any* device
    /// port is accessed or interrupts are polled (a full flush keeps
    /// device time exact at every observation point). A quantum of 1
    /// (the default) delivers on every bus tick.
    fn tick_quantum(&self) -> u64 {
        1
    }

    /// Cycles of device time until this device's next *observable event*
    /// — a change it makes on its own (raising or changing an interrupt
    /// request, interacting with the outside world) without any CPU
    /// access, measured from the device's current (fully delivered)
    /// time. `None` (the default) means "no event will happen however
    /// long time advances"; free-running state that is only visible when
    /// the CPU reads a port (an RTC counter, say) does *not* count as an
    /// event, because an additive `tick` makes the intermediate values
    /// unobservable.
    ///
    /// The deadline is a contract with [`Bus::next_deadline`]: it must be
    /// a *lower bound* — the device may report an event earlier than it
    /// happens (the scheduler just wakes up, sees nothing pending, and
    /// asks again), but never later. Returning a conservative bound is
    /// always safe; returning `None` while an autonomous event is coming
    /// is not.
    fn next_deadline(&self) -> Option<u64> {
        None
    }

    /// This device's pending interrupt request, if any. Must stay pending
    /// until acknowledged or the requesting condition clears.
    fn pending(&self) -> Option<Interrupt> {
        None
    }

    /// The CPU accepted this device's request for `vector`.
    fn acknowledge(&mut self, _vector: u16) {}

    /// Upcast for typed access through [`Bus::device`].
    fn as_any(&self) -> &dyn Any;

    /// Upcast for typed access through [`Bus::device_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Handle to a device attached to a [`Bus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceId(usize);

struct Slot {
    dev: Box<dyn Device>,
    claims: Vec<PortRange>,
    /// Cycles ticked into the bus but not yet delivered to the device.
    pending: u64,
    quantum: u64,
}

/// A registry of [`Device`]s behind one [`IoSpace`]: port-range routing,
/// per-device tick batching, and prioritised interrupt arbitration.
///
/// Determinism contract: before any port access, interrupt poll, or
/// acknowledge, every device has received the exact total of cycles
/// ticked so far (`flush`). Because the `ioi`/`ioe` prefixes are barriers
/// in the block-caching engine, device state observed by the guest is
/// byte-identical under both execution engines.
#[derive(Default)]
pub struct Bus {
    slots: Vec<Slot>,
    unclaimed_writes: Vec<(u16, u8)>,
}

impl Bus {
    /// An empty bus: reads float high, writes are logged.
    pub fn new() -> Bus {
        Bus::default()
    }

    /// Attaches a device; its port claims are sampled now and fixed for
    /// the bus's lifetime. Arbitration ties (equal priority) go to the
    /// earliest-attached device.
    ///
    /// # Panics
    ///
    /// If one of the device's claims overlaps a claim of an
    /// already-attached device in the same space.
    pub fn attach(&mut self, dev: Box<dyn Device>) -> DeviceId {
        let claims = dev.claims();
        for slot in &self.slots {
            for a in &claims {
                for b in &slot.claims {
                    assert!(
                        a.external != b.external || a.start > b.end || a.end < b.start,
                        "I/O claim {a:?} of {:?} overlaps {b:?} of {:?}",
                        dev.name(),
                        slot.dev.name(),
                    );
                }
            }
        }
        let quantum = dev.tick_quantum().max(1);
        self.slots.push(Slot {
            dev,
            claims,
            pending: 0,
            quantum,
        });
        DeviceId(self.slots.len() - 1)
    }

    /// Typed shared access to an attached device.
    ///
    /// # Panics
    ///
    /// If `T` is not the concrete type of the device behind `id`.
    pub fn device<T: Device>(&self, id: DeviceId) -> &T {
        self.slots[id.0]
            .dev
            .as_any()
            .downcast_ref::<T>()
            .expect("device type mismatch")
    }

    /// Typed exclusive access to an attached device. Pending ticks are
    /// flushed first so the device is observed at the current time.
    ///
    /// # Panics
    ///
    /// If `T` is not the concrete type of the device behind `id`.
    pub fn device_mut<T: Device>(&mut self, id: DeviceId) -> &mut T {
        self.flush();
        self.slots[id.0]
            .dev
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("device type mismatch")
    }

    /// Typed exclusive access that leaves pending ticks undelivered: for
    /// host-side state outside device time, which must not move a
    /// device's own events (a NIC poll) to the other side of a step of
    /// the outside world.
    ///
    /// # Panics
    ///
    /// If `T` is not the concrete type of the device behind `id`.
    pub fn device_mut_unticked<T: Device>(&mut self, id: DeviceId) -> &mut T {
        self.slots[id.0]
            .dev
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("device type mismatch")
    }

    /// Names of the attached devices, in attach (= arbitration-tie) order.
    pub fn device_names(&self) -> Vec<&'static str> {
        self.slots.iter().map(|s| s.dev.name()).collect()
    }

    /// Writes to ports no device claims (visible for tests).
    pub fn unclaimed_writes(&self) -> &[(u16, u8)] {
        &self.unclaimed_writes
    }

    /// Delivers all accumulated cycles so every device sits at the exact
    /// current time.
    fn flush(&mut self) {
        for s in &mut self.slots {
            if s.pending > 0 {
                let c = std::mem::take(&mut s.pending);
                s.dev.tick(c);
            }
        }
    }

    /// Advances every device by `cycles` in one batched delivery (any
    /// quantum-deferred cycles are folded in), leaving all devices at the
    /// exact current time — equivalent to `tick(cycles)` followed by a
    /// flush, but with a single `Device::tick` call per device however
    /// large the batch. This is the time-skip path: correct devices have
    /// additive `tick`, so one big delivery is unobservable next to many
    /// small ones.
    pub fn advance(&mut self, cycles: u64) {
        for s in &mut self.slots {
            let c = std::mem::take(&mut s.pending) + cycles;
            if c > 0 {
                s.dev.tick(c);
            }
        }
    }

    /// The event horizon: the soonest [`Device::next_deadline`] over all
    /// attached devices, measured in cycles from now. Pending ticks are
    /// flushed first so every device answers at the exact current time.
    /// `None` means no device will do anything observable on its own.
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.flush();
        self.slots.iter().filter_map(|s| s.dev.next_deadline()).min()
    }

    fn route(&mut self, port: u16, external: bool) -> Option<&mut Slot> {
        self.slots
            .iter_mut()
            .find(|s| s.claims.iter().any(|r| r.contains(port, external)))
    }
}

impl IoSpace for Bus {
    fn io_read(&mut self, port: u16, external: bool) -> u8 {
        self.flush();
        match self.route(port, external) {
            Some(s) => s.dev.read(port, external),
            None => 0xFF,
        }
    }

    fn io_write(&mut self, port: u16, value: u8, external: bool) {
        self.flush();
        match self.route(port, external) {
            Some(s) => s.dev.write(port, value, external),
            None => self.unclaimed_writes.push((port, value)),
        }
    }

    fn pending_interrupt(&mut self) -> Option<Interrupt> {
        self.flush();
        let mut best: Option<Interrupt> = None;
        for s in &self.slots {
            if let Some(req) = s.dev.pending() {
                if best.is_none_or(|b| req.priority & 3 > b.priority & 3) {
                    best = Some(req);
                }
            }
        }
        best
    }

    fn acknowledge_interrupt(&mut self, vector: u16) {
        self.flush();
        // Exactly one source is acknowledged: the first attached device
        // whose pending request carries this vector.
        for s in &mut self.slots {
            if s.dev.pending().is_some_and(|r| r.vector == vector) {
                s.dev.acknowledge(vector);
                return;
            }
        }
    }

    fn tick(&mut self, cycles: u64) {
        for s in &mut self.slots {
            s.pending += cycles;
            if s.pending >= s.quantum {
                let c = std::mem::take(&mut s.pending);
                s.dev.tick(c);
            }
        }
    }
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bus")
            .field("devices", &self.device_names())
            .field("unclaimed_writes", &self.unclaimed_writes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_io_floats_high() {
        let mut io = NullIo;
        assert_eq!(io.io_read(0x1234, false), 0xFF);
        io.io_write(0, 0, true);
        assert_eq!(io.pending_interrupt(), None);
    }

    #[test]
    fn port_range_spaces_are_distinct() {
        let r = PortRange::internal(0x10, 0x1F);
        assert!(r.contains(0x10, false));
        assert!(r.contains(0x1F, false));
        assert!(!r.contains(0x10, true));
        assert!(!r.contains(0x20, false));
    }

    /// A clocked device: raises its interrupt when device time reaches
    /// `fire_at`, and reports the remaining distance as its deadline.
    struct Alarm {
        now: u64,
        fire_at: u64,
        quantum: u64,
    }

    impl Device for Alarm {
        fn name(&self) -> &'static str {
            "alarm"
        }
        fn claims(&self) -> Vec<PortRange> {
            vec![PortRange::internal(0x40, 0x40)]
        }
        fn read(&mut self, _port: u16, _external: bool) -> u8 {
            self.now as u8
        }
        fn write(&mut self, _port: u16, _value: u8, _external: bool) {}
        fn tick(&mut self, cycles: u64) {
            self.now += cycles;
        }
        fn tick_quantum(&self) -> u64 {
            self.quantum
        }
        fn next_deadline(&self) -> Option<u64> {
            self.fire_at.checked_sub(self.now).filter(|d| *d > 0)
        }
        fn pending(&self) -> Option<Interrupt> {
            (self.now >= self.fire_at).then_some(Interrupt {
                priority: 1,
                vector: 0x10,
            })
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn advance_matches_ticks_plus_flush() {
        let mut batched = Bus::new();
        let mut stepped = Bus::new();
        for bus in [&mut batched, &mut stepped] {
            bus.attach(Box::new(Alarm {
                now: 0,
                fire_at: 1000,
                quantum: 64,
            }));
        }
        // Stepwise: 500 ticks of 2 cycles, each followed by an interrupt
        // poll (which flushes). Batched: one advance of the same total.
        for _ in 0..500 {
            stepped.tick(2);
            let _ = stepped.pending_interrupt();
        }
        batched.advance(1000);
        assert_eq!(batched.io_read(0x40, false), stepped.io_read(0x40, false));
        assert_eq!(batched.pending_interrupt(), stepped.pending_interrupt());
        assert!(batched.pending_interrupt().is_some(), "alarm fired");
    }

    #[test]
    fn advance_folds_quantum_deferred_cycles_in() {
        let mut bus = Bus::new();
        bus.attach(Box::new(Alarm {
            now: 0,
            fire_at: 100,
            quantum: 64,
        }));
        bus.tick(10); // below the quantum: deferred, not delivered
        bus.advance(90); // must fold the deferred 10 in: 10 + 90 = 100
        assert!(bus.pending_interrupt().is_some(), "exact total delivered");
    }

    #[test]
    fn next_deadline_takes_the_min_and_flushes_first() {
        let mut bus = Bus::new();
        bus.attach(Box::new(Alarm {
            now: 0,
            fire_at: 300,
            quantum: 64,
        }));
        bus.attach(Box::new(NullDeadline));
        assert_eq!(bus.next_deadline(), Some(300));
        bus.tick(10); // deferred by the quantum...
        assert_eq!(bus.next_deadline(), Some(290), "...but flushed first");
        bus.advance(290);
        assert_eq!(bus.next_deadline(), None, "fired alarms have no deadline");
    }

    /// A device with no autonomous events at all.
    struct NullDeadline;

    impl Device for NullDeadline {
        fn name(&self) -> &'static str {
            "null"
        }
        fn claims(&self) -> Vec<PortRange> {
            vec![]
        }
        fn read(&mut self, _port: u16, _external: bool) -> u8 {
            0xFF
        }
        fn write(&mut self, _port: u16, _value: u8, _external: bool) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
}

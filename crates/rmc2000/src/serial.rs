//! Serial port A of the RMC2000 — the debugging channel of the paper's
//! §5.1: "We used the serial port on the RMC2000 board for debugging. We
//! configured the serial interface to interrupt the processor when a
//! character arrived."

use std::any::Any;
use std::collections::VecDeque;

use rabbit::io::ports;
use rabbit::{Device, Interrupt, PortRange};

/// Logical address of serial port A's interrupt service routine vector.
pub const SERIAL_A_VECTOR: u16 = 0x00E0;

/// The serial port peripheral.
#[derive(Debug, Default)]
pub struct SerialPort {
    rx: VecDeque<u8>,
    tx: Vec<u8>,
    /// Receive interrupt priority (`SACR` bits 0-1); 0 disables the
    /// interrupt. Writing 1 gives the historical priority-1 behaviour;
    /// 2 or 3 let the console preempt priority-1 sources such as the
    /// NIC — the paper's debugging channel staying responsive under
    /// network load.
    pub rx_priority: u8,
    irq_pending: bool,
    /// Characters dropped because the receive FIFO overflowed.
    pub overruns: u64,
    /// Cycles one byte spends in the transmit shifter; 0 (the default)
    /// transmits instantaneously, the historical behaviour.
    shift_cycles: u64,
    /// Bytes written to `SADR` still waiting to clear the shifter (front
    /// byte is the one shifting).
    shifting: VecDeque<u8>,
    /// Cycles left before the front of `shifting` completes. Strictly
    /// positive whenever `shifting` is non-empty.
    head_remaining: u64,
}

/// Depth of the receive FIFO.
const RX_FIFO: usize = 64;

impl SerialPort {
    /// Creates an idle port.
    pub fn new() -> SerialPort {
        SerialPort::default()
    }

    /// Host side: injects a received character (as if it arrived on the
    /// wire). Raises the interrupt when enabled.
    pub fn inject(&mut self, byte: u8) {
        if self.rx.len() >= RX_FIFO {
            self.overruns += 1;
            return;
        }
        self.rx.push_back(byte);
        if self.rx_priority != 0 {
            self.irq_pending = true;
        }
    }

    /// Enables the transmit-shifter timing model: each byte written to
    /// `SADR` takes `cycles_per_byte` cycles to clear the shifter before
    /// it appears in [`SerialPort::transmitted`] and `SASR` reports the
    /// transmitter idle again. 0 restores instantaneous transmission.
    /// Completions are computed arithmetically in [`Device::tick`], so
    /// batched time delivery is exact.
    pub fn set_tx_shift_cycles(&mut self, cycles_per_byte: u64) {
        self.shift_cycles = cycles_per_byte;
    }

    /// Host side: everything the firmware transmitted so far.
    pub fn transmitted(&self) -> &[u8] {
        &self.tx
    }

    /// CPU side: reads a port register.
    pub fn read(&mut self, port: u16) -> Option<u8> {
        match port {
            ports::SADR => {
                let b = self.rx.pop_front().unwrap_or(0);
                if self.rx.is_empty() {
                    self.irq_pending = false;
                }
                Some(b)
            }
            ports::SASR => {
                // bit 7: receive data ready; bit 2: transmit idle (always,
                // unless the shifter model is on and a byte is in flight).
                let mut st = 0;
                if self.shifting.is_empty() {
                    st |= 0x04;
                }
                if !self.rx.is_empty() {
                    st |= 0x80;
                }
                Some(st)
            }
            ports::SACR => Some(self.rx_priority),
            _ => None,
        }
    }

    /// CPU side: writes a port register.
    pub fn write(&mut self, port: u16, value: u8) -> bool {
        match port {
            ports::SADR => {
                if self.shift_cycles == 0 {
                    self.tx.push(value);
                } else {
                    if self.shifting.is_empty() {
                        self.head_remaining = self.shift_cycles;
                    }
                    self.shifting.push_back(value);
                }
                true
            }
            ports::SACR => {
                self.rx_priority = value & 3;
                if self.rx_priority == 0 {
                    self.irq_pending = false;
                } else if !self.rx.is_empty() {
                    self.irq_pending = true;
                }
                true
            }
            _ => false,
        }
    }

    /// Pending interrupt request, if any, at the configured priority.
    pub fn pending(&self) -> Option<Interrupt> {
        self.irq_pending.then_some(Interrupt {
            priority: self.rx_priority,
            vector: SERIAL_A_VECTOR,
        })
    }

    /// Acknowledge (the ISR will drain the data register).
    pub fn acknowledge(&mut self) {
        self.irq_pending = false;
    }
}

impl Device for SerialPort {
    fn name(&self) -> &'static str {
        "serial-a"
    }

    fn claims(&self) -> Vec<PortRange> {
        // SADR..SACR covers the data, status, and control registers.
        vec![PortRange::internal(ports::SADR, ports::SACR)]
    }

    fn read(&mut self, port: u16, _external: bool) -> u8 {
        self.read(port).unwrap_or(0xFF)
    }

    fn write(&mut self, port: u16, value: u8, _external: bool) {
        self.write(port, value);
    }

    fn tick(&mut self, mut cycles: u64) {
        // Complete whole shifts arithmetically — time only accrues while
        // a byte is actually shifting, so the tick stays additive however
        // it is chunked.
        while let Some(&byte) = self.shifting.front() {
            if self.head_remaining > cycles {
                self.head_remaining -= cycles;
                return;
            }
            cycles -= self.head_remaining;
            self.shifting.pop_front();
            self.tx.push(byte);
            self.head_remaining = self.shift_cycles;
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        // Shift completion moves a byte into the transmit capture and
        // flips SASR's idle bit — the port's only autonomous event (the
        // rx side only changes on host injection or CPU access).
        (!self.shifting.is_empty()).then_some(self.head_remaining)
    }

    fn pending(&self) -> Option<Interrupt> {
        SerialPort::pending(self)
    }

    fn acknowledge(&mut self, _vector: u16) {
        SerialPort::acknowledge(self);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_read_round_trip() {
        let mut sp = SerialPort::new();
        sp.inject(b'X');
        assert_eq!(sp.read(ports::SASR).unwrap() & 0x80, 0x80);
        assert_eq!(sp.read(ports::SADR).unwrap(), b'X');
        assert_eq!(sp.read(ports::SASR).unwrap() & 0x80, 0);
    }

    #[test]
    fn interrupt_only_when_enabled() {
        let mut sp = SerialPort::new();
        sp.inject(1);
        assert!(sp.pending().is_none());
        sp.write(ports::SACR, 1);
        assert!(sp.pending().is_some(), "enable with data pending raises");
        sp.read(ports::SADR);
        assert!(sp.pending().is_none(), "draining clears");
    }

    #[test]
    fn sacr_sets_interrupt_priority() {
        let mut sp = SerialPort::new();
        sp.write(ports::SACR, 2);
        sp.inject(b'!');
        assert_eq!(
            sp.pending(),
            Some(Interrupt {
                priority: 2,
                vector: SERIAL_A_VECTOR
            })
        );
        assert_eq!(sp.read(ports::SACR).unwrap(), 2);
        // Priority 0 disables and clears.
        sp.write(ports::SACR, 0);
        assert!(sp.pending().is_none());
    }

    #[test]
    fn transmit_capture() {
        let mut sp = SerialPort::new();
        sp.write(ports::SADR, b'o');
        sp.write(ports::SADR, b'k');
        assert_eq!(sp.transmitted(), b"ok");
    }

    #[test]
    fn tx_shifter_completes_arithmetically() {
        let mut sp = SerialPort::new();
        sp.set_tx_shift_cycles(100);
        sp.write(ports::SADR, b'a');
        sp.write(ports::SADR, b'b');
        assert_eq!(sp.transmitted(), b"", "bytes still in the shifter");
        assert_eq!(sp.read(ports::SASR).unwrap() & 0x04, 0, "tx busy");
        assert_eq!(Device::next_deadline(&sp), Some(100));
        sp.tick(130);
        assert_eq!(sp.transmitted(), b"a");
        assert_eq!(Device::next_deadline(&sp), Some(70));
        sp.tick(70);
        assert_eq!(sp.transmitted(), b"ab");
        assert_eq!(sp.read(ports::SASR).unwrap() & 0x04, 0x04, "tx idle");
        assert_eq!(Device::next_deadline(&sp), None);
    }

    #[test]
    fn tx_shifter_tick_is_additive() {
        let mut batched = SerialPort::new();
        let mut stepped = SerialPort::new();
        for sp in [&mut batched, &mut stepped] {
            sp.set_tx_shift_cycles(64);
            for b in b"abcdef" {
                sp.write(ports::SADR, *b);
            }
        }
        batched.tick(64 * 6);
        for _ in 0..64 * 3 {
            stepped.tick(2);
        }
        assert_eq!(batched.transmitted(), stepped.transmitted());
        assert_eq!(batched.transmitted(), b"abcdef");
    }

    #[test]
    fn zero_shift_cycles_transmits_instantly() {
        let mut sp = SerialPort::new();
        sp.write(ports::SADR, b'x');
        assert_eq!(sp.transmitted(), b"x");
        assert_eq!(Device::next_deadline(&sp), None);
        assert_eq!(sp.read(ports::SASR).unwrap() & 0x04, 0x04);
    }

    #[test]
    fn fifo_overrun_counts() {
        let mut sp = SerialPort::new();
        for i in 0..100 {
            sp.inject(i);
        }
        assert_eq!(sp.overruns, 100 - 64);
    }
}

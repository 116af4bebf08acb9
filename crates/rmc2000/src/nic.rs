//! The network interface controller: the board's port-mapped NIC, which
//! meets the network only through a plain-data [`NicPort`].
//!
//! The real RMC2000 carries a 10Base-T NIC on the Rabbit's external I/O
//! bus, with Dynamic C's TCP/IP library terminating TCP on the CPU. This
//! model keeps the paper's programming surface (command/status registers
//! plus packet windows reached with `ioe`) but terminates TCP in the
//! simulated network stack, like a TCP-offload NIC: the frames the guest
//! exchanges through the rings are TCP payload chunks. Guest cycles set
//! the NIC's poll grid: [`Nic::tick`] counts CPU cycles and polls the
//! port every [`POLL_PERIOD_US`] of virtual time at [`CYCLES_PER_US`]
//! (the repo-wide 30 MHz board clock).
//!
//! # The port
//!
//! The NIC holds no handle on the network. What it knows of its
//! connections is data in its [`NicPort`]; what it asks of the network
//! is a [`PortCmd`] appended to the port's log. This is the narrow,
//! polled boundary Dynamic C's `tcp_tick` gives application code. The
//! owner of the world exchanges the port at the epoch barrier
//! ([`crate::fleet::SocketTable`]):
//!
//! - **Fill**, after every `World::run_for`. For each bound handle, and
//!   for each connection in the listen backlog in accept order: every
//!   byte a `recv` would deliver, the established and peer-closed flags,
//!   the send buffer's room, and the bytes the send buffer has not taken
//!   yet.
//! - **Drain**, after the board's slice. The logged commands become
//!   `netsim` calls in log order: `listen`, `accept`, `close`, every
//!   `send` and retry of unsent bytes, and a `recv` for every frame the
//!   NIC took. Then the log is cleared.
//!
//! The world is frozen between the two, so the port's answers stay exact
//! as long as the NIC mirrors the three effects of its own commands:
//! `ACCEPT` pops the backlog, a poll takes readable bytes, and a send or
//! retry spends send room. A board cannot reach the world in the middle
//! of a slice, and the types say so: `Nic` is `Send`.
//!
//! # Connection handles
//!
//! The register file is handle-based: `CONN` selects one of
//! [`MAX_CONNS`] connection handles (the paper's limit of three
//! concurrent connections), and `RXLEN`, the rx window, `TX_GO`,
//! `RX_NEXT`, `ACCEPT`, `CLOSE` and the per-connection `STATUS` bits all
//! act on the selected handle. Connections are accepted explicitly:
//! `LISTEN` opens the listening socket, `STATUS_ACCEPT_READY` reports a
//! connection waiting in the backlog, and `ACCEPT` binds it to the
//! selected (free) handle. A command that cannot succeed — `TX_GO` or
//! `CLOSE` on an unopened handle, `TX_GO` with a `TXLEN` above
//! [`FRAME_MAX`], `ACCEPT` onto an occupied one or with nothing pending,
//! a second `LISTEN`, `RX_NEXT` with an empty queue — changes nothing and
//! sets [`STATUS_ERR`]. The full register map lives in
//! [`rabbit::nicmap`], shared with the firmware shims and the `dcc`
//! intrinsics.
//!
//! Refusing an oversized `TX_GO` means a frame's tail is never silently
//! lost, but the guest that provokes it still stalls: the secure server
//! sends each record with one `nic_send`, so a 976-byte message (a
//! 1031-byte record) is refused and its client waits forever. The
//! `fleetbench` workloads cap secure messages at 975 bytes for that
//! reason. The cure is chunking in the guest's `send_rec`; that changes
//! the compiled firmware's code size, so it has to land together with
//! re-blessed `fleetbench` expectations.
//!
//! # Interrupt
//!
//! The interrupt line (priority 1, vector [`NIC_VECTOR`], enabled by
//! `IER` bit 0) is level-ish: it is asserted while any handle has a
//! received frame queued, while a connection waits in the backlog *and* a
//! free handle could accept it, or while an open handle's peer has closed
//! and its queue is drained (so the guest is woken to `CLOSE` and free
//! the handle). Service routines therefore drain *all* causes — accept,
//! echo, close — before `reti`.
//!
//! # Determinism across engines
//!
//! The bus delivers exact cycle totals at every `ioi`/`ioe` access (which
//! are barriers in the block-caching engine), but the two engines tick in
//! different chunkings. The NIC therefore polls the port for received
//! data only at fixed virtual-time boundaries (every
//! [`POLL_PERIOD_US`]); boundary crossings depend only on the cycle
//! *total*, so frame chunking — and hence every guest-visible register —
//! is byte-identical under `Engine::Interpreter` and
//! `Engine::BlockCache`. The interrupt level is recomputed only at poll
//! boundaries and at register writes (both cycle-exact points); status
//! reads answer from the port live, which is equally deterministic
//! because port data changes only at the barrier or through guest
//! commands.

use std::any::Any;
use std::collections::VecDeque;

use rabbit::{Device, Interrupt, PortRange};
use telemetry::Counter;

pub use rabbit::nicmap::{
    CMD_ACCEPT, CMD_CLOSE, CMD_LISTEN, CMD_RX_NEXT, CMD_TX_GO, MAX_CONNS, NIC_BASE, NIC_CMD,
    NIC_CONN, NIC_IER, NIC_LPORT_HI, NIC_LPORT_LO, NIC_RXLEN_HI, NIC_RXLEN_LO, NIC_RX_WINDOW,
    NIC_STATUS, NIC_TXLEN_HI, NIC_TXLEN_LO, NIC_TX_WINDOW, STATUS_ACCEPT_READY, STATUS_ERR,
    STATUS_ESTABLISHED, STATUS_LINK, STATUS_PEER_CLOSED, STATUS_RX_AVAIL, STATUS_TX_READY,
};

/// Logical address of the NIC's interrupt service routine vector.
pub const NIC_VECTOR: u16 = 0x00F0;
/// CPU cycles per microsecond of virtual time (the 30 MHz board clock).
pub const CYCLES_PER_US: u64 = 30;
/// Virtual-time period between port polls.
pub const POLL_PERIOD_US: u64 = 50;
/// CPU cycles between port polls.
const POLL_CYCLES: u64 = POLL_PERIOD_US * CYCLES_PER_US;
/// Largest frame the rings carry.
pub const FRAME_MAX: usize = 1024;
/// Receive-ring depth per handle, in frames; further bytes stay in the
/// port (and the socket: TCP flow control) while a handle's ring is full.
pub const RX_RING: usize = 8;

/// One connection as the port carries it: what the world showed at the
/// last fill, less what the NIC has taken since.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortConn {
    /// The TCP handshake has completed.
    pub established: bool,
    /// The peer has closed its direction, or reset the connection.
    pub peer_closed: bool,
    /// Bytes a `recv` would deliver, oldest first; a poll takes frames
    /// off the front.
    pub rx: VecDeque<u8>,
    /// Bytes the socket's send buffer accepts.
    pub send_room: usize,
    /// Bytes the guest sent that the send buffer has not accepted yet.
    /// Every poll of the handle retries them.
    pub unsent: usize,
}

impl PortConn {
    /// The send buffer takes what it has room for of the unsent bytes.
    fn flush(&mut self) {
        let taken = self.unsent.min(self.send_room);
        self.unsent -= taken;
        self.send_room -= taken;
    }
}

/// One `netsim` call the NIC asks for. Handles are `< MAX_CONNS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortCmd {
    /// Open the listening socket on this TCP port.
    Listen(u16),
    /// Bind the oldest backlogged connection to this handle.
    Accept(usize),
    /// Close this handle's connection; its unsent bytes are dropped.
    Close(usize),
    /// Queue the next `len` bytes of [`NicPort::tx`] on `handle`, then
    /// offer its unsent bytes to the send buffer.
    Send { handle: usize, len: usize },
    /// Offer `handle`'s unsent bytes to the send buffer again.
    Flush(usize),
    /// Receive the `len`-byte frame the NIC took from `handle`.
    Recv { handle: usize, len: usize },
}

/// Everything the NIC knows of the network, as plain data. The world's
/// owner fills it at each barrier and drains its command log after each
/// slice (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NicPort {
    /// The connection bound to each handle.
    pub conns: [Option<PortConn>; MAX_CONNS],
    /// Connections waiting in the listen backlog, in accept order.
    pub backlog: VecDeque<PortConn>,
    /// Commands since the last drain, oldest first.
    pub log: Vec<PortCmd>,
    /// The bytes of the logged [`PortCmd::Send`]s, concatenated.
    pub tx: Vec<u8>,
}

impl NicPort {
    fn open(&self, handle: usize) -> bool {
        self.conns[handle].is_some()
    }

    fn established(&self, handle: usize) -> bool {
        self.conns[handle].as_ref().is_some_and(|c| c.established)
    }

    fn peer_closed(&self, handle: usize) -> bool {
        self.conns[handle].as_ref().is_some_and(|c| c.peer_closed)
    }

    fn accept_ready(&self) -> bool {
        !self.backlog.is_empty()
    }

    /// Binds the oldest backlogged connection to the free `handle`;
    /// `false` if nothing was pending.
    fn accept(&mut self, handle: usize) -> bool {
        let Some(conn) = self.backlog.pop_front() else {
            return false;
        };
        self.conns[handle] = Some(conn);
        self.log.push(PortCmd::Accept(handle));
        true
    }

    /// Closes and frees the open `handle`.
    fn close(&mut self, handle: usize) {
        self.conns[handle] = None;
        self.log.push(PortCmd::Close(handle));
    }

    /// Queues `frame` on the open `handle`.
    fn send(&mut self, handle: usize, frame: &[u8]) {
        let conn = self.conns[handle].as_mut().expect("sends go to open handles");
        conn.unsent += frame.len();
        conn.flush();
        self.tx.extend_from_slice(frame);
        self.log.push(PortCmd::Send { handle, len: frame.len() });
    }

    /// Retries `handle`'s unsent bytes, then takes its next frame (at
    /// most [`FRAME_MAX`] bytes), if any.
    fn poll(&mut self, handle: usize) -> Option<Vec<u8>> {
        let conn = self.conns[handle].as_mut()?;
        if conn.unsent > 0 {
            conn.flush();
            self.log.push(PortCmd::Flush(handle));
        }
        let len = conn.rx.len().min(FRAME_MAX);
        if len == 0 {
            return None;
        }
        self.log.push(PortCmd::Recv { handle, len });
        Some(conn.rx.drain(..len).collect())
    }

    /// Whether no poll could act — deliver a frame, retry a send, or
    /// latch an accept or close interrupt — until the guest issues a
    /// command or the world moves. The idle scheduler then lets halted
    /// time run past poll boundaries in one batch.
    fn quiet(&self) -> bool {
        let any_free = self.conns.iter().any(Option::is_none);
        let live = self.conns.iter().flatten().any(|c| {
            c.unsent > 0 || !c.rx.is_empty()
                // An un-closed handle whose peer has gone keeps the
                // boundary live so the close interrupt is latched.
                || c.peer_closed
        }) || (any_free && self.accept_ready());
        !live
    }
}

/// Per-handle `board<i>.net.board.conn.*` counters.
#[derive(Debug, Clone)]
pub struct ConnCounters {
    /// Connections accepted onto this handle.
    pub accepts: Counter,
    /// Bytes delivered to the guest on this handle.
    pub rx_bytes: Counter,
    /// Bytes transmitted by the guest on this handle.
    pub tx_bytes: Counter,
}

/// The `board<i>.net.board.*` telemetry counters the NIC maintains.
#[derive(Debug, Clone)]
pub struct NicCounters {
    /// Frames delivered to the guest.
    pub rx_frames: Counter,
    /// Bytes delivered to the guest.
    pub rx_bytes: Counter,
    /// Frames transmitted by the guest.
    pub tx_frames: Counter,
    /// Bytes transmitted by the guest.
    pub tx_bytes: Counter,
    /// Receive interrupts raised.
    pub irqs: Counter,
    /// Commands that failed and set [`STATUS_ERR`].
    pub cmd_errors: Counter,
    /// Per-handle counters (`conn` label `"0"`..).
    pub conn: Vec<ConnCounters>,
}

/// Label values for the connection handles.
const CONN_LABELS: [&str; MAX_CONNS] = ["0", "1", "2"];

impl NicCounters {
    /// Registers the counters under board-namespaced names
    /// (`board<idx>.net.board.*`), so boards sharing one registry never
    /// collide.
    pub fn register_board(registry: &telemetry::Registry, idx: usize) -> NicCounters {
        let p = |name: &str| format!("board{idx}.{name}");
        NicCounters {
            rx_frames: registry.counter(&p("net.board.rx_frames"), &[]),
            rx_bytes: registry.counter(&p("net.board.rx_bytes"), &[]),
            tx_frames: registry.counter(&p("net.board.tx_frames"), &[]),
            tx_bytes: registry.counter(&p("net.board.tx_bytes"), &[]),
            irqs: registry.counter(&p("net.board.irqs"), &[]),
            cmd_errors: registry.counter(&p("net.board.cmd_errors"), &[]),
            conn: CONN_LABELS
                .iter()
                .map(|l| ConnCounters {
                    accepts: registry.counter(&p("net.board.conn.accepts"), &[("conn", l)]),
                    rx_bytes: registry.counter(&p("net.board.conn.rx_bytes"), &[("conn", l)]),
                    tx_bytes: registry.counter(&p("net.board.conn.tx_bytes"), &[("conn", l)]),
                })
                .collect(),
        }
    }

    /// Free-standing counters, not attached to any registry.
    pub fn detached() -> NicCounters {
        NicCounters {
            rx_frames: Counter::new(),
            rx_bytes: Counter::new(),
            tx_frames: Counter::new(),
            tx_bytes: Counter::new(),
            irqs: Counter::new(),
            cmd_errors: Counter::new(),
            conn: (0..MAX_CONNS)
                .map(|_| ConnCounters {
                    accepts: Counter::new(),
                    rx_bytes: Counter::new(),
                    tx_bytes: Counter::new(),
                })
                .collect(),
        }
    }
}

/// The NIC device.
pub struct Nic {
    port: NicPort,
    counters: NicCounters,
    /// Per-handle receive rings.
    rx: Vec<VecDeque<Vec<u8>>>,
    tx_buf: Box<[u8; FRAME_MAX]>,
    tx_len: u16,
    listen_port: u16,
    /// Handle selected in the `CONN` register.
    conn_sel: usize,
    /// A successful `LISTEN` was issued.
    listening: bool,
    /// The previous command failed ([`STATUS_ERR`]).
    err: bool,
    irq_enabled: bool,
    irq_pending: bool,
    /// CPU cycles left until the next poll boundary (`1..=POLL_CYCLES`).
    to_poll: u64,
}

// A board's NIC holds port data, never a world handle, so it can cross
// threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Nic>();
};

impl Default for Nic {
    /// A NIC with an empty port and detached counters.
    fn default() -> Nic {
        Nic::with_counters(NicCounters::detached())
    }
}

impl Nic {
    /// A NIC with an empty port, reporting through `counters`.
    pub fn with_counters(counters: NicCounters) -> Nic {
        Nic {
            port: NicPort::default(),
            counters,
            rx: (0..MAX_CONNS).map(|_| VecDeque::new()).collect(),
            tx_buf: Box::new([0; FRAME_MAX]),
            tx_len: 0,
            listen_port: 7,
            conn_sel: 0,
            listening: false,
            err: false,
            irq_enabled: false,
            irq_pending: false,
            to_poll: POLL_CYCLES,
        }
    }

    /// The counters this NIC reports through.
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// The port: what the NIC knows of the network and the commands it
    /// has logged since the last drain.
    pub fn port(&self) -> &NicPort {
        &self.port
    }

    /// The port, mutably, for the barrier's fill and drain.
    pub fn port_mut(&mut self) -> &mut NicPort {
        &mut self.port
    }

    /// Frames waiting in the receive rings, all handles together.
    pub fn rx_pending(&self) -> usize {
        self.rx.iter().map(VecDeque::len).sum()
    }

    /// Frames waiting in `handle`'s receive ring.
    pub fn rx_pending_on(&self, handle: usize) -> usize {
        self.rx[handle].len()
    }

    /// Recomputes the level-ish interrupt line after a state change. Only
    /// called at deterministic points: poll boundaries and register
    /// accesses.
    fn update_irq(&mut self) {
        let any_rx = self.rx.iter().any(|r| !r.is_empty());
        let any_free = (0..MAX_CONNS).any(|h| !self.port.open(h));
        let acceptable = any_free && self.port.accept_ready();
        let closable = (0..MAX_CONNS)
            .any(|h| self.rx[h].is_empty() && self.port.open(h) && self.port.peer_closed(h));
        let level = self.irq_enabled && (any_rx || acceptable || closable);
        if level && !self.irq_pending {
            self.counters.irqs.inc();
        }
        self.irq_pending = level;
    }

    /// Takes received frames from the port into the rings (called only
    /// at poll boundaries).
    fn poll_port(&mut self) {
        for h in 0..MAX_CONNS {
            while self.rx[h].len() < RX_RING {
                match self.port.poll(h) {
                    Some(frame) => {
                        self.counters.rx_frames.inc();
                        self.counters.rx_bytes.add(frame.len() as u64);
                        self.counters.conn[h].rx_bytes.add(frame.len() as u64);
                        self.rx[h].push_back(frame);
                    }
                    None => break,
                }
            }
        }
        self.update_irq();
    }

    /// Executes a `CMD` write; returns whether the command succeeded.
    fn command(&mut self, value: u8) -> bool {
        let h = self.conn_sel;
        match value {
            CMD_LISTEN => {
                // The board's host holds no other listener, so the one
                // `LISTEN` the NIC lets through always opens.
                if self.listening {
                    return false;
                }
                self.port.log.push(PortCmd::Listen(self.listen_port));
                self.listening = true;
                true
            }
            CMD_TX_GO => {
                let len = usize::from(self.tx_len);
                if !self.port.open(h) || len > FRAME_MAX {
                    return false;
                }
                self.counters.tx_frames.inc();
                self.counters.tx_bytes.add(len as u64);
                self.counters.conn[h].tx_bytes.add(len as u64);
                self.port.send(h, &self.tx_buf[..len]);
                true
            }
            CMD_RX_NEXT => self.rx[h].pop_front().is_some(),
            CMD_ACCEPT => {
                if self.port.open(h) {
                    return false;
                }
                let ok = self.port.accept(h);
                if ok {
                    self.counters.conn[h].accepts.inc();
                }
                ok
            }
            CMD_CLOSE => {
                if !self.port.open(h) {
                    return false;
                }
                self.port.close(h);
                self.rx[h].clear();
                true
            }
            _ => false,
        }
    }
}

impl Device for Nic {
    fn name(&self) -> &'static str {
        "nic"
    }

    fn claims(&self) -> Vec<PortRange> {
        vec![
            PortRange::external(NIC_CMD, NIC_CONN),
            PortRange::external(NIC_RX_WINDOW, NIC_RX_WINDOW + FRAME_MAX as u16 - 1),
            PortRange::external(NIC_TX_WINDOW, NIC_TX_WINDOW + FRAME_MAX as u16 - 1),
        ]
    }

    fn read(&mut self, port: u16, _external: bool) -> u8 {
        let h = self.conn_sel;
        match port {
            NIC_STATUS => {
                let mut st = STATUS_LINK;
                if !self.rx[h].is_empty() {
                    st |= STATUS_RX_AVAIL;
                }
                if self.port.open(h) {
                    st |= STATUS_TX_READY;
                }
                if self.port.peer_closed(h) {
                    st |= STATUS_PEER_CLOSED;
                }
                if self.port.established(h) {
                    st |= STATUS_ESTABLISHED;
                }
                if self.err {
                    st |= STATUS_ERR;
                }
                if self.port.accept_ready() {
                    st |= STATUS_ACCEPT_READY;
                }
                st
            }
            NIC_RXLEN_LO => self.rx[h].front().map_or(0, |f| f.len() as u8),
            NIC_RXLEN_HI => self.rx[h].front().map_or(0, |f| (f.len() >> 8) as u8),
            NIC_CONN => h as u8,
            p if (NIC_RX_WINDOW..NIC_RX_WINDOW + FRAME_MAX as u16).contains(&p) => self.rx[h]
                .front()
                .and_then(|f| f.get(usize::from(p - NIC_RX_WINDOW)))
                .copied()
                .unwrap_or(0xFF),
            _ => 0xFF,
        }
    }

    fn write(&mut self, port: u16, value: u8, _external: bool) {
        match port {
            NIC_CMD => {
                let ok = self.command(value);
                if !ok {
                    self.counters.cmd_errors.inc();
                }
                self.err = !ok;
                self.update_irq();
            }
            NIC_IER => {
                self.irq_enabled = value & 1 != 0;
                self.update_irq();
            }
            NIC_CONN => {
                // Out-of-range selects nothing and flags the error.
                if usize::from(value) < MAX_CONNS {
                    self.conn_sel = usize::from(value);
                } else {
                    self.counters.cmd_errors.inc();
                    self.err = true;
                }
            }
            NIC_TXLEN_LO => self.tx_len = (self.tx_len & 0xFF00) | u16::from(value),
            NIC_TXLEN_HI => self.tx_len = (self.tx_len & 0x00FF) | (u16::from(value) << 8),
            NIC_LPORT_LO => self.listen_port = (self.listen_port & 0xFF00) | u16::from(value),
            NIC_LPORT_HI => {
                self.listen_port = (self.listen_port & 0x00FF) | (u16::from(value) << 8);
            }
            p if (NIC_TX_WINDOW..NIC_TX_WINDOW + FRAME_MAX as u16).contains(&p) => {
                self.tx_buf[usize::from(p - NIC_TX_WINDOW)] = value;
            }
            _ => {}
        }
    }

    fn tick(&mut self, mut cycles: u64) {
        // Poll at each fixed boundary the cycle total crosses. Crossings
        // depend only on the total, never on tick chunking, so both
        // execution engines observe identical frames at identical
        // virtual times.
        while cycles >= self.to_poll {
            cycles -= self.to_poll;
            self.to_poll = POLL_CYCLES;
            self.poll_port();
        }
        self.to_poll -= cycles;
    }

    fn tick_quantum(&self) -> u64 {
        // Batch to one poll period; the bus flushes the exact total
        // before every port access anyway.
        POLL_CYCLES
    }

    fn next_deadline(&self) -> Option<u64> {
        // The NIC only acts (polls the port, possibly raising the rx
        // interrupt) at fixed poll boundaries. A quiet port gives those
        // polls nothing to act on until the guest issues a command —
        // which ends any halted batch — or the world moves, which
        // happens only at an epoch barrier, where the fleet scheduler
        // bounds its skip by the world's next event.
        (!self.port.quiet()).then_some(self.to_poll)
    }

    fn pending(&self) -> Option<Interrupt> {
        self.irq_pending.then_some(Interrupt {
            priority: 1,
            vector: NIC_VECTOR,
        })
    }

    fn acknowledge(&mut self, _vector: u16) {
        self.irq_pending = false;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("rx_frames_queued", &self.rx_pending())
            .field("conn_sel", &self.conn_sel)
            .field("irq_pending", &self.irq_pending)
            .field("to_poll", &self.to_poll)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An established connection with room to send, as a fill carries it.
    fn conn() -> PortConn {
        PortConn {
            established: true,
            send_room: 64 * 1024,
            ..PortConn::default()
        }
    }

    /// An open connection on handle 0, as most single-connection tests
    /// start from.
    fn nic_open() -> Nic {
        let mut nic = Nic::default();
        nic.port_mut().backlog.push_back(conn());
        nic.write(NIC_CMD, CMD_ACCEPT, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        nic
    }

    /// The open `handle`'s connection in the port.
    fn bound(nic: &mut Nic, handle: usize) -> &mut PortConn {
        nic.port_mut().conns[handle].as_mut().expect("open")
    }

    /// Takes the port's log as a drain would, pairing each command with
    /// its send bytes.
    fn take_log(port: &mut NicPort) -> Vec<(PortCmd, Vec<u8>)> {
        let tx = std::mem::take(&mut port.tx);
        let mut rest = &tx[..];
        let log = port.log.drain(..).map(|cmd| {
            let len = match cmd {
                PortCmd::Send { len, .. } => len,
                _ => 0,
            };
            let (bytes, tail) = rest.split_at(len);
            rest = tail;
            (cmd, bytes.to_vec())
        });
        let log = log.collect();
        assert!(rest.is_empty(), "every logged byte belongs to a send");
        log
    }

    /// The frames sent since the last drain, per handle.
    fn sent(nic: &mut Nic) -> Vec<(usize, Vec<u8>)> {
        let log = take_log(nic.port_mut()).into_iter();
        log.filter_map(|(cmd, bytes)| match cmd {
            PortCmd::Send { handle, .. } => Some((handle, bytes)),
            _ => None,
        })
        .collect()
    }

    #[test]
    fn frames_arrive_only_at_poll_boundaries() {
        let mut nic = nic_open();
        nic.write(NIC_IER, 1, true);
        nic.tick(10 * CYCLES_PER_US);
        // The bytes are in the port from 10 µs on, but 40 µs in the
        // boundary (50 µs) has not been crossed.
        bound(&mut nic, 0).rx.extend(b"abc");
        nic.tick(30 * CYCLES_PER_US);
        assert_eq!(nic.rx_pending(), 0);
        assert!(rabbit::Device::pending(&nic).is_none());
        // Crossing the boundary delivers it and raises the interrupt.
        nic.tick(10 * CYCLES_PER_US);
        assert_eq!(nic.rx_pending(), 1);
        assert_eq!(
            rabbit::Device::pending(&nic),
            Some(Interrupt {
                priority: 1,
                vector: NIC_VECTOR
            })
        );
        assert_eq!(nic.counters().rx_frames.get(), 1);
        assert_eq!(nic.counters().irqs.get(), 1);
    }

    #[test]
    fn chunked_ticks_cross_boundaries_identically() {
        let mut a = nic_open();
        let mut b = nic_open();
        a.write(NIC_IER, 1, true);
        b.write(NIC_IER, 1, true);
        // One big tick vs many tiny ticks, with "x" ready before the
        // 50 µs boundary and "y" only after it: identical delivery.
        let tick = |nic: &mut Nic, us: u64, chunked: bool| {
            if chunked {
                for _ in 0..us * CYCLES_PER_US {
                    nic.tick(1);
                }
            } else {
                nic.tick(us * CYCLES_PER_US);
            }
        };
        for (nic, chunked) in [(&mut a, false), (&mut b, true)] {
            bound(nic, 0).rx.extend(b"x");
            tick(nic, 51, chunked);
            assert_eq!(nic.rx_pending(), 1, "x at the 50 µs boundary");
            bound(nic, 0).rx.extend(b"y");
            tick(nic, 69, chunked);
        }
        assert_eq!(a.rx_pending(), b.rx_pending());
        assert_eq!(a.rx_pending(), 2);
        // Two boundaries, each taking handle 0's one-byte frame.
        let recv = PortCmd::Recv { handle: 0, len: 1 };
        assert_eq!(a.port().log, b.port().log);
        assert_eq!(a.port().log, [PortCmd::Accept(0), recv, recv]);
    }

    #[test]
    fn deadline_is_the_next_boundary_unless_the_port_is_quiet() {
        let mut nic = nic_open();
        // A peer close the guest has not reaped keeps every poll live.
        bound(&mut nic, 0).peer_closed = true;
        let into = 7 * CYCLES_PER_US + 11;
        nic.tick(into);
        assert_eq!(nic.next_deadline(), Some(POLL_CYCLES - into));
        // Crossing a boundary restarts the count on the grid.
        nic.tick(POLL_CYCLES);
        assert_eq!(nic.next_deadline(), Some(POLL_CYCLES - into));
        bound(&mut nic, 0).peer_closed = false;
        assert_eq!(nic.next_deadline(), None);
    }

    #[test]
    fn rx_frame_reads_and_rx_next() {
        let mut nic = nic_open();
        bound(&mut nic, 0).rx.extend(b"hi");
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        bound(&mut nic, 0).rx.extend(b"z");
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 2);
        assert_eq!(nic.read(NIC_RXLEN_HI, true), 0);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'h');
        assert_eq!(nic.read(NIC_RX_WINDOW + 1, true), b'i');
        nic.write(NIC_CMD, CMD_RX_NEXT, true);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 1);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'z');
        nic.write(NIC_CMD, CMD_RX_NEXT, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_RX_AVAIL, 0);
    }

    #[test]
    fn a_poll_cuts_readable_bytes_into_full_frames() {
        let mut nic = nic_open();
        bound(&mut nic, 0).rx.extend([7u8; FRAME_MAX + 7]);
        nic.tick(POLL_CYCLES);
        assert_eq!(nic.read(NIC_RXLEN_HI, true), 4, "1,024 bytes first");
        nic.write(NIC_CMD, CMD_RX_NEXT, true);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 7, "then the tail");
        let (handle, len) = (0, FRAME_MAX);
        let log = &nic.port().log[1..];
        assert_eq!(log, [PortCmd::Recv { handle, len }, PortCmd::Recv { handle, len: 7 }]);
    }

    #[test]
    fn tx_stages_and_sends() {
        let mut nic = nic_open();
        for (i, b) in b"ping".iter().enumerate() {
            nic.write(NIC_TX_WINDOW + i as u16, *b, true);
        }
        nic.write(NIC_TXLEN_LO, 4, true);
        nic.write(NIC_TXLEN_HI, 0, true);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_eq!(sent(&mut nic), vec![(0, b"ping".to_vec())]);
        assert_eq!(nic.counters().tx_bytes.get(), 4);
        assert_eq!(nic.counters().conn[0].tx_bytes.get(), 4);
    }

    #[test]
    fn unsent_bytes_are_retried_at_every_poll_until_taken() {
        let mut nic = nic_open();
        bound(&mut nic, 0).send_room = 3;
        nic.write(NIC_TXLEN_LO, 4, true);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_eq!((bound(&mut nic, 0).unsent, bound(&mut nic, 0).send_room), (1, 0));
        assert_eq!(nic.next_deadline(), Some(POLL_CYCLES), "unsent bytes are live");
        nic.tick(POLL_CYCLES);
        // The next fill finds room again: one more retry takes the byte.
        bound(&mut nic, 0).send_room = 10;
        nic.tick(POLL_CYCLES);
        assert_eq!((bound(&mut nic, 0).unsent, bound(&mut nic, 0).send_room), (0, 9));
        assert_eq!(nic.next_deadline(), None);
        let flushes = nic.port().log.iter().filter(|&&c| c == PortCmd::Flush(0));
        assert_eq!(flushes.count(), 2);
    }

    #[test]
    fn oversized_tx_go_is_refused_not_clamped() {
        let mut nic = nic_open();
        let set_len = |nic: &mut Nic, len: usize| {
            nic.write(NIC_TXLEN_LO, len as u8, true);
            nic.write(NIC_TXLEN_HI, (len >> 8) as u8, true);
        };
        // One byte over the window: nothing leaves, the error latches.
        set_len(&mut nic, FRAME_MAX + 1);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert!(sent(&mut nic).is_empty(), "no truncated frame sent");
        assert_eq!(nic.counters().tx_frames.get(), 0);
        assert_eq!(nic.counters().tx_bytes.get(), 0);
        assert_eq!(nic.counters().cmd_errors.get(), 1);
        // A full window is still legal.
        set_len(&mut nic, FRAME_MAX);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        let sent = sent(&mut nic);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].1.len(), FRAME_MAX);
        assert_eq!(nic.counters().cmd_errors.get(), 1);
    }

    #[test]
    fn listen_uses_configured_port() {
        let mut nic = Nic::default();
        nic.write(NIC_LPORT_LO, 0x39, true);
        nic.write(NIC_LPORT_HI, 0x05, true); // 1337
        nic.write(NIC_CMD, CMD_LISTEN, true);
        assert_eq!(nic.port().log, [PortCmd::Listen(1337)]);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
    }

    #[test]
    fn ring_full_applies_backpressure_per_handle() {
        let mut nic = nic_open();
        bound(&mut nic, 0).rx.extend([0u8; (RX_RING + 3) * FRAME_MAX]);
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert_eq!(nic.rx_pending_on(0), RX_RING);
        let held = bound(&mut nic, 0).rx.len();
        assert_eq!(held, 3 * FRAME_MAX, "rest held in the port");
    }

    #[test]
    fn conn_register_selects_handle_views() {
        let mut nic = Nic::default();
        nic.port_mut().backlog.extend([conn(), conn()]);
        nic.write(NIC_CMD, CMD_ACCEPT, true); // handle 0
        nic.write(NIC_CONN, 1, true);
        nic.write(NIC_CMD, CMD_ACCEPT, true); // handle 1
        bound(&mut nic, 0).rx.extend(b"for-zero");
        bound(&mut nic, 1).rx.extend(b"one");
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        // Selected handle is 1: its frame, its length.
        assert_eq!(nic.read(NIC_CONN, true), 1);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 3);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'o');
        // Switch to 0: the other frame.
        nic.write(NIC_CONN, 0, true);
        assert_eq!(nic.read(NIC_RXLEN_LO, true), 8);
        assert_eq!(nic.read(NIC_RX_WINDOW, true), b'f');
        // TX goes out on the selected handle.
        nic.write(NIC_CONN, 1, true);
        nic.write(NIC_TX_WINDOW, b'!', true);
        nic.write(NIC_TXLEN_LO, 1, true);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_eq!(sent(&mut nic), vec![(1, b"!".to_vec())]);
        assert_eq!(nic.counters().conn[1].tx_bytes.get(), 1);
        assert_eq!(nic.counters().conn[0].tx_bytes.get(), 0);
    }

    #[test]
    fn out_of_range_conn_select_sets_error() {
        let mut nic = Nic::default();
        nic.write(NIC_CONN, 1, true);
        nic.write(NIC_CONN, MAX_CONNS as u8, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(nic.read(NIC_CONN, true), 1, "selection unchanged");
    }

    #[test]
    fn commands_on_unopened_handles_error_without_side_effects() {
        let mut nic = Nic::default();
        // TX_GO with no connection: error, nothing sent, nothing counted.
        nic.write(NIC_TXLEN_LO, 4, true);
        nic.write(NIC_CMD, CMD_TX_GO, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(nic.counters().tx_frames.get(), 0);
        // RX_NEXT with an empty queue: error.
        nic.write(NIC_CMD, CMD_RX_NEXT, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        // CLOSE on a free handle: error.
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        // ACCEPT with nothing pending: error.
        nic.write(NIC_CMD, CMD_ACCEPT, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(nic.counters().cmd_errors.get(), 4);
        assert!(nic.port().log.is_empty(), "nothing sent, nothing logged");
        // A successful command clears the error bit.
        nic.write(NIC_CMD, CMD_LISTEN, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        // And a second LISTEN sets it again.
        nic.write(NIC_CMD, CMD_LISTEN, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(nic.port().log.len(), 1, "one listen");
    }

    #[test]
    fn accept_onto_occupied_handle_errors() {
        let mut nic = nic_open();
        nic.port_mut().backlog.push_back(conn());
        nic.write(NIC_CMD, CMD_ACCEPT, true);
        assert_ne!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert_eq!(nic.port().backlog.len(), 1, "pending connection untouched");
        assert_eq!(nic.counters().conn[0].accepts.get(), 1, "only the first");
    }

    #[test]
    fn accept_ready_raises_irq_only_with_a_free_handle() {
        let mut nic = Nic::default();
        nic.write(NIC_IER, 1, true);
        nic.port_mut().backlog.push_back(conn());
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert!(
            rabbit::Device::pending(&nic).is_some(),
            "pending accept + free handle raises"
        );
        // Occupy every handle: the pending connection can no longer be
        // bound, so the line drops (no interrupt storm while saturated).
        nic.port_mut().backlog.resize(MAX_CONNS + 1, conn());
        for h in 0..MAX_CONNS {
            nic.write(NIC_CONN, h as u8, true);
            nic.write(NIC_CMD, CMD_ACCEPT, true);
        }
        assert!(
            rabbit::Device::pending(&nic).is_none(),
            "saturated handle table masks accept irq"
        );
        // Freeing one re-raises at the next recomputation point.
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert!(rabbit::Device::pending(&nic).is_some());
    }

    #[test]
    fn peer_close_with_drained_ring_raises_irq_until_closed() {
        let mut nic = nic_open();
        nic.write(NIC_IER, 1, true);
        bound(&mut nic, 0).peer_closed = true;
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert!(rabbit::Device::pending(&nic).is_some(), "closable raises");
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_ERR, 0);
        assert!(rabbit::Device::pending(&nic).is_none(), "close clears");
        assert!(nic.port().conns[0].is_none());
        assert_eq!(nic.port().log.last(), Some(&PortCmd::Close(0)));
    }

    #[test]
    fn close_drops_queued_frames() {
        let mut nic = nic_open();
        bound(&mut nic, 0).rx.extend(b"stale");
        nic.tick(POLL_PERIOD_US * CYCLES_PER_US);
        assert_eq!(nic.rx_pending_on(0), 1);
        nic.write(NIC_CMD, CMD_CLOSE, true);
        assert_eq!(nic.rx_pending_on(0), 0);
        assert_eq!(nic.read(NIC_STATUS, true) & STATUS_RX_AVAIL, 0);
    }

    mod hostile {
        //! Random register traffic over the whole NIC range, interleaved
        //! with ticks, port events and drains: no panic, a well-formed
        //! command log, and the same answers on every replay.

        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Read(u16),
            Write(u16, u8),
            Tick(u64),
            /// A connection joins the backlog with readable bytes and room.
            Arrive(u16, u16),
            /// Bytes become readable on a handle, if it is open.
            Readable(usize, u16),
            /// A handle's peer closes, if it is open.
            PeerClose(usize),
            /// The barrier drains the port; open handles gain send room.
            Drain(u16),
        }

        /// The register file and both windows with their edges, or anywhere.
        fn port() -> impl Strategy<Value = u16> {
            let win = FRAME_MAX as u16;
            prop_oneof![
                (NIC_BASE - 2)..(NIC_CONN + 3),
                (NIC_RX_WINDOW - 1)..(NIC_RX_WINDOW + win + 1),
                (NIC_TX_WINDOW - 1)..(NIC_TX_WINDOW + win + 1),
                any::<u16>(),
            ]
        }

        fn op() -> impl Strategy<Value = Op> {
            let reg = [NIC_CMD, NIC_CONN, NIC_TXLEN_HI];
            prop_oneof![
                port().prop_map(Op::Read),
                (port(), any::<u8>()).prop_map(|(p, v)| Op::Write(p, v)),
                // Any byte into CMD, CONN and TXLEN; and, more often,
                // every command, handle and length around FRAME_MAX.
                (0..reg.len(), any::<u8>()).prop_map(move |(r, v)| Op::Write(reg[r], v)),
                (0u8..6).prop_map(|v| Op::Write(NIC_CMD, v)),
                (0u8..6).prop_map(|v| Op::Write(NIC_CMD, v)),
                (0u8..4).prop_map(|v| Op::Write(NIC_CONN, v)),
                (0u8..5).prop_map(|v| Op::Write(NIC_TXLEN_HI, v)),
                (0u64..4 * POLL_CYCLES).prop_map(Op::Tick),
                (0u16..3_000, 0u16..2_048).prop_map(|(n, room)| Op::Arrive(n, room)),
                (0..MAX_CONNS, 0u16..12_000).prop_map(|(h, n)| Op::Readable(h, n)),
                (0..MAX_CONNS).prop_map(Op::PeerClose),
                (0u16..2_048).prop_map(Op::Drain),
            ]
        }

        /// Every read and irq level, every drained command with its
        /// bytes, and the final counters.
        type Trace = (Vec<u8>, Vec<(PortCmd, Vec<u8>)>, Vec<u64>);

        fn run(ops: &[Op]) -> Trace {
            let mut nic = Nic::default();
            let (mut reads, mut drained) = (Vec::new(), Vec::new());
            for op in ops.iter().chain([&Op::Drain(0)]) {
                match *op {
                    Op::Read(p) => reads.push(nic.read(p, true)),
                    Op::Write(p, v) => nic.write(p, v, true),
                    Op::Tick(c) => nic.tick(c),
                    Op::Arrive(n, room) => nic.port_mut().backlog.push_back(PortConn {
                        rx: (0..n).map(|i| i as u8).collect(),
                        send_room: usize::from(room),
                        ..conn()
                    }),
                    Op::Readable(h, n) => {
                        if let Some(c) = nic.port_mut().conns[h].as_mut() {
                            c.rx.extend((0..n).map(|i| (i as u8).wrapping_mul(7)));
                        }
                    }
                    Op::PeerClose(h) => {
                        if let Some(c) = nic.port_mut().conns[h].as_mut() {
                            c.peer_closed = true;
                        }
                    }
                    Op::Drain(room) => {
                        for (h, ring) in nic.rx.iter().enumerate() {
                            prop_assert!(ring.len() <= RX_RING, "ring {h}: {}", ring.len());
                        }
                        for (cmd, bytes) in take_log(nic.port_mut()) {
                            let h = match cmd {
                                PortCmd::Listen(_) => 0,
                                PortCmd::Accept(h) | PortCmd::Close(h) | PortCmd::Flush(h) => h,
                                PortCmd::Send { handle, len } => {
                                    prop_assert!(len <= FRAME_MAX && len == bytes.len());
                                    handle
                                }
                                PortCmd::Recv { handle, len } => {
                                    prop_assert!((1..=FRAME_MAX).contains(&len));
                                    handle
                                }
                            };
                            prop_assert!(h < MAX_CONNS, "{cmd:?}");
                            drained.push((cmd, bytes));
                        }
                        for c in nic.port_mut().conns.iter_mut().flatten() {
                            c.send_room += usize::from(room);
                        }
                    }
                }
                reads.push(u8::from(rabbit::Device::pending(&nic).is_some()));
            }
            let c = nic.counters();
            let conns = c.conn.iter().flat_map(|h| [&h.accepts, &h.rx_bytes, &h.tx_bytes]);
            let counters = [&c.rx_frames, &c.rx_bytes, &c.tx_frames, &c.tx_bytes, &c.irqs]
                .into_iter()
                .chain([&c.cmd_errors])
                .chain(conns)
                .map(Counter::get)
                .collect();
            (reads, drained, counters)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn register_file_answers_hostile_input_deterministically(
                ops in proptest::collection::vec(op(), 1..200)
            ) {
                prop_assert_eq!(run(&ops), run(&ops));
            }
        }
    }
}

//! Fleet scheduler: N boards, one deterministic world, one clock owner.
//!
//! The [`Fleet`] scheduler is the only party that advances the shared
//! [`World`], and the only one that calls into it for a board: a board's
//! NIC holds a plain-data [`NicPort`], never a world handle. A NIC that
//! dragged the clock forward whenever its board crossed a poll boundary
//! could not scale past one board: whoever polled first would advance
//! time under the others' feet, and every observable would become a
//! function of host-side iteration order. [`fleet_serve`] is the one
//! serving driver; a single-board run is a fleet of one.
//!
//! # The epoch barrier
//!
//! Boards advance in lockstep epochs of [`EPOCH_US`] microseconds
//! (= one NIC poll period, [`EPOCH_CYCLES`] cycles). One epoch ending at
//! virtual time `T`:
//!
//! 1. the world runs `(T-50, T]` first — every in-flight segment due in
//!    the window is delivered before any board looks;
//! 2. the exchange: each slot's [`SocketTable`] fills its board's port
//!    with what the world holds at `T`;
//! 3. each board executes its own `(T-50, T]` cycle slice against its
//!    port, which logs the `netsim` calls the guest's commands and NIC
//!    polls ask for;
//! 4. the ports are drained in slot order: every logged call is made,
//!    stamped at `T`.
//!
//! Within an epoch the boards touch disjoint state (their own ports,
//! their own memories), and every call a board asks for is made at the
//! same world time `T`, so the order boards are visited in is
//! unobservable: shuffling the per-epoch visit order changes no
//! transcript, counter, or cycle count. Poll boundaries depend only on
//! accumulated cycle totals, so both CPU engines see identical crossings
//! and the whole schedule is engine-invariant.
//!
//! # Idle fast-forward
//!
//! When every board is parked (halted, no dispatchable interrupt) the
//! scheduler skips ahead whole epochs at once, bounded by the world's
//! next scheduled event and every board's device deadline
//! ([`rabbit::Bus::next_deadline`], the E12 event-horizon hook) — the
//! fleet-level analogue of [`crate::Board::idle`]'s batched halted time.
//! The skip decision is a function of barrier state only, so it too is
//! visit-order- and engine-invariant.

use std::cell::RefCell;
use std::rc::Rc;

use rabbit::nicmap::MAX_CONNS;
use rabbit::{Engine, IoSpace};
use telemetry::{ProfileReport, SymbolTable};

use netsim::{Endpoint, Ipv4, LinkId, LinkParams, LoadBalancer, Recv, SimHost, SocketId, World};

pub use netsim::{BackendStats, LbPolicy};

use crate::board::{Board, RunOutcome};
use crate::faults::{AppliedFault, FaultEvent, FaultPlan, FaultReport, ScheduledFault};
use crate::nic::{
    Nic, NicCounters, NicPort, PortCmd, PortConn, CYCLES_PER_US, FRAME_MAX, POLL_PERIOD_US,
};
use crate::secure::{
    build_secure_firmware, client_states, step_client, ClientOutcome, ConnCounters, GuestClient,
    SECURE_PORT,
};
use crate::serve::{build_serve_firmware, SERIAL_PROBE, SERVE_PORT};

/// One scheduling epoch in microseconds — exactly one NIC poll period,
/// so every board's boundary poll lands on the barrier.
pub const EPOCH_US: u64 = POLL_PERIOD_US;

/// One scheduling epoch in CPU cycles.
pub const EPOCH_CYCLES: u64 = EPOCH_US * CYCLES_PER_US;

/// Whether a fleet slot is advancing or frozen by a scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoardState {
    /// Advancing normally: every epoch brings the board to the barrier.
    Running,
    /// Wedged by a [`crate::faults::FaultEvent::Wedge`]: the scheduler
    /// skips the slot — no cycles run, no idle time accrues, telemetry
    /// freezes — until a resurrection (if any). The board's netsim
    /// *host* still exists; whoever wedged the board is responsible for
    /// also blacking out its link, because the host-side TCP stack
    /// would otherwise keep answering SYNs on the frozen board's
    /// behalf.
    Wedged,
}

/// One bound connection in a [`SocketTable`].
struct SimConn {
    sock: SocketId,
    /// Bytes the send buffer rejected, offered again at every flush.
    pending_tx: Vec<u8>,
}

/// Listen backlog: connections beyond the handle table wait here until
/// the guest frees a handle (the paper's 4th and 5th clients).
const LISTEN_BACKLOG: usize = 8;

/// The world's side of one board's [`NicPort`]: the board's `netsim`
/// host, its listener, and the socket behind each connection handle.
/// [`SocketTable::fill`] shows the port what the world holds;
/// [`SocketTable::drain`] makes the `netsim` calls the port logged.
pub struct SocketTable {
    host: SimHost,
    listener: Option<SocketId>,
    conns: [Option<SimConn>; MAX_CONNS],
    /// The listener's backlog at the last fill (kept to reuse its
    /// buffer).
    backlog: Vec<SocketId>,
}

impl SocketTable {
    /// An empty table for `host`.
    pub fn new(host: SimHost) -> SocketTable {
        SocketTable {
            host,
            listener: None,
            conns: Default::default(),
            backlog: Vec::new(),
        }
    }

    /// The board's host.
    pub fn host(&self) -> &SimHost {
        &self.host
    }

    /// Copies the world's state into `port`: every bound handle's and
    /// every backlogged connection's readable bytes, flags and send
    /// room. Call it after each `World::run_for`, with the port drained.
    pub fn fill(&mut self, port: &mut NicPort) {
        debug_assert!(port.log.is_empty(), "drain the port before filling it");
        let host = &self.host;
        for (conn, bound) in self.conns.iter().zip(&mut port.conns) {
            debug_assert_eq!(conn.is_some(), bound.is_some(), "port and table agree");
            if let (Some(c), Some(b)) = (conn, bound) {
                read_conn(host, c.sock, c.pending_tx.len(), b);
            }
        }
        match self.listener {
            Some(l) => host.backlog(l, &mut self.backlog),
            None => self.backlog.clear(),
        }
        port.backlog.resize_with(self.backlog.len(), PortConn::default);
        for (&sock, waiting) in self.backlog.iter().zip(&mut port.backlog) {
            read_conn(host, sock, 0, waiting);
        }
    }

    /// Makes the `netsim` calls `port`'s log asks for, in order, then
    /// clears the log.
    ///
    /// # Panics
    ///
    /// If the log accepts a connection the last fill did not list, or
    /// listens on a port already held.
    pub fn drain(&mut self, port: &mut NicPort) {
        let mut tx = &port.tx[..];
        for cmd in port.log.drain(..) {
            match cmd {
                PortCmd::Listen(p) => {
                    let l = self.host.listen(p, LISTEN_BACKLOG);
                    self.listener = Some(l.expect("the NIC listens once, on its own host"));
                }
                PortCmd::Accept(h) => {
                    let sock = self.listener.and_then(|l| self.host.accept(l));
                    self.conns[h] = Some(SimConn {
                        sock: sock.expect("the port accepts only what the fill listed"),
                        pending_tx: Vec::new(),
                    });
                }
                PortCmd::Close(h) => {
                    if let Some(conn) = self.conns[h].take() {
                        // A graceful close still delivers what fit in the
                        // send buffer; bytes beyond it are dropped.
                        self.host.close(conn.sock);
                    }
                }
                PortCmd::Send { handle, len } => {
                    let (frame, rest) = tx.split_at(len);
                    tx = rest;
                    if let Some(conn) = self.conns[handle].as_mut() {
                        conn.pending_tx.extend_from_slice(frame);
                    }
                    self.flush(handle);
                }
                PortCmd::Flush(h) => self.flush(h),
                PortCmd::Recv { handle, len } => {
                    if let Some(conn) = &self.conns[handle] {
                        let mut frame = [0u8; FRAME_MAX];
                        let got = self.host.recv(conn.sock, &mut frame[..len]);
                        debug_assert_eq!(got, Recv::Data(len), "the port showed these bytes");
                    }
                }
            }
        }
        port.tx.clear();
    }

    /// Offers `handle`'s unsent bytes to its send buffer.
    fn flush(&mut self, handle: usize) {
        if let Some(conn) = self.conns[handle].as_mut() {
            if !conn.pending_tx.is_empty() {
                let sent = self.host.send(conn.sock, &conn.pending_tx);
                conn.pending_tx.drain(..sent);
            }
        }
    }
}

/// Shows `port` socket `sock` as the world holds it, with `unsent` bytes
/// still waiting for its send buffer.
fn read_conn(host: &SimHost, sock: SocketId, unsent: usize, port: &mut PortConn) {
    port.established = host.established(sock);
    port.peer_closed = host.peer_closed(sock);
    port.send_room = host.send_room(sock);
    port.unsent = unsent;
    port.rx.clear();
    host.peek(sock, &mut port.rx);
}

struct Slot {
    board: Board,
    sockets: SocketTable,
    /// Absolute cycle target at the current epoch's end. Instruction
    /// overshoot (a board cannot stop mid-instruction) carries forward:
    /// the next epoch's slice is that much shorter.
    target: u64,
    state: BoardState,
}

/// A set of boards sharing one [`World`], advanced in deterministic
/// lockstep by the single clock owner.
pub struct Fleet {
    world: Rc<RefCell<World>>,
    slots: Vec<Slot>,
    epochs: u64,
}

impl Fleet {
    /// An empty fleet over `world`.
    pub fn new(world: &Rc<RefCell<World>>) -> Fleet {
        Fleet {
            world: Rc::clone(world),
            slots: Vec::new(),
            epochs: 0,
        }
    }

    /// Number of boards in the fleet.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet has no boards.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Epochs completed so far (fast-forwarded epochs included).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Adds board `len()`: a NIC whose port this scheduler exchanges at
    /// every barrier, and telemetry namespaced under `board<idx>.`.
    pub fn add_board(&mut self, engine: Engine, name: &str, ip: Ipv4) -> usize {
        let idx = self.slots.len();
        let host = SimHost::attach(&self.world, name, ip);
        let mut board = Board::with_engine(engine);
        {
            let world = self.world.borrow();
            board.bind_telemetry_board(world.telemetry(), idx);
            let counters = NicCounters::register_board(world.telemetry(), idx);
            board.attach_nic(Nic::with_counters(counters));
        }
        self.slots.push(Slot {
            board,
            sockets: SocketTable::new(host),
            target: 0,
            state: BoardState::Running,
        });
        idx
    }

    /// Board `i`.
    pub fn board(&self, i: usize) -> &Board {
        &self.slots[i].board
    }

    /// Board `i`, mutably.
    pub fn board_mut(&mut self, i: usize) -> &mut Board {
        &mut self.slots[i].board
    }

    /// Board `i`'s network host handle.
    pub fn host(&self, i: usize) -> &SimHost {
        self.slots[i].sockets.host()
    }

    /// Board `i`'s IP address.
    pub fn ip(&self, i: usize) -> Ipv4 {
        self.host(i).ip()
    }

    /// Whether board `i` is parked: halted with no dispatchable
    /// interrupt, i.e. nothing to do until a peripheral deadline. A
    /// wedged board counts as parked — it contributes nothing until
    /// resurrected, and must not block fleet-wide fast-forward.
    pub fn parked(&mut self, i: usize) -> bool {
        let s = &mut self.slots[i];
        s.state == BoardState::Wedged
            || (s.board.cpu.halted && s.board.bus.pending_interrupt().is_none())
    }

    /// Board `i`'s fault state.
    pub fn state(&self, i: usize) -> BoardState {
        self.slots[i].state
    }

    /// Wedges board `i`: from the next epoch on, the scheduler skips
    /// the slot entirely — no cycles, no idle time, frozen telemetry.
    /// The caller must also black out the board's link (the host-side
    /// TCP stack would otherwise answer SYNs for the frozen board); the
    /// fleet fault driver does both.
    pub fn wedge(&mut self, i: usize) {
        self.slots[i].state = BoardState::Wedged;
    }

    /// Resurrects a wedged board. Lost time is lost: the cycle target
    /// snaps to the board's frozen cycle count, so the board resumes
    /// from where it stopped instead of replaying the missed epochs.
    pub fn resurrect(&mut self, i: usize) {
        let s = &mut self.slots[i];
        s.state = BoardState::Running;
        s.target = s.board.cpu.cycles;
    }

    /// Whether every board is parked.
    pub fn all_parked(&mut self) -> bool {
        (0..self.slots.len()).all(|i| self.parked(i))
    }

    /// Runs one epoch: the world first reaches the epoch's end, then
    /// every board — visited in `order` — executes its cycle slice up to
    /// the barrier. `order` must name each board exactly once; any
    /// permutation yields identical observables (see module docs).
    ///
    /// # Panics
    ///
    /// If a board's firmware stops for any reason other than halting.
    pub fn run_epoch(&mut self, order: &[usize]) {
        debug_assert_eq!(
            {
                let mut o = order.to_vec();
                o.sort_unstable();
                o
            },
            (0..self.slots.len()).collect::<Vec<_>>(),
            "order visits every board exactly once"
        );
        self.run_world(EPOCH_US);
        for &i in order {
            self.advance_slot(i);
        }
        self.drain_ports();
        self.epochs += 1;
    }

    /// The barrier's exchange around one world step: every port's logged
    /// commands reach the world, the world runs `us`, and every port is
    /// filled with what it then holds.
    fn run_world(&mut self, us: u64) {
        self.drain_ports();
        self.world.borrow_mut().run_for(us);
        for s in &mut self.slots {
            let port = s.board.nic_port_mut().expect("fleet boards carry a NIC");
            s.sockets.fill(port);
        }
    }

    /// Drains every board's port, in slot order.
    fn drain_ports(&mut self) {
        for s in &mut self.slots {
            let port = s.board.nic_port_mut().expect("fleet boards carry a NIC");
            s.sockets.drain(port);
        }
    }

    /// Brings board `i` up to its epoch-end cycle target, mixing
    /// execution and batched halted time. A wedged slot is skipped
    /// outright: its target does not advance, so no catch-up debt
    /// accrues while frozen.
    fn advance_slot(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        if slot.state == BoardState::Wedged {
            return;
        }
        slot.target += EPOCH_CYCLES;
        while slot.board.cpu.cycles < slot.target {
            let left = slot.target - slot.board.cpu.cycles;
            match slot.board.run(left) {
                RunOutcome::Halted => {
                    // `run` returns Halted without consuming the budget
                    // when the CPU is already parked; burn the remainder
                    // as batched halted time.
                    let left = slot.target.saturating_sub(slot.board.cpu.cycles);
                    if left > 0 {
                        slot.board.idle(left);
                    }
                }
                RunOutcome::BudgetExhausted => {}
                other => panic!("board {i} firmware stopped: {other:?}"),
            }
        }
    }

    /// Skips up to `max_epochs` whole epochs of fleet-wide idleness in
    /// one batch. Applies only when every board is parked, and is
    /// bounded by the world's next scheduled event and every board's
    /// soonest device deadline, so nothing observable lands inside the
    /// skipped window. Returns the number of epochs skipped.
    pub fn fast_forward(&mut self, max_epochs: u64) -> u64 {
        if max_epochs == 0 || self.slots.is_empty() || !self.all_parked() {
            return 0;
        }
        let mut k = max_epochs;
        {
            let w = self.world.borrow();
            if let Some(t) = w.next_event_time() {
                let now = w.now();
                if t <= now {
                    return 0;
                }
                // The event's own epoch runs normally: skip strictly
                // short of the boundary it lands on.
                k = k.min((t - now - 1) / EPOCH_US);
            }
        }
        for s in &mut self.slots {
            if s.state == BoardState::Wedged {
                continue; // frozen: no deadlines, no idle time
            }
            if let Some(d) = s.board.bus.next_deadline() {
                k = k.min(d / EPOCH_CYCLES);
            }
        }
        if k == 0 {
            return 0;
        }
        self.run_world(k * EPOCH_US);
        for s in &mut self.slots {
            if s.state == BoardState::Wedged {
                continue;
            }
            s.target += k * EPOCH_CYCLES;
            let left = s.target.saturating_sub(s.board.cpu.cycles);
            if left > 0 {
                s.board.idle(left);
            }
        }
        self.drain_ports();
        self.epochs += k;
        k
    }
}

// ---------------------------------------------------------------------------
// Balanced fleet serving driver
// ---------------------------------------------------------------------------

/// Which guest firmware every board of a [`fleet_serve`] run boots.
#[derive(Debug, Clone)]
pub enum FleetFirmware {
    /// The plaintext echo server ([`crate::serve::echo_server_c`]).
    PlainEcho,
    /// The secure server with `psk` poked into its C globals; it serves
    /// plain echo on the same port via first-byte sniffing.
    SecureEcho { psk: Vec<u8> },
}

/// Workload description for one [`fleet_serve`] run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// CPU engine every board runs on.
    pub engine: Engine,
    /// Compiler options for the shared firmware build.
    pub opts: dcc::Options,
    /// Number of boards behind the balancer.
    pub boards: usize,
    /// How the balancer routes new connections.
    pub policy: LbPolicy,
    /// Firmware flavour (one build, loaded into every board).
    pub firmware: FleetFirmware,
    /// Host-side clients, all dialing the balancer's front port.
    pub clients: Vec<GuestClient>,
    /// Inject a console probe into every parked board each `gap`
    /// microseconds of virtual time (per-board schedule).
    pub probe_gap_us: Option<u64>,
    /// Board indices whose balancer link drops every packet — the
    /// dead-backend case the balancer must route around.
    pub dead_links: Vec<usize>,
    /// Per-epoch board visit orders, cycled; empty means index order.
    /// Any sequence of permutations yields identical observables.
    pub orders: Vec<Vec<usize>>,
    /// Scripted faults (flaps, wedges, storms) applied at epoch
    /// boundaries; empty means a fault-free run.
    pub faults: FaultPlan,
    /// Per-client dial times in absolute virtual µs (same order as
    /// `clients`); a client whose time falls inside boot dials right
    /// after boot. Empty means everyone dials as soon as the fleet is
    /// up — the legacy shape.
    pub dials: Vec<u64>,
    /// Balancer dead-backend re-probe gap
    /// ([`LoadBalancer::set_retry_after_us`]); `None` keeps dead
    /// backends dead for the run.
    pub lb_retry_after_us: Option<u64>,
    /// Balancer established-session stall timeout
    /// ([`LoadBalancer::set_stall_timeout_us`]). Must exceed the
    /// longest legitimate guest compute gap (a secure handshake's
    /// SHA-1/KDF burst keeps the wire silent for hundreds of virtual
    /// ms). `None` never stalls a session out.
    pub lb_stall_timeout_us: Option<u64>,
    /// Attach the E10 cycle profiler to every board; each
    /// [`BoardReport::profile`] then carries that board's cycles by
    /// function.
    pub profile: bool,
}

impl FleetSpec {
    /// A spec with the common defaults: round-robin, secure firmware,
    /// no probes, no dead links, index visit order, no profiler.
    #[must_use]
    pub fn new(engine: Engine, boards: usize, psk: &[u8], clients: Vec<GuestClient>) -> FleetSpec {
        FleetSpec {
            engine,
            opts: dcc::Options::all_optimizations(),
            boards,
            policy: LbPolicy::RoundRobin,
            firmware: FleetFirmware::SecureEcho { psk: psk.to_vec() },
            clients,
            probe_gap_us: None,
            dead_links: Vec::new(),
            orders: Vec::new(),
            faults: FaultPlan::new(),
            dials: Vec::new(),
            lb_retry_after_us: None,
            lb_stall_timeout_us: None,
            profile: false,
        }
    }
}

/// What one board did over a [`fleet_serve`] run.
#[derive(Debug, Clone)]
pub struct BoardReport {
    /// Telemetry namespace label (`board<idx>`).
    pub label: String,
    /// Cycles consumed (halted time included).
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Guest `naccepts` counter.
    pub accepts: u16,
    /// Guest `nopen` counter — 0 after an orderly teardown.
    pub open: u16,
    /// Per-handle guest counters (secure firmware only; empty for
    /// plain echo).
    pub conns: Vec<ConnCounters>,
    /// Guest alerts by reason code (secure firmware only; all zero for
    /// plain echo) — see [`crate::secure::ALERT_KIND_LABELS`].
    pub alert_kinds: [u16; 3],
    /// Serial console output.
    pub serial_tx: Vec<u8>,
    /// Cycle attribution by function, when [`FleetSpec::profile`] was
    /// set.
    pub profile: Option<ProfileReport>,
}

/// Result of one balanced fleet serving run.
#[derive(Debug)]
pub struct FleetRun {
    /// Per-client observations, in `clients` order.
    pub outcomes: Vec<ClientOutcome>,
    /// Per-board reports, in board order.
    pub boards: Vec<BoardReport>,
    /// Balancer per-backend routing statistics, in board order.
    pub backends: Vec<BackendStats>,
    /// Epochs the fleet scheduler ran (fast-forwarded ones included).
    pub epochs: u64,
    /// Final virtual time of the shared world, in microseconds.
    pub virtual_us: u64,
    /// Total bytes echoed back across all clients.
    pub echoed_bytes: u64,
    /// Deterministic text snapshot of the world telemetry (per-board
    /// namespaced counters plus the balancer's `lb.*` family).
    pub snapshot: String,
    /// Root code size of the shared firmware, in bytes.
    pub code_size: usize,
    /// What the fault plan did: applied events, corrupted-frame count,
    /// the failover-latency book, and wedge-time telemetry captures.
    pub faults: FaultReport,
}

/// Applies a compiled [`FaultPlan`] to a running fleet: events fire at
/// the first epoch boundary at or after their due time, in plan order.
/// Application is a pure function of virtual time — engine- and
/// visit-order-invariant.
struct FaultDriver {
    events: Vec<ScheduledFault>,
    next: usize,
    report: FaultReport,
}

impl FaultDriver {
    fn new(plan: &FaultPlan, boards: usize) -> FaultDriver {
        let events = plan.compiled();
        for e in &events {
            let b = match &e.event {
                FaultEvent::SetDropRate { board, .. }
                | FaultEvent::RestoreDropRate { board }
                | FaultEvent::Wedge { board }
                | FaultEvent::Resurrect { board }
                | FaultEvent::StormStart { board, .. }
                | FaultEvent::StormEnd { board } => *board,
            };
            assert!(b < boards, "fault plan names board {b} of {boards}");
        }
        FaultDriver {
            events,
            next: 0,
            report: FaultReport::default(),
        }
    }

    /// Due time of the next unapplied event — a fast-forward bound, so
    /// a fleet-wide idle skip never jumps a fault.
    fn next_due_us(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_us)
    }

    /// Applies every event due at or before the world's current time.
    fn apply_due(
        &mut self,
        fleet: &mut Fleet,
        world: &Rc<RefCell<World>>,
        links: &[LinkId],
        dead_links: &[usize],
    ) {
        let now = world.borrow().now();
        while self.next < self.events.len() && self.events[self.next].at_us <= now {
            let ev = self.events[self.next].clone();
            self.next += 1;
            let base = |board: &usize| if dead_links.contains(board) { 1.0 } else { 0.0 };
            let what = match &ev.event {
                FaultEvent::SetDropRate { board, rate } => {
                    world.borrow_mut().set_drop_rate(links[*board], *rate);
                    format!("flap board{board} drop_rate={rate}")
                }
                FaultEvent::RestoreDropRate { board } => {
                    world.borrow_mut().set_drop_rate(links[*board], base(board));
                    format!("restore board{board} drop_rate={}", base(board))
                }
                FaultEvent::Wedge { board } => {
                    // Freeze the epochs AND black out the link: the
                    // host-side TCP stack would otherwise answer SYNs
                    // for the frozen board and hide the wedge from the
                    // balancer's connect timeout.
                    fleet.wedge(*board);
                    world.borrow_mut().set_drop_rate(links[*board], 1.0);
                    let snap = world.borrow().telemetry().snapshot().to_text();
                    let prefix = format!("board{board}.net.board.");
                    let frozen: String = snap
                        .lines()
                        .filter(|l| l.starts_with(&prefix))
                        .map(|l| format!("{l}\n"))
                        .collect();
                    self.report.wedge_snapshots.push((*board, frozen));
                    format!("wedge board{board}")
                }
                FaultEvent::Resurrect { board } => {
                    fleet.resurrect(*board);
                    world.borrow_mut().set_drop_rate(links[*board], base(board));
                    format!("resurrect board{board}")
                }
                FaultEvent::StormStart { board, spec } => {
                    world
                        .borrow_mut()
                        .set_corruption(links[*board], Some(spec.clone()));
                    format!("storm board{board} armed")
                }
                FaultEvent::StormEnd { board } => {
                    world.borrow_mut().set_corruption(links[*board], None);
                    format!("storm board{board} cleared")
                }
            };
            self.report.applied.push(AppliedFault {
                at_us: ev.at_us,
                applied_us: now,
                what,
            });
        }
    }
}

/// Runs `spec.boards` boards behind a simulated TCP load balancer
/// against `spec.clients` concurrent host-side clients. Every
/// observable is a deterministic function of the spec — identical on
/// both engines and under any per-epoch board visit order.
///
/// # Panics
///
/// If the spec is malformed (no boards, more than 255 boards or
/// clients, a `dials` list of the wrong length, a visit order that is
/// not a permutation of the boards, a dead link naming no board) —
/// checked before any work — or if a board's firmware faults or the
/// session does not converge.
pub fn fleet_serve(spec: &FleetSpec) -> FleetRun {
    assert!(spec.boards >= 1, "a fleet has at least one board");
    assert!(
        spec.dials.is_empty() || spec.dials.len() == spec.clients.len(),
        "one dial time per client"
    );
    for order in &spec.orders {
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert!(
            sorted.into_iter().eq(0..spec.boards),
            "visit order {order:?} is not a permutation of {} boards",
            spec.boards
        );
    }
    if let Some(b) = spec.dead_links.iter().find(|&&b| b >= spec.boards) {
        panic!("dead link names board {b} of {}", spec.boards);
    }
    let board_ips: Vec<Ipv4> = (0..spec.boards).map(|i| fleet_ip(1, i)).collect();
    let client_ips: Vec<Ipv4> = (0..spec.clients.len()).map(|i| fleet_ip(2, i)).collect();
    let (build, port) = match &spec.firmware {
        FleetFirmware::PlainEcho => (build_serve_firmware(spec.opts), SERVE_PORT),
        FleetFirmware::SecureEcho { .. } => (build_secure_firmware(spec.opts), SECURE_PORT),
    };

    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = Fleet::new(&world);
    for (i, &ip) in board_ips.iter().enumerate() {
        let b = fleet.add_board(spec.engine, &format!("rmc2000-{i}"), ip);
        let board = fleet.board_mut(b);
        board.load(&build.image);
        board.set_pc(dcc::layout::CODE_ORG);
        if spec.profile {
            board.cpu.enable_profiler();
        }
        if let FleetFirmware::SecureEcho { psk } = &spec.firmware {
            assert!(psk.len() <= 64, "guest PSK buffer is 64 bytes");
            let psk_phys = build.symbol_phys("_psk").expect("C global `psk`");
            board.mem.load(psk_phys, psk);
            let psklen_phys = build.symbol_phys("_psklen").expect("C global `psklen`");
            board
                .mem
                .load(psklen_phys, &(psk.len() as u16).to_le_bytes());
        }
    }

    let mut lb = LoadBalancer::attach(
        &world,
        "lb",
        Ipv4::new(10, 0, 0, 250),
        port,
        64,
        spec.policy,
    );
    // Each board owns MAX_CONNS connection handles; clients beyond the
    // fleet-wide capacity wait at the balancer, not in a board backlog
    // (where the connect-timeout health check would misread a busy
    // board as a dead one).
    lb.set_max_inflight(Some(MAX_CONNS));
    lb.set_retry_after_us(spec.lb_retry_after_us);
    lb.set_stall_timeout_us(spec.lb_stall_timeout_us);
    let lb_ip = lb.host().ip();
    let mut board_links: Vec<LinkId> = Vec::with_capacity(spec.boards);
    for i in 0..spec.boards {
        let link = if spec.dead_links.contains(&i) {
            LinkParams::ethernet_10base_t().with_drop_rate(1.0)
        } else {
            LinkParams::ethernet_10base_t()
        };
        let board_host = fleet.host(i).id();
        board_links.push(world.borrow_mut().link(lb.host().id(), board_host, link));
        lb.add_backend(Endpoint::new(fleet.ip(i), port));
    }

    let mut hosts: Vec<SimHost> = client_ips
        .iter()
        .map(|&ip| {
            let host = SimHost::attach(&world, "client", ip);
            world
                .borrow_mut()
                .link(lb.host().id(), host.id(), LinkParams::ethernet_10base_t());
            host
        })
        .collect();

    let identity: Vec<usize> = (0..spec.boards).collect();
    let order_at = |e: u64| visit_order(&spec.orders, &identity, e);

    let mut faults = FaultDriver::new(&spec.faults, spec.boards);

    // Boot: every board's main seeds its state, configures serial + NIC,
    // and parks in idle().
    let mut boot_epochs = 0u64;
    loop {
        fleet.run_epoch(order_at(fleet.epochs()));
        faults.apply_due(&mut fleet, &world, &board_links, &spec.dead_links);
        boot_epochs += 1;
        if fleet.all_parked() {
            break;
        }
        assert!(boot_epochs < 2_000, "fleet firmware boots");
    }

    // Clients dial the balancer's front address at their scheduled
    // times (everyone immediately, in the legacy no-dials shape).
    let dial_at: Vec<u64> = if spec.dials.is_empty() {
        vec![0; spec.clients.len()]
    } else {
        spec.dials.clone()
    };
    let mut conns: Vec<Option<SocketId>> = vec![None; spec.clients.len()];
    let mut state = client_states(&spec.clients);

    const MAX_EPOCHS: u64 = 4_000_000; // 200 virtual seconds
    const FF_CHUNK: u64 = 200; // 10ms of skipped idle per decision

    let mut next_probe: Vec<u64> = vec![spec.probe_gap_us.unwrap_or(0); spec.boards];

    loop {
        {
            let now = world.borrow().now();
            for (i, conn) in conns.iter_mut().enumerate() {
                if conn.is_none() && now >= dial_at[i] {
                    *conn = Some(hosts[i].connect(Endpoint::new(lb_ip, port)));
                }
            }
        }
        if state.iter().all(|s| s.done) {
            break;
        }
        assert!(
            fleet.epochs() < MAX_EPOCHS,
            "fleet serve session did not converge"
        );
        fleet.run_epoch(order_at(fleet.epochs()));
        faults.apply_due(&mut fleet, &world, &board_links, &spec.dead_links);
        lb.pump();

        if let Some(gap) = spec.probe_gap_us {
            // Probes only against a parked board: the injection point is
            // then a deterministic function of virtual time, identical
            // on both engines and under any visit order.
            let now = world.borrow().now();
            for (i, due) in next_probe.iter_mut().enumerate() {
                // A wedged board is parked but must not accumulate a
                // backlog of probe bytes to replay on resurrection; its
                // probe clock keeps ticking, it just skips the injects.
                let wedged = fleet.state(i) == BoardState::Wedged;
                if now >= *due && fleet.parked(i) {
                    if !wedged {
                        fleet.board_mut(i).serial_mut().inject(SERIAL_PROBE);
                    }
                    *due = now + gap;
                }
            }
        }

        for ((host, conn), st) in hosts.iter_mut().zip(&conns).zip(state.iter_mut()) {
            if let Some(conn) = conn {
                if !st.done {
                    step_client(host, *conn, st);
                }
            }
        }

        // Fleet-wide idle skip, held short of the next probe due-time,
        // the next scheduled fault and the next client dial, so none of
        // those schedules is disturbed.
        let mut bound = FF_CHUNK;
        {
            let now = world.borrow().now();
            let mut soonest = u64::MAX;
            if spec.probe_gap_us.is_some() {
                soonest = soonest.min(next_probe.iter().copied().min().unwrap_or(u64::MAX));
            }
            if let Some(t) = faults.next_due_us() {
                soonest = soonest.min(t);
            }
            for (i, conn) in conns.iter().enumerate() {
                if conn.is_none() {
                    soonest = soonest.min(dial_at[i]);
                }
            }
            if soonest != u64::MAX {
                bound = if soonest > now {
                    bound.min((soonest - now) / EPOCH_US)
                } else {
                    0
                };
            }
        }
        if bound > 0 {
            fleet.fast_forward(bound);
        }
    }

    // Orderly teardown: FINs propagate through the balancer, the guests
    // observe them and free their handles. Late plan events (a
    // resurrection scheduled past the last echo) still apply.
    for _ in 0..150 {
        fleet.run_epoch(order_at(fleet.epochs()));
        faults.apply_due(&mut fleet, &world, &board_links, &spec.dead_links);
        lb.pump();
    }

    let read_arr = |board: &Board, name: &str, idx: usize| -> u16 {
        let phys = build.symbol_phys(name).expect("C global exists") + 2 * idx as u32;
        u16::from_le_bytes([board.mem.read_phys(phys), board.mem.read_phys(phys + 1)])
    };

    let reports: Vec<BoardReport> = (0..spec.boards)
        .map(|i| {
            let profile = fleet
                .board_mut(i)
                .cpu
                .take_profiler()
                .map(|p| p.report(&guest_symbols(&build)));
            let board = fleet.board(i);
            let conns = match &spec.firmware {
                FleetFirmware::PlainEcho => Vec::new(),
                FleetFirmware::SecureEcho { .. } => (0..MAX_CONNS)
                    .map(|h| ConnCounters {
                        handshakes: read_arr(board, "_hs_ok", h),
                        records_in: read_arr(board, "_rec_in", h),
                        records_out: read_arr(board, "_rec_out", h),
                        alerts: read_arr(board, "_alerts", h),
                    })
                    .collect(),
            };
            let alert_kinds = match &spec.firmware {
                FleetFirmware::PlainEcho => [0; 3],
                FleetFirmware::SecureEcho { .. } => [
                    read_arr(board, "_alert_kind", 0),
                    read_arr(board, "_alert_kind", 1),
                    read_arr(board, "_alert_kind", 2),
                ],
            };
            BoardReport {
                label: format!("board{i}"),
                cycles: board.cpu.cycles,
                instructions: board.cpu.instructions,
                accepts: read_arr(board, "_naccepts", 0),
                open: read_arr(board, "_nopen", 0),
                conns,
                alert_kinds,
                serial_tx: board.serial().transmitted().to_vec(),
                profile,
            }
        })
        .collect();

    // Publish the guests' counters into the shared registry under their
    // board namespaces, so the snapshot carries handshake, record and
    // alert counts per handle.
    {
        let w = world.borrow();
        let reg = w.telemetry();
        for r in &reports {
            for (h, c) in r.conns.iter().enumerate() {
                let hl = h.to_string();
                let labels = [("conn", hl.as_str())];
                for (name, v) in [
                    ("issl.guest.handshakes", u64::from(c.handshakes)),
                    ("issl.guest.records.in", u64::from(c.records_in)),
                    ("issl.guest.records.out", u64::from(c.records_out)),
                    ("issl.guest.alerts", u64::from(c.alerts)),
                ] {
                    reg.counter(&format!("{}.{name}", r.label), &labels).add(v);
                }
            }
            if !r.conns.is_empty() {
                for (kind, &v) in crate::secure::ALERT_KIND_LABELS.iter().zip(&r.alert_kinds) {
                    reg.counter(&format!("{}.issl.guest.alerts.kind", r.label), &[("kind", *kind)])
                        .add(u64::from(v));
                }
            }
        }
    }

    let snapshot = world.borrow().telemetry().snapshot().to_text();
    let virtual_us = world.borrow().now();
    let echoed_bytes = state.iter().map(|s| s.out.echoed.len() as u64).sum();
    faults.report.corrupted_frames = world.borrow().stats.corrupted.get();
    faults.report.failover_latencies_us = lb.failover_latencies_us().to_vec();
    FleetRun {
        outcomes: state.into_iter().map(|s| s.out).collect(),
        boards: reports,
        backends: lb.backend_stats(),
        epochs: fleet.epochs(),
        virtual_us,
        echoed_bytes,
        snapshot,
        code_size: build.code_size(),
        faults: faults.report,
    }
}

/// The board visit order for `epoch`: `orders` cycled, or index order
/// when there are none.
fn visit_order<'a>(orders: &'a [Vec<usize>], identity: &'a [usize], epoch: u64) -> &'a [usize] {
    if orders.is_empty() {
        identity
    } else {
        &orders[usize::try_from(epoch).expect("few epochs") % orders.len()]
    }
}

/// Fleet host `i` on `10.0.<subnet>.0/24`: `10.0.<subnet>.<i + 1>`.
fn fleet_ip(subnet: u8, i: usize) -> Ipv4 {
    let host = u8::try_from(i)
        .ok()
        .and_then(|i| i.checked_add(1))
        .unwrap_or_else(|| panic!("fleet host {i} does not fit 10.0.{subnet}.1-255"));
    Ipv4::new(10, 0, subnet, host)
}

/// The firmware's symbols for profile folding. `dcc`'s generated branch
/// labels (`L<digit>...`) are dropped: they would fragment each C
/// function's cycles across its basic blocks. Everything else stays —
/// `_name` C functions and runtime helpers, and the AES module's named
/// internals (`encrypt`, `subshift`, ...), so nearest-label-below
/// resolution folds blocks into functions without hiding where the
/// assembly spends its time.
fn guest_symbols(build: &dcc::Build) -> SymbolTable {
    let local = |n: &str| {
        n.strip_prefix('L')
            .and_then(|r| r.chars().next())
            .is_some_and(|c| c.is_ascii_digit())
    };
    SymbolTable::from_pairs(
        build
            .image
            .symbols
            .iter()
            .filter(|(n, _)| !local(n))
            .map(|(n, &a)| (n.as_str(), a)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_clients(n: usize) -> Vec<GuestClient> {
        (0..n)
            .map(|i| GuestClient::Plain {
                messages: vec![format!("fleet echo {i}").into_bytes()],
            })
            .collect()
    }

    #[test]
    fn two_board_fleet_serves_plain_echo() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 2, b"", echo_clients(4));
        spec.firmware = FleetFirmware::PlainEcho;
        let r = fleet_serve(&spec);
        for (i, o) in r.outcomes.iter().enumerate() {
            assert_eq!(o.echoed, format!("fleet echo {i}").into_bytes(), "client {i}");
        }
        // Round-robin spread the four sessions evenly.
        assert_eq!(
            r.backends.iter().map(|b| b.served).collect::<Vec<_>>(),
            vec![2, 2]
        );
        for b in &r.boards {
            assert_eq!(b.open, 0, "{} freed its handles", b.label);
        }
        assert!(r.snapshot.contains("board0.net.board.conn.accepts"));
        assert!(r.snapshot.contains("board1.net.board.conn.accepts"));
    }

    #[test]
    #[should_panic(expected = "fleet host 255 does not fit 10.0.2.1-255")]
    fn client_255_is_refused_before_boot() {
        let spec = FleetSpec::new(Engine::Interpreter, 1, b"", echo_clients(256));
        let _ = fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "one dial time per client")]
    fn short_dials_list_is_refused_before_boot() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 1, b"", echo_clients(2));
        spec.dials = vec![0];
        let _ = fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "visit order [0, 0] is not a permutation of 2 boards")]
    fn repeated_board_in_a_visit_order_is_refused_before_boot() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 2, b"", echo_clients(1));
        spec.orders = vec![vec![1, 0], vec![0, 0]];
        let _ = fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "dead link names board 2 of 2")]
    fn dead_link_past_the_fleet_is_refused_before_boot() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 2, b"", echo_clients(1));
        spec.dead_links = vec![1, 2];
        let _ = fleet_serve(&spec);
    }

    #[test]
    fn visit_order_is_unobservable() {
        let mut a = FleetSpec::new(Engine::Interpreter, 3, b"", echo_clients(6));
        a.firmware = FleetFirmware::PlainEcho;
        let mut b = a.clone();
        b.orders = vec![vec![2, 0, 1], vec![1, 2, 0]];
        let ra = fleet_serve(&a);
        let rb = fleet_serve(&b);
        assert_eq!(ra.outcomes, rb.outcomes);
        assert_eq!(ra.snapshot, rb.snapshot);
        assert_eq!(ra.virtual_us, rb.virtual_us);
        assert_eq!(ra.epochs, rb.epochs);
    }
}

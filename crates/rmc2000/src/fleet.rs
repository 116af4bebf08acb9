//! Fleet scheduler: N boards, one deterministic world, one clock owner.
//!
//! The [`Fleet`] scheduler is the only party that advances the shared
//! [`World`], and the only one that calls into it for a board: a board's
//! NIC holds a plain-data [`NicPort`], never a world handle. A NIC that
//! dragged the clock forward whenever its board crossed a poll boundary
//! could not scale past one board: whoever polled first would advance
//! time under the others' feet, and every observable would become a
//! function of host-side iteration order. [`Serve`], stepped one epoch
//! at a time, is the one serving driver; a single-board run is a fleet
//! of one.
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
//!    polls ask for — on worker threads when enough boards are runnable
//!    (see below);
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
//! # Parallel epochs
//!
//! A thread schedule is one more visit order, so step 3 may run the
//! slices on threads. When at least three boards are runnable at the
//! barrier (neither halted nor wedged), the fleet lends every core —
//! boxed board, cycle target and state — to its worker pool
//! (`available_parallelism() - 1` threads, joined when the fleet drops)
//! and gets every one back, in slot order, when the round ends. The
//! calling thread claims slices too; every other step stays on it.
//! Below that count the epoch runs serially and wakes no worker. The
//! pool starts only after 32 such epochs in a row: once a process has
//! started a thread, its malloc stays on the slower multi-thread path,
//! which the short bursts of a mostly idle fleet do not repay. On a
//! one-core host no thread is ever started.
//!
//! A worker runs its board on a *frozen* block cache
//! ([`rabbit::Memory::freeze_cache`]): at a block the board's cache lacks
//! the slice stops, at that instruction boundary, and the calling thread
//! finishes it after the round. Ending a slice at an instruction
//! boundary changes nothing the board does — slices already split at
//! halts and wakes — and so every decode, every cache insert, and the
//! shared flash store's lock stay on one thread. Blocks and cache maps,
//! the bulk of a run's allocations, all come from that thread's malloc
//! arena; a worker allocates only when a board's buffers (its NIC
//! receive rings, its port log) first grow. A slice that panics on a
//! worker is re-raised on the calling thread after the round.
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
use std::panic;
use std::rc::Rc;
use std::thread;

use issl::recmap;
use rabbit::nicmap::MAX_CONNS;
use rabbit::{CacheStats, Engine, Firmware, IoSpace};
use telemetry::{ProfileReport, SymbolTable};

use netsim::{
    Endpoint, Ipv4, LinkId, LinkParams, LoadBalancer, Recv, SimHost, SocketId, World, SEND_BUFFER,
};

pub use netsim::{BackendStats, LbPolicy};

use crate::board::{Board, RunOutcome};
use crate::faults::{AppliedFault, FaultEvent, FaultPlan, FaultReport, ScheduledFault};
use crate::nic::{
    Nic, NicCounters, NicPort, PortCmd, PortConn, CYCLES_PER_US, FRAME_MAX, POLL_PERIOD_US,
};
use crate::pool::Pool;
use crate::secure::{
    build_secure_firmware, ClientOutcome, ConnCounters, FleetClient, GuestClient, SECURE_PORT,
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

/// Everything a board's epoch slice touches: it moves to a worker
/// thread and back as one small value, the board behind its box.
struct Core {
    board: Box<Board>,
    /// Absolute cycle target at the current epoch's end. Instruction
    /// overshoot (a board cannot stop mid-instruction) carries forward:
    /// the next epoch's slice is that much shorter.
    target: u64,
    state: BoardState,
}

impl Core {
    /// Whether the board has work at the barrier: neither halted nor
    /// wedged. A halted board wakes on an interrupt, if at all, and is
    /// not asked, which would flush its bus.
    fn runnable(&self) -> bool {
        self.state == BoardState::Running && !self.board.cpu.halted
    }

    /// Board `i`'s slice of the epoch: its cycle target moves one epoch
    /// on, and the board runs up to it, as [`Core::advance`] says. A
    /// wedged slot is skipped outright: its target does not advance, so
    /// no catch-up debt accrues while frozen.
    fn slice(&mut self, i: usize) -> bool {
        if self.state == BoardState::Wedged {
            return true;
        }
        self.target += EPOCH_CYCLES;
        self.advance(i)
    }

    /// Runs board `i` up to its target, mixing execution and batched
    /// halted time. Returns false when a frozen block cache stopped the
    /// board short of the target; running on after a thaw finishes the
    /// slice.
    fn advance(&mut self, i: usize) -> bool {
        let board = &mut self.board;
        while board.cpu.cycles < self.target {
            let left = self.target - board.cpu.cycles;
            match board.run(left) {
                RunOutcome::Halted => {
                    // `run` returns Halted without consuming the budget
                    // when the CPU is already parked; burn the remainder
                    // as batched halted time.
                    let left = self.target.saturating_sub(board.cpu.cycles);
                    if left > 0 {
                        board.idle(left);
                    }
                }
                RunOutcome::BudgetExhausted => {}
                RunOutcome::Uncached => return false,
                other => panic!("board {i} firmware stopped: {other:?}"),
            }
        }
        true
    }

    /// The board's port, for the barrier's exchange.
    fn port(&mut self) -> &mut NicPort {
        self.board.nic_port_mut().expect("fleet boards carry a NIC")
    }
}

/// The pool's job: board `i`'s slice, on a frozen block cache when it
/// runs on a worker, so every decode and map insert stays on the
/// calling thread.
fn lent_slice(core: &mut Core, i: usize, on_worker: bool) -> bool {
    core.board.mem.freeze_cache(on_worker);
    let done = core.slice(i);
    core.board.mem.freeze_cache(false);
    done
}

/// Fewest runnable boards for which an epoch's slices go to the worker
/// pool; below it they run on the calling thread, which then never
/// wakes a worker.
const PARALLEL_MIN_RUNNABLE: usize = 3;

/// Consecutive epochs with [`PARALLEL_MIN_RUNNABLE`] runnable boards
/// after which a fleet starts its pool. Once a process has started a
/// thread, glibc's malloc takes its locked multi-thread path for the
/// rest of the process, which slows every later single-threaded phase
/// (firmware builds pinned to one core ran ~7 % slower after one thread
/// had come and gone). So the pool starts only for sustained parallel
/// work, not for the bursts of at most fifteen epochs in which a mostly
/// idle fleet has several boards running.
const PARALLEL_START_STREAK: u64 = 32;

/// A set of boards sharing one [`World`], advanced in deterministic
/// lockstep by the single clock owner.
pub struct Fleet {
    world: Rc<RefCell<World>>,
    /// Board `i`'s core; a parallel epoch lends the whole vector to the
    /// pool and gets it back in order.
    cores: Vec<Core>,
    /// Board `i`'s side of the world.
    sockets: Vec<SocketTable>,
    epochs: u64,
    /// Worker threads to run slices on: `None` until the pool would
    /// start, then `available_parallelism() - 1`.
    workers: Option<usize>,
    /// Fewest runnable boards for which an epoch goes to the pool.
    min_runnable: usize,
    /// Epochs in a row with `min_runnable` runnable boards so far, and
    /// how many it takes to start the pool.
    streak: u64,
    start_streak: u64,
    /// Started once `streak` reaches `start_streak`; dropping it joins
    /// its threads.
    pool: Option<Pool<Core>>,
}

impl Fleet {
    /// An empty fleet over `world`.
    pub fn new(world: &Rc<RefCell<World>>) -> Fleet {
        Fleet {
            world: Rc::clone(world),
            cores: Vec::new(),
            sockets: Vec::new(),
            epochs: 0,
            workers: None,
            min_runnable: PARALLEL_MIN_RUNNABLE,
            streak: 0,
            start_streak: PARALLEL_START_STREAK,
            pool: None,
        }
    }

    /// Number of boards in the fleet.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the fleet has no boards.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Epochs completed so far (fast-forwarded epochs included).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Adds board `len()`: a NIC whose port this scheduler exchanges at
    /// every barrier, and telemetry namespaced under `board<idx>.`.
    pub fn add_board(&mut self, engine: Engine, name: &str, ip: Ipv4) -> usize {
        let idx = self.cores.len();
        let host = SimHost::attach(&self.world, name, ip);
        let mut board = Board::with_engine(engine);
        {
            let world = self.world.borrow();
            board.bind_telemetry_board(world.telemetry(), idx);
            let counters = NicCounters::register_board(world.telemetry(), idx);
            board.attach_nic(Nic::with_counters(counters));
        }
        self.cores.push(Core {
            board: Box::new(board),
            target: 0,
            state: BoardState::Running,
        });
        self.sockets.push(SocketTable::new(host));
        idx
    }

    /// Board `i`.
    pub fn board(&self, i: usize) -> &Board {
        &self.cores[i].board
    }

    /// Board `i`, mutably.
    pub fn board_mut(&mut self, i: usize) -> &mut Board {
        &mut self.cores[i].board
    }

    /// Board `i`'s network host handle.
    pub fn host(&self, i: usize) -> &SimHost {
        self.sockets[i].host()
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
        let c = &mut self.cores[i];
        c.state == BoardState::Wedged
            || (c.board.cpu.halted && c.board.bus.pending_interrupt().is_none())
    }

    /// Board `i`'s fault state.
    pub fn state(&self, i: usize) -> BoardState {
        self.cores[i].state
    }

    /// Wedges board `i`: from the next epoch on, the scheduler skips
    /// the slot entirely — no cycles, no idle time, frozen telemetry.
    /// The caller must also black out the board's link (the host-side
    /// TCP stack would otherwise answer SYNs for the frozen board); the
    /// fleet fault driver does both.
    pub fn wedge(&mut self, i: usize) {
        self.cores[i].state = BoardState::Wedged;
    }

    /// Resurrects a wedged board. Lost time is lost: the cycle target
    /// snaps to the board's frozen cycle count, so the board resumes
    /// from where it stopped instead of replaying the missed epochs.
    pub fn resurrect(&mut self, i: usize) {
        let c = &mut self.cores[i];
        c.state = BoardState::Running;
        c.target = c.board.cpu.cycles;
    }

    /// Whether every board is parked.
    pub fn all_parked(&mut self) -> bool {
        (0..self.cores.len()).all(|i| self.parked(i))
    }

    /// Runs one epoch: the world first reaches the epoch's end, then
    /// every board — visited in `order` — executes its cycle slice up to
    /// the barrier. `order` must name each board exactly once; any
    /// permutation yields identical observables (see module docs), and
    /// so does running the slices on worker threads, which this does
    /// when enough boards are runnable.
    ///
    /// # Panics
    ///
    /// If a board's firmware stops for any reason other than halting.
    pub fn run_epoch(&mut self, order: &[usize]) {
        debug_assert!(
            is_permutation(order, self.cores.len()),
            "order visits every board exactly once"
        );
        self.run_world(EPOCH_US);
        let runnable = self.cores.iter().filter(|c| c.runnable()).count();
        let parallel = runnable >= self.min_runnable;
        self.streak = if parallel { self.streak + 1 } else { 0 };
        if parallel
            && (self.pool.is_some() || self.streak >= self.start_streak)
            && self.workers() > 0
        {
            self.run_slices_on_workers();
        } else {
            for &i in order {
                let done = self.cores[i].slice(i);
                debug_assert!(done, "only a worker freezes a cache");
            }
        }
        self.drain_ports();
        self.epochs += 1;
    }

    /// Worker threads this fleet runs slices on, fixed on first use.
    fn workers(&mut self) -> usize {
        *self.workers.get_or_insert_with(|| {
            thread::available_parallelism().map_or(0, |n| n.get() - 1)
        })
    }

    /// Runs every epoch with a runnable board on `n` worker threads,
    /// whatever the host's core count (0: every epoch serial). Set before
    /// the first epoch.
    fn force_workers(&mut self, n: usize) {
        self.workers = Some(n);
        self.min_runnable = 1;
        self.start_streak = 1;
    }

    /// The epoch's slices with every core lent to the pool: workers and
    /// this thread claim them. Once all are home, this thread finishes
    /// each slice a worker's frozen cache stopped short, then re-raises
    /// the first slice that panicked.
    fn run_slices_on_workers(&mut self) {
        let n = self.cores.len();
        if self.pool.as_ref().is_none_or(|p| p.cells() != n) {
            let workers = self.workers();
            self.pool = None; // join the old pool's threads first
            self.pool = Some(Pool::new(n, workers, lent_slice));
        }
        let pool = self.pool.as_mut().expect("pool started");
        let ended = pool.run(&mut self.cores);
        let mut panicked = None;
        for ((i, core), ended) in self.cores.iter_mut().enumerate().zip(ended) {
            match ended {
                Ok(true) => {}
                Ok(false) => {
                    core.advance(i);
                }
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }

    /// The barrier's exchange around one world step: every port's logged
    /// commands reach the world, the world runs `us`, and every port is
    /// filled with what it then holds.
    fn run_world(&mut self, us: u64) {
        self.drain_ports();
        self.world.borrow_mut().run_for(us);
        for (core, sockets) in self.cores.iter_mut().zip(&mut self.sockets) {
            sockets.fill(core.port());
        }
    }

    /// Drains every board's port, in slot order.
    fn drain_ports(&mut self) {
        for (core, sockets) in self.cores.iter_mut().zip(&mut self.sockets) {
            sockets.drain(core.port());
        }
    }

    /// Skips up to `max_epochs` whole epochs of fleet-wide idleness in
    /// one batch. Applies only when every board is parked, and is
    /// bounded by the world's next scheduled event and every board's
    /// soonest device deadline, so nothing observable lands inside the
    /// skipped window. Returns the number of epochs skipped.
    pub fn fast_forward(&mut self, max_epochs: u64) -> u64 {
        if max_epochs == 0 || self.cores.is_empty() || !self.all_parked() {
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
        for c in &mut self.cores {
            if c.state == BoardState::Wedged {
                continue; // frozen: no deadlines, no idle time
            }
            if let Some(d) = c.board.bus.next_deadline() {
                k = k.min(d / EPOCH_CYCLES);
            }
        }
        if k == 0 {
            return 0;
        }
        self.run_world(k * EPOCH_US);
        for (i, c) in self.cores.iter_mut().enumerate() {
            if c.state == BoardState::Wedged {
                continue;
            }
            c.target += k * EPOCH_CYCLES;
            c.advance(i);
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
    /// Block-cache work counts (all zero on the interpreter). They
    /// depend on what the other boards on the image decoded first, and on
    /// which slices ran on worker threads (where a frozen cache stops at
    /// a miss, counted in [`CacheStats::frozen_misses`]), so they are not
    /// part of the run's observables.
    pub cache: CacheStats,
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
    /// Each board's balancer link and its drop rate outside faults.
    links: Vec<(LinkId, f64)>,
    report: FaultReport,
}

impl FaultDriver {
    /// Applies every event due by the fleet world's current time.
    fn apply_due(&mut self, fleet: &mut Fleet) {
        let world = Rc::clone(&fleet.world);
        let now = world.borrow().now();
        while let Some(ev) = self.events.get(self.next).filter(|e| e.at_us <= now) {
            self.next += 1;
            let board = ev.event.board();
            let (link, base) = self.links[board];
            let what = match &ev.event {
                FaultEvent::SetDropRate { rate, .. } => {
                    world.borrow_mut().set_drop_rate(link, *rate);
                    format!("flap board{board} drop_rate={rate}")
                }
                FaultEvent::RestoreDropRate { .. } => {
                    world.borrow_mut().set_drop_rate(link, base);
                    format!("restore board{board} drop_rate={base}")
                }
                FaultEvent::Wedge { .. } => {
                    // Freeze the epochs AND black out the link: the
                    // host-side TCP stack would otherwise answer SYNs
                    // for the frozen board and hide the wedge from the
                    // balancer's connect timeout.
                    fleet.wedge(board);
                    world.borrow_mut().set_drop_rate(link, 1.0);
                    let snap = world.borrow().telemetry().snapshot().to_text();
                    let prefix = format!("board{board}.net.board.");
                    let frozen: String = snap
                        .lines()
                        .filter(|l| l.starts_with(&prefix))
                        .map(|l| format!("{l}\n"))
                        .collect();
                    self.report.wedge_snapshots.push((board, frozen));
                    format!("wedge board{board}")
                }
                FaultEvent::Resurrect { .. } => {
                    fleet.resurrect(board);
                    world.borrow_mut().set_drop_rate(link, base);
                    format!("resurrect board{board}")
                }
                FaultEvent::StormStart { spec, .. } => {
                    world.borrow_mut().set_corruption(link, Some(spec.clone()));
                    format!("storm board{board} armed")
                }
                FaultEvent::StormEnd { .. } => {
                    world.borrow_mut().set_corruption(link, None);
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

const MAX_EPOCHS: u64 = 4_000_000; // 200 virtual seconds
const FF_CHUNK: u64 = 200; // 10ms of skipped idle per decision

/// The phase the next [`Serve::step`] runs one epoch of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePhase {
    /// Until every board is parked in its idle loop.
    Boot,
    /// Until every client is done.
    Serving,
    /// `left` more epochs, for FINs to propagate and guests to close.
    Teardown { left: u32 },
}

/// One [`fleet_serve`] run as a value: [`Serve::new`], [`Serve::step`]
/// until it returns false, then [`Serve::finish`].
pub struct Serve<'s> {
    spec: &'s FleetSpec,
    build: dcc::Build,
    fleet: Fleet,
    lb: LoadBalancer,
    faults: FaultDriver,
    clients: Vec<FleetClient>,
    server: Endpoint,
    /// Per-epoch board visit orders, cycled: the spec's, or index order.
    orders: Vec<Vec<usize>>,
    /// Each board's next probe time; empty without probes.
    next_probe: Vec<u64>,
    /// The earliest dial time of a client that has not dialed yet.
    next_dial: u64,
    phase: ServePhase,
}

impl<'s> Serve<'s> {
    /// Checks `spec`, builds the firmware and wires boards, balancer and
    /// clients into one world.
    ///
    /// # Panics
    ///
    /// If the spec is malformed (no boards, more than 255 boards or
    /// clients, a `dials` list of the wrong length, a visit order that is
    /// not a permutation of the boards, a dead link or fault naming no
    /// board, a client message or payload over [`netsim::SEND_BUFFER`],
    /// a secure one counted as its data records' wire size, a PSK over
    /// 64 bytes) — checked before any work.
    pub fn new(spec: &'s FleetSpec) -> Serve<'s> {
        Serve::with(spec, true, None)
    }

    /// [`Serve::new`] for the oracles: `share_image` false gives each board
    /// a private image; `workers` puts every busy epoch on that many threads.
    fn with(spec: &'s FleetSpec, share_image: bool, workers: Option<usize>) -> Serve<'s> {
        assert!(spec.boards >= 1, "a fleet has at least one board");
        assert!(
            spec.dials.is_empty() || spec.dials.len() == spec.clients.len(),
            "one dial time per client"
        );
        for order in &spec.orders {
            assert!(
                is_permutation(order, spec.boards),
                "visit order {order:?} is not a permutation of {} boards",
                spec.boards
            );
        }
        if let Some(b) = spec.dead_links.iter().find(|&&b| b >= spec.boards) {
            panic!("dead link names board {b} of {}", spec.boards);
        }
        let events = spec.faults.compiled();
        if let Some(b) = events.iter().map(|e| e.event.board()).find(|&b| b >= spec.boards) {
            panic!("fault plan names board {b} of {}", spec.boards);
        }
        for (i, client) in spec.clients.iter().enumerate() {
            // Each message (a secure one as its data records) or payload
            // goes to the socket in one send.
            let largest = match client {
                GuestClient::Plain { messages } => messages.iter().map(Vec::len).max(),
                GuestClient::Secure { messages, .. } => {
                    messages.iter().map(|m| recmap::data_wire_len(m.len())).max()
                }
                GuestClient::Raw { payload } | GuestClient::HangUp { payload } => {
                    Some(payload.len())
                }
            };
            if let Some(n) = largest.filter(|&n| n > SEND_BUFFER) {
                panic!("client {i} sends {n} bytes at once; the send buffer holds {SEND_BUFFER}");
            }
        }
        if let FleetFirmware::SecureEcho { psk } = &spec.firmware {
            assert!(psk.len() <= 64, "guest PSK buffer is 64 bytes");
        }
        let board_ips: Vec<Ipv4> = (0..spec.boards).map(|i| fleet_ip(1, i)).collect();
        let client_ips: Vec<Ipv4> = (0..spec.clients.len()).map(|i| fleet_ip(2, i)).collect();
        let (build, port) = match &spec.firmware {
            FleetFirmware::PlainEcho => (build_serve_firmware(spec.opts), SERVE_PORT),
            FleetFirmware::SecureEcho { .. } => (build_secure_firmware(spec.opts), SECURE_PORT),
        };

        // One image for the whole fleet: every board reads the same flash
        // and replays the blocks any of them decoded from it.
        let firmware = Firmware::new(&build.image);

        let world = Rc::new(RefCell::new(World::new(42)));
        let mut fleet = Fleet::new(&world);
        if let Some(n) = workers {
            fleet.force_workers(n);
        }
        for (i, &ip) in board_ips.iter().enumerate() {
            let b = fleet.add_board(spec.engine, &format!("rmc2000-{i}"), ip);
            let board = fleet.board_mut(b);
            if share_image {
                firmware.load_into(&mut board.mem);
            } else {
                board.load(&build.image);
            }
            board.set_pc(dcc::layout::CODE_ORG);
            if spec.profile {
                board.cpu.enable_profiler();
            }
            if let FleetFirmware::SecureEcho { psk } = &spec.firmware {
                let psk_phys = build.symbol_phys("_psk").expect("C global `psk`");
                board.mem.load(psk_phys, psk);
                let psklen_phys = build.symbol_phys("_psklen").expect("C global `psklen`");
                board.mem.load(psklen_phys, &(psk.len() as u16).to_le_bytes());
            }
        }

        let lb_ip = Ipv4::new(10, 0, 0, 250);
        let mut lb = LoadBalancer::attach(&world, "lb", lb_ip, port, 64, spec.policy);
        // Each board owns MAX_CONNS connection handles; clients beyond the
        // fleet-wide capacity wait at the balancer, not in a board backlog
        // (where the connect-timeout health check would misread a busy
        // board as a dead one).
        lb.set_max_inflight(Some(MAX_CONNS));
        lb.set_retry_after_us(spec.lb_retry_after_us);
        lb.set_stall_timeout_us(spec.lb_stall_timeout_us);
        let mut links = Vec::with_capacity(spec.boards);
        for i in 0..spec.boards {
            let base = if spec.dead_links.contains(&i) { 1.0 } else { 0.0 };
            let params = LinkParams::ethernet_10base_t().with_drop_rate(base);
            let board_host = fleet.host(i).id();
            links.push((world.borrow_mut().link(lb.host().id(), board_host, params), base));
            lb.add_backend(Endpoint::new(fleet.ip(i), port));
        }

        // Clients dial the balancer's front address at their scheduled
        // times (everyone immediately, in the legacy no-dials shape).
        let clients: Vec<FleetClient> = client_ips
            .iter()
            .zip(&spec.clients)
            .enumerate()
            .map(|(i, (&ip, client))| {
                let host = SimHost::attach(&world, "client", ip);
                world
                    .borrow_mut()
                    .link(lb.host().id(), host.id(), LinkParams::ethernet_10base_t());
                let dial_at = spec.dials.get(i).copied().unwrap_or(0);
                FleetClient::new(i, client, host, dial_at)
            })
            .collect();
        let orders = if spec.orders.is_empty() {
            vec![(0..spec.boards).collect()]
        } else {
            spec.orders.clone()
        };
        Serve {
            spec,
            build,
            fleet,
            server: Endpoint::new(lb.host().ip(), port),
            lb,
            faults: FaultDriver {
                events,
                next: 0,
                links,
                report: FaultReport::default(),
            },
            clients,
            orders,
            next_probe: spec.probe_gap_us.map_or(Vec::new(), |gap| vec![gap; spec.boards]),
            next_dial: 0,
            phase: ServePhase::Boot,
        }
    }

    /// The phase the next [`Serve::step`] runs.
    pub fn phase(&self) -> ServePhase {
        self.phase
    }

    /// Runs one driver iteration: an epoch, the faults due by its end and,
    /// after boot, a balancer pump. Serving first dials the clients that
    /// are due, or turns to teardown once all are done; after its epoch it
    /// probes parked boards, steps the clients and fast-forwards fleet-wide
    /// idle time. Returns false once the last teardown epoch has run.
    ///
    /// # Panics
    ///
    /// If a board's firmware faults, the boards do not park within 2,000
    /// boot epochs, or the session does not converge within 200 virtual
    /// seconds.
    pub fn step(&mut self) -> bool {
        match self.phase {
            ServePhase::Teardown { left: 0 } => return false,
            ServePhase::Serving => {
                let now = self.fleet.world.borrow().now();
                if now >= self.next_dial {
                    let dials = self.clients.iter_mut().map(|c| c.dial_if_due(now, self.server));
                    self.next_dial = dials.flatten().min().unwrap_or(u64::MAX);
                }
                if self.clients.iter().all(|c| c.done) {
                    self.phase = ServePhase::Teardown { left: 150 };
                } else {
                    let epochs = self.fleet.epochs();
                    assert!(epochs < MAX_EPOCHS, "fleet serve session did not converge");
                }
            }
            ServePhase::Boot | ServePhase::Teardown { .. } => {}
        }

        let epoch = usize::try_from(self.fleet.epochs()).expect("few epochs");
        self.fleet.run_epoch(&self.orders[epoch % self.orders.len()]);
        self.faults.apply_due(&mut self.fleet);
        if self.phase != ServePhase::Boot {
            self.lb.pump();
        }

        match self.phase {
            ServePhase::Boot if self.fleet.all_parked() => self.phase = ServePhase::Serving,
            ServePhase::Boot => {
                assert!(self.fleet.epochs() < 2_000, "fleet firmware boots");
            }
            ServePhase::Serving => {
                // Probes only against a parked board: the injection point
                // is then a function of virtual time alone.
                let now = self.fleet.world.borrow().now();
                let gap = self.spec.probe_gap_us.unwrap_or(0);
                for (i, due) in self.next_probe.iter_mut().enumerate() {
                    if now >= *due && self.fleet.parked(i) {
                        // A wedged board keeps its probe clock but takes no
                        // probe bytes, which it would replay on resurrection.
                        if self.fleet.state(i) != BoardState::Wedged {
                            self.fleet.board_mut(i).serial_mut().inject(SERIAL_PROBE);
                        }
                        *due = now + gap;
                    }
                }
                // Stepping only live clients keeps a long idle run cheap.
                for c in self.clients.iter_mut().filter(|c| c.is_live()) {
                    c.step();
                }
                let bound = FF_CHUNK.min(self.next_due().saturating_sub(now) / EPOCH_US);
                if bound > 0 {
                    self.fleet.fast_forward(bound);
                }
            }
            ServePhase::Teardown { left } => self.phase = ServePhase::Teardown { left: left - 1 },
        }
        self.phase != ServePhase::Teardown { left: 0 }
    }

    /// The soonest next probe, fault or dial (`u64::MAX` for none): an
    /// idle skip stops short of it, so none of those schedules moves.
    fn next_due(&self) -> u64 {
        let fault = self.faults.events.get(self.faults.next).map(|e| e.at_us);
        self.next_probe.iter().copied().chain(fault).fold(self.next_dial, u64::min)
    }

    /// The run's reports, as far as it has got (all of it once
    /// [`Serve::step`] has returned false).
    pub fn finish(self) -> FleetRun {
        let build = &self.build;
        let read_arr = |board: &Board, name: &str, idx: usize| -> u16 {
            let phys = build.symbol_phys(name).expect("C global exists") + 2 * idx as u32;
            u16::from_le_bytes([board.mem.read_phys(phys), board.mem.read_phys(phys + 1)])
        };
        let secure = matches!(self.spec.firmware, FleetFirmware::SecureEcho { .. });
        let mut fleet = self.fleet;
        let reports: Vec<BoardReport> = (0..self.spec.boards)
            .map(|i| {
                let profiler = fleet.board_mut(i).cpu.take_profiler();
                let board = fleet.board(i);
                // Plain echo keeps no per-handle or alert counters.
                let handles = if secure { MAX_CONNS } else { 0 };
                let conns = (0..handles)
                    .map(|h| ConnCounters {
                        handshakes: read_arr(board, "_hs_ok", h),
                        records_in: read_arr(board, "_rec_in", h),
                        records_out: read_arr(board, "_rec_out", h),
                        alerts: read_arr(board, "_alerts", h),
                    })
                    .collect();
                let alert_kinds =
                    [0, 1, 2].map(|k| if secure { read_arr(board, "_alert_kind", k) } else { 0 });
                BoardReport {
                    label: format!("board{i}"),
                    cycles: board.cpu.cycles,
                    instructions: board.cpu.instructions,
                    accepts: read_arr(board, "_naccepts", 0),
                    open: read_arr(board, "_nopen", 0),
                    conns,
                    alert_kinds,
                    serial_tx: board.serial().transmitted().to_vec(),
                    profile: profiler.map(|p| p.report(&guest_symbols(build))),
                    cache: board.mem.cache_stats(),
                }
            })
            .collect();

        // Publish the guests' counters into the shared registry under their
        // board namespaces, so the snapshot carries handshake, record and
        // alert counts per handle.
        let world = fleet.world.borrow();
        let reg = world.telemetry();
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

        let outcomes: Vec<ClientOutcome> =
            self.clients.into_iter().map(FleetClient::into_outcome).collect();
        let mut faults = self.faults.report;
        faults.corrupted_frames = world.stats.corrupted.get();
        faults.failover_latencies_us = self.lb.failover_latencies_us().to_vec();
        FleetRun {
            echoed_bytes: outcomes.iter().map(|o| o.echoed.len() as u64).sum(),
            outcomes,
            boards: reports,
            backends: self.lb.backend_stats(),
            epochs: fleet.epochs(),
            virtual_us: world.now(),
            snapshot: reg.snapshot().to_text(),
            code_size: build.code_size(),
            faults,
        }
    }
}

/// Runs `spec.boards` boards behind a simulated TCP load balancer
/// against `spec.clients` concurrent host-side clients, as one [`Serve`].
/// Every observable is a deterministic function of the spec — identical
/// on both engines, under any per-epoch board visit order, and whether or
/// not board slices run on worker threads.
///
/// # Panics
///
/// If the spec is malformed ([`Serve::new`]), or if a board's firmware
/// faults or the session does not converge ([`Serve::step`]).
pub fn fleet_serve(spec: &FleetSpec) -> FleetRun {
    let mut serve = Serve::new(spec);
    while serve.step() {}
    serve.finish()
}

/// Whether `order` names each of `0..n` exactly once.
fn is_permutation(order: &[usize], n: usize) -> bool {
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    sorted.into_iter().eq(0..n)
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
    use crate::secure::Tamper;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn echo_clients(n: usize) -> Vec<GuestClient> {
        (0..n)
            .map(|i| GuestClient::Plain {
                messages: vec![format!("fleet echo {i}").into_bytes()],
            })
            .collect()
    }

    /// [`fleet_serve`] with the image sharing and worker count set.
    fn serve(spec: &FleetSpec, share_image: bool, workers: Option<usize>) -> FleetRun {
        let mut serve = Serve::with(spec, share_image, workers);
        while serve.step() {}
        serve.finish()
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
    #[should_panic(expected = "client 0 sends 70000 bytes at once; the send buffer holds 65536")]
    fn oversized_client_send_is_refused_before_boot() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 1, b"", Vec::new());
        spec.firmware = FleetFirmware::PlainEcho;
        spec.clients = vec![GuestClient::Plain {
            messages: vec![vec![b'x'; 70_000]],
        }];
        let _ = fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "client 0 sends 73795 bytes at once; the send buffer holds 65536")]
    fn oversized_secure_message_is_refused_before_boot() {
        let spec = FleetSpec::new(
            Engine::Interpreter,
            1,
            b"psk",
            vec![GuestClient::secure(&[&[b'x'; 70_000]], b"psk")],
        );
        let _ = fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "client 1 sends 65537 bytes at once")]
    fn oversized_raw_payload_is_refused_before_boot() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 1, b"", echo_clients(1));
        spec.clients.push(GuestClient::HangUp {
            payload: vec![1; SEND_BUFFER + 1],
        });
        let _ = fleet_serve(&spec);
    }

    #[test]
    #[should_panic(expected = "fault plan names board 2 of 2")]
    fn fault_past_the_fleet_is_refused_before_boot() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 2, b"", echo_clients(1));
        spec.faults = FaultPlan::new().wedge(2, 1_000);
        let _ = fleet_serve(&spec);
    }

    /// The phase boundaries [`Serve::step`] encodes, on one plain board: a
    /// dial time inside boot dials when boot ends, and a fault due inside
    /// boot applies during boot, at the first barrier at or after its
    /// due time.
    #[test]
    fn boot_holds_dials_to_its_end_and_applies_due_faults() {
        let mut spec = FleetSpec::new(Engine::Interpreter, 1, b"", echo_clients(1));
        spec.firmware = FleetFirmware::PlainEcho;
        spec.dials = vec![0];
        let mut boot = Serve::new(&spec);
        while boot.phase() == ServePhase::Boot {
            assert!(boot.step());
        }
        let boot_us = boot.fleet.world.borrow().now();

        let at_zero = observables(&fleet_serve(&spec));
        for dial in [1, boot_us - 1, boot_us] {
            let mut inside = spec.clone();
            inside.dials = vec![dial];
            assert!(observables(&fleet_serve(&inside)) == at_zero, "dial at {dial} us");
        }

        // Due 7 us into boot's last epoch.
        let mut faulted = spec.clone();
        let at_us = boot_us - EPOCH_US + 7;
        faulted.faults = FaultPlan::new().storm(
            0,
            at_us,
            at_us + 1,
            netsim::Corruption::mac_storm(issl::recmap::REC_DATA),
        );
        let mut serve = Serve::new(&faulted);
        while serve.phase() == ServePhase::Boot {
            serve.step();
        }
        assert_eq!(serve.fleet.world.borrow().now(), boot_us, "the fault does not move boot");
        let applied = &serve.faults.report.applied;
        assert_eq!(applied.len(), 2, "{applied:?}");
        for a in applied {
            assert!(a.applied_us >= a.at_us && a.applied_us - a.at_us < EPOCH_US, "{a:?}");
        }
        while serve.step() {}
        let run = serve.finish();
        assert_eq!(run.outcomes[0].echoed, b"fleet echo 0");
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
    fn boards_on_one_image_decode_each_flash_block_once() {
        const PSK: &[u8] = b"rmc2000 shared secret";
        let clients: Vec<GuestClient> = (0..8)
            .map(|i| GuestClient::secure(&[format!("one image {i}").as_bytes()], PSK))
            .collect();
        for engine in [Engine::Interpreter, Engine::BlockCache] {
            let spec = FleetSpec::new(engine, 8, PSK, clients.clone());
            let shared = serve(&spec, true, Some(0));
            let private = serve(&spec, false, Some(0));

            // Sharing the image changes no observable.
            assert_eq!(shared.outcomes, private.outcomes, "{engine:?}");
            assert_eq!(shared.snapshot, private.snapshot, "{engine:?}");
            assert_eq!(
                (shared.virtual_us, shared.epochs, shared.echoed_bytes),
                (private.virtual_us, private.epochs, private.echoed_bytes),
                "{engine:?}"
            );
            for (s, p) in shared.boards.iter().zip(&private.boards) {
                assert_eq!(
                    (s.cycles, s.instructions, s.accepts, s.open, &s.conns, s.alert_kinds),
                    (p.cycles, p.instructions, p.accepts, p.open, &p.conns, p.alert_kinds),
                    "{engine:?} {}",
                    s.label
                );
                assert_eq!(s.serial_tx, p.serial_tx, "{engine:?} {}", s.label);
            }
            assert!(shared.outcomes.iter().all(|o| o.established && o.error.is_none()));

            let sum = |r: &FleetRun, f: fn(&CacheStats) -> u64| -> u64 {
                r.boards.iter().map(|b| f(&b.cache)).sum()
            };
            if engine == Engine::Interpreter {
                assert_eq!(sum(&shared, |c| c.inserts), 0, "the interpreter caches nothing");
                continue;
            }
            // On worker threads every decode and insert still happens on
            // the calling thread, against the one image: each flash block
            // is decoded exactly once, as in the serial run.
            for workers in [1, 3] {
                let threaded = serve(&spec, true, Some(workers));
                assert_eq!(threaded.outcomes, shared.outcomes, "{workers} workers");
                let counts: [fn(&CacheStats) -> u64; 2] = [|c| c.decodes, |c| c.barrier_decodes];
                for count in counts {
                    assert_eq!(sum(&threaded, count), sum(&shared, count), "{workers} workers");
                }
                // Workers did stop short, and the calling thread finished
                // those slices.
                let stopped = sum(&threaded, |c| c.frozen_misses);
                assert!(stopped > 0, "{workers} workers: no slice stopped short");
            }
            for (s, p) in shared.boards.iter().zip(&private.boards) {
                // Every board caches the same blocks either way; on a
                // private image it decodes every one itself, on the
                // shared one it takes what another board decoded.
                let (s, p) = (s.cache, p.cache);
                assert_eq!(s.inserts, p.inserts);
                assert_eq!((p.shared_hits, p.decodes + p.barrier_decodes), (0, p.inserts));
                assert_eq!(s.decodes + s.barrier_decodes + s.shared_hits, s.inserts);
            }
            // Fleet-wide, a block is decoded once, by whichever board
            // reached it first: at least as many decodes as the busiest
            // private board makes, and far fewer than eight private
            // images make.
            let decodes = |r: &FleetRun| sum(r, |c| c.decodes);
            let busiest = private.boards.iter().map(|b| b.cache.decodes).max();
            assert!(busiest <= Some(decodes(&shared)));
            assert!(
                decodes(&shared) * 2 < decodes(&private),
                "{} decodes on one image, {} on private ones",
                decodes(&shared),
                decodes(&private)
            );
        }
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

    /// Everything a run shows except the block-cache counts, which depend
    /// on which board reached a shared block first.
    fn observables(r: &FleetRun) -> String {
        let boards: Vec<BoardReport> = r
            .boards
            .iter()
            .map(|b| BoardReport {
                cache: CacheStats::default(),
                ..b.clone()
            })
            .collect();
        format!(
            "{:?}",
            (&r.outcomes, boards, &r.backends, r.epochs, r.virtual_us, &r.snapshot, &r.faults)
        )
    }

    /// The E16 fault timeline on four boards: a wedge with resurrection,
    /// a link flap and a MAC storm, under three waves of dials.
    fn fault_storm(engine: Engine, psk: &[u8]) -> FleetSpec {
        let clients = (0..12)
            .map(|i| {
                let m = format!("fault wave client {i}").into_bytes();
                match i {
                    2 | 3 | 10 | 11 => GuestClient::Plain { messages: vec![m] },
                    _ => GuestClient::secure(&[&m, b"second record"], psk),
                }
            })
            .collect();
        let mut spec = FleetSpec::new(engine, 4, psk, clients);
        spec.probe_gap_us = Some(900);
        spec.faults = FaultPlan::new()
            .wedge_resurrect(1, 560_000, 1_600_000)
            .flap(2, 600_000, 750_000, 0.4)
            .storm(
                3,
                600_000,
                1_500_000,
                netsim::Corruption::mac_storm(issl::recmap::REC_DATA),
            );
        spec.dials = [0, 600_000, 1_900_000]
            .iter()
            .flat_map(|&t| [t; 4])
            .collect();
        spec.lb_retry_after_us = Some(200_000);
        spec.lb_stall_timeout_us = Some(2_000_000);
        spec
    }

    /// Runs `spec` on both engines with 0, 1 and 3 worker threads and
    /// requires identical observables.
    fn threads_change_nothing(spec: impl Fn(Engine) -> FleetSpec) {
        for engine in [Engine::Interpreter, Engine::BlockCache] {
            let spec = spec(engine);
            let serial = serve(&spec, true, Some(0));
            assert!(serial.outcomes.iter().all(|o| o.established));
            let serial = observables(&serial);
            for workers in [1, 3] {
                let threaded = observables(&serve(&spec, true, Some(workers)));
                assert!(
                    threaded == serial,
                    "{engine:?}, {} boards, {workers} workers: observables differ",
                    spec.boards
                );
            }
        }
    }

    #[test]
    fn worker_threads_are_one_more_visit_order() {
        const PSK: &[u8] = b"rmc2000 shared secret";
        let clients: Vec<GuestClient> = (0..8)
            .map(|i| GuestClient::secure(&[format!("threads {i}").as_bytes()], PSK))
            .collect();
        threads_change_nothing(|engine| FleetSpec::new(engine, 8, PSK, clients.clone()));
    }

    #[test]
    fn worker_threads_are_one_more_visit_order_under_faults() {
        threads_change_nothing(|engine| fault_storm(engine, b"rmc2000 shared secret"));
    }

    #[test]
    #[should_panic(expected = "board 2 firmware stopped")]
    fn a_board_that_faults_under_workers_fails_the_epoch_fast() {
        let (done, finished) = mpsc::channel();
        let run = thread::spawn(move || {
            let world = Rc::new(RefCell::new(World::new(7)));
            let mut fleet = Fleet::new(&world);
            fleet.force_workers(3);
            for i in 0..4 {
                let b = fleet.add_board(Engine::BlockCache, "spin", fleet_ip(1, i));
                let board = fleet.board_mut(b);
                // 0x4008: jr 0x4008, runnable every epoch. Board 2 first
                // counts `b` down 256 times per `c` (~100 epochs), then
                // runs into an invalid opcode and halts on it.
                board.mem.load(0x4000, &[0x0E, 0x75, 0x10, 0xFE, 0x0D, 0x20, 0xFB, 0xC7]);
                board.mem.load(0x4008, &[0x18, 0xFE]);
                board.set_pc(if i == 2 { 0x4000 } else { 0x4008 });
            }
            fleet.board(2).errors.define(|_| dynamicc::Disposition::Halt);
            for _ in 0..1_000 {
                fleet.run_epoch(&[0, 1, 2, 3]);
            }
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            // The sender is dropped by the panic: re-raise it here.
            Err(mpsc::RecvTimeoutError::Disconnected) => match run.join() {
                Err(payload) => panic::resume_unwind(payload),
                Ok(()) => unreachable!("the run ended without reporting"),
            },
            Ok(()) => panic!("the faulting board went unnoticed"),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("the epoch hung"),
        }
    }

    /// A small random spec: 1-3 boards, up to four clients of every kind,
    /// dead links, a stall timeout, dial spacing and a short fault plan.
    #[derive(Debug, Clone)]
    struct SmallSpec {
        engine: Engine,
        boards: usize,
        /// (kind 0-4, tamper 0-2, message or payload length)
        clients: Vec<(u8, u8, usize)>,
        dead: usize,
        stall: Option<u64>,
        spacing: u64,
        /// (kind 0-3, board, start)
        fault: (u8, usize, u64),
    }

    fn small_spec() -> impl Strategy<Value = SmallSpec> {
        (
            (
                any::<bool>(),
                1..4usize,
                proptest::collection::vec((0..5u8, 0..3u8, 1..48usize), 1..5),
            ),
            (0..8usize, 0..3u8, 0..20_000u64),
            (0..4u8, 0..3usize, 0..300_000u64),
        )
            .prop_map(|((interp, boards, clients), (dead, stall, spacing), fault)| SmallSpec {
                engine: if interp { Engine::Interpreter } else { Engine::BlockCache },
                boards,
                clients,
                // Board b's link is dead when bit b is set; one board
                // always stays reachable.
                dead: dead & ((1 << (boards - 1)) - 1),
                stall: [None, Some(60_000), Some(400_000)][usize::from(stall)],
                spacing,
                fault: (fault.0, fault.1 % boards, fault.2),
            })
    }

    impl SmallSpec {
        fn spec(&self) -> FleetSpec {
            const PSK: &[u8] = b"rmc2000 shared secret";
            let clients = self
                .clients
                .iter()
                .enumerate()
                .map(|(i, &(kind, tamper, len))| {
                    let bytes: Vec<u8> =
                        (0..len).map(|k| b'a' + ((i * 7 + k) % 26) as u8).collect();
                    let tamper = [Tamper::None, Tamper::FlipDataMac, Tamper::TruncateAfterHeader]
                        [usize::from(tamper)];
                    // A complete record of any type: the guest answers
                    // it, or closes.
                    let record = || {
                        let mut r = vec![1 + (len % 6) as u8, 0, (len % 24) as u8];
                        r.extend(&bytes[..len % 24]);
                        r
                    };
                    match kind {
                        0 => GuestClient::Secure {
                            messages: vec![bytes.clone(), bytes[..len / 2 + 1].to_vec()],
                            psk: PSK.to_vec(),
                            tamper,
                        },
                        1 => GuestClient::Plain {
                            messages: vec![bytes],
                        },
                        2 => GuestClient::Raw { payload: record() },
                        3 => GuestClient::HangUp { payload: record() },
                        _ => GuestClient::secure(&[&bytes], b"the wrong secret"),
                    }
                })
                .collect();
            let mut spec = FleetSpec::new(self.engine, self.boards, PSK, clients);
            spec.dead_links = (0..self.boards).filter(|b| self.dead >> b & 1 == 1).collect();
            spec.lb_stall_timeout_us = self.stall;
            spec.dials = (0..self.clients.len() as u64).map(|i| i * self.spacing).collect();
            let (kind, board, at) = self.fault;
            spec.faults = match kind {
                0 => FaultPlan::new(),
                1 => FaultPlan::new().flap(board, at, at + 100_000, 0.5),
                2 => FaultPlan::new().wedge_resurrect(board, at, at + 200_000),
                _ => FaultPlan::new().storm(
                    board,
                    at,
                    at + 300_000,
                    netsim::Corruption::mac_storm(issl::recmap::REC_DATA),
                ),
            };
            spec.lb_retry_after_us = Some(150_000);
            spec
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Every small spec's run returns with a terminal outcome for each
        // client, and running its slices on workers changes nothing.
        #[test]
        fn small_specs_terminate_and_threads_change_nothing(small in small_spec()) {
            let spec = small.spec();
            let serial = serve(&spec, true, Some(0));
            for (client, o) in spec.clients.iter().zip(&serial.outcomes) {
                let wanted: Option<Vec<u8>> = match client {
                    GuestClient::Secure { messages, tamper: Tamper::None, .. }
                    | GuestClient::Plain { messages } => Some(messages.concat()),
                    _ => None,
                };
                let terminal = o.error.is_some()
                    || o.peer_closed
                    || wanted.is_none_or(|w| o.echoed == w);
                prop_assert!(terminal, "{small:?}: {o:?}");
            }
            let threaded = serve(&spec, true, Some(2));
            prop_assert_eq!(observables(&threaded), observables(&serial), "{:?}", small);
        }
    }
}

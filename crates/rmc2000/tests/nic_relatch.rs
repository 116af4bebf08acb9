//! A receive interrupt the NIC raises again on its own. The guest takes
//! the interrupt but its service routine leaves the frame in the ring (no
//! `RX_NEXT`), so each later poll boundary re-raises the line although
//! the port itself has nothing left to deliver. That re-raise is a device
//! event: the idle scheduler must not batch past it, and the block cache
//! must take it before the same instruction as the interpreter.

use rabbit::{assemble, Engine};
use rmc2000::nic::{CMD_ACCEPT, CYCLES_PER_US, NIC_CMD, NIC_IER, POLL_PERIOD_US};
use rmc2000::{Board, Nic, PortConn, RunOutcome, NIC_VECTOR};

const POLL_CYCLES: u64 = POLL_PERIOD_US * CYCLES_PER_US;
const PERIODS: u64 = 20;

/// Accepts the backlogged connection and enables the NIC interrupt, then
/// either parks in `halt` or spins on 30-instruction blocks. The service
/// routine counts its entries in DE and returns without draining.
fn firmware(spin: bool) -> String {
    let main = if spin {
        format!("main:\n{}        jr main\n", "        inc hl\n".repeat(30))
    } else {
        "main:   halt\n        jr main\n".to_string()
    };
    format!(
        "        org {NIC_VECTOR:#06x}\n\
         \x20       inc de\n\
         \x20       ipres\n\
         \x20       ret\n\
         \x20       org 0x4000\n\
         \x20       ld de, 0\n\
         \x20       ld hl, 0\n\
         \x20       ld a, {CMD_ACCEPT:#04x}\n\
         \x20       ioe ld ({NIC_CMD:#06x}), a\n\
         \x20       ld a, 1\n\
         \x20       ioe ld ({NIC_IER:#06x}), a\n\
         {main}"
    )
}

/// A board whose backlog holds one connection with ten readable bytes.
fn board(engine: Engine, spin: bool) -> Board {
    let mut board = Board::with_engine(engine);
    board.attach_nic(Nic::default());
    board.load(&assemble(&firmware(spin)).expect("firmware assembles"));
    board.set_pc(0x4000);
    let conn = PortConn {
        established: true,
        rx: b"ten bytes!".iter().copied().collect(),
        ..PortConn::default()
    };
    board.nic_port_mut().expect("nic attached").backlog.push_back(conn);
    board
}

/// ISR entries, NIC interrupts, cycles and instructions after the halting
/// firmware has spent `PERIODS` poll periods and a half mostly in `halt`,
/// waiting through `Board::idle` or `Board::idle_stepwise`.
fn halted_run(engine: Engine, stepwise: bool) -> (u16, u64, u64, u64) {
    let mut board = board(engine, false);
    let target = PERIODS * POLL_CYCLES + POLL_CYCLES / 2;
    while board.cpu.cycles < target {
        let left = target - board.cpu.cycles;
        if !board.cpu.halted {
            assert_ne!(board.run(left), RunOutcome::HandlerHalt);
        } else if stepwise {
            board.idle_stepwise(left);
        } else {
            board.idle(left);
        }
    }
    let irqs = board.nic().expect("nic attached").counters().irqs.get();
    (board.cpu.regs.de(), irqs, board.cpu.cycles, board.cpu.instructions)
}

#[test]
fn idle_batches_stop_where_the_line_is_raised_again() {
    let oracle = halted_run(Engine::Interpreter, true);
    assert_eq!(u64::from(oracle.0), PERIODS, "one ISR entry per poll: {oracle:?}");
    assert_eq!(oracle.1, PERIODS);
    for engine in [Engine::Interpreter, Engine::BlockCache] {
        assert_eq!(halted_run(engine, true), oracle, "{engine:?} stepwise");
        assert_eq!(halted_run(engine, false), oracle, "{engine:?} batched");
    }
}

/// DE, HL, PC, cycles and instructions after `PERIODS` fleet-sized
/// `Board::run` slices of the spinning firmware.
fn sliced_run(engine: Engine) -> (u16, u16, u16, u64, u64) {
    let mut board = board(engine, true);
    for _ in 0..PERIODS {
        assert_eq!(board.run(POLL_CYCLES), RunOutcome::BudgetExhausted);
    }
    let cpu = &board.cpu;
    (cpu.regs.de(), cpu.regs.hl(), cpu.regs.pc, cpu.cycles, cpu.instructions)
}

#[test]
fn a_spinning_guest_takes_the_raised_again_line_at_the_same_instruction() {
    let interp = sliced_run(Engine::Interpreter);
    assert_eq!(sliced_run(Engine::BlockCache), interp);
    // The first poll delivers the frame; every later one re-raises.
    assert_eq!(u64::from(interp.0), PERIODS, "one ISR entry per poll: {interp:?}");
}

//! Negative paths of the NIC register file, exercised from guest
//! firmware: commands against unopened handles, double `LISTEN`,
//! `RX_NEXT` on an empty queue, and an out-of-range `CONN` select are
//! deterministic no-ops that latch [`STATUS_ERR`] — and every observable
//! (recorded status bytes, error counters, cycle counts) is
//! byte-identical across both execution engines.
//!
//! The board runs as a one-board [`Fleet`]: its NIC meets the world only
//! through the port the scheduler exchanges at each epoch barrier.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{Ipv4, World};
use rabbit::{assemble, Engine};
use rmc2000::nic::{
    CMD_CLOSE, CMD_LISTEN, CMD_RX_NEXT, CMD_TX_GO, NIC_CMD, NIC_CONN, NIC_LPORT_HI, NIC_LPORT_LO,
    NIC_STATUS, STATUS_ERR,
};
use rmc2000::Fleet;

/// Where the firmware records the status byte observed after each step.
const RECORD: u16 = 0x8200;

/// Issues a fixed sequence of commands — one legal, five illegal — and
/// records the status register after each one.
fn firmware() -> String {
    let steps = [
        // Legal LISTEN (port halves are set up in the prologue).
        format!("        ld a, {CMD_LISTEN}\n        ioe ld ({NIC_CMD:#06x}), a\n"),
        // LISTEN while already listening.
        format!("        ld a, {CMD_LISTEN}\n        ioe ld ({NIC_CMD:#06x}), a\n"),
        // TX_GO on a handle that was never opened.
        format!("        ld a, {CMD_TX_GO}\n        ioe ld ({NIC_CMD:#06x}), a\n"),
        // RX_NEXT with an empty receive queue.
        format!("        ld a, {CMD_RX_NEXT}\n        ioe ld ({NIC_CMD:#06x}), a\n"),
        // Out-of-range CONN select.
        format!("        ld a, 7\n        ioe ld ({NIC_CONN:#06x}), a\n"),
        // CLOSE on an unopened handle.
        format!("        ld a, {CMD_CLOSE}\n        ioe ld ({NIC_CMD:#06x}), a\n"),
    ];
    let mut body = String::new();
    for (i, step) in steps.iter().enumerate() {
        body.push_str(step);
        body.push_str(&format!(
            "        ioe ld a, ({NIC_STATUS:#06x})\n        ld ({:#06x}), a\n",
            RECORD + i as u16
        ));
    }
    format!(
        "        org 0x4000\n\
         start:\n\
         \x20       ld a, 7\n\
         \x20       ioe ld ({NIC_LPORT_LO:#06x}), a\n\
         \x20       xor a\n\
         \x20       ioe ld ({NIC_LPORT_HI:#06x}), a\n\
         {body}\
         \x20       halt\n"
    )
}

struct Outcome {
    records: Vec<u8>,
    cycles: u64,
    cmd_errors: u64,
    snapshot: String,
}

/// Boots `src` on a one-board fleet and runs epochs until the firmware
/// halts for good (`halt` with interrupts off parks the board).
fn boot(engine: Engine, src: &str) -> (Rc<RefCell<World>>, Fleet) {
    let world = Rc::new(RefCell::new(World::new(42)));
    let mut fleet = Fleet::new(&world);
    let b = fleet.add_board(engine, "rmc2000", Ipv4::new(10, 0, 0, 1));
    let board = fleet.board_mut(b);
    board.load(&assemble(src).expect("firmware assembles"));
    board.set_pc(0x4000);
    for _ in 0..100 {
        fleet.run_epoch(&[b]);
        if fleet.all_parked() {
            return (world, fleet);
        }
    }
    panic!("firmware halts");
}

fn run(engine: Engine) -> Outcome {
    let (world, fleet) = boot(engine, &firmware());
    let board = fleet.board(0);
    let records = (0..6)
        .map(|i| board.mem.read_phys(rmc2000::load_phys(RECORD + i)))
        .collect();
    let cmd_errors = board.nic().expect("nic").counters().cmd_errors.get();
    let snapshot = world.borrow().telemetry().snapshot().to_text();
    Outcome {
        records,
        cycles: board.cpu.cycles,
        cmd_errors,
        snapshot,
    }
}

#[test]
fn illegal_commands_latch_the_error_bit() {
    let o = run(Engine::Interpreter);
    assert_eq!(o.records[0] & STATUS_ERR, 0, "first LISTEN is legal");
    for (i, r) in o.records.iter().enumerate().skip(1) {
        assert_eq!(
            r & STATUS_ERR,
            STATUS_ERR,
            "step {i} should error, status {r:#04x}"
        );
    }
    assert_eq!(o.cmd_errors, 5, "each illegal command counted once");
}

#[test]
fn successful_command_clears_a_previous_error() {
    // ERR is a last-command flag, not sticky: LISTEN after a failed
    // command reads back clean.
    let src = format!(
        "        org 0x4000\n\
         start:\n\
         \x20       ld a, {CMD_TX_GO}\n\
         \x20       ioe ld ({NIC_CMD:#06x}), a\n\
         \x20       ld a, 7\n\
         \x20       ioe ld ({NIC_LPORT_LO:#06x}), a\n\
         \x20       xor a\n\
         \x20       ioe ld ({NIC_LPORT_HI:#06x}), a\n\
         \x20       ld a, {CMD_LISTEN}\n\
         \x20       ioe ld ({NIC_CMD:#06x}), a\n\
         \x20       ioe ld a, ({NIC_STATUS:#06x})\n\
         \x20       ld ({RECORD:#06x}), a\n\
         \x20       halt\n"
    );
    let (_world, fleet) = boot(Engine::Interpreter, &src);
    let status = fleet.board(0).mem.read_phys(rmc2000::load_phys(RECORD));
    assert_eq!(status & STATUS_ERR, 0, "status {status:#04x}");
}

#[test]
fn both_engines_observe_identical_error_behaviour() {
    let a = run(Engine::Interpreter);
    let b = run(Engine::BlockCache);
    assert_eq!(a.records, b.records, "recorded status bytes");
    assert_eq!(a.cycles, b.cycles, "cycle counts");
    assert_eq!(a.cmd_errors, b.cmd_errors, "error counters");
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots");
}

//! A NIC interrupt that becomes pending strictly inside a run while the
//! guest is executing. The block-caching engine does not poll the bus
//! before every block: it ends a block at the bus's horizon (the next
//! device deadline, here the NIC's poll boundary) and samples there, so
//! the interrupt the NIC raises at that boundary is taken before the same
//! instruction on both engines.
//!
//! In a fleet this happens whenever a board's slices end off the epoch
//! grid, as they do after `Fleet::resurrect`; here two plain
//! `Board::run` calls (2,200 cycles, then 1,500) put the poll boundary at
//! cycle 3,000 inside the second one.

use rabbit::{assemble, Engine};
use rmc2000::nic::{CYCLES_PER_US, NIC_IER, POLL_PERIOD_US};
use rmc2000::{Board, Nic, PortConn, RunOutcome, NIC_VECTOR};

/// Enables the NIC interrupt, then counts in HL through 31-instruction
/// blocks. The service routine halts, so HL keeps the count at the
/// instant the interrupt was taken.
fn firmware() -> String {
    let spin = "        inc hl\n".repeat(30);
    format!(
        "        org {NIC_VECTOR:#06x}\n\
         \x20       halt\n\
         \x20       org 0x4000\n\
         \x20       ld a, 1\n\
         \x20       ioe ld ({NIC_IER:#06x}), a\n\
         \x20       ld hl, 0\n\
         spin:\n\
         {spin}\
         \x20       jr spin\n"
    )
}

/// HL, instructions and cycles at the ISR's `halt`.
fn taken_at(engine: Engine) -> (u16, u64, u64) {
    let mut board = Board::with_engine(engine);
    board.attach_nic(Nic::default());
    board.load(&assemble(&firmware()).expect("firmware assembles"));
    board.set_pc(0x4000);
    assert_eq!(board.run(2_200), RunOutcome::BudgetExhausted);
    assert!(!board.cpu.halted, "{engine:?}: no interrupt before cycle 3,000");
    // The connection arrives between the first poll boundary (cycle
    // 1,500) and the second (cycle 3,000). It is never accepted, so from
    // the next poll boundary on the NIC holds its interrupt.
    let port = board.nic_port_mut().expect("nic attached");
    port.backlog.push_back(PortConn::default());
    // Dispatch acknowledges the request, so the line stays low until the
    // next poll boundary and the run returns as soon as the ISR halts.
    assert_eq!(board.run(1_500), RunOutcome::Halted, "{engine:?}: the ISR ran");
    (board.cpu.regs.hl(), board.cpu.instructions, board.cpu.cycles)
}

#[test]
fn nic_interrupt_inside_a_run_is_taken_at_the_same_instruction() {
    let interp = taken_at(Engine::Interpreter);
    let block = taken_at(Engine::BlockCache);
    assert_eq!(interp, block);
    // Taken at the first instruction boundary at or past the poll (the
    // longest spin instruction is a 5-cycle `jr`), then 13 cycles of
    // dispatch and the ISR's 2-cycle `halt`.
    let poll = 2 * POLL_PERIOD_US * CYCLES_PER_US;
    assert!((poll + 15..poll + 20).contains(&interp.2), "halted at {}", interp.2);
}

//! E6 (paper §5.1): the serial debugging interface. Firmware configures
//! serial port A to interrupt on a received character; the ISR either
//! replies with a status message or resets the application, preserving
//! program state — the exact behaviour the paper describes, including the
//! register-level interrupt set-up it contrasts with Unix `signal()`.

use rabbit::assemble;
use rabbit::fwmap::load_phys;
use rmc2000::{Board, RunOutcome, SERIAL_A_VECTOR};

/// Firmware: main loop increments a heartbeat counter at 0x8000 forever.
/// ISR: reads the character; `s` transmits "OK\n" and a copy of the
/// heartbeat low byte; `r` restarts the main loop (application reset)
/// while keeping the heartbeat (state maintained across reset).
fn firmware() -> String {
    format!(
        "        org {SERIAL_A_VECTOR:#06x}\n\
         isr:    push af\n\
                 push hl\n\
                 ioi ld a, (0xC0)       ; read SADR\n\
                 cp 's'\n\
                 jr nz, not_status\n\
                 ld a, 'O'\n\
                 ioi ld (0xC0), a\n\
                 ld a, 'K'\n\
                 ioi ld (0xC0), a\n\
                 ld a, (0x8000)         ; heartbeat low byte\n\
                 ioi ld (0xC0), a\n\
                 jr isr_out\n\
         not_status:\n\
                 cp 'r'\n\
                 jr nz, isr_out\n\
                 ld a, 1\n\
                 ld (0x8002), a         ; reset-request flag\n\
         isr_out:\n\
                 pop hl\n\
                 pop af\n\
                 reti\n\
                 \n\
                 org 0x4000\n\
         start:  ld a, 0\n\
                 ld (0x8002), a         ; clear reset flag (heartbeat kept)\n\
                 ld a, 1\n\
                 ioi ld (0xC4), a       ; SACR: enable rx interrupt\n\
         spin:   ld hl, (0x8000)\n\
                 inc hl\n\
                 ld (0x8000), hl\n\
                 ld a, (0x8002)\n\
                 or a\n\
                 jr z, spin\n\
                 ; application reset: back to start, state maintained\n\
                 ld hl, (0x8004)\n\
                 inc hl\n\
                 ld (0x8004), hl        ; count application resets\n\
                 jp start\n"
    )
}

fn boot() -> Board {
    let image = assemble(&firmware()).expect("firmware assembles");
    let mut board = Board::new();
    board.load(&image);
    board.set_pc(0x4000);
    board
}

fn heartbeat(board: &Board) -> u16 {
    let lo = board.mem.read_phys(load_phys(0x8000));
    let hi = board.mem.read_phys(load_phys(0x8001));
    u16::from_le_bytes([lo, hi])
}

#[test]
fn status_request_interrupts_and_replies() {
    let mut board = boot();
    // Let the main loop run a while.
    assert_eq!(board.run(20_000), RunOutcome::BudgetExhausted);
    let hb_before = heartbeat(&board);
    assert!(hb_before > 0, "main loop is alive");

    // Host sends 's' over the serial line.
    board.serial_mut().inject(b's');
    assert!(
        board.run_until(100_000, |b| b.serial().transmitted().len() >= 3),
        "ISR replied"
    );
    let tx = board.serial().transmitted().to_vec();
    assert_eq!(&tx[..2], b"OK");
    // Third byte is the heartbeat snapshot — close to the live counter.
    assert_eq!(tx[2], ((heartbeat(&board) & 0xFF) as u8));

    // Main loop keeps running afterwards (reti restored everything).
    let hb_mid = heartbeat(&board);
    board.run(20_000);
    assert!(heartbeat(&board) > hb_mid, "main loop resumed after ISR");
}

#[test]
fn reset_request_restarts_application_keeping_state() {
    let mut board = boot();
    board.run(20_000);
    let hb_before = heartbeat(&board);

    board.serial_mut().inject(b'r');
    let reset_count_addr = load_phys(0x8004);
    assert!(
        board.run_until(200_000, |b| b.mem.read_phys(reset_count_addr) == 1),
        "application reset performed"
    );
    // The heartbeat survived the reset ("possibly maintaining program
    // state"): it keeps counting from where it was, not from zero.
    board.run(20_000);
    assert!(
        heartbeat(&board) > hb_before,
        "state maintained across reset"
    );
    assert_eq!(
        board.serial().transmitted(),
        b"",
        "no status reply for reset"
    );
}

#[test]
fn other_characters_are_ignored() {
    let mut board = boot();
    board.run(10_000);
    board.serial_mut().inject(b'x');
    board.run(50_000);
    assert!(board.serial().transmitted().is_empty());
    let hb = heartbeat(&board);
    board.run(10_000);
    assert!(heartbeat(&board) > hb, "main loop unaffected");
}

/// The serial ISR must never nest: it runs at priority 1, the same level
/// serial A requests at, so a character arriving *during* the ISR raises
/// a request that cannot preempt it — the second dispatch waits until
/// `reti` drops the priority back down.
#[test]
fn isr_does_not_reenter_but_request_redelivers() {
    let image = assemble(
        "        org 0x00E0\n\
         isr:    push af\n\
                 push hl\n\
                 ld a, (0x8010)\n\
                 inc a\n\
                 ld (0x8010), a         ; live ISR depth\n\
                 ld hl, 0x8011\n\
                 cp (hl)\n\
                 jr c, depth_ok\n\
                 ld (hl), a             ; record max depth\n\
         depth_ok:\n\
                 ld b, 20\n\
         stall:  djnz stall             ; dwell with the request pending\n\
                 ioi ld a, (0xC0)       ; drain one character\n\
                 ld a, (0x8012)\n\
                 inc a\n\
                 ld (0x8012), a         ; ISR invocation count\n\
                 ld a, (0x8010)\n\
                 dec a\n\
                 ld (0x8010), a\n\
                 pop hl\n\
                 pop af\n\
                 reti\n\
                 \n\
                 org 0x4000\n\
         start:  ld a, 1\n\
                 ioi ld (0xC4), a       ; SACR: enable rx interrupt\n\
         spin:   jr spin\n",
    )
    .expect("assembles");
    let mut board = Board::new();
    board.load(&image);
    board.set_pc(0x4000);
    board.run(5_000);

    // First character arrives; step until the CPU is inside the ISR's
    // stall loop...
    board.serial_mut().inject(b'a');
    assert!(
        board.run_until(200_000, |b| (0x00E0..0x0110).contains(&b.cpu.regs.pc)),
        "entered the ISR"
    );
    // ...then a second character arrives mid-ISR. Its request is raised
    // immediately but must not preempt the running priority-1 handler.
    board.serial_mut().inject(b'b');
    let isr_count = load_phys(0x8012);
    assert!(
        board.run_until(200_000, |b| b.mem.read_phys(isr_count) == 2),
        "ISR serviced both characters"
    );
    let max_depth = board.mem.read_phys(load_phys(0x8011));
    assert_eq!(max_depth, 1, "ISR never re-entered (priority masking)");
}

#[test]
fn unhandled_faults_are_ignored_per_the_paper() {
    // "Because our application was not designed for high reliability, we
    // simply ignored most errors."
    let image = assemble(
        "        org 0x4000\n\
                 ld b, 7\n\
                 db 0xC7                ; not a Rabbit opcode -> fault\n\
                 ld a, 9\n\
                 halt\n",
    )
    .unwrap();
    let mut board = Board::new();
    board.load(&image);
    board.set_pc(0x4000);
    assert_eq!(board.run(10_000), RunOutcome::Halted);
    assert_eq!(board.cpu.regs.a, 9, "execution continued past the fault");
    assert_eq!(board.errors.raised().len(), 1);
}

#[test]
fn error_handler_can_demand_reset() {
    let image = assemble(
        "        org 0x4000\n\
                 db 0xC7\n\
                 halt\n",
    )
    .unwrap();
    let mut board = Board::new();
    board.load(&image);
    board.set_pc(0x4000);
    board.errors.define(|_| dynamicc::Disposition::Reset);
    // After the reset, PC = 0 which holds erased flash (0xFF = invalid) —
    // the handler fires repeatedly; bound the run.
    board.run(1_000);
    assert!(board.resets >= 1);
}

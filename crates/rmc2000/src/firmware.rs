//! Guest firmware building blocks for the NIC: assembly shims
//! (`nic_accept`, `nic_close`, `nic_send`, `nic_recv`) and the body of an
//! echo interrupt service routine, which hand-assembled test firmware
//! composes with its own prologue (the idle differential test does).
//!
//! The shims are the assembly the paper's Dynamic C library calls would
//! compile to: explicit `ioe`-prefixed loads and stores against the NIC's
//! register bank and packet windows (see [`crate::nic`] for the map).
//! The `dcc` compiler emits the same sequences for its `nic_*`
//! intrinsics, from the same [`rabbit::nicmap`] constants.

use crate::nic::{
    CMD_ACCEPT, CMD_CLOSE, CMD_RX_NEXT, CMD_TX_GO, NIC_CMD, NIC_CONN, NIC_IER, NIC_LPORT_HI,
    NIC_LPORT_LO, NIC_RXLEN_HI, NIC_RXLEN_LO, NIC_RX_WINDOW, NIC_STATUS, NIC_TXLEN_HI,
    NIC_TXLEN_LO, NIC_TX_WINDOW, STATUS_ACCEPT_READY, STATUS_PEER_CLOSED, STATUS_RX_AVAIL,
    STATUS_TX_READY,
};

/// Default scratch buffer the echo ISR bounces frames through (root
/// data segment → SRAM).
pub const ECHO_BUF: u16 = 0x9000;

/// `equ` definitions for the NIC register map, shared by every shim.
pub fn nic_equates() -> String {
    format!(
        "NICCMD  equ {NIC_CMD:#06x}\n\
         NICST   equ {NIC_STATUS:#06x}\n\
         NICIER  equ {NIC_IER:#06x}\n\
         NICRXL  equ {NIC_RXLEN_LO:#06x}\n\
         NICRXH  equ {NIC_RXLEN_HI:#06x}\n\
         NICTXL  equ {NIC_TXLEN_LO:#06x}\n\
         NICTXH  equ {NIC_TXLEN_HI:#06x}\n\
         NICPRTL equ {NIC_LPORT_LO:#06x}\n\
         NICPRTH equ {NIC_LPORT_HI:#06x}\n\
         NICCONN equ {NIC_CONN:#06x}\n\
         NICRXW  equ {NIC_RX_WINDOW:#06x}\n\
         NICTXW  equ {NIC_TX_WINDOW:#06x}\n"
    )
}

/// The NIC subroutines.
///
/// * `nic_accept`: selects connection handle `A` and binds the next
///   pending connection to it (`ACCEPT`). Clobbers `A`.
/// * `nic_close`: selects handle `A` and closes it. Clobbers `A`.
/// * `nic_recv`: copies the *selected* handle's receive frame to the
///   buffer at `DE` and consumes it (`RX_NEXT`). Returns the length in
///   `BC` (0 when no frame was pending, in which case no `RX_NEXT` is
///   issued). Clobbers `A`, `HL`, `DE`.
/// * `nic_send`: transmits `BC` bytes starting at `HL` on the selected
///   handle (staged through the tx window, then `TX_GO`). Clobbers `A`,
///   `HL`, `DE`, `BC`.
///
/// `nic_accept`/`nic_close` leave handle `A` selected, so the usual
/// sequence — select, then recv/send — needs no extra `CONN` write.
pub fn nic_shims() -> String {
    format!(
        "nic_accept:\n\
         \x20       ioe ld (NICCONN), a\n\
         \x20       ld a, {CMD_ACCEPT}\n\
         \x20       ioe ld (NICCMD), a\n\
         \x20       ret\n\
         \n\
         nic_close:\n\
         \x20       ioe ld (NICCONN), a\n\
         \x20       ld a, {CMD_CLOSE}\n\
         \x20       ioe ld (NICCMD), a\n\
         \x20       ret\n\
         \n\
         nic_recv:\n\
         \x20       ioe ld a, (NICRXL)\n\
         \x20       ld c, a\n\
         \x20       ioe ld a, (NICRXH)\n\
         \x20       ld b, a\n\
         \x20       ld a, b\n\
         \x20       or c\n\
         \x20       jr z, nr_done\n\
         \x20       push bc\n\
         \x20       ld hl, NICRXW\n\
         nr_loop:\n\
         \x20       ioe ld a, (hl)\n\
         \x20       ld (de), a\n\
         \x20       inc hl\n\
         \x20       inc de\n\
         \x20       dec bc\n\
         \x20       ld a, b\n\
         \x20       or c\n\
         \x20       jr nz, nr_loop\n\
         \x20       pop bc\n\
         \x20       ld a, {CMD_RX_NEXT}\n\
         \x20       ioe ld (NICCMD), a\n\
         nr_done:\n\
         \x20       ret\n\
         \n\
         nic_send:\n\
         \x20       ld a, c\n\
         \x20       ioe ld (NICTXL), a\n\
         \x20       ld a, b\n\
         \x20       ioe ld (NICTXH), a\n\
         \x20       ld a, b\n\
         \x20       or c\n\
         \x20       jr z, ns_go\n\
         \x20       ld de, NICTXW\n\
         ns_loop:\n\
         \x20       ld a, (hl)\n\
         \x20       ioe ld (de), a\n\
         \x20       inc hl\n\
         \x20       inc de\n\
         \x20       dec bc\n\
         \x20       ld a, b\n\
         \x20       or c\n\
         \x20       jr nz, ns_loop\n\
         ns_go:\n\
         \x20       ld a, {CMD_TX_GO}\n\
         \x20       ioe ld (NICCMD), a\n\
         \x20       ret\n"
    )
}

/// The body of the reference NIC service routine (between the register
/// save and restore): a drain-everything loop over the three interrupt
/// causes on connection handle 0 — bind a pending connection when the
/// handle is free, echo every received frame through the scratch buffer
/// at [`ECHO_BUF`], and close the handle once the peer has gone and the
/// queue is drained. Firmware adds its own register save/restore and
/// `reti` around it (the idle differential test also adds a serial
/// ISR).
///
/// The loop processes *all* interrupt causes before returning, so
/// interrupt delivery only ever happens against a halted CPU or at the
/// `reti` boundary — the two points both execution engines sample
/// identically.
pub fn nic_isr_body() -> String {
    format!(
        "isr_loop:\n\
         \x20       ioe ld a, (NICST)\n\
         \x20       ld b, a\n\
         \x20       and {STATUS_ACCEPT_READY}\n\
         \x20       jr z, isr_rx\n\
         \x20       ld a, b\n\
         \x20       and {STATUS_TX_READY}\n\
         \x20       jr nz, isr_rx\n\
         \x20       xor a\n\
         \x20       call nic_accept\n\
         \x20       jr isr_loop\n\
         isr_rx:\n\
         \x20       ld a, b\n\
         \x20       and {STATUS_RX_AVAIL}\n\
         \x20       jr z, isr_close\n\
         \x20       ld de, {ECHO_BUF:#06x}\n\
         \x20       call nic_recv\n\
         \x20       ld hl, {ECHO_BUF:#06x}\n\
         \x20       call nic_send\n\
         \x20       jr isr_loop\n\
         isr_close:\n\
         \x20       ld a, b\n\
         \x20       and {STATUS_PEER_CLOSED}\n\
         \x20       jr z, isr_done\n\
         \x20       ld a, b\n\
         \x20       and {STATUS_TX_READY}\n\
         \x20       jr z, isr_done\n\
         \x20       xor a\n\
         \x20       call nic_close\n\
         \x20       jr isr_loop\n\
         isr_done:\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shims_assemble_standalone() {
        let src = format!("{}        org 0x4000\n{}", nic_equates(), nic_shims());
        rabbit::assemble(&src).expect("shims assemble");
    }
}

//! The plaintext echo server in *compiled C*: the whole pipeline of the
//! paper — C source → `dcc` compiler → Rabbit assembly → board → NIC
//! register file → netsim TCP — serving several concurrent host-side
//! clients at once.
//!
//! The server is written in the Dynamic C subset (`nic.h`-style
//! intrinsics, `interrupt` service routines) and drives
//! [`rabbit::nicmap::MAX_CONNS`] connection handles concurrently, with a
//! serial-console status line as a second, higher-priority interrupt
//! source. [`crate::fleet_serve`] runs it as
//! [`crate::FleetFirmware::PlainEcho`]; everything observable —
//! per-client transcripts, cycle counts, serial output, telemetry — is
//! byte-identical across the interpreter and block-cache engines.

use rabbit::nicmap::{
    MAX_CONNS, STATUS_ACCEPT_READY, STATUS_ERR, STATUS_PEER_CLOSED, STATUS_RX_AVAIL,
    STATUS_TX_READY,
};

use crate::nic::NIC_VECTOR;
use crate::serial::SERIAL_A_VECTOR;

/// TCP port the C server listens on.
pub const SERVE_PORT: u16 = 7;

/// The probe byte the host console sends; the guest answers each one
/// with a status line `S<open-handles>\n`.
pub const SERIAL_PROBE: u8 = b'?';

/// The round-robin echo server, in the Dynamic C subset.
///
/// The NIC service routine drains *every* pending cause across all
/// connection handles before returning — accept while a handle is free,
/// echo every queued frame, close once the peer is gone and the queue is
/// drained — so interrupt delivery only ever happens against a halted
/// CPU or at the `reti` boundary, the two points both execution engines
/// sample identically. The serial routine runs at priority 2 (console
/// preempts the NIC) and answers each probe byte with `S<n>\n` where `n`
/// is the number of open handles the NIC routine last counted.
pub fn echo_server_c(port: u16) -> String {
    format!(
        "root char buf[1024];\n\
         int nopen;\n\
         int naccepts;\n\
         \n\
         interrupt void nic_isr() {{\n\
             int st;\n\
             int h;\n\
             int n;\n\
             int again;\n\
             again = 1;\n\
             while (again) {{\n\
                 again = 0;\n\
                 for (h = 0; h < {conns}; h = h + 1) {{\n\
                     st = nic_conn(h);\n\
                     if ((st & {acc}) && !(st & {open})) {{\n\
                         st = nic_accept(h);\n\
                         if (!(st & {err})) naccepts = naccepts + 1;\n\
                         again = 1;\n\
                         st = nic_conn(h);\n\
                     }}\n\
                     if (st & {rx}) {{\n\
                         n = nic_recv(h, buf);\n\
                         nic_send(h, buf, n);\n\
                         again = 1;\n\
                     }}\n\
                     if ((st & {open}) && (st & {gone}) && !(st & {rx})) {{\n\
                         nic_close(h);\n\
                         again = 1;\n\
                     }}\n\
                 }}\n\
             }}\n\
             n = 0;\n\
             for (h = 0; h < {conns}; h = h + 1) {{\n\
                 if (nic_conn(h) & {open}) n = n + 1;\n\
             }}\n\
             nopen = n;\n\
         }}\n\
         \n\
         interrupt void ser_isr() {{\n\
             while (serial_status() & 0x80) {{\n\
                 serial_getc();\n\
                 serial_putc(83);\n\
                 serial_putc(48 + nopen);\n\
                 serial_putc(10);\n\
             }}\n\
         }}\n\
         \n\
         int main() {{\n\
             serial_init(2);\n\
             nic_listen({port});\n\
             nic_ier(1);\n\
             idle();\n\
             return 0;\n\
         }}\n",
        conns = MAX_CONNS,
        acc = STATUS_ACCEPT_READY,
        open = STATUS_TX_READY,
        err = STATUS_ERR,
        rx = STATUS_RX_AVAIL,
        gone = STATUS_PEER_CLOSED,
    )
}

/// Compiles [`echo_server_c`] with the in-tree `dcc` compiler, vectoring
/// the NIC and serial interrupts into its two `interrupt` functions.
///
/// # Panics
///
/// If the C source fails to compile or assemble (a compiler bug).
pub fn build_serve_firmware(opts: dcc::Options) -> dcc::Build {
    dcc::build_firmware(
        &echo_server_c(SERVE_PORT),
        opts,
        &[(SERIAL_A_VECTOR, "ser_isr"), (NIC_VECTOR, "nic_isr")],
    )
    .expect("C echo server compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fleet_serve, FleetFirmware, FleetSpec, GuestClient};
    use rabbit::Engine;

    #[test]
    fn c_server_compiles_under_both_option_sets() {
        for opts in [dcc::Options::baseline(), dcc::Options::all_optimizations()] {
            let build = build_serve_firmware(opts);
            assert!(build.symbol_phys("_nic_isr").is_some());
            assert!(build.symbol_phys("_ser_isr").is_some());
            assert!(
                build
                    .image
                    .sections
                    .iter()
                    .any(|s| s.addr == NIC_VECTOR && s.bytes[0] == 0xC3),
                "NIC vector holds a jp"
            );
            assert!(
                build
                    .image
                    .sections
                    .iter()
                    .any(|s| s.addr == SERIAL_A_VECTOR && s.bytes[0] == 0xC3),
                "serial vector holds a jp"
            );
        }
    }

    #[test]
    fn serves_one_client_end_to_end() {
        let mut spec = FleetSpec::new(
            Engine::Interpreter,
            1,
            b"",
            vec![GuestClient::Plain {
                messages: vec![b"hello board".to_vec()],
            }],
        );
        spec.firmware = FleetFirmware::PlainEcho;
        let r = fleet_serve(&spec);
        assert_eq!(r.outcomes[0].echoed, b"hello board".to_vec());
        assert_eq!(r.boards[0].accepts, 1);
        assert_eq!(r.boards[0].open, 0, "teardown closed the handle");
    }
}

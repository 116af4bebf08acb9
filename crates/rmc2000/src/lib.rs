//! A model of the **RMC2000 TCP/IP Development Kit**: the Rabbit 2000 CPU
//! with 512 KiB flash and 128 KiB SRAM behind a device bus that carries
//! serial port A (receive interrupts — the paper's §5.1 debugging
//! channel), a free-running real-time clock, and a port-mapped NIC that
//! meets a `netsim` host through a plain-data port, plus
//! `defineErrorHandler`-style fault dispatch.
//!
//! Two network paths exist in the repo, at different levels of the stack:
//! `sockets::dynic` models the kit's TCP/IP *API* for host-compiled
//! firmware logic, while this crate runs *guest instructions* against the
//! simulated network — the [`nic::Nic`] device converts executed cycles
//! to virtual microseconds and serves TCP through `ioe`-mapped packet
//! windows. The [`fleet::Fleet`] scheduler owns the `netsim` world's
//! clock, advances every board in lockstep epochs and exchanges each
//! NIC's port at the barrier, so boards and network share one
//! deterministic timeline. [`Serve`] (run whole by [`fleet_serve`]) is
//! the one serving driver: compiled-C firmware ([`serve`], [`secure`]) on
//! one or more boards behind a load balancer, against host-side clients.
//!
//! ```
//! use rmc2000::{Board, RunOutcome};
//! use rabbit::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble("        org 0x4000\n        ld a, 0x42\n        halt\n")?;
//! let mut board = Board::new();
//! board.load(&image);
//! board.set_pc(0x4000);
//! assert_eq!(board.run(10_000), RunOutcome::Halted);
//! assert_eq!(board.cpu.regs.a, 0x42);
//! # Ok(())
//! # }
//! ```

pub mod board;
pub mod faults;
pub mod firmware;
pub mod fleet;
pub mod nic;
mod pool;
pub mod secure;
pub mod serial;
pub mod serve;

pub use board::{Board, BoardCounters, Rtc, RunOutcome};
pub use faults::{AppliedFault, FaultEvent, FaultPlan, FaultReport, ScheduledFault};
pub use fleet::{
    fleet_serve, BackendStats, BoardReport, BoardState, Fleet, FleetFirmware, FleetRun, FleetSpec,
    LbPolicy, Serve, ServePhase, EPOCH_CYCLES, EPOCH_US,
};
pub use nic::{Nic, NicCounters, NicPort, PortCmd, PortConn, NIC_VECTOR};
pub use secure::{
    build_secure_firmware, ClientOutcome, ConnCounters, GuestClient, Tamper, ALERT_KIND_LABELS,
    SECURE_PORT,
};
pub use serial::{SerialPort, SERIAL_A_VECTOR};
pub use serve::SERVE_PORT;

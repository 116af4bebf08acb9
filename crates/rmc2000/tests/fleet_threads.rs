//! No thread outlives a fleet run. The fleet starts its worker pool on
//! its first parallel epoch and joins it when it drops, so between two
//! `fleet_serve` calls (when a benchmark times its firmware builds) no
//! worker exists to spin on a core, whether the run returned or
//! panicked.
//!
//! One test in this binary, so the harness runs nothing beside it and
//! the thread count is this test's alone.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use netsim::{Ipv4, World};
use rabbit::Engine;
use rmc2000::{fleet_serve, Fleet, FleetSpec, GuestClient};

/// This process's thread count (`Threads:` in `/proc/self/status`).
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn no_worker_thread_outlives_a_fleet_run() {
    const PSK: &[u8] = b"rmc2000 shared secret";
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism = {cores}");
    let before = threads();

    // Eight secure handshakes at once keep every board runnable.
    let clients = (0..8)
        .map(|i| GuestClient::secure(&[format!("threads {i}").as_bytes()], PSK))
        .collect();
    let run = fleet_serve(&FleetSpec::new(Engine::BlockCache, 8, PSK, clients));
    assert!(run.outcomes.iter().all(|o| o.established && o.error.is_none()));
    assert_eq!(threads(), before, "after a run that returned");

    // Four boards keep busy; after ~170 epochs board 3 runs into an
    // invalid opcode, its handler halts, and the epoch re-raises that on
    // this thread.
    let mut during = before;
    let failed = panic::catch_unwind(AssertUnwindSafe(|| {
        let world = Rc::new(RefCell::new(World::new(7)));
        let mut fleet = Fleet::new(&world);
        for i in 0..4u8 {
            let b = fleet.add_board(Engine::BlockCache, "spin", Ipv4::new(10, 0, 1, i + 1));
            let board = fleet.board_mut(b);
            board.mem.load(0x4000, BUSY_THEN_FAULT);
            board.set_pc(if i == 3 { 0x4000 } else { 0x400A });
        }
        fleet.board(3).errors.define(|_| dynamicc::Disposition::Halt);
        for epoch in 0..1_000 {
            fleet.run_epoch(&[0, 1, 2, 3]);
            if epoch == 100 {
                during = threads();
            }
        }
    }));
    let payload = failed.expect_err("board 3's firmware stops");
    let msg = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(msg.starts_with("board 3 firmware stopped"), "{msg}");
    assert_eq!(during, before + cores - 1, "the pool ran beside this thread");
    assert_eq!(threads(), before, "after a run that panicked");
}

/// At 0x4000, ~258k cycles of nested `djnz` loops, then an invalid
/// opcode; at 0x400A, `jr $`.
const BUSY_THEN_FAULT: &[u8] = &[
    0x0E, 0xC8, // ld c,200
    0x06, 0x00, // outer: ld b,0
    0x10, 0xFE, // inner: djnz inner
    0x0D, // dec c
    0x20, 0xF9, // jr nz,outer
    0xC7, // invalid
    0x18, 0xFE, // jr $
];

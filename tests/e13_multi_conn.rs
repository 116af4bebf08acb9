//! E13: three concurrent TCP connections served by *compiled C* firmware
//! — the full pipeline of the paper (C source → `dcc` → Rabbit assembly
//! → board → NIC register file → netsim), with a serial status console
//! as a second, higher-priority interrupt source under network load.
//!
//! The paper's port (§5.3) capped the service at three simultaneous
//! connections, one costatement each; the board-level reproduction gives
//! the NIC three connection handles and lets a C round-robin ISR
//! multiplex them. Everything observable must be byte-identical across
//! the interpreter and block-cache execution engines.

use rabbit::Engine;
use rmc2000::{fleet_serve, FleetFirmware, FleetRun, FleetSpec, GuestClient};

fn workload() -> Vec<Vec<Vec<u8>>> {
    (0..3)
        .map(|i| {
            (0..4)
                .map(|j| {
                    let len = 40 + 30 * i + 7 * j;
                    (0..len).map(|k| (i * 64 + j * 16 + k) as u8).collect()
                })
                .collect()
        })
        .collect()
}

/// The workload on a one-board fleet: every client dials at once, with
/// a console probe every 500 µs.
fn run(engine: Engine) -> FleetRun {
    let clients = workload()
        .into_iter()
        .map(|messages| GuestClient::Plain { messages })
        .collect();
    let mut spec = FleetSpec::new(engine, 1, b"", clients);
    spec.firmware = FleetFirmware::PlainEcho;
    spec.probe_gap_us = Some(500);
    fleet_serve(&spec)
}

#[test]
fn three_clients_echo_through_compiled_c_firmware() {
    let r = run(Engine::BlockCache);
    for (i, (sent, got)) in workload().iter().zip(&r.outcomes).enumerate() {
        assert_eq!(sent.concat(), got.echoed, "client {i} transcript");
    }
    assert_eq!(
        r.backends[0].peak_inflight, 3,
        "all three handles served at once"
    );
    assert_eq!(r.boards[0].accepts, 3, "guest counted one accept per client");
    assert_eq!(r.boards[0].open, 0, "teardown closed every handle");
}

#[test]
fn serial_console_reports_status_under_network_load() {
    let r = run(Engine::BlockCache);
    let text = r.boards[0].serial_tx.clone();
    assert!(!text.is_empty(), "probes produced status lines");
    assert_eq!(text.len() % 3, 0, "whole S<n>\\n lines only");
    let mut max_open = 0u8;
    for line in text.chunks(3) {
        assert_eq!(line[0], b'S', "line shape: {line:?}");
        assert!(line[1].is_ascii_digit(), "line shape: {line:?}");
        assert_eq!(line[2], b'\n', "line shape: {line:?}");
        max_open = max_open.max(line[1] - b'0');
    }
    assert!(
        max_open >= 2,
        "console observed concurrent connections, saw max {max_open}"
    );
}

#[test]
fn per_handle_telemetry_attributes_the_traffic() {
    let r = run(Engine::BlockCache);
    for h in 0..3 {
        assert!(
            r.snapshot
                .contains(&format!("board0.net.board.conn.accepts{{conn=\"{h}\"}}")),
            "per-handle accepts counter for handle {h}:\n{}",
            r.snapshot
        );
    }
    // Every byte the clients sent shows up in some handle's rx counter.
    let sent_total: usize = workload().iter().flatten().map(Vec::len).sum();
    let rx_total: u64 = r
        .snapshot
        .lines()
        .filter(|l| l.starts_with("board0.net.board.conn.rx_bytes"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum();
    assert_eq!(rx_total, sent_total as u64, "snapshot:\n{}", r.snapshot);
}

#[test]
fn engines_agree_byte_for_byte() {
    let a = run(Engine::Interpreter);
    let b = run(Engine::BlockCache);
    let (x, y) = (&a.boards[0], &b.boards[0]);
    assert_eq!(x.cycles, y.cycles, "cycle counts");
    assert_eq!(x.instructions, y.instructions, "instruction counts");
    assert_eq!(a.virtual_us, b.virtual_us, "virtual clocks");
    assert_eq!(a.outcomes, b.outcomes, "client transcripts");
    assert_eq!(x.serial_tx, y.serial_tx, "serial console output");
    assert_eq!(a.backends, b.backends, "peak concurrency");
    assert_eq!(x.accepts, y.accepts);
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots");
}

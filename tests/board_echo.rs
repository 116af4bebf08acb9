//! End-to-end guest firmware serving: the compiled-C echo server on a
//! one-board fleet answers TCP traffic from a host-side `netsim` client
//! through the balancer, and the whole session — transcript, guest
//! cycles, virtual time, telemetry — is byte-identical under
//! `Engine::Interpreter` and `Engine::BlockCache`.

use rabbit::Engine;
use rmc2000::{fleet_serve, FleetFirmware, FleetRun, FleetSpec, GuestClient};

fn messages() -> Vec<Vec<u8>> {
    vec![
        b"hello rmc2000".to_vec(),
        b"0123456789abcdef".to_vec(),
        // A payload long enough to span several TCP segments.
        vec![0x5A; 300],
        b"!".to_vec(),
    ]
}

fn expected() -> Vec<u8> {
    messages().concat()
}

fn run(engine: Engine) -> FleetRun {
    let clients = vec![GuestClient::Plain {
        messages: messages(),
    }];
    let mut spec = FleetSpec::new(engine, 1, b"", clients);
    spec.firmware = FleetFirmware::PlainEcho;
    fleet_serve(&spec)
}

/// The value of the unlabelled counter `name` in a text snapshot.
fn counter(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("snapshot lacks {name}:\n{snapshot}"))
}

#[test]
fn guest_firmware_echoes_tcp_traffic() {
    let run = run(Engine::BlockCache);
    assert_eq!(run.outcomes[0].echoed, expected(), "echo transcript");
    assert!(
        counter(&run.snapshot, "board0.net.board.rx_frames") > 0,
        "guest received frames"
    );
    assert!(
        counter(&run.snapshot, "board0.net.board.tx_frames") > 0,
        "guest transmitted frames"
    );
    assert!(run.virtual_us > 0, "virtual time advanced");
}

#[test]
fn engines_agree_byte_for_byte() {
    let interp = run(Engine::Interpreter);
    let block = run(Engine::BlockCache);

    assert_eq!(
        interp.outcomes[0].echoed,
        expected(),
        "interpreter transcript"
    );
    assert_eq!(
        block.outcomes[0].echoed,
        expected(),
        "block-cache transcript"
    );
    assert_eq!(
        interp.boards[0].cycles, block.boards[0].cycles,
        "guest cycle counts"
    );
    assert_eq!(interp.virtual_us, block.virtual_us, "virtual clocks");
    // The full telemetry snapshot (world packet counters, NIC counters)
    // is part of the determinism contract.
    assert_eq!(interp.snapshot, block.snapshot, "telemetry snapshots");
}

#[test]
fn nic_counters_reach_the_world_registry() {
    let FleetRun { snapshot, .. } = run(Engine::BlockCache);
    for name in [
        "board0.net.board.rx_frames",
        "board0.net.board.rx_bytes",
        "board0.net.board.tx_frames",
        "board0.net.board.tx_bytes",
        "board0.net.board.irqs",
        // The board's idle-scheduler counters land in the same registry,
        // so `engines_agree_byte_for_byte`'s snapshot comparison covers
        // them too.
        "board0.board.idle_cycles",
        "board0.board.skip_batches",
    ] {
        assert!(
            snapshot.contains(name),
            "snapshot should carry {name}:\n{snapshot}"
        );
    }
    // And the world's own stack counters sit alongside them.
    assert!(snapshot.contains("net.tcp"), "world counters present");
    // One naming scheme: no board counter under an unprefixed key.
    for line in snapshot.lines() {
        assert!(
            !line.starts_with("net.board.") && !line.starts_with("board."),
            "unprefixed board key: {line}"
        );
    }
}

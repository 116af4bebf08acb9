//! E14: the issl record layer served from compiled-C firmware. A host
//! `issl` client machine completes the PSK handshake and echoes
//! plaintext through AES-128-CBC + HMAC-SHA1 records against a server
//! that exists only as guest instructions — C compiled by `dcc`, AES
//! rounds in hand assembly, all driven by the E13 round-robin loop.

use rabbit::Engine;
use rmc2000::{fleet_serve, FleetRun, FleetSpec, GuestClient};

const PSK: &[u8] = b"rmc2000 shared secret";

/// The mixed E14 workload: one secure session and two plaintext echo
/// sessions sharing the three NIC handles. The plaintext payloads are
/// ASCII, so the guest's first-byte sniff never mistakes them for a
/// ClientHello.
fn mixed_workload() -> Vec<GuestClient> {
    vec![
        GuestClient::secure(&[b"attack at dawn", b"hold position"], PSK),
        GuestClient::Plain {
            messages: vec![b"plain one".to_vec(), b"plain two, longer".to_vec()],
        },
        GuestClient::Plain {
            messages: vec![b"interleaved cleartext traffic".to_vec()],
        },
    ]
}

/// `clients` against one secure board, all dialing at once.
fn spec(engine: Engine, clients: &[GuestClient], probe_gap_us: Option<u64>) -> FleetSpec {
    let mut spec = FleetSpec::new(engine, 1, PSK, clients.to_vec());
    spec.probe_gap_us = probe_gap_us;
    spec
}

fn run(engine: Engine, clients: &[GuestClient], probe_gap_us: Option<u64>) -> FleetRun {
    fleet_serve(&spec(engine, clients, probe_gap_us))
}

/// One well-behaved secure client: full handshake, every message
/// echoed through the encrypted channel, orderly close.
#[test]
fn secure_echo_round_trips_through_compiled_c_firmware() {
    let messages: Vec<Vec<u8>> = vec![
        b"secure echo!".to_vec(),
        (0..64).collect(),
        b"x".to_vec(),
    ];
    let clients = [GuestClient::Secure {
        messages: messages.clone(),
        psk: PSK.to_vec(),
        tamper: rmc2000::Tamper::None,
    }];
    let run = run(Engine::BlockCache, &clients, None);

    let c0 = &run.outcomes[0];
    assert!(c0.established);
    assert_eq!(c0.error, None);
    assert!(!c0.peer_closed, "client closes first, not the guest");
    assert_eq!(c0.echoed, messages.concat(), "plaintext round-trips");
    let board = &run.boards[0];
    assert_eq!(board.conns[0].handshakes, 1);
    assert_eq!(board.conns[0].records_in, 3);
    assert_eq!(board.conns[0].records_out, 3);
    assert_eq!(board.conns[0].alerts, 0);
    assert_eq!(board.accepts, 1);
    assert_eq!(board.open, 0);
}

/// Secure and plaintext sessions interleave on the same port while the
/// priority-2 serial ISR keeps answering status probes under load.
#[test]
fn mixed_load_serves_secure_and_plain_with_serial_probes() {
    let clients = mixed_workload();
    let run = run(Engine::BlockCache, &clients, Some(500));

    let c0 = &run.outcomes[0];
    assert!(c0.established);
    assert_eq!(c0.error, None);
    assert_eq!(c0.echoed, b"attack at dawnhold position".to_vec());

    assert_eq!(run.outcomes[1].echoed, b"plain oneplain two, longer".to_vec());
    assert_eq!(
        run.outcomes[2].echoed,
        b"interleaved cleartext traffic".to_vec()
    );

    let board = &run.boards[0];
    assert_eq!(board.accepts, 3, "all three handles served");
    assert_eq!(board.open, 0);
    assert_eq!(board.conns[0].handshakes, 1, "exactly one secure session");

    // The console answered every probe with `S<open-handles>\n`, and at
    // some point saw at least two connections open at once.
    assert!(!board.serial_tx.is_empty(), "console answered probes");
    assert_eq!(board.serial_tx.len() % 3, 0);
    let mut max_open = 0u8;
    for line in board.serial_tx.chunks(3) {
        assert_eq!(line[0], b'S');
        assert!(line[1].is_ascii_digit());
        assert_eq!(line[2], b'\n');
        max_open = max_open.max(line[1] - b'0');
    }
    assert!(max_open >= 2, "overlapping sessions visible on the console");

    // The driver publishes the guest's books into the shared registry.
    assert!(run
        .snapshot
        .contains("board0.issl.guest.handshakes{conn=\"0\"} 1"));
    assert!(run.snapshot.contains("board0.issl.guest.records.in"));
    assert!(run.snapshot.contains("board0.net.board.conn.accepts"));
    assert!(
        !run.snapshot.lines().any(|l| l.starts_with("issl.guest.")),
        "guest counters live only under board0."
    );
}

/// The secure channel's determinism bar: every observable of the mixed
/// workload — cycles, instructions, virtual time, client outcomes,
/// console bytes, telemetry — is byte-identical across engines.
#[test]
fn engines_agree_byte_for_byte() {
    let clients = mixed_workload();
    let a = run(Engine::Interpreter, &clients, Some(500));
    let b = run(Engine::BlockCache, &clients, Some(500));

    let (x, y) = (&a.boards[0], &b.boards[0]);
    assert_eq!(x.cycles, y.cycles, "cycle counts agree");
    assert_eq!(x.instructions, y.instructions, "instruction counts agree");
    assert_eq!(a.virtual_us, b.virtual_us, "virtual time agrees");
    assert_eq!(a.outcomes, b.outcomes, "client outcomes agree");
    assert_eq!(x.conns, y.conns, "guest counters agree");
    assert_eq!(x.accepts, y.accepts);
    assert_eq!(x.open, y.open);
    assert_eq!(x.serial_tx, y.serial_tx, "console output agrees");
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots agree");
    assert_eq!(a.echoed_bytes, b.echoed_bytes);
}

/// The cycle profiler attributes where a secure session's time goes:
/// ≥95 % of cycles resolve to named symbols, and the crypto kernels
/// (C SHA-1, hand-assembly AES) appear in the table.
#[test]
fn profiler_attributes_secure_session_cycles_to_symbols() {
    let clients = [GuestClient::secure(&[b"profile me"], PSK)];
    let mut spec = spec(Engine::BlockCache, &clients, None);
    spec.profile = true;
    let run = fleet_serve(&spec);
    assert!(run.outcomes[0].established);

    let report = run.boards[0]
        .profile
        .as_ref()
        .expect("profiling was requested");
    assert!(
        report.attributed_fraction() >= 0.95,
        "only {:.2}% of cycles attributed\n{}",
        100.0 * report.attributed_fraction(),
        report.table()
    );
    for sym in ["_sha1_run", "_hmac_run", "_aes_enc", "_aes_dec", "encrypt", "_pump"] {
        assert!(
            report.rows.iter().any(|r| r.symbol == sym && r.cycles > 0),
            "symbol {sym} missing from profile\n{}",
            report.table()
        );
    }
}

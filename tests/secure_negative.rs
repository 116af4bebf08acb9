//! Negative-path tests for the on-guest secure channel: wrong
//! credentials, tampered MACs, truncated records, and handcrafted
//! bad hellos must each end in a deterministic guest alert and an
//! orderly connection close — byte-identical on both engines.

use issl::recmap;
use rabbit::Engine;
use rmc2000::{fleet_serve, BoardReport, FleetRun, FleetSpec, GuestClient, Tamper};

const PSK: &[u8] = b"rmc2000 shared secret";

/// The wire form of a guest alert record carrying `body`.
fn alert_rec(body: &[u8]) -> Vec<u8> {
    let mut rec = vec![recmap::REC_ALERT];
    rec.extend_from_slice(&(body.len() as u16).to_be_bytes());
    rec.extend_from_slice(body);
    rec
}

/// Runs the workload on one board under both engines, asserts every
/// observable is byte-identical, and returns the interpreter run for
/// inspection.
fn run_both(clients: &[GuestClient]) -> FleetRun {
    let run = |engine| fleet_serve(&FleetSpec::new(engine, 1, PSK, clients.to_vec()));
    let a = run(Engine::Interpreter);
    let b = run(Engine::BlockCache);
    let (x, y) = (&a.boards[0], &b.boards[0]);
    assert_eq!(a.outcomes, b.outcomes, "client outcomes agree");
    assert_eq!(x.conns, y.conns, "guest counters agree");
    assert_eq!(x.accepts, y.accepts, "accepts agree");
    assert_eq!(x.open, y.open, "open handles agree");
    assert_eq!(x.cycles, y.cycles, "cycle counts agree");
    assert_eq!(x.instructions, y.instructions, "instruction counts agree");
    assert_eq!(a.virtual_us, b.virtual_us, "virtual time agrees");
    assert_eq!(x.serial_tx, y.serial_tx, "serial output agrees");
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots agree");
    a
}

/// The only board of a [`run_both`] run.
fn board(run: &FleetRun) -> &BoardReport {
    &run.boards[0]
}

/// Three misbehaving clients on the three NIC handles at once: a wrong
/// pre-shared key, a flipped data-record MAC, and a record truncated
/// after its header. Each draws its own alert; none corrupts the others.
#[test]
fn wrong_psk_tampered_mac_and_truncation_each_draw_an_alert() {
    let run = run_both(&[
        GuestClient::Secure {
            messages: vec![],
            psk: b"not the shared secret".to_vec(),
            tamper: Tamper::None,
        },
        GuestClient::Secure {
            messages: vec![b"flip my mac".to_vec()],
            psk: PSK.to_vec(),
            tamper: Tamper::FlipDataMac,
        },
        GuestClient::Secure {
            messages: vec![],
            psk: PSK.to_vec(),
            tamper: Tamper::TruncateAfterHeader,
        },
    ]);

    // Client 0: the guest rejects the Finished MAC computed from the
    // wrong key, so the handshake never completes and the client machine
    // surfaces the alert as a handshake failure.
    let c0 = &run.outcomes[0];
    assert!(!c0.established, "wrong PSK never establishes");
    assert_eq!(c0.error.as_deref(), Some("PeerAlert"));
    assert!(c0.echoed.is_empty());
    assert!(
        c0.raw_rx.ends_with(&alert_rec(recmap::ALERT_BAD_FINISHED)),
        "stream ends with the bad-finished alert: {:?}",
        c0.raw_rx
    );

    // Client 1: establishes, then its first data record fails the MAC
    // check. In the established state the alert reads as a peer close,
    // not a client error.
    let c1 = &run.outcomes[1];
    assert!(c1.established, "correct PSK establishes");
    assert!(c1.peer_closed, "guest alert closes the channel");
    assert_eq!(c1.error, None);
    assert!(c1.echoed.is_empty(), "tampered record is never echoed");
    assert!(
        c1.raw_rx.ends_with(&alert_rec(recmap::ALERT_CLOSE)),
        "stream ends with the close alert: {:?}",
        c1.raw_rx
    );

    // Client 2: the guest sees EOF with half a record buffered and
    // treats the truncation as fatal.
    let c2 = &run.outcomes[2];
    assert!(c2.established);
    assert!(
        c2.raw_rx.ends_with(&alert_rec(recmap::ALERT_CLOSE)),
        "truncated record draws the close alert: {:?}",
        c2.raw_rx
    );

    // Guest-side books: two completed handshakes (clients 1 and 2), one
    // alert per client, no data record ever accepted or produced.
    let b = board(&run);
    let handshakes: u16 = b.conns.iter().map(|c| c.handshakes).sum();
    let alerts: u16 = b.conns.iter().map(|c| c.alerts).sum();
    let records_in: u16 = b.conns.iter().map(|c| c.records_in).sum();
    let records_out: u16 = b.conns.iter().map(|c| c.records_out).sum();
    assert_eq!(handshakes, 2);
    assert_eq!(alerts, 3);
    assert_eq!(records_in, 0);
    assert_eq!(records_out, 0);
    assert_eq!(b.accepts, 3);
    assert_eq!(b.open, 0, "all handles freed after teardown");
}

/// A handcrafted ClientHello advertising a suite geometry the guest
/// does not serve. The server must refuse before revealing anything:
/// the only bytes on the wire are the unsupported-suite alert.
#[test]
fn handcrafted_unsupported_suite_hello_is_refused() {
    let mut hello = vec![
        recmap::REC_CLIENT_HELLO,
        0,
        recmap::CLIENT_HELLO_LEN as u8,
        8, // key length the guest does not serve
        4,
    ];
    hello.extend((0..recmap::NONCE_LEN).map(|i| i as u8));

    let run = run_both(&[GuestClient::Raw { payload: hello }]);

    let c0 = &run.outcomes[0];
    assert!(c0.established, "TCP connection itself comes up");
    assert_eq!(
        c0.raw_rx,
        alert_rec(recmap::ALERT_UNSUPPORTED_SUITE),
        "alert is the only reply — no ServerHello leaks first"
    );
    let b = board(&run);
    assert_eq!(b.conns[0].handshakes, 0);
    assert_eq!(b.conns[0].alerts, 1);
    assert_eq!(b.accepts, 1);
    assert_eq!(b.open, 0);
}

/// Link-layer corruption — a byte flip on the wire, not a tampering
/// client — draws exactly the same deterministic close alert as the
/// host-side `FlipDataMac` tamper. A one-board fleet serves a
/// well-behaved secure client through a link whose corruption storm
/// flips the last byte (the MAC tail) of every data record; the
/// guest's record layer must refuse the damaged record and close.
#[test]
fn link_layer_corruption_draws_the_same_alert_as_host_tamper() {
    use netsim::Corruption;
    use rmc2000::FaultPlan;

    let mk = |engine: Engine| {
        let clients = vec![GuestClient::Secure {
            messages: vec![b"over a dirty wire".to_vec()],
            psk: PSK.to_vec(),
            tamper: Tamper::None,
        }];
        let mut spec = FleetSpec::new(engine, 1, PSK, clients);
        spec.probe_gap_us = Some(900);
        // Always-on storm on the board's balancer link: every record
        // whose first byte says "data" loses its MAC tail bit.
        spec.faults = FaultPlan::new().storm(
            0,
            0,
            100_000_000,
            Corruption::mac_storm(recmap::REC_DATA),
        );
        spec
    };
    let a = fleet_serve(&mk(Engine::Interpreter));
    let b = fleet_serve(&mk(Engine::BlockCache));
    assert_eq!(a.outcomes, b.outcomes, "client outcomes agree");
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots agree");
    assert_eq!(a.virtual_us, b.virtual_us, "virtual time agrees");
    assert_eq!(
        a.boards[0].cycles, b.boards[0].cycles,
        "cycle counts agree"
    );

    // The handshake survives (its records are not data records); the
    // first data record arrives damaged and the guest closes — the
    // same observable as the host-side MAC flip in
    // `wrong_psk_tampered_mac_and_truncation_each_draw_an_alert`.
    let c0 = &a.outcomes[0];
    assert!(c0.established, "handshake records pass the storm untouched");
    assert!(c0.peer_closed, "guest alert closes the channel");
    assert_eq!(c0.error, None);
    assert!(c0.echoed.is_empty(), "damaged record is never echoed");
    assert!(
        c0.raw_rx.ends_with(&alert_rec(recmap::ALERT_CLOSE)),
        "stream ends with the close alert: {:?}",
        c0.raw_rx
    );

    // The damage is on the books at every layer: the link counted a
    // corrupted frame, the guest counted one close-kind alert.
    assert!(a.faults.corrupted_frames >= 1, "the link flipped a byte");
    assert_eq!(a.boards[0].alert_kinds, [1, 0, 0], "one close alert");
    let alerts: u16 = a.boards[0].conns.iter().map(|c| c.alerts).sum();
    assert_eq!(alerts, 1);
    let records_in: u16 = a.boards[0].conns.iter().map(|c| c.records_in).sum();
    assert_eq!(records_in, 0, "the damaged record was never accepted");
    assert!(
        a.snapshot.contains("net.packets.corrupted"),
        "corruption visible in telemetry"
    );
}
